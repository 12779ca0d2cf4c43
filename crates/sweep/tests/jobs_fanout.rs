//! Worker-count invariance of the farm: the same matrix swept at
//! `--jobs 4` and `--jobs 1` (into separate stores, so nothing is
//! served from a shared cache) must agree on every outcome and render
//! byte-identical emitter output. Together with the checker's own
//! jobs-invariance gate this pins the whole parallel surface of the
//! repo: fan-out changes wall-clock, never results.

use flextm_sweep::aggregate::{emit_cells_json, emit_tables};
use flextm_sweep::{run_sweep, MatrixSpec, RunnerConfig, Store};
use std::path::PathBuf;

#[test]
fn jobs4_and_jobs1_sweeps_render_byte_identical_results() {
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_sweep"));
    let bin_fp = flextm_sweep::binary_fingerprint(&worker).expect("fingerprint");
    let spec = MatrixSpec {
        txns_per_thread: 12,
        ..MatrixSpec::builtin("smoke2x2").unwrap()
    };
    let cells = spec.expand();

    let mut sweeps = Vec::new();
    for jobs in [1, 4] {
        let dir = std::env::temp_dir().join(format!(
            "flextm-sweep-jobs-fanout-test-{}-j{jobs}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir, bin_fp.clone(), "test".to_string()).expect("store opens");
        let config = RunnerConfig {
            jobs,
            progress: false,
        };
        let out = run_sweep(&cells, &store, &config);
        assert!(out.failures.is_empty(), "jobs={jobs}: {:?}", out.failures);
        assert_eq!(
            (out.executed, out.cached),
            (cells.len(), 0),
            "jobs={jobs}: every cell must execute fresh"
        );
        sweeps.push(out);
        std::fs::remove_dir_all(&dir).ok();
    }
    let (serial, fanned) = (&sweeps[0], &sweeps[1]);

    // Outcome-level equality, cell by cell in canonical order.
    assert_eq!(serial.outcomes.len(), fanned.outcomes.len());
    for (a, b) in serial.outcomes.iter().zip(&fanned.outcomes) {
        assert_eq!(a.cell, b.cell, "outcome order must be canonical");
        assert_eq!(a.result.committed, b.result.committed, "{:?}", a.cell);
        assert_eq!(a.result.attempts, b.result.attempts, "{:?}", a.cell);
        assert_eq!(a.result.sim_ops, b.result.sim_ops, "{:?}", a.cell);
        assert_eq!(a.result.sim_cycles, b.result.sim_cycles, "{:?}", a.cell);
        assert_eq!(a.result.digest, b.result.digest, "{:?}", a.cell);
    }

    // Emitter-level equality, byte for byte.
    assert_eq!(
        emit_tables("smoke2x2", &spec.metrics, &serial.outcomes),
        emit_tables("smoke2x2", &spec.metrics, &fanned.outcomes),
    );
    assert_eq!(
        emit_cells_json("smoke2x2", &serial.outcomes),
        emit_cells_json("smoke2x2", &fanned.outcomes),
    );
}
