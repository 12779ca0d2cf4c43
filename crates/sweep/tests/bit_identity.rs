//! Bit-identity of the farmed path: a cell executed on a sweep worker
//! thread must produce exactly the simulated results of the serial
//! path (`flextm_bench::run_point` on the calling thread, what the
//! `cargo bench` targets do) — same committed/attempts/sim_ops/
//! sim_cycles and the same per-core counter digest. This is the
//! property that lets EXPERIMENTS.md regenerate through the farm
//! without changing a single reported number.
//!
//! Also exercises the farm end to end: a tiny sweep through the real
//! runner (worker threads, store) twice, asserting the second pass is
//! served entirely from cache with identical results.

use flextm_bench::{point_spec, run_point, CellResult, RuntimeKind, WorkloadKind};
use flextm_sweep::{run_sweep, MatrixSpec, RunnerConfig, Store};
use std::path::PathBuf;

#[test]
fn worker_thread_results_match_the_serial_path_bit_for_bit() {
    // Two cells of the Fig. 4 HashTable matrix at the serial path's
    // exact sizing (seed 0xF1E7, txns 96 — `point_spec` with the
    // default base), one contended; one sweep at jobs=2, so each runs
    // on its own worker thread.
    let points = [(RuntimeKind::Cgl, 1), (RuntimeKind::FlexTmEager, 4)];
    let cells: Vec<_> = points
        .iter()
        .map(|&(runtime, threads)| point_spec(WorkloadKind::HashTable, runtime, threads, 96))
        .collect();
    let dir = std::env::temp_dir().join(format!(
        "flextm-sweep-worker-thread-test-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir, "0".repeat(16), "test".to_string()).expect("store opens");
    let config = RunnerConfig {
        jobs: 2,
        progress: false,
    };
    let sweep = run_sweep(&cells, &store, &config);
    assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);
    assert_eq!(sweep.executed, 2);

    for ((runtime, threads), outcome) in points.into_iter().zip(&sweep.outcomes) {
        let serial = run_point(WorkloadKind::HashTable, runtime, threads);
        let serial = CellResult::from_run(&serial, 0.0);
        let farmed = &outcome.result;
        assert_eq!(farmed.committed, serial.committed, "{runtime:?}@{threads}T");
        assert_eq!(farmed.attempts, serial.attempts, "{runtime:?}@{threads}T");
        assert_eq!(farmed.sim_ops, serial.sim_ops, "{runtime:?}@{threads}T");
        assert_eq!(
            farmed.sim_cycles, serial.sim_cycles,
            "{runtime:?}@{threads}T"
        );
        assert_eq!(farmed.digest, serial.digest, "{runtime:?}@{threads}T");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_is_incremental_and_cache_hits_are_bit_identical() {
    let dir = std::env::temp_dir().join(format!(
        "flextm-sweep-incremental-test-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let worker = PathBuf::from(env!("CARGO_BIN_EXE_sweep"));
    let bin_fp = flextm_sweep::binary_fingerprint(&worker).expect("fingerprint");
    let spec = MatrixSpec {
        txns_per_thread: 12,
        ..MatrixSpec::builtin("smoke2x2").unwrap()
    };
    let cells = spec.expand();
    let config = RunnerConfig {
        jobs: 2,
        progress: false,
    };

    let store = Store::open(&dir, bin_fp.clone(), "test".to_string()).expect("store opens");
    let cold = run_sweep(&cells, &store, &config);
    assert!(cold.failures.is_empty(), "{:?}", cold.failures);
    assert_eq!((cold.executed, cold.cached), (4, 0));

    let warm = run_sweep(&cells, &store, &config);
    assert!(warm.failures.is_empty(), "{:?}", warm.failures);
    assert_eq!(
        (warm.executed, warm.cached),
        (0, 4),
        "a no-change re-run must be pure cache"
    );
    for (a, b) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.result.digest, b.result.digest);
        assert_eq!(a.result.committed, b.result.committed);
        assert_eq!(a.result.sim_cycles, b.result.sim_cycles);
    }

    // A new axis value only executes the new cells.
    let grown = MatrixSpec {
        threads: vec![1, 2, 4],
        ..spec
    };
    let incremental = run_sweep(&grown.expand(), &store, &config);
    assert!(
        incremental.failures.is_empty(),
        "{:?}",
        incremental.failures
    );
    assert_eq!(
        (incremental.executed, incremental.cached),
        (2, 4),
        "only the two 4-thread cells are new"
    );

    // A different binary fingerprint invalidates everything.
    let other = Store::open(&dir, format!("{bin_fp}00"), "test".to_string()).unwrap();
    let cold_again = run_sweep(&cells, &other, &config);
    assert_eq!(cold_again.cached, 0, "stale-binary entries must not serve");

    std::fs::remove_dir_all(&dir).ok();
}

/// A panicking cell must cost exactly that cell: a per-cell failure
/// report carrying its panic message, and every other cell still
/// completes.
#[test]
fn a_failing_cell_does_not_kill_the_batch() {
    let dir =
        std::env::temp_dir().join(format!("flextm-sweep-failure-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_sweep"));
    let bin_fp = flextm_sweep::binary_fingerprint(&worker).expect("fingerprint");
    let store = Store::open(&dir, bin_fp, "test".to_string()).unwrap();

    let spec = MatrixSpec {
        txns_per_thread: 12,
        ..MatrixSpec::builtin("smoke2x2").unwrap()
    };
    let mut cells = spec.expand();
    // A cell `Machine::new` rejects: wider than the 128-core machine
    // cap (spec validation would refuse it; the runner handles a
    // hostile queue anyway, because that is the failure-containment
    // contract).
    cells[1].threads = 4096;

    let config = RunnerConfig {
        jobs: 2,
        progress: false,
    };
    let outcome = run_sweep(&cells, &store, &config);
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].cell.threads, 4096);
    assert!(
        outcome.failures[0]
            .error
            .contains("machine configuration requests 4096 cores"),
        "the failure must carry the cell's own ConfigError text: {}",
        outcome.failures[0].error
    );
    assert_eq!(outcome.outcomes.len(), 3, "the other cells completed");

    std::fs::remove_dir_all(&dir).ok();
}
