//! Bit-identity of the farmed path: a cell executed on a sweep worker
//! thread must produce exactly the simulated results of
//! `flextm_bench::run_cell` on the calling thread — every counter, the
//! conflict histogram and the per-core counter digest — and a store
//! round trip must hand back the same. This is the property that lets
//! any `--jobs` regenerate EXPERIMENTS.md without changing a single
//! reported number.
//!
//! Also exercises the farm end to end: a tiny sweep through the real
//! runner (worker threads, store) twice, asserting the second pass is
//! served entirely from cache with identical results.

use flextm_bench::{run_cell, CellResult, CellSpec, RuntimeKind, Variant, WorkloadKind};
use flextm_sweep::{run_sweep, MatrixSpec, RunnerConfig, Store};
use std::path::PathBuf;

/// The first cell of built-in `spec` that `pick` accepts.
fn cell_of(spec: &str, pick: impl Fn(&CellSpec) -> bool) -> CellSpec {
    MatrixSpec::builtin(spec)
        .unwrap()
        .expand()
        .into_iter()
        .find(pick)
        .unwrap_or_else(|| panic!("{spec} has no such cell"))
}

#[test]
fn worker_thread_results_match_the_serial_path_bit_for_bit() {
    // Two cells of Fig. 4(a) exactly as `fig4_ws1` sizes them (seed
    // 0xF1E7, 96 txns), one contended, plus one cell per non-`Paper`
    // variant as its spec sizes it; one sweep at jobs=2, so some of
    // them run on a spawned worker thread.
    let fig4 =
        |runtime, threads| cell_of("fig4_ws1", |c| (c.runtime, c.threads) == (runtime, threads));
    let overflow = |variant| {
        cell_of("ablation_overflow", |c| {
            (c.workload, c.variant) == (WorkloadKind::RandomGraph, variant)
        })
    };
    let cells = vec![
        fig4(RuntimeKind::Cgl, 1),
        fig4(RuntimeKind::FlexTmEager, 4),
        cell_of("ablation_cst", |c| c.variant == Variant::CommitToken),
        overflow(Variant::SmallL1),
        overflow(Variant::SmallL1Ideal),
        cell_of("ablation_signature", |c| c.variant == Variant::BitSelect),
        cell_of("fig5_multiprog", |c| c.workload == WorkloadKind::LfuCache),
    ];
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
    let cold = run_sweep(&cells, &store, &config);
    assert!(cold.failures.is_empty(), "{:?}", cold.failures);
    assert_eq!(cold.executed, cells.len());
    let warm = run_sweep(&cells, &store, &config);
    assert_eq!(warm.cached, cells.len(), "{:?}", warm.failures);

    for ((cell, farmed), stored) in cells.iter().zip(&cold.outcomes).zip(&warm.outcomes) {
        let here = CellResult::from_run(&run_cell(cell), 0.0);
        let sans_wall = |r: &CellResult| CellResult {
            wall_s: 0.0,
            ..r.clone()
        };
        assert_eq!(sans_wall(&farmed.result), here, "{}", cell.label());
        assert_eq!(sans_wall(&stored.result), here, "{}", cell.label());
    }
    // Not vacuous for the fields the variants added: the L1-8K
    // RandomGraph cell overflows, its ideal-buffer twin never does, and
    // contended FlexTM commits have enemies.
    let (ot, ideal) = (&cold.outcomes[3].result, &cold.outcomes[4].result);
    assert!(ot.overflows > 0 && ot.conflict_histogram.len() > 1);
    assert_eq!(ideal.overflows, 0);
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
