//! The phase-split simulator runner.
//!
//! `flextm_workloads::harness::run_measured` runs the functional L2
//! sweep, the warm-up transactions and the timed region in one call, so
//! set-up time cannot be told from timed time through it. This module
//! re-implements the same phases from public API, with the host clock
//! read at the one boundary that matters (the start of the timed
//! region) and a span around each phase in the traced pass.
//! `tests/harness_parity.rs` proves the two produce identical simulated
//! results for every runtime.

use crate::alloc;
use crate::rep::{fnv1a, Counts, Rep, Simulated, FNV_OFFSET};
use crate::spec::{Cell, WARMUP_PER_THREAD};
use crate::trace::Tracer;
use flextm_sim::api::TmRuntime;
use flextm_sim::{Addr, Machine, MachineReport, LINE_BYTES};
use flextm_workloads::alloc::NodeAlloc;
use flextm_workloads::harness::{RunConfig, ThreadCtx, Workload};
use flextm_workloads::rng::WlRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Simulated outcome of a timed region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measured {
    /// Transactions committed (harness-counted).
    pub committed: u64,
    /// Attempts (≥ committed).
    pub attempts: u64,
    /// Elapsed simulated cycles (max over cores).
    pub cycles: u64,
    /// Machine counter deltas over the timed region.
    pub report: MachineReport,
}

/// [`run_phases`]' result: the simulated outcome plus the host time of
/// the timed region alone.
#[derive(Debug)]
pub struct PhasedRun {
    /// Simulated outcome.
    pub measured: Measured,
    /// When the timed region started.
    pub timed_start: Instant,
    /// Host time of the timed region.
    pub timed: Duration,
    /// Host heap allocations made inside the timed region.
    pub timed_allocs: u64,
    /// Bytes those allocations requested.
    pub timed_alloc_bytes: u64,
}

/// The phases of `run_measured` — functional L2 sweep, warm-up
/// (`seed ^ 0xAAAA`, arenas `tid + 128`), clock alignment, timed run —
/// on an already set-up `workload`.
pub fn run_phases(
    machine: &Machine,
    runtime: &dyn TmRuntime,
    workload: &dyn Workload,
    config: RunConfig,
    tracer: &mut Tracer,
) -> PhasedRun {
    tracer.span("l2_warm", || {
        let pages = machine.with_state(|st| st.mem.touched_page_addrs());
        machine.run(1, |proc| {
            for &page in &pages {
                for line in 0..(4096 / LINE_BYTES) {
                    proc.load(Addr::new(page + line * LINE_BYTES));
                }
            }
        });
    });

    tracer.span("warmup", || {
        if config.warmup_per_thread > 0 {
            machine.run(config.threads, |proc| {
                let tid = proc.core();
                let mut th = runtime.thread(tid, proc);
                let mut ctx = ThreadCtx {
                    tid,
                    rng: WlRng::new(config.seed ^ 0xAAAA, tid),
                    alloc: NodeAlloc::for_thread(tid + 128),
                };
                for _ in 0..config.warmup_per_thread {
                    workload.run_once(th.as_mut(), &mut ctx);
                }
            });
        }
        machine.align_clocks();
    });
    let before = machine.report();

    let timed_span = tracer.begin("timed");
    let heap_before = alloc::mark();
    let timed_start = Instant::now();
    let per_thread: Vec<(u64, u64)> = machine.run(config.threads, |proc| {
        let tid = proc.core();
        let mut th = runtime.thread(tid, proc);
        let mut ctx = ThreadCtx {
            tid,
            rng: WlRng::new(config.seed, tid),
            alloc: NodeAlloc::for_thread(tid),
        };
        let mut attempts = 0u64;
        for _ in 0..config.txns_per_thread {
            attempts += u64::from(workload.run_once(th.as_mut(), &mut ctx));
        }
        (config.txns_per_thread, attempts)
    });
    let timed = timed_start.elapsed();
    let heap_after = alloc::mark();
    tracer.end(timed_span);

    let report = machine.report().delta(&before);
    PhasedRun {
        measured: Measured {
            committed: per_thread.iter().map(|(c, _)| c).sum(),
            attempts: per_thread.iter().map(|(_, a)| a).sum(),
            cycles: report.elapsed_cycles(),
            report,
        },
        timed_start,
        timed,
        timed_allocs: heap_after.allocs - heap_before.allocs,
        timed_alloc_bytes: heap_after.bytes - heap_before.bytes,
    }
}

/// Folds a timed region into `digest`: per core, the counter deltas and
/// the clock (the construction `flextm-bench`'s `CellResult::from_run`
/// uses), then the committed-structure summary.
fn fold_digest(digest: &mut u64, m: &Measured, structure_word: u64) {
    for (i, core) in m.report.cores.iter().enumerate() {
        fnv1a(
            digest,
            format!("{i}:{core:?}:{}", m.report.core_cycles[i]).as_bytes(),
        );
    }
    fnv1a(digest, &structure_word.to_le_bytes());
}

/// The accounting identities every timed region must satisfy.
fn check_region(cell: &Cell, m: &Measured, failures: &mut Vec<String>) {
    let label = format!("{:?}/{:?}/{}T", cell.structure, cell.runtime, cell.threads);
    if m.committed != cell.txns() {
        failures.push(format!(
            "{label}: committed {} of {}",
            m.committed,
            cell.txns()
        ));
    }
    for (i, core) in m.report.cores.iter().enumerate() {
        if core.abort_causes.cause_sum() != core.tx_aborts + core.failed_commits {
            failures.push(format!(
                "{label}: core {i} abort causes do not sum to its aborts"
            ));
        }
        if core.cycle_sum() != m.report.core_cycles[i] {
            failures.push(format!(
                "{label}: core {i} cycle buckets do not sum to its clock"
            ));
        }
    }
}

/// Runs every cell of a simulator workload once, each on a fresh machine.
pub fn run_sim_rep(cells: &[Cell], seed: u64, tracer: &mut Tracer) -> Rep {
    let mut rep = Rep {
        setup_s: 0.0,
        timed_s: 0.0,
        timed_allocs: 0,
        timed_alloc_bytes: 0,
        requested: cells.iter().map(Cell::txns).sum(),
        simulated: Simulated {
            digest: FNV_OFFSET,
            ops: 0,
            counts: None,
            txn_per_mcycle: 0.0,
            states: 0,
        },
        failures: Vec::new(),
    };
    let mut counts = Counts::default();
    let mut log_throughput = 0.0;
    for cell in cells {
        let cell_start = Instant::now();
        let machine = tracer.span("machine_new", || Machine::new(cell.machine_config()));
        let mut built = cell.structure.build(cell.threads);
        let runtime = tracer.span("workload_setup", || {
            built.setup(&machine);
            cell.runtime.build(&machine, cell.threads)
        });
        let config = RunConfig {
            threads: cell.threads,
            txns_per_thread: cell.txns_per_thread,
            warmup_per_thread: WARMUP_PER_THREAD,
            seed,
        };
        let run = run_phases(&machine, runtime.as_ref(), built.workload(), config, tracer);
        rep.setup_s += (run.timed_start - cell_start).as_secs_f64();
        rep.timed_s += run.timed.as_secs_f64();
        rep.timed_allocs += run.timed_allocs;
        rep.timed_alloc_bytes += run.timed_alloc_bytes;

        let report_span = tracer.begin("report");
        let m = &run.measured;
        check_region(cell, m, &mut rep.failures);
        let verified = catch_unwind(AssertUnwindSafe(|| {
            machine.with_state(|st| built.verify(st))
        }));
        match verified {
            Ok(word) => fold_digest(&mut rep.simulated.digest, m, word),
            Err(_) => rep
                .failures
                .push(format!("{:?}: structure check failed", cell.structure)),
        }
        counts.add(m);
        log_throughput += (m.committed as f64 * 1e6 / m.cycles as f64).ln();
        // Tearing the machine down is part of what a cell costs.
        drop(runtime);
        drop(machine);
        tracer.end(report_span);
    }
    rep.simulated.ops = counts.ops();
    rep.simulated.txn_per_mcycle = (log_throughput / cells.len() as f64).exp();
    rep.simulated.counts = Some(counts);
    rep
}
