//! The measurement harness: runs a workload on a runtime at a thread
//! count and reports throughput the way the paper does —
//! transactions per million cycles, normalized externally to 1-thread
//! CGL (Fig. 4) or to 1-thread FlexTM-Eager (Fig. 5).

use crate::alloc::NodeAlloc;
use crate::rng::WlRng;
use flextm_sim::api::{TmRuntime, TmThread};
use flextm_sim::{Machine, MachineReport};

/// Per-worker context handed to every [`Workload::run_once`] call:
/// the thread's RNG stream and its private node allocator.
#[derive(Debug)]
pub struct ThreadCtx {
    /// Software thread id.
    pub tid: usize,
    /// Deterministic random stream.
    pub rng: WlRng,
    /// Private simulated-memory allocator.
    pub alloc: NodeAlloc,
}

/// One benchmark: knows how to build its shared data in simulated
/// memory and how to run one transaction.
pub trait Workload: Sync {
    /// Display name ("HashTable", "Vacation-High", …).
    fn name(&self) -> &str;

    /// Builds shared data structures directly in simulated memory
    /// (zero simulated cost — the paper's warm-up phase is untimed
    /// too). Called exactly once, before any run.
    fn setup(&mut self, machine: &Machine);

    /// Executes one transaction (or, for non-transactional workloads,
    /// one unit of work) on `th`. Returns the number of attempts the
    /// unit took (1 when it committed first try; non-transactional
    /// units return 1).
    fn run_once(&self, th: &mut dyn TmThread, ctx: &mut ThreadCtx) -> u32;
}

/// A zero-cost, non-transactional [`flextm_sim::api::Txn`] over
/// committed memory, for building data structures at setup time with
/// the same code that runs transactionally later.
#[derive(Debug)]
pub struct DirectTxn<'a> {
    st: &'a mut flextm_sim::SimState,
}

impl<'a> DirectTxn<'a> {
    /// Wraps simulator state (use inside `Machine::with_state`).
    pub fn new(st: &'a mut flextm_sim::SimState) -> Self {
        DirectTxn { st }
    }
}

impl flextm_sim::api::Txn for DirectTxn<'_> {
    fn read(&mut self, addr: flextm_sim::Addr) -> Result<u64, flextm_sim::api::TxRetry> {
        Ok(self.st.mem.read(addr))
    }
    fn write(
        &mut self,
        addr: flextm_sim::Addr,
        value: u64,
    ) -> Result<(), flextm_sim::api::TxRetry> {
        self.st.mem.write(addr, value);
        Ok(())
    }
    fn work(&mut self, _cycles: u64) -> Result<(), flextm_sim::api::TxRetry> {
        Ok(())
    }
}

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Worker threads (each pinned to its core).
    pub threads: usize,
    /// Timed transactions per thread.
    pub txns_per_thread: u64,
    /// Untimed warm-up transactions per thread.
    pub warmup_per_thread: u64,
    /// Workload RNG seed.
    pub seed: u64,
}

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Runtime name.
    pub runtime: String,
    /// Threads used.
    pub threads: usize,
    /// Transactions committed in the timed region (harness-counted:
    /// every `txn()` call commits exactly once).
    pub committed: u64,
    /// Total attempts in the timed region (≥ committed).
    pub attempts: u64,
    /// Elapsed cycles of the timed region (max over cores).
    pub cycles: u64,
    /// Machine counter deltas over the timed region.
    pub report: MachineReport,
    /// [`TmThread::conflict_histogram`] summed over the timed region's
    /// threads (empty on runtimes that keep none).
    pub conflict_histogram: Vec<u64>,
}

impl RunResult {
    /// Transactions per million cycles — the paper's Fig. 4 y-axis
    /// before normalization.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 * 1e6 / self.cycles as f64
        }
    }

    /// Aborted attempts / total attempts.
    pub fn abort_ratio(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            (self.attempts - self.committed) as f64 / self.attempts as f64
        }
    }
}

/// Runs `workload` on `runtime` with `config`, returning the timed
/// measurements. The workload's `setup` must already have run, and
/// each machine should host exactly one measured run (worker arenas
/// are reused across calls).
pub fn run_measured(
    machine: &Machine,
    runtime: &dyn TmRuntime,
    workload: &dyn Workload,
    config: RunConfig,
) -> RunResult {
    // Functional cache warming: sweep every live page once so the
    // shared L2 and directory are warm before anything is timed. Short
    // measured regions are otherwise dominated by one-time cold misses,
    // which amortize differently across thread counts and masquerade as
    // (super-)scaling.
    let pages = machine.with_state(|st| st.mem.touched_page_addrs());
    machine.run(1, |proc| {
        for &page in &pages {
            for line in 0..(4096 / flextm_sim::LINE_BYTES) {
                proc.load(flextm_sim::Addr::new(page + line * flextm_sim::LINE_BYTES));
            }
        }
    });

    // Warm-up region (untimed).
    if config.warmup_per_thread > 0 {
        machine.run(config.threads, |proc| {
            let tid = proc.core();
            let mut th = runtime.thread(tid, proc);
            // Warm-up allocations come from a disjoint arena range so
            // the timed phase cannot re-carve lines that warm-up
            // transactions linked into shared structures.
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
    // Barrier: warm-up work skews per-core clocks (serialized phases
    // leave threads in disjoint simulated-time windows); realign so the
    // timed region starts simultaneously on every core.
    machine.align_clocks();
    let before = machine.report();
    let per_thread: Vec<(u64, u64, Vec<u64>)> = machine.run(config.threads, |proc| {
        let tid = proc.core();
        let mut th = runtime.thread(tid, proc);
        let mut ctx = ThreadCtx {
            tid,
            rng: WlRng::new(config.seed, tid),
            alloc: NodeAlloc::for_thread(tid),
        };
        let mut committed = 0u64;
        let mut attempts = 0u64;
        for _ in 0..config.txns_per_thread {
            attempts += u64::from(workload.run_once(th.as_mut(), &mut ctx));
            committed += 1;
        }
        (committed, attempts, th.conflict_histogram().to_vec())
    });
    let after = machine.report();
    let report = after.delta(&before);
    let committed = per_thread.iter().map(|(c, _, _)| c).sum();
    let attempts = per_thread.iter().map(|(_, a, _)| a).sum();
    let mut conflict_histogram = Vec::new();
    for (_, _, histogram) in &per_thread {
        if conflict_histogram.len() < histogram.len() {
            conflict_histogram.resize(histogram.len(), 0);
        }
        for (total, count) in conflict_histogram.iter_mut().zip(histogram) {
            *total += count;
        }
    }
    RunResult {
        workload: workload.name().to_string(),
        runtime: runtime.name().to_string(),
        threads: config.threads,
        committed,
        attempts,
        cycles: report.elapsed_cycles(),
        report,
        conflict_histogram,
    }
}
