//! What one repetition of any workload yields, in one shape.

use crate::runner::Measured;
use flextm_sim::CoreStats;

/// Sums of the timed region's counters over all cores, plus what the
/// scheduler did — everything the layer metrics are computed from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Sum of per-core counters.
    pub core: CoreStats,
    /// Scheduler fast-path ops.
    pub fast_ops: u64,
    /// Full-rendezvous ops.
    pub slow_ops: u64,
    /// Lease grants that woke another core.
    pub grants: u64,
    /// Transactions committed (harness-counted).
    pub committed: u64,
    /// Attempts.
    pub attempts: u64,
    /// Elapsed simulated cycles (summed over cells).
    pub cycles: u64,
    /// L1 misses on machines wider than 16 cores (they are priced with
    /// the 64-core miss probe).
    pub wide_l1_misses: u64,
}

impl Counts {
    /// Scheduled ISA-level operations: the benchmark's op unit for
    /// simulator workloads.
    pub fn ops(&self) -> u64 {
        let c = &self.core;
        c.loads + c.stores + c.tloads + c.tstores + c.commits + c.failed_commits + c.tx_aborts
    }

    /// Adds one timed region.
    pub fn add(&mut self, m: &Measured) {
        let c = &mut self.core;
        for s in &m.report.cores {
            c.loads += s.loads;
            c.stores += s.stores;
            c.tloads += s.tloads;
            c.tstores += s.tstores;
            c.l1_hits += s.l1_hits;
            c.l1_misses += s.l1_misses;
            c.l2_misses += s.l2_misses;
            c.ot_hits += s.ot_hits;
            c.threatened_seen += s.threatened_seen;
            c.exposed_seen += s.exposed_seen;
            c.alerts += s.alerts;
            c.overflows += s.overflows;
            c.nacks += s.nacks;
            c.commits += s.commits;
            c.failed_commits += s.failed_commits;
            c.tx_aborts += s.tx_aborts;
            c.writebacks += s.writebacks;
            c.work_cycles += s.work_cycles;
            c.mem_cycles += s.mem_cycles;
            c.stall_cycles += s.stall_cycles;
            c.wasted_cycles += s.wasted_cycles;
        }
        self.fast_ops += m.report.sched.fast_ops;
        self.slow_ops += m.report.sched.slow_ops;
        self.grants += m.report.sched.grants;
        self.committed += m.committed;
        self.attempts += m.attempts;
        self.cycles += m.cycles;
        if m.report.cores.len() > 16 {
            self.wide_l1_misses += m.report.total(|s| s.l1_misses);
        }
    }
}

/// What a repetition simulated. Must be identical in every repetition
/// of a workload: a mismatch is a failure, not noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulated {
    /// FNV-1a over the simulated outcome: per cell, every core's counter
    /// deltas and clock plus a summary of the committed structure;
    /// for a checker run, its state and transition counts.
    pub digest: u64,
    /// Operations of the timed region: scheduled ISA-level operations
    /// for simulator workloads, applied transitions for checker ones.
    pub ops: u64,
    /// Counter totals of the timed regions (`None` for checker runs,
    /// which have no machine report).
    pub counts: Option<Counts>,
    /// Geometric mean over cells of committed transactions per million
    /// simulated cycles (0 for checker runs).
    pub txn_per_mcycle: f64,
    /// Distinct canonical states reached (checker runs; their
    /// transitions are `ops`).
    pub states: u64,
}

/// One repetition.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds from the start of the repetition (of each cell) to
    /// the start of its timed region.
    pub setup_s: f64,
    /// Host seconds of the timed region(s).
    pub timed_s: f64,
    /// Host heap allocations made inside the timed region(s).
    pub timed_allocs: u64,
    /// Bytes those allocations requested.
    pub timed_alloc_bytes: u64,
    /// Transactions (checker: transitions) the repetition was asked for.
    pub requested: u64,
    /// The simulated outcome.
    pub simulated: Simulated,
    /// Correctness checks that tripped (empty when the repetition is good).
    pub failures: Vec<String>,
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing `h`.
pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}
