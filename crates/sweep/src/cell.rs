//! One cell of the evaluation matrix: what it is and how it runs.
//!
//! A *cell* is one point of the evaluation matrix — workload × runtime
//! × CM policy × threads × signature size × seed × transaction count ×
//! [`Variant`] — described exactly (no environment variables, no
//! derived sizing) so that the same [`CellSpec`] produces the same
//! simulated results in any process and on any thread. The runner's
//! worker threads — the one generator of every simulated table in
//! EXPERIMENTS.md — and the tests share this one entry point,
//! [`run_cell`]; the label tables here ([`RuntimeKind`],
//! [`WorkloadKind`], [`Variant`], [`cm_label`]) are the names the
//! [`spec`](crate::spec) parser reads.
//!
//! [`CellResult`] carries the deterministic simulated outcome
//! (committed / attempts / sim_ops / sim_cycles / overflows / the
//! conflict histogram plus [`counter_digest`], the digest the
//! `fingerprint` binary also prints), the run's scheduler counters and
//! the host wall time, which is the only nondeterministic field.

use flextm::{CmKind, FlexTm, FlexTmConfig, Mode};
use flextm_sig::HashScheme;
use flextm_sim::api::TmRuntime;
use flextm_sim::{Machine, MachineConfig, MachineReport, SchedStats};
use flextm_stm::{Cgl, Rstm, RtmF, Tl2};
use flextm_workloads::harness::{run_measured, RunConfig, RunResult, Workload};
use flextm_workloads::{
    Contention, Delaunay, HashTable, LfuCache, PrimeMix, RandomGraph, RbTree, Vacation,
};
use std::time::Instant;

/// The runtimes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Coarse-grain locks (normalization baseline).
    Cgl,
    /// FlexTM with eager conflict management (Polka).
    FlexTmEager,
    /// FlexTM with lazy conflict management (Polka).
    FlexTmLazy,
    /// RTM-F hardware-accelerated STM model.
    RtmF,
    /// RSTM-like invisible-reader STM.
    Rstm,
    /// TL2 (Workload-Set 2 comparator).
    Tl2,
}

impl RuntimeKind {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Cgl => "CGL",
            RuntimeKind::FlexTmEager => "FlexTM(E)",
            RuntimeKind::FlexTmLazy => "FlexTM(L)",
            RuntimeKind::RtmF => "RTM-F",
            RuntimeKind::Rstm => "RSTM",
            RuntimeKind::Tl2 => "TL2",
        }
    }

    /// Inverse of [`RuntimeKind::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        ALL_RUNTIMES.into_iter().find(|k| k.label() == s)
    }

    /// Instantiates the runtime on `machine` for `threads` threads.
    /// CGL and TL2 have no contention manager and ignore `cm`; only the
    /// FlexTM runtimes have a commit token to serialize through.
    pub fn build(
        self,
        machine: &Machine,
        threads: usize,
        cm: CmKind,
        serialized_commits: bool,
    ) -> Box<dyn TmRuntime + '_> {
        let flex = |mode| FlexTmConfig {
            mode,
            cm,
            threads,
            serialized_commits,
        };
        match self {
            RuntimeKind::Cgl => Box::new(Cgl::new(machine)),
            RuntimeKind::FlexTmEager => Box::new(FlexTm::new(machine, flex(Mode::Eager))),
            RuntimeKind::FlexTmLazy => Box::new(FlexTm::new(machine, flex(Mode::Lazy))),
            RuntimeKind::RtmF => Box::new(RtmF::new(machine, threads, cm)),
            RuntimeKind::Rstm => Box::new(Rstm::new(machine, threads, cm)),
            RuntimeKind::Tl2 => Box::new(Tl2::with_defaults(machine)),
        }
    }
}

/// Every runtime of the evaluation.
pub const ALL_RUNTIMES: [RuntimeKind; 6] = [
    RuntimeKind::Cgl,
    RuntimeKind::FlexTmEager,
    RuntimeKind::FlexTmLazy,
    RuntimeKind::RtmF,
    RuntimeKind::Rstm,
    RuntimeKind::Tl2,
];

/// The benchmarks of Table 3(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// HashTable (WS1).
    HashTable,
    /// RBTree (WS1).
    RbTree,
    /// LFUCache (WS1).
    LfuCache,
    /// RandomGraph (WS1).
    RandomGraph,
    /// Delaunay (WS1).
    Delaunay,
    /// Vacation, low contention (WS2).
    VacationLow,
    /// Vacation, high contention (WS2).
    VacationHigh,
}

impl WorkloadKind {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::HashTable => "HashTable",
            WorkloadKind::RbTree => "RBTree",
            WorkloadKind::LfuCache => "LFUCache",
            WorkloadKind::RandomGraph => "RandomGraph",
            WorkloadKind::Delaunay => "Delaunay",
            WorkloadKind::VacationLow => "Vacation-Low",
            WorkloadKind::VacationHigh => "Vacation-High",
        }
    }

    /// Inverse of [`WorkloadKind::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        ALL_WORKLOADS.into_iter().find(|k| k.label() == s)
    }

    /// Builds a fresh (un-setup) workload instance.
    pub fn build(self, max_threads: usize) -> Box<dyn Workload> {
        match self {
            WorkloadKind::HashTable => Box::new(HashTable::paper()),
            WorkloadKind::RbTree => Box::new(RbTree::paper()),
            WorkloadKind::LfuCache => Box::new(LfuCache::paper()),
            WorkloadKind::RandomGraph => Box::new(RandomGraph::paper()),
            WorkloadKind::Delaunay => Box::new(Delaunay::new(max_threads)),
            WorkloadKind::VacationLow => Box::new(Vacation::new(Contention::Low)),
            WorkloadKind::VacationHigh => Box::new(Vacation::new(Contention::High)),
        }
    }

    /// High-conflict workloads run fewer transactions per point to keep
    /// full sweeps tractable.
    pub fn txn_scale(self) -> f64 {
        match self {
            // RandomGraph transactions are ~100× heavier than HashTable
            // ones (80-line read sets; quadratic validation on RSTM).
            WorkloadKind::RandomGraph => 0.25,
            WorkloadKind::Delaunay => 0.5,
            _ => 1.0,
        }
    }
}

/// Every workload of the evaluation, in the paper's Table 3(b) order.
pub const ALL_WORKLOADS: [WorkloadKind; 7] = [
    WorkloadKind::HashTable,
    WorkloadKind::RbTree,
    WorkloadKind::LfuCache,
    WorkloadKind::RandomGraph,
    WorkloadKind::Delaunay,
    WorkloadKind::VacationLow,
    WorkloadKind::VacationHigh,
];

/// FNV-1a over `bytes`, continuing `h`.
pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a digest over every core's counters and clock, in core order —
/// the bit-identity witness of a run ([`CellResult::digest`], and the
/// `fingerprint` binary's `counter_digest`).
pub fn counter_digest(report: &MachineReport) -> u64 {
    let mut digest = FNV_OFFSET;
    for (i, core) in report.cores.iter().enumerate() {
        fnv1a(
            &mut digest,
            format!("{i}:{core:?}:{}", report.core_cycles[i]).as_bytes(),
        );
    }
    digest
}

/// Stable label for a CM policy (the `flextm` crate's `CmKind`).
pub fn cm_label(cm: CmKind) -> &'static str {
    match cm {
        CmKind::Polka => "Polka",
        CmKind::Aggressive => "Aggressive",
        CmKind::Timid => "Timid",
        CmKind::Polite => "Polite",
    }
}

/// Inverse of [`cm_label`].
pub fn cm_from_label(s: &str) -> Option<CmKind> {
    [
        CmKind::Polka,
        CmKind::Aggressive,
        CmKind::Timid,
        CmKind::Polite,
    ]
    .into_iter()
    .find(|&cm| cm_label(cm) == s)
}

/// The named deviations from the paper's machine and runtime that the
/// evaluation measures. A closed set: each is one configuration
/// somebody reports, not a switch to combine with the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The paper's configuration (Table 3(a) machine, stock runtime).
    Paper,
    /// Commits serialized through a global token, TCC/Bulk-style.
    CommitToken,
    /// An 8 KB L1 (half the paper's) with the real 32-entry victim
    /// buffer and OT, so our smaller transactions reach overflow (§7.3).
    SmallL1,
    /// [`Variant::SmallL1`] with unbounded victim buffering of TMI
    /// lines only: nothing overflows, no other capacity changes.
    SmallL1Ideal,
    /// Bit-select signature hashing instead of H3.
    BitSelect,
    /// Co-scheduled with Prime under yield-on-abort ([`PrimeMix`]).
    PrimeMix,
}

/// Every [`Variant`].
pub const ALL_VARIANTS: [Variant; 6] = [
    Variant::Paper,
    Variant::CommitToken,
    Variant::SmallL1,
    Variant::SmallL1Ideal,
    Variant::BitSelect,
    Variant::PrimeMix,
];

impl Variant {
    /// Stable label (spec documents, store keys, series names).
    pub fn label(self) -> &'static str {
        match self {
            Variant::Paper => "Paper",
            Variant::CommitToken => "CommitToken",
            Variant::SmallL1 => "L1-8K",
            Variant::SmallL1Ideal => "L1-8K-ideal-victim",
            Variant::BitSelect => "BitSelect",
            Variant::PrimeMix => "PrimeMix",
        }
    }

    /// Inverse of [`Variant::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        ALL_VARIANTS.into_iter().find(|v| v.label() == s)
    }

    /// Whether `runtime` can honour this variant: the commit token and
    /// the yield-on-abort mix live in the FlexTM runtime; the
    /// machine-side variants apply under any runtime.
    pub fn supports(self, runtime: RuntimeKind) -> bool {
        !matches!(self, Variant::CommitToken | Variant::PrimeMix)
            || matches!(runtime, RuntimeKind::FlexTmEager | RuntimeKind::FlexTmLazy)
    }
}

/// One fully-described point of the evaluation matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Benchmark.
    pub workload: WorkloadKind,
    /// System under test.
    pub runtime: RuntimeKind,
    /// Contention management policy (ignored by CGL and TL2).
    pub cm: CmKind,
    /// Worker threads; the machine is `threads.max(16)`-wide (the
    /// paper's fixed 16-way CMP — idle cores cost nothing).
    pub threads: usize,
    /// Signature size in bits (paper: 2048, 4-banked H3).
    pub sig_bits: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Timed transactions per thread.
    pub txns_per_thread: u64,
    /// Untimed warm-up transactions per thread.
    pub warmup_per_thread: u64,
    /// Deviation from the paper's machine/runtime, if any.
    pub variant: Variant,
}

impl CellSpec {
    /// The canonical JSON encoding: fixed field order, fixed spacing,
    /// seed in hex. This string (not the struct) is what the sweep
    /// farm hashes for its content-addressed store and echoes into
    /// each entry, so a stored result names exactly the cell that
    /// produced it.
    pub fn canonical_json(&self) -> String {
        format!(
            concat!(
                "{{\"workload\": \"{}\", \"runtime\": \"{}\", \"cm\": \"{}\", ",
                "\"threads\": {}, \"sig_bits\": {}, \"seed\": \"0x{:X}\", ",
                "\"txns_per_thread\": {}, \"warmup_per_thread\": {}, ",
                "\"variant\": \"{}\"}}"
            ),
            self.workload.label(),
            self.runtime.label(),
            cm_label(self.cm),
            self.threads,
            self.sig_bits,
            self.seed,
            self.txns_per_thread,
            self.warmup_per_thread,
            self.variant.label(),
        )
    }

    /// Short human label for progress output.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}T cm={} sig={} seed=0x{:X} txns={} variant={}",
            self.workload.label(),
            self.runtime.label(),
            self.threads,
            cm_label(self.cm),
            self.sig_bits,
            self.seed,
            self.txns_per_thread,
            self.variant.label(),
        )
    }
}

/// Deterministic simulated outcome of one cell, plus host wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Transactions committed in the timed region.
    pub committed: u64,
    /// Attempts in the timed region (≥ committed).
    pub attempts: u64,
    /// Simulated operations of the timed region
    /// ([`MachineReport::sim_ops`] over the counter deltas).
    pub sim_ops: u64,
    /// Elapsed simulated cycles of the timed region.
    pub sim_cycles: u64,
    /// Lines spilled to the overflow table in the timed region.
    pub overflows: u64,
    /// Histogram over the timed region's commits of how many distinct
    /// transactions each conflicted with (index = count; empty on
    /// runtimes that keep no conflict sets).
    pub conflict_histogram: Vec<u64>,
    /// [`counter_digest`] over the per-core counter deltas — the
    /// bit-identity witness.
    pub digest: String,
    /// The timed region's scheduler counters: ops on a fast path, ops
    /// through the rendezvous, and grants that switched fibers. A
    /// function of the schedule, so deterministic; the store keeps
    /// them, but [`CellResult::fields_json`] leaves them out, so the
    /// emitted cell documents do not change.
    pub sched: SchedStats,
    /// Host wall-clock seconds of the measured run (the only
    /// nondeterministic field; excluded from emitted tables).
    pub wall_s: f64,
}

impl CellResult {
    /// Transactions per million simulated cycles (the paper's Fig. 4
    /// y-axis before normalization).
    pub fn throughput(&self) -> f64 {
        if self.sim_cycles == 0 {
            0.0
        } else {
            self.committed as f64 * 1e6 / self.sim_cycles as f64
        }
    }

    /// The deterministic fields as JSON object members (no braces, no
    /// wall time) — the one encoding the store's entries and the
    /// emitted cell documents share.
    pub fn fields_json(&self) -> String {
        let histogram: Vec<String> = self.conflict_histogram.iter().map(u64::to_string).collect();
        format!(
            concat!(
                "\"committed\": {}, \"attempts\": {}, \"sim_ops\": {}, ",
                "\"sim_cycles\": {}, \"overflows\": {}, ",
                "\"conflict_histogram\": [{}], \"digest\": \"{}\""
            ),
            self.committed,
            self.attempts,
            self.sim_ops,
            self.sim_cycles,
            self.overflows,
            histogram.join(", "),
            self.digest,
        )
    }

    /// Summarizes a harness [`RunResult`].
    pub fn from_run(run: &RunResult, wall_s: f64) -> Self {
        CellResult {
            committed: run.committed,
            attempts: run.attempts,
            sim_ops: run.report.sim_ops(),
            sim_cycles: run.cycles,
            overflows: run.report.total(|c| c.overflows),
            conflict_histogram: run.conflict_histogram.clone(),
            digest: format!("{:016x}", counter_digest(&run.report)),
            sched: run.report.sched,
            wall_s,
        }
    }
}

/// Runs one cell on a fresh machine, exactly as described by `spec`:
/// the paper machine widened to `spec.threads` if that exceeds 16,
/// with `spec.variant`'s deviation applied, one measured run per
/// machine.
pub fn run_cell(spec: &CellSpec) -> RunResult {
    let mut config = MachineConfig::paper_default().with_cores(spec.threads.max(16));
    config.signature.total_bits = spec.sig_bits;
    match spec.variant {
        Variant::SmallL1 | Variant::SmallL1Ideal => {
            config.l1_bytes = 8 * 1024;
            config.unbounded_tmi_victim = spec.variant == Variant::SmallL1Ideal;
        }
        Variant::BitSelect => config.signature.scheme = HashScheme::BitSelect,
        Variant::Paper | Variant::CommitToken | Variant::PrimeMix => {}
    }
    let machine = Machine::new(config);
    let mut workload = spec.workload.build(spec.threads);
    if spec.variant == Variant::PrimeMix {
        workload = Box::new(PrimeMix::new(workload));
    }
    workload.setup(&machine);
    let runtime = spec.runtime.build(
        &machine,
        spec.threads,
        spec.cm,
        spec.variant == Variant::CommitToken,
    );
    run_measured(
        &machine,
        runtime.as_ref(),
        workload.as_ref(),
        RunConfig {
            threads: spec.threads,
            txns_per_thread: spec.txns_per_thread,
            warmup_per_thread: spec.warmup_per_thread,
            seed: spec.seed,
        },
    )
}

/// [`run_cell`] plus host timing, summarized.
pub fn run_cell_timed(spec: &CellSpec) -> CellResult {
    let t0 = Instant::now();
    let run = run_cell(spec);
    CellResult::from_run(&run, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for variant in ALL_VARIANTS {
            assert_eq!(Variant::from_label(variant.label()), Some(variant));
        }
        assert_eq!(Variant::from_label("paper"), None);
        for cm in [
            CmKind::Polka,
            CmKind::Aggressive,
            CmKind::Timid,
            CmKind::Polite,
        ] {
            assert_eq!(cm_from_label(cm_label(cm)), Some(cm));
        }
        assert_eq!(cm_from_label("Karma"), None);
    }

    #[test]
    fn run_cell_is_deterministic_across_calls() {
        let spec = CellSpec {
            workload: WorkloadKind::HashTable,
            runtime: RuntimeKind::FlexTmLazy,
            cm: CmKind::Polka,
            threads: 2,
            sig_bits: 2048,
            seed: 0xF1E7,
            txns_per_thread: 12,
            warmup_per_thread: 3,
            variant: Variant::Paper,
        };
        let a = run_cell_timed(&spec);
        let b = run_cell_timed(&spec);
        assert_eq!(a.committed, 24);
        assert_eq!(
            (a.committed, a.attempts, a.sim_ops, a.sim_cycles, &a.digest),
            (b.committed, b.attempts, b.sim_ops, b.sim_cycles, &b.digest),
        );
    }

    #[test]
    fn every_runtime_builds_and_runs_hashtable() {
        for kind in ALL_RUNTIMES {
            let machine = Machine::new(MachineConfig::small_test().with_cores(2));
            let mut wl = WorkloadKind::HashTable.build(2);
            wl.setup(&machine);
            let rt = kind.build(&machine, 2, CmKind::Polka, false);
            let r = run_measured(
                &machine,
                rt.as_ref(),
                wl.as_ref(),
                RunConfig {
                    threads: 2,
                    txns_per_thread: 10,
                    warmup_per_thread: 1,
                    seed: 9,
                },
            );
            assert_eq!(r.committed, 20, "{} lost transactions", kind.label());
            assert!(r.throughput() > 0.0);
            // The conflict histogram crosses the `TmThread` seam: one
            // entry per timed commit on FlexTM (the warm-up's excluded),
            // the empty default on runtimes that keep no conflict sets.
            let flextm = matches!(kind, RuntimeKind::FlexTmEager | RuntimeKind::FlexTmLazy);
            assert_eq!(
                r.conflict_histogram.iter().sum::<u64>(),
                if flextm { r.committed } else { 0 },
                "{}",
                kind.label()
            );
        }
    }
}
