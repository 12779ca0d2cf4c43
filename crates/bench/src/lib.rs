//! `flextm-bench`: the run-one-cell library the sweep farm executes,
//! and the two gate binaries.
//!
//! Every simulated table of the paper's evaluation is a built-in spec
//! of the sweep farm (`sweep --spec <name>`, crates/sweep), which runs
//! [`run_cell`] once per matrix cell; nothing in this crate loops over
//! an axis and nothing reads the environment:
//!
//! | spec | reproduces |
//! |---|---|
//! | `fig4_ws1`, `fig4_ws2` | Fig. 4(a–g) throughput & scalability |
//! | `fig4_conflicts` | Fig. 4 conflicting-transactions side table |
//! | `fig5_eager_lazy` | Fig. 5(a–d) eager vs. lazy |
//! | `fig5_multiprog` | Fig. 5(e–f) multiprogramming mix |
//! | `ablation_overflow` | §7.3 OT vs. unbounded victim buffer |
//! | `ablation_signature` | signature size and hashing vs. aborts |
//! | `ablation_cst` | CST commit vs. global commit token |
//!
//! Table 2 and Table 4 simulate no matrix; they are the root package's
//! `table2_area` and `table4_flexwatcher` examples. The binaries here
//! are `proto_check` (the model checker's CLI) and `fingerprint` (the
//! bit-identity gate), both driven by `scripts/verify.sh`.

#![forbid(unsafe_code)]

pub mod cell;

pub use cell::{
    cm_from_label, cm_label, run_cell, run_cell_timed, CellResult, CellSpec, Variant, ALL_VARIANTS,
};

use flextm::{CmKind, FlexTm, FlexTmConfig, Mode};
use flextm_sim::api::TmRuntime;
use flextm_sim::Machine;
use flextm_stm::{Cgl, Rstm, RtmF, Tl2};
use flextm_workloads::harness::Workload;
use flextm_workloads::{Contention, Delaunay, HashTable, LfuCache, RandomGraph, RbTree, Vacation};

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
        [
            RuntimeKind::Cgl,
            RuntimeKind::FlexTmEager,
            RuntimeKind::FlexTmLazy,
            RuntimeKind::RtmF,
            RuntimeKind::Rstm,
            RuntimeKind::Tl2,
        ]
        .into_iter()
        .find(|k| k.label() == s)
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

#[cfg(test)]
mod tests {
    use super::*;
    use flextm_sim::MachineConfig;
    use flextm_workloads::harness::{run_measured, RunConfig};

    #[test]
    fn every_runtime_builds_and_runs_hashtable() {
        for kind in [
            RuntimeKind::Cgl,
            RuntimeKind::FlexTmEager,
            RuntimeKind::FlexTmLazy,
            RuntimeKind::RtmF,
            RuntimeKind::Rstm,
            RuntimeKind::Tl2,
        ] {
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
