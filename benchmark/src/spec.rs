//! The benchmark's workloads, described exactly: which data structure,
//! runtime, thread count and transaction count each cell runs, and how
//! many repetitions each workload gets by default.
//!
//! The names, `why` lines and count here must match `/BENCHMARK.json`
//! (`tests/cli_contract.rs` checks that they do).

use flextm::{CmKind, FlexTm, FlexTmConfig, Mode};
use flextm_sim::api::TmRuntime;
use flextm_sim::{Machine, MachineConfig, SimState};
use flextm_stm::{Cgl, Rstm, RtmF, Tl2};
use flextm_workloads::harness::Workload;
use flextm_workloads::{Contention, Delaunay, HashTable, LfuCache, RandomGraph, RbTree, Vacation};

/// Seed used when `--seed` is not given (the repo-wide default).
pub const DEFAULT_SEED: u64 = 0xF1E7;

/// The paper's data-structure benchmarks (Table 3(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
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

/// A set-up workload instance. Concrete types are kept where the
/// structure offers a committed-state consistency check.
pub enum Built {
    /// HashTable: every key's chain is walked after the run.
    HashTable(HashTable),
    /// RandomGraph: `check_direct` after the run.
    RandomGraph(RandomGraph),
    /// RBTree: red-black invariants after the run.
    RbTree(RbTree),
    /// Structures without a direct check.
    Other(Box<dyn Workload>),
}

impl Structure {
    /// Builds a fresh (un-setup) instance.
    pub fn build(self, threads: usize) -> Built {
        match self {
            Structure::HashTable => Built::HashTable(HashTable::paper()),
            Structure::RandomGraph => Built::RandomGraph(RandomGraph::paper()),
            Structure::RbTree => Built::RbTree(RbTree::paper()),
            Structure::LfuCache => Built::Other(Box::new(LfuCache::paper())),
            Structure::Delaunay => Built::Other(Box::new(Delaunay::new(threads))),
            Structure::VacationLow => Built::Other(Box::new(Vacation::new(Contention::Low))),
            Structure::VacationHigh => Built::Other(Box::new(Vacation::new(Contention::High))),
        }
    }
}

impl Built {
    /// The instance as the harness trait.
    pub fn workload(&self) -> &dyn Workload {
        match self {
            Built::HashTable(w) => w,
            Built::RandomGraph(w) => w,
            Built::RbTree(w) => w,
            Built::Other(w) => w.as_ref(),
        }
    }

    /// Runs the structure's `setup`.
    pub fn setup(&mut self, machine: &Machine) {
        match self {
            Built::HashTable(w) => w.setup(machine),
            Built::RandomGraph(w) => w.setup(machine),
            Built::RbTree(w) => w.setup(machine),
            Built::Other(w) => w.setup(machine),
        }
    }

    /// Checks the committed data structure after a run and returns a
    /// word summarising it (folded into the workload's digest, so two
    /// repetitions must also agree on the final structure). Panics, as
    /// the structures' own checks do, when an invariant is broken.
    pub fn verify(&self, st: &SimState) -> u64 {
        match self {
            Built::HashTable(w) => (0..256).filter(|&k| w.contains_direct(st, k)).count() as u64,
            Built::RandomGraph(w) => {
                w.check_direct(st);
                0
            }
            Built::RbTree(w) => {
                w.map().check_invariants_direct(st);
                w.map().collect_direct(st).len() as u64
            }
            Built::Other(_) => 0,
        }
    }
}

/// The runtimes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// Coarse-grain lock.
    Cgl,
    /// FlexTM, eager conflict management.
    FlexTmEager,
    /// FlexTM, lazy conflict management.
    FlexTmLazy,
    /// RTM-F hardware-accelerated STM model.
    RtmF,
    /// RSTM-like invisible-reader STM.
    Rstm,
    /// TL2.
    Tl2,
}

impl Runtime {
    /// All six, in the paper's legend order.
    pub const ALL: [Runtime; 6] = [
        Runtime::Cgl,
        Runtime::FlexTmEager,
        Runtime::FlexTmLazy,
        Runtime::RtmF,
        Runtime::Rstm,
        Runtime::Tl2,
    ];

    /// Instantiates the runtime with the Polka contention manager (CGL
    /// and TL2 have none).
    pub fn build(self, machine: &Machine, threads: usize) -> Box<dyn TmRuntime + '_> {
        let flex = |mode| FlexTmConfig {
            mode,
            cm: CmKind::Polka,
            threads,
            serialized_commits: false,
        };
        match self {
            Runtime::Cgl => Box::new(Cgl::new(machine)),
            Runtime::FlexTmEager => Box::new(FlexTm::new(machine, flex(Mode::Eager))),
            Runtime::FlexTmLazy => Box::new(FlexTm::new(machine, flex(Mode::Lazy))),
            Runtime::RtmF => Box::new(RtmF::new(machine, threads, CmKind::Polka)),
            Runtime::Rstm => Box::new(Rstm::new(machine, threads, CmKind::Polka)),
            Runtime::Tl2 => Box::new(Tl2::with_defaults(machine)),
        }
    }
}

/// Untimed warm-up transactions per thread, as the repo's recorded
/// scheduler and protocol benches use. Kept small on purpose: warm-up
/// is part of `setup_s`, and under contention its length depends on the
/// seed, so a longer one would bury machine and structure set-up — what
/// `setup_s` is there to watch — under seed-to-seed variation.
pub const WARMUP_PER_THREAD: u64 = 8;

/// One simulated run: a structure on a runtime on a fresh machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Data structure.
    pub structure: Structure,
    /// System under test.
    pub runtime: Runtime,
    /// Simulated threads, one per core.
    pub threads: usize,
    /// Timed transactions per thread.
    pub txns_per_thread: u64,
}

impl Cell {
    /// The paper's machine (2048-bit signatures), widened past 16 cores
    /// only when the cell has more threads than that.
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig::paper_default().with_cores(self.threads.max(16))
    }

    /// Transactions the timed region is asked to commit.
    pub fn txns(&self) -> u64 {
        self.threads as u64 * self.txns_per_thread
    }
}

/// What one repetition of a workload executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Simulator cells, each on a fresh machine, run back to back.
    Sim(Vec<Cell>),
    /// Breadth-first model checking of a 2-core × 1-line configuration
    /// with one worker.
    Check {
        /// 65-core machine (`CheckConfig::wide`) instead of 2-core.
        wide: bool,
        /// Depth bound; `None` explores to the fixpoint.
        depth: Option<usize>,
        /// `(states, transitions)` the exploration must report.
        expect: Option<(u64, u64)>,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Repetitions when neither `--reps` nor `--seconds` is given.
    pub reps: u32,
    /// What a repetition runs.
    pub body: Body,
}

fn one(structure: Structure, runtime: Runtime, threads: usize, txns: u64) -> Body {
    Body::Sim(vec![Cell {
        structure,
        runtime,
        threads,
        txns_per_thread: txns,
    }])
}

/// The Fig. 4 slice: every runtime and every workload body at 16
/// threads, minus the cells that livelock for minutes (RandomGraph on
/// RTM-F/RSTM at 263 s/89 s, Vacation on RSTM at 17–18 s per cell) and
/// RandomGraph on the runtimes that add nothing over the two kept.
fn fig4_cells(txns: u64) -> Vec<Cell> {
    use Runtime::*;
    use Structure::*;
    let mut cells = Vec::new();
    let mut add = |structure, runtimes: &[Runtime]| {
        cells.extend(runtimes.iter().map(|&runtime| Cell {
            structure,
            runtime,
            threads: 16,
            txns_per_thread: txns,
        }));
    };
    for s in [HashTable, RbTree, LfuCache, Delaunay] {
        add(s, &Runtime::ALL);
    }
    add(RandomGraph, &[Cgl, FlexTmLazy]);
    for s in [VacationLow, VacationHigh] {
        add(s, &[Cgl, FlexTmEager, FlexTmLazy, RtmF, Tl2]);
    }
    cells
}

/// The eight workloads. `quick` divides every size by 16 and bounds the
/// checker depth — a smoke configuration for tests, not a measurement.
pub fn suite(quick: bool) -> Vec<WorkloadSpec> {
    use Runtime::*;
    use Structure::*;
    let size = |txns: u64| if quick { (txns / 16).max(2) } else { txns };
    let check = |wide, depth: Option<usize>, quick_depth, expect| Body::Check {
        wide,
        depth: if quick { Some(quick_depth) } else { depth },
        expect: if quick { None } else { Some(expect) },
    };
    vec![
        WorkloadSpec {
            name: "ht-1t",
            why: "1 thread: scheduler is all fast path, so protocol+cache+signature+runtime cost per op is isolated",
            reps: 11,
            body: one(HashTable, FlexTmLazy, 1, size(1_048_576)),
        },
        WorkloadSpec {
            name: "ht-16t",
            why: "the paper's 16-core machine: rendezvous and protocol both matter; the balanced point",
            reps: 11,
            body: one(HashTable, FlexTmLazy, 16, size(24_576)),
        },
        WorkloadSpec {
            name: "ht-64t",
            why: "64 cores: >1 rendezvous per op and 64 L1s of footprint; where grant-path and width costs show",
            reps: 11,
            body: one(HashTable, FlexTmLazy, 64, size(3_072)),
        },
        WorkloadSpec {
            name: "rg-16t-eager",
            why: "same layers, other paths: ~80-line read sets, abort/CM/stall-poll instead of commit",
            reps: 11,
            body: one(RandomGraph, FlexTmEager, 16, size(96)),
        },
        WorkloadSpec {
            name: "rbtree-rstm-16t",
            why: "bypass: plain load/store/CAS + software validation, no TLoad/TStore/CST/CAS-Commit",
            reps: 11,
            body: one(RbTree, Rstm, 16, size(384)),
        },
        WorkloadSpec {
            name: "check-2x1",
            why: "the model checker's own cost (fork, canon, visited set) on a narrow 2-core machine, to fixpoint",
            reps: 5,
            body: check(false, None, 4, (19_137, 147_700)),
        },
        WorkloadSpec {
            name: "check-wide",
            why: "same checker on a 65-core machine to depth 6: cost of width no transition touches",
            reps: 5,
            body: check(true, Some(6), 3, (3_840, 15_082)),
        },
        WorkloadSpec {
            name: "fig4-slice",
            why: "36 evaluation cells on fresh machines: every runtime and workload body, per-cell set-up as users pay it",
            reps: 5,
            body: Body::Sim(fig4_cells(size(96))),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eight_uniquely_named_workloads() {
        let s = suite(false);
        assert_eq!(s.len(), 8);
        for (i, w) in s.iter().enumerate() {
            assert!(
                s[..i].iter().all(|o| o.name != w.name),
                "{} repeats",
                w.name
            );
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn fig4_slice_is_the_36_cells_the_issue_lists() {
        let cells = fig4_cells(96);
        assert_eq!(cells.len(), 36);
        let has = |s, r| cells.iter().any(|c| c.structure == s && c.runtime == r);
        assert!(!has(Structure::RandomGraph, Runtime::RtmF));
        assert!(!has(Structure::RandomGraph, Runtime::Rstm));
        assert!(!has(Structure::VacationLow, Runtime::Rstm));
        assert!(has(Structure::VacationHigh, Runtime::Tl2));
        assert!(cells.iter().all(|c| c.threads == 16));
    }

    #[test]
    fn narrow_cells_keep_the_papers_16_core_machine() {
        let cell = |threads| Cell {
            structure: Structure::HashTable,
            runtime: Runtime::FlexTmLazy,
            threads,
            txns_per_thread: 96,
        };
        assert_eq!(cell(1).machine_config().cores, 16);
        assert_eq!(cell(64).machine_config().cores, 64);
        assert_eq!(cell(64).txns(), 64 * 96);
    }
}
