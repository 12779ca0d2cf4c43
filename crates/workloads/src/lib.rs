//! `flextm-workloads`: the paper's seven benchmarks (Table 3(b)),
//! written once against the runtime-neutral TM API so the same code
//! runs on FlexTM, TL2, the RSTM-like STM, the RTM-F model, and CGL.
//!
//! * Workload-Set 1: [`HashTable`], [`RbTree`], [`LfuCache`],
//!   [`RandomGraph`], [`Delaunay`];
//! * Workload-Set 2: [`Vacation`] (low/high contention);
//! * background job: [`Prime`] (non-transactional, §7.4).
//!
//! The [`harness`] module measures throughput in transactions per
//! million cycles, the paper's Fig. 4 metric.
//!
//! # Example
//!
//! ```
//! use flextm_workloads::harness::{run_measured, RunConfig, Workload};
//! use flextm_workloads::HashTable;
//! use flextm::{FlexTm, FlexTmConfig};
//! use flextm_sim::{Machine, MachineConfig};
//!
//! let machine = Machine::new(MachineConfig::small_test());
//! let mut workload = HashTable::paper();
//! workload.setup(&machine);
//! let tm = FlexTm::new(&machine, FlexTmConfig::lazy(2));
//! let result = run_measured(&machine, &tm, &workload, RunConfig {
//!     threads: 2,
//!     txns_per_thread: 20,
//!     warmup_per_thread: 2,
//!     seed: 1,
//! });
//! assert_eq!(result.committed, 40);
//! assert!(result.throughput() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod alloc;
mod delaunay;
pub mod harness;
mod hashtable;
mod lfucache;
mod prime;
mod randomgraph;
mod rbtree;
pub mod rng;
pub mod tmap;
mod vacation;

pub use delaunay::Delaunay;
pub use hashtable::HashTable;
pub use lfucache::LfuCache;
pub use prime::{Prime, PrimeMix};
pub use randomgraph::RandomGraph;
pub use rbtree::RbTree;
pub use vacation::{Contention, Vacation};
