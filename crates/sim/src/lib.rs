//! `flextm-sim`: a deterministic, execution-driven chip-multiprocessor
//! simulator implementing the FlexTM hardware of *Flexible Decoupled
//! Transactional Memory Support* (Shriraman, Dwarkadas, Scott).
//!
//! The paper evaluated FlexTM on the Simics/GEMS full-system simulator;
//! this crate is the from-scratch substitute. It models:
//!
//! * private L1 caches with the **TMESI** protocol (Fig. 1): MESI plus
//!   `TMI` (speculatively written) and `TI` (speculatively read,
//!   threatened) states — programmable data isolation;
//! * a shared L2 with an Origin-style **directory** extended with
//!   multiple speculative owners, plus the §5 summary signatures;
//! * per-core read/write **signatures** and the three **conflict
//!   summary tables** (`R-W`, `W-R`, `W-W`);
//! * **Alert-On-Update** on the transaction status word;
//! * the hardware-filled **overflow table** with commit-time copy-back
//!   and NACK window;
//! * Table 3(a) latencies and a conservative-lockstep deterministic
//!   scheduler, so every run is exactly repeatable.
//!
//! Software (the `flextm` crate and the `flextm-stm` baselines) drives
//! the machine through [`ProcHandle`], whose methods are the paper's
//! ISA additions, and implements the [`api::TmRuntime`] interface that
//! workloads are written against.
//!
//! # Example
//!
//! ```
//! use flextm_sim::{Addr, Machine, MachineConfig};
//!
//! let machine = Machine::new(MachineConfig::small_test());
//! // Two cores privately increment their own counters.
//! machine.run(2, |proc| {
//!     let counter = Addr::new(0x1000 + proc.core() as u64 * 0x40);
//!     for _ in 0..10 {
//!         let v = proc.load(counter);
//!         proc.store(counter, v + 1);
//!     }
//! });
//! let report = machine.report();
//! assert_eq!(report.total(|c| c.stores), 20);
//! ```

// The one crate with `unsafe`: the stackful-fiber context switch
// (`fiber.rs`, both backends) and its three uses in `machine.rs` (two
// switches and the hand-off of a fiber's job pointer). Each site
// carries a SAFETY comment and an explicit `#[allow(unsafe_code)]`;
// everything else is denied.
#![deny(unsafe_code)]

pub mod api;
mod bankdir;
mod cache;
mod config;
mod core_state;
mod cst;
mod fiber;
mod l2;
mod machine;
mod mem;
mod ot;
mod proc;
mod proto;
mod stats;
mod vm;

pub use bankdir::{BankedDir, DIR_BANKS};
pub use cache::{Evicted, L1Cache, L1Slot, L1State, LineEntry, LineView};
pub use config::{ConfigError, MachineConfig};
pub use core_state::{AlertCause, CoreState, Cores};
pub use cst::{procs_in_mask, CstKind, CstSet};
pub use l2::{DirEntry, L2Ref, L2};
pub use machine::{GrantQueue, Machine, SimRecord, SimState};
pub use mem::{Addr, Arena, Heap, Memory, WORDS_PER_LINE};
pub use ot::{OtEntry, OverflowTable};
pub use proc::{ProcHandle, SigKind};
pub use proto::{AccessKind, AccessResult, CasCommitOutcome, Conflict, ConflictKind, ConflictList};
pub use stats::{
    AbortBreakdown, AbortCause, CmEvent, CoreStats, Event, EventLog, MachineReport, SchedStats,
};
pub use vm::SavedTx;

pub use flextm_sig::{LineAddr, ProcSet, SigKey, LINE_BYTES, LINE_SHIFT, MAX_CORES};
