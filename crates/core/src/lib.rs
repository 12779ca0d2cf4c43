//! `flextm`: the FlexTM transactional-memory runtime — the primary
//! contribution of *Flexible Decoupled Transactional Memory Support*
//! (Shriraman, Dwarkadas, Scott).
//!
//! The hardware ([`flextm_sim`]) provides three decoupled mechanisms —
//! access signatures, conflict summary tables, and programmable data
//! isolation — plus alert-on-update. This crate is the software that
//! turns them into a TM system while keeping **policy** out of
//! hardware:
//!
//! * [`Mode::Eager`] vs. [`Mode::Lazy`] conflict management is a purely
//!   software decision (the hardware always detects conflicts
//!   immediately; software decides when to notice);
//! * contention managers ([`cm`]) are swappable — Polka, Aggressive,
//!   Polite, Timid;
//! * lazy commits and aborts are entirely **local** (Fig. 3): no commit
//!   token, write-set broadcast, or ticket serialization;
//! * transactions survive context switches through the [`os`] layer —
//!   summary signatures, the conflict management table, and virtualized
//!   AOU.
//!
//! # Example
//!
//! ```
//! use flextm::{FlexTm, FlexTmConfig};
//! use flextm_sim::api::{TmRuntime, TmThread};
//! use flextm_sim::{Addr, Machine, MachineConfig};
//!
//! let machine = Machine::new(MachineConfig::small_test());
//! let counter = Addr::new(0x10_000);
//! let tm = FlexTm::new(&machine, FlexTmConfig::lazy(2));
//! machine.run(2, |proc| {
//!     let mut th = tm.thread(proc.core(), proc);
//!     for _ in 0..50 {
//!         th.txn(&mut |tx| {
//!             let v = tx.read(counter)?;
//!             tx.write(counter, v + 1)?;
//!             Ok(())
//!         });
//!     }
//! });
//! machine.with_state(|st| assert_eq!(st.mem.read(counter), 100));
//! ```

#![forbid(unsafe_code)]

pub mod cm;
pub mod os;
mod runtime;
mod tsw;

pub use cm::{CmContext, CmDecision, CmKind, ContentionManager};
pub use os::{Cmt, ResumeOutcome, SuspendToken, SuspendedInfo};
pub use runtime::{FlexTm, FlexTmConfig, FlexTmThread, Mode};
pub use tsw::{
    Descriptor, DescriptorTable, DESCRIPTOR_ARENA, TSW_ABORTED, TSW_ACTIVE, TSW_COMMITTED, TSW_IDLE,
};
