//! `flextm-watcher`: FlexWatcher, the paper's §8 case study in reusing
//! FlexTM hardware for non-transactional purposes — a memory-bug
//! detector built from signatures (unbounded, conservative watch sets)
//! and alert-on-update (precise block watchpoints).
//!
//! The crate contains the tool ([`FlexWatcher`]), five BugBench-style
//! programs with real injected bugs ([`programs`]), and the Table 4
//! measurement harness ([`measure`]) comparing FlexWatcher against a
//! Discover-style binary-instrumentation model.
//!
//! # Example
//!
//! ```
//! use flextm_watcher::FlexWatcher;
//! use flextm_sim::{Addr, Machine, MachineConfig};
//!
//! let machine = Machine::new(MachineConfig::small_test());
//! let caught = machine.run(1, |proc| {
//!     let mut watcher = FlexWatcher::new(&proc);
//!     let pad = Addr::new(0x1_0000);
//!     watcher.watch_writes(pad, 1);
//!     watcher.activate();
//!     watcher.store(pad, 0xBAD); // buffer overflow into the pad
//!     watcher.hits().len()
//! });
//! assert_eq!(caught, vec![1]);
//! ```

#![forbid(unsafe_code)]

pub mod measure;
pub mod programs;
mod watcher;

pub use measure::{measure_all, SlowdownRow};
pub use programs::{bugbench, BugKind, Monitor, ProgramReport};
pub use watcher::{FlexWatcher, WatchHit, HANDLER_CYCLES};
