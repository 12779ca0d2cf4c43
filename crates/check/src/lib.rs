//! `flextm-check`: an explicit-state model checker that drives the
//! *real* `flextm-sim` protocol implementation — not a re-model of it —
//! through every interleaving of a small operation alphabet and checks
//! the TMESI/CST invariants after each transition.
//!
//! # How it works
//!
//! The checker owns a [`driver::Driver`]: a `SimState` (the invariant
//! layer is always compiled; `check_every_op` arms it, so it fires
//! after every protocol transition) plus a *shadow* — the ground truth a sequential
//! observer can maintain from the architectural interface alone:
//! committed memory values, each transaction's true read/write sets,
//! and the CST contents implied by the conflicts the hardware reported.
//! Every operation in the alphabet ([`op::Op`]) mirrors one step of the
//! software protocol in `flextm::runtime` (TSW store + ALoad on begin,
//! copy-and-clear + enemy CAS + CAS-Commit on commit, …).
//!
//! After each op the driver asserts, beyond the sim's own invariant
//! sweep:
//!
//! * **Data isolation** — committed memory equals shadow memory at all
//!   times: speculative writes are invisible until CAS-Commit.
//! * **CST exactness** — hardware CSTs equal the shadow CSTs folded
//!   from reported conflicts (nothing sets or clears a CST silently).
//! * **Signature conservativeness** — true read/write sets are covered
//!   by `Rsig`/`Wsig`.
//! * **Undoomed read stability** — a transaction whose TSW is intact
//!   re-reads every line to the same value (zombies excepted).
//! * **Commit progress/locality** — with W-R/W-W cleared and the TSW
//!   held, CAS-Commit must succeed, and must publish exactly the
//!   transaction's own writes.
//! * **Quiescence** — from any reachable state, aborting every live
//!   transaction yields a clean machine with memory untouched.
//!
//! [`explore::explore_jobs`] runs breadth-first over canonical state
//! hashes ([`canon`]) to a fixpoint or depth bound — a
//! level-synchronized parallel engine whose counts are bit-identical
//! for every worker count; [`explore::random_walk`] drives long random
//! schedules on larger configurations. Violations come back as op
//! paths shrunk ([`shrink`]) to paste into a regression test. The
//! liveness pass, a unit test module (`liveness.rs`), covers what
//! safety exploration cannot:
//! it closes the system with looping per-core programs under the
//! shipped `flextm::cm` contention managers and searches the reachable
//! graph for fair abort/retry cycles — schedules where transactions
//! abort forever while nothing commits.
//!
//! # Soundness of the canonical projection
//!
//! Two states with equal canon must behave identically under every op.
//! The projection therefore includes everything protocol-visible (L1
//! tags+states+data, signatures, CSTs, AOU marks, alerts, OT contents
//! including the no-delete `Osig` bits, directory entries, committed
//! memory, shadow bookkeeping) and excludes only what provably cannot
//! influence behavior under [`config::CheckConfig`] geometry: clocks
//! and cycle stats (latency-only), LRU (the geometry guarantees no
//! capacity evictions), and the event log (disabled). The NACK window
//! is the one clock-dependent mechanism a request can hit, and it is
//! architecturally transparent: the machine charges the retry wait as
//! stall latency and completes the access, so only excluded state
//! (stats, clocks) diverges; its timing edges are covered by unit
//! tests in `flextm-sim`.

#![forbid(unsafe_code)]

pub mod canon;
pub mod config;
pub mod driver;
pub mod explore;
#[cfg(test)]
mod liveness;
pub mod op;
pub mod shrink;

pub use config::{Alphabet, CheckConfig, InjectedFault};
pub use driver::{Driver, Snapshot};
pub use explore::{explore_jobs, random_walk, ExploreOutcome, Progress, Violation, WalkOutcome};
pub use op::Op;
