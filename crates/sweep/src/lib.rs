//! `flextm-sweep`: the evaluation matrix as one parallel, cached,
//! incremental batch service.
//!
//! This crate is the only thing in the tree that runs an experiment:
//! a declarative [`spec`] (one built in per simulated table of
//! EXPERIMENTS.md — `fig4_ws1`, `fig4_ws2`, `fig4_conflicts`,
//! `fig5_eager_lazy`, `fig5_multiprog`, `ablation_overflow`,
//! `ablation_signature`, `ablation_cst` — plus the `smoke2x2` CI
//! matrix) expands into cells, the [`runner`] fans them across host
//! cores on worker threads (each cell an in-process
//! [`cell::run_cell_timed`] call under `catch_unwind`), the [`store`] serves
//! unchanged cells from a content-addressed cache, and [`aggregate`]
//! turns the results into median/CI series of the metrics the spec
//! names, EXPERIMENTS-style tables, and a per-cell JSON document —
//! mechanically, instead of by hand.
//!
//! The `sweep` binary (`src/bin/sweep.rs`) is the entry point; see
//! `EXPERIMENTS.md` ("Regenerating with `sweep`") for usage and
//! DESIGN.md ("Sweep farm") for the failure-containment and cache-key
//! design. Table 2 and Table 4 simulate no matrix; they are the root
//! package's `table2_area` and `table4_flexwatcher` examples.
//!
//! The crate also holds both gate binaries `scripts/verify.sh` drives:
//! `proto_check` (`src/bin/proto_check.rs`, the model checker's CLI)
//! and `fingerprint` (`src/bin/fingerprint.rs`, the bit-identity
//! digests of three recorded HashTable runs).

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod cell;
pub mod runner;
pub mod spec;
pub mod store;

pub use runner::{run_sweep, Outcome, RunnerConfig, SweepOutcome};
pub use spec::{cell_from_json, MatrixSpec, SpecError};
pub use store::{binary_fingerprint, config_hash, git_rev, Store};
