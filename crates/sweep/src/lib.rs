//! `flextm-sweep`: the evaluation matrix as one parallel, cached,
//! incremental batch service.
//!
//! This crate is the only thing in the tree that iterates workload ×
//! runtime × threads: a declarative [`spec`] (one built in per paper
//! matrix — Fig. 4 Workload-Sets 1 and 2, Fig. 5 eager vs. lazy)
//! expands into cells, the [`runner`] fans them across host cores on
//! worker threads (each cell an in-process `flextm_bench::
//! run_cell_timed` call under `catch_unwind`), the [`store`] serves
//! unchanged cells from a content-addressed cache, and [`aggregate`]
//! turns the results into median/CI series, EXPERIMENTS-style tables,
//! and BENCH-style JSON — mechanically, instead of by hand.
//!
//! The `sweep` binary (`src/bin/sweep.rs`) is the entry point; see
//! `EXPERIMENTS.md` ("Regenerating with `sweep`") for usage and
//! DESIGN.md ("Sweep farm") for the failure-containment and cache-key
//! design.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod runner;
pub mod spec;
pub mod store;

pub use runner::{run_sweep, Outcome, RunnerConfig, SweepOutcome};
pub use spec::{cell_from_json, MatrixSpec, SpecError};
pub use store::{binary_fingerprint, config_hash, git_rev, Store};
