//! The repo benchmark: eight deterministic single-host-thread workloads
//! over the FlexTM simulator and its model checker, three end-to-end
//! metrics, and outside-in layer probes. See `README.md` beside this
//! crate for the metric definitions and `/BENCHMARK.json` for the
//! contract the driver checks.

pub mod alloc;
pub mod checker;
pub mod cli;
pub mod compare;
pub mod json;
pub mod probes;
pub mod rep;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
