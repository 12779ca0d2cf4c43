//! The tree's one JSON codec ([`json`]): a dependency-free parser and
//! encoder that the sweep farm's matrix specs and store entries read
//! and write through.

#![forbid(unsafe_code)]

pub mod json;
