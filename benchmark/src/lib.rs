//! # hetsort-benchmark — the wall-clock benchmark of this repository
//!
//! Five workloads, five end-to-end metrics measured with tracing off,
//! and a per-layer ladder measured in a separate traced pass; see
//! `README.md` next to this crate for the tables and how to read them.
//! `BENCHMARK.json` at the repository root is the contract: the names,
//! units and regression bounds listed there are what [`run::run`]
//! prints.

pub mod ladder;
pub mod metrics;
pub mod procstat;
pub mod run;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workload;
