//! # hetsort-workloads — input dataset generators and validators
//!
//! The paper evaluates exclusively on **uniformly distributed 64-bit
//! floats** (§IV-A), arguing that hybrid-sort performance is dominated
//! by memory-transfer time and therefore insensitive to the input
//! distribution. This crate provides that workload plus the family of
//! distributions the broader sorting literature uses (\[11\] PARADIS
//! et al.), so the "distribution insensitivity" claim can actually be
//! *tested* (see the distribution-sensitivity extension experiment).
//!
//! All generators are deterministic given a seed.

// No unsafe anywhere in this crate — enforced, not assumed. Library
// code surfaces failures as `WorkloadError`; tests are free to unwrap.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dist;
pub mod gen;

pub use dist::{Distribution, WorkloadError, MAX_DISTINCT};
pub use gen::{generate, generate_batch_sorted, generate_kv, Workload};
