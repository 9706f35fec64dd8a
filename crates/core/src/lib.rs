//! # hetsort-core — heterogeneous CPU/GPU sorting
//!
//! The paper's contribution (Gowanlock & Karsin, IPPS 2018): sort an
//! input larger than GPU global memory by sorting batches on the GPU
//! and merging on the CPU, with a family of pipeline optimizations:
//!
//! | Approach | §III-D | What it adds |
//! |---|---|---|
//! | [`Approach::BLine`] | baseline | single batch, blocking copies, default stream |
//! | [`Approach::BLineMulti`] | §III-D1 | multiple batches + final multiway merge |
//! | [`Approach::PipeData`] | §III-D2 | streams + pinned staging overlap HtoD/DtoH |
//! | [`Approach::PipeMerge`] | §III-D3 | pair-wise merges pipelined under GPU sorting |
//! | `par_memcpy` flag | PARMEMCPY | parallel staging copies (host-side bottleneck) |
//!
//! A [`plan::Plan`] is the static op-dag of one configured run — its
//! `steps` are the [`dag::DagNode`]s [`plan_builders`] emits, the one
//! IR — with two interpreters that each read the nodes they are handed:
//!
//! * [`exec_sim`] maps them onto the calibrated [`hetsort_vgpu::Machine`]
//!   and returns a [`report::TimingReport`] (paper-scale timing);
//! * [`dag::exec`] — the one functional engine, behind [`exec_real`]
//!   (inline) and [`exec_real_mt`] (one worker per stream) — executes
//!   it on actual data: staging copies, device-resident radix sorts
//!   (the one device sort, Thrust's out-of-place radix stand-in —
//!   [`config::DEVICE_MEM_FACTOR`] is its footprint), pair and
//!   multiway merges, verified output (laptop-scale functional truth).
//!
//! This split is the substitution strategy for the missing GPU: pipeline
//! *semantics* are executed for real, pipeline *durations* come from the
//! calibrated simulator. See `DESIGN.md`.
//!
//! Every fallible API returns a typed [`error::HetSortError`]; the
//! functional engine additionally implements the failure model of
//! `DESIGN.md` ("Failure model & recovery") — deterministic fault
//! injection via [`hetsort_vgpu::FaultInjector`], bounded transfer
//! retries, OOM batch splitting, and CPU-fallback degradation governed
//! by [`config::RecoveryPolicy`].

// Library code must surface failures as typed errors, never panic
// paths; tests are free to unwrap.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod accounting;
pub mod config;
pub mod dag;
pub mod error;
pub mod exec_real;
pub mod exec_real_mt;
pub mod exec_sim;
pub(crate) mod exec_stream;
pub mod optrace;
pub mod plan;
pub mod plan_builders;
pub mod pool;
pub mod recover;
pub mod reference;
pub mod report;

pub use config::{
    Approach, ElemWidth, HetSortConfig, HybridMode, PairStrategy, RecoveryPolicy, StagingMode,
};
pub use dag::exec::{execute_dag, execute_dag_pooled};
pub use dag::{DagNode, DagOp, PlanDag, ReadySet, TieBreak};
pub use error::HetSortError;
pub use exec_real::{sort_real, RealOutcome};
pub use exec_real_mt::sort_real_parallel;
pub use exec_sim::{simulate, simulate_dag};
pub use plan::Plan;
pub use plan_builders::build_dag;
pub use report::{RecoveryStats, TimingReport};
