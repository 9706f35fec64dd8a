//! # hetsort — heterogeneous CPU/GPU sorting for datasets exceeding GPU memory
//!
//! Facade crate re-exporting the full reproduction of Gowanlock & Karsin,
//! *"Sorting Large Datasets with Heterogeneous CPU/GPU Architectures"*
//! (IPPS 2018). See `README.md` for the architecture overview and
//! `DESIGN.md` for the system inventory and experiment index.
//!
//! * [`sim`] — discrete-event simulation kernel (fluid + token resources).
//! * [`vgpu`] — virtual CUDA substrate (devices, streams, pinned memory,
//!   PCIe topology, calibrated platform models).
//! * [`algos`] — real CPU sorting/merging algorithms built from scratch.
//! * [`core`] — the paper's contribution: the heterogeneous sorting
//!   approaches (`BLine`, `BLineMulti`, `PipeData`, `PipeMerge`,
//!   `ParMemCpy`), planner, executors, and overhead accounting.
//! * [`model`] — the §IV-G lower-bound models (`LowerBoundModel`), beside
//!   the §IV-E overhead accounting in `core::accounting`.
//! * [`workloads`] — input dataset generators and validators.
//! * [`analyze`] — static plan verifier + happens-before race detector
//!   for stream/event schedules (`hetsort analyze`).
//! * [`obs`] — observability: structured spans, metrics registry,
//!   Chrome-trace and metrics-document export (`hetsort trace`,
//!   `--json`).
//! * [`serve`] — multi-tenant sort service: bounded queue,
//!   memory-budget admission control over the plan's residency
//!   math, small-job coalescing, priorities/deadlines, and typed
//!   `Overloaded` load shedding (`hetsort serve-sim`).

// No unsafe anywhere in this crate — enforced, not assumed.
#![forbid(unsafe_code)]
// The CLI surfaces failures as typed errors, never panic paths; tests
// are free to unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cli;

pub use hetsort_algos as algos;
pub use hetsort_analyze as analyze;
pub use hetsort_core as core;
pub use hetsort_core::accounting as model;
pub use hetsort_obs as obs;
pub use hetsort_serve as serve;
pub use hetsort_sim as sim;
pub use hetsort_vgpu as vgpu;
pub use hetsort_workloads as workloads;
