//! # hetsort-sim — discrete-event simulation kernel with fluid resources
//!
//! This crate is the timing substrate for the heterogeneous-sorting
//! reproduction. It simulates a static DAG of *operations* competing for
//! two kinds of resources:
//!
//! * **Token resources** — indivisible units held for an op's whole
//!   duration (CPU core slots used as gang reservations, a GPU's kernel
//!   execution slot, a per-direction DMA copy engine).
//! * **Fluid resources** — capacities in units/second shared by all
//!   concurrently running ops (PCIe per-direction bandwidth, the host
//!   memory bus). Concurrent ops share a fluid resource by **max-min
//!   fairness** computed with a progressive-filling (waterfilling)
//!   algorithm; see [`fairshare`].
//!
//! An op progresses at a rate bounded by its own `cap` (its intrinsic
//! peak rate, e.g. what one core's `memcpy` can do) and by its fair share
//! of every fluid resource it places demand on. Whenever any op starts or
//! finishes, all rates are recomputed — this is how emergent contention
//! effects (two GPUs sharing one PCIe bus, merges competing with staging
//! copies for the memory bus) arise from first principles instead of
//! being scripted.
//!
//! The simulation is **deterministic**: event ties are broken by op id,
//! admission is in op-id order with conservative FIFO token reservation,
//! and no randomness is used anywhere.
//!
//! The kernel knows nothing about GPUs or sorting; those semantics live
//! in `hetsort-vgpu` and `hetsort-core`, which compile their pipelines
//! down to [`OpSpec`] DAGs. It records *when* ops ran ([`Timeline`]);
//! what they touched, the trace the analyzer checks, is
//! `hetsort_core::optrace`'s vocabulary.

// Library code must surface failures as typed errors, never panic
// paths; tests are free to unwrap. No unsafe anywhere in this crate.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod error;
pub mod fairshare;
pub mod op;
pub mod resource;
pub mod trace;

pub use engine::SimBuilder;
pub use error::SimError;
pub use fairshare::{max_min_rates, Flow};
pub use op::{Op, OpId, OpSpec, OpTag};
pub use resource::{FluidId, LaneId, QueueId, TokenId};
pub use trace::{SimStats, Span, Timeline};

/// Absolute time tolerance (seconds) used when grouping simultaneous
/// events. One picosecond: far below any modeled duration, far above
/// `f64` rounding noise at the simulated magnitudes (≤ 1e4 s).
pub const TIME_EPS: f64 = 1e-12;
