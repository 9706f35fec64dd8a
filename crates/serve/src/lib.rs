//! `hetsort-serve` — a multi-tenant sort service over the hetsort
//! executors.
//!
//! Tenants submit [`SortJob`]s (data + [`HetSortConfig`] + priority +
//! optional deadline) into a bounded queue. An [`AdmissionController`]
//! budgets with the plan's peak-residency math
//! ([`Residency`](hetsort_core::Residency)) to admit jobs only while
//! the aggregate device-memory and pinned-staging footprint stays
//! under a configurable [`ServeBudget`]; small same-shape jobs
//! coalesce into shared reservations; overload sheds jobs with a typed
//! [`Overloaded`](hetsort_core::HetSortError::Overloaded) error —
//! never a panic.
//!
//! The device pool is **elastic**: a [`pool::PoolEvent`] schedule can
//! remove and restore GPUs on the virtual clock. A loss displaces and
//! re-queues the jobs running on the lost device (members finished
//! before the loss still complete), re-plans the queue on the
//! survivors, and sheds — typed — only what can never fit again; a
//! join restores capacity at the next admission scan.
//!
//! The service is **deterministic**: outputs come from the functional
//! executors (bit-identical to a reference sort), while every clock —
//! queue waits, admissions, completions — advances in virtual seconds
//! taken from the simulator. Rerunning the same job list reproduces
//! the same schedule and metrics to the bit, which is what makes the
//! concurrent stress harness auditable.
//!
//! `hetsort-analyze` explores the shipped [`AdmissionController`] under
//! pool churn; this crate does not depend on the analyzer.
//!
//! ```
//! use hetsort_serve::{ServeBudget, ServeConfig, SortJob, SortService};
//! use hetsort_core::{Approach, HetSortConfig};
//! use hetsort_vgpu::platform1;
//!
//! let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
//!     .with_batch_elems(1_000)
//!     .with_pinned_elems(250);
//! let svc = SortService::new(ServeConfig::new(ServeBudget::new(1e6, 1e6)));
//! let out = svc.run(vec![SortJob::new(vec![3.0, 1.0, 2.0], cfg)]);
//! assert_eq!(out.completed[0].sorted, vec![1.0, 2.0, 3.0]);
//! ```
//!
//! [`HetSortConfig`]: hetsort_core::HetSortConfig

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

pub mod admission;
pub mod job;
pub mod mix;
pub mod pool;
pub mod service;

pub use admission::{AdmissionController, ServeBudget};
pub use job::{JobReport, Priority, SortJob};
pub use mix::{synthetic_jobs, MIX_COALESCE_ELEMS};
pub use pool::{chaos_schedule, parse_schedule, PoolEvent, PoolEventKind};
pub use service::{AdmissionEvent, ServeConfig, ServeOutcome, SortService};
