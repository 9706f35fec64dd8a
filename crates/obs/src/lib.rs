//! # hetsort-obs — unified tracing and metrics
//!
//! The paper's core contribution is *accounting*: showing that pinned
//! allocation, staging memcpys, and synchronization are first-order
//! costs the literature omits. This crate is the subsystem that makes
//! that accounting machine-readable:
//!
//! * [`span`] — the span vocabulary: every operation the pipeline
//!   performs is one [`ObsSpan`] tagged with an [`OpClass`]
//!   (`HtoD`/`DtoH`/`GpuSort`/`StagingCopy`/`PairMerge`/
//!   `MultiwayMerge`/`PinnedAlloc`/`Sync`), the dag node it ran,
//!   stream/GPU id, and bytes. The simulator and the functional
//!   executors (`hetsort-core`) both place a node's span by one rule
//!   and add only times and bytes.
//! * [`registry`] — [`MetricsRegistry`]: per-class totals (busy,
//!   union, bytes, count), named counters (recovery stats), overlap
//!   ratio, bus utilization, and the literature-vs-full accounting
//!   delta. Aggregation is permutation-invariant: merging any
//!   reordering of span streams yields bit-identical totals.
//! * [`chrome`] — Chrome-trace JSON export (`chrome://tracing` /
//!   Perfetto "trace event format") plus a structural validator used
//!   by the tests.
//! * [`json`] — the dependency-free JSON value/parser/writer every
//!   export shares (Chrome traces, metrics documents, and
//!   `hetsort-bench`'s `BENCH.json`).

// Library code must surface failures as typed results, never panics.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::process::ExitCode;

pub mod chrome;
pub mod json;
pub mod registry;
pub mod span;

pub use chrome::{chrome_trace, validate_chrome, ChromeSummary};
pub use json::Json;
pub use registry::{ClassStats, MetricsRegistry, Totals};
pub use span::{ObsSpan, OpClass};

/// Exit code of a binary whose report went to stdout, shared by
/// `hetsort` and `experiments`: a closed pipe (`… | head -1`) means the
/// reader has what it wanted and is a success; any other write error
/// is reported on stderr under `prog` and is exit 1.
pub fn stdout_exit_code(prog: &str, written: std::io::Result<()>) -> ExitCode {
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{prog}: {e}");
            ExitCode::from(1)
        }
    }
}
