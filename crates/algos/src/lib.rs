//! # hetsort-algos — CPU sorting and merging algorithms, from scratch
//!
//! The paper treats the CPU side as a set of library black boxes: the GNU
//! libstdc++ parallel mode sort (a multiway mergesort, \[19\]\[20\]), the GNU
//! parallel multiway merge, Intel TBB's parallel sort, `std::sort`
//! (introsort), and `qsort`. This crate rebuilds all of them in safe,
//! portable Rust so the reproduction is self-contained:
//!
//! * [`mod@introsort`] — sequential introsort (`std::sort` stand-in):
//!   median-of-three quicksort, heapsort depth fallback, insertion
//!   finish.
//! * [`qsort`] — a C-`qsort`-style driver through an opaque comparator
//!   function pointer (reproduces the paper's observed ≈2× slowdown from
//!   uninlinable comparators).
//! * [`radix`] — LSD radix sort with order-preserving key transforms for
//!   floats (the Thrust/CUB device-sort stand-in used by the functional
//!   executor).
//! * [`radix_par`] — the parallel radix sort the functional engine
//!   runs as its device sort: one stable radix partition on the batch's
//!   top varying bits, then [`radix`] per cache-resident bucket;
//!   bit-identical to [`radix`] on the whole batch.
//! * [`merge`] — sequential two-way merge plus the *merge path* parallel
//!   pairwise merge (Green et al. \[18\]) used by the PIPEMERGE pipeline.
//! * [`multiway`] — co-rank-partitioned k-way merge, each part merged by
//!   a tree of two-way merges in bounded scratch (the GNU parallel-mode
//!   stand-in).
//! * [`mergesort`] — parallel multiway mergesort (sort p runs, multiway
//!   merge), the reference CPU implementation of the paper.
//! * [`samplesort`] — a TBB-flavored parallel samplesort baseline.
//! * [`par`] — the minimal scoped-thread parallel runtime everything
//!   above uses (`std::thread::scope`; no work-stealing dependency).
//! * [`keys`] — radix-key transforms and total-order helpers for floats.
//! * [`mem`] — huge-page host buffers: the engine's batch-, pair- and
//!   n-sized `Vec`s ask the kernel for 2 MiB pages.
//! * [`verify`] — sortedness checks and multiset fingerprints: the
//!   functional engine's own output check, sequential or in parallel
//!   parts, and the tests' oracle.
//!
//! All parallel entry points take an explicit `threads` argument so the
//! scalability experiments (Figures 4 and 6) can sweep thread counts
//! deterministically.
//!
//! ## Unsafe code
//!
//! The workspace's other crates forbid `unsafe`; this one holds all of
//! it, each block with a `SAFETY:` comment (the lint below enforces it):
//!
//! * [`merge::merge_into`] — unchecked indexing in its two branch-free
//!   loops. The chained loop advances four co-rank blocks in lockstep
//!   for `steps` rounds, where every block had at least `steps`
//!   elements left on both sides; a one-chain loop is bounded by its
//!   loop condition. Both write at `i + j`, under the length assert;
//! * `samplesort`'s write-once `Slot` — `Send`/`Sync` impls and its one
//!   write through an `UnsafeCell`;
//! * [`mem`] — the `madvise(MADV_HUGEPAGE)` call (Linux only).

// Library code never unwraps: a worker's panic resumes on the caller
// with its own payload, and a poisoned lock is recovered. Tests are
// free to unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod insertion;
pub mod introsort;
pub mod keys;
pub mod mem;
pub mod merge;
pub mod mergesort;
pub mod multiway;
pub mod par;
pub mod qsort;
pub mod radix;
pub mod radix_par;
pub mod samplesort;
pub mod verify;

pub use introsort::introsort;
pub use merge::{merge_into, merge_into_reference, par_merge_into, par_merge_into_cfg};
pub use mergesort::par_mergesort;
pub use multiway::{
    multiway_merge_into, par_multiway_merge_into, par_multiway_merge_into_cfg, selection_part_cap,
};
pub use par::{par_copy, SchedCfg, SchedStats, WorkerStats};
pub use radix::radix_sort;
pub use radix_par::{par_radix_sort, par_radix_sort_cfg};
pub use samplesort::{par_samplesort, par_samplesort_cfg};
