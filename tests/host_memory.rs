//! The engine's host memory stays within the plan's host-memory model.
//!
//! A counting `GlobalAlloc` over `System` tracks live and peak heap
//! bytes. Each run's peak above the bytes live before it (the input,
//! the harness) must stay at or below
//! [`host_peak_bytes`] + [`SLACK`] for the inline engine, and at or
//! below [`host_bound_bytes`] + [`SLACK`] for the pooled one, whose
//! order is not fixed. `SLACK` covers spans, ready sets and thread
//! bookkeeping; every geometry below keeps `b_s·elem` well above it, so
//! a run or stream buffer held one node too long does not fit in it.
//!
//! This binary holds exactly one `#[test]`, so nothing else allocates
//! while a run is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hetsort::algos::radix_par::LSD_MAX_BYTES;
use hetsort::core::{
    execute_dag_pooled, host_bound_bytes, host_peak_bytes, Approach, HetSortConfig, PairStrategy,
    Plan, PlanDag, StagingMode,
};
use hetsort::vgpu::platform1;

/// Bytes allowed above the model: small next to `BATCH · 8` = 400 KB.
const SLACK: u64 = 64 << 10;
const N: usize = 200_000;
const BATCH: usize = 50_000;
const PINNED: usize = 12_500;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn lcg_data(n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

#[test]
fn engine_host_memory_stays_within_the_model() {
    // BLINE sorts the input as one batch: no merge, so nothing but the
    // one stream's buffers and its sort add to B. Its second size puts
    // that batch past the device sort's LSD bound, so the model must
    // cover the partition's counters and bucket rows.
    let partitioned = LSD_MAX_BYTES / 8 + BATCH;
    let pairs = [
        PairStrategy::PaperHeuristic,
        PairStrategy::Online,
        PairStrategy::MergeTree,
    ];
    let mut geometries = vec![
        (Approach::BLine, N, N, &[PairStrategy::PaperHeuristic][..]),
        (
            Approach::BLine,
            partitioned,
            partitioned,
            &[PairStrategy::PaperHeuristic][..],
        ),
    ];
    for approach in [
        Approach::BLineMulti,
        Approach::PipeData,
        Approach::PipeMerge,
    ] {
        geometries.push((approach, N, BATCH, &pairs[..]));
    }
    let mut over = Vec::new();
    for (approach, n, batch, strategies) in geometries {
        let data = lcg_data(n, 0x4057);
        for &strategy in strategies {
            for staging in [StagingMode::Paper, StagingMode::DoubleBuffered] {
                let cfg = HetSortConfig::paper_defaults(platform1(), approach)
                    .with_batch_elems(batch)
                    .with_pinned_elems(PINNED)
                    .with_pair_strategy(strategy)
                    .with_staging(staging);
                let plan = Plan::build(cfg, n).unwrap();
                let (model, bound) = (host_peak_bytes(&plan), host_bound_bytes(&plan));
                let dag = PlanDag::from_plan(plan);
                for workers in [0usize, 2] {
                    let base = LIVE.load(Ordering::Relaxed);
                    PEAK.store(base, Ordering::Relaxed);
                    let out = execute_dag_pooled(&dag, &data, workers).unwrap();
                    let used = PEAK.load(Ordering::Relaxed) - base;
                    assert!(
                        out.verified,
                        "{approach:?}/n{n}/{strategy:?}/{staging:?}/w{workers}"
                    );
                    drop(out);
                    let (limit, what) = if workers == 0 {
                        (model, "inline model")
                    } else {
                        (bound, "any-order bound")
                    };
                    if used > limit + SLACK {
                        over.push(format!(
                            "{approach:?}/n{n}/{strategy:?}/{staging:?} workers={workers}: \
                             {used} B live > {what} {limit} B + slack {SLACK} B"
                        ));
                    }
                }
            }
        }
    }
    assert!(over.is_empty(), "over the host model:\n{}", over.join("\n"));
}
