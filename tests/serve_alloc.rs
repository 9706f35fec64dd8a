//! A service job allocates what its data needs, not a fixed toll.
//!
//! A counting `GlobalAlloc` over `System` counts allocator calls
//! (`alloc`, `alloc_zeroed`, `realloc`), the bytes they request and the
//! calls of exactly 64 KiB, around one `SortService::run` of a fixed
//! 60-job mix (`synthetic_jobs(platform1, 60, 42)`: the three job shapes
//! of the benchmark's `serve_mix`, every tenth job with one injected
//! fault, coalescing on, 10⁶ B budgets). It asserts:
//!
//! * no call asks for exactly 64 KiB. Those were the radix counter's
//!   lane rows (`[[u64; 256]; 4]` per key byte), allocated and zeroed
//!   by every batch sort; a batch under `radix::SMALL_COUNT` keys now
//!   counts into one stack row per digit. Before that change this mix
//!   read 38 045 calls and 32.3 MB, 196 calls of exactly 64 KiB, and
//!   the same mix at 600 jobs 385 762 calls and 318.0 MB, 1 924 of them
//!   64 KiB (the benchmark's own 600-job mix: 400 772 calls, 315.4 MiB,
//!   1 911). After it: 35 093 calls and 19.1 MB at 60 jobs, 356 920
//!   calls and 187.5 MB at 600, none of 64 KiB. Most of the other
//!   calls saved are the per-node access lists that only a traced run
//!   reads;
//! * at most [`CALLS`] calls: the 35 093 measured on two CPUs plus
//!   10 %. Kernel parts follow the host's width, so the count does a
//!   little too (34 671 pinned to one CPU).
//!
//! This binary holds exactly one `#[test]`, so nothing else allocates
//! while the run is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hetsort::serve::{synthetic_jobs, ServeBudget, ServeConfig, SortService, MIX_COALESCE_ELEMS};
use hetsort::vgpu::platform1;

/// Jobs in the mix.
const JOBS: usize = 60;
/// Allocator calls one run of the mix may make: measured + 10 %.
const CALLS: u64 = 35_093 * 11 / 10;
/// The lane rows' size: four rows of 256 `u64` counters.
const LANE_ROWS_BYTES: usize = 64 * 1024;

static CALLS_MADE: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LANE_SIZED: AtomicU64 = AtomicU64::new(0);

fn asked(bytes: usize) {
    CALLS_MADE.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    if bytes == LANE_ROWS_BYTES {
        LANE_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        asked(layout.size());
        // SAFETY: forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        asked(layout.size());
        // SAFETY: forwarded as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        asked(new_size);
        // SAFETY: forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn service_jobs_allocate_for_their_data() {
    let jobs = synthetic_jobs(&platform1(), JOBS, 42);
    let service = SortService::new(
        ServeConfig::new(ServeBudget::new(1.0e6, 1.0e6))
            .with_queue_cap(JOBS)
            .with_coalescing(MIX_COALESCE_ELEMS),
    );
    let counts = || [&CALLS_MADE, &BYTES, &LANE_SIZED].map(|c| c.load(Ordering::Relaxed));
    let before = counts();
    let out = service.run(jobs);
    let after = counts();
    let [calls, bytes, lane_sized] = [0, 1, 2].map(|i| after[i] - before[i]);

    assert_eq!(
        out.completed.len(),
        JOBS,
        "shed {:?}, failed {:?}",
        out.shed,
        out.failed
    );
    assert!(
        out.completed.iter().all(|r| r.verified),
        "an unverified job"
    );
    let seen = format!("{calls} calls, {bytes} B, {lane_sized} of exactly 64 KiB");
    assert_eq!(lane_sized, 0, "{seen}");
    assert!(calls <= CALLS, "{seen}: more than {CALLS} calls");
}
