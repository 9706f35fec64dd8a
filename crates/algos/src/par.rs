//! Minimal scoped-thread parallel runtime with chunked self-scheduling.
//!
//! A deliberately small substitute for OpenMP/TBB: every parallel
//! algorithm in this crate expresses its parallelism as a set of
//! *parts* executed by up to `threads` scoped worker threads. Parts are
//! over-decomposed (~[`SchedCfg::DEFAULT_CHUNKS_PER_THREAD`]× the
//! worker count) and claimed from an atomic work queue, so a worker
//! that lands a cheap part immediately grabs the next one instead of
//! idling — the dynamic analogue of the static one-part-per-worker
//! assignment the GNU parallel mode (and therefore the paper's CPU
//! baseline) uses. DESIGN.md § 13 records the A/B against that static
//! assignment which made self-scheduling the only policy.
//!
//! `threads == 0` and `threads == 1` both mean "run inline on the
//! calling thread" (zero spawn overhead, no queue, no atomics), so
//! sequential baselines are exactly the same code path measured in
//! Figure 4's single-thread columns.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Decomposition granularity of the self-scheduled work queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedCfg {
    /// Parts created per worker thread when a caller over-decomposes a
    /// range; `0` means "auto" ([`Self::DEFAULT_CHUNKS_PER_THREAD`]),
    /// `1` is the one-part-per-worker partition.
    pub chunks_per_thread: u32,
}

impl SchedCfg {
    /// Auto over-decomposition factor: 32 parts at two workers, fine
    /// enough that the multiway fan-in filter turns tie runs into copies
    /// (DESIGN.md § 13), coarse next to a merge of thousands of elements.
    pub const DEFAULT_CHUNKS_PER_THREAD: u32 = 16;

    /// Effective chunks-per-thread with `0` resolved to the default.
    pub fn chunks_eff(&self) -> u32 {
        if self.chunks_per_thread == 0 {
            Self::DEFAULT_CHUNKS_PER_THREAD
        } else {
            self.chunks_per_thread
        }
    }

    /// How many parts a caller should decompose its work into for
    /// `threads` workers, capped at `max_parts` (usually the number of
    /// items, so no part is empty).
    pub fn over_parts(&self, threads: usize, max_parts: usize) -> usize {
        let threads = threads.max(1);
        if threads == 1 {
            return 1;
        }
        threads
            .saturating_mul(self.chunks_eff() as usize)
            .min(max_parts)
            .max(1)
    }
}

/// What one worker did during a [`par_parts_stats`] call. Times are
/// seconds relative to the call's entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStats {
    /// Worker index (`0` is the calling thread).
    pub worker: usize,
    /// Number of parts this worker executed.
    pub parts: usize,
    /// When the worker first started executing a part.
    pub start_s: f64,
    /// When the worker finished its last part.
    pub end_s: f64,
    /// Total time spent inside part closures (excludes queue waits).
    pub busy_s: f64,
}

/// Per-worker execution record returned by [`par_parts_stats`] — the raw
/// material for per-worker observability spans and imbalance metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedStats {
    /// One entry per worker, indexed by worker id, including workers
    /// that claimed zero parts (deterministic length
    /// `min(threads, parts).max(1)` for a non-empty part list).
    pub workers: Vec<WorkerStats>,
    /// Total parts executed.
    pub parts: usize,
}

impl SchedStats {
    /// Ratio of the busiest worker's busy time to the mean busy time;
    /// `1.0` is perfect balance. Returns `1.0` for degenerate inputs.
    pub fn imbalance(&self) -> f64 {
        let n = self.workers.len();
        if n == 0 {
            return 1.0;
        }
        let total: f64 = self.workers.iter().map(|w| w.busy_s).sum();
        let max = self.workers.iter().map(|w| w.busy_s).fold(0.0f64, f64::max);
        if total <= 0.0 {
            return 1.0;
        }
        max * n as f64 / total
    }
}

/// Split `len` items into `parts` contiguous ranges differing in length
/// by at most one. Returns exactly `parts` ranges (possibly empty when
/// `len < parts`).
pub fn split_evenly(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0, "split_evenly requires parts > 0");
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let sz = base + usize::from(i < extra);
        out.push(start..start + sz);
        start += sz;
    }
    debug_assert_eq!(start, len);
    out
}

/// Execute one closure per part on up to `threads` scoped threads. The
/// closure receives `(part_index, part)`; every part runs exactly once.
pub fn par_parts<P, F>(threads: usize, parts: Vec<P>, f: F)
where
    P: Send,
    F: Fn(usize, P) + Sync,
{
    par_parts_stats(threads, parts, f);
}

/// Like [`par_parts`] but returning per-worker execution stats.
///
/// Workers claim parts from an atomic queue in index order; each part
/// runs exactly once, so disjoint-output callers produce identical
/// results whichever worker claims which part. `threads ≤ 1` (or a
/// single part) runs inline on the calling thread with no queue and no
/// atomics.
pub fn par_parts_stats<P, F>(threads: usize, parts: Vec<P>, f: F) -> SchedStats
where
    P: Send,
    F: Fn(usize, P) + Sync,
{
    let t0 = Instant::now();
    let threads = threads.max(1);
    if parts.is_empty() {
        return SchedStats::default();
    }
    if threads == 1 || parts.len() <= 1 {
        let nparts = parts.len();
        let mut busy = 0.0f64;
        let start_s = t0.elapsed().as_secs_f64();
        for (i, p) in parts.into_iter().enumerate() {
            let s = Instant::now();
            f(i, p);
            busy += s.elapsed().as_secs_f64();
        }
        return SchedStats {
            workers: vec![WorkerStats {
                worker: 0,
                parts: nparts,
                start_s,
                end_s: t0.elapsed().as_secs_f64(),
                busy_s: busy,
            }],
            parts: nparts,
        };
    }

    let nworkers = threads.min(parts.len());
    let nparts = parts.len();
    let fref = &f;

    // Atomic work queue: slots hold the parts; `next` hands out
    // indices. Each slot's mutex is locked exactly once (by the
    // claiming worker), so there is no contention on the data,
    // only one fetch_add per part.
    let slots: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let next = AtomicUsize::new(0);
    let slots_ref = &slots;
    let next_ref = &next;
    let run_queue = move |worker: usize| -> WorkerStats {
        let start_s = t0.elapsed().as_secs_f64();
        let mut busy = 0.0f64;
        let mut count = 0usize;
        loop {
            let i = next_ref.fetch_add(1, Ordering::Relaxed);
            if i >= slots_ref.len() {
                break;
            }
            // `next` hands each index out once, so the slot is full; a
            // poisoned lock only means another part panicked.
            let claimed = slots_ref[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            let Some(p) = claimed else { continue };
            let s = Instant::now();
            fref(i, p);
            busy += s.elapsed().as_secs_f64();
            count += 1;
        }
        WorkerStats {
            worker,
            parts: count,
            start_s,
            end_s: t0.elapsed().as_secs_f64(),
            busy_s: busy,
        }
    };
    let mut workers = std::thread::scope(|s| {
        let handles: Vec<_> = (1..nworkers)
            .map(|w| s.spawn(move || run_queue(w)))
            .collect();
        let mut out = vec![run_queue(0)];
        for h in handles {
            // A worker's panic resumes here with its own payload.
            out.push(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        out
    });
    workers.sort_by_key(|w| w.worker);
    debug_assert_eq!(workers.iter().map(|w| w.parts).sum::<usize>(), nparts);
    SchedStats {
        workers,
        parts: nparts,
    }
}

/// Split `data` into `parts` contiguous mutable chunks of near-equal
/// size and run `f(part_index, chunk)` on up to `threads` threads.
pub fn par_chunks_mut<T, F>(threads: usize, parts: usize, data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let ranges = split_evenly(data.len(), parts.max(1));
    let chunks = split_ranges_mut(data, &ranges);
    par_parts(threads, chunks, f);
}

/// Parallel memcpy: copy `src` into `dst` (equal lengths) with up to
/// `threads` workers over self-scheduled chunks. The PARMEMCPY staging
/// path uses this for host↔pinned copies. Chunks are kept ≥
/// [`MIN_PART`] elements, so thread overhead never dominates small
/// buffers; one worker is a plain `copy_from_slice`.
pub fn par_copy<T>(threads: usize, src: &[T], dst: &mut [T])
where
    T: Copy + Send + Sync,
{
    assert_eq!(src.len(), dst.len(), "par_copy length mismatch");
    let len = src.len();
    let threads = threads.min(len / MIN_PART);
    if threads <= 1 {
        dst.copy_from_slice(src);
        return;
    }
    let cfg = SchedCfg::default();
    let parts = cfg.over_parts(threads, len / MIN_PART);
    let ranges = split_evenly(len, parts);
    let chunks = split_ranges_mut(dst, &ranges);
    let pairs: Vec<(&[T], &mut [T])> = ranges
        .iter()
        .zip(chunks)
        .map(|(r, c)| (&src[r.clone()], c))
        .collect();
    par_parts_stats(threads, pairs, |_, (s, d)| {
        d.copy_from_slice(s);
    });
}

/// The grain: every kernel (copy, merges, device sort) over `n` elements
/// runs on `threads.min(n / MIN_PART)` workers, and inline at one.
pub const MIN_PART: usize = 4 * 1024;

/// Carve a mutable slice into the given disjoint, ascending ranges.
///
/// # Panics
///
/// Panics if ranges overlap, descend, or exceed the slice length.
pub fn split_ranges_mut<'a, T>(
    mut data: &'a mut [T],
    ranges: &[std::ops::Range<usize>],
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut offset = 0usize;
    for r in ranges {
        assert!(r.start >= offset, "ranges must be ascending and disjoint");
        let skip = r.start - offset;
        let (_, rest) = data.split_at_mut(skip);
        let (chunk, rest) = rest.split_at_mut(r.end - r.start);
        out.push(chunk);
        data = rest;
        offset = r.end;
    }
    out
}

/// Run two closures, possibly in parallel (when `threads > 1`), and
/// return both results. A tiny `join` used by recursive algorithms.
pub fn join<A, B, RA, RB>(threads: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if threads <= 1 {
        let ra = a();
        let rb = b();
        (ra, rb)
    } else {
        std::thread::scope(|s| {
            let hb = s.spawn(b);
            let ra = a();
            let rb = hb.join().unwrap_or_else(|payload| resume_unwind(payload));
            (ra, rb)
        })
    }
}

/// Default worker count: the machine's available parallelism, read once
/// per process (a `taskset` launch sees its own mask). Each uncached
/// call re-reads cgroup files, 15–18 µs on a 2-vCPU VM, and a 600-job
/// `serve_mix` iteration made 1 593 of them.
pub fn default_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_panicking_task_keeps_its_payload() {
        for threads in [1, 2] {
            let payload =
                std::panic::catch_unwind(|| join(threads, || 1, || -> i32 { panic!("boom") }))
                    .unwrap_err();
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"boom"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn split_evenly_exact_division() {
        let r = split_evenly(12, 4);
        assert_eq!(r, vec![0..3, 3..6, 6..9, 9..12]);
    }

    #[test]
    fn split_evenly_with_remainder() {
        let r = split_evenly(10, 3);
        assert_eq!(r, vec![0..4, 4..7, 7..10]);
    }

    #[test]
    fn split_evenly_more_parts_than_items() {
        let r = split_evenly(2, 4);
        assert_eq!(r, vec![0..1, 1..2, 2..2, 2..2]);
    }

    #[test]
    fn split_evenly_zero_len() {
        let r = split_evenly(0, 3);
        assert!(r.iter().all(|r| r.is_empty()));
        assert_eq!(r.len(), 3);
    }

    #[test]
    #[should_panic(expected = "parts > 0")]
    fn split_evenly_zero_parts_panics() {
        split_evenly(5, 0);
    }

    #[test]
    fn par_parts_runs_every_part_once() {
        for threads in [1, 2, 4, 9] {
            let counter = AtomicUsize::new(0);
            let hits: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
            let parts: Vec<usize> = (0..17).collect();
            let stats = par_parts_stats(threads, parts, |i, p| {
                assert_eq!(i, p);
                hits[i].fetch_add(1, Ordering::Relaxed);
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 17);
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            assert_eq!(stats.parts, 17);
            assert_eq!(stats.workers.len(), threads.min(17));
            assert_eq!(stats.workers.iter().map(|w| w.parts).sum::<usize>(), 17);
        }
    }

    #[test]
    fn par_parts_empty_is_noop() {
        par_parts::<usize, _>(4, Vec::new(), |_, _| panic!("should not run"));
        let stats = par_parts_stats::<usize, _>(4, Vec::new(), |_, _| panic!("should not run"));
        assert_eq!(stats, SchedStats::default());
    }

    #[test]
    fn inline_path_reports_single_worker() {
        let stats = par_parts_stats(1, vec![1, 2, 3], |_, _| {});
        assert_eq!(stats.workers.len(), 1);
        assert_eq!(stats.workers[0].parts, 3);
        assert_eq!(stats.parts, 3);
    }

    #[test]
    fn over_parts_scales_and_caps() {
        let cfg = SchedCfg::default();
        assert_eq!(cfg.chunks_eff(), SchedCfg::DEFAULT_CHUNKS_PER_THREAD);
        assert_eq!(cfg.over_parts(1, 100), 1, "single thread never splits");
        assert_eq!(cfg.over_parts(4, 1_000), 64, "16x over-decomposition");
        assert_eq!(cfg.over_parts(4, 5), 5, "capped at max_parts");
        assert_eq!(cfg.over_parts(4, 0), 1, "never zero");
        let one = SchedCfg {
            chunks_per_thread: 1,
        };
        assert_eq!(one.over_parts(4, 1_000), 4, "one part per worker");
    }

    #[test]
    fn merges_under_two_grains_run_on_one_worker() {
        // Below two grains both merges stay on the caller at any width.
        use crate::merge::par_merge_into_cfg;
        use crate::multiway::par_multiway_merge_into_cfg;
        let cfg = SchedCfg::default();
        let workers = |n: usize| {
            let v: Vec<u64> = (0..n as u64).collect();
            let mut out = vec![0u64; n];
            let (a, b) = v.split_at(n / 2);
            let pair = par_merge_into_cfg(&cfg, 8, a, b, &mut out);
            let lists = [&v[..n / 3], &v[n / 3..2 * n / 3], &v[2 * n / 3..]];
            let multi = par_multiway_merge_into_cfg(&cfg, 8, &lists, &mut out);
            (pair.workers.len(), multi.workers.len())
        };
        for n in [32usize, MIN_PART, 2 * MIN_PART - 1] {
            let (pair, multi) = workers(n);
            assert!(pair <= 1 && multi <= 1, "n={n}: {pair} and {multi} workers");
        }
        // Two grains is the smallest input that gets a second worker.
        assert_eq!(workers(2 * MIN_PART), (2, 2));
    }

    #[test]
    fn imbalance_of_empty_stats_is_one() {
        assert_eq!(SchedStats::default().imbalance(), 1.0);
    }

    #[test]
    fn par_copy_matches_memcpy() {
        for threads in [1, 2, 4] {
            for len in [0usize, 10, MIN_PART - 1, MIN_PART * 3 + 17] {
                let src: Vec<u64> = (0..len as u64).map(|x| x.wrapping_mul(0x9E37)).collect();
                let mut dst = vec![0u64; len];
                par_copy(threads, &src, &mut dst);
                assert_eq!(src, dst, "threads={threads} len={len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn par_copy_rejects_length_mismatch() {
        let src = [1u8, 2];
        let mut dst = [0u8; 3];
        par_copy(2, &src, &mut dst);
    }

    #[test]
    fn par_chunks_mut_covers_slice() {
        let mut v: Vec<usize> = vec![0; 103];
        par_chunks_mut(4, 7, &mut v, |i, chunk| {
            for x in chunk {
                *x = i + 1;
            }
        });
        assert!(v.iter().all(|&x| (1..=7).contains(&x)));
        // First chunk has ceil(103/7)=15 elements of value 1.
        assert_eq!(v.iter().filter(|&&x| x == 1).count(), 15);
    }

    #[test]
    fn split_ranges_mut_disjoint() {
        let mut v: Vec<u32> = (0..10).collect();
        let ranges = vec![0..3, 5..7, 7..10];
        let chunks = split_ranges_mut(&mut v, &ranges);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], &[0, 1, 2]);
        assert_eq!(chunks[1], &[5, 6]);
        assert_eq!(chunks[2], &[7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn split_ranges_mut_rejects_overlap() {
        let mut v = [0u8; 10];
        split_ranges_mut(&mut v, &[0..5, 3..7]);
    }

    #[test]
    fn join_returns_both() {
        for threads in [1, 2] {
            let (a, b) = join(threads, || 6 * 7, || "ok");
            assert_eq!(a, 42);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
