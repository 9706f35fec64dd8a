//! Parallel samplesort — the TBB-flavored comparison sort baseline.
//!
//! Figure 4 of the paper also benchmarks Intel TBB's parallel sort,
//! which (like most task-parallel quicksort descendants) partitions by
//! value rather than by position. This samplesort captures that shape:
//! sample splitters, bucket every chunk by binary search against the
//! splitters, concatenate buckets, and sort each bucket independently.
//! Distribution-sensitive — on heavily skewed inputs the buckets
//! imbalance, which is the classic reason the GNU multiway mergesort
//! wins at large `n` (the paper's reason for choosing GNU as the
//! reference implementation).

use crate::introsort::introsort;
use crate::keys::SortOrd;
use crate::multiway::upper_bound;
use crate::par::{par_parts_stats, split_evenly, split_ranges_mut, SchedCfg};

/// Oversampling factor for splitter selection.
const OVERSAMPLE: usize = 32;

/// Sort `data` with `threads` workers using samplesort.
pub fn par_samplesort<T: SortOrd + Default>(threads: usize, data: &mut [T]) {
    par_samplesort_cfg(&SchedCfg::default(), threads, data);
}

/// [`par_samplesort`] with an explicit scheduling policy. The bucket
/// count is over-decomposed ([`SchedCfg::over_parts`]) so that on
/// skewed inputs — where value-based buckets imbalance badly — an
/// oversized bucket occupies one worker while the rest drain the queue,
/// instead of stalling a statically-assigned peer.
pub fn par_samplesort_cfg<T: SortOrd + Default>(cfg: &SchedCfg, threads: usize, data: &mut [T]) {
    let threads = threads.max(1);
    let n = data.len();
    if threads == 1 || n < 4 * threads * OVERSAMPLE {
        introsort(data);
        return;
    }

    // 1. Choose p-1 splitters from an oversampled, evenly spaced sample.
    //    (The fallback above guarantees n / (4·OVERSAMPLE) ≥ threads, so
    //    the sample never exceeds a quarter of the input.)
    let p = cfg.over_parts(threads, n / (4 * OVERSAMPLE));
    let sample_len = p * OVERSAMPLE;
    let mut sample: Vec<T> = (0..sample_len)
        .map(|i| data[i * (n / sample_len)])
        .collect();
    introsort(&mut sample);
    let splitters: Vec<T> = (1..p).map(|i| sample[i * OVERSAMPLE]).collect();

    // 2. Bucket each chunk locally (parallel): per-chunk vector of
    //    p buckets, classified by binary search against the splitters.
    let chunk_ranges = split_evenly(n, p);
    let chunks: Vec<&[T]> = chunk_ranges.iter().map(|r| &data[r.clone()]).collect();
    let local: Vec<parking::Slot<Vec<Vec<T>>>> = (0..p).map(|_| parking::Slot::new()).collect();
    {
        let parts: Vec<(usize, &[T])> = chunks.iter().copied().enumerate().collect();
        let local_ref = &local;
        let splitters_ref = &splitters;
        par_parts_stats(threads, parts, move |_, (c, chunk)| {
            let mut buckets: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
            for &x in chunk {
                let b = upper_bound(splitters_ref, &x);
                buckets[b].push(x);
            }
            local_ref[c].put(buckets);
        });
    }
    let local: Vec<Vec<Vec<T>>> = local.into_iter().map(parking::Slot::take).collect();

    // 3. Bucket sizes → output ranges.
    let mut bucket_sizes = vec![0usize; p];
    for chunk_buckets in &local {
        for (b, v) in chunk_buckets.iter().enumerate() {
            bucket_sizes[b] += v.len();
        }
    }
    let mut bucket_ranges = Vec::with_capacity(p);
    let mut start = 0usize;
    for &sz in &bucket_sizes {
        bucket_ranges.push(start..start + sz);
        start += sz;
    }
    debug_assert_eq!(start, n);

    // 4. Concatenate each bucket's chunk-local pieces and sort it, in
    //    parallel over buckets (disjoint output ranges).
    let out_chunks = split_ranges_mut(data, &bucket_ranges);
    let parts: Vec<(usize, &mut [T])> = out_chunks.into_iter().enumerate().collect();
    let local_ref = &local;
    par_parts_stats(threads, parts, move |_, (b, out)| {
        let mut off = 0usize;
        for chunk_buckets in local_ref {
            let piece = &chunk_buckets[b];
            out[off..off + piece.len()].copy_from_slice(piece);
            off += piece.len();
        }
        introsort(out);
    });
}

/// Tiny once-cell used to pass owned results out of scoped workers
/// without locks on the hot path.
mod parking {
    use std::cell::UnsafeCell;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A write-once slot: one writer thread calls [`put`](Slot::put),
    /// the owner later calls [`take`](Slot::take) after all writers have
    /// joined (the scoped-thread join provides the happens-before edge;
    /// the atomic flag makes misuse detectable).
    pub struct Slot<T> {
        full: AtomicBool,
        val: UnsafeCell<Option<T>>,
    }

    // SAFETY: at most one writer puts (enforced by the swap), and take
    // happens after all writers joined.
    unsafe impl<T: Send> Sync for Slot<T> {}
    // SAFETY: a `Slot` owns its `T` (`AtomicBool` and `UnsafeCell` are
    // `Send` when `T` is); moving it moves that value.
    unsafe impl<T: Send> Send for Slot<T> {}

    impl<T> Slot<T> {
        pub fn new() -> Self {
            Slot {
                full: AtomicBool::new(false),
                val: UnsafeCell::new(None),
            }
        }

        /// Store the value. Panics on double-put.
        pub fn put(&self, v: T) {
            assert!(
                !self.full.swap(true, Ordering::AcqRel),
                "Slot::put called twice"
            );
            // SAFETY: the swap above made this thread the unique writer.
            unsafe { *self.val.get() = Some(v) };
        }

        /// Consume the value. Panics if never put.
        pub fn take(self) -> T {
            let put = self.full.load(Ordering::Acquire);
            match self.val.into_inner() {
                Some(v) if put => v,
                _ => panic!("Slot::take before put"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{fingerprint, is_sorted};

    fn lcg(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn matches_introsort() {
        let base = lcg(5, 20_000);
        let mut expect = base.clone();
        introsort(&mut expect);
        for threads in [2usize, 4, 8] {
            let mut v = base.clone();
            par_samplesort(threads, &mut v);
            assert_eq!(
                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn cfg_policies_agree() {
        let base = lcg(6, 25_000);
        let mut expect = base.clone();
        introsort(&mut expect);
        let expect: Vec<u64> = expect.iter().map(|x| x.to_bits()).collect();
        for cfg in [1, 4, 0].map(|chunks_per_thread| SchedCfg { chunks_per_thread }) {
            for threads in [2usize, 8] {
                let mut v = base.clone();
                par_samplesort_cfg(&cfg, threads, &mut v);
                assert_eq!(
                    v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    expect,
                    "cfg={cfg:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn small_inputs_fall_back_to_introsort() {
        let mut v = lcg(9, 100);
        par_samplesort(8, &mut v);
        assert!(is_sorted(&v));
    }

    #[test]
    fn preserves_multiset() {
        let v0 = lcg(31, 15_000);
        let fp = fingerprint(&v0);
        let mut v = v0;
        par_samplesort(4, &mut v);
        assert!(is_sorted(&v));
        assert_eq!(fingerprint(&v), fp);
    }

    #[test]
    fn skewed_input_still_sorts() {
        // 90% identical values: buckets imbalance but output is correct.
        let mut v: Vec<f64> = vec![1.0; 18_000];
        v.extend(lcg(77, 2_000));
        let fp = fingerprint(&v);
        par_samplesort(4, &mut v);
        assert!(is_sorted(&v));
        assert_eq!(fingerprint(&v), fp);
    }

    #[test]
    fn sorted_input() {
        let mut v: Vec<f64> = (0..20_000).map(|i| i as f64).collect();
        par_samplesort(4, &mut v);
        assert!(is_sorted(&v));
        assert_eq!(v[0], 0.0);
        assert_eq!(v[19_999], 19_999.0);
    }

    #[test]
    fn slot_roundtrip() {
        let s = parking::Slot::new();
        s.put(42);
        assert_eq!(s.take(), 42);
    }

    #[test]
    #[should_panic(expected = "put called twice")]
    fn slot_double_put_panics() {
        let s = parking::Slot::new();
        s.put(1);
        s.put(2);
    }

    #[test]
    #[should_panic(expected = "take before put")]
    fn slot_take_before_put_panics() {
        let s: parking::Slot<i32> = parking::Slot::new();
        s.take();
    }
}
