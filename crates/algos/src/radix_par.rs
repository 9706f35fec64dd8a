//! Parallel LSD radix sort — the Thrust device sort modeled faithfully.
//!
//! Thrust's radix sort is a sequence of count → scan → scatter passes
//! over thousands of GPU threads. This is the CPU translation: each
//! pass computes per-chunk digit histograms in parallel, prefix-scans
//! them into disjoint per-(bucket, chunk) output blocks, and scatters
//! in parallel. Stability is preserved (chunks own contiguous input
//! ranges, scanned in order), so the pass sequence sorts exactly like
//! the sequential [`crate::radix`] — verified bit-for-bit by tests.
//!
//! Histogram counts are [`HistCount`] (`u64`): the paper's headline run
//! sorts n = 4.9×10⁹ elements, and a `u32` count wraps exactly there
//! when one worker chunk holds ≥ 2³² equal-digit elements.
//!
//! The scatter writes through a raw pointer because each chunk's
//! targets interleave globally while remaining *pairwise disjoint* —
//! the canonical counting-sort partition. See the `SAFETY` notes.

use crate::keys::RadixKey;
use crate::par::{par_parts_stats, split_evenly, SchedCfg};

const BUCKETS: usize = 256;

/// Histogram count type. `u64`, never `u32`: a chunk with ≥ 2³²
/// equal-digit elements (paper scale) must not wrap silently.
pub type HistCount = u64;

/// Smallest per-chunk slice the sort will hand to the scheduler, in
/// elements — bounds histogram memory (one `BUCKETS × digits` table
/// per chunk) and keeps queue overhead negligible.
const MIN_RADIX_CHUNK: usize = 4 * 1024;

/// Elements per cache block of [`count_digits`] — see
/// `radix::count_all_digits` for the rationale (8 KiB of extracted keys
/// plus one 2 KiB counter row stay L1-resident).
const COUNT_BLOCK: usize = 1024;

/// Count digit occurrences of `chunk` into `hist` (layout
/// `[digit][bucket]`, `BUCKETS * digits` wide). This is the per-worker
/// counting kernel of every pass; extracted so overflow behaviour is
/// testable without allocating paper-scale inputs.
///
/// Cache-blocked: keys are extracted once per 1024-element block, then
/// each digit's counter row is filled from the resident block, instead
/// of striding across all `digits` rows per element. Counts are exactly
/// the element-major counts, accumulated in a different order.
fn count_digits<T: RadixKey>(chunk: &[T], digits: usize, hist: &mut [HistCount]) {
    let mut keys = [0u64; COUNT_BLOCK];
    for block in chunk.chunks(COUNT_BLOCK) {
        let keys = &mut keys[..block.len()];
        for (k, x) in keys.iter_mut().zip(block.iter()) {
            *k = x.radix_key();
        }
        for d in 0..digits {
            let row = &mut hist[d * BUCKETS..(d + 1) * BUCKETS];
            let shift = 8 * d;
            for &k in keys.iter() {
                row[((k >> shift) & 0xFF) as usize] += 1;
            }
        }
    }
}

/// Shared mutable output for the scatter phase.
///
/// SAFETY invariant: all concurrent writers write pairwise-disjoint
/// index sets (guaranteed by the exclusive scan over per-chunk bucket
/// counts), and the pointer outlives the scoped threads.
struct ScatterTarget<T>(*mut T);
// SAFETY: concurrent writers touch pairwise-disjoint index sets (the
// exclusive scan hands each chunk a private block per bucket) and the
// pointee outlives the scoped threads, so shared access cannot alias.
unsafe impl<T: Send> Sync for ScatterTarget<T> {}
// SAFETY: the wrapper is just a pointer to a `Send` buffer owned by the
// spawning scope; moving it to another thread moves no non-Send state.
unsafe impl<T: Send> Send for ScatterTarget<T> {}

/// Sort `data` with a parallel LSD radix sort on `threads` workers.
///
/// Falls back to the sequential radix sort for small inputs or one
/// thread. Allocates one scratch buffer of equal length.
pub fn par_radix_sort<T: RadixKey + Default>(threads: usize, data: &mut [T]) {
    par_radix_sort_cfg(&SchedCfg::default(), threads, data);
}

/// [`par_radix_sort`] with an explicit scheduling policy.
pub fn par_radix_sort_cfg<T: RadixKey + Default>(cfg: &SchedCfg, threads: usize, data: &mut [T]) {
    let threads = threads.max(1);
    let n = data.len();
    if threads == 1 || n < 8 * 1024 {
        crate::radix::radix_sort(data);
        return;
    }
    let mut scratch: Vec<T> = vec![T::default(); n];
    let passes = par_radix_with_scratch_cfg(cfg, threads, data, &mut scratch);
    if passes % 2 == 1 {
        data.copy_from_slice(&scratch);
    }
}

/// Parallel radix sort with a caller-provided scratch buffer; returns
/// the number of permute passes (odd → result lives in `scratch`).
pub fn par_radix_with_scratch<T: RadixKey>(
    threads: usize,
    data: &mut [T],
    scratch: &mut [T],
) -> usize {
    par_radix_with_scratch_cfg(&SchedCfg::default(), threads, data, scratch)
}

/// [`par_radix_with_scratch`] with an explicit scheduling policy. The
/// input is over-decomposed into [`SchedCfg::over_parts`] chunks (≥
/// `MIN_RADIX_CHUNK` elements each) claimed from the scheduler's
/// queue; the exclusive scan runs over (bucket, chunk) in chunk order,
/// so the permutation — and therefore stability — is identical under
/// every policy and thread count.
pub fn par_radix_with_scratch_cfg<T: RadixKey>(
    cfg: &SchedCfg,
    threads: usize,
    data: &mut [T],
    scratch: &mut [T],
) -> usize {
    assert_eq!(data.len(), scratch.len(), "scratch must match input length");
    let n = data.len();
    if n <= 1 {
        return 0;
    }
    let digits = T::KEY_BYTES;
    let nchunks = cfg.over_parts(threads, n.div_ceil(MIN_RADIX_CHUNK));
    let chunks = split_evenly(n, nchunks);

    // Global histograms for every digit in one parallel pass
    // (per-chunk local tables, reduced afterwards).
    let mut local_hists: Vec<Vec<HistCount>>;
    {
        let mut slots: Vec<Vec<HistCount>> =
            (0..nchunks).map(|_| vec![0; BUCKETS * digits]).collect();
        let parts: Vec<(std::ops::Range<usize>, &mut Vec<HistCount>)> =
            chunks.iter().cloned().zip(slots.iter_mut()).collect();
        let data_ref: &[T] = data;
        par_parts_stats(threads, parts, |_, (range, hist)| {
            count_digits(&data_ref[range], digits, hist);
        });
        local_hists = slots;
    }
    let mut global = vec![0u64; BUCKETS * digits];
    for h in &local_hists {
        for (g, &c) in global.iter_mut().zip(h.iter()) {
            *g += c;
        }
    }

    let mut passes = 0usize;
    let mut src_is_data = true;
    for d in 0..digits {
        let g = &global[d * BUCKETS..(d + 1) * BUCKETS];
        if g.iter().any(|&c| c as usize == n) {
            continue; // constant digit, skip the permute
        }
        // Exclusive scan over (bucket, chunk): chunk c's block for
        // bucket b starts at Σ_{b'<b} total[b'] + Σ_{c'<c} hist[c'][b].
        let mut bucket_starts = [0usize; BUCKETS];
        let mut sum = 0usize;
        for (b, s) in bucket_starts.iter_mut().enumerate() {
            *s = sum;
            sum += g[b] as usize;
        }
        let mut chunk_offsets: Vec<[usize; BUCKETS]> = vec![[0usize; BUCKETS]; nchunks];
        for b in 0..BUCKETS {
            let mut off = bucket_starts[b];
            for (c, co) in chunk_offsets.iter_mut().enumerate() {
                co[b] = off;
                off += local_hists[c][d * BUCKETS + b] as usize;
            }
        }

        let (src, dst): (&[T], &mut [T]) = if src_is_data {
            (&*data, &mut *scratch)
        } else {
            (&*scratch, &mut *data)
        };
        let target = ScatterTarget(dst.as_mut_ptr());
        let parts: Vec<(std::ops::Range<usize>, [usize; BUCKETS])> =
            chunks.iter().cloned().zip(chunk_offsets).collect();
        let target_ref = &target;
        par_parts_stats(threads, parts, move |_, (range, mut offsets)| {
            for &x in &src[range] {
                let byte = ((x.radix_key() >> (8 * d)) & 0xFF) as usize;
                // SAFETY: `offsets[byte]` walks this chunk's private
                // block for `byte` (exclusive scan above): no two
                // chunks ever produce the same index, every index is
                // in-bounds (Σ blocks = n), and the scoped-thread join
                // sequences all writes before the next pass reads.
                unsafe {
                    *target_ref.0.add(offsets[byte]) = x;
                }
                offsets[byte] += 1;
            }
        });

        // Histograms stay valid across passes: counting-sort permutes,
        // never changes the multiset, but per-chunk *contents* change —
        // recompute local histograms for the remaining digits.
        if d + 1 < digits {
            let next_src: &[T] = if src_is_data { &*scratch } else { &*data };
            let mut slots: Vec<Vec<HistCount>> =
                (0..nchunks).map(|_| vec![0; BUCKETS * digits]).collect();
            let parts: Vec<(std::ops::Range<usize>, &mut Vec<HistCount>)> =
                chunks.iter().cloned().zip(slots.iter_mut()).collect();
            par_parts_stats(threads, parts, |_, (range, hist)| {
                count_digits(&next_src[range], digits, hist);
            });
            local_hists = slots;
        }

        src_is_data = !src_is_data;
        passes += 1;
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::radix_sort;
    use crate::verify::{fingerprint, is_sorted};

    fn lcg(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x
            })
            .collect()
    }

    #[test]
    fn matches_sequential_radix_u64() {
        for n in [0usize, 1, 100, 8 * 1024, 50_000] {
            let base = lcg(3, n);
            let mut a = base.clone();
            let mut b = base;
            radix_sort(&mut a);
            par_radix_sort(4, &mut b);
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn matches_sequential_radix_f64() {
        let base: Vec<f64> = lcg(7, 60_000)
            .into_iter()
            .map(|b| f64::from_bits(b & !(0x7FF << 52)) - 0.5)
            .collect();
        let mut a = base.clone();
        let mut b = base;
        radix_sort(&mut a);
        par_radix_sort(3, &mut b);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn preserves_multiset() {
        let v0 = lcg(11, 40_000);
        let fp = fingerprint(&v0);
        let mut v = v0;
        par_radix_sort(5, &mut v);
        assert!(is_sorted(&v));
        assert_eq!(fingerprint(&v), fp);
    }

    #[test]
    fn handles_signed_and_small_ranges() {
        let mut v: Vec<i64> = lcg(13, 30_000).into_iter().map(|x| x as i64).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        par_radix_sort(4, &mut v);
        assert_eq!(v, expect);
        // Low-entropy: only 1 active digit → 1 permute pass.
        let mut v: Vec<u64> = lcg(17, 20_000).into_iter().map(|x| x % 200).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        par_radix_sort(4, &mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn various_thread_counts_agree() {
        let base = lcg(19, 30_000);
        let mut expect = base.clone();
        radix_sort(&mut expect);
        for threads in [2usize, 3, 7, 16] {
            let mut v = base.clone();
            par_radix_sort(threads, &mut v);
            assert_eq!(v, expect, "threads={threads}");
        }
    }

    #[test]
    fn cfg_policies_agree() {
        let base = lcg(29, 40_000);
        let mut expect = base.clone();
        radix_sort(&mut expect);
        for cfg in [1, 0, 8].map(|chunks_per_thread| SchedCfg { chunks_per_thread }) {
            for threads in [2usize, 8, 16] {
                let mut v = base.clone();
                par_radix_sort_cfg(&cfg, threads, &mut v);
                assert_eq!(v, expect, "cfg={cfg:?} threads={threads}");
            }
        }
    }

    #[test]
    fn histogram_counts_cannot_wrap_at_paper_scale() {
        // Mock a chunk that has already counted u32::MAX elements whose
        // low digit is 0x00 (paper scale: n = 4.9e9 > 2³²) without
        // allocating them: seed the histogram, then run the real
        // counting kernel over 10 more such elements.
        let digits = <u64 as RadixKey>::KEY_BYTES;
        let mut hist: Vec<HistCount> = vec![0; BUCKETS * digits];
        hist[0] = u32::MAX as HistCount; // digit 0, bucket 0x00
        count_digits(&[0u64; 10], digits, &mut hist);
        assert_eq!(
            hist[0],
            u32::MAX as u64 + 10,
            "a u32 histogram wraps to 9 here and merges garbage silently"
        );
        // The wrap a u32 histogram would have produced is observable:
        assert_ne!(hist[0] as u32 as u64, hist[0]);
    }

    #[test]
    fn scratch_parity_reported() {
        let mut v = lcg(23, 20_000);
        let mut scratch = vec![0u64; v.len()];
        let passes = par_radix_with_scratch(4, &mut v, &mut scratch);
        let out: &[u64] = if passes % 2 == 1 { &scratch } else { &v };
        assert!(is_sorted(out));
    }

    #[test]
    #[should_panic(expected = "scratch must match")]
    fn scratch_mismatch_panics() {
        let mut v = vec![1u64, 2];
        let mut s = vec![0u64; 3];
        par_radix_with_scratch(2, &mut v, &mut s);
    }
}
