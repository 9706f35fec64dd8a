//! Parallel radix sort — the device-sort stand-in of the functional
//! engine (Thrust's out-of-place radix sort of one `b_s` batch, §III-B).
//!
//! Sort `t` contiguous slices with the sequential LSD kernel
//! ([`crate::radix`]), one worker each, then merge them with a
//! ⌈log₂ t⌉-level pairwise tree of merge-path merges ([`crate::merge`]),
//! ping-ponging between the batch and one scratch buffer. Each worker's
//! scatter passes stay inside its own slice; memory is crossed by the
//! whole machine only in the merge levels. The slices are equal-sized
//! whatever the keys are, so the work is balanced on any distribution.
//!
//! Every merge takes the left run first on ties, so the result is the
//! stable LSD permutation of the whole batch — bit-identical to
//! [`crate::radix::radix_sort`] at every thread count, payloads of
//! equal-key records included. DESIGN.md § 21 records the two shapes
//! this one beat (an eight-pass cross-thread count → scan → scatter, and
//! an MSD partition followed by per-bucket LSD).

use crate::keys::{RadixKey, SortOrd};
use crate::mem::huge_vec;
use crate::merge::par_merge_into_cfg;
use crate::par::{par_parts_stats, split_evenly, split_ranges_mut, SchedCfg, MIN_PART};
use crate::radix::{radix_sort, radix_sort_with_scratch, COUNT_ROWS_BYTES, SMALL_COUNT};

/// Sort `data` with the parallel radix sort on `threads` workers.
///
/// A batch is cut into `threads.min(n / MIN_PART)` slices; at one slice
/// (one thread, or under two [`MIN_PART`]s) it is the sequential radix
/// sort. Allocates one scratch buffer of equal length
/// ([`huge_vec`]).
pub fn par_radix_sort<T: RadixKey + SortOrd + Default>(threads: usize, data: &mut [T]) {
    par_radix_sort_cfg(&SchedCfg::default(), threads, data);
}

/// Bytes [`par_radix_sort_cfg`] holds over `n` keys on `threads`
/// workers besides its scratch: one [`COUNT_ROWS_BYTES`] per slice,
/// none below [`SMALL_COUNT`].
pub fn count_rows_bytes(threads: usize, n: usize) -> usize {
    if n < SMALL_COUNT {
        return 0;
    }
    threads.min(n / MIN_PART).max(1) * COUNT_ROWS_BYTES
}

/// [`par_radix_sort`] with an explicit scheduling policy (the merge
/// levels over-decompose by it; the output is identical under all).
pub fn par_radix_sort_cfg<T: RadixKey + SortOrd + Default>(
    cfg: &SchedCfg,
    threads: usize,
    data: &mut [T],
) {
    let n = data.len();
    let slices = threads.min(n / MIN_PART);
    if slices <= 1 {
        radix_sort(data);
        return;
    }
    let mut runs = split_evenly(n, slices);
    let mut scratch: Vec<T> = huge_vec(n, T::default());

    // Each tree level flips sides and the last must land in `data`, so
    // the sorted slices start in `scratch` iff the level count is odd.
    let levels = runs.len().next_power_of_two().trailing_zeros();
    let mut in_data = levels & 1 == 0;
    let halves: Vec<(&mut [T], &mut [T])> = split_ranges_mut(data, &runs)
        .into_iter()
        .zip(split_ranges_mut(&mut scratch, &runs))
        .collect();
    par_parts_stats(threads, halves, |_, (d, s)| {
        // An odd pass count leaves the sorted slice in its scratch half.
        let in_scratch = radix_sort_with_scratch(d, s) % 2 == 1;
        match (in_scratch, in_data) {
            (true, true) => d.copy_from_slice(s),
            (false, false) => s.copy_from_slice(d),
            _ => {}
        }
    });

    while runs.len() > 1 {
        let (src, dst): (&[T], &mut [T]) = if in_data {
            (&*data, &mut scratch)
        } else {
            (&scratch, &mut *data)
        };
        runs = runs
            .chunks(2)
            .map(|pair| match pair {
                // Left run first: ties keep their input order.
                [l, r] => {
                    let out = &mut dst[l.start..r.end];
                    par_merge_into_cfg(cfg, threads, &src[l.clone()], &src[r.clone()], out);
                    l.start..r.end
                }
                [l] => {
                    dst[l.clone()].copy_from_slice(&src[l.clone()]);
                    l.clone()
                }
                _ => unreachable!("chunks(2) yields one or two runs"),
            })
            .collect();
        in_data = !in_data;
    }
    debug_assert!(in_data, "the last tree level writes the batch");
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn working_set_is_one_lane_table_per_slice() {
        // 8 digits × 4 lanes × 256 × 8 B.
        assert_eq!(COUNT_ROWS_BYTES, 64 << 10);
        assert_eq!(count_rows_bytes(8, SMALL_COUNT - 1), 0, "rows on the stack");
        assert_eq!(count_rows_bytes(8, SMALL_COUNT), COUNT_ROWS_BYTES);
        assert_eq!(count_rows_bytes(1, 1 << 20), COUNT_ROWS_BYTES);
        assert_eq!(count_rows_bytes(2, 50_000), 2 * COUNT_ROWS_BYTES);
        assert_eq!(count_rows_bytes(64, 3 * MIN_PART), 3 * COUNT_ROWS_BYTES);
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
        for cfg in [1, 4, 0].map(|chunks_per_thread| SchedCfg { chunks_per_thread }) {
            for threads in [2usize, 8, 16] {
                let mut v = base.clone();
                par_radix_sort_cfg(&cfg, threads, &mut v);
                assert_eq!(v, expect, "cfg={cfg:?} threads={threads}");
            }
        }
    }
}
