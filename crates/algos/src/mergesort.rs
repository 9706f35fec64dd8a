//! Parallel multiway mergesort — the GNU parallel mode sort stand-in.
//!
//! The reference CPU implementation the paper benchmarks (Figure 4) is
//! libstdc++'s parallel mode sort \[19\]\[20\]: split the input into `p`
//! runs, sort each run independently, then multiway-merge the runs.
//! This module reproduces that exact structure on top of
//! [`mod@crate::introsort`] and [`crate::multiway`]; at `p = 1` it *is*
//! introsort, matching the paper's observation that `std::sort` and the
//! 1-thread parallel sort perform identically.

use crate::introsort::introsort;
use crate::keys::SortOrd;
use crate::multiway::par_multiway_merge_into;
use crate::par::{par_chunks_mut, split_evenly};

/// Sort `data` with `threads` workers using parallel multiway mergesort.
///
/// Allocates one scratch buffer of `data.len()` (the algorithm is
/// out-of-place internally, like its GNU counterpart), plus the merge's
/// own scratch of at most [`crate::multiway::MERGE_SCRATCH_ELEMS`].
pub fn par_mergesort<T: SortOrd + Default>(threads: usize, data: &mut [T]) {
    let threads = threads.max(1);
    let n = data.len();
    if threads == 1 || n < 2 * threads {
        introsort(data);
        return;
    }

    // Phase 1: sort `threads` contiguous runs in parallel.
    par_chunks_mut(threads, threads, data, |_, run| introsort(run));

    // Phase 2: multiway-merge the runs into scratch, then move back.
    let ranges = split_evenly(n, threads);
    let runs: Vec<&[T]> = ranges.iter().map(|r| &data[r.clone()]).collect();
    let mut scratch: Vec<T> = vec![T::default(); n];
    par_multiway_merge_into(threads, &runs, &mut scratch);
    data.copy_from_slice(&scratch);
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
    fn matches_introsort_for_all_thread_counts() {
        let base = lcg(17, 10_000);
        let mut expect = base.clone();
        introsort(&mut expect);
        for threads in [1usize, 2, 3, 4, 7, 16] {
            let mut v = base.clone();
            par_mergesort(threads, &mut v);
            assert_eq!(
                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn preserves_multiset() {
        let v0 = lcg(99, 4321);
        let fp = fingerprint(&v0);
        let mut v = v0;
        par_mergesort(4, &mut v);
        assert!(is_sorted(&v));
        assert_eq!(fingerprint(&v), fp);
    }

    #[test]
    fn tiny_inputs_fall_back() {
        for n in 0..8 {
            let mut v = lcg(n as u64 + 1, n);
            par_mergesort(8, &mut v);
            assert!(is_sorted(&v));
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn sorted_and_reverse_inputs() {
        let mut v: Vec<f64> = (0..5000).map(|i| i as f64).collect();
        par_mergesort(4, &mut v);
        assert!(is_sorted(&v));
        let mut v: Vec<f64> = (0..5000).rev().map(|i| i as f64).collect();
        par_mergesort(4, &mut v);
        assert!(is_sorted(&v));
    }

    #[test]
    fn integers_too() {
        let mut v: Vec<i64> = (0..9999).map(|i| (i * 7919) % 1000).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        par_mergesort(3, &mut v);
        assert_eq!(v, expect);
    }
}
