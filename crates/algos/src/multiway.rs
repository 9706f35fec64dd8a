//! K-way merging: co-rank parts, each merged by a tree of two-way merges.
//!
//! This is the stand-in for the GNU parallel mode's `multiway_merge`,
//! which the paper uses for the final merge of all sorted batches
//! (§III-A: "O(n·log n_b) work ... multiway merge is more cache-efficient
//! than pairwise merging"). The shape is Casanova et al.'s
//! partition-then-merge-blocks: the output is cut into parts by
//! *multisequence selection* (a per-list binary search on the global
//! stable rank), and each part is merged by a tree of branchless
//! [`merge_into`]s that ping-pongs between the part's output and one
//! part-sized scratch. At width `w` a part holds at most
//! [`MERGE_SCRATCH_ELEMS`]` / w` elements, so every pass of the tree
//! runs over a few MiB. A loser tree (the GNU kernel) writes each
//! element once but pays ⌈log₂ k⌉ unpredictable branches for it, and
//! loses at every fan-in the engine runs (DESIGN.md § 21).
//!
//! Stability: ties are resolved by list index (earlier list first),
//! matching a left-to-right stable merge of the batch array.

use std::sync::{Mutex, PoisonError};

use crate::keys::SortOrd;
use crate::merge::merge_into;
use crate::par::{self, par_parts_stats, split_evenly, split_ranges_mut, SchedCfg, SchedStats};

/// The most merge scratch one multiway merge holds, in elements, at any
/// width: 512 Ki, 4 MiB of `f64`. At width `w` no part is longer than
/// `MERGE_SCRATCH_ELEMS / w`, and at most `w` part-sized buffers exist.
pub const MERGE_SCRATCH_ELEMS: usize = 512 * 1024;

/// Merge two or more sorted `lists`, together as long as `dst`, into
/// `dst` by a tree of stable two-way merges; `tmp` is scratch of the
/// same length. Each half of the lists is merged into `tmp` (using
/// `dst` as its own scratch), then the halves into `dst`, the left one
/// first on ties, so ties keep list-index order. A one-list half is
/// read in place.
fn tree_into<T: SortOrd>(lists: &[&[T]], dst: &mut [T], tmp: &mut [T]) {
    if let [a, b] = lists {
        merge_into(a, b, dst);
        return;
    }
    let (left, right) = lists.split_at(lists.len() / 2);
    let split = left.iter().map(|l| l.len()).sum();
    let (tmp_l, tmp_r) = tmp.split_at_mut(split);
    let (dst_l, dst_r) = dst.split_at_mut(split);
    let a: &[T] = match left {
        [one] => one,
        _ => {
            tree_into(left, tmp_l, dst_l);
            tmp_l
        }
    };
    let b: &[T] = match right {
        [one] => one,
        _ => {
            tree_into(right, tmp_r, dst_r);
            tmp_r
        }
    };
    merge_into(a, b, dst);
}

/// Merge one part's sublists into `out`, skipping the empty ones: a
/// copy at fan-in 1, one [`merge_into`] at 2, and at 3 or more a
/// [`tree_into`] whose scratch comes from `spare` — or is allocated at
/// `longest`, the longest part's length — and goes back there after.
fn merge_part<T: SortOrd>(
    lists: &[&[T]],
    out: &mut [T],
    spare: &Mutex<Vec<Vec<T>>>,
    longest: usize,
) {
    let lists: Vec<&[T]> = lists.iter().copied().filter(|l| !l.is_empty()).collect();
    match lists[..] {
        [] => {}
        [a] => out.copy_from_slice(a),
        [a, b] => merge_into(a, b, out),
        _ => {
            // A poisoned list holds whole buffers: a part that panicked
            // never returned its own.
            let spare = || spare.lock().unwrap_or_else(PoisonError::into_inner);
            let reused = spare().pop();
            let mut tmp = reused.unwrap_or_else(|| vec![lists[0][0]; longest]);
            tree_into(&lists, out, &mut tmp[..out.len()]);
            spare().push(tmp);
        }
    }
}

/// Merge `k` sorted lists into `out` on the calling thread: the
/// one-worker case of [`par_multiway_merge_into_cfg`], a single part
/// (no cuts) when the output fits in [`MERGE_SCRATCH_ELEMS`].
///
/// # Panics
///
/// Panics if `out.len()` differs from the total input length.
pub fn multiway_merge_into<T: SortOrd>(lists: &[&[T]], out: &mut [T]) {
    par_multiway_merge_into_cfg(&SchedCfg::default(), 1, lists, out);
}

/// Number of elements of `list` strictly before `v` in the total order.
pub fn lower_bound<T: SortOrd>(list: &[T], v: &T) -> usize {
    let mut lo = 0;
    let mut hi = list.len();
    while lo < hi {
        let m = lo + (hi - lo) / 2;
        if list[m].lt(v) {
            lo = m + 1;
        } else {
            hi = m;
        }
    }
    lo
}

/// Number of elements of `list` before-or-equal `v` in the total order.
pub fn upper_bound<T: SortOrd>(list: &[T], v: &T) -> usize {
    let mut lo = 0;
    let mut hi = list.len();
    while lo < hi {
        let m = lo + (hi - lo) / 2;
        if list[m].le(v) {
            lo = m + 1;
        } else {
            hi = m;
        }
    }
    lo
}

/// Global stable rank of element `(v, t, i)` — the number of elements
/// across all lists that a stable multiway merge emits before list `t`'s
/// element at index `i` (whose value is `v`).
fn global_rank<T: SortOrd>(lists: &[&[T]], v: &T, t: usize, i: usize) -> usize {
    let mut rank = i;
    for (u, l) in lists.iter().enumerate() {
        if u < t {
            rank += upper_bound(l, v);
        } else if u > t {
            rank += lower_bound(l, v);
        }
    }
    rank
}

/// Multisequence selection: per-list cut ranks such that the first `k`
/// elements of the stable multiway merge are exactly
/// `lists[t][..cuts[t]]` for all `t`.
pub fn multiway_cuts<T: SortOrd>(lists: &[&[T]], k: usize) -> Vec<usize> {
    let total: usize = lists.iter().map(|l| l.len()).sum();
    debug_assert!(k <= total);
    let mut cuts = Vec::with_capacity(lists.len());
    for (t, l) in lists.iter().enumerate() {
        // Largest c such that element (l[c-1], t, c-1) has global rank < k.
        let mut lo = 0usize;
        let mut hi = l.len();
        while lo < hi {
            let m = lo + (hi - lo) / 2;
            if global_rank(lists, &l[m], t, m) < k {
                lo = m + 1;
            } else {
                hi = m;
            }
        }
        cuts.push(lo);
    }
    // Release-mode invariant: a mis-partition here would hand workers
    // overlapping or incomplete input ranges and the parallel merge
    // would silently emit garbage — exactly the paper-scale mode
    // `--release` bench runs would never catch with a debug_assert.
    let sum: usize = cuts.iter().sum();
    assert_eq!(
        sum, k,
        "multiway_cuts mis-partition: cut ranks sum to {sum}, expected k = {k} \
         (every input list must be sorted under the same total order)"
    );
    cuts
}

/// Cap on the part count of a partitioned `k`-way merge over `total`
/// elements, so multisequence selection stays a fraction of the merge
/// work.
///
/// Each boundary costs one multisequence selection: for every list a
/// binary search whose probes each rank against all other lists —
/// ~(Σₜ log₂ lenₜ)² comparisons. The merge itself costs `total·log₂ k`
/// (each element passes through at most ⌈log₂ k⌉ two-way merges). At
/// high fan-in (many short lists) unbounded over-decomposition would
/// spend more time cutting than merging, so parts are capped at
/// `merge_cost / 2·cut_cost`, and never more than one part per four
/// output elements. The scratch bound of [`par_multiway_merge_into_cfg`]
/// may ask for more parts than this cap; memory wins.
///
/// The result is always ≥ 1: both clamp bounds saturate at 1, so the
/// cap is safe to evaluate for any `total` (for `total < 4` the old
/// upper bound `total / 4` was 0, below the lower bound of 1 — a
/// guaranteed `clamp` panic, previously shielded only by the caller's
/// small-input early return).
pub fn selection_part_cap(
    total: usize,
    k: usize,
    list_lens: impl IntoIterator<Item = usize>,
) -> usize {
    let log2 = |x: usize| (usize::BITS - x.max(2).leading_zeros()) as usize;
    let log_sum: usize = list_lens.into_iter().map(log2).sum();
    let cut_cost = log_sum * log_sum;
    let merge_cost = total * log2(k);
    (merge_cost / (2 * cut_cost.max(1))).clamp(1, (total / 4).max(1))
}

/// Merge `k` sorted lists into `out` with `threads` workers: the output
/// is cut into near-equal ranges by multisequence selection, and each
/// range is merged independently (self-scheduled, skew-aware).
pub fn par_multiway_merge_into<T: SortOrd>(threads: usize, lists: &[&[T]], out: &mut [T]) {
    par_multiway_merge_into_cfg(&SchedCfg::default(), threads, lists, out);
}

/// [`par_multiway_merge_into`] with an explicit scheduling policy;
/// returns per-worker stats for observability (empty when the merge ran
/// as one part).
///
/// Parts: the policy's over-decomposition, capped by
/// [`selection_part_cap`], but at fan-in 3 or more never so few that a
/// part outgrows its worker's share of [`MERGE_SCRATCH_ELEMS`]. Such a
/// part holds one part-sized scratch while its tree runs; the buffers
/// return to a free list in this call, so at most `min(w, parts)` are
/// ever allocated.
///
/// Skew-aware partitioning: output ranges are cut at the *actual*
/// co-rank boundaries from [`multiway_cuts`], then each part drops the
/// sublists its range does not touch before merging. Under pathological
/// list lengths (one list 10⁴× longer than the rest) most parts see a
/// fan-in of 1 or 2, dispatching to a straight copy or one pairwise
/// merge with no scratch. Dropping empty sublists preserves stability
/// because ties resolve by list index and the relative order of the
/// surviving lists is unchanged.
pub fn par_multiway_merge_into_cfg<T: SortOrd>(
    cfg: &SchedCfg,
    threads: usize,
    lists: &[&[T]],
    out: &mut [T],
) -> SchedStats {
    let total: usize = lists.iter().map(|l| l.len()).sum();
    assert_eq!(out.len(), total, "output must hold all inputs");
    let k = lists.len();
    let threads = threads.min(total / par::MIN_PART).max(1);
    let nparts = match k {
        0 | 1 => 1,
        _ => {
            let cap = selection_part_cap(total, k, lists.iter().map(|l| l.len()));
            let parts = cfg.over_parts(threads, cap);
            if k == 2 {
                parts
            } else {
                parts.max(total.div_ceil((MERGE_SCRATCH_ELEMS / threads).max(1)))
            }
        }
    };
    let out_ranges = split_evenly(total, nparts);
    // `split_evenly` puts the longer parts first.
    let longest = out_ranges[0].len();
    let spare = Mutex::new(Vec::new());
    if nparts == 1 {
        merge_part(lists, out, &spare, longest);
        return SchedStats::default();
    }
    let mut boundaries: Vec<Vec<usize>> = vec![Vec::new(); nparts + 1];
    boundaries[0] = vec![0; k];
    boundaries[nparts] = lists.iter().map(|l| l.len()).collect();
    // The interior boundaries are independent read-only selections —
    // compute them through the same scheduling policy as the merge.
    let interior: Vec<(usize, &mut Vec<usize>)> =
        boundaries[1..nparts].iter_mut().enumerate().collect();
    par_parts_stats(threads, interior, |_, (i, slot)| {
        *slot = multiway_cuts(lists, out_ranges[i].end);
    });

    let out_chunks = split_ranges_mut(out, &out_ranges);
    let parts: Vec<(usize, &mut [T])> = out_chunks.into_iter().enumerate().collect();
    par_parts_stats(threads, parts, |_, (p, chunk)| {
        let subs: Vec<&[T]> = lists
            .iter()
            .enumerate()
            .map(|(t, l)| &l[boundaries[p][t]..boundaries[p + 1][t]])
            .collect();
        merge_part(&subs, chunk, &spare, longest);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{fingerprint, is_sorted, Fingerprint};

    fn lcg_sorted(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed.wrapping_mul(2862933555777941757) | 1;
        let mut v: Vec<u64> = (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x % 10_000 // plenty of cross-list duplicates
            })
            .collect();
        v.sort_unstable();
        v
    }

    fn reference_merge(lists: &[&[u64]]) -> Vec<u64> {
        // Repeated stable pairwise folding — independently correct oracle.
        let mut acc: Vec<u64> = Vec::new();
        for l in lists {
            let mut out = vec![0u64; acc.len() + l.len()];
            crate::merge::merge_into(&acc, l, &mut out);
            acc = out;
        }
        acc
    }

    #[test]
    fn part_cap_never_panics_on_tiny_totals() {
        // Regression: with total < 4 the old cap computed
        // `.clamp(1, total / 4)` = `.clamp(1, 0)`, which panics
        // (min > max). The cap must be callable for ANY total — it is
        // only an upper bound, not a promise the caller splits.
        for total in 0..16usize {
            for k in 1..5usize {
                let lens = vec![total / k.max(1); k];
                let cap = selection_part_cap(total, k, lens);
                assert!(cap >= 1, "cap must stay positive (total={total}, k={k})");
                if total >= 4 {
                    assert!(cap <= total / 4, "cap over-splits (total={total}, k={k})");
                }
            }
        }
        // Degenerate fan-in / empty lists are fine too.
        assert_eq!(selection_part_cap(0, 0, []), 1);
        assert_eq!(selection_part_cap(3, 2, [1, 2]), 1);
    }

    #[test]
    fn part_cap_still_limits_selection_cost_at_scale() {
        // The paper-scale sanity the original expression encoded: many
        // long lists admit plenty of parts, a few tiny lists do not.
        let long = selection_part_cap(2_000_000, 8, vec![250_000; 8]);
        assert!(long > 64, "{long}");
        let short = selection_part_cap(1_000, 100, vec![10; 100]);
        assert!(short <= 4, "{short}");
    }

    #[test]
    fn zero_one_two_lists() {
        let mut out: Vec<u64> = vec![];
        multiway_merge_into(&[], &mut out);

        let a = [1u64, 5, 9];
        let mut out = vec![0u64; 3];
        multiway_merge_into(&[&a], &mut out);
        assert_eq!(out, vec![1, 5, 9]);

        let b = [2u64, 3];
        let mut out = vec![0u64; 5];
        multiway_merge_into(&[&a, &b], &mut out);
        assert_eq!(out, vec![1, 2, 3, 5, 9]);
    }

    #[test]
    fn many_lists_match_reference() {
        let lists_owned: Vec<Vec<u64>> = (0..7)
            .map(|i| lcg_sorted(i + 1, 500 + 37 * i as usize))
            .collect();
        let lists: Vec<&[u64]> = lists_owned.iter().map(|v| v.as_slice()).collect();
        let total: usize = lists.iter().map(|l| l.len()).sum();
        let mut out = vec![0u64; total];
        multiway_merge_into(&lists, &mut out);
        assert_eq!(out, reference_merge(&lists));
    }

    #[test]
    fn empty_lists_mixed_in() {
        let a = [1u64, 4];
        let b: [u64; 0] = [];
        let c = [2u64, 3];
        let mut out = vec![0u64; 4];
        multiway_merge_into(&[&a, &b, &c], &mut out);
        assert_eq!(out, vec![1, 2, 3, 4]);
        // Every list empty: no scratch to size, nothing to merge.
        multiway_merge_into(&[&b, &b, &b], &mut []);
    }

    #[test]
    fn non_power_of_two_list_counts() {
        for k in [3usize, 5, 6, 9, 17] {
            let lists_owned: Vec<Vec<u64>> =
                (0..k).map(|i| lcg_sorted(i as u64 + 11, 100)).collect();
            let lists: Vec<&[u64]> = lists_owned.iter().map(|v| v.as_slice()).collect();
            let mut out = vec![0u64; 100 * k];
            multiway_merge_into(&lists, &mut out);
            assert_eq!(out, reference_merge(&lists), "k={k}");
        }
    }

    #[test]
    fn bounds_helpers() {
        let l = [1u64, 3, 3, 3, 7];
        assert_eq!(lower_bound(&l, &3), 1);
        assert_eq!(upper_bound(&l, &3), 4);
        assert_eq!(lower_bound(&l, &0), 0);
        assert_eq!(upper_bound(&l, &9), 5);
    }

    #[test]
    fn cuts_sum_to_k_and_are_consistent() {
        let lists_owned: Vec<Vec<u64>> = (0..4).map(|i| lcg_sorted(i + 3, 250)).collect();
        let lists: Vec<&[u64]> = lists_owned.iter().map(|v| v.as_slice()).collect();
        let merged = reference_merge(&lists);
        for k in [0usize, 1, 17, 500, 999, 1000] {
            let cuts = multiway_cuts(&lists, k);
            assert_eq!(cuts.iter().sum::<usize>(), k);
            // The prefix multiset must equal the merged prefix multiset.
            let mut prefix: Vec<u64> = Vec::new();
            for (t, &c) in cuts.iter().enumerate() {
                prefix.extend_from_slice(&lists[t][..c]);
            }
            prefix.sort_unstable();
            let mut expect = merged[..k].to_vec();
            expect.sort_unstable();
            assert_eq!(prefix, expect, "k={k}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let lists_owned: Vec<Vec<u64>> = (0..6).map(|i| lcg_sorted(i + 21, 7_777)).collect();
        let lists: Vec<&[u64]> = lists_owned.iter().map(|v| v.as_slice()).collect();
        let total: usize = lists.iter().map(|l| l.len()).sum();
        let mut seq = vec![0u64; total];
        multiway_merge_into(&lists, &mut seq);
        for threads in [2, 3, 5, 16] {
            let mut par = vec![0u64; total];
            par_multiway_merge_into(threads, &lists, &mut par);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_preserves_multiset() {
        let lists_owned: Vec<Vec<u64>> = (0..5).map(|i| lcg_sorted(i + 31, 4_000)).collect();
        let lists: Vec<&[u64]> = lists_owned.iter().map(|v| v.as_slice()).collect();
        let mut expect = Fingerprint::EMPTY;
        for l in &lists {
            expect = crate::verify::combine(expect, fingerprint(l));
        }
        let mut out = vec![0u64; 20_000];
        par_multiway_merge_into(4, &lists, &mut out);
        assert!(is_sorted(&out));
        assert_eq!(fingerprint(&out), expect);
    }

    #[test]
    fn merges_floats_with_specials() {
        let a = [f64::NEG_INFINITY, -1.0, 0.5];
        let b = [-0.5f64, 0.5, f64::NAN];
        let c = [0.0f64];
        let mut out = vec![0.0f64; 7];
        multiway_merge_into(&[&a, &b, &c], &mut out);
        assert!(is_sorted(&out));
        assert!(out[6].is_nan());
    }

    #[test]
    fn skewed_list_lengths() {
        let a = lcg_sorted(1, 10_000);
        let b = lcg_sorted(2, 3);
        let c = lcg_sorted(3, 1);
        let lists: Vec<&[u64]> = vec![&a, &b, &c];
        let expect = reference_merge(&lists);
        let mut fp = Fingerprint::EMPTY;
        for l in &lists {
            fp = crate::verify::combine(fp, fingerprint(l));
        }
        for threads in [2, 4, 16] {
            let mut out = vec![0u64; 10_004];
            par_multiway_merge_into(threads, &lists, &mut out);
            assert!(is_sorted(&out), "threads={threads}");
            // A dropped or duplicated element under skew must fail
            // loudly, not just "still sorted".
            assert_eq!(fingerprint(&out), fp, "threads={threads}: multiset changed");
            assert_eq!(out, expect, "threads={threads}: differs from reference");
        }
    }

    #[test]
    fn cfg_policies_agree_under_skew() {
        // One long list plus tiny ones: every partition granularity and
        // every thread count must reproduce the sequential merge. The
        // output is nineteen grains, so every width runs parallel.
        let a = lcg_sorted(41, 80_000);
        let b = lcg_sorted(42, 5);
        let c = lcg_sorted(43, 2);
        let lists: Vec<&[u64]> = vec![&a, &b, &c];
        let mut seq = vec![0u64; 80_007];
        multiway_merge_into(&lists, &mut seq);
        for cfg in [1, 4, 0].map(|chunks_per_thread| SchedCfg { chunks_per_thread }) {
            for threads in [2, 3, 8, 16] {
                let mut out = vec![0u64; seq.len()];
                let stats = par_multiway_merge_into_cfg(&cfg, threads, &lists, &mut out);
                assert_eq!(out, seq, "cfg={cfg:?} threads={threads}");
                assert!(stats.workers.len() > 1, "cfg={cfg:?} threads={threads}");
                assert_eq!(
                    stats.workers.iter().map(|w| w.parts).sum::<usize>(),
                    stats.parts,
                    "cfg={cfg:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiway_cuts mis-partition")]
    fn mis_partition_panics_in_release_builds() {
        // Unsorted input breaks the monotone-rank precondition; before
        // this check was release-mode the cuts [0, 0] (≠ k = 1) sailed
        // through `--release` and the parallel merge emitted garbage.
        let a: &[u64] = &[10, 0]; // deliberately NOT sorted
        let b: &[u64] = &[5];
        let _ = multiway_cuts(&[a, b], 1);
    }
}
