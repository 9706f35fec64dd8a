//! K-way merging: loser-tree sequential merge and a co-rank-partitioned
//! parallel multiway merge.
//!
//! This is the stand-in for the GNU parallel mode's `multiway_merge`,
//! which the paper uses for the final merge of all sorted batches
//! (§III-A: "O(n·log n_b) work ... multiway merge is more cache-efficient
//! than pairwise merging"). The sequential kernel is a classic loser
//! tree: each output element costs ⌈log₂ k⌉ comparisons but only one
//! read and one write of memory — the cache-efficiency the paper relies
//! on. The parallel version cuts the output into `p` ranges and finds
//! each list's split by *multisequence selection*: a per-list binary
//! search on the global stable rank.
//!
//! Stability: ties are resolved by list index (earlier list first),
//! matching a left-to-right stable merge of the batch array.

use crate::keys::SortOrd;
use crate::par::{self, par_parts_stats, split_evenly, split_ranges_mut, SchedCfg, SchedStats};

/// How far ahead of each list cursor [`LoserTree::pop`] prefetches.
/// Eight elements is roughly a cache line of `u64` keys — far enough to
/// cover the ⌈log₂ k⌉ replay comparisons before the line is needed,
/// close enough that the line is still resident when the cursor reaches
/// it.
const PREFETCH_DIST: usize = 8;

/// Hint the CPU to pull `slice[idx]`'s cache line toward L1. Out-of-range
/// indices are ignored; on non-x86 targets this is a no-op. Purely a
/// performance hint — never reads the data, so it cannot change results.
#[inline(always)]
fn prefetch_read<T>(slice: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < slice.len() {
        // SAFETY: idx is in bounds, and _mm_prefetch only hints the
        // memory subsystem; it performs no load observable by the
        // program.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(slice.as_ptr().add(idx) as *const i8, _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, idx);
    }
}

/// Loser tree over `k` sorted input cursors.
struct LoserTree<'a, T: SortOrd> {
    lists: &'a [&'a [T]],
    /// Current position in each list.
    pos: Vec<usize>,
    /// Padded player count (power of two ≥ lists.len(), ≥ 2).
    k: usize,
    /// `tree[1..k]`: loser player index at each internal node;
    /// `tree\[0\]`: the overall winner.
    tree: Vec<usize>,
}

impl<'a, T: SortOrd> LoserTree<'a, T> {
    fn new(lists: &'a [&'a [T]]) -> Self {
        let k = lists.len().next_power_of_two().max(2);
        let mut lt = LoserTree {
            lists,
            pos: vec![0; lists.len()],
            k,
            tree: vec![usize::MAX; k],
        };
        lt.build();
        lt
    }

    /// Head element of player `p`, `None` when exhausted or virtual.
    #[inline]
    fn head(&self, p: usize) -> Option<&T> {
        self.lists.get(p).and_then(|l| l.get(self.pos[p]))
    }

    /// Does player `a` beat player `b`? Exhausted players always lose;
    /// ties go to the lower index (stability).
    #[inline]
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.head(a), self.head(b)) {
            (Some(x), Some(y)) => match x.total_order(y) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// Initial tournament: play all matches bottom-up.
    fn build(&mut self) {
        // winners[i] for internal node i; leaves are players.
        let mut winners = vec![usize::MAX; 2 * self.k];
        for (i, w) in winners.iter_mut().enumerate().skip(self.k) {
            *w = i - self.k; // leaf: player index (may be virtual)
        }
        for i in (1..self.k).rev() {
            let (a, b) = (winners[2 * i], winners[2 * i + 1]);
            if self.beats(a, b) {
                winners[i] = a;
                self.tree[i] = b;
            } else {
                winners[i] = b;
                self.tree[i] = a;
            }
        }
        self.tree[0] = winners[1];
    }

    /// Pop the smallest head; returns its player index, or `None` when
    /// all lists are exhausted. Advances the winning cursor and replays
    /// its path to the root.
    fn pop(&mut self) -> Option<usize> {
        let w = self.tree[0];
        self.head(w)?;
        self.pos[w] += 1;
        // The winner's list is the only one whose cursor moved; hint its
        // upcoming line into cache while the replay comparisons run.
        prefetch_read(self.lists[w], self.pos[w] + PREFETCH_DIST);
        // Replay from the winner's leaf up.
        let mut cur = w;
        let mut node = (self.k + w) / 2;
        while node >= 1 {
            let other = self.tree[node];
            if self.beats(other, cur) {
                self.tree[node] = cur;
                cur = other;
            }
            node /= 2;
        }
        self.tree[0] = cur;
        Some(w)
    }
}

/// Merge `k` sorted lists into `out` sequentially with a loser tree.
///
/// # Panics
///
/// Panics if `out.len()` differs from the total input length.
pub fn multiway_merge_into<T: SortOrd>(lists: &[&[T]], out: &mut [T]) {
    let total: usize = lists.iter().map(|l| l.len()).sum();
    assert_eq!(out.len(), total, "output must hold all inputs");
    match lists.len() {
        0 => return,
        1 => {
            out.copy_from_slice(lists[0]);
            return;
        }
        2 => {
            crate::merge::merge_into(lists[0], lists[1], out);
            return;
        }
        _ => {}
    }
    let mut lt = LoserTree::new(lists);
    for slot in out.iter_mut() {
        let w = lt.pop().expect("tree exhausted early");
        *slot = lists[w][lt.pos[w] - 1];
    }
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
/// ~(Σₜ log₂ lenₜ)² comparisons. The merge itself costs `total·log₂ k`.
/// At high fan-in (many short lists) unbounded over-decomposition would
/// spend more time cutting than merging, so parts are capped at
/// `merge_cost / 2·cut_cost`, and never more than one part per four
/// output elements.
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
/// returns per-worker stats for observability.
///
/// Skew-aware partitioning: output ranges are cut at the *actual*
/// co-rank boundaries from [`multiway_cuts`], then each part drops the
/// sublists its range does not touch before merging. Under pathological
/// list lengths (one list 10⁴× longer than the rest) most parts see a
/// fan-in of 1 or 2, dispatching to a straight copy or a pairwise merge
/// instead of paying ⌈log₂ k⌉ loser-tree comparisons per element
/// against exhausted lists. Dropping empty sublists preserves stability
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
    let threads = threads.min(total / par::MIN_PART);
    if threads <= 1 || lists.len() <= 1 {
        multiway_merge_into(lists, out);
        return SchedStats::default();
    }
    let k = lists.len();
    let max_parts = selection_part_cap(total, k, lists.iter().map(|l| l.len()));
    let nparts = cfg.over_parts(threads, max_parts);
    let out_ranges = split_evenly(total, nparts);
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
        // Fan-in reduction: keep only the sublists this output range
        // actually draws from (order preserved → stability preserved).
        let subs: Vec<&[T]> = lists
            .iter()
            .enumerate()
            .map(|(t, l)| &l[boundaries[p][t]..boundaries[p + 1][t]])
            .filter(|s| !s.is_empty())
            .collect();
        multiway_merge_into(&subs, chunk);
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
        let mut expect = Fingerprint {
            sum: 0,
            xor: 0,
            sq: 0,
            count: 0,
        };
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
        let mut fp = Fingerprint {
            sum: 0,
            xor: 0,
            sq: 0,
            count: 0,
        };
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
