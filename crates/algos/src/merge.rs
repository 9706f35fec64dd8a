//! Two-way merging: sequential merge and the *merge path* parallel merge.
//!
//! PIPEMERGE (paper §III-D3) merges pairs of sorted batches on the CPU
//! while the GPU is still sorting; Figure 6 measures the scalability of
//! exactly this parallel pairwise merge (8.14× on 16 cores). The
//! parallel algorithm here is Merge Path (Green, Odeh & Birk \[18\]): the
//! output is cut into `p` equal ranges, each range's input split point
//! (*co-rank*) is found by binary search along the merge-path diagonal,
//! and the `p` sub-merges proceed independently.
//!
//! All merges are **stable**: on ties the element from `a` precedes the
//! element from `b`.

use crate::keys::SortOrd;
use crate::par::{self, par_parts_stats, split_evenly, split_ranges_mut, SchedCfg, SchedStats};

/// Independent merge chains [`merge_into`] advances in one loop. On
/// one worker, from 16 Ki keys per side up, one chain reads 4.1–4.5 ns
/// per element, two 2.4–2.7, four 1.4–1.8 and eight 1.6–2.5 (eight
/// lose on tie-heavy keys) (DESIGN.md § 21, "Merge chains").
pub const MERGE_CHAINS: usize = 4;

/// The shortest output [`merge_into`] cuts into [`MERGE_CHAINS`]
/// chains; a shorter one runs as one chain. Four chains tie or lose to
/// one at 64 elements, where the co-rank searches and the chains'
/// remainders cost what the overlap saves, and win at 128.
pub const CHAIN_MIN_LEN: usize = 128;

/// Sequentially merge sorted `a` and `b` into `out`.
///
/// When all of `a` sorts before-or-equal all of `b` — disjoint ranges,
/// or both inside one run of equal keys — the stable merge is `a` then
/// `b`: one comparison and two copies.
///
/// Otherwise the output is cut at `c·n/4` for c = 1, 2, 3 by
/// [`co_rank`], which sends ties to `a`, so the four blocks are four
/// independent stable merges whose concatenation is the whole merge
/// (the merge-path theorem). One branchless loop advances all four
/// chains a step at a time: each step loads both heads of a chain,
/// compares them and selects the output via [`SortOrd::select`] (an
/// integer-domain conditional move), and the comparison result moves
/// the chain's cursors as index arithmetic. One chain waits on its own
/// loads every step; four give the core four dependency chains to
/// overlap, and random key interleavings still cost no branch
/// mispredictions. Once a chain empties either side, each chain's
/// remainder is finished as one chain: the same branchless step until
/// a side is empty, then a straight `copy_from_slice`. Outputs shorter
/// than [`CHAIN_MIN_LEN`] run as one chain from the start. The
/// selection predicate is exactly [`merge_into_reference`]'s, so
/// output is bit-identical.
///
/// # Panics
///
/// Panics if `out.len() != a.len() + b.len()`.
pub fn merge_into<T: SortOrd>(a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(out.len(), a.len() + b.len(), "output must hold both inputs");
    if let (Some(last), Some(first)) = (a.last(), b.first()) {
        if last.le(first) {
            let (lo, hi) = out.split_at_mut(a.len());
            lo.copy_from_slice(a);
            hi.copy_from_slice(b);
            return;
        }
    }
    let n = out.len();
    if n < CHAIN_MIN_LEN {
        merge_chain(a, b, out);
        return;
    }
    // Chain c merges a[i[c]..ie[c]] with b[j[c]..je[c]] into
    // out[i[c] + j[c]..ie[c] + je[c]]: a co-rank (i, j) of output
    // position k has i + j = k.
    let mut i = [0; MERGE_CHAINS];
    let mut j = [0; MERGE_CHAINS];
    let mut ie = [a.len(); MERGE_CHAINS];
    let mut je = [b.len(); MERGE_CHAINS];
    for c in 1..MERGE_CHAINS {
        let (ci, cj) = co_rank(c * n / MERGE_CHAINS, a, b);
        // Sorted inputs cut monotonically, so the `max` is a no-op on
        // them; it keeps unsorted ones a permutation, not a panic.
        (i[c], j[c]) = (ci.max(i[c - 1]), cj.max(j[c - 1]));
        (ie[c - 1], je[c - 1]) = (i[c], j[c]);
    }
    // The cuts ascend, so every block lies inside its input.
    assert!(i[MERGE_CHAINS - 1] <= a.len() && j[MERGE_CHAINS - 1] <= b.len());
    loop {
        // Every chain has at least `steps` elements left on both sides,
        // so `steps` rounds need no bounds test.
        let steps = (0..MERGE_CHAINS)
            .map(|c| (ie[c] - i[c]).min(je[c] - j[c]))
            .min()
            .unwrap_or(0);
        if steps == 0 {
            break;
        }
        for _ in 0..steps {
            for c in 0..MERGE_CHAINS {
                // SAFETY: each round advances one of `i[c]`, `j[c]` by
                // one, and before round r of `steps` both had at least
                // `steps - r ≥ 1` elements left, so `i[c] < ie[c] ≤
                // a.len()` and `j[c] < je[c] ≤ b.len()` (the cuts ascend
                // to the asserted last one), and the output position
                // `i[c] + j[c] < a.len() + b.len() == out.len()`.
                unsafe {
                    let x = *a.get_unchecked(i[c]);
                    let y = *b.get_unchecked(j[c]);
                    let take_a = x.le(&y);
                    *out.get_unchecked_mut(i[c] + j[c]) = T::select(take_a, x, y);
                    i[c] += take_a as usize;
                    j[c] += 1 - take_a as usize;
                }
            }
        }
    }
    for c in 0..MERGE_CHAINS {
        merge_chain(
            &a[i[c]..ie[c]],
            &b[j[c]..je[c]],
            &mut out[i[c] + j[c]..ie[c] + je[c]],
        );
    }
}

/// One chain: the stable merge of `a` and `b` into `out`, branchless
/// until a side is empty, then a copy of the other side's rest.
#[inline(always)]
fn merge_chain<T: SortOrd>(a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(out.len(), a.len() + b.len(), "output must hold both inputs");
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        // Stable: take from `a` on ties. Reading both heads and
        // selecting arithmetically keeps the loop body branch-free;
        // the comparison becomes a conditional move instead of a
        // mispredicted jump.
        //
        // SAFETY: the loop condition guarantees `i < a.len()` and
        // `j < b.len()`, so the output position `i + j < a.len() +
        // b.len() == out.len()` (asserted above). Unchecked indexing is
        // what lets LLVM keep the body jump-free.
        unsafe {
            let x = *a.get_unchecked(i);
            let y = *b.get_unchecked(j);
            let take_a = x.le(&y);
            *out.get_unchecked_mut(i + j) = T::select(take_a, x, y);
            i += take_a as usize;
            j += 1 - take_a as usize;
        }
    }
    // At most one of these copies is non-empty.
    out[i + j..a.len() + j].copy_from_slice(&a[i..]);
    out[a.len() + j..].copy_from_slice(&b[j..]);
}

/// The pre-optimization sequential merge, kept as the differential
/// oracle for [`merge_into`]: one conditional per output element,
/// obviously stable (ties take from `a`). Tests assert the branchless
/// kernel matches this bit for bit on adversarial inputs.
pub fn merge_into_reference<T: SortOrd>(a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(out.len(), a.len() + b.len(), "output must hold both inputs");
    let mut i = 0;
    let mut j = 0;
    for slot in out.iter_mut() {
        // Stable: take from `a` on ties.
        if i < a.len() && (j >= b.len() || a[i].le(&b[j])) {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// Find the merge-path co-rank for output position `k`: the unique
/// `(i, j)` with `i + j = k` such that the first `k` merged elements are
/// exactly `a[..i]` and `b[..j]` under stable (a-first) merging.
pub fn co_rank<T: SortOrd>(k: usize, a: &[T], b: &[T]) -> (usize, usize) {
    debug_assert!(k <= a.len() + b.len());
    let mut lo = k.saturating_sub(b.len());
    let mut hi = k.min(a.len());
    while lo < hi {
        let m = lo + (hi - lo) / 2;
        // Take a[m] into the prefix iff a[m] <= b[k-m-1] (stability:
        // equal keys prefer `a`).
        if a[m].le(&b[k - m - 1]) {
            lo = m + 1;
        } else {
            hi = m;
        }
    }
    (lo, k - lo)
}

/// Merge sorted `a` and `b` into `out` using `threads` workers
/// (Merge Path partitioning, self-scheduled chunks). Falls back to
/// [`merge_into`] at one worker ([`par::MIN_PART`]).
pub fn par_merge_into<T: SortOrd>(threads: usize, a: &[T], b: &[T], out: &mut [T]) {
    par_merge_into_cfg(&SchedCfg::default(), threads, a, b, out);
}

/// [`par_merge_into`] with an explicit scheduling policy; returns the
/// per-worker stats so callers can surface imbalance as spans.
///
/// The output is over-decomposed into [`SchedCfg::over_parts`] ranges
/// whose input split points are co-ranks along the merge-path diagonal,
/// then the sub-merges are claimed from the scheduler's work queue.
/// Output is identical under every policy and thread count.
pub fn par_merge_into_cfg<T: SortOrd>(
    cfg: &SchedCfg,
    threads: usize,
    a: &[T],
    b: &[T],
    out: &mut [T],
) -> SchedStats {
    assert_eq!(out.len(), a.len() + b.len(), "output must hold both inputs");
    let n = out.len();
    let threads = threads.min(n / par::MIN_PART);
    if threads <= 1 {
        merge_into(a, b, out);
        return SchedStats::default();
    }
    // Over-decompose (each part keeps ≥ ~4 elements).
    let nparts = cfg.over_parts(threads, n / 4);
    let out_ranges = split_evenly(n, nparts);
    // Co-ranks at each output range boundary.
    let mut cuts = Vec::with_capacity(nparts + 1);
    cuts.push((0usize, 0usize));
    for r in &out_ranges[..nparts - 1] {
        cuts.push(co_rank(r.end, a, b));
    }
    cuts.push((a.len(), b.len()));

    let out_chunks = split_ranges_mut(out, &out_ranges);
    let parts: Vec<(usize, &mut [T])> = out_chunks.into_iter().enumerate().collect();
    par_parts_stats(threads, parts, |_, (p, chunk)| {
        let (ai0, bi0) = cuts[p];
        let (ai1, bi1) = cuts[p + 1];
        merge_into(&a[ai0..ai1], &b[bi0..bi1], chunk);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{combine, fingerprint, is_sorted};

    fn lcg_sorted(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        let mut v: Vec<u64> = (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x
            })
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn merge_basic() {
        let a = [1u64, 3, 5];
        let b = [2u64, 4, 6];
        let mut out = [0u64; 6];
        merge_into(&a, &b, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn merge_empty_sides() {
        let a = [1u64, 2];
        let mut out = [0u64; 2];
        merge_into(&a, &[], &mut out);
        assert_eq!(out, [1, 2]);
        merge_into(&[], &a, &mut out);
        assert_eq!(out, [1, 2]);
        let mut empty: [u64; 0] = [];
        merge_into(&[], &[], &mut empty);
    }

    #[test]
    fn ordered_halves_copy_bit_identically() {
        // The `a.last() ≤ b.first()` guard: ordered, reversed, equal-run,
        // touching and one-empty inputs all match the reference bit for bit.
        let cases: [(Vec<f64>, Vec<f64>); 6] = [
            (vec![-1.0, 0.0, 1.0], vec![1.0, 2.0, f64::NAN]),
            (vec![2.0, 3.0], vec![f64::NEG_INFINITY, -0.0]),
            (vec![-0.0; 5], vec![-0.0; 3]),
            (vec![-0.0, -0.0], vec![0.0, 0.0]),
            (vec![], vec![1.5, 2.5]),
            (vec![1.5, 2.5], vec![]),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (a, b) in &cases {
            let mut want = vec![7.0; a.len() + b.len()];
            merge_into_reference(a, b, &mut want);
            let mut got = vec![7.0; want.len()];
            merge_into(a, b, &mut got);
            assert_eq!(bits(&got), bits(&want), "a={a:?} b={b:?}");
        }
        // All keys equal: every payload of `a` precedes every one of `b`.
        use crate::keys::KeyValue;
        let kv = |value| KeyValue { key: 1.0, value };
        let a: Vec<KeyValue> = (0..40).map(kv).collect();
        let b: Vec<KeyValue> = (40..70).map(kv).collect();
        let mut out = vec![kv(u64::MAX); 70];
        merge_into(&a, &b, &mut out);
        assert!(out.iter().map(|r| r.value).eq(0..70));
    }

    #[test]
    #[should_panic(expected = "output must hold")]
    fn merge_size_mismatch_panics() {
        let mut out = [0u64; 3];
        merge_into(&[1u64], &[2u64], &mut out);
    }

    #[test]
    fn co_rank_boundaries() {
        let a = [10u64, 20, 30];
        let b = [15u64, 25];
        assert_eq!(co_rank(0, &a, &b), (0, 0));
        assert_eq!(co_rank(5, &a, &b), (3, 2));
        // First 2 of merge are 10,15 → i=1, j=1.
        assert_eq!(co_rank(2, &a, &b), (1, 1));
        // First 3 are 10,15,20 → i=2, j=1.
        assert_eq!(co_rank(3, &a, &b), (2, 1));
    }

    #[test]
    fn co_rank_with_ties_prefers_a() {
        let a = [5u64, 5];
        let b = [5u64, 5];
        // Stable merge = a[0], a[1], b[0], b[1].
        assert_eq!(co_rank(1, &a, &b), (1, 0));
        assert_eq!(co_rank(2, &a, &b), (2, 0));
        assert_eq!(co_rank(3, &a, &b), (2, 1));
    }

    #[test]
    fn co_rank_disjoint_ranges() {
        let a = [1u64, 2, 3];
        let b = [10u64, 11];
        assert_eq!(co_rank(3, &a, &b), (3, 0));
        assert_eq!(co_rank(4, &a, &b), (3, 1));
        let (i, j) = co_rank(2, &b, &a); // b first: prefix 1,2 all from `a` arg
        assert_eq!((i, j), (0, 2));
    }

    #[test]
    fn par_merge_matches_sequential() {
        for (na, nb) in [(1000, 1000), (37, 9123), (0, 100), (100, 0), (1, 1)] {
            let a = lcg_sorted(1, na);
            let b = lcg_sorted(2, nb);
            let mut seq = vec![0u64; na + nb];
            merge_into(&a, &b, &mut seq);
            for threads in [1, 2, 3, 8] {
                let mut par = vec![0u64; na + nb];
                par_merge_into(threads, &a, &b, &mut par);
                assert_eq!(par, seq, "threads={threads} na={na} nb={nb}");
            }
        }
    }

    #[test]
    fn par_merge_cfg_policies_agree() {
        // Length-skewed inputs: every partition granularity and every
        // thread count must produce the sequential merge bit for bit.
        // 50 050 elements is twelve grains, so every width runs parallel.
        let a = lcg_sorted(9, 50_000);
        let b = lcg_sorted(10, 50);
        let mut seq = vec![0u64; a.len() + b.len()];
        merge_into(&a, &b, &mut seq);
        for cfg in [1, 4, 0].map(|chunks_per_thread| SchedCfg { chunks_per_thread }) {
            for threads in [2, 3, 8, 16] {
                let mut out = vec![0u64; seq.len()];
                let stats = par_merge_into_cfg(&cfg, threads, &a, &b, &mut out);
                assert_eq!(out, seq, "cfg={cfg:?} threads={threads}");
                assert!(stats.workers.len() > 1, "cfg={cfg:?} threads={threads}");
                assert_eq!(
                    stats.workers.iter().map(|w| w.parts).sum::<usize>(),
                    stats.parts
                );
            }
        }
    }

    #[test]
    fn par_merge_is_permutation_and_sorted() {
        let a = lcg_sorted(5, 43_210);
        let b = lcg_sorted(6, 12_340);
        let mut out = vec![0u64; a.len() + b.len()];
        par_merge_into(4, &a, &b, &mut out);
        assert!(is_sorted(&out));
        assert_eq!(combine(fingerprint(&a), fingerprint(&b)), fingerprint(&out));
    }

    #[test]
    fn par_merge_heavy_duplicates() {
        let a = vec![7u64; 5_000];
        let mut b = vec![7u64; 3_000];
        b.extend_from_slice(&[8; 2_000]);
        let mut out = vec![0u64; 10_000];
        par_merge_into(4, &a, &b, &mut out);
        assert!(is_sorted(&out));
        assert_eq!(out.iter().filter(|&&x| x == 7).count(), 8_000);
    }

    #[test]
    fn par_merge_floats() {
        let mut a: Vec<f64> = (0..10_000).map(|i| (i as f64) * 0.5 - 100.0).collect();
        let mut b: Vec<f64> = (0..8_000).map(|i| (i as f64) * 0.7 - 50.0).collect();
        a.push(f64::INFINITY);
        b.insert(0, f64::NEG_INFINITY);
        let mut out = vec![0.0f64; a.len() + b.len()];
        par_merge_into(3, &a, &b, &mut out);
        assert!(is_sorted(&out));
    }
}
