//! Sortedness checks and multiset fingerprints: the check behind every
//! engine result.
//!
//! A correct sort is (a) sorted and (b) a permutation of its input. The
//! dag engine fingerprints its input on entry and, after the last merge,
//! scans its output for order and fingerprints it again; a run is
//! `verified` when the output is sorted and both fingerprints are equal.
//!
//! (a) is checked exactly. (b) would need O(n) extra memory to check
//! exactly, so it is checked by a [`Fingerprint`]: element count plus
//! the wrapping sum, xor and wrapping sum of squares of a 64-bit mix of
//! each radix key. Equal multisets always give equal fingerprints, in
//! any order and under any split ([`combine`]). A lost, duplicated or
//! overwritten key changes the fingerprint unless its mixed values
//! collide in all three 64-bit words. The mix is public and invertible,
//! so this guards against a faulty sort, not an adversary who builds a
//! colliding input. Only keys are fingerprinted: a `KeyValue` payload
//! that moved to another record is not seen.
//!
//! [`par_fingerprint`] and [`par_check_sorted`] run the checks over
//! [`check_parts`] on up to `threads` workers. Their answers equal the
//! sequential calls' bit for bit, and below two [`MIN_PART`] grains or
//! at one thread they run on the calling thread alone. The output check
//! is one pass per part: it compares neighbouring radix keys while it
//! fingerprints them, so the output is read once, not twice.
//!
//! The parts come from halving through [`join`], not from a
//! [`crate::par::par_parts`] queue, so a check allocates nothing but its
//! thread spawns. The queue's per-call vectors are small heap blocks
//! that glibc's per-thread cache keeps out of the free space around
//! them. With them, `sort_dups`' peak RSS rose by about one batch
//! (≈ 8 MiB) in 6 of 10 runs, and not at all with that cache turned off.

use std::ops::Range;

use crate::keys::{RadixKey, SortOrd};
use crate::par::{join, MIN_PART};

/// Is the slice non-decreasing under the crate's total order?
pub fn is_sorted<T: SortOrd>(data: &[T]) -> bool {
    data.windows(2).all(|w| w[0].le(&w[1]))
}

/// Order-independent multiset fingerprint of arbitrary radix-keyable
/// elements. Equal multisets give equal fingerprints; differing
/// multisets collide with negligible probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Wrapping sum of mixed keys.
    pub sum: u64,
    /// Xor of mixed keys.
    pub xor: u64,
    /// Wrapping sum of squared mixed keys (catches xor/sum collisions).
    pub sq: u64,
    /// Element count.
    pub count: u64,
}

impl Fingerprint {
    /// The fingerprint of no elements: the identity of [`combine`].
    pub const EMPTY: Fingerprint = Fingerprint {
        sum: 0,
        xor: 0,
        sq: 0,
        count: 0,
    };

    /// Mix one radix key into the three sums; `count` is the caller's.
    #[inline(always)]
    fn mix_in(&mut self, key: u64) {
        let m = mix(key);
        self.sum = self.sum.wrapping_add(m);
        self.xor ^= m;
        self.sq = self.sq.wrapping_add(m.wrapping_mul(m));
    }
}

/// Strong 64-bit mixer (splitmix64 finalizer).
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The radix key of `x` as the fingerprint loops read it. `black_box`
/// keeps those loops scalar: vectorized, baseline x86-64 has no 64-bit
/// multiply, and SSE2 emulates each of the three per key with `pmuludq`
/// sequences, 2.7 against 2.0 ns per key.
#[inline(always)]
fn scalar_key<T: RadixKey>(x: T) -> u64 {
    std::hint::black_box(x.radix_key())
}

/// Compute the fingerprint of any radix-keyable slice.
pub fn fingerprint<T: RadixKey>(data: &[T]) -> Fingerprint {
    let mut fp = Fingerprint {
        count: data.len() as u64,
        ..Fingerprint::EMPTY
    };
    for &x in data {
        fp.mix_in(scalar_key(x));
    }
    fp
}

/// The output check of one part in one pass: the part's fingerprint, or
/// `None` when `part`, after `prev` (the element before it, if any), is
/// out of order. Radix keys order exactly as [`SortOrd`]
/// does ([`RadixKey`]'s contract), so comparing them is [`is_sorted`].
fn checked_fingerprint<T: RadixKey>(prev: Option<&T>, part: &[T]) -> Option<Fingerprint> {
    let mut fp = Fingerprint {
        count: part.len() as u64,
        ..Fingerprint::EMPTY
    };
    let mut last = prev.or(part.first()).map_or(0, |x| x.radix_key());
    let mut sorted = true;
    for &x in part {
        let key = scalar_key(x);
        sorted &= last <= key;
        last = key;
        fp.mix_in(key);
    }
    sorted.then_some(fp)
}

/// Combine fingerprints of disjoint pieces (multiset union).
pub fn combine(a: Fingerprint, b: Fingerprint) -> Fingerprint {
    Fingerprint {
        sum: a.sum.wrapping_add(b.sum),
        xor: a.xor ^ b.xor,
        sq: a.sq.wrapping_add(b.sq),
        count: a.count + b.count,
    }
}

/// Workers a check over `len` elements runs on at `threads`: at most one
/// per [`MIN_PART`] grain, as every kernel.
fn check_width(threads: usize, len: usize) -> usize {
    threads.min(len / MIN_PART)
}

/// How a check splits `r` among `width ≥ 2` workers: the left part gets
/// `width / 2` of them and the same share of the elements.
fn halve(width: usize, r: &Range<usize>) -> [(usize, Range<usize>); 2] {
    let left = width / 2;
    let mid = r.start + r.len() * left / width;
    [(left, r.start..mid), (width - left, mid..r.end)]
}

/// `leaf` over the parts of `r` at `width` workers, results folded with
/// `fold` in part order. One worker is `leaf(r)` on the calling thread.
fn fold_parts<R: Send>(
    width: usize,
    r: Range<usize>,
    leaf: &(impl Fn(Range<usize>) -> R + Sync),
    fold: fn(R, R) -> R,
) -> R {
    if width <= 1 {
        return leaf(r);
    }
    let [(wl, left), (wr, right)] = halve(width, &r);
    let (a, b) = join(
        2,
        || fold_parts(wl, left, leaf, fold),
        || fold_parts(wr, right, leaf, fold),
    );
    fold(a, b)
}

/// The parts [`par_fingerprint`] and [`par_check_sorted`] cut `len`
/// elements into at `threads`, one per worker: the single part `0..len`
/// where they run inline.
pub fn check_parts(threads: usize, len: usize) -> Vec<Range<usize>> {
    fn leaves(width: usize, r: Range<usize>, out: &mut Vec<Range<usize>>) {
        if width <= 1 {
            out.push(r);
        } else {
            for (w, part) in halve(width, &r) {
                leaves(w, part, out);
            }
        }
    }
    let mut out = Vec::new();
    leaves(check_width(threads, len), 0..len, &mut out);
    out
}

/// [`fingerprint`] on up to `threads` workers: the parts' fingerprints
/// [`combine`]d, which equals `fingerprint(data)` bit for bit because
/// wrapping add and xor are associative and commutative.
pub fn par_fingerprint<T: RadixKey>(threads: usize, data: &[T]) -> Fingerprint {
    let width = check_width(threads, data.len());
    fold_parts(width, 0..data.len(), &|r| fingerprint(&data[r]), combine)
}

/// `is_sorted(data) && fingerprint(data) == expect` on up to `threads`
/// workers, with the same answer, in one pass over `data`.
pub fn par_check_sorted<T: RadixKey>(threads: usize, data: &[T], expect: Fingerprint) -> bool {
    let width = check_width(threads, data.len());
    // A part's order check starts at the element before it, so the pair
    // that straddles each part boundary is checked too.
    let part =
        |r: Range<usize>| checked_fingerprint(r.start.checked_sub(1).map(|i| &data[i]), &data[r]);
    let both = |a: Option<Fingerprint>, b: Option<Fingerprint>| Some(combine(a?, b?));
    fold_parts(width, 0..data.len(), &part, both) == Some(expect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyValue;

    #[test]
    fn is_sorted_basic() {
        assert!(is_sorted::<i32>(&[]));
        assert!(is_sorted(&[1]));
        assert!(is_sorted(&[1, 1, 2, 3]));
        assert!(!is_sorted(&[2, 1]));
    }

    #[test]
    fn is_sorted_floats_total_order() {
        assert!(is_sorted(&[f64::NEG_INFINITY, -0.0, 0.0, 1.0, f64::NAN]));
        assert!(!is_sorted(&[0.0, -0.0])); // -0.0 sorts before +0.0
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let a = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let b = [9u64, 6, 5, 4, 3, 2, 1, 1];
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn fingerprint_detects_changes() {
        let a = [3u64, 1, 4, 1, 5];
        let mut b = a;
        b[2] = 7;
        assert_ne!(fingerprint(&a), fingerprint(&b));
        // Dropping an element changes count.
        assert_ne!(fingerprint(&a), fingerprint(&a[..4]));
        // Duplicating one element while removing another is caught by sum/sq.
        let c = [3u64, 1, 4, 1, 1];
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn combine_matches_concatenation() {
        let a = [1.5f64, -2.0, 0.0];
        let b = [7.25f64, f64::INFINITY];
        let whole = [1.5f64, -2.0, 0.0, 7.25, f64::INFINITY];
        assert_eq!(
            combine(fingerprint(&a), fingerprint(&b)),
            fingerprint(&whole)
        );
        assert_eq!(
            combine(Fingerprint::EMPTY, fingerprint(&a)),
            fingerprint(&a)
        );
        assert_eq!(fingerprint::<f64>(&[]), Fingerprint::EMPTY);
    }

    #[test]
    fn distinguishes_pos_and_neg_zero() {
        assert_ne!(fingerprint(&[0.0f64]), fingerprint(&[-0.0f64]));
    }

    #[test]
    fn fingerprint_values_are_pinned() {
        // The exact words, so a kernel rewrite cannot drift the mix or
        // the accumulators.
        let v = [0.0f64, -0.0, 1.5, f64::NEG_INFINITY, f64::NAN];
        assert_eq!(
            fingerprint(&v),
            Fingerprint {
                sum: 0x972B_26E0_AF17_1A34,
                xor: 0x09A2_D961_ADB0_7A30,
                sq: 0x8E3A_F4D9_6977_97C4,
                count: 5,
            }
        );
    }

    const THREADS: [usize; 4] = [1, 2, 3, 8];
    const LENS: [usize; 6] = [0, 1, MIN_PART - 1, MIN_PART, 2 * MIN_PART + 1, 100_003];

    /// `len` distinct keys in sorted order: ±0.0, ±∞ and two NaNs, then
    /// random bit patterns (NaN payloads of both signs included).
    fn distinct_sorted(len: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut v: Vec<f64> = specials.into_iter().take(len).collect();
        while v.len() < len {
            let more = len - v.len();
            v.extend((0..more).map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                f64::from_bits(x)
            }));
            v.sort_by(f64::total_cmp);
            v.dedup_by_key(|k| k.to_bits());
        }
        v.sort_by(f64::total_cmp);
        v
    }

    fn key_values(keys: &[f64]) -> Vec<KeyValue> {
        keys.iter()
            .enumerate()
            .map(|(i, &key)| KeyValue {
                key,
                value: i as u64,
            })
            .collect()
    }

    /// Where a defect straddles the check's parts: every interior
    /// boundary, or the middle when the check is one part.
    fn boundaries(threads: usize, len: usize) -> Vec<usize> {
        let parts = check_parts(threads, len);
        if parts.len() > 1 {
            parts[1..].iter().map(|r| r.start).collect()
        } else {
            (len >= 2).then_some(len / 2).into_iter().collect()
        }
    }

    fn check_kernels<T: RadixKey>(data: &mut [T]) {
        let len = data.len();
        let fp = fingerprint(data);
        for threads in THREADS {
            let at = format!("threads={threads} len={len}");
            assert_eq!(par_fingerprint(threads, data), fp, "{at}");
            assert!(par_check_sorted(threads, data, fp), "{at}");
            for b in boundaries(threads, len) {
                assert_ne!(data[b - 1].radix_key(), data[b].radix_key(), "{at}");
                data.swap(b - 1, b);
                assert!(
                    !par_check_sorted(threads, data, fp),
                    "{at}: swap at {b} passed"
                );
                data.swap(b - 1, b);
                let kept = data[b];
                data[b] = data[b - 1];
                assert!(
                    !par_check_sorted(threads, data, fp),
                    "{at}: duplicate at {b} passed"
                );
                data[b] = kept;
            }
            if len > 0 {
                assert!(
                    !par_check_sorted(threads, &data[1..], fp),
                    "{at}: drop passed"
                );
            }
        }
    }

    #[test]
    fn parallel_checks_equal_the_sequential_ones_at_every_boundary() {
        for len in LENS {
            let mut keys = distinct_sorted(len, len as u64);
            assert_eq!(keys.len(), len);
            check_kernels(&mut keys);
            check_kernels(&mut key_values(&keys));
        }
    }

    #[test]
    fn one_pass_check_equals_the_two_pass_reference() {
        // Four keys, both zeros among them: long tie runs, swaps inside
        // them that keep the order, and ones across them that break it.
        let mut x = 7u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        for len in LENS {
            let mut v: Vec<f64> = (0..len)
                .map(|_| [-0.0, 0.0, 1.0, f64::NAN][next() % 4])
                .collect();
            v.sort_by(f64::total_cmp);
            let fp = fingerprint(&v);
            for round in 0..4 {
                if round == 3 {
                    v.reverse();
                } else if round > 0 && len >= 2 {
                    let i = next() % (len - 1);
                    v.swap(i, i + 1);
                }
                let want = is_sorted(&v) && fingerprint(&v) == fp;
                for threads in THREADS {
                    let got = par_check_sorted(threads, &v, fp);
                    assert_eq!(got, want, "len={len} round={round} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn checks_run_inline_below_two_grains_and_split_above() {
        for threads in THREADS {
            for len in [0, 1, MIN_PART, 2 * MIN_PART - 1] {
                assert_eq!(check_parts(threads, len), vec![0..len]);
            }
            let parts = check_parts(threads, 100_003);
            assert_eq!(parts.len(), threads, "one part per worker");
            assert!(parts.windows(2).all(|w| w[0].end == w[1].start));
            assert_eq!((parts[0].start, parts[parts.len() - 1].end), (0, 100_003));
        }
    }
}
