//! Parallel radix sort — the device-sort stand-in of the functional
//! engine (Thrust's out-of-place radix sort of one `b_s` batch, §III-B).
//!
//! One radix partition, then bucket sorts: the hybrid shape of Stehle &
//! Jacobsen, which partitions until the buckets fit in fast memory and
//! finishes each one there.
//!
//! 1. Fold the batch's AND and OR. The digit is the 10 bits from the top
//!    varying bit down, or every varying bit when they span at most 14.
//!    Classifying a key is one shift and one mask, whatever the
//!    distribution: a constant top byte costs nothing.
//! 2. Each worker counts its contiguous part of the batch, then scatters
//!    it into one scratch of batch length. Bucket `b` holds part 0's keys
//!    of `b`, then part 1's, each in input order: the partition is stable.
//! 3. The buckets are self-scheduled over the workers. A bucket of at
//!    most [`LSD_MAX_BYTES`] is finished in cache by the sequential LSD
//!    kernel ([`crate::radix`]) and lands in the batch; a longer one is
//!    partitioned again on its own varying bits, which is how skew is
//!    handled. When the digit covered every varying bit, the keys of a
//!    bucket are all equal and it is already final.
//!
//! Both steps are stable, so the result is the stable LSD permutation of
//! the batch — bit-identical to [`crate::radix::radix_sort`] at every
//! thread count, payloads of equal-key records included. A batch of at
//! most [`LSD_MAX_BYTES`] is one LSD sort. DESIGN.md § 21 records the
//! shapes this one replaced and the measurements behind its constants.

use std::mem::{size_of, size_of_val};
use std::ops::Range;
use std::sync::Mutex;

use crate::keys::RadixKey;
use crate::mem::huge_vec;
use crate::par::{par_copy, par_parts, split_evenly, split_ranges_mut, SchedCfg, MIN_PART};
use crate::radix::{radix_sort_with_scratch, COUNT_ROWS_BYTES, SMALL_COUNT};

/// The longest key range, in bytes, that is LSD-sorted whole rather than
/// partitioned: a batch at or under it is one [`radix_sort_with_scratch`]
/// call, and so is every bucket at or under it. One core's L2 on the
/// reference box: at one worker the partition starts paying between 2
/// and 3 MiB (DESIGN.md § 21).
pub const LSD_MAX_BYTES: usize = 2 << 20;

/// Digit width of a partition whose varying bits span more than
/// [`MAX_DIGIT_BITS`].
const DIGIT_BITS: u32 = 10;

/// The widest span of varying bits one partition takes whole, leaving
/// every bucket a run of equal keys.
const MAX_DIGIT_BITS: u32 = 14;

/// Sort `data` with the parallel radix sort on `threads` workers.
///
/// A batch above [`LSD_MAX_BYTES`] is partitioned on
/// `threads.min(n / MIN_PART)` workers; one at or under it is the
/// sequential radix sort. Allocates one scratch buffer of equal length
/// ([`huge_vec`]).
pub fn par_radix_sort<T: RadixKey + Default>(threads: usize, data: &mut [T]) {
    par_radix_sort_cfg(&SchedCfg::default(), threads, data);
}

/// [`par_radix_sort`] with an explicit scheduling policy (the bucket
/// phase over-decomposes by it; the output is identical under all).
pub fn par_radix_sort_cfg<T: RadixKey + Default>(cfg: &SchedCfg, threads: usize, data: &mut [T]) {
    let mut scratch: Vec<T> = huge_vec(data.len(), T::default());
    sort_range(cfg, threads, data, &mut scratch, true);
}

/// Bytes [`par_radix_sort_cfg`] holds over `n` keys of `elem` bytes on
/// `threads` workers besides its scratch, over any key distribution.
///
/// An LSD-sorted batch holds the kernel's lane rows
/// ([`COUNT_ROWS_BYTES`], none below [`SMALL_COUNT`]). A partition holds
/// each worker's counter and segment per bucket, and the bucket bounds;
/// after a covering digit that is all. After a 10-bit digit the bounds
/// stay while the buckets are finished in parts, at most one per
/// bucket, each with its group, span, job and queue slot; meanwhile
/// every worker holds lane rows or partitions of its own, one worker
/// wide: at most one per 10 bits of the key, the deepest a covering one.
pub fn working_set_bytes(threads: usize, n: usize, elem: usize) -> usize {
    if n * elem <= LSD_MAX_BYTES {
        return if n < SMALL_COUNT { 0 } else { COUNT_ROWS_BYTES };
    }
    type Job<'a> = ((&'a mut [u8], &'a mut [u8]), Range<usize>);
    let word = size_of::<usize>();
    let per_bucket = |workers: usize| workers * (word + size_of::<&mut [u8]>()) + word;
    let part = 2 * size_of::<Range<usize>>() + size_of::<Job>() + size_of::<Mutex<Option<Job>>>();
    let (narrow, wide) = (1usize << DIGIT_BITS, 1usize << MAX_DIGIT_BITS);
    let worker = (64 / DIGIT_BITS as usize) * (narrow * word + part)
        + (per_bucket(1) * wide).max(COUNT_ROWS_BYTES);
    let workers = threads.min(n / MIN_PART).max(1);
    let finishing = narrow * (word + part) + workers * worker;
    (per_bucket(workers) * wide).max(per_bucket(workers) * narrow + finishing)
}

/// Sort `keys` stably on up to `threads` workers, with `spare` (of equal
/// length) as the other side; the result lands in `keys` when
/// `into_keys`, else in `spare`.
fn sort_range<T: RadixKey>(
    cfg: &SchedCfg,
    threads: usize,
    keys: &mut [T],
    spare: &mut [T],
    into_keys: bool,
) {
    let n = keys.len();
    if size_of_val(keys) <= LSD_MAX_BYTES {
        // An odd pass count leaves the result in `spare`.
        let in_spare = radix_sort_with_scratch(keys, spare) % 2 == 1;
        match (in_spare, into_keys) {
            (false, false) => spare.copy_from_slice(keys),
            (true, true) => keys.copy_from_slice(spare),
            _ => {}
        }
        return;
    }
    let workers = threads.min(n / MIN_PART).max(1);
    let parts = split_evenly(n, workers);
    let Some(digit) = Digit::of(varying_bits(keys, &parts)) else {
        // Every key is equal: the input order is the stable order.
        if !into_keys {
            par_copy(workers, keys, spare);
        }
        return;
    };
    let bounds = partition(digit, keys, spare, &parts);
    if digit.covers {
        // Each bucket is a run of equal keys: the partition is the result.
        if into_keys {
            par_copy(workers, spare, keys);
        }
        return;
    }

    // The parts of the self-scheduled queue are runs of consecutive
    // buckets, each cut once it holds n / parts keys or more.
    let grain = n.div_ceil(cfg.over_parts(workers, n / MIN_PART));
    let mut groups: Vec<Range<usize>> = Vec::new();
    let mut first = 0;
    for b in 1..bounds.len() {
        if bounds[b] - bounds[first] >= grain || b == bounds.len() - 1 {
            if bounds[b] > bounds[first] {
                groups.push(first..b);
            }
            first = b;
        }
    }
    let spans: Vec<Range<usize>> = groups
        .iter()
        .map(|g| bounds[g.start]..bounds[g.end])
        .collect();
    let jobs: Vec<_> = split_ranges_mut(spare, &spans)
        .into_iter()
        .zip(split_ranges_mut(keys, &spans))
        .zip(groups)
        .collect();
    par_parts(workers, jobs, |_, ((mut sorted, mut other), group)| {
        for b in group {
            let len = bounds[b + 1] - bounds[b];
            let (s, s_rest) = std::mem::take(&mut sorted).split_at_mut(len);
            let (o, o_rest) = std::mem::take(&mut other).split_at_mut(len);
            if len > 0 {
                sort_range(cfg, 1, s, o, !into_keys);
            }
            (sorted, other) = (s_rest, o_rest);
        }
    });
}

/// The bits that differ between any two keys of `keys`, folded over
/// `parts` in parallel.
fn varying_bits<T: RadixKey>(keys: &[T], parts: &[Range<usize>]) -> u64 {
    let mut folds = vec![(u64::MAX, 0u64); parts.len()];
    let jobs: Vec<_> = parts.iter().zip(folds.iter_mut()).collect();
    par_parts(parts.len(), jobs, |_, (r, fold)| {
        *fold = keys[r.clone()].iter().fold(*fold, |(and, or), x| {
            let k = x.radix_key();
            (and & k, or | k)
        });
    });
    let (and, or) = folds
        .into_iter()
        .fold((u64::MAX, 0), |(and, or), (a, o)| (and & a, or | o));
    and ^ or
}

/// The key bits one partition classifies on.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Digit {
    shift: u32,
    mask: u64,
    /// The digit holds every varying bit: a bucket's keys are equal.
    covers: bool,
}

impl Digit {
    /// The digit for a range whose keys differ in `varying`, or `None`
    /// when they are all equal.
    fn of(varying: u64) -> Option<Self> {
        if varying == 0 {
            return None;
        }
        let top = 63 - varying.leading_zeros();
        let low = varying.trailing_zeros();
        let span = top - low + 1;
        let covers = span <= MAX_DIGIT_BITS;
        let (shift, bits) = if covers {
            (low, span)
        } else {
            (top + 1 - DIGIT_BITS, DIGIT_BITS)
        };
        Some(Digit {
            shift,
            mask: (1 << bits) - 1,
            covers,
        })
    }

    fn buckets(self) -> usize {
        self.mask as usize + 1
    }

    #[inline(always)]
    fn bucket<T: RadixKey>(self, x: T) -> usize {
        ((x.radix_key() >> self.shift) & self.mask) as usize
    }
}

/// Scatter `src` into `dst` by `digit`, stably: bucket by bucket, and
/// inside a bucket part by part in input order. Each part is counted and
/// scattered by its own worker. Returns the bucket bounds: bucket `b` is
/// `dst[bounds[b]..bounds[b + 1]]`.
fn partition<T: RadixKey>(
    digit: Digit,
    src: &[T],
    dst: &mut [T],
    parts: &[Range<usize>],
) -> Vec<usize> {
    let buckets = digit.buckets();
    let mut counts = vec![vec![0usize; buckets]; parts.len()];
    let jobs: Vec<_> = parts.iter().zip(counts.iter_mut()).collect();
    par_parts(parts.len(), jobs, |_, (r, count)| {
        for &x in &src[r.clone()] {
            count[digit.bucket(x)] += 1;
        }
    });

    // Part p's keys of bucket b go to segs[p][b], laid out bucket-major.
    let mut bounds = Vec::with_capacity(buckets + 1);
    let mut segs: Vec<Vec<&mut [T]>> = (0..parts.len())
        .map(|_| Vec::with_capacity(buckets))
        .collect();
    let (mut rest, mut start) = (dst, 0);
    for b in 0..buckets {
        bounds.push(start);
        for (seg, count) in segs.iter_mut().zip(&counts) {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(count[b]);
            seg.push(head);
            rest = tail;
            start += count[b];
        }
    }
    bounds.push(start);

    // Each part's counters restart as its cursors into its segments.
    let jobs: Vec<_> = parts.iter().zip(segs).zip(counts.iter_mut()).collect();
    par_parts(parts.len(), jobs, |_, ((r, mut seg), cursor)| {
        cursor.fill(0);
        for &x in &src[r.clone()] {
            let b = digit.bucket(x);
            seg[b][cursor[b]] = x;
            cursor[b] += 1;
        }
    });
    bounds
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

    /// Keys past the LSD bound, so the partition runs.
    const PARTITIONED: usize = LSD_MAX_BYTES / 8 + 1000;

    #[test]
    fn working_set_follows_the_path() {
        assert_eq!(COUNT_ROWS_BYTES, 64 << 10);
        assert_eq!(
            working_set_bytes(8, SMALL_COUNT - 1, 8),
            0,
            "rows on the stack"
        );
        assert_eq!(working_set_bytes(8, SMALL_COUNT, 8), COUNT_ROWS_BYTES);
        assert_eq!(working_set_bytes(8, LSD_MAX_BYTES / 8, 8), COUNT_ROWS_BYTES);
        let one = working_set_bytes(1, PARTITIONED, 8);
        let two = working_set_bytes(2, PARTITIONED, 8);
        assert!(one > COUNT_ROWS_BYTES && two > one, "{one} {two}");
        // Wider keys reach the partition at fewer keys.
        assert_eq!(working_set_bytes(2, PARTITIONED / 2, 16), two);
    }

    #[test]
    fn digit_takes_the_top_varying_bits() {
        assert_eq!(Digit::of(0), None);
        // A narrow span is taken whole.
        let d = Digit::of(0b1011 << 20).unwrap();
        assert_eq!((d.shift, d.mask, d.covers), (20, 0b1111, true));
        let d = Digit::of(1 << 13 | 1).unwrap();
        assert_eq!(
            (d.shift, d.buckets(), d.covers),
            (0, 1 << MAX_DIGIT_BITS, true)
        );
        // A wide one is cut to DIGIT_BITS just under its top bit.
        let d = Digit::of(1 << 56 | 1).unwrap();
        assert_eq!(
            (d.shift, d.buckets(), d.covers),
            (47, 1 << DIGIT_BITS, false)
        );
        let d = Digit::of(u64::MAX).unwrap();
        assert_eq!(d.shift, 64 - DIGIT_BITS);
    }

    #[test]
    fn partition_is_stable_and_bucket_major() {
        let src: Vec<u64> = lcg(3, 10_000).into_iter().map(|k| k >> 60).collect();
        let digit = Digit::of(0xF).unwrap();
        let mut dst = vec![0u64; src.len()];
        let parts = split_evenly(src.len(), 3);
        let bounds = partition(digit, &src, &mut dst, &parts);
        assert_eq!(bounds.len(), 17);
        let mut expect = src.clone();
        expect.sort_by_key(|&k| k);
        assert_eq!(dst, expect);
        for b in 0..16 {
            assert!(dst[bounds[b]..bounds[b + 1]].iter().all(|&k| k == b as u64));
        }
    }

    #[test]
    fn matches_sequential_radix_u64() {
        for n in [0usize, 1, 100, 8 * 1024, 50_000, PARTITIONED] {
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
        let base: Vec<f64> = lcg(7, PARTITIONED)
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
        let v0 = lcg(11, PARTITIONED);
        let fp = fingerprint(&v0);
        let mut v = v0;
        par_radix_sort(5, &mut v);
        assert!(is_sorted(&v));
        assert_eq!(fingerprint(&v), fp);
    }

    #[test]
    fn handles_signed_and_small_ranges() {
        let mut v: Vec<i64> = lcg(13, PARTITIONED).into_iter().map(|x| x as i64).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        par_radix_sort(4, &mut v);
        assert_eq!(v, expect);
        // Low-entropy: 8 varying bits, one covering digit.
        let mut v: Vec<u64> = lcg(17, PARTITIONED).into_iter().map(|x| x % 200).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        par_radix_sort(4, &mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn skewed_buckets_are_partitioned_again() {
        // One huge key puts the top digit above every other key's
        // varying bits: nearly the whole batch lands in one bucket, which
        // is out of cache and partitioned again.
        let mut base: Vec<u64> = lcg(23, 4 * PARTITIONED)
            .into_iter()
            .map(|x| x >> 20)
            .collect();
        base[7] = u64::MAX;
        let mut expect = base.clone();
        expect.sort_unstable();
        for threads in [1usize, 2, 3] {
            let mut v = base.clone();
            par_radix_sort(threads, &mut v);
            assert_eq!(v, expect, "threads={threads}");
        }
    }

    #[test]
    fn cfg_policies_agree() {
        let base = lcg(29, PARTITIONED);
        let mut expect = base.clone();
        radix_sort(&mut expect);
        for cfg in [1, 4, 0].map(|chunks_per_thread| SchedCfg { chunks_per_thread }) {
            for threads in [1usize, 2, 3, 7, 16] {
                let mut v = base.clone();
                par_radix_sort_cfg(&cfg, threads, &mut v);
                assert_eq!(v, expect, "cfg={cfg:?} threads={threads}");
            }
        }
    }
}
