//! LSD radix sort — the Thrust/CUB device-sort stand-in.
//!
//! Thrust's `sort` on primitive keys is a radix sort; the paper's
//! functional pipeline sorts each device-resident batch with it. This
//! module provides the equivalent: an out-of-place least-significant-
//! digit radix sort over 8-bit digits with a ping-pong buffer — the
//! same 2× memory footprint the paper charges against GPU global memory
//! ("Thrust sorts out-of-place, requiring double the memory of the
//! input list", §III-B), which is why batches are `b_s` elements but
//! occupy `2·b_s` on the device.
//!
//! Digits whose byte is constant across the input are skipped (the
//! standard histogram-early-exit optimization), so already-uniform high
//! bytes cost one scan, not one permute.

use crate::keys::RadixKey;
use crate::mem::huge_vec;

/// Number of buckets per digit (8-bit digits).
const BUCKETS: usize = 256;

/// Histogram count type. `u64`, never `u32`: the paper's headline run
/// sorts n = 4.9×10⁹ elements, and a `u32` count of ≥ 2³² equal-digit
/// elements wraps silently into garbage bucket offsets.
pub type HistCount = u64;

/// Elements per cache block of the counting pass. 1024 keys (8 KiB of
/// extracted `u64`s) fits in L1 alongside one digit's 8 KiB of lane
/// rows, so the digit-major inner loop below never thrashes.
const COUNT_BLOCK: usize = 1024;

/// Batches shorter than this count into one row per digit, not into
/// four lane rows per digit (see `LANES`). Zeroing and folding the lane
/// rows is a fixed cost (64 KiB for 8-byte keys) that only a long batch
/// repays.
/// Measured on uniform `f64` (2 vCPU): one row sorts 1–2 k keys in
/// 0.88–0.93 × the lanes' time, breaks even near 2.5 k and loses 5–12 %
/// at 4 k, where the lanes' four store-forward chains pay for the
/// zeroing (DESIGN § 21).
pub const SMALL_COUNT: usize = 2 * COUNT_BLOCK;

/// Widest key in bytes ([`RadixKey::radix_key`] is a `u64`): the small
/// path's rows live on the stack, sized for it.
const MAX_KEY_BYTES: usize = 8;

/// Counter rows per digit. A single row serialises on repeated bytes:
/// each `row[b] += 1` loads the counter the previous increment of the
/// same byte just stored, so a run of equal bytes is a chain of
/// store-to-load forwards. Key `i` of a block counts into row `i % LANES`,
/// which gives four independent chains.
const LANES: usize = 4;

/// One digit's counter rows (layout `rows[lane][byte]`); the digit's
/// histogram is their sum ([`fold`]).
type LaneRows = [[HistCount; BUCKETS]; LANES];

/// Heap bytes one sort of at least [`SMALL_COUNT`] keys holds besides
/// its scratch: the lane rows of every digit of the widest key (64 KiB).
/// A shorter batch counts into rows on the stack and holds none.
pub const COUNT_ROWS_BYTES: usize = MAX_KEY_BYTES * std::mem::size_of::<LaneRows>();

/// Count every digit of `data` into `lanes` (one [`LaneRows`] per key
/// byte), cache-blocked: keys are extracted once per block, then each
/// digit is counted from the resident block. The element-major
/// alternative touches all `KEY_BYTES` digits' counters per element,
/// which for 8-byte keys strides across 64 KiB on every iteration.
///
/// Extraction also folds the block's AND and OR. A digit whose byte is
/// the same in every key of the block (its bits agree in both) adds the
/// block length to that one bucket; only a digit that varies is counted
/// key by key, over the lanes. Either way the folded counts are exactly
/// the element-major counts, accumulated in a different order.
fn count_all_digits<T: RadixKey>(data: &[T], lanes: &mut [LaneRows]) {
    debug_assert_eq!(lanes.len(), T::KEY_BYTES);
    let mut keys = [0u64; COUNT_BLOCK];
    for block in data.chunks(COUNT_BLOCK) {
        let keys = &mut keys[..block.len()];
        let (mut and, mut or) = (u64::MAX, 0u64);
        for (k, x) in keys.iter_mut().zip(block.iter()) {
            *k = x.radix_key();
            and &= *k;
            or |= *k;
        }
        let varying = and ^ or;
        for (d, rows) in lanes.iter_mut().enumerate() {
            let shift = 8 * d;
            if byte(varying, shift) == 0 {
                rows[0][byte(and, shift)] += block.len() as HistCount;
                continue;
            }
            let mut quads = keys.chunks_exact(LANES);
            let [r0, r1, r2, r3] = &mut *rows;
            for q in &mut quads {
                r0[byte(q[0], shift)] += 1;
                r1[byte(q[1], shift)] += 1;
                r2[byte(q[2], shift)] += 1;
                r3[byte(q[3], shift)] += 1;
            }
            for (row, &k) in rows.iter_mut().zip(quads.remainder()) {
                row[byte(k, shift)] += 1;
            }
        }
    }
}

/// Byte `shift / 8` of key `k`.
fn byte(k: u64, shift: usize) -> usize {
    ((k >> shift) & 0xFF) as usize
}

/// [`count_all_digits`] for a batch shorter than [`SMALL_COUNT`], into
/// one row per digit (`rows[d]` is digit `d`'s histogram, no fold).
/// One pass folds the batch's AND and OR; a digit constant over the
/// batch adds its length in one step, and a varying one is counted key
/// by key from the batch, which is still in L1.
fn count_small<T: RadixKey>(data: &[T], rows: &mut [[HistCount; BUCKETS]]) {
    debug_assert_eq!(rows.len(), T::KEY_BYTES);
    let (mut and, mut or) = (u64::MAX, 0u64);
    for x in data {
        let k = x.radix_key();
        and &= k;
        or |= k;
    }
    let varying = and ^ or;
    for (d, row) in rows.iter_mut().enumerate() {
        let shift = 8 * d;
        if byte(varying, shift) == 0 {
            row[byte(and, shift)] += data.len() as HistCount;
            continue;
        }
        for x in data {
            row[byte(x.radix_key(), shift)] += 1;
        }
    }
}

/// One digit's histogram: the sum of its lane rows.
fn fold(rows: &LaneRows) -> [HistCount; BUCKETS] {
    let mut h = rows[0];
    for row in &rows[1..] {
        for (c, &x) in h.iter_mut().zip(row.iter()) {
            *c += x;
        }
    }
    h
}

/// Sort `data` in place (internally out-of-place with one scratch
/// allocation of equal length, on huge pages when it is big enough).
/// The scratch is never read before a scatter pass has written all of
/// it, so it is not a copy of `data`.
pub fn radix_sort<T: RadixKey + Default>(data: &mut [T]) {
    let mut scratch: Vec<T> = huge_vec(data.len(), T::default());
    let ping_pongs = radix_sort_with_scratch(data, &mut scratch);
    // If an odd number of permute passes ran, the sorted result is in
    // `scratch`; copy back.
    if ping_pongs % 2 == 1 {
        data.copy_from_slice(&scratch);
    }
}

/// Sort `data` using the caller's scratch buffer (must be same length).
/// Returns the number of permute passes performed; if odd, the sorted
/// data ends up in `scratch` and the caller (or [`radix_sort`]) must
/// copy back.
pub fn radix_sort_with_scratch<T: RadixKey>(data: &mut [T], scratch: &mut [T]) -> usize {
    assert_eq!(data.len(), scratch.len(), "scratch must match input length");
    let n = data.len();
    if n <= 1 {
        return 0;
    }

    // Count all digits in one pass: a small batch into one row per
    // digit, a long one cache-blocked over lane rows.
    if n < SMALL_COUNT {
        let mut rows = [[0; BUCKETS]; MAX_KEY_BYTES];
        let rows = &mut rows[..T::KEY_BYTES];
        count_small(data, rows);
        scatter_passes(data, scratch, rows.iter().copied())
    } else {
        let mut lanes: Vec<LaneRows> = vec![[[0; BUCKETS]; LANES]; T::KEY_BYTES];
        count_all_digits(data, &mut lanes);
        scatter_passes(data, scratch, lanes.iter().map(fold))
    }
}

/// One stable scatter pass per digit `d` of `hists` (digit `d`'s
/// histogram is its `d`-th item) whose byte varies, ping-ponging
/// between `data` and `scratch`. Returns the number of passes.
fn scatter_passes<T: RadixKey>(
    data: &mut [T],
    scratch: &mut [T],
    hists: impl Iterator<Item = [HistCount; BUCKETS]>,
) -> usize {
    let n = data.len();
    let mut passes = 0usize;
    let mut src_is_data = true;
    for (d, h) in hists.enumerate() {
        // Skip digits where every key shares one byte value.
        if h.iter().any(|&c| c as usize == n) {
            continue;
        }
        // Exclusive prefix sum → bucket start offsets.
        let mut offsets = [0usize; BUCKETS];
        let mut sum = 0usize;
        for (o, &c) in offsets.iter_mut().zip(h.iter()) {
            *o = sum;
            sum += c as usize;
        }
        let (src, dst): (&[T], &mut [T]) = if src_is_data {
            (&*data, &mut *scratch)
        } else {
            (&*scratch, &mut *data)
        };
        for &x in src.iter() {
            let b = byte(x.radix_key(), 8 * d);
            dst[offsets[b]] = x;
            offsets[b] += 1;
        }
        src_is_data = !src_is_data;
        passes += 1;
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::introsort::introsort;
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
    fn sorts_u64() {
        let mut v = lcg(42, 10_000);
        radix_sort(&mut v);
        assert!(is_sorted(&v));
    }

    #[test]
    fn matches_introsort_on_f64() {
        let mut v: Vec<f64> = lcg(7, 5000)
            .into_iter()
            .map(|b| f64::from_bits(b & !(0x7FF << 52)) - 0.5) // finite
            .collect();
        let fp = fingerprint(&v);
        let mut expect = v.clone();
        introsort(&mut expect);
        radix_sort(&mut v);
        assert_eq!(
            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(fp, fingerprint(&v), "radix must be a permutation");
    }

    #[test]
    fn sorts_negative_floats_and_specials() {
        let mut v = vec![
            3.5f64,
            -2.0,
            f64::INFINITY,
            -0.0,
            0.0,
            f64::NEG_INFINITY,
            f64::NAN,
            -1e308,
        ];
        radix_sort(&mut v);
        assert_eq!(v[0], f64::NEG_INFINITY);
        assert_eq!(v[1], -1e308);
        assert_eq!(v[2], -2.0);
        assert!(v[3] == 0.0 && v[3].is_sign_negative());
        assert!(v[4] == 0.0 && v[4].is_sign_positive());
        assert_eq!(v[5], 3.5);
        assert_eq!(v[6], f64::INFINITY);
        assert!(v[7].is_nan());
    }

    #[test]
    fn sorts_signed_ints() {
        let mut v: Vec<i64> = lcg(9, 3000).into_iter().map(|x| x as i64).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_u32_with_4_byte_keys() {
        let mut v: Vec<u32> = lcg(11, 3000).into_iter().map(|x| x as u32).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn empty_single_constant() {
        let mut v: Vec<u64> = vec![];
        radix_sort(&mut v);
        let mut v = vec![5u64];
        radix_sort(&mut v);
        assert_eq!(v, vec![5]);
        let mut v = vec![7u64; 100];
        radix_sort(&mut v);
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn constant_high_bytes_skip_passes() {
        let passes = |mut v: Vec<u64>| {
            let mut scratch = v.clone();
            radix_sort_with_scratch(&mut v, &mut scratch)
        };
        // Values < 256: only digit 0 varies → exactly 1 permute pass.
        assert_eq!(passes((0..100).map(|i| (i * 37) % 256).collect()), 1);
        // Uniform value → zero passes.
        assert_eq!(passes(vec![9u64; 50]), 0);
        // Full-range u64 → 8 passes (with overwhelming probability).
        assert_eq!(passes(lcg(3, 4096)), 8);
    }

    #[test]
    fn histogram_counts_cannot_wrap_at_paper_scale() {
        // Mock a batch that has already counted u32::MAX elements whose
        // low digit is 0x00 (paper scale: n = 4.9e9 > 2³²) without
        // allocating them: seed one lane row, then run the real counting
        // kernel over 10 more keys, 5 of them with low digit 0x00 (keys
        // 0 and 2 of each quad, so lanes 0 and 2 count them) and the
        // folded histogram must hold the exact sum.
        let data: Vec<u64> = (0..10).map(|i| i % 2).collect();
        let mut lanes = vec![[[0; BUCKETS]; LANES]; <u64 as RadixKey>::KEY_BYTES];
        lanes[0][1][0] = u32::MAX as HistCount; // digit 0, lane 1, bucket 0x00
        count_all_digits(&data, &mut lanes);
        assert_eq!(
            fold(&lanes[0])[0],
            u32::MAX as u64 + 5,
            "a u32 count wraps to 4 here and scatters through garbage offsets"
        );
        // A constant digit adds the block length in one step.
        assert_eq!(fold(&lanes[1])[0], 10);
    }

    #[test]
    fn digits_constant_per_block_count_like_element_major() {
        // Digit 1 is constant inside every 1024-key block but differs
        // between blocks (it is the block index); digit 0 varies inside
        // each block; the last block is short (1 003 keys, three past a
        // quad). Each folded row must equal the naive count.
        let n = 5 * COUNT_BLOCK + 1003;
        let noise = lcg(5, n);
        let data: Vec<u64> = (0..n)
            .map(|i| ((i / COUNT_BLOCK) as u64) << 8 | (noise[i] & 0xFF) | (0xAB << 24))
            .collect();
        let mut lanes = vec![[[0; BUCKETS]; LANES]; <u64 as RadixKey>::KEY_BYTES];
        count_all_digits(&data, &mut lanes);
        for (d, rows) in lanes.iter().enumerate() {
            let mut naive = [0 as HistCount; BUCKETS];
            for &k in &data {
                naive[((k >> (8 * d)) & 0xFF) as usize] += 1;
            }
            assert_eq!(fold(rows), naive, "digit {d}");
        }
        // Digits 1 (block-constant but varying overall) and 0 are live.
        let mut v = data.clone();
        let mut scratch = data.clone();
        assert_eq!(radix_sort_with_scratch(&mut v, &mut scratch), 2);
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(v, expect);
    }

    #[test]
    fn small_rows_count_like_folded_lanes() {
        // The one-row count of a short batch is the same integers as the
        // lane rows' fold: constant digits (the top four), varying ones
        // (the low four) and a length that is not a whole quad.
        let n = SMALL_COUNT - 1;
        let data: Vec<u64> = lcg(13, n)
            .into_iter()
            .map(|k| k >> 32 | 0x5A << 56)
            .collect();
        let mut rows = [[0; BUCKETS]; 8];
        count_small(&data, &mut rows);
        let mut lanes = vec![[[0; BUCKETS]; LANES]; 8];
        count_all_digits(&data, &mut lanes);
        for (d, (row, lane)) in rows.iter().zip(&lanes).enumerate() {
            assert_eq!(*row, fold(lane), "digit {d}");
        }
        assert_eq!(rows[7][0x5A], n as HistCount);
    }

    #[test]
    fn scratch_variant_reports_parity() {
        let mut v: Vec<u64> = (0..1000).rev().collect();
        let mut scratch = v.clone();
        let passes = radix_sort_with_scratch(&mut v, &mut scratch);
        let sorted: &[u64] = if passes % 2 == 1 { &scratch } else { &v };
        assert!(is_sorted(sorted));
    }

    #[test]
    #[should_panic(expected = "scratch must match")]
    fn mismatched_scratch_panics() {
        let mut v = vec![1u64, 2];
        let mut s = vec![0u64; 3];
        radix_sort_with_scratch(&mut v, &mut s);
    }

    #[test]
    fn already_sorted_stays_sorted() {
        let mut v: Vec<u64> = (0..5000).collect();
        radix_sort(&mut v);
        assert!(is_sorted(&v));
        assert_eq!(v[0], 0);
        assert_eq!(v[4999], 4999);
    }
}
