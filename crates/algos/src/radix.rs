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

/// Number of buckets per digit (8-bit digits).
const BUCKETS: usize = 256;

/// Histogram count type. `u64`, never `u32`: the paper's headline run
/// sorts n = 4.9×10⁹ elements, and a `u32` count of ≥ 2³² equal-digit
/// elements wraps silently into garbage bucket offsets.
pub type HistCount = u64;

/// Elements per cache block of the counting pass. 1024 keys (8 KiB of
/// extracted `u64`s) fits in L1 alongside one digit's 2 KiB counter row,
/// so the digit-major inner loop below never thrashes.
const COUNT_BLOCK: usize = 1024;

/// Histogram every digit of `data` into `hist` (layout
/// `hist[d * BUCKETS + byte]`), cache-blocked: keys are extracted once
/// per block, then each digit's counter row is filled from the resident
/// block. The element-major alternative touches all `KEY_BYTES` counter
/// rows per element, which for 8-byte keys strides across 8 KiB of
/// counters on every iteration; blocking keeps one row hot at a time.
/// Counts are exactly the element-major counts, just accumulated in a
/// different order.
fn count_all_digits<T: RadixKey>(data: &[T], hist: &mut [HistCount]) {
    let digits = T::KEY_BYTES;
    debug_assert_eq!(hist.len(), BUCKETS * digits);
    let mut keys = [0u64; COUNT_BLOCK];
    for block in data.chunks(COUNT_BLOCK) {
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

/// Sort `data` in place (internally out-of-place with one scratch
/// allocation of equal length). The scratch is never read before a
/// scatter pass has written all of it, so it is not a copy of `data`.
pub fn radix_sort<T: RadixKey + Default>(data: &mut [T]) {
    let mut scratch: Vec<T> = vec![T::default(); data.len()];
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

    // Histogram all digits in one cache-blocked pass.
    let digits = T::KEY_BYTES;
    let mut hist: Vec<HistCount> = vec![0; BUCKETS * digits];
    count_all_digits(data, &mut hist);

    let mut passes = 0usize;
    let mut src_is_data = true;
    for d in 0..digits {
        let h = &hist[d * BUCKETS..(d + 1) * BUCKETS];
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
            let byte = ((x.radix_key() >> (8 * d)) & 0xFF) as usize;
            dst[offsets[byte]] = x;
            offsets[byte] += 1;
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
    use crate::verify::{fingerprint_f64, is_sorted};

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
        let fp = fingerprint_f64(&v);
        let mut expect = v.clone();
        introsort(&mut expect);
        radix_sort(&mut v);
        assert_eq!(
            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(fp, fingerprint_f64(&v), "radix must be a permutation");
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
        // allocating them: seed the histogram, then run the real
        // counting kernel over 10 more such elements.
        let mut hist: Vec<HistCount> = vec![0; BUCKETS * <u64 as RadixKey>::KEY_BYTES];
        hist[0] = u32::MAX as HistCount; // digit 0, bucket 0x00
        count_all_digits(&[0u64; 10], &mut hist);
        assert_eq!(
            hist[0],
            u32::MAX as u64 + 10,
            "a u32 histogram wraps to 9 here and scatters through garbage offsets"
        );
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
