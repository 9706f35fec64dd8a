//! Property tests: every sort in the crate is (a) sorted output under
//! the total order and (b) a multiset permutation of its input — for
//! arbitrary inputs including NaNs, infinities, and signed zeros — and
//! all sorts agree bit-for-bit with the introsort oracle.

use hetsort_algos::introsort::{heapsort, introsort};
use hetsort_algos::keys::{KeyValue, RadixKey, SortOrd};
use hetsort_algos::mergesort::par_mergesort;
use hetsort_algos::qsort::{cmp_f64, qsort};
use hetsort_algos::radix::{radix_sort, radix_sort_with_scratch, SMALL_COUNT};
use hetsort_algos::radix_par::{par_radix_sort, LSD_MAX_BYTES};
use hetsort_algos::samplesort::par_samplesort;
use hetsort_algos::verify::{fingerprint, is_sorted};
use hetsort_prng::{prop_assert, prop_assert_eq, run_cases, Rng};

fn arb_f64_vec(rng: &mut Rng, max_len: usize) -> Vec<f64> {
    rng.vec_with(max_len, Rng::any_f64)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn introsort_correct() {
    run_cases("introsort_correct", 200, |rng| {
        let v = arb_f64_vec(rng, 500);
        let fp = fingerprint(&v);
        let mut s = v.clone();
        introsort(&mut s);
        prop_assert!(is_sorted(&s));
        prop_assert_eq!(fingerprint(&s), fp);
        Ok(())
    });
}

#[test]
fn heapsort_matches_introsort() {
    run_cases("heapsort_matches_introsort", 200, |rng| {
        let v = arb_f64_vec(rng, 300);
        let mut a = v.clone();
        let mut b = v;
        introsort(&mut a);
        heapsort(&mut b);
        prop_assert_eq!(bits(&a), bits(&b));
        Ok(())
    });
}

#[test]
fn radix_matches_introsort() {
    run_cases("radix_matches_introsort", 200, |rng| {
        let v = arb_f64_vec(rng, 500);
        let mut a = v.clone();
        let mut b = v;
        introsort(&mut a);
        radix_sort(&mut b);
        prop_assert_eq!(bits(&a), bits(&b));
        Ok(())
    });
}

#[test]
fn radix_u64_matches_std() {
    run_cases("radix_u64_matches_std", 200, |rng| {
        let v = rng.vec_with(500, Rng::u64);
        let mut a = v.clone();
        let mut b = v;
        a.sort_unstable();
        radix_sort(&mut b);
        prop_assert_eq!(a, b);
        Ok(())
    });
}

#[test]
fn radix_i64_matches_std() {
    run_cases("radix_i64_matches_std", 200, |rng| {
        let v = rng.vec_with(500, |r| r.u64() as i64);
        let mut a = v.clone();
        let mut b = v;
        a.sort_unstable();
        radix_sort(&mut b);
        prop_assert_eq!(a, b);
        Ok(())
    });
}

/// Lengths around the radix counter's four-key lane quads and its
/// 1 024-key count block, on both counting paths: one row per digit
/// under `SMALL_COUNT` keys, lane rows from there.
const LANE_LENS: [usize; 11] = [0, 1, 3, 4, 5, 1023, 1024, 1025, 2050, 3072, 4099];

/// A mask of whole key bytes: none, one, several or all of `bytes`.
fn byte_mask(rng: &mut Rng, bytes: usize) -> u64 {
    let full = |b: usize| 0xFFu64 << (8 * b);
    match rng.usize_in(0, 4) {
        0 => 0,
        1 => full(rng.usize_in(0, bytes)),
        2 => (0..bytes).filter(|_| rng.bool()).map(full).sum(),
        _ => (0..bytes).map(full).sum(),
    }
}

/// `radix_sort` must equal a stable comparison sort bit for bit (`bits`
/// exposes payloads, so `KeyValue` pins stability), and
/// `radix_sort_with_scratch` must run exactly one pass per key byte that
/// varies, which is the number of digits the lane path scatters.
fn radix_agrees<T: RadixKey + SortOrd + Default>(
    v: Vec<T>,
    bits: impl Fn(&T) -> (u64, u64),
    case: &str,
) -> Result<(), String> {
    let mut expect = v.clone();
    expect.sort_by(|a, b| a.total_order(b));
    let mut got = v.clone();
    radix_sort(&mut got);
    let as_bits = |xs: &[T]| xs.iter().map(&bits).collect::<Vec<_>>();
    prop_assert!(as_bits(&got) == as_bits(&expect), "{case}: output differs");

    let byte = |x: &T, d: usize| (x.radix_key() >> (8 * d)) & 0xFF;
    let varying = match v.first() {
        None => 0,
        Some(x0) => (0..T::KEY_BYTES)
            .filter(|&d| v.iter().any(|x| byte(x, d) != byte(x0, d)))
            .count(),
    };
    let (mut data, mut scratch) = (v.clone(), v);
    let passes = radix_sort_with_scratch(&mut data, &mut scratch);
    prop_assert!(
        passes == varying,
        "{case}: {passes} passes, {varying} varying bytes"
    );
    Ok(())
}

/// Keys that differ only in a random byte mask, at [`LANE_LENS`].
fn radix_counts_varying_bytes<T: RadixKey + SortOrd + Default>(
    name: &str,
    make: impl Fn(u64, usize) -> T,
    bits: impl Fn(&T) -> (u64, u64),
) {
    run_cases(name, 40, |rng| {
        for len in LANE_LENS {
            let mask = byte_mask(rng, T::KEY_BYTES);
            let base = rng.u64();
            let v: Vec<T> = (0..len)
                .map(|i| make(base ^ (rng.u64() & mask), i))
                .collect();
            radix_agrees(v, &bits, &format!("len {len}, mask {mask:#x}"))?;
        }
        Ok(())
    });
}

/// The last batch length that counts into one row per digit and the
/// first two that count into lane rows, over all-equal, two-value (one
/// random bit apart, so one digit varies in one bit), heavy-tailed (a
/// random key shifted right by 0–63 bits, so every byte is the top
/// varying one for some keys) and uniform keys.
fn radix_small_count_boundary<T: RadixKey + SortOrd + Default>(
    name: &str,
    make: impl Fn(u64, usize) -> T,
    bits: impl Fn(&T) -> (u64, u64),
) {
    run_cases(name, 6, |rng| {
        for len in [SMALL_COUNT - 1, SMALL_COUNT, SMALL_COUNT + 1] {
            for dist in ["all-equal", "two-value", "heavy-tailed", "uniform"] {
                let a = rng.u64();
                let b = a ^ 1 << rng.usize_in(0, 8 * T::KEY_BYTES);
                let v: Vec<T> = (0..len)
                    .map(|i| {
                        let key = match dist {
                            "all-equal" => a,
                            "two-value" => *rng.pick(&[a, b]),
                            "heavy-tailed" => rng.u64() >> rng.usize_in(0, 64),
                            _ => rng.u64(),
                        };
                        make(key, i)
                    })
                    .collect();
                radix_agrees(v, &bits, &format!("len {len}, {dist}"))?;
            }
        }
        Ok(())
    });
}

/// IEEE-754 specials as key bits, for the 4- and 8-byte types: a quiet
/// NaN, a negative NaN with a payload, −0, +0, ±∞ and the smallest and
/// largest-magnitude subnormals. The integer types read them as plain
/// (extreme) values.
const SPECIALS_32: [u64; 8] = [
    0x7FC0_0000,
    0xFFC0_0001,
    0x8000_0000,
    0,
    0x7F80_0000,
    0xFF80_0000,
    1,
    0x807F_FFFF,
];
const SPECIALS_64: [u64; 8] = [
    0x7FF8_0000_0000_0000,
    0xFFF8_0000_0000_0001,
    0x8000_0000_0000_0000,
    0,
    0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000,
    1,
    0x800F_FFFF_FFFF_FFFF,
];

/// Batches past the device sort's LSD bound, so it partitions, at
/// thread counts {1, 2, 3, 5}: each must equal `radix_sort` bit for bit
/// (`bits` exposes payloads, so `KeyValue` pins stability). Uniform
/// keys take a partial digit and finish buckets in cache; 16 distinct
/// keys (a 4-bit field at a random place) and two values take one
/// covering digit; all-equal keys take none; specials mix NaN payloads,
/// signed zeros, infinities and subnormals into uniform keys; one far
/// outlier over keys with their top bits clear puts nearly the whole
/// batch in one bucket, which is out of cache and partitioned again.
fn par_radix_partitions<T: RadixKey + SortOrd + Default>(
    name: &str,
    make: impl Fn(u64, usize) -> T,
    bits: impl Fn(&T) -> (u64, u64),
) {
    let width = 8 * T::KEY_BYTES;
    let specials: &[u64] = if width == 32 {
        &SPECIALS_32
    } else {
        &SPECIALS_64
    };
    let first = LSD_MAX_BYTES / std::mem::size_of::<T>() + 1;
    run_cases(name, 2, |rng| {
        for dist in [
            "uniform",
            "16-distinct",
            "two-value",
            "all-equal",
            "specials",
            "outlier",
        ] {
            let n = rng.usize_in(first, first + first / 4);
            let a = rng.u64();
            let b = a ^ 1 << rng.usize_in(0, width);
            let field = rng.usize_in(0, width - 3);
            let outlier = rng.usize_in(0, n);
            let v: Vec<T> = (0..n)
                .map(|i| {
                    let key = match dist {
                        "uniform" => rng.u64(),
                        "16-distinct" => a ^ (rng.u64() & 0xF) << field,
                        "two-value" => *rng.pick(&[a, b]),
                        "all-equal" => a,
                        "specials" if rng.bool() => *rng.pick(specials),
                        "outlier" if i == outlier => u64::MAX,
                        "outlier" => rng.u64() >> (64 - width + 12),
                        _ => rng.u64(),
                    };
                    make(key, i)
                })
                .collect();
            let as_bits = |xs: &[T]| xs.iter().map(&bits).collect::<Vec<_>>();
            let mut expect = v.clone();
            radix_sort(&mut expect);
            for threads in [1usize, 2, 3, 5] {
                let mut got = v.clone();
                par_radix_sort(threads, &mut got);
                prop_assert!(
                    as_bits(&got) == as_bits(&expect),
                    "{dist}, n {n}, threads {threads}: output differs"
                );
            }
        }
        Ok(())
    });
}

/// Run `$check(name, make, bits)` over the seven key types: `make(b, i)`
/// builds key `i` from the bits `b`, and `bits` exposes a key's bits and
/// payload.
macro_rules! every_key_type {
    ($check:ident, $prefix:literal) => {
        $check(
            concat!($prefix, "_u32"),
            |b, _| b as u32,
            |&x| (x as u64, 0),
        );
        $check(
            concat!($prefix, "_i32"),
            |b, _| b as i32,
            |&x| (x as u64, 0),
        );
        $check(
            concat!($prefix, "_f32"),
            |b, _| f32::from_bits(b as u32),
            |x| (x.to_bits() as u64, 0),
        );
        $check(concat!($prefix, "_u64"), |b, _| b, |&x| (x, 0));
        $check(
            concat!($prefix, "_i64"),
            |b, _| b as i64,
            |&x| (x as u64, 0),
        );
        $check(
            concat!($prefix, "_f64"),
            |b, _| f64::from_bits(b),
            |x| (x.to_bits(), 0),
        );
        $check(
            concat!($prefix, "_key_value"),
            |b, i| KeyValue {
                key: f64::from_bits(b),
                value: i as u64,
            },
            |x| (x.key.to_bits(), x.value),
        );
    };
}

#[test]
fn radix_counts_varying_bytes_of_every_key_type() {
    every_key_type!(radix_counts_varying_bytes, "radix_lanes");
}

#[test]
fn radix_small_count_boundary_of_every_key_type() {
    every_key_type!(radix_small_count_boundary, "radix_small");
}

#[test]
fn par_radix_partitions_every_key_type_like_serial_radix() {
    every_key_type!(par_radix_partitions, "par_radix_partitions");
}

#[test]
fn par_radix_matches_serial_radix() {
    run_cases("par_radix_matches_serial_radix", 100, |rng| {
        let v = arb_f64_vec(rng, 9000);
        let threads = rng.usize_in(2, 6);
        let mut a = v.clone();
        let mut b = v;
        radix_sort(&mut a);
        par_radix_sort(threads, &mut b);
        prop_assert_eq!(bits(&a), bits(&b));
        Ok(())
    });
}

#[test]
fn qsort_matches_introsort() {
    run_cases("qsort_matches_introsort", 200, |rng| {
        let v = arb_f64_vec(rng, 400);
        let mut a = v.clone();
        let mut b = v;
        introsort(&mut a);
        qsort(&mut b, cmp_f64);
        prop_assert_eq!(bits(&a), bits(&b));
        Ok(())
    });
}

#[test]
fn par_mergesort_matches_introsort() {
    run_cases("par_mergesort_matches_introsort", 200, |rng| {
        let v = arb_f64_vec(rng, 600);
        let threads = rng.usize_in(1, 6);
        let mut a = v.clone();
        let mut b = v;
        introsort(&mut a);
        par_mergesort(threads, &mut b);
        prop_assert_eq!(bits(&a), bits(&b));
        Ok(())
    });
}

#[test]
fn par_samplesort_matches_introsort() {
    run_cases("par_samplesort_matches_introsort", 200, |rng| {
        let v = arb_f64_vec(rng, 2000);
        let threads = rng.usize_in(1, 5);
        let mut a = v.clone();
        let mut b = v;
        introsort(&mut a);
        par_samplesort(threads, &mut b);
        prop_assert_eq!(bits(&a), bits(&b));
        Ok(())
    });
}
