//! Property tests for the self-scheduling runtime under adversarial
//! skew: for every partition granularity and thread count, the parallel
//! merge and radix sort must be *identical* to their sequential
//! references — across pathological list-length ratios (one list 10⁴×
//! longer than its siblings), constant keys (every comparison ties),
//! and float special values (NaN, ±0.0, ±∞).

use hetsort_algos::introsort::introsort;
use hetsort_algos::keys::SortOrd;
use hetsort_algos::multiway::{multiway_merge_into, par_multiway_merge_into_cfg};
use hetsort_algos::par::{SchedCfg, MIN_PART};
use hetsort_algos::radix_par::par_radix_sort_cfg;
use hetsort_algos::verify::is_sorted;
use hetsort_prng::{prop_assert, prop_assert_eq, run_cases, Rng};

const THREADS: [usize; 5] = [1, 2, 3, 8, 16];

/// Partition granularities: one part per worker (the static partition's
/// geometry), a coarse over-decomposition, and the default (16×).
fn policies() -> [SchedCfg; 3] {
    [1, 4, 0].map(|chunks_per_thread| SchedCfg { chunks_per_thread })
}

/// One long list plus a handful of tiny ones — the 10⁴× length-skew
/// shape that degenerates a static per-thread partition.
fn skewed_lists(rng: &mut Rng) -> Vec<Vec<u64>> {
    let long_len = rng.usize_in(10_000, 20_000);
    let k_short = rng.usize_in(1, 6);
    let mut lists = Vec::with_capacity(1 + k_short);
    let mut long: Vec<u64> = (0..long_len).map(|_| rng.u64_in(0, 5_000)).collect();
    long.sort_unstable();
    lists.push(long);
    for _ in 0..k_short {
        let mut s: Vec<u64> = (0..rng.usize_in(0, long_len / 10_000).max(1))
            .map(|_| rng.u64_in(0, 5_000))
            .collect();
        s.sort_unstable();
        lists.push(s);
    }
    lists
}

/// Asserts the suite still crosses the grain: a property whose inputs
/// all sit under two [`MIN_PART`]s only ever tests the inline path.
fn assert_crossed(name: &str, parallel_runs: usize) {
    assert!(
        parallel_runs > 0,
        "{name}: no case ran on more than one worker"
    );
}

#[test]
fn skewed_merge_identical_across_policies_and_threads() {
    let mut parallel = 0;
    run_cases("skewed_merge_identical", 40, |rng| {
        let lists = skewed_lists(rng);
        let views: Vec<&[u64]> = lists.iter().map(|l| l.as_slice()).collect();
        let total: usize = views.iter().map(|l| l.len()).sum();
        let mut seq = vec![0u64; total];
        multiway_merge_into(&views, &mut seq);
        for cfg in policies() {
            for threads in THREADS {
                let mut out = vec![0u64; total];
                let stats = par_multiway_merge_into_cfg(&cfg, threads, &views, &mut out);
                parallel += usize::from(stats.workers.len() > 1);
                prop_assert_eq!(&out, &seq);
            }
        }
        Ok(())
    });
    assert_crossed("skewed_merge_identical", parallel);
}

#[test]
fn constant_keys_merge_is_stable_concatenation() {
    let mut parallel = 0;
    run_cases("constant_keys_merge", 30, |rng| {
        // Every key equal: ties resolve by list index, so the stable
        // merge is exactly the concatenation of the input lists.
        let key = rng.u64();
        let k = rng.usize_in(2, 40);
        let lists: Vec<Vec<u64>> = (0..k).map(|_| vec![key; rng.usize_in(0, 4_000)]).collect();
        let views: Vec<&[u64]> = lists.iter().map(|l| l.as_slice()).collect();
        let total: usize = views.iter().map(|l| l.len()).sum();
        let expect: Vec<u64> = lists.concat();
        for cfg in policies() {
            for threads in THREADS {
                let mut out = vec![0u64; total];
                let stats = par_multiway_merge_into_cfg(&cfg, threads, &views, &mut out);
                parallel += usize::from(stats.workers.len() > 1);
                prop_assert_eq!(&out, &expect);
            }
        }
        Ok(())
    });
    assert_crossed("constant_keys_merge", parallel);
}

#[test]
fn float_specials_merge_identical_across_policies() {
    let mut parallel = 0;
    run_cases("float_specials_merge", 30, |rng| {
        let mk = |rng: &mut Rng, len: usize| -> Vec<f64> {
            let mut v: Vec<f64> = (0..len).map(|_| rng.any_f64()).collect();
            introsort(&mut v);
            v
        };
        // Length-skewed float lists seeded with NaN/±0.0/±∞ via any_f64.
        let long_len = rng.usize_in(2_000, 20_000);
        let short_a = rng.usize_in(0, 3);
        let short_b = rng.usize_in(0, 3);
        let lists = [mk(rng, long_len), mk(rng, short_a), mk(rng, short_b)];
        let views: Vec<&[f64]> = lists.iter().map(|l| l.as_slice()).collect();
        let total: usize = views.iter().map(|l| l.len()).sum();
        let mut seq = vec![0.0f64; total];
        multiway_merge_into(&views, &mut seq);
        let seq_bits: Vec<u64> = seq.iter().map(|x| x.to_bits()).collect();
        for cfg in policies() {
            for threads in THREADS {
                let mut out = vec![0.0f64; total];
                let stats = par_multiway_merge_into_cfg(&cfg, threads, &views, &mut out);
                parallel += usize::from(stats.workers.len() > 1);
                let bits: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&bits, &seq_bits);
            }
        }
        Ok(())
    });
    assert_crossed("float_specials_merge", parallel);
}

#[test]
fn radix_identical_across_policies_and_threads() {
    // The device sort reports no stats: count the inputs that are
    // sliced (two grains or more) instead.
    let mut sliced = 0;
    run_cases("radix_identical", 30, |rng| {
        // Mix of uniform, constant, and special floats.
        let n = rng.usize_in(1, 40_000);
        sliced += usize::from(n >= 2 * MIN_PART);
        let constant = rng.bool();
        let data: Vec<f64> = if constant {
            vec![rng.any_f64(); n]
        } else {
            (0..n).map(|_| rng.any_f64()).collect()
        };
        let mut expect = data.clone();
        introsort(&mut expect);
        let expect_bits: Vec<u64> = expect.iter().map(|x| x.to_bits()).collect();
        for cfg in policies() {
            for threads in THREADS {
                let mut v = data.clone();
                par_radix_sort_cfg(&cfg, threads, &mut v);
                prop_assert!(is_sorted(&v), "threads={} cfg={:?}", threads, cfg);
                let bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&bits, &expect_bits);
            }
        }
        Ok(())
    });
    assert_crossed("radix_identical", sliced);
}

/// The SortOrd total order puts NaN last; a tiny deterministic spot
/// check that the property tests' oracle agrees with the documented
/// order (guards against the oracle itself drifting).
#[test]
fn total_order_spot_check() {
    let vals = [f64::NAN, -0.0, 0.0, f64::NEG_INFINITY, 1.0];
    let mut v = vals.to_vec();
    introsort(&mut v);
    assert_eq!(v[0].to_bits(), f64::NEG_INFINITY.to_bits());
    assert_eq!(v[1].to_bits(), (-0.0f64).to_bits());
    assert_eq!(v[2].to_bits(), 0.0f64.to_bits());
    assert!(v[4].is_nan());
    assert!(SortOrd::lt(&-0.0f64, &0.0f64), "-0.0 orders before +0.0");
}
