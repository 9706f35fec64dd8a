//! Adversarial differential tests for the optimized host kernels.
//!
//! The branchless `merge_into`, the multiway merge's tree of two-way
//! merges, the parallel wrappers and the partition-then-buckets device sort must
//! reproduce the straightforward reference kernels **bit for bit** —
//! including on inputs chosen to break float-comparison shortcuts: NaNs
//! with distinct payloads, signed zeros, infinities, and constant keys
//! (where stability is the only thing distinguishing correct from wrong
//! output).

use hetsort_algos::keys::{KeyValue, SortOrd};
use hetsort_algos::merge::{
    merge_into, merge_into_reference, par_merge_into_cfg, CHAIN_MIN_LEN, MERGE_CHAINS,
};
use hetsort_algos::multiway::{
    multiway_merge_into, par_multiway_merge_into_cfg, MERGE_SCRATCH_ELEMS,
};
use hetsort_algos::radix::radix_sort;
use hetsort_algos::radix_par::{par_radix_sort_cfg, LSD_MAX_BYTES};
use hetsort_algos::SchedCfg;
use hetsort_prng::{prop_assert_eq, run_cases, Rng};

/// Adversarial f64 pool: every IEEE-754 special the total order must
/// rank, with two distinct NaN payloads so bit-identity (not just
/// value-identity) is observable.
const SPECIALS: [f64; 8] = [
    f64::NEG_INFINITY,
    -1.5,
    -0.0,
    0.0,
    1.5,
    f64::INFINITY,
    f64::NAN,
    f64::MIN_POSITIVE,
];

fn adversarial_key(r: &mut Rng) -> f64 {
    let pick = r.usize_in(0, 9);
    if pick < SPECIALS.len() {
        SPECIALS[pick]
    } else if pick == SPECIALS.len() {
        // A second NaN payload, distinguishable only by bits.
        f64::from_bits(0x7FF8_0000_0000_0001)
    } else {
        r.f64_unit() * 200.0 - 100.0
    }
}

fn adversarial_sorted(rng: &mut Rng, max_len: usize) -> Vec<f64> {
    let mut v = rng.vec_with(max_len, adversarial_key);
    v.sort_by(|a, b| a.total_order(b));
    v
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Left fold of the two-way *reference* merge: the stability oracle for
/// every k-way variant (earlier lists win ties).
fn fold_reference<T: SortOrd + Default>(lists: &[&[T]]) -> Vec<T> {
    let mut acc: Vec<T> = Vec::new();
    for l in lists {
        let mut merged = vec![T::default(); acc.len() + l.len()];
        merge_into_reference(&acc, l, &mut merged);
        acc = merged;
    }
    acc
}

/// Asserts a property still crosses the grain: inputs that all sit
/// under two `MIN_PART`s only ever test the inline path.
fn assert_crossed(name: &str, parallel_runs: usize) {
    assert!(
        parallel_runs > 0,
        "{name}: no case ran on more than one worker"
    );
}

#[test]
fn branchless_merge_matches_reference_on_specials() {
    let mut parallel = 0;
    run_cases(
        "branchless_merge_matches_reference_on_specials",
        200,
        |rng| {
            let a = adversarial_sorted(rng, 6_000);
            let b = adversarial_sorted(rng, 6_000);
            let mut expect = vec![0.0f64; a.len() + b.len()];
            merge_into_reference(&a, &b, &mut expect);
            let mut got = vec![0.0f64; expect.len()];
            merge_into(&a, &b, &mut got);
            prop_assert_eq!(bits(&got), bits(&expect));
            for threads in [1usize, 2, 8] {
                let mut par = vec![0.0f64; expect.len()];
                let stats = par_merge_into_cfg(&SchedCfg::default(), threads, &a, &b, &mut par);
                parallel += usize::from(stats.workers.len() > 1);
                prop_assert_eq!((threads, bits(&par)), (threads, bits(&expect)));
            }
            Ok(())
        },
    );
    assert_crossed("branchless_merge", parallel);
}

#[test]
fn constant_keys_merge_stably_and_bit_identically() {
    // All keys equal: every output position is decided purely by the
    // tie rule. -0.0 vs +0.0 would surface any a/b swap as a sign-bit
    // difference even though the values compare equal under ==.
    // 9 230 elements: two grains, so threads > 1 runs two workers.
    let a = vec![-0.0f64; 5_133];
    let b = vec![0.0f64; 4_097];
    let mut expect = vec![1.0f64; a.len() + b.len()];
    merge_into_reference(&a, &b, &mut expect);
    let mut got = vec![1.0f64; expect.len()];
    merge_into(&a, &b, &mut got);
    assert_eq!(bits(&got), bits(&expect));
    for threads in [1usize, 2, 8] {
        let mut par = vec![1.0f64; expect.len()];
        let stats = par_merge_into_cfg(&SchedCfg::default(), threads, &a, &b, &mut par);
        assert_eq!(bits(&par), bits(&expect), "threads={threads}");
        assert_eq!(stats.workers.len() > 1, threads > 1, "threads={threads}");
    }
    // Same discipline through the multiway tree: list index breaks ties.
    let lists: Vec<&[f64]> = vec![&a, &b, &a];
    let expect = fold_reference(&lists);
    let mut got = vec![1.0f64; expect.len()];
    multiway_merge_into(&lists, &mut got);
    assert_eq!(bits(&got), bits(&expect));
    for threads in [2usize, 8] {
        let mut par = vec![1.0f64; expect.len()];
        let stats = par_multiway_merge_into_cfg(&SchedCfg::default(), threads, &lists, &mut par);
        assert_eq!(bits(&par), bits(&expect), "threads={threads}");
        assert!(stats.workers.len() > 1, "threads={threads}");
    }
}

/// `(key bits, payload)` of each record: equal only if bit-identical.
fn kv_bits(v: &[KeyValue]) -> Vec<(u64, u64)> {
    v.iter().map(|r| (r.key.to_bits(), r.value)).collect()
}

#[test]
fn multiway_tree_matches_fold_oracle() {
    let mut parallel = 0;
    run_cases("multiway_tree_matches_fold_oracle", 120, |rng| {
        let k = rng.usize_in(3, 9);
        let lists: Vec<Vec<f64>> = (0..k).map(|_| adversarial_sorted(rng, 4_000)).collect();
        let refs: Vec<&[f64]> = lists.iter().map(|l| l.as_slice()).collect();
        let expect = fold_reference(&refs);
        let mut got = vec![0.0f64; expect.len()];
        multiway_merge_into(&refs, &mut got);
        prop_assert_eq!(bits(&got), bits(&expect));
        for threads in [1usize, 2, 8] {
            let mut par = vec![0.0f64; expect.len()];
            let stats = par_multiway_merge_into_cfg(&SchedCfg::default(), threads, &refs, &mut par);
            parallel += usize::from(stats.workers.len() > 1);
            prop_assert_eq!((threads, bits(&par)), (threads, bits(&expect)));
        }
        Ok(())
    });
    assert_crossed("multiway_tree", parallel);

    // Block crossing and stability: four distinct keys, payload =
    // (list, index), and totals past MERGE_SCRATCH_ELEMS / w at every
    // width, one worker included, so each merge is cut into several
    // parts, and part boundaries and tree levels sit inside runs of
    // ties. A tree merge that takes its right half first on ties
    // reorders payloads.
    const KEYS: [f64; 4] = [-0.0, 0.0, 1.5, f64::NAN];
    let mut rng = Rng::new(0x7EE5);
    for k in [3usize, 5, 16, 17] {
        let total = MERGE_SCRATCH_ELEMS + 4_099 * k;
        // Uneven lengths: list t holds a (t + 1)-weighted share.
        let weight = k * (k + 1) / 2;
        let mut lens: Vec<usize> = (1..=k).map(|w| total * w / weight).collect();
        lens[k - 1] += total - lens.iter().sum::<usize>();
        let lists: Vec<Vec<KeyValue>> = lens
            .iter()
            .enumerate()
            .map(|(t, &len)| {
                let mut keys: Vec<f64> = (0..len).map(|_| *rng.pick(&KEYS)).collect();
                keys.sort_by(|a, b| a.total_order(b));
                let payload = |i: usize| ((t as u64) << 32) | i as u64;
                let records = keys.into_iter().enumerate();
                records
                    .map(|(i, key)| KeyValue {
                        key,
                        value: payload(i),
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[KeyValue]> = lists.iter().map(Vec::as_slice).collect();
        let expect = kv_bits(&fold_reference(&refs));
        let mut got = vec![KeyValue::default(); total];
        multiway_merge_into(&refs, &mut got);
        assert_eq!(kv_bits(&got), expect, "k={k} sequential");
        for threads in [1usize, 2, 8] {
            let mut par = vec![KeyValue::default(); total];
            let stats = par_multiway_merge_into_cfg(&SchedCfg::default(), threads, &refs, &mut par);
            assert_eq!(kv_bits(&par), expect, "k={k} threads={threads}");
            let min_parts = (total * threads).div_ceil(MERGE_SCRATCH_ELEMS);
            assert!(
                stats.parts >= min_parts,
                "k={k} threads={threads}: {} parts, the scratch bound needs {min_parts}",
                stats.parts
            );
        }
    }
}

#[test]
fn merge_tail_copy_handles_disjoint_ranges() {
    // One input entirely precedes the other: the branchless loop exits
    // after the first few iterations and the bulk goes through the tail
    // copy_from_slice — exercise both orders, with specials at edges.
    let lo = {
        let mut v = vec![f64::NEG_INFINITY, -3.0, -2.0, -1.0, -0.0];
        v.sort_by(|a, b| a.total_order(b));
        v
    };
    let hi = vec![0.0f64, 1.0, 2.0, f64::INFINITY, f64::NAN];
    for (a, b) in [(&lo, &hi), (&hi, &lo)] {
        let mut expect = vec![0.0f64; a.len() + b.len()];
        merge_into_reference(a, b, &mut expect);
        let mut got = vec![0.0f64; expect.len()];
        merge_into(a, b, &mut got);
        assert_eq!(bits(&got), bits(&expect));
    }
}

/// `merge_into` cuts an output of at least `CHAIN_MIN_LEN` elements at
/// `c·n/MERGE_CHAINS` by co-rank and runs the blocks as independent
/// chains. Ties must stay with `a` at every cut: records of a 4-key
/// alphabet, payload = position in `a ++ b`, so ties straddle every cut
/// and any reordering of equal keys changes a payload.
#[test]
fn merge_chain_cuts_keep_ties_stable() {
    const KEYS: [f64; 4] = [-0.0, 0.0, 1.5, f64::NAN];
    let records = |keys: &[f64], first: u64| -> Vec<KeyValue> {
        let mut keys = keys.to_vec();
        keys.sort_by(|a, b| a.total_order(b));
        (first..)
            .zip(keys)
            .map(|(value, key)| KeyValue { key, value })
            .collect()
    };
    let check = |a: &[KeyValue], b: &[KeyValue], what: &str| {
        let mut want = vec![KeyValue::default(); a.len() + b.len()];
        merge_into_reference(a, b, &mut want);
        let want = kv_bits(&want);
        let mut got = vec![KeyValue::default(); want.len()];
        merge_into(a, b, &mut got);
        assert_eq!(kv_bits(&got), want, "{what}: merge_into");
        for threads in [1usize, 2, 8] {
            got.fill(KeyValue::default());
            par_merge_into_cfg(&SchedCfg::default(), threads, a, b, &mut got);
            assert_eq!(kv_bits(&got), want, "{what}: threads={threads}");
        }
        got.fill(KeyValue::default());
        multiway_merge_into(&[a, b], &mut got);
        assert_eq!(kv_bits(&got), want, "{what}: multiway, two lists");
        let lists: [&[KeyValue]; 3] = [a, b, a];
        let want = kv_bits(&fold_reference(&lists));
        let mut got = vec![KeyValue::default(); want.len()];
        multiway_merge_into(&lists, &mut got);
        assert_eq!(kv_bits(&got), want, "{what}: multiway, three lists");
    };

    let bound = CHAIN_MIN_LEN;
    let c = MERGE_CHAINS;
    let mut totals = vec![bound - 1, bound, bound + 1];
    for m in [bound / c, bound / c + 1, 1_000, 3_000] {
        totals.extend((0..c).map(|r| c * m + r));
    }
    let mut rng = Rng::new(0xC4A1);
    for &n in &totals {
        for la in [1, n / 3, n / 2, n / 2 + 1, n - 1] {
            let lb = n - la;
            let what = format!("n={n} |a|={la}");
            let mut keys = |len| (0..len).map(|_| *rng.pick(&KEYS)).collect::<Vec<_>>();
            let (ka, kb) = (keys(la), keys(lb));
            check(&records(&ka, 0), &records(&kb, la as u64), &what);
            // A chain whose `b` block is empty: the first cuts fall in
            // a run of `a` keys below every key of `b`, and one large
            // `a` key keeps the merge off the ordered-halves copy.
            let mut ka = vec![KEYS[0]; la - 1];
            ka.push(KEYS[3]);
            let a = records(&ka, 0);
            let b = records(&vec![KEYS[1]; lb], la as u64);
            check(&a, &b, &format!("{what}, empty b block"));
            // A chain whose `a` block is empty: one small `a` key, then
            // keys above every key of `b`.
            let mut ka = vec![KEYS[2]; la - 1];
            ka.insert(0, KEYS[0]);
            let a = records(&ka, 0);
            check(&a, &b, &format!("{what}, empty a block"));
            // All keys equal under `==`: +0.0 in `a`, -0.0 in `b`, so
            // the total order puts all of `b` first; then both signs
            // mixed on both sides.
            let a = records(&vec![0.0; la], 0);
            let b = records(&vec![-0.0; lb], la as u64);
            check(&a, &b, &format!("{what}, +0.0 before -0.0"));
            let mut zeros = |len| (0..len).map(|_| *rng.pick(&KEYS[..2])).collect::<Vec<_>>();
            let (za, zb) = (zeros(la), zeros(lb));
            check(
                &records(&za, 0),
                &records(&zb, la as u64),
                &format!("{what}, mixed zeros"),
            );
        }
    }
}

/// Worker counts of the device-sort cases: inline, the two-core box,
/// odd part counts, more workers than the smallest partitioned inputs
/// have grains.
const SORT_THREADS: [usize; 6] = [1, 2, 3, 4, 7, 16];

#[test]
fn device_sort_matches_sequential_radix_on_specials() {
    // Lengths straddle the LSD bound, where the partition starts, and
    // none is a multiple of every worker count.
    const B: usize = LSD_MAX_BYTES / 8;
    const LENS: [usize; 5] = [B - 1, B, B + 1, B + 12_289, 2 * B + 11];
    run_cases(
        "device_sort_matches_sequential_radix_on_specials",
        6,
        |rng| {
            let n = LENS[rng.usize_in(0, LENS.len() - 1)];
            let base: Vec<f64> = (0..n).map(|_| adversarial_key(rng)).collect();
            let mut by_order = base.clone();
            by_order.sort_by(|a, b| a.total_order(b));
            let mut seq = base.clone();
            radix_sort(&mut seq);
            prop_assert_eq!(bits(&seq), bits(&by_order));
            for chunks_per_thread in [1u32, 4, 0] {
                let cfg = SchedCfg { chunks_per_thread };
                for threads in SORT_THREADS {
                    let mut par = base.clone();
                    par_radix_sort_cfg(&cfg, threads, &mut par);
                    prop_assert_eq!(
                        (n, chunks_per_thread, threads, bits(&par)),
                        (n, chunks_per_thread, threads, bits(&seq))
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn device_sort_is_stable_across_buckets_and_worker_parts() {
    // Five distinct keys, payload = input index: the only correct order
    // of equal keys is ascending payload. Every worker part holds keys
    // of every bucket, so each bucket is assembled from all the parts,
    // and 1.5 and its successor share the first digit: their bucket,
    // 2/5 of the batch and past the LSD bound, is partitioned again.
    const KEYS: [f64; 5] = [-0.0, 0.0, 1.5, 1.5 + f64::EPSILON, f64::NAN];
    let n = 3 * LSD_MAX_BYTES / std::mem::size_of::<KeyValue>() + 1;
    let base: Vec<KeyValue> = (0..n)
        .map(|i| KeyValue {
            key: KEYS[(i * 7 + i / 3) % KEYS.len()],
            value: i as u64,
        })
        .collect();
    for threads in SORT_THREADS {
        let mut v = base.clone();
        par_radix_sort_cfg(&SchedCfg::default(), threads, &mut v);
        assert_eq!(v.len(), n);
        for w in v.windows(2) {
            match w[0].total_order(&w[1]) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => assert!(
                    w[0].value < w[1].value,
                    "threads={threads}: payload {} precedes {} within one key",
                    w[0].value,
                    w[1].value
                ),
                std::cmp::Ordering::Greater => panic!("threads={threads}: unsorted"),
            }
        }
    }
}
