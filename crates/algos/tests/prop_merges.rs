//! Property tests for the merge machinery: co-rank invariants, merge
//! path partitioning, multisequence selection, and parallel/sequential
//! agreement of every merge variant.

use hetsort_algos::merge::{co_rank, merge_into, par_merge_into};
use hetsort_algos::multiway::{multiway_cuts, multiway_merge_into, par_multiway_merge_into};
use hetsort_algos::verify::{combine, fingerprint, is_sorted, Fingerprint};
use hetsort_prng::{prop_assert, prop_assert_eq, run_cases, Rng};

fn sorted_vec(rng: &mut Rng, max_len: usize) -> Vec<u32> {
    let mut v = rng.vec_with(max_len, |r| r.u32_in(0, 1000));
    v.sort_unstable();
    v
}

fn sorted_lists(rng: &mut Rng, max_lists: usize, max_len: usize) -> Vec<Vec<u32>> {
    let k = rng.usize_in(1, max_lists);
    (0..k).map(|_| sorted_vec(rng, max_len)).collect()
}

#[test]
fn merge_is_sorted_permutation() {
    run_cases("merge_is_sorted_permutation", 250, |rng| {
        let a = sorted_vec(rng, 200);
        let b = sorted_vec(rng, 200);
        let mut out = vec![0u32; a.len() + b.len()];
        merge_into(&a, &b, &mut out);
        prop_assert!(is_sorted(&out));
        prop_assert_eq!(fingerprint(&out), combine(fingerprint(&a), fingerprint(&b)));
        Ok(())
    });
}

#[test]
fn co_rank_defines_exact_prefix() {
    run_cases("co_rank_defines_exact_prefix", 250, |rng| {
        let a = sorted_vec(rng, 100);
        let b = sorted_vec(rng, 100);
        let total = a.len() + b.len();
        let k = ((total as f64) * rng.f64_unit()) as usize;
        let (i, j) = co_rank(k, &a, &b);
        prop_assert_eq!(i + j, k);
        // Merge-path invariants: everything in the prefix ≤ everything
        // in the suffix, with stability (a wins ties at the boundary):
        if i > 0 && j < b.len() {
            prop_assert!(a[i - 1] <= b[j], "a-prefix must be ≤ b-suffix");
        }
        if j > 0 && i < a.len() {
            prop_assert!(b[j - 1] < a[i], "b-prefix must be < a-suffix (stability)");
        }
        Ok(())
    });
}

#[test]
fn par_merge_equals_seq_merge() {
    run_cases("par_merge_equals_seq_merge", 250, |rng| {
        let a = sorted_vec(rng, 300);
        let b = sorted_vec(rng, 300);
        let threads = rng.usize_in(1, 6);
        let mut seq = vec![0u32; a.len() + b.len()];
        merge_into(&a, &b, &mut seq);
        let mut par = vec![0u32; a.len() + b.len()];
        par_merge_into(threads, &a, &b, &mut par);
        prop_assert_eq!(par, seq);
        Ok(())
    });
}

#[test]
fn multiway_is_sorted_permutation() {
    run_cases("multiway_is_sorted_permutation", 250, |rng| {
        let lists = if rng.bool() {
            sorted_lists(rng, 8, 80)
        } else {
            Vec::new() // zero lists is a legal input
        };
        let refs: Vec<&[u32]> = lists.iter().map(|v| v.as_slice()).collect();
        let total: usize = refs.iter().map(|l| l.len()).sum();
        let mut out = vec![0u32; total];
        multiway_merge_into(&refs, &mut out);
        prop_assert!(is_sorted(&out));
        let mut fp = Fingerprint::EMPTY;
        for l in &refs {
            fp = combine(fp, fingerprint(l));
        }
        prop_assert_eq!(fingerprint(&out), fp);
        Ok(())
    });
}

#[test]
fn multiway_equals_iterated_pairwise() {
    run_cases("multiway_equals_iterated_pairwise", 250, |rng| {
        let lists = sorted_lists(rng, 7, 60);
        let refs: Vec<&[u32]> = lists.iter().map(|v| v.as_slice()).collect();
        let total: usize = refs.iter().map(|l| l.len()).sum();
        let mut out = vec![0u32; total];
        multiway_merge_into(&refs, &mut out);
        // Oracle: fold with stable pairwise merges left-to-right.
        let mut acc: Vec<u32> = Vec::new();
        for l in &refs {
            let mut next = vec![0u32; acc.len() + l.len()];
            merge_into(&acc, l, &mut next);
            acc = next;
        }
        prop_assert_eq!(out, acc);
        Ok(())
    });
}

#[test]
fn multiway_cuts_partition_prefix() {
    run_cases("multiway_cuts_partition_prefix", 250, |rng| {
        let lists = sorted_lists(rng, 6, 50);
        let refs: Vec<&[u32]> = lists.iter().map(|v| v.as_slice()).collect();
        let total: usize = refs.iter().map(|l| l.len()).sum();
        let k = ((total as f64) * rng.f64_unit()) as usize;
        let cuts = multiway_cuts(&refs, k);
        prop_assert_eq!(cuts.iter().sum::<usize>(), k);
        // Prefix multiset equals the first k of the true merge.
        let mut out = vec![0u32; total];
        multiway_merge_into(&refs, &mut out);
        let mut expect = out[..k].to_vec();
        expect.sort_unstable();
        let mut prefix: Vec<u32> = Vec::new();
        for (t, &c) in cuts.iter().enumerate() {
            prefix.extend_from_slice(&refs[t][..c]);
        }
        prefix.sort_unstable();
        prop_assert_eq!(prefix, expect);
        Ok(())
    });
}

#[test]
fn par_multiway_equals_seq() {
    run_cases("par_multiway_equals_seq", 250, |rng| {
        let lists = sorted_lists(rng, 7, 100);
        let threads = rng.usize_in(1, 6);
        let refs: Vec<&[u32]> = lists.iter().map(|v| v.as_slice()).collect();
        let total: usize = refs.iter().map(|l| l.len()).sum();
        let mut seq = vec![0u32; total];
        multiway_merge_into(&refs, &mut seq);
        let mut par = vec![0u32; total];
        par_multiway_merge_into(threads, &refs, &mut par);
        prop_assert_eq!(par, seq);
        Ok(())
    });
}

#[test]
fn merges_handle_float_specials() {
    run_cases("merges_handle_float_specials", 250, |rng| {
        let mut a = rng.vec_with(100, Rng::any_f64);
        let mut b = rng.vec_with(100, Rng::any_f64);
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        let mut out = vec![0.0f64; a.len() + b.len()];
        par_merge_into(3, &a, &b, &mut out);
        prop_assert!(is_sorted(&out));
        prop_assert_eq!(fingerprint(&out), combine(fingerprint(&a), fingerprint(&b)));
        Ok(())
    });
}
