//! Property tests over the whole pipeline: arbitrary configurations ×
//! arbitrary data must sort correctly, and plan/simulation invariants
//! must hold for any geometry.

use std::sync::Arc;

use hetsort::algos::verify::{fingerprint, is_sorted};
use hetsort::core::{
    sort_real, Approach, HetSortConfig, HetSortError, PairStrategy, Plan, RecoveryPolicy,
};
use hetsort::vgpu::{platform1, platform2, FaultInjector};
use hetsort_prng::{prop_assert, prop_assert_eq, run_cases, Rng};

fn arb_approach(rng: &mut Rng) -> Approach {
    *rng.pick(&[
        Approach::BLineMulti,
        Approach::PipeData,
        Approach::PipeMerge,
    ])
}

fn arb_strategy(rng: &mut Rng) -> PairStrategy {
    *rng.pick(&[
        PairStrategy::PaperHeuristic,
        PairStrategy::Online,
        PairStrategy::MergeTree,
    ])
}

fn lcg_data(n: usize, seed: u64) -> Vec<f64> {
    // Deterministic pseudo-random data incl. negatives.
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

#[test]
fn random_configs_sort_random_data() {
    run_cases("random_configs_sort_random_data", 40, |rng| {
        let approach = arb_approach(rng);
        let plat = if rng.bool() { platform2() } else { platform1() };
        let n = rng.usize_in(1, 5_000);
        let bs = ((n as f64 * rng.f64_in(0.05, 1.0)) as usize).max(1);
        let ps = ((bs as f64 * rng.f64_in(0.05, 1.0)) as usize).max(1);
        let mut cfg = HetSortConfig::paper_defaults(plat, approach)
            .with_batch_elems(bs)
            .with_pinned_elems(ps)
            .with_streams(rng.usize_in(1, 3));
        if rng.bool() {
            cfg = cfg.with_par_memcpy();
        }
        let data = lcg_data(n, rng.u64());
        let fp = fingerprint(&data);
        let out = sort_real(cfg, &data).map_err(|e| e.to_string())?;
        prop_assert!(out.verified);
        prop_assert!(is_sorted(&out.sorted));
        prop_assert_eq!(fingerprint(&out.sorted), fp);
        Ok(())
    });
}

#[test]
fn concurrent_executor_matches_sequential() {
    run_cases("concurrent_executor_matches_sequential", 40, |rng| {
        let approach = arb_approach(rng);
        let strategy = arb_strategy(rng);
        let n = rng.usize_in(100, 4_000);
        let bs = ((n as f64 * rng.f64_in(0.1, 1.0)) as usize).max(1);
        let ps = (bs / 3).max(1);
        let cfg = HetSortConfig::paper_defaults(platform1(), approach)
            .with_batch_elems(bs)
            .with_pinned_elems(ps)
            .with_streams(rng.usize_in(1, 3))
            .with_pair_strategy(strategy);
        let data = lcg_data(n, rng.u64());
        let plan = Plan::build(cfg, n).map_err(|e| e.to_string())?;
        let seq =
            hetsort::core::exec_real::sort_real_plan(&plan, &data).map_err(|e| e.to_string())?;
        let par = hetsort::core::sort_real_parallel(&plan, &data).map_err(|e| e.to_string())?;
        prop_assert!(seq.verified && par.verified);
        prop_assert_eq!(
            seq.sorted.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            par.sorted.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        Ok(())
    });
}

#[test]
fn kv_records_sort_for_random_configs() {
    run_cases("kv_records_sort_for_random_configs", 40, |rng| {
        let approach = arb_approach(rng);
        let n = rng.usize_in(100, 3_000);
        let bs = ((n as f64 * rng.f64_in(0.1, 1.0)) as usize).max(1);
        let cfg = HetSortConfig::paper_defaults(platform1(), approach)
            .with_elem_bytes(hetsort::core::ElemWidth::KeyValue)
            .with_batch_elems(bs)
            .with_pinned_elems((bs / 4).max(1));
        let records = hetsort::workloads::generate_kv(
            hetsort::workloads::Distribution::Uniform,
            n,
            rng.u64(),
        )
        .map_err(|e| e.to_string())?;
        let out = sort_real(cfg, &records).map_err(|e| e.to_string())?;
        prop_assert!(out.verified);
        prop_assert!(is_sorted(&out.sorted));
        // Payload multiset intact.
        let mut payloads: Vec<u64> = out.sorted.iter().map(|r| r.value).collect();
        payloads.sort_unstable();
        prop_assert!(payloads.iter().enumerate().all(|(i, &v)| v == i as u64));
        Ok(())
    });
}

#[test]
fn any_fault_schedule_recovers_or_fails_typed() {
    run_cases("any_fault_schedule_recovers_or_fails_typed", 40, |rng| {
        let approach = arb_approach(rng);
        let n = rng.usize_in(500, 5_000);
        let bs = ((n as f64 * rng.f64_in(0.1, 0.6)) as usize).max(1);
        let ps = (bs / 3).max(1);
        let base = HetSortConfig::paper_defaults(platform1(), approach)
            .with_batch_elems(bs)
            .with_pinned_elems(ps);
        let fault_seed = rng.u64();
        let n_faults = rng.usize_in(1, 6);
        let data = lcg_data(n, rng.u64());
        let fp = fingerprint(&data);

        // With recovery: ANY schedule must yield a verified permutation.
        let cfg = base
            .clone()
            .with_faults(Arc::new(FaultInjector::from_seed(fault_seed, n_faults)));
        let out = sort_real(cfg, &data).map_err(|e| e.to_string())?;
        prop_assert!(out.verified);
        prop_assert!(is_sorted(&out.sorted));
        prop_assert_eq!(fingerprint(&out.sorted), fp);

        // Without recovery: the SAME schedule (fresh injector) either
        // never trips or fails with a typed fault error — no panics.
        let cfg = base
            .with_recovery(RecoveryPolicy::none())
            .with_faults(Arc::new(FaultInjector::from_seed(fault_seed, n_faults)));
        match sort_real(cfg, &data) {
            Ok(out) => {
                prop_assert!(out.verified);
                prop_assert_eq!(out.recovery.faults_injected, 0);
            }
            Err(e) => prop_assert!(matches!(
                e,
                HetSortError::GpuOom { batch: Some(_), .. }
                    | HetSortError::TransferFault { .. }
                    | HetSortError::DeviceSortFault { .. }
            )),
        }
        Ok(())
    });
}

#[test]
fn plans_always_satisfy_invariants() {
    run_cases("plans_always_satisfy_invariants", 40, |rng| {
        let approach = arb_approach(rng);
        let strategy = arb_strategy(rng);
        let plat = if rng.bool() { platform2() } else { platform1() };
        let n = rng.usize_in(1, 100_000);
        let bs = rng.usize_in(1, 20_000);
        let ps = ((bs as f64 * rng.f64_in(0.01, 1.0)) as usize).max(1);
        let cfg = HetSortConfig::paper_defaults(plat, approach)
            .with_batch_elems(bs)
            .with_pinned_elems(ps)
            .with_streams(rng.usize_in(1, 4))
            .with_pair_strategy(strategy);
        if let Ok(plan) = Plan::build(cfg.clone(), n) {
            plan.validate().map_err(|e| e.to_string())?;
            if strategy == PairStrategy::PaperHeuristic {
                // The heuristic bound: never pair-merge past the batch
                // list, and the count matches §III-D3's formula.
                prop_assert!(2 * plan.pairs.len() <= plan.nb());
                prop_assert_eq!(plan.pairs.len(), cfg.pipelined_pair_merges(plan.nb()));
            } else if cfg.approach == Approach::PipeMerge && plan.nb() > 1 {
                // Rejected strategies always reduce to a single list.
                prop_assert_eq!(plan.pairs.len(), plan.nb() - 1);
            }
        }
        Ok(())
    });
}
