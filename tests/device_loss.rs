//! Acceptance tests for device fault domains at the executor level:
//! a scheduled `DeviceLost` mid-run must trigger an in-flight re-plan
//! onto the surviving GPUs (or the CPU when none survive), with
//! bitwise-correct output, accurate recovery stats, and re-plans that
//! hold up under the analyzer's residency math.

use std::collections::BTreeSet;
use std::sync::Arc;

use hetsort::core::Residency;
use hetsort::core::{
    sort_real, sort_real_parallel, Approach, HetSortConfig, HetSortError, Plan, RecoveryPolicy,
};
use hetsort::vgpu::{platform1, platform2, FaultInjector};

fn lcg_data(n: usize, seed: u64) -> Vec<f64> {
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

fn sorted_reference(data: &[f64]) -> Vec<f64> {
    let mut v = data.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Two GPUs, several batches on each.
fn cfg2() -> HetSortConfig {
    HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
        .with_batch_elems(5_000)
        .with_pinned_elems(1_000)
}

#[test]
fn device_loss_replans_onto_survivor_bitwise_correct() {
    let data = lcg_data(40_000, 17);
    let cfg = cfg2().with_faults(Arc::new(FaultInjector::new().lose_device(1, 3)));
    let out = sort_real(cfg, &data).unwrap();
    assert!(
        out.verified,
        "survivor re-plan must produce a verified sort"
    );
    let expect = sorted_reference(&data);
    assert!(
        expect
            .iter()
            .zip(&out.sorted)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "output differs from reference after failover"
    );
    assert_eq!(out.recovery.device_lost, 1);
    assert_eq!(out.recovery.replans, 1);
    assert!(
        out.recovery.batches_recomputed > 0,
        "the lost GPU held unfinished batches"
    );
    assert_eq!(out.recovery.degraded_batches, 0, "GPU path never abandoned");

    // The recovery plans the executor actually used must pass the same
    // checks a fresh plan would: structural invariants, and a residency
    // footprint confined to the surviving devices.
    assert_eq!(out.replans.len(), 1);
    for rp in &out.replans {
        rp.validate().unwrap();
        let res = Residency::of_plan(rp);
        let gpus: BTreeSet<usize> = res.device_bytes.keys().copied().collect();
        assert!(
            !gpus.contains(&1),
            "re-plan still schedules the lost GPU: {gpus:?}"
        );
        assert!(gpus.contains(&0), "survivor GPU absent from re-plan");
    }
}

#[test]
fn no_survivor_falls_back_to_cpu_when_allowed() {
    let data = lcg_data(20_000, 31);
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(5_000)
        .with_pinned_elems(1_000)
        .with_faults(Arc::new(FaultInjector::new().lose_device(0, 2)));
    let out = sort_real(cfg, &data).unwrap();
    assert!(out.verified, "CPU fallback must still verify");
    assert_eq!(out.recovery.device_lost, 1);
    assert!(
        out.recovery.degraded_batches > 0,
        "host-side sorting must be accounted as degradation"
    );
    let expect = sorted_reference(&data);
    assert!(expect
        .iter()
        .zip(&out.sorted)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

#[test]
fn no_survivor_without_fallback_is_a_typed_error() {
    let data = lcg_data(20_000, 31);
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(5_000)
        .with_pinned_elems(1_000)
        .with_recovery(RecoveryPolicy::none())
        .with_faults(Arc::new(FaultInjector::new().lose_device(0, 2)));
    match sort_real(cfg, &data) {
        Err(HetSortError::DeviceLost { gpu }) => assert_eq!(gpu, 0),
        other => panic!("expected typed DeviceLost, got {other:?}"),
    }
}

#[test]
fn device_loss_recovered_in_parallel_executor() {
    // The MT executor loses GPU 1 at a pinned per-device op count; the
    // exact set of batches that completed before the loss depends on
    // worker interleaving, but the output must be bitwise correct and
    // the loss visible in the stats under every interleaving.
    let data = lcg_data(40_000, 41);
    for round in 0..4 {
        let cfg = cfg2().with_faults(Arc::new(FaultInjector::new().lose_device(1, 3)));
        let plan = Plan::build(cfg, data.len()).unwrap();
        let out = sort_real_parallel(&plan, &data).unwrap();
        assert!(out.verified, "round {round}");
        assert!(out.recovery.device_lost >= 1, "round {round}");
        let expect = sorted_reference(&data);
        assert!(
            expect
                .iter()
                .zip(&out.sorted)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "round {round}: output differs from reference"
        );
        for rp in &out.replans {
            rp.validate().unwrap();
            let res = Residency::of_plan(rp);
            assert!(!res.device_bytes.contains_key(&1), "round {round}");
        }
    }
}

#[test]
fn sequential_device_loss_is_deterministic() {
    let data = lcg_data(40_000, 53);
    let run = || {
        let cfg = cfg2().with_faults(Arc::new(FaultInjector::new().lose_device(1, 4)));
        sort_real(cfg, &data).unwrap()
    };
    let a = run();
    let b = run();
    assert!(a
        .sorted
        .iter()
        .zip(&b.sorted)
        .all(|(x, y)| x.to_bits() == y.to_bits()));
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.replans.len(), b.replans.len());
}

#[test]
fn dag_engine_replans_only_the_unfinished_subgraph() {
    // Device loss mid-graph: by GPU 1's 25th device op, part of its
    // batch set has fully emitted and been checkpointed. The DAG
    // engine must re-plan only the *unfinished* subgraph — recomputing
    // strictly fewer batches than the lost GPU owned, never zero, and
    // scheduling the recovery exclusively on survivors.
    use hetsort::analyze::{explore, EngineModel, ExploreConfig};
    use hetsort::core::dag::hooks::EngineHooks;
    use hetsort::core::{execute_dag, PlanDag};

    let data = lcg_data(40_000, 61);
    let cfg = cfg2().with_faults(Arc::new(FaultInjector::new().lose_device(1, 25)));
    let plan = Plan::build(cfg, data.len()).unwrap();
    let on_lost = plan
        .batches
        .iter()
        .filter(|b| plan.physical_gpu(b.gpu) == 1)
        .count();
    let out = execute_dag(&PlanDag::from_plan(plan.clone()), &data).unwrap();
    assert!(out.verified);
    assert_eq!(out.recovery.device_lost, 1);
    assert!(
        out.recovery.batches_recomputed > 0,
        "the loss landed mid-graph: some GPU-1 batches were in flight"
    );
    assert!(
        out.recovery.batches_recomputed < on_lost,
        "checkpoint ignored: all {on_lost} GPU-1 batches recomputed \
         instead of only the unfinished subgraph"
    );
    let expect = sorted_reference(&data);
    assert!(expect
        .iter()
        .zip(&out.sorted)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    for rp in &out.replans {
        rp.validate().unwrap();
        assert!(!Residency::of_plan(rp).device_bytes.contains_key(&1));
    }

    // And the replan-cover invariant holds not just for this op-count
    // alignment but for *every* node order and loss alignment: explore
    // the engine itself at small exhaustive geometry.
    let small = Plan::build(
        HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(1_000)
            .with_pinned_elems(500),
        4_500,
    )
    .unwrap();
    let mut model = EngineModel::new(&small, &[1], EngineHooks::default());
    let report = explore(&mut model, &ExploreConfig::default());
    assert!(
        report.is_clean() && !report.truncated,
        "replan-cover violated: {}",
        report.summary()
    );
}
