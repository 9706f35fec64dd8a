//! Exhaustive schedule-space sweep: the shipped engine running every
//! shipped approach, on both paper platforms, under both staging
//! protocols, with an uneven final batch, must explore **every** node
//! order with zero findings and no budget truncation. The same engine
//! gets that treatment over single- and double-loss fault schedules:
//! every node order and loss alignment recovers with every batch
//! published exactly once.
//!
//! Also pinned here: the DPOR-reduction guarantee (persistent sets +
//! sleep sets must finish the engine's schedule space where naive
//! enumeration cannot), bound-truncation reporting, the lost set of a
//! schedule naming one GPU twice, and replayability.

use hetsort_analyze::explore::{explore, ExploreConfig};
use hetsort_analyze::EngineModel;
use hetsort_core::dag::hooks::EngineHooks;
use hetsort_core::plan::Plan;
use hetsort_core::{execute_dag, Approach, HetSortConfig, PlanDag, StagingMode};
use hetsort_vgpu::{platform1, platform2, FaultInjector};

/// Both staging protocols: the default double-buffered one and the
/// paper's.
const STAGINGS: [StagingMode; 2] = [StagingMode::DoubleBuffered, StagingMode::Paper];

/// The five shipped schedule shapes (PIPEMERGE ships with and without
/// parallel-memcpy splitting) under one staging protocol.
fn shipped_configs(
    platform: hetsort_vgpu::PlatformSpec,
    staging: StagingMode,
) -> Vec<(String, HetSortConfig)> {
    let base = |a: Approach| {
        HetSortConfig::paper_defaults(platform.clone(), a)
            .with_batch_elems(1000)
            .with_pinned_elems(500)
            .with_staging(staging)
    };
    vec![
        ("bline".into(), base(Approach::BLine)),
        ("bline-multi".into(), base(Approach::BLineMulti)),
        ("pipedata".into(), base(Approach::PipeData)),
        ("pipemerge".into(), base(Approach::PipeMerge)),
        (
            "pipemerge+parmemcpy".into(),
            base(Approach::PipeMerge).with_par_memcpy(),
        ),
    ]
}

/// PIPEMERGE on PLATFORM2: 5 batches over 4 streams, 51 nodes.
fn pinned_plan(n: usize, staging: StagingMode) -> Plan {
    let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
        .with_batch_elems(1000)
        .with_pinned_elems(500)
        .with_staging(staging);
    Plan::build(cfg, n).unwrap()
}

#[test]
fn every_approach_explores_clean_on_both_platforms() {
    // n is deliberately NOT a multiple of batch_elems: the last batch
    // is a 500-element runt, exercising the uneven tail the paper's
    // batch math must handle.
    for platform in [platform1(), platform2()] {
        for staging in STAGINGS {
            for (name, cfg) in shipped_configs(platform.clone(), staging) {
                // BLINE is defined on a single batch; everyone else gets
                // a 3-batch split with a runt tail.
                let n = if cfg.approach == Approach::BLine {
                    700
                } else {
                    2500
                };
                let name = format!("{name}/{}", staging.name());
                let plan = Plan::build(cfg, n).unwrap();
                let mut model = EngineModel::new(&plan, &[], EngineHooks::default());
                let report = explore(&mut model, &ExploreConfig::default());
                assert!(
                    report.is_clean(),
                    "{name}: schedule-space findings on a shipped plan:\n{}",
                    report.summary()
                );
                assert!(!report.truncated, "{name}: {}", report.summary());
                assert!(report.traces >= 1, "{name}");
            }
        }
    }
}

#[test]
fn shipped_engine_explores_clean_under_loss_schedules() {
    // The shipped engine under a single loss of either GPU and the
    // lose-everything schedule (ends in the host-sort fallback), in
    // both staging protocols.
    for staging in STAGINGS {
        let plan = pinned_plan(4500, staging);
        for faults in [vec![0], vec![1], vec![1, 0]] {
            let mut model = EngineModel::new(&plan, &faults, EngineHooks::default());
            let report = explore(&mut model, &ExploreConfig::default());
            let what = format!("{} faults {faults:?}", staging.name());
            assert!(report.is_clean(), "{what}: {:?}", report.findings);
            assert!(!report.truncated, "{what}: {}", report.summary());
            assert!(
                report.traces > 1,
                "{what} must race the streams: {}",
                report.summary()
            );
        }
    }
}

#[test]
fn dpor_explores_fewer_traces_than_naive_enumeration() {
    // The shipped engine losing GPU 1 mid-run: DPOR finishes the whole
    // space, while naive enumeration of every node order cannot within
    // a 100k-op budget — and has already visited more traces than DPOR
    // needed in total.
    let plan = pinned_plan(4500, StagingMode::DoubleBuffered);
    let mut m = EngineModel::new(&plan, &[1], EngineHooks::default());
    let dpor = explore(&mut m, &ExploreConfig::default());
    assert!(dpor.is_clean() && !dpor.truncated, "{}", dpor.summary());
    let naive = explore(&mut m, &ExploreConfig::with_max_ops(100_000).naive());
    assert!(naive.is_clean(), "{}", naive.summary());
    assert!(
        naive.truncated,
        "naive should not finish: {}",
        naive.summary()
    );
    assert!(
        naive.traces > dpor.traces,
        "naive visited {} traces before truncation, DPOR needed {} total",
        naive.traces,
        dpor.traces
    );
}

#[test]
fn a_gpu_named_twice_is_explored_as_the_one_loss_the_engine_performs() {
    // `lose:1@3,lose:1@5` kills GPU 1 once: the second loss names a
    // device the survivor plan never touches again.
    let spec = "lose:1@3,lose:1@5";
    let plan = pinned_plan(4500, StagingMode::DoubleBuffered);
    let mut dag = PlanDag::from_plan(plan.clone());
    dag.plan.config.faults = Some(std::sync::Arc::new(FaultInjector::parse(spec).unwrap()));
    let data: Vec<f64> = (0..plan.n).map(|i| ((i * 7919) % 4500) as f64).collect();
    let run = execute_dag(&dag, &data).unwrap();
    assert!(run.verified);
    assert_eq!(
        run.recovery.faults_injected,
        1,
        "{}",
        run.recovery.summary()
    );

    let scheduled = FaultInjector::parse(spec).unwrap().scheduled_losses();
    assert_eq!(scheduled, vec![1, 1]);
    let mut model = EngineModel::new(&plan, &scheduled, EngineHooks::default());
    assert_eq!(model.losses(), run.recovery.lost_gpus().as_slice());
    let report = explore(&mut model, &ExploreConfig::default());
    assert!(report.model.ends_with("faults=[1]"), "{}", report.model);
    assert!(
        report.is_clean() && !report.truncated,
        "{}",
        report.summary()
    );
}

#[test]
fn exploring_the_engine_twice_replays_identically() {
    // A model must not consult ambient nondeterminism (wall-clock
    // spans, thread ids): the same loss schedule explores to the same
    // counts and findings every time.
    let plan = pinned_plan(4500, StagingMode::Paper);
    let run = || {
        let mut model = EngineModel::new(&plan, &[1, 0], EngineHooks::default());
        explore(&mut model, &ExploreConfig::default())
    };
    let (a, b) = (run(), run());
    assert!(a.is_clean() && !a.truncated, "{}", a.summary());
    assert_eq!(
        (a.traces, a.steps, a.pruned, a.findings),
        (b.traces, b.steps, b.pruned, b.findings)
    );
}

#[test]
fn op_budget_truncation_is_reported_not_silent() {
    let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeData)
        .with_batch_elems(1000)
        .with_pinned_elems(500);
    let plan = Plan::build(cfg, 2500).unwrap();
    let mut model = EngineModel::new(&plan, &[], EngineHooks::default());
    let report = explore(&mut model, &ExploreConfig::with_max_ops(10));
    assert!(report.truncated);
    assert!(
        report.summary().contains("TRUNCATED"),
        "{}",
        report.summary()
    );
}
