//! The analyzer's acceptance contract, both directions, under both
//! staging protocols:
//!
//! * **zero findings** on every shipped configuration (all approaches ×
//!   pair strategies × platforms × staging protocols, and the
//!   executors' recorded traces — fault-free ones equal to the static
//!   lowering record for record, and those of every recovery route);
//! * **100% mutant kill rate**: every seeded defect in [`Mutant::ALL`]
//!   is reported, with the finding class matching the defect class and
//!   the message naming the offending ops.

use std::sync::Arc;

use hetsort_analyze::{analyze_plan, analyze_plan_with_trace, Mutant};
use hetsort_core::optrace::lower_plan;
use hetsort_core::plan::Plan;
use hetsort_core::{
    exec_real, exec_real_mt, Approach, HetSortConfig, PairStrategy, RecoveryPolicy, StagingMode,
};
use hetsort_vgpu::{platform1, platform2, FaultInjector, PlatformSpec};

/// Both staging protocols every test here sweeps.
const STAGINGS: [StagingMode; 2] = [StagingMode::Paper, StagingMode::DoubleBuffered];

fn scaled(platform: PlatformSpec, approach: Approach, staging: StagingMode) -> HetSortConfig {
    // Laptop-scale sizes with the paper's structure: multiple batches,
    // multiple chunks per batch, two streams per GPU.
    HetSortConfig::paper_defaults(platform, approach)
        .with_batch_elems(1000)
        .with_pinned_elems(250)
        .with_staging(staging)
}

fn shipped_plans() -> Vec<Plan> {
    let mut plans = Vec::new();
    for platform in [platform1(), platform2()] {
        for staging in STAGINGS {
            let scaled = |approach| scaled(platform.clone(), approach, staging);
            for n in [1000, 5000, 6000, 9500] {
                for approach in [
                    Approach::BLineMulti,
                    Approach::PipeData,
                    Approach::PipeMerge,
                ] {
                    plans.push(Plan::build(scaled(approach), n).expect("shipped config must plan"));
                }
            }
            // BLine is single-batch by definition.
            plans.push(Plan::build(scaled(Approach::BLine), 1000).expect("bline"));
            // The rejected pair strategies still have to be *correct*.
            for strategy in [PairStrategy::Online, PairStrategy::MergeTree] {
                let cfg = scaled(Approach::PipeMerge).with_pair_strategy(strategy);
                plans.push(Plan::build(cfg, 6000).expect("strategy must plan"));
            }
        }
    }
    plans
}

#[test]
fn every_shipped_config_is_clean() {
    for plan in shipped_plans() {
        let report = analyze_plan(&plan);
        assert!(
            report.is_clean(),
            "{} {:?} {} n={} flagged:\n{report}",
            plan.config.approach.name(),
            plan.config.pair_strategy,
            plan.config.staging.name(),
            plan.n
        );
    }
}

#[test]
fn every_mutant_is_killed_with_the_right_class() {
    assert!(Mutant::ALL.len() >= 8, "acceptance floor: 8 mutants");
    for staging in STAGINGS {
        let base = Plan::build(scaled(platform1(), Approach::PipeMerge, staging), 6000).unwrap();
        for mutant in Mutant::ALL {
            let mut plan = base.clone();
            let mut trace = lower_plan(&plan);
            // Every mutant has something to mutate under both
            // protocols; none is skipped.
            assert!(
                mutant.apply(&mut plan, &mut trace),
                "{} must apply to the base plan under {} staging",
                mutant.name(),
                staging.name()
            );
            let report = analyze_plan_with_trace(&plan, &trace);
            assert!(
                report.has_class(mutant.expected_class()),
                "{} under {} staging expected a {:?} finding, got:\n{report}",
                mutant.name(),
                staging.name(),
                mutant.expected_class()
            );
        }
    }
}

#[test]
fn race_findings_name_both_ops_and_the_missing_edge() {
    let cfg = scaled(platform1(), Approach::PipeMerge, StagingMode::default());
    let mut plan = Plan::build(cfg, 6000).unwrap();
    let mut trace = lower_plan(&plan);
    assert!(Mutant::DropWait.apply(&mut plan, &mut trace));
    let report = analyze_plan_with_trace(&plan, &trace);
    let race = report
        .findings
        .iter()
        .find(|f| f.code == "race")
        .expect("dropped wait must produce a race");
    assert_eq!(race.ops.len(), 2, "{race}");
    assert!(race.ops.iter().all(|op| op.contains("step")), "{race}");
    assert!(race.message.contains("record an event"), "{race}");
    assert!(race.message.contains("stream-wait"), "{race}");
}

/// `n` keys in reverse-hashed order.
fn keys(n: u64) -> Vec<u64> {
    (0..n).rev().map(|x| x.wrapping_mul(2654435761)).collect()
}

#[test]
fn executor_recorded_traces_are_clean() {
    // Fault-free, every node takes its device route: the executed trace
    // *is* the static lowering, record for record.
    for (platform, approach, staging) in [platform1(), platform2()]
        .into_iter()
        .flat_map(|p| {
            [
                Approach::BLine,
                Approach::BLineMulti,
                Approach::PipeData,
                Approach::PipeMerge,
            ]
            .map(|a| (p.clone(), a))
        })
        .flat_map(|(p, a)| STAGINGS.map(|st| (p.clone(), a, st)))
    {
        // BLine is single-batch by definition.
        let n = if approach == Approach::BLine {
            1000
        } else {
            6000
        };
        let data = keys(n);
        let cfg = scaled(platform, approach, staging).with_trace_recording();
        let plan = Plan::build(cfg, data.len()).unwrap();
        let lowered = lower_plan(&plan);
        for (name, outcome) in [
            (
                "exec_real",
                exec_real::sort_real_plan(&plan, &data).unwrap(),
            ),
            (
                "exec_real_mt",
                exec_real_mt::sort_real_parallel(&plan, &data).unwrap(),
            ),
        ] {
            let case = format!(
                "{name} {} {} {}",
                plan.config.platform.name,
                plan.config.approach.name(),
                staging.name()
            );
            assert!(outcome.verified, "{case}");
            let trace = outcome.trace.expect("record_trace was on");
            let report = analyze_plan_with_trace(&plan, &trace);
            assert!(
                report.is_clean(),
                "{case} executed trace flagged:\n{report}"
            );
            assert_eq!(trace.n_threads, lowered.n_threads, "{case}");
            assert_eq!(trace.records.len(), lowered.records.len(), "{case}");
            for (i, (ran, planned)) in trace.records.iter().zip(&lowered.records).enumerate() {
                assert_eq!(ran, planned, "{case}: record {i}");
            }
        }
    }
}

#[test]
fn recovery_traces_are_clean() {
    // Every recovery route re-checked on the trace that ran: an OOM
    // split, each site a batch gives up at (HtoD and DtoH retries run
    // out on the first, a middle and the last of a batch's four chunks;
    // a tripped device sort; an OOM with splitting off), and device
    // losses with and without a survivor.
    let split_off = RecoveryPolicy {
        split_on_oom: false,
        ..RecoveryPolicy::default()
    };
    let cases = [
        (platform1(), RecoveryPolicy::default(), "oom:1"),
        (
            platform1(),
            RecoveryPolicy::default(),
            "htod:1,htod:2,htod:3",
        ),
        (
            platform1(),
            RecoveryPolicy::default(),
            "htod:3,htod:4,htod:5",
        ),
        (
            platform1(),
            RecoveryPolicy::default(),
            "htod:4,htod:5,htod:6",
        ),
        (
            platform1(),
            RecoveryPolicy::default(),
            "dtoh:1,dtoh:2,dtoh:3",
        ),
        (
            platform1(),
            RecoveryPolicy::default(),
            "dtoh:3,dtoh:4,dtoh:5",
        ),
        (
            platform1(),
            RecoveryPolicy::default(),
            "dtoh:4,dtoh:5,dtoh:6",
        ),
        (platform1(), RecoveryPolicy::default(), "sort:2"),
        (platform1(), split_off, "oom:1"),
        (platform2(), RecoveryPolicy::default(), "lose:1@3"),
        (platform1(), RecoveryPolicy::default(), "lose:0@5"),
    ];
    let data = keys(6000);
    for staging in STAGINGS {
        for (platform, policy, spec) in &cases {
            // A fresh schedule per run: an injector counts occurrences
            // across every run it is armed in.
            let plan = || {
                let cfg = scaled(platform.clone(), Approach::PipeMerge, staging)
                    .with_trace_recording()
                    .with_recovery(*policy)
                    .with_faults(Arc::new(FaultInjector::parse(spec).unwrap()));
                Plan::build(cfg, data.len()).unwrap()
            };
            let (seq, par) = (plan(), plan());
            for (name, plan, outcome) in [
                (
                    "exec_real",
                    &seq,
                    exec_real::sort_real_plan(&seq, &data).unwrap(),
                ),
                (
                    "exec_real_mt",
                    &par,
                    exec_real_mt::sort_real_parallel(&par, &data).unwrap(),
                ),
            ] {
                let case = format!("{name} {} {spec}", staging.name());
                assert!(outcome.verified, "{case}");
                assert!(outcome.recovery.any(), "{case}: nothing to recover from");
                let trace = outcome.trace.expect("record_trace was on");
                let report = analyze_plan_with_trace(plan, &trace);
                assert!(
                    report.is_clean(),
                    "{case} executed trace flagged:\n{report}"
                );
            }
        }
    }
}
