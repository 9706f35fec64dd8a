//! The one defect kill suite, and the zero-false-positive contract it
//! rests on, both under both staging protocols:
//!
//! * **zero findings** on every shipped configuration (all approaches ×
//!   pair strategies × platforms × staging protocols, and the
//!   executors' recorded traces — fault-free ones equal to the static
//!   lowering record for record, and those of every recovery route);
//! * **every seeded defect dies by its named check**: each [`Mutant`] of
//!   the catalogue is applied to one base dag per protocol and
//!   dispatched on its [`Kill`] — a validator rule, an analyzer class
//!   (over the base dag, or over the survivor plan of a device loss),
//!   an explorer class, the `RecoveryStats` differential, or the
//!   engine's own answer. A mutant that survives, dies by another check,
//!   or finds no site under a protocol the catalogue calls applicable
//!   fails the build.

use std::collections::BTreeSet;
use std::sync::Arc;

use hetsort_algos::par::default_threads;
use hetsort_algos::verify::check_parts;
use hetsort_analyze::explore::{explore, ExploreConfig};
use hetsort_analyze::{
    analyze_dag, analyze_plan, analyze_plan_with_trace, EngineKill, EngineModel, FindingClass,
    Kill, Mutant, Site,
};
use hetsort_core::dag::hooks::{execute_dag_hooked, EngineHooks};
use hetsort_core::dag::DagOp;
use hetsort_core::optrace::{lower_dag, lower_plan, OpTrace};
use hetsort_core::plan::{MergeSrc, Plan};
use hetsort_core::recover::survivor_plan;
use hetsort_core::{
    exec_real, exec_real_mt, execute_dag, Approach, HetSortConfig, HetSortError, PairStrategy,
    PlanDag, RecoveryPolicy, StagingMode,
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
            let cfg = scaled(Approach::PipeMerge).with_par_memcpy();
            plans.push(Plan::build(cfg, 6000).expect("par-memcpy must plan"));
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

/// The one base geometry every dag and trace mutant is applied to:
/// PIPEMERGE on PLATFORM1, seven batches of four chunks over two
/// streams with pair merges, so every mutant has a site.
fn base(staging: StagingMode) -> PlanDag {
    let cfg = scaled(platform1(), Approach::PipeMerge, staging).with_pinned_elems(300);
    PlanDag::from_plan(Plan::build(cfg, 7_000).unwrap())
}

/// The base geometry on PLATFORM2 at a size the explorer exhausts: a
/// device loss there leaves a survivor to re-plan onto.
fn loss_plan(staging: StagingMode) -> Plan {
    let cfg = scaled(platform2(), Approach::PipeMerge, staging).with_pinned_elems(500);
    Plan::build(cfg, 4_500).unwrap()
}

/// The classes found exploring every node order and loss alignment of
/// the shipped engine losing GPU 1 of [`loss_plan`] with `hooks` set.
fn explore_engine(hooks: EngineHooks<'static>, staging: StagingMode) -> Vec<FindingClass> {
    let mut model = EngineModel::new(&loss_plan(staging), &[1], hooks);
    let report = explore(&mut model, &ExploreConfig::default());
    assert!(!report.truncated, "{}", report.summary());
    report.findings.iter().map(|f| f.class).collect()
}

/// The survivor plan of [`loss_plan`] losing GPU 0, and its lowered
/// trace.
fn survivor(staging: StagingMode) -> (Plan, OpTrace) {
    let base = loss_plan(staging);
    let dead: BTreeSet<usize> = [0].into_iter().collect();
    let plan = survivor_plan(&base.config, base.n, &dead)
        .unwrap()
        .expect("one GPU survives");
    let trace = lower_plan(&plan);
    (plan, trace)
}

/// `PlanDag::validate` rejects the mutated dag by `rule`, and both the
/// linter and `analyze_dag` over the mutated dag report that rule as a
/// `Malformed` finding.
fn kill_validator(m: Mutant, rule: &str, base: &PlanDag, case: &str) {
    let mut dag = base.clone();
    assert!(m.apply_dag(&mut dag), "{case}: no site in the base dag");
    let err = dag
        .validate()
        .expect_err(&format!("{case}: survived the validator"));
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{rule}:")),
        "{case}: killed by the wrong rule — expected '{rule}:', got: {msg}"
    );
    let names_rule = |report: &hetsort_analyze::AnalysisReport| {
        report
            .of_class(FindingClass::Malformed)
            .any(|f| f.message.contains(&format!("{rule}:")))
    };
    let report = m.analyze(base).expect("applied above");
    assert!(
        names_rule(&report),
        "{case}: the linter missed '{rule}:': {report}"
    );
    let report = analyze_dag(&dag);
    assert!(
        names_rule(&report),
        "{case}: analyze_dag missed '{rule}:': {report}"
    );
}

/// Exploring the shipped engine with the defect's hooks reports
/// `class`.
fn kill_explorer(m: Mutant, class: FindingClass, staging: StagingMode, case: &str) {
    assert_eq!(
        m.site(),
        Site::Hooks,
        "{case}: the explorer runs engine hooks only"
    );
    let classes = explore_engine(m.hooks(), staging);
    assert!(
        classes.contains(&class),
        "{case}: exploring missed the seeded defect — expected {}, got {classes:?}",
        class.name()
    );
}

/// Under a device loss, skipping the per-batch checkpoint recomputes
/// every batch instead of only the unfinished ones — the output stays
/// bitwise correct, so only the `RecoveryStats` comparison sees it.
fn kill_recovery_stats(m: Mutant, staging: StagingMode, case: &str) {
    let data = keys(40_000);
    let mk = || {
        let cfg = scaled(platform2(), Approach::PipeMerge, staging)
            .with_batch_elems(5_000)
            .with_pinned_elems(1_000)
            // The loss lands after GPU 1 has fully emitted two batches,
            // so the honest checkpoint recomputes strictly fewer than
            // the mutant's "everything" re-plan.
            .with_faults(Arc::new(FaultInjector::new().lose_device(1, 25)));
        PlanDag::from_plan(Plan::build(cfg, data.len()).unwrap())
    };
    let healthy = execute_dag(&mk(), &data).unwrap();
    let mutated = execute_dag_hooked(&mk(), &data, 0, m.hooks()).unwrap();
    // The defect is invisible to output verification...
    assert!(healthy.verified && mutated.verified, "{case}");
    assert_eq!(
        healthy.sorted, mutated.sorted,
        "{case}: must not corrupt data (that would be a different bug)"
    );
    // ...and killed by the recovery-stats differential.
    assert!(
        mutated.recovery.batches_recomputed > healthy.recovery.batches_recomputed,
        "{case}: must recompute strictly more batches (healthy {:?}, mutated {:?})",
        healthy.recovery,
        mutated.recovery
    );
}

/// With every batch run dropped the moment its stage-out completes, the
/// first merge to run refuses with a typed [`HetSortError::Plan`] naming
/// itself and the consumed batch — inline and with pooled stream
/// workers. A panic, or an `Ok` with wrong data, is not a kill.
fn kill_consumed_input(m: Mutant, dag: &PlanDag, case: &str) {
    let data = keys(dag.plan.n as u64);
    for workers in [0usize, 2] {
        let healthy = execute_dag_hooked(dag, &data, workers, EngineHooks::default()).unwrap();
        assert!(
            healthy.verified,
            "{case} workers={workers}: the base run must sort"
        );
        let reason = match execute_dag_hooked(dag, &data, workers, m.hooks()) {
            Err(HetSortError::Plan { reason }) => reason,
            other => panic!(
                "{case} workers={workers}: survived: {:?}",
                other.map(|o| o.verified)
            ),
        };
        // "merge node <id>: input Batch(<b>) was already consumed", where
        // node <id> is a merge and batch <b> one of its inputs.
        let named = dag.nodes.iter().enumerate().any(|(id, node)| {
            let inputs = match &node.op {
                DagOp::PairMerge { slot } => {
                    let p = dag.plan.pairs[*slot];
                    vec![p.left, p.right]
                }
                DagOp::MultiwayMerge { inputs } => inputs.clone(),
                _ => return false,
            };
            inputs.iter().any(|src| {
                matches!(src, MergeSrc::Batch(_))
                    && reason == format!("merge node {id}: input {src:?} was already consumed")
            })
        });
        assert!(
            named,
            "{case} workers={workers}: the error must name the merge node and its batch: {reason}"
        );
    }
}

/// The engine corrupts its final sorted run after the last merge, and
/// its own output check answers with an `Ok` run whose `verified` is
/// `false`, inline and with pooled stream workers. A panic or an `Err`
/// is not a kill. The input spans many check grains, so unpinned the
/// check runs in parallel parts and under `taskset -c 0` inline.
fn kill_unverified(m: Mutant, staging: StagingMode, case: &str) {
    let data = keys(40_000);
    let cfg = scaled(platform1(), Approach::PipeMerge, staging)
        .with_batch_elems(5_000)
        .with_pinned_elems(1_000);
    let dag = PlanDag::from_plan(Plan::build(cfg, data.len()).unwrap());
    let threads = default_threads();
    assert_eq!(check_parts(threads, data.len()).len() > 1, threads > 1);
    for workers in [0usize, 2] {
        let healthy = execute_dag_hooked(&dag, &data, workers, EngineHooks::default()).unwrap();
        assert!(
            healthy.verified,
            "{case} workers={workers}: the base run must sort"
        );
        match execute_dag_hooked(&dag, &data, workers, m.hooks()) {
            Ok(out) => {
                assert_ne!(
                    out.sorted, healthy.sorted,
                    "{case} workers={workers}: a no-op"
                );
                assert!(
                    !out.verified,
                    "{case} workers={workers} threads={threads}: survived the output check"
                );
            }
            Err(e) => panic!("{case} workers={workers}: killed by an error, not the check: {e}"),
        }
    }
}

#[test]
fn every_mutant_is_killed_by_its_named_check() {
    assert_eq!(Mutant::ALL.len(), 32);
    for staging in STAGINGS {
        // Each kill is attributable: every base runs clean.
        let base = base(staging);
        base.validate().unwrap();
        assert!(analyze_dag(&base).is_clean(), "{}", staging.name());
        assert!(explore_engine(EngineHooks::default(), staging).is_empty());
        let (plan, trace) = survivor(staging);
        let report = analyze_plan_with_trace(&plan, &trace);
        assert!(report.is_clean(), "{}: {report}", staging.name());

        for m in Mutant::ALL {
            let case = format!("{m:?} under {} staging", staging.name());
            if !m.applies_to(&base.plan.staging) {
                // The catalogue says the protocol has no site: so say
                // the appliers.
                let mut dag = base.clone();
                let mut trace = lower_dag(&base);
                assert!(
                    !m.apply_dag(&mut dag) && !m.apply_trace(&base.plan, &mut trace),
                    "{case}: applies where the catalogue says it cannot"
                );
                continue;
            }
            match m.kill() {
                Kill::Validator(rule) => kill_validator(m, rule, &base, &case),
                Kill::Analyzer(class) => {
                    let report = if m.site() == Site::Survivor {
                        let (plan, mut trace) = survivor(staging);
                        assert!(m.apply_trace(&plan, &mut trace), "{case}: no site");
                        analyze_plan_with_trace(&plan, &trace)
                    } else {
                        m.analyze(&base)
                            .unwrap_or_else(|| panic!("{case}: no site"))
                    };
                    assert!(
                        report.has_class(class),
                        "{case}: expected a {} finding, got:\n{report}",
                        class.name()
                    );
                }
                Kill::Explorer(class) => kill_explorer(m, class, staging, &case),
                Kill::RecoveryStats => kill_recovery_stats(m, staging, &case),
                Kill::Engine(EngineKill::ConsumedInput) => kill_consumed_input(m, &base, &case),
                Kill::Engine(EngineKill::Unverified) => kill_unverified(m, staging, &case),
            }
        }
    }
}

#[test]
fn structural_mutants_leave_no_other_rule_masked() {
    // Each validator mutant is a minimal defect: the first (and only)
    // rule the validator reports is the named one.
    for staging in STAGINGS {
        for m in Mutant::ALL {
            let Kill::Validator(rule) = m.kill() else {
                continue;
            };
            let mut dag = base(staging);
            if m.apply_dag(&mut dag) {
                let msg = dag.validate().unwrap_err().to_string();
                assert!(
                    msg.starts_with(&format!("invalid plan: {rule}:")),
                    "{m:?} under {}: reason '{msg}' does not name '{rule}:' first",
                    staging.name()
                );
            }
        }
    }
}

#[test]
fn skip_checkpoint_is_also_found_by_exploring_the_engine() {
    // Beside its RecoveryStats kill: some loss alignment publishes a
    // batch twice.
    for staging in STAGINGS {
        let classes = explore_engine(Mutant::SkipCheckpoint.hooks(), staging);
        assert!(
            classes.contains(&FindingClass::ReplanCover),
            "{}: {classes:?}",
            staging.name()
        );
    }
}

#[test]
fn race_findings_name_both_ops_and_the_missing_edge() {
    let cfg = scaled(platform1(), Approach::PipeMerge, StagingMode::default());
    let plan = Plan::build(cfg, 6000).unwrap();
    let mut trace = lower_plan(&plan);
    assert!(Mutant::DropWait.apply_trace(&plan, &mut trace));
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
