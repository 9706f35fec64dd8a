//! DAG mutation kill suite: every seeded [`DagMutant`] must be killed
//! by exactly the check its contract names — a structural validator
//! rule (`validator:<rule>`), an analyzer finding class over the
//! dag-lowered trace (`analyzer:<class>`), a differential comparison
//! (`differential:<check>`), a typed engine error
//! (`engine:<error>`), or a finding class from exploring the shipped
//! engine's loss schedules (`explorer:<class>`). A mutant that no check
//! catches, or that a *different* check catches than the one named,
//! fails the build: the battery has a hole or the contract is stale.

use std::sync::Arc;

use hetsort_algos::par::default_threads;
use hetsort_algos::verify::check_parts;
use hetsort_analyze::explore::{explore, ExploreConfig};
use hetsort_analyze::{analyze_plan_with_trace, EngineModel};
use hetsort_core::dag::mutate::{execute_dag_hooked, DagMutant, EngineHooks};
use hetsort_core::dag::DagOp;
use hetsort_core::optrace::lower_dag;
use hetsort_core::plan::MergeSrc;
use hetsort_core::{execute_dag, Approach, HetSortConfig, HetSortError, Plan, PlanDag};
use hetsort_vgpu::{platform1, platform2, FaultInjector};

/// The base dag every structural/trace mutant is applied to: PIPEMERGE
/// on PLATFORM1 with several batches, pair merges, and two streams, so
/// every mutant has a site.
fn base_dag() -> PlanDag {
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(1_000)
        .with_pinned_elems(300);
    PlanDag::from_plan(Plan::build(cfg, 7_000).unwrap())
}

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

/// Kill a structural mutant: [`PlanDag::validate`] must reject the
/// mutated dag *with the named rule* in its reason.
fn kill_structural(m: DagMutant, rule: &str) {
    let mut dag = base_dag();
    assert!(dag.validate().is_ok(), "base dag must be valid");
    assert!(m.apply(&mut dag), "{}: no site in the base dag", m.name());
    let err = dag
        .validate()
        .expect_err(&format!("{}: mutant survived the validator", m.name()));
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{rule}:")),
        "{}: killed by the wrong rule — expected '{rule}:', got: {msg}",
        m.name()
    );
}

/// Kill a trace-level mutant: the base trace analyzes clean, the
/// mutated trace yields a finding of the named class.
fn kill_trace(m: DagMutant, class: &str) {
    let dag = base_dag();
    let base = lower_dag(&dag);
    assert!(
        analyze_plan_with_trace(&dag.plan, &base).is_clean(),
        "{}: base trace must be clean for the kill to be attributable",
        m.name()
    );
    let mut trace = base.clone();
    assert!(
        m.apply_trace(&mut trace),
        "{}: no site in the lowered trace",
        m.name()
    );
    let report = analyze_plan_with_trace(&dag.plan, &trace);
    assert!(
        report.findings.iter().any(|f| f.class.name() == class),
        "{}: expected a '{class}' finding, got: {report}",
        m.name()
    );
}

/// Kill the engine defect differentially: under a device-loss fault
/// schedule, skipping the per-batch checkpoint recomputes every batch
/// instead of only the unfinished ones — the output stays bitwise
/// correct, so only the [`RecoveryStats`] comparison can see it.
///
/// [`RecoveryStats`]: hetsort_core::RecoveryStats
fn kill_skip_checkpoint() {
    let n = 40_000;
    let data = lcg_data(n, 0x5C1);
    let mk = || {
        let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(5_000)
            .with_pinned_elems(1_000)
            // The loss lands after GPU 1 has fully emitted two batches,
            // so the honest checkpoint recomputes strictly fewer than
            // the mutant's "everything" re-plan.
            .with_faults(Arc::new(FaultInjector::new().lose_device(1, 25)));
        PlanDag::from_plan(Plan::build(cfg, n).unwrap())
    };
    let healthy = execute_dag(&mk(), &data).unwrap();
    let hooks = EngineHooks {
        skip_checkpoint: true,
        ..EngineHooks::default()
    };
    let mutated = execute_dag_hooked(&mk(), &data, 0, hooks).unwrap();

    // The defect is invisible to output verification...
    assert!(healthy.verified && mutated.verified);
    assert_eq!(
        healthy
            .sorted
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        mutated
            .sorted
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        "skip-checkpoint must not corrupt data (that would be a different bug)"
    );
    // ...and killed by the recovery-stats differential.
    assert_ne!(
        healthy.recovery, mutated.recovery,
        "skip-checkpoint survived the recovery-stats differential"
    );
    assert!(
        mutated.recovery.batches_recomputed > healthy.recovery.batches_recomputed,
        "skipping the checkpoint must recompute strictly more batches \
         (healthy {}, mutated {})",
        healthy.recovery.batches_recomputed,
        mutated.recovery.batches_recomputed
    );
}

/// Kill the early-free engine defect: with every batch run dropped the
/// moment its stage-out completes, the first merge to run must refuse
/// with a typed [`HetSortError::Plan`] naming itself and the consumed
/// batch — at the inline engine and with pooled stream workers. A
/// panic, or an `Ok` with wrong data, fails the test: neither is a kill.
///
/// [`HetSortError::Plan`]: hetsort_core::HetSortError::Plan
fn kill_free_before_consumer() {
    let dag = base_dag();
    let data = lcg_data(dag.plan.n, 0xF8EE);
    let hooks = EngineHooks {
        free_before_consumer: true,
        ..EngineHooks::default()
    };
    for workers in [0usize, 2] {
        let healthy = execute_dag_hooked(&dag, &data, workers, EngineHooks::default()).unwrap();
        assert!(
            healthy.verified,
            "workers={workers}: the base run must sort"
        );
        let reason = match execute_dag_hooked(&dag, &data, workers, hooks) {
            Err(HetSortError::Plan { reason }) => reason,
            other => panic!(
                "workers={workers}: free-before-consumer survived: {:?}",
                other.map(|o| o.verified)
            ),
        };
        // "merge node <id>: input Batch(<b>) was already consumed", where
        // node <id> is a merge and batch <b> one of its inputs.
        let named = dag.nodes.iter().enumerate().any(|(id, node)| {
            let inputs = match &node.op {
                DagOp::PairMerge { slot } | DagOp::CpuMerge { slot } => {
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
            "workers={workers}: the error must name the merge node and its consumed batch: {reason}"
        );
    }
}

/// Kill an output defect: the engine corrupts its final sorted run
/// after the last merge, and its own output check must answer with an
/// `Ok` run whose `verified` is `false`, at the inline engine and with
/// pooled stream workers. A panic or an `Err` is not a kill. The input
/// spans many check grains, so unpinned the check runs in parallel parts
/// and under `taskset -c 0` inline.
fn kill_unverified(m: DagMutant) {
    let n = 40_000;
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(5_000)
        .with_pinned_elems(1_000);
    let dag = PlanDag::from_plan(Plan::build(cfg, n).unwrap());
    let data = lcg_data(n, 0xC4EC);
    let threads = default_threads();
    assert_eq!(check_parts(threads, n).len() > 1, threads > 1);
    let hooks = EngineHooks {
        swap_across_check_boundary: m == DagMutant::SwapAcrossCheckBoundary,
        drop_and_duplicate: m == DagMutant::DropAndDuplicate,
        ..EngineHooks::default()
    };
    for workers in [0usize, 2] {
        let healthy = execute_dag_hooked(&dag, &data, workers, EngineHooks::default()).unwrap();
        assert!(
            healthy.verified,
            "workers={workers}: the base run must sort"
        );
        match execute_dag_hooked(&dag, &data, workers, hooks) {
            Ok(out) => {
                assert_ne!(
                    out.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    healthy
                        .sorted
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>(),
                    "{} at workers={workers}: the defect was a no-op",
                    m.name()
                );
                assert!(
                    !out.verified,
                    "{} at workers={workers} threads={threads}: survived the output check",
                    m.name()
                );
            }
            Err(e) => panic!(
                "{} at workers={workers}: killed by an error, not the check: {e}",
                m.name()
            ),
        }
    }
}

/// Kill an engine recovery defect by exploration: every node order and
/// loss alignment of the shipped engine losing GPU 1 explores clean,
/// and with the defect set some interleaving yields a finding of the
/// named class.
fn kill_explored(m: DagMutant, class: &str) {
    let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
        .with_batch_elems(1_000)
        .with_pinned_elems(500);
    let plan = Plan::build(cfg, 4_500).unwrap();
    let hooks = EngineHooks {
        drop_recovery_batch: m == DagMutant::DropRecoveryBatch,
        ..EngineHooks::default()
    };
    let run = |hooks| {
        let mut model = EngineModel::new(&plan, &[1], hooks);
        let report = explore(&mut model, &ExploreConfig::default());
        assert!(!report.truncated, "{}: {}", m.name(), report.summary());
        report
    };
    let healthy = run(EngineHooks::default());
    assert!(healthy.is_clean(), "{}: {}", m.name(), healthy.summary());
    let mutated = run(hooks);
    assert!(
        mutated.findings.iter().any(|f| f.class.name() == class),
        "{}: expected a '{class}' finding, got: {:?}",
        m.name(),
        mutated.findings
    );
}

#[test]
fn every_mutant_is_killed_by_its_named_check() {
    let mut kills = 0usize;
    for m in DagMutant::ALL {
        let contract = m.expected_kill();
        if let Some(rule) = contract.strip_prefix("validator:") {
            kill_structural(m, rule);
        } else if let Some(class) = contract.strip_prefix("analyzer:") {
            kill_trace(m, class);
        } else if contract == "differential:recovery-stats" {
            kill_skip_checkpoint();
        } else if contract == "engine:consumed-input" {
            kill_free_before_consumer();
        } else if contract == "engine:unverified" {
            kill_unverified(m);
        } else if let Some(class) = contract.strip_prefix("explorer:") {
            kill_explored(m, class);
        } else {
            panic!("{}: unknown kill contract '{contract}'", m.name());
        }
        kills += 1;
    }
    assert!(
        kills >= 8,
        "acceptance floor: ≥8 killed mutants, got {kills}"
    );
}

#[test]
fn structural_mutants_leave_no_other_rule_masked() {
    // Applying a structural mutant and then *repairing* nothing else:
    // the dag must not also trip unrelated rules, i.e. each mutant is a
    // minimal defect and the named rule is genuinely what catches it.
    for m in DagMutant::ALL {
        let Some(rule) = m.expected_kill().strip_prefix("validator:") else {
            continue;
        };
        let mut dag = base_dag();
        assert!(m.apply(&mut dag));
        let msg = dag.validate().unwrap_err().to_string();
        // The first (and only) reported rule is the named one.
        assert!(
            msg.contains(&format!("{rule}:")),
            "{}: reason '{msg}' does not name '{rule}:'",
            m.name()
        );
    }
}
