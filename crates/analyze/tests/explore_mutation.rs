//! Mutation kill-suite for the analyze half of the schedule-space
//! explorer: every seeded recovery defect must be caught by exploration
//! with its declared [`FindingClass`] (the admission defects live in
//! `hetsort-serve`'s suite). The engine's own recovery defects are
//! explored on the shipped engine through [`EngineModel`]; the
//! [`ExploreMutant`]s seed the recovery path's lowered trace. The suite
//! fails if the explorer misses any.

use std::collections::BTreeSet;

use hetsort_analyze::explore::{explore, ExploreConfig};
use hetsort_analyze::{explore_plan_trace, EngineModel, ExploreMutant, FindingClass};
use hetsort_core::dag::mutate::{DagMutant, EngineHooks};
use hetsort_core::optrace::{lower_plan, TraceKind};
use hetsort_core::plan::Plan;
use hetsort_core::recover::survivor_plan;
use hetsort_core::{Approach, HetSortConfig, StagingMode};
use hetsort_vgpu::platform2;

fn pinned_plan(staging: StagingMode) -> Plan {
    let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
        .with_batch_elems(1000)
        .with_pinned_elems(500)
        .with_staging(staging);
    Plan::build(cfg, 4500).unwrap()
}

/// Explore the shipped engine losing GPU 1 with `hooks` set, and return
/// the findings' classes.
fn explore_engine(hooks: EngineHooks<'static>, staging: StagingMode) -> Vec<FindingClass> {
    let mut model = EngineModel::new(&pinned_plan(staging), &[1], hooks);
    let report = explore(&mut model, &ExploreConfig::default());
    assert!(!report.truncated, "{}", report.summary());
    report.findings.iter().map(|f| f.class).collect()
}

/// Run one analyze-side trace mutant through the explorer and return
/// the resulting findings' classes.
fn explore_mutant(mutant: ExploreMutant, staging: StagingMode) -> Vec<FindingClass> {
    match mutant {
        // Model the recovery path forgetting a cross-stream wait: build
        // the survivor plan the engine re-plans onto after losing GPU
        // 0, lower it, and drop its last stream_wait_event.
        ExploreMutant::DropRecoveryWait => {
            let base = pinned_plan(staging);
            let lost: BTreeSet<usize> = [0].into_iter().collect();
            let survivor = survivor_plan(&base, &lost)
                .unwrap()
                .expect("one GPU survives");
            let mut trace = lower_plan(&survivor);
            let wait = trace
                .records
                .iter()
                .rposition(|r| matches!(r.kind, TraceKind::StreamWaitEvent { .. }))
                .expect("survivor plan has cross-stream waits");
            trace.records.remove(wait);
            let report = explore_plan_trace(&survivor, trace, &ExploreConfig::default());
            assert!(!report.truncated, "{}", report.summary());
            report.findings.iter().map(|f| f.class).collect()
        }
    }
}

#[test]
fn every_analyze_side_explorer_mutant_is_killed_with_its_declared_class() {
    for staging in [StagingMode::DoubleBuffered, StagingMode::Paper] {
        for mutant in ExploreMutant::ALL {
            let classes = explore_mutant(mutant, staging);
            let expected = mutant.expected_class();
            assert!(
                classes.contains(&expected),
                "{} ({}): explorer missed the seeded defect — expected {}, got {:?}",
                mutant.name(),
                staging.name(),
                expected.name(),
                classes
            );
        }
        // The engine's recovery defects, against the shipped engine.
        for (mutant, hooks) in [
            (
                DagMutant::SkipCheckpoint,
                EngineHooks {
                    skip_checkpoint: true,
                    ..EngineHooks::default()
                },
            ),
            (
                DagMutant::DropRecoveryBatch,
                EngineHooks {
                    drop_recovery_batch: true,
                    ..EngineHooks::default()
                },
            ),
        ] {
            let classes = explore_engine(hooks, staging);
            assert!(
                classes.contains(&FindingClass::ReplanCover),
                "{} ({}): exploring the engine missed the seeded defect, got {classes:?}",
                mutant.name(),
                staging.name()
            );
        }
    }
}

#[test]
fn clean_recovery_baseline_stays_clean() {
    // The kill assertions above only mean something if the same
    // pinned plan explores clean without the seeded defects.
    for staging in [StagingMode::DoubleBuffered, StagingMode::Paper] {
        let classes = explore_engine(EngineHooks::default(), staging);
        assert!(classes.is_empty(), "{}: {classes:?}", staging.name());

        let lost: BTreeSet<usize> = [0].into_iter().collect();
        let survivor = survivor_plan(&pinned_plan(staging), &lost)
            .unwrap()
            .expect("one GPU survives");
        let trace = lower_plan(&survivor);
        let report = explore_plan_trace(&survivor, trace, &ExploreConfig::default());
        assert!(report.is_clean(), "{}", report.summary());
    }
}
