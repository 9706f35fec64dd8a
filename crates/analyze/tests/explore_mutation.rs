//! Mutation kill-suite for the analyze half of the schedule-space
//! explorer: every [`ExploreMutant`] must be caught by exploration with
//! its declared [`FindingClass`] (the admission defects live in
//! `hetsort-serve`'s suite). The suite fails if the explorer misses
//! any.

use std::collections::BTreeSet;

use hetsort_analyze::explore::{explore, ExploreConfig};
use hetsort_analyze::{explore_plan_trace, ExploreMutant, FindingClass, ReplanModel};
use hetsort_core::optrace::lower_plan;
use hetsort_core::plan::Plan;
use hetsort_core::recover::survivor_plan;
use hetsort_core::{Approach, HetSortConfig};
use hetsort_sim::TraceKind;
use hetsort_vgpu::platform2;

fn pinned_plan() -> Plan {
    let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
        .with_batch_elems(1000)
        .with_pinned_elems(500);
    Plan::build(cfg, 4500).unwrap()
}

/// Run one analyze-side mutant through the explorer and return the
/// resulting findings' classes.
fn explore_mutant(mutant: ExploreMutant) -> Vec<FindingClass> {
    if let Some(defect) = mutant.replan_defect() {
        let mut model = ReplanModel::new(pinned_plan(), vec![1], Some(defect));
        let report = explore(&mut model, &ExploreConfig::default());
        assert!(
            !report.truncated,
            "{}: must explore exhaustively",
            mutant.name()
        );
        return report.findings.iter().map(|f| f.class).collect();
    }
    // Model the recovery path forgetting a cross-stream wait: build
    // the survivor plan the coordinator would re-plan onto after
    // losing GPU 0, lower it, and drop its last stream_wait_event.
    let base = pinned_plan();
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

#[test]
fn every_analyze_side_explorer_mutant_is_killed_with_its_declared_class() {
    for mutant in ExploreMutant::ALL {
        let classes = explore_mutant(mutant);
        let expected = mutant.expected_class();
        assert!(
            classes.contains(&expected),
            "{}: explorer missed the seeded defect — expected {}, got {:?}",
            mutant.name(),
            expected.name(),
            classes
        );
    }
}

#[test]
fn clean_recovery_baseline_stays_clean() {
    // The kill assertions above only mean something if the same
    // pinned plan explores clean without the seeded defects.
    let mut model = ReplanModel::new(pinned_plan(), vec![1], None);
    let report = explore(&mut model, &ExploreConfig::default());
    assert!(report.is_clean(), "{}", report.summary());

    let lost: BTreeSet<usize> = [0].into_iter().collect();
    let survivor = survivor_plan(&pinned_plan(), &lost)
        .unwrap()
        .expect("one GPU survives");
    let trace = lower_plan(&survivor);
    let report = explore_plan_trace(&survivor, trace, &ExploreConfig::default());
    assert!(report.is_clean(), "{}", report.summary());
}
