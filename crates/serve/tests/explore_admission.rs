//! Mutation kill-suite for the admission half of the schedule-space
//! explorer: every seeded [`AdmissionDefect`] must be caught, with a
//! [`FindingClass::Budget`] finding, by exploring the scenario crafted
//! to expose it against the shipped `AdmissionController`. The suite
//! fails if the explorer misses any — that is the recall guarantee the
//! analyzer ships with.

use hetsort_analyze::explore::{explore, ExploreConfig};
use hetsort_analyze::FindingClass;
use hetsort_serve::admission_model::{
    scenario_equal_jobs, scenario_lose_join, AdmissionDefect, AdmissionModel, AdmissionScenario,
};

/// The scenario built to expose each admission defect.
fn scenario_for(defect: AdmissionDefect) -> AdmissionScenario {
    match defect {
        AdmissionDefect::DoubleRelease => scenario_equal_jobs(Some(defect)),
        AdmissionDefect::SkipDisplaceRelease => scenario_lose_join(Some(defect)),
    }
}

#[test]
fn every_admission_mutant_is_killed_against_the_shipped_controller() {
    for defect in AdmissionDefect::ALL {
        let mut model = AdmissionModel::new(scenario_for(defect));
        let report = explore(&mut model, &ExploreConfig::default());
        assert!(
            !report.truncated,
            "{}: must explore exhaustively",
            defect.name()
        );
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.class == FindingClass::Budget),
            "{}: explorer missed the seeded defect — expected a budget finding, got {:?}",
            defect.name(),
            report.findings
        );
    }
}

#[test]
fn double_release_overcommits_only_under_reuse() {
    let mut model = AdmissionModel::new(scenario_equal_jobs(Some(AdmissionDefect::DoubleRelease)));
    let report = explore(&mut model, &ExploreConfig::default());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.class == FindingClass::Budget && f.code == "overcommit"),
        "{}",
        report.summary()
    );
}

#[test]
fn skipped_displacement_release_leaks_the_reservation() {
    let mut model = AdmissionModel::new(scenario_lose_join(Some(
        AdmissionDefect::SkipDisplaceRelease,
    )));
    let report = explore(&mut model, &ExploreConfig::default());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.class == FindingClass::Budget),
        "{}",
        report.summary()
    );
}
