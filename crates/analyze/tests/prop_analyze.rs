//! Property tests: the analyzer has zero false positives on anything
//! `Plan::build` produces, and rejects every applicable mutant of any
//! such plan — not just the hand-picked base in the mutation suite.

use hetsort_analyze::{analyze_plan, FindingClass, Kill, Mutant};
use hetsort_core::plan::Plan;
use hetsort_core::{Approach, HetSortConfig, PairStrategy, PlanDag};
use hetsort_prng::{prop_assert, run_cases, Rng};
use hetsort_vgpu::platform1;
use hetsort_vgpu::platform2;

fn arb_plan(rng: &mut Rng) -> Plan {
    let approach = *rng.pick(&[
        Approach::BLineMulti,
        Approach::PipeData,
        Approach::PipeMerge,
    ]);
    let strategy = *rng.pick(&[
        PairStrategy::PaperHeuristic,
        PairStrategy::Online,
        PairStrategy::MergeTree,
    ]);
    let plat = if rng.bool() { platform2() } else { platform1() };
    let n = rng.usize_in(1, 8_000);
    let bs = ((n as f64 * rng.f64_in(0.05, 1.0)) as usize).max(1);
    let ps = ((bs as f64 * rng.f64_in(0.05, 1.0)) as usize).max(1);
    let cfg = HetSortConfig::paper_defaults(plat, approach)
        .with_batch_elems(bs)
        .with_pinned_elems(ps)
        .with_streams(rng.usize_in(1, 3))
        .with_pair_strategy(strategy);
    Plan::build(cfg, n).expect("valid geometry must plan")
}

#[test]
fn analyzer_accepts_every_built_plan() {
    run_cases("analyzer_accepts_every_built_plan", 60, |rng| {
        let plan = arb_plan(rng);
        let report = analyze_plan(&plan);
        prop_assert!(
            report.is_clean(),
            "false positive on {} {:?} n={} b_s={} p_s={} streams={}:\n{report}",
            plan.config.approach.name(),
            plan.config.pair_strategy,
            plan.n,
            plan.config.batch_elems,
            plan.config.pinned_elems,
            plan.config.streams_per_gpu
        );
        Ok(())
    });
}

#[test]
fn analyzer_rejects_every_applicable_mutant() {
    run_cases("analyzer_rejects_every_applicable_mutant", 30, |rng| {
        let base = PlanDag::from_plan(arb_plan(rng));
        for mutant in Mutant::ALL {
            // The linter reports a validator rule as a Malformed finding
            // that names the rule.
            let (class, named) = match mutant.kill() {
                Kill::Validator(rule) => (FindingClass::Malformed, format!("{rule}:")),
                Kill::Analyzer(class) => (class, String::new()),
                _ => continue, // killed by running or exploring, not analyzing
            };
            let Some(report) = mutant.analyze(&base) else {
                continue; // shape doesn't support this defect
            };
            let plan = &base.plan;
            prop_assert!(
                report.of_class(class).any(|f| f.message.contains(&named)),
                "{mutant:?} survived on {} {:?} n={} b_s={} p_s={} streams={}:\n{report}",
                plan.config.approach.name(),
                plan.config.pair_strategy,
                plan.n,
                plan.config.batch_elems,
                plan.config.pinned_elems,
                plan.config.streams_per_gpu
            );
        }
        Ok(())
    });
}

#[test]
fn undersize_staging_has_no_site_at_one_element_staging() {
    // p_s = 1 already is the mutant's value: there is no defect to seed,
    // and the mutant says so rather than surviving as a no-op.
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::BLineMulti)
        .with_batch_elems(9)
        .with_pinned_elems(1)
        .with_streams(1)
        .with_pair_strategy(PairStrategy::Online);
    let base = PlanDag::from_plan(Plan::build(cfg, 24).expect("valid geometry must plan"));
    assert!(Mutant::UndersizeStaging.analyze(&base).is_none());
}
