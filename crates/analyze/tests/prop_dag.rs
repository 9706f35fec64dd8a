//! Property tests for the DAG engine contract:
//!
//! 1. Every dag lowered from a buildable plan validates, executes to a
//!    verified bitwise-stable output under *any* worker count and
//!    either tie-break order — scheduling freedom can never change the
//!    data.
//! 2. Deleting any single dependency edge is never silent: either the
//!    structural validator rejects the dag, or the happens-before
//!    checker reports the race in the trace lowered from the mutated
//!    edges. (The builder emits duplicate-free dependency lists, so
//!    every edge is load-bearing — this property is the proof.)
//! 3. One IR: a plan's `steps` *are* the dag — `from_plan` copies them
//!    verbatim, both trace entry points lower them identically, no node
//!    repeats a dep, and min-id ready order is submission order — over
//!    every approach × staging mode × hybrid mode × pair strategy.

use hetsort_analyze::analyze_dag;
use hetsort_core::dag::mutate::{execute_dag_hooked, EngineHooks};
use hetsort_core::optrace::{lower_dag, lower_plan};
use hetsort_core::{
    execute_dag, Approach, HetSortConfig, HybridMode, PairStrategy, Plan, PlanDag, StagingMode,
    TieBreak,
};
use hetsort_prng::{prop_assert, run_cases, Rng};
use hetsort_vgpu::{platform1, platform2};

const STRATEGIES: [PairStrategy; 3] = [
    PairStrategy::PaperHeuristic,
    PairStrategy::Online,
    PairStrategy::MergeTree,
];

/// A random multi-batch config and its input size.
fn arb_cfg(rng: &mut Rng) -> (HetSortConfig, usize) {
    let approach = *rng.pick(&[
        Approach::BLineMulti,
        Approach::PipeData,
        Approach::PipeMerge,
    ]);
    let strategy = *rng.pick(&STRATEGIES);
    let plat = if rng.bool() { platform2() } else { platform1() };
    let n = rng.usize_in(1, 6_000);
    let bs = ((n as f64 * rng.f64_in(0.05, 1.0)) as usize).max(1);
    let ps = ((bs as f64 * rng.f64_in(0.05, 1.0)) as usize).max(1);
    let mut cfg = HetSortConfig::paper_defaults(plat, approach)
        .with_batch_elems(bs)
        .with_pinned_elems(ps)
        .with_streams(rng.usize_in(1, 4))
        .with_pair_strategy(strategy);
    if rng.bool() {
        cfg = cfg.with_par_memcpy();
    }
    (cfg, n)
}

fn arb_dag(rng: &mut Rng) -> PlanDag {
    let (cfg, n) = arb_cfg(rng);
    PlanDag::from_plan(Plan::build(cfg, n).expect("valid geometry must plan"))
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

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn any_worker_count_and_tiebreak_agree() {
    run_cases("any_worker_count_and_tiebreak_agree", 25, |rng| {
        let dag = arb_dag(rng);
        prop_assert!(
            dag.validate().is_ok(),
            "lowered dag of {} n={} fails validation: {:?}",
            dag.plan.config.approach.name(),
            dag.plan.n,
            dag.validate()
        );
        let data = lcg_data(dag.plan.n, rng.u64());

        let base = execute_dag(&dag, &data).map_err(|e| format!("seq MinId: {e}"))?;
        prop_assert!(base.verified, "sequential MinId output not verified");
        let want = bits(&base.sorted);

        for workers in [0usize, 1, 2, 3, 8] {
            for tie in [TieBreak::MinId, TieBreak::MaxId] {
                let hooks = EngineHooks {
                    tie,
                    ..EngineHooks::default()
                };
                let out = execute_dag_hooked(&dag, &data, workers, hooks)
                    .map_err(|e| format!("workers={workers} {tie:?}: {e}"))?;
                prop_assert!(
                    out.verified && bits(&out.sorted) == want,
                    "workers={workers} {tie:?} diverged from inline MinId"
                );
            }
        }
        Ok(())
    });
}

#[test]
fn single_edge_deletion_never_silent() {
    run_cases("single_edge_deletion_never_silent", 40, |rng| {
        let dag = arb_dag(rng);
        let with_deps: Vec<usize> = (0..dag.nodes.len())
            .filter(|&i| !dag.nodes[i].deps.is_empty())
            .collect();
        prop_assert!(!with_deps.is_empty(), "dag has no edges at all");
        // Delete one random edge from one random node.
        let node = with_deps[rng.usize_in(0, with_deps.len())];
        let edge = rng.usize_in(0, dag.nodes[node].deps.len());
        let dropped = dag.nodes[node].deps[edge];
        let mut mutated = dag.clone();
        mutated.nodes[node].deps.remove(edge);

        let validator = mutated.validate();
        if validator.is_ok() {
            // The structural rules are blind to this edge — the race it
            // leaves behind must show up in the lowered trace.
            let report = analyze_dag(&mutated);
            prop_assert!(
                !report.is_clean(),
                "silent pass: deleting edge {dropped}→{node} ({} dep of {}) \
                 satisfied the validator AND the analyzer",
                dag.nodes[dropped].op.class_name(),
                dag.nodes[node].op.class_name()
            );
        }
        Ok(())
    });
}

#[test]
fn plan_steps_are_the_dag() {
    run_cases("plan_steps_are_the_dag", 10, |rng| {
        let (base, n) = arb_cfg(rng);
        for approach in [
            Approach::BLine,
            Approach::BLineMulti,
            Approach::PipeData,
            Approach::PipeMerge,
        ] {
            for staging in [StagingMode::Paper, StagingMode::DoubleBuffered] {
                for hybrid in [HybridMode::Off, HybridMode::Fraction(0.5), HybridMode::Auto] {
                    for strategy in STRATEGIES {
                        let mut cfg = base
                            .clone()
                            .with_staging(staging)
                            .with_hybrid(hybrid)
                            .with_pair_strategy(strategy);
                        cfg.approach = approach;
                        if approach == Approach::BLine {
                            // BLINE is the one-batch baseline.
                            cfg = cfg.with_batch_elems(n);
                        }
                        let what =
                            format!("{approach:?}/{staging:?}/{hybrid:?}/{strategy:?} n={n}");
                        let plan = Plan::build(cfg, n).map_err(|e| format!("{what}: {e}"))?;
                        let dag = PlanDag::from_plan(plan.clone());
                        prop_assert!(dag.nodes == plan.steps, "{what}: from_plan altered nodes");
                        prop_assert!(
                            lower_plan(&plan) == lower_dag(&dag),
                            "{what}: lower_plan and lower_dag disagree"
                        );
                        for (i, node) in plan.steps.iter().enumerate() {
                            let mut deps = node.deps.clone();
                            deps.sort_unstable();
                            deps.dedup();
                            prop_assert!(
                                deps.len() == node.deps.len(),
                                "{what}: node {i} repeats a dep: {:?}",
                                node.deps
                            );
                        }
                        let order = dag
                            .ready_order(TieBreak::MinId)
                            .map_err(|e| e.to_string())?;
                        prop_assert!(
                            order.iter().copied().eq(0..dag.nodes.len()),
                            "{what}: min-id ready order is not submission order"
                        );
                    }
                }
            }
        }
        Ok(())
    });
}
