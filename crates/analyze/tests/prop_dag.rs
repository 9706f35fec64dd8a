//! Property tests for the DAG engine contract:
//!
//! 1. Every dag lowered from a buildable plan validates, executes to a
//!    verified bitwise-stable output under *any* worker count and
//!    either tie-break order — scheduling freedom can never change the
//!    data.
//! 2. Deleting any single dependency edge is never silent: either the
//!    structural validator rejects the dag, or the happens-before
//!    checker reports the race in the trace lowered from the mutated
//!    edges. (Lowering deduplicates dependency lists, so every
//!    remaining edge is load-bearing — this property is the proof.)

use hetsort_analyze::analyze_dag;
use hetsort_core::{
    execute_dag, execute_dag_opts, Approach, DagExecOptions, HetSortConfig, PairStrategy, Plan,
    PlanDag, TieBreak,
};
use hetsort_prng::{prop_assert, run_cases, Rng};
use hetsort_vgpu::{platform1, platform2};

fn arb_dag(rng: &mut Rng) -> PlanDag {
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
    let plan = Plan::build(cfg, n).expect("valid geometry must plan");
    PlanDag::from_plan(plan)
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
                let opts = DagExecOptions {
                    workers,
                    tie,
                    ..DagExecOptions::default()
                };
                let out = execute_dag_opts(&dag, &data, opts)
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
