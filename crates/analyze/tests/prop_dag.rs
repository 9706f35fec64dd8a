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
//!    every approach × staging mode × pair strategy.
//! 4. A dag that validates never panics a consumer: after any random
//!    single-site defect the validator accepts, the engine sorts and
//!    verifies at every worker count, and the simulator, the analyzer
//!    and the host-memory model return.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hetsort_analyze::analyze_dag;
use hetsort_core::dag::hooks::{execute_dag_hooked, EngineHooks};
use hetsort_core::optrace::{lower_dag, lower_plan};
use hetsort_core::plan::MergeSrc;
use hetsort_core::{
    execute_dag, host_peak_bytes, simulate_dag, Approach, DagOp, HetSortConfig, PairStrategy, Plan,
    PlanDag, StagingMode, TieBreak,
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
                dag.nodes[dropped].op.class().name(),
                dag.nodes[node].op.class().name()
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
                for strategy in STRATEGIES {
                    let mut cfg = base
                        .clone()
                        .with_staging(staging)
                        .with_pair_strategy(strategy);
                    cfg.approach = approach;
                    if approach == Approach::BLine {
                        // BLINE is the one-batch baseline.
                        cfg = cfg.with_batch_elems(n);
                    }
                    let what = format!("{approach:?}/{staging:?}/{strategy:?} n={n}");
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
        Ok(())
    });
}

/// Apply one random single-site defect to `dag` and say what it was: an
/// extra edge, one merge input rewritten (a final-merge input or a side
/// of a pair slot), one batch moved to another GPU or stream, or one
/// batch's start shifted. Every index drawn reaches one past its range.
fn mutate_one_site(rng: &mut Rng, dag: &mut PlanDag) -> String {
    let (nodes, nb, slots) = (dag.nodes.len(), dag.plan.nb(), dag.plan.pairs.len());
    let b = rng.usize_in(0, nb);
    let batch = &mut dag.plan.batches[b];
    match rng.usize_in(0, 5) {
        0 => {
            let (i, d) = (rng.usize_in(0, nodes), rng.usize_in(0, nodes + 1));
            dag.nodes[i].deps.push(d);
            format!("edge {d} → {i}")
        }
        1 => {
            let src = if rng.bool() {
                MergeSrc::Batch(rng.usize_in(0, nb + 1))
            } else {
                MergeSrc::Merged(rng.usize_in(0, slots + 1))
            };
            let inputs = dag.nodes.iter_mut().find_map(|n| match &mut n.op {
                DagOp::MultiwayMerge { inputs } => Some(inputs),
                _ => None,
            });
            let k = inputs.as_ref().map_or(0, |i| i.len());
            if k + slots == 0 {
                return "no merge input to rewrite".into();
            }
            let site = rng.usize_in(0, k + 2 * slots);
            match inputs {
                Some(inputs) if site < k => inputs[site] = src,
                _ if (site - k).is_multiple_of(2) => dag.plan.pairs[(site - k) / 2].left = src,
                _ => dag.plan.pairs[(site - k) / 2].right = src,
            }
            format!("merge input site {site} := {src:?}")
        }
        2 => {
            batch.gpu = rng.usize_in(0, dag.plan.config.platform.n_gpus() + 1);
            format!("batch {b} on GPU {}", batch.gpu)
        }
        3 => {
            batch.stream = rng.usize_in(0, dag.plan.total_streams + 1);
            format!("batch {b} on stream {}", batch.stream)
        }
        _ => {
            batch.start = if rng.bool() {
                batch.start + rng.usize_in(1, 3)
            } else {
                batch.start.saturating_sub(rng.usize_in(1, 3))
            };
            format!("batch {b} starts at {}", batch.start)
        }
    }
}

/// Run `f`, turning a panic into an `Err` naming `what` and the panic.
fn no_panic<R>(what: &str, f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("{what} panicked: {text}")
    })
}

#[test]
fn a_dag_that_validates_never_panics_a_consumer() {
    run_cases("a_dag_that_validates_never_panics_a_consumer", 80, |rng| {
        let mut dag = arb_dag(rng);
        let what = mutate_one_site(rng, &mut dag);
        if dag.validate().is_err() {
            return Ok(());
        }
        let what = format!(
            "{} n={} after {what}",
            dag.plan.config.approach.name(),
            dag.plan.n
        );
        let data = lcg_data(dag.plan.n, rng.u64());
        for workers in [0, dag.plan.total_streams] {
            let out = no_panic("the engine", || {
                execute_dag_hooked(&dag, &data, workers, EngineHooks::default())
            })
            .map_err(|e| format!("{what}, workers={workers}: {e}"))?
            .map_err(|e| format!("{what}, workers={workers}: {e}"))?;
            prop_assert!(out.verified, "{what}, workers={workers}: not verified");
        }
        // A report or a typed error: either is a return.
        let _ =
            no_panic("simulate_dag", || simulate_dag(&dag)).map_err(|e| format!("{what}: {e}"))?;
        no_panic("analyze_dag", || analyze_dag(&dag)).map_err(|e| format!("{what}: {e}"))?;
        no_panic("host_peak_bytes", || host_peak_bytes(&dag.plan))
            .map_err(|e| format!("{what}: {e}"))?;
        Ok(())
    });
}
