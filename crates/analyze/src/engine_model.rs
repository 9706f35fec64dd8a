//! [`SchedModel`] over the shipped engine: every node order and loss
//! alignment of the inline dag engine under a device-loss schedule
//! (DESIGN § 16 states why its footprints are sound).
//!
//! Nothing about recovery is modelled here. A schedule prefix is
//! replayed by running the engine itself ([`execute_dag_hooked`] at
//! `workers = 0`) with a [`Schedule`] hook that pops the ready node the
//! explorer chose, and fires a scheduled loss when the explorer steps
//! that loss's fault thread. Past the prefix the hook takes the lowest
//! enabled thread and records every scheduling point, so the engine runs
//! again only where the explorer branches off the recorded run. The
//! [`FindingClass::ReplanCover`] checks read what the engine did: how
//! often each batch's run was published, the survivor plans' tiling,
//! the output check, and the engine's result.

use std::sync::{Arc, Mutex, PoisonError};

use hetsort_core::dag::hooks::{execute_dag_hooked, EngineHooks, Pick, Schedule};
use hetsort_core::optrace::{node_accesses, Buffer};
use hetsort_core::plan::Plan;
use hetsort_core::{DagNode, DagOp, HetSortError, PlanDag, RealOutcome};
use hetsort_vgpu::FaultInjector;

use crate::explore::{Footprint, Res, SchedModel};
use crate::finding::{Finding, FindingClass};

/// A thread's pending action at a scheduling point.
type Action = (usize, Pick, Footprint);

/// One scheduling point: every enabled thread's action, and the thread
/// the run took.
struct Point {
    actions: Vec<Action>,
    chosen: usize,
}

/// What one engine run did.
#[derive(Default)]
struct Run {
    points: Vec<Point>,
    /// GPUs whose loss fired.
    fired: Vec<usize>,
    /// Per batch: how often its run was published.
    published: Vec<usize>,
    /// Some prefix choice was not enabled where the replay reached it.
    diverged: bool,
}

impl Run {
    /// Record a point over `actions`, taking thread `want` when it is
    /// enabled and the lowest thread otherwise.
    fn take(&mut self, mut actions: Vec<Action>, want: Option<usize>) -> Pick {
        actions.sort_by_key(|a| a.0);
        let k = want.map_or(0, |t| {
            actions.iter().position(|a| a.0 == t).unwrap_or_else(|| {
                self.diverged = true;
                0
            })
        });
        let (chosen, pick) = (actions[k].0, actions[k].1);
        if let Pick::Lose(gpu) = pick {
            self.fired.push(gpu);
        }
        self.points.push(Point { actions, chosen });
        pick
    }
}

/// The [`Schedule`] one run of `model` follows.
struct Driver<'m> {
    model: &'m EngineModel,
    run: Mutex<Run>,
}

/// The physical GPU a device op runs on.
fn device_gpu(plan: &Plan, node: &DagNode) -> Option<usize> {
    match node.op {
        DagOp::HtoD { batch, .. } | DagOp::Sort { batch } | DagOp::DtoH { batch, .. } => {
            Some(plan.physical_gpu(plan.batches.get(batch)?.gpu))
        }
        _ => None,
    }
}

/// Whether `node` is its batch's last chunk out of the device (DtoH) or
/// into W (the stage-out that publishes the batch's run).
fn last_chunk_out(plan: &Plan, node: &DagNode) -> bool {
    match node.op {
        DagOp::DtoH {
            batch, start, len, ..
        }
        | DagOp::StagingCopy {
            batch,
            start,
            len,
            dir_in: false,
            ..
        } => (plan.batches.get(batch)).is_some_and(|b| start + len == b.start + b.len),
        _ => false,
    }
}

/// The footprint of a device op on dead GPU `gpu` in the pass over
/// `plan`'s `nodes`: it fails before touching a buffer and ends the
/// pass. It reads what outlives the pass — what the publishing
/// stage-outs and the merges write, and the pass's other GPUs'
/// liveness, which losses write — and records its own GPU lost.
fn pass_end(plan: &Plan, nodes: &[DagNode], gpu: usize) -> Footprint {
    let outputs = nodes
        .iter()
        .filter(|n| n.op.is_merge() || last_chunk_out(plan, n))
        .flat_map(|n| node_accesses(plan, n))
        .filter(|a| a.write && matches!(a.buf, Buffer::Host { .. }))
        .map(|a| Res::Buf(a.buf));
    let others = (plan.device_ids.iter())
        .filter(|&&g| g != gpu)
        .map(|&g| Res::Gpu(g));
    let fp = Footprint::write(Res::Epoch).and_write(Res::Gpu(gpu));
    outputs.chain(others).fold(fp, Footprint::and_read)
}

impl Schedule for Driver<'_> {
    fn pick(&self, plan: &Plan, nodes: &[DagNode], ready: &[usize], checkpointed: &[bool]) -> Pick {
        let m = self.model;
        let host = m.dag.plan.total_streams;
        let mut run = self.run.lock().unwrap_or_else(PoisonError::into_inner);
        let mut actions: Vec<Action> = Vec::new();
        for &id in ready {
            let node = &nodes[id];
            let thread = node.stream.filter(|&s| s < host).unwrap_or(host);
            if actions.iter().any(|a| a.0 == thread) {
                continue;
            }
            let footprint = match (node.op.batch(), device_gpu(plan, node)) {
                (Some(b), _) if checkpointed.get(b) == Some(&true) => Footprint::default(),
                (_, Some(g)) if run.fired.contains(&g) => pass_end(plan, nodes, g),
                (_, gpu) => {
                    let fp = Footprint::of(node_accesses(plan, node));
                    match gpu.filter(|_| last_chunk_out(plan, node)) {
                        Some(g) => fp.and_read(Res::Gpu(g)),
                        None => fp,
                    }
                }
            };
            actions.push((thread, Pick::Node(id), footprint));
        }
        actions.extend(m.unfired(&run.fired));
        let want = m.prefix.get(run.points.len()).copied();
        run.take(actions, want)
    }

    fn published(&self, batch: usize) {
        let mut run = self.run.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(n) = run.published.get_mut(batch) {
            *n += 1;
        }
    }
}

/// Exhaustive-interleaving model of the shipped engine recovering from
/// a device-loss schedule. Threads: one per stream (a survivor re-plan
/// numbers its own streams from 0), one host thread for the merges, and
/// one fault thread per distinct scheduled loss.
pub struct EngineModel {
    dag: PlanDag,
    data: Vec<f64>,
    /// Distinct physical GPUs the schedule loses, in schedule order.
    losses: Vec<usize>,
    /// The seeded engine defects; each run adds its own schedule.
    defects: EngineHooks<'static>,
    prefix: Vec<usize>,
    /// The scheduling points of the last run, which followed `prefix`.
    points: Vec<Point>,
    findings: Vec<Finding>,
}

impl EngineModel {
    /// Model `plan` run by the engine on small deterministic data while
    /// the GPUs in `losses` fall out of the pool, with the engine
    /// `defects` set. The plan's own fault injector is replaced: losses
    /// fire where the explorer puts them, never at an op count.
    pub fn new(plan: &Plan, losses: &[usize], defects: EngineHooks<'static>) -> EngineModel {
        let first = |&(i, g): &(usize, &usize)| !losses[..i].contains(g);
        let distinct = losses.iter().enumerate().filter(first);
        let mut model = EngineModel {
            dag: PlanDag::from_plan(plan.clone()),
            data: (0..plan.n).rev().map(|i| i as f64).collect(),
            losses: distinct.map(|(_, &g)| g).collect(),
            defects: EngineHooks {
                schedule: None,
                ..defects
            },
            prefix: Vec::new(),
            points: Vec::new(),
            findings: Vec::new(),
        };
        model.run();
        model
    }

    /// The distinct GPUs the model loses, in schedule order.
    pub fn losses(&self) -> &[usize] {
        &self.losses
    }

    /// The fault threads' actions for the losses not yet `fired`.
    fn unfired<'a>(&'a self, fired: &'a [usize]) -> impl Iterator<Item = Action> + 'a {
        let first = self.dag.plan.total_streams + 1;
        (self.losses.iter().enumerate())
            .filter(|(_, g)| !fired.contains(g))
            .map(move |(f, &g)| (first + f, Pick::Lose(g), Footprint::write(Res::Gpu(g))))
    }

    /// Run the engine along `prefix`, then on along the lowest enabled
    /// thread, recording the scheduling points and the checks.
    fn run(&mut self) {
        // Scheduled at an op count no run reaches, a loss fires only
        // when the hook fires it.
        let inj = (self.losses.iter()).fold(FaultInjector::new(), |inj, &g| {
            inj.lose_device(g, usize::MAX)
        });
        self.dag.plan.config.faults = Some(Arc::new(inj));
        let driver = Driver {
            model: self,
            run: Mutex::new(Run {
                published: vec![0; self.dag.plan.nb()],
                ..Run::default()
            }),
        };
        let hooks = EngineHooks {
            schedule: Some(&driver),
            ..self.defects
        };
        let outcome = execute_dag_hooked(&self.dag, &self.data, 0, hooks);
        let mut run = (driver.run.into_inner()).unwrap_or_else(PoisonError::into_inner);
        loop {
            let actions: Vec<Action> = self.unfired(&run.fired).collect();
            if actions.is_empty() {
                break;
            }
            let want = self.prefix.get(run.points.len()).copied();
            run.take(actions, want);
        }
        self.findings = self.check(&run, outcome);
        self.points = run.points;
    }

    /// The replan-cover checks over what one run did.
    fn check(&self, run: &Run, outcome: Result<RealOutcome, HetSortError>) -> Vec<Finding> {
        let name = self.name();
        let mut findings = Vec::new();
        let mut cover = |code, batch: Option<usize>, what: &str| {
            findings.push(Finding {
                class: FindingClass::ReplanCover,
                code,
                message: format!("{name}: {what}"),
                ops: batch.map(|b| format!("batch{b}")).into_iter().collect(),
            });
        };
        for (b, &n) in run.published.iter().enumerate() {
            let code = match n {
                0 => "batch-dropped",
                1 => continue,
                _ => "double-sorted",
            };
            cover(code, Some(b), &format!("batch {b} published {n}×"));
        }
        let tiling = |p: &Plan| -> Vec<(usize, usize)> {
            p.batches.iter().map(|b| (b.start, b.len)).collect()
        };
        let base = tiling(&self.dag.plan);
        match outcome {
            Ok(out) if out.replans.iter().any(|p| tiling(p) != base) => cover(
                "replan-tiling",
                None,
                "a survivor plan re-tiles the batches",
            ),
            Ok(out) if !out.verified => cover("unverified", None, "the output fails its check"),
            Ok(_) => {}
            Err(e) => cover("engine-error", None, &format!("the engine failed: {e}")),
        }
        if run.diverged {
            findings.push(Finding {
                class: FindingClass::Malformed,
                code: "replay-diverged",
                message: format!("{name}: replaying the schedule reached another state"),
                ops: Vec::new(),
            });
        }
        findings
    }

    fn point(&self) -> Option<&Point> {
        self.points.get(self.prefix.len())
    }
}

impl SchedModel for EngineModel {
    fn name(&self) -> String {
        let plan = &self.dag.plan;
        format!(
            "engine {} n={} gpus={} staging={} faults={:?}",
            plan.config.approach.name(),
            plan.n,
            plan.config.platform.n_gpus(),
            plan.config.staging.name(),
            self.losses
        )
    }

    fn n_threads(&self) -> usize {
        self.dag.plan.total_streams + 1 + self.losses.len()
    }

    fn reset(&mut self) {
        // The recorded run starts from the initial state too.
        self.prefix.clear();
    }

    fn enabled(&self, thread: usize) -> bool {
        self.point()
            .is_some_and(|p| p.actions.iter().any(|a| a.0 == thread))
    }

    fn is_done(&self) -> bool {
        self.point().is_none()
    }

    fn next_footprint(&self, thread: usize) -> Footprint {
        self.point()
            .and_then(|p| p.actions.iter().find(|a| a.0 == thread))
            .map_or_else(Footprint::global, |a| a.2.clone())
    }

    fn step(&mut self, thread: usize) {
        let on_record = self.point().is_some_and(|p| p.chosen == thread);
        self.prefix.push(thread);
        if !on_record {
            self.run();
        }
    }

    fn check_final(&self) -> Vec<Finding> {
        self.findings.clone()
    }

    fn blocked_describe(&self) -> String {
        format!(
            "the engine run ended after {} of {} recorded scheduling point(s)",
            self.prefix.len(),
            self.points.len()
        )
    }
}
