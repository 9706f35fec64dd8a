//! The one DAG engine behind every functional execution.
//!
//! [`execute_dag`] and [`execute_dag_pooled`] schedule a [`PlanDag`]'s
//! nodes (the `&Plan` entry points hand them `plan.steps` in place)
//! through one [`ReadySet`] over *all* of them — merges included,
//! released by their dag edges — and the engine's only resource
//! parameter is the number of stream `workers`. The test battery's
//! hooks (tie-break, the schedule a model checker drives the inline
//! engine with, seeded engine defects) are not parameters: they enter
//! through [`crate::dag::mutate::execute_dag_hooked`].
//!
//! * `workers = 0` ([`execute_dag`]) runs every node inline on the
//!   calling thread. Under [`crate::dag::TieBreak::MinId`] the ready
//!   order *is* the plan submission order, so outputs, spans, recovery
//!   statistics, fault-injection occurrence alignment and executed
//!   traces are deterministic (the differential suites pin them).
//! * `workers = N` ([`execute_dag_pooled`]) spawns N threads that pop
//!   the stream-bound nodes of the first pass from that same ready set
//!   (behind one mutex + condvar) while the calling thread pops the
//!   merge nodes, so each pair merge fires the moment both inputs exist
//!   and overlaps the staging pipeline (PIPEMERGE semantics). Streams
//!   never interleave internally: a stream's nodes run under its lock,
//!   in the order its FIFO edges release them.
//!
//! Every worker count routes the failure model through the same code:
//! each node runs in one sandbox (typed faults, injected and real
//! panics), a device loss ends the pass and the unfinished batches are
//! re-planned onto a survivor dag (per-batch checkpoints survive; every
//! pass after the first is inline), and the base dag's merges that no
//! pass reached run last. A batch that cannot finish on the GPU — its
//! stream gave it up, its stream died, or no device survives — takes
//! the one host-sort path, straight from `A`, when
//! [`crate::config::RecoveryPolicy::cpu_fallback`] allows.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use hetsort_algos::keys::{RadixKey, SortOrd};
use hetsort_algos::merge::par_merge_into_cfg;
use hetsort_algos::multiway::par_multiway_merge_into_cfg;
use hetsort_algos::par::{SchedCfg, SchedStats};
use hetsort_algos::radix_par::par_radix_sort_cfg;
use hetsort_algos::verify::{par_check_sorted, par_fingerprint};
use hetsort_obs::{MetricsRegistry, ObsSpan, OpClass};

use crate::dag::mutate::{EngineHooks, Pick};
use crate::dag::{node_span, DagNode, DagOp, PlanDag, ReadySet};
use crate::error::HetSortError;
use crate::exec_real::RealOutcome;
use crate::exec_stream::StreamExec;
use crate::optrace::{trace_nodes, Route};
use crate::plan::{BatchInfo, MergeSrc, Plan};
use crate::pool::PoolStats;
use crate::report::RecoveryStats;

/// Shared entry checks: data/plan agreement, element width, dag
/// validity.
fn check_inputs<T>(plan: &Plan, nodes: &[DagNode], data: &[T]) -> Result<(), HetSortError> {
    if data.len() != plan.n {
        return Err(HetSortError::data(format!(
            "data length {} does not match plan n = {}",
            data.len(),
            plan.n
        )));
    }
    let elem_bytes = plan.config.elem_bytes.bytes();
    if std::mem::size_of::<T>() as u64 != elem_bytes {
        return Err(HetSortError::data(format!(
            "element type is {} bytes but the config models {} — call with_elem_bytes",
            std::mem::size_of::<T>(),
            elem_bytes
        )));
    }
    super::check::check(plan, nodes)
}

/// Lock a mutex, recovering the guard from a poisoned lock: a panic
/// inside a node is already recorded against its stream, whose state is
/// only read for statistics afterwards.
fn lock_any<G>(m: &Mutex<G>) -> MutexGuard<'_, G> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Expand a merge's [`SchedStats`] into per-worker [`OpClass::CpuPart`]
/// spans nested under the merge's span: its node and placement, the
/// worker's index, the worker's interval on the same clock. Idle
/// workers (zero parts) are skipped — they never executed.
fn cpu_part_spans<'a>(
    merge: &'a ObsSpan,
    stats: &'a SchedStats,
) -> impl Iterator<Item = ObsSpan> + 'a {
    stats
        .workers
        .iter()
        .filter(|w| w.parts > 0)
        .map(|w| ObsSpan {
            class: OpClass::CpuPart,
            worker: Some(w.worker as u32),
            bytes: 0.0,
            t_start: merge.t_start + w.start_s,
            t_end: merge.t_start + w.end_s,
            ..merge.clone()
        })
}

/// One sorted run through its life: a batch its stream stages out, or
/// a pair merge's output. The validator's `merge-cover` rule proves
/// every run has exactly one consumer merge, so the run is dead once
/// that merge has read it.
enum Run<T> {
    /// Not produced yet (this pass may still produce it).
    Pending,
    /// Produced and waiting for its consumer.
    Sorted(Vec<T>),
    /// Read by its consumer and freed. For the checkpoint a consumed
    /// batch is as done as a sorted one: no re-plan recomputes it.
    Consumed,
}

impl<T> Run<T> {
    /// Whether the run was produced (consumed or not).
    fn is_done(&self) -> bool {
        !matches!(self, Run::Pending)
    }

    /// Hand the run to its one consumer, leaving [`Run::Consumed`].
    /// `Err` says why there is nothing to hand over.
    fn take(&mut self) -> Result<Vec<T>, &'static str> {
        match std::mem::replace(self, Run::Consumed) {
            Run::Sorted(run) => Ok(run),
            Run::Pending => {
                *self = Run::Pending;
                Err("was never produced")
            }
            Run::Consumed => Err("was already consumed"),
        }
    }
}

/// The caller-owned merge half of a run: pair outputs, the final
/// output, and which of the base dag's merge nodes already ran. Only
/// the calling thread ever merges, so none of this is shared.
struct Merges<'a, T> {
    plan: &'a Plan,
    sched: SchedCfg,
    threads: usize,
    t0: Instant,
    pair_out: Vec<Run<T>>,
    sorted: Vec<T>,
    done: Vec<bool>,
    spans: Vec<ObsSpan>,
}

impl<T> Merges<'_, T>
where
    T: RadixKey + SortOrd + Default,
{
    /// Execute merge node `id` of the base dag. The merge is the one
    /// consumer of each input — sorted `batches` and earlier pair
    /// outputs — so it takes them, and they are freed when it returns.
    fn run(
        &mut self,
        id: usize,
        node: &DagNode,
        batches: &[Mutex<Run<T>>],
    ) -> Result<(), HetSortError> {
        let op = &node.op;
        let t0 = self.t0;
        let now = move || t0.elapsed().as_secs_f64();
        // `slot` is the pair slot a two-way merge writes; `None` is B.
        let (srcs, out_elems, slot) = match op {
            DagOp::PairMerge { slot } | DagOp::CpuMerge { slot } => {
                // `merge-inputs` proved the slot exists.
                let spec = self.plan.pairs[*slot];
                (vec![spec.left, spec.right], spec.out_elems, Some(*slot))
            }
            DagOp::MultiwayMerge { inputs } => (inputs.clone(), self.plan.n, None),
            other => {
                return Err(HetSortError::Plan {
                    reason: format!("node {id}: {} is not a merge", other.class_name()),
                })
            }
        };
        let runs = srcs
            .iter()
            .map(|&src| {
                // `merge-cover` proved every input names a batch or slot.
                match src {
                    MergeSrc::Batch(b) => lock_any(&batches[b]).take(),
                    MergeSrc::Merged(p) => self.pair_out[p].take(),
                }
                .map_err(|what| HetSortError::Plan {
                    reason: format!("merge node {id}: input {src:?} {what}"),
                })
            })
            .collect::<Result<Vec<Vec<T>>, _>>()?;
        let lists: Vec<&[T]> = runs.iter().map(Vec::as_slice).collect();
        let mut out = vec![T::default(); out_elems];
        let m_start = now();
        let stats = match slot {
            Some(_) => par_merge_into_cfg(&self.sched, self.threads, lists[0], lists[1], &mut out),
            None => par_multiway_merge_into_cfg(&self.sched, self.threads, &lists, &mut out),
        };
        let m_end = now();
        // The inputs die here, before the next merge allocates.
        drop(lists);
        drop(runs);
        match slot {
            Some(slot) => self.pair_out[slot] = Run::Sorted(out),
            None => self.sorted = out,
        }
        let span = ObsSpan {
            bytes: (out_elems as u64 * self.plan.config.elem_bytes.bytes()) as f64,
            t_start: m_start,
            t_end: m_end,
            ..node_span(self.plan, id, node)
        };
        self.spans.extend(cpu_part_spans(&span, &stats));
        self.spans.push(span);
        self.done[id] = true;
        Ok(())
    }
}

/// One stream's interpreter plus the sorted run it is staging out.
struct StreamSlot<'p, T> {
    sx: StreamExec<'p, T>,
    /// Stage-out chunks of the stream's current batch, appended in
    /// chunk order (the FIFO edges) until they add up to the batch.
    assembling: Vec<T>,
    /// Nodes of this stream the pass has not run yet. At zero the
    /// stream's buffers are dead and [`StreamExec::release`] frees them.
    left: usize,
}

/// Scheduling state of one pass, behind the pass mutex.
struct Sched {
    ready: ReadySet,
    /// Nodes popped and not yet finished.
    inflight: usize,
    /// A device loss or an unrecovered fault ends the pass: nothing
    /// more is popped, nodes already running finish.
    stop: bool,
    /// Physical GPUs that fell out of the pool during this pass.
    lost: Vec<usize>,
    /// The first fault recovery does not absorb.
    error: Option<HetSortError>,
    /// Per stream: the panic that killed it. A dead stream's blocked
    /// successors never become ready and its ready nodes are dropped
    /// un-run, so the pass drains around it.
    dead: Vec<Option<String>>,
}

/// One ready-order pass over a dag: the state every thread of the pass
/// shares. Stream nodes of batches already done in `batches` (the
/// checkpoint) are skipped.
struct Pass<'p, T> {
    plan: &'p Plan,
    nodes: &'p [DagNode],
    batches: &'p [Mutex<Run<T>>],
    /// Where a batch its stream gives up goes.
    host_sort: &'p HostSort<'p, T>,
    streams: Vec<Mutex<StreamSlot<'p, T>>>,
    sched: Mutex<Sched>,
    cond: Condvar,
    /// Other threads share this pass (someone may be waiting on `cond`).
    pooled: bool,
    /// The test battery's hooks (the default in production).
    hooks: EngineHooks<'p>,
}

impl<T> Pass<'_, T>
where
    T: RadixKey + SortOrd + Default,
{
    /// Execute stream node `id` on its stream's interpreter, and free
    /// the stream's buffers after its last node.
    fn step(&self, id: usize) -> Result<(), HetSortError> {
        let node = &self.nodes[id];
        let (s, slot) = node
            .stream
            .and_then(|s| Some((s, self.streams.get(s)?)))
            .ok_or_else(|| HetSortError::Plan {
                reason: format!("node {id} is bound to no stream of its plan"),
            })?;
        let mut slot = lock_any(slot);
        let StreamSlot {
            sx,
            assembling,
            left,
        } = &mut *slot;
        self.run_on(id, node, s, sx, assembling)?;
        *left -= 1;
        if *left == 0 {
            sx.release();
        }
        Ok(())
    }

    /// [`Pass::step`]'s node body, on stream `s`'s locked state.
    fn run_on(
        &self,
        id: usize,
        node: &DagNode,
        s: usize,
        sx: &mut StreamExec<'_, T>,
        assembling: &mut Vec<T>,
    ) -> Result<(), HetSortError> {
        let plan = self.plan;
        let batch = node.op.batch();
        if batch.is_some_and(|b| self.batches.get(b).is_some_and(|c| lock_any(c).is_done())) {
            // Checkpointed in an earlier pass, or given up at an
            // earlier node of this one.
            sx.log_route(id, Route::Skipped);
            return Ok(());
        }
        if let DagOp::StagingCopy {
            batch,
            chunk: 0,
            dir_in: true,
            ..
        } = node.op
        {
            if plan
                .config
                .faults
                .as_deref()
                .is_some_and(|inj| inj.should_panic(s))
            {
                // Unwound without the panic hook: an injected panic the
                // engine recovers from prints nothing.
                let message = format!("injected panic in stream worker {s} at batch {batch}");
                std::panic::resume_unwind(Box::new(message));
            }
        }
        let route = sx.step(id, node, &mut |batch, _start, chunk| {
            let len = plan.batches[batch].len;
            if assembling.capacity() == 0 {
                *assembling = Vec::with_capacity(len);
            }
            assembling.extend_from_slice(chunk);
            if assembling.len() == len {
                let run = std::mem::take(assembling);
                // Set once per pass at most: the skip above keeps a
                // checkpointed batch from being staged out again.
                let mut cell = lock_any(&self.batches[batch]);
                if !cell.is_done() {
                    *cell = if self.hooks.free_before_consumer {
                        Run::Consumed
                    } else {
                        Run::Sorted(run)
                    };
                    if let Some(hook) = self.hooks.schedule {
                        hook.published(batch);
                    }
                }
            }
        })?;
        if let (Route::Degraded, Some(b)) = (route, batch) {
            // The chunks already staged out are superseded by the host
            // sort; the batch's remaining nodes then skip as done.
            *assembling = Vec::new();
            self.host_sort.batch(&plan.batches[b], &self.batches[b]);
        }
        Ok(())
    }

    /// Pop the next ready node that satisfies `mine`: the schedule
    /// hook's pick on the inline engine when one is set, the tie-break's
    /// otherwise. Losses the hook fires land here, between two nodes.
    fn pop(&self, g: &mut Sched, mine: &impl Fn(&DagNode) -> bool) -> Option<usize> {
        let Some(hook) = self.hooks.schedule.filter(|_| !self.pooled) else {
            return g.ready.pop_where(|i| mine(&self.nodes[i]));
        };
        let ready: Vec<usize> = g.ready.ready().collect();
        if ready.is_empty() {
            return None;
        }
        let checkpointed: Vec<bool> = self.batches.iter().map(|c| lock_any(c).is_done()).collect();
        loop {
            match hook.pick(self.plan, self.nodes, &ready, &checkpointed) {
                Pick::Node(id) if ready.contains(&id) => return g.ready.pop_where(|i| i == id),
                Pick::Node(_) => return g.ready.pop_where(|i| mine(&self.nodes[i])),
                Pick::Lose(gpu) => {
                    if let Some(inj) = self.plan.config.faults.as_deref() {
                        inj.fire_loss(gpu);
                    }
                }
            }
        }
    }

    /// Pop and run ready nodes that satisfy `mine` until the pass is
    /// drained, stuck behind a dead stream, or stopped. `run` executes
    /// inside the one node sandbox: whatever it does — return a typed
    /// fault, lose a device, panic — the node is accounted for before
    /// the next pop, so no thread can strand `inflight`.
    fn drive(
        &self,
        mine: impl Fn(&DagNode) -> bool,
        mut run: impl FnMut(usize) -> Result<(), HetSortError>,
    ) {
        let wake = || {
            if self.pooled {
                self.cond.notify_all();
            }
        };
        loop {
            let next = {
                let mut g = lock_any(&self.sched);
                loop {
                    if g.stop {
                        break None;
                    }
                    match self.pop(&mut g, &mine) {
                        Some(id) => {
                            let dead = |s| g.dead.get(s).is_some_and(Option::is_some);
                            if !self.nodes[id].stream.is_some_and(dead) {
                                g.inflight += 1;
                                break Some(id);
                            }
                        }
                        None if g.inflight == 0 && g.ready.ready_len() == 0 => break None,
                        None => {
                            g = match self.cond.wait(g) {
                                Ok(g) => g,
                                Err(poisoned) => poisoned.into_inner(),
                            }
                        }
                    }
                }
            };
            let Some(id) = next else {
                wake();
                return;
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| run(id)));
            let mut g = lock_any(&self.sched);
            g.inflight -= 1;
            match outcome {
                Ok(Ok(())) => g.ready.complete(id),
                Ok(Err(HetSortError::DeviceLost { gpu })) => {
                    if !g.lost.contains(&gpu) {
                        g.lost.push(gpu);
                    }
                    g.stop = true;
                }
                Ok(Err(e)) => {
                    g.error.get_or_insert(e);
                    g.stop = true;
                }
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|m| (*m).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".to_string());
                    let stream = self.nodes[id].stream;
                    match stream.and_then(|s| g.dead.get_mut(s)) {
                        Some(slot) => {
                            slot.get_or_insert(message);
                        }
                        None => {
                            g.error.get_or_insert(HetSortError::Plan {
                                reason: format!("node {id} panicked outside any stream: {message}"),
                            });
                            g.stop = true;
                        }
                    }
                }
            }
            drop(g);
            wake();
        }
    }
}

/// The one host-sort path of a batch that cannot finish on the GPU:
/// sorted straight from `A` at the batch-sort width.
struct HostSort<'a, T> {
    data: &'a [T],
    sched: SchedCfg,
    threads: usize,
    hooks: EngineHooks<'a>,
}

impl<T> HostSort<'_, T>
where
    T: RadixKey + SortOrd + Default,
{
    /// Host-sort batch `bi` into `cell` and publish it, unless it is
    /// done already. Whether it sorted.
    fn batch(&self, bi: &BatchInfo, cell: &Mutex<Run<T>>) -> bool {
        let mut cell = lock_any(cell);
        if cell.is_done() {
            return false;
        }
        let mut run = self.data[bi.start..bi.start + bi.len].to_vec();
        par_radix_sort_cfg(&self.sched, self.threads, &mut run);
        *cell = Run::Sorted(run);
        if let Some(hook) = self.hooks.schedule {
            hook.published(bi.index);
        }
        true
    }

    /// Host-sort every batch not yet done in `batches` — the path of
    /// dead streams and pools with no survivor. How many it sorted.
    fn missing(&self, plan: &Plan, batches: &[Mutex<Run<T>>]) -> usize {
        batches
            .iter()
            .zip(&plan.batches)
            .filter(|(cell, bi)| self.batch(bi, cell))
            .count()
    }
}

/// A failover span on the run clock: which GPUs are gone and what the
/// engine did about it.
fn failover_span(lost: &BTreeSet<usize>, action: &str, start: f64, end: f64) -> ObsSpan {
    let gpus: Vec<String> = lost.iter().map(|g| g.to_string()).collect();
    ObsSpan::other(
        format!("failover: GPU(s) {} lost{action}", gpus.join(", ")),
        start,
        end,
    )
}

/// Execute the dag inline on the calling thread, spawning nothing (the
/// pinned [`crate::dag::TieBreak::MinId`] determinism contract).
///
/// # Errors
///
/// [`HetSortError::Data`] on plan/data mismatches; [`HetSortError::Plan`]
/// when the dag fails [`PlanDag::validate`]; typed fault errors
/// ([`HetSortError::GpuOom`], [`HetSortError::TransferFault`],
/// [`HetSortError::DeviceSortFault`], [`HetSortError::DeviceLost`])
/// when the recovery policy does not absorb an injected fault;
/// [`HetSortError::WorkerPanic`] when a stream dies and CPU fallback is
/// disabled.
pub fn execute_dag<T>(dag: &PlanDag, data: &[T]) -> Result<RealOutcome<T>, HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    execute_nodes(&dag.plan, &dag.nodes, data, 0, EngineHooks::default())
}

/// Execute the dag with `workers` threads running the stream nodes and
/// the calling thread running the merges — the engine behind
/// [`crate::exec_real_mt::sort_real_parallel`].
///
/// Produces bit-identical output to [`execute_dag`]; `workers = 0` is
/// that inline run. With a fault injector armed, global occurrence
/// counters are still exact, but *which* stream observes an occurrence
/// depends on interleaving — concurrent fault tests should use
/// single-stream configs or worker-addressed panics.
///
/// # Errors
///
/// As [`execute_dag`].
pub fn execute_dag_pooled<T>(
    dag: &PlanDag,
    data: &[T],
    workers: usize,
) -> Result<RealOutcome<T>, HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    execute_nodes(&dag.plan, &dag.nodes, data, workers, EngineHooks::default())
}

/// Threads one batch sort runs on: the host's parallelism divided among
/// the `workers` stream workers that may each be sorting a batch at once
/// (`0` = the inline engine, one sort at a time), never below one.
fn sort_width(host_threads: usize, workers: usize) -> usize {
    (host_threads / workers.max(1)).max(1)
}

/// The dag a pass runs: the latest survivor re-plan's own nodes, or the
/// `base` dag while no device has been lost.
fn latest<'a>(replans: &'a [Plan], base: (&'a Plan, &'a [DagNode])) -> (&'a Plan, &'a [DagNode]) {
    replans.last().map_or(base, |rp| (rp, rp.steps.as_slice()))
}

/// The engine, over borrowed parts: `nodes` is the dag to run,
/// `plan` the geometry it indexes into. The `&Plan` entry points pass
/// `&plan.steps` and so run the plan in place. `hooks` is the default
/// everywhere but under the test battery.
pub(crate) fn execute_nodes<T>(
    plan: &Plan,
    nodes: &[DagNode],
    data: &[T],
    workers: usize,
    hooks: EngineHooks<'_>,
) -> Result<RealOutcome<T>, HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    check_inputs(plan, nodes, data)?;
    let cfg = &plan.config;
    let nb = plan.nb();
    // Thread sizing, one place, from the host alone: merges and the
    // entry and exit checks run at the host's parallelism, PARMEMCPY
    // staging copies too (plain copies at one), and every batch sort,
    // device stand-in or degraded host path, gets the host shared among
    // the stream workers that sort at once.
    let host = hetsort_algos::par::default_threads();
    let input_fp = par_fingerprint(host, data);
    let injected_before = cfg.faults.as_ref().map_or(0, |i| i.injected());
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    let sort_threads = sort_width(host, workers);
    let copy_threads = if cfg.par_memcpy { host } else { 1 };
    let sched = SchedCfg::default();
    let host_sort = HostSort {
        data,
        sched,
        threads: sort_threads,
        hooks,
    };

    // Memory: A (`data`, borrowed) and B, plus what is alive: a batch's
    // run from its first stage-out chunk until its one consumer merge
    // returns, a pair output from its merge until its consumer returns,
    // and a stream's device, pinned and recovery buffers until the
    // stream's last node. A consumed batch still counts as done for
    // the checkpoint device losses re-plan around.
    let mut batches: Vec<Mutex<Run<T>>> = (0..nb).map(|_| Mutex::new(Run::Pending)).collect();
    let mut merges = Merges {
        plan,
        sched,
        threads: host,
        t0,
        pair_out: (0..plan.pairs.len()).map(|_| Run::Pending).collect(),
        sorted: Vec::new(),
        done: vec![false; nodes.len()],
        spans: Vec::new(),
    };
    let mut recovery = RecoveryStats::default();
    let mut pool_stats = PoolStats::default();
    let mut metrics = MetricsRegistry::new();
    let mut replans: Vec<Plan> = Vec::new();
    let mut lost_gpus: BTreeSet<usize> = BTreeSet::new();
    let mut final_logs: Vec<Vec<(usize, Route)>>;
    let mut first_panic: Option<HetSortError> = None;

    // --- Ready-order passes produce the sorted runs. The first pass
    // schedules every node of the base dag, merges included; a device
    // loss ends it, and each further pass schedules the stream nodes of
    // the latest survivor re-plan, inline, over the batches not yet
    // checkpointed. Batch tiling is identical across re-plans, so the
    // *base* dag's merge schedule stays valid throughout.
    loop {
        let on_base = replans.is_empty();
        let (cur, cur_nodes) = latest(&replans, (plan, nodes));
        let workers = if on_base { workers } else { 0 };
        let pass = Pass {
            plan: cur,
            nodes: cur_nodes,
            batches: &batches,
            host_sort: &host_sort,
            streams: (0..cur.total_streams)
                .map(|s| {
                    Mutex::new(StreamSlot {
                        sx: StreamExec::new(cur, data, host, sort_threads, copy_threads, t0),
                        assembling: Vec::new(),
                        left: cur_nodes.iter().filter(|n| n.stream == Some(s)).count(),
                    })
                })
                .collect(),
            sched: Mutex::new(Sched {
                ready: ReadySet::new(
                    cur_nodes,
                    |i| on_base || !cur_nodes[i].op.is_merge(),
                    hooks.tie,
                ),
                inflight: 0,
                stop: false,
                lost: Vec::new(),
                error: None,
                dead: vec![None; cur.total_streams],
            }),
            cond: Condvar::new(),
            pooled: workers > 0,
            hooks,
        };
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| pass.drive(|n| !n.op.is_merge(), |id| pass.step(id)));
            }
            pass.drive(
                |n| workers == 0 || n.op.is_merge(),
                |id| match &cur_nodes[id] {
                    node if node.op.is_merge() => merges.run(id, node, &batches),
                    _ => pass.step(id),
                },
            );
        });
        let Pass {
            streams,
            sched: end,
            ..
        } = pass;
        let end = end.into_inner().unwrap_or_else(|p| p.into_inner());
        // The trace covers the final pass; earlier aborted passes' logs
        // reference a different dag's node ids.
        final_logs = Vec::with_capacity(streams.len());
        for slot in streams {
            let StreamSlot { mut sx, .. } = slot.into_inner().unwrap_or_else(|p| p.into_inner());
            recovery.retries += sx.stats.retries;
            recovery.degraded_batches += sx.stats.degraded_batches;
            recovery.oom_replans += sx.stats.oom_replans;
            pool_stats.absorb(sx.pool.stats);
            metrics.record_all(std::mem::take(&mut sx.span_log));
            final_logs.push(std::mem::take(&mut sx.routes));
        }
        if let Some(e) = end.error {
            return Err(e);
        }
        if let Some((worker, message)) = end
            .dead
            .into_iter()
            .enumerate()
            .find_map(|(s, m)| Some((s, m?)))
        {
            first_panic.get_or_insert(HetSortError::WorkerPanic { worker, message });
        }
        if end.lost.is_empty() {
            break;
        }

        // Device fault domain: what finished is checkpointed in
        // `batches`; re-plan the rest over the survivors. Several
        // devices can die inside one pooled pass — attribute every
        // casualty.
        recovery.device_lost += end.lost.len();
        for &g in &end.lost {
            recovery.record_lost_gpu(g);
        }
        lost_gpus.extend(&end.lost);
        let mut drop_one = hooks.drop_recovery_batch;
        for (b, cell) in batches.iter_mut().enumerate() {
            let cell = cell.get_mut().unwrap_or_else(PoisonError::into_inner);
            if hooks.skip_checkpoint {
                *cell = Run::Pending;
            }
            let gpu = cur.physical_gpu(cur.batches[b].gpu);
            if !cell.is_done() && end.lost.contains(&gpu) {
                recovery.batches_recomputed += 1;
            }
            if !cell.is_done() && std::mem::take(&mut drop_one) {
                *cell = Run::Consumed;
            }
        }
        let t_fail = now();
        match crate::recover::survivor_plan(plan, &lost_gpus)? {
            Some(rp) => {
                recovery.replans += 1;
                let action = format!(" → re-plan on {} device(s)", rp.device_ids.len());
                metrics.record(failover_span(&lost_gpus, &action, t_fail, now()));
                replans.push(rp);
            }
            None => {
                if !cfg.recovery.cpu_fallback {
                    // The typed error carries one representative id
                    // (the smallest casualty of this pass).
                    let gpu = end.lost.iter().min().copied().unwrap_or(0);
                    return Err(HetSortError::DeviceLost { gpu });
                }
                recovery.degraded_batches += host_sort.missing(plan, &batches);
                let action = ", no survivors → host sort";
                metrics.record(failover_span(&lost_gpus, action, t_fail, now()));
                break;
            }
        }
    }
    if let Some(e) = first_panic {
        if !cfg.recovery.cpu_fallback {
            return Err(e);
        }
        // Graceful degradation: host-sort whatever the dead stream(s)
        // never delivered.
        recovery.degraded_batches += host_sort.missing(plan, &batches);
    }

    // --- The base dag's merges that the first pass did not reach
    // (all of them ran already on a fault-free run).
    let mut rest = ReadySet::new(nodes, |i| nodes[i].op.is_merge(), hooks.tie);
    while let Some(id) = rest.pop() {
        if !merges.done[id] {
            merges.run(id, &nodes[id], &batches)?;
        }
        rest.complete(id);
    }
    // A one-batch plan has nothing to merge: its sorted run is B.
    let mut sorted = if nb == 1 {
        batches
            .pop()
            .map_or(Err("was never produced"), |c| {
                c.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
            })
            .map_err(|what| HetSortError::Plan {
                reason: format!("batch 0 {what}"),
            })?
    } else {
        merges.sorted
    };

    recovery.faults_injected = cfg.faults.as_ref().map_or(0, |i| i.injected()) - injected_before;
    // The executed trace describes the nodes that ran — with re-plans,
    // the final pass's (the dag that actually finished the run) — each
    // on the route its stream logged.
    let trace = cfg.record_trace.then(|| {
        let (ran, ran_nodes) = latest(&replans, (plan, nodes));
        let mut routes = vec![Route::Device; ran_nodes.len()];
        for (id, route) in final_logs.into_iter().flatten() {
            routes[id] = route;
        }
        trace_nodes(ran, ran_nodes, &routes)
    });
    metrics.record_all(merges.spans);
    recovery.fold_into(&mut metrics);
    pool_stats.fold_into(&mut metrics);
    let wall_s = now();
    hooks.corrupt_output(host, &mut sorted);
    let verified = par_check_sorted(host, &sorted, input_fp);
    Ok(RealOutcome {
        sorted,
        wall_s,
        verified,
        nb,
        pair_merges: merges.pair_out.iter().filter(|r| r.is_done()).count(),
        recovery,
        trace,
        metrics,
        replans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HetSortConfig};
    use crate::dag::mutate::execute_dag_hooked;
    use crate::dag::TieBreak;
    use crate::plan::Plan;
    use hetsort_algos::introsort::introsort;
    use hetsort_vgpu::platform1;

    fn data(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn dag(approach: Approach, bs: usize, ps: usize, n: usize) -> PlanDag {
        let cfg = HetSortConfig::paper_defaults(platform1(), approach)
            .with_batch_elems(bs)
            .with_pinned_elems(ps);
        PlanDag::from_plan(Plan::build(cfg, n).unwrap())
    }

    #[test]
    fn sort_width_shares_the_host_among_stream_workers() {
        let host = hetsort_algos::par::default_threads();
        for workers in [0usize, 1, 4, 64] {
            let w = sort_width(host, workers);
            assert!(w >= 1, "workers={workers}");
            assert!(
                w * workers.max(1) <= host.max(workers),
                "workers={workers}: {w} thread(s) each oversubscribes {host}"
            );
        }
        assert_eq!(sort_width(8, 0), 8, "the inline engine sorts at full width");
        assert_eq!(sort_width(8, 3), 2);
        assert_eq!(sort_width(2, 4), 1);
    }

    #[test]
    fn merge_width_never_exceeds_the_host() {
        // Pair merges of 50 000 elements are twelve grains: wide enough
        // that only the host's parallelism can bound their workers.
        let host = hetsort_algos::par::default_threads();
        let n = 200_000;
        let d = data(n, 21);
        let g = dag(Approach::PipeMerge, 25_000, 5_000, n);
        assert!(!g.plan.pairs.is_empty(), "the plan has pair merges");
        let runs = [(0, execute_dag(&g, &d)), (2, execute_dag_pooled(&g, &d, 2))];
        for (workers, out) in runs {
            let out = out.unwrap();
            assert!(out.verified, "workers={workers}");
            let parts: Vec<usize> = out
                .metrics
                .spans()
                .iter()
                .filter(|s| s.class == OpClass::CpuPart)
                .map(|s| s.worker.expect("a worker index") as usize)
                .collect();
            // One CPU runs every merge inline, and a merge this small in
            // one part: no CpuPart spans at all.
            assert_eq!(parts.is_empty(), host == 1, "workers={workers}: {parts:?}");
            assert!(
                parts.iter().all(|&k| k < host),
                "workers={workers}: worker index ≥ host parallelism {host}: {parts:?}"
            );
        }
    }

    #[test]
    fn tie_break_permutation_preserves_output() {
        let d = data(24_000, 17);
        let g = dag(Approach::PipeMerge, 3_000, 500, 24_000);
        let run = |tie| {
            let hooks = EngineHooks {
                tie,
                ..Default::default()
            };
            execute_dag_hooked(&g, &d, 0, hooks).unwrap()
        };
        let (min, max) = (run(TieBreak::MinId), run(TieBreak::MaxId));
        assert!(min.verified && max.verified);
        assert_eq!(
            min.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            max.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pooled_worker_counts_agree() {
        let n = 30_000;
        let d = data(n, 3);
        let mut expect = d.clone();
        introsort(&mut expect);
        let g = dag(Approach::PipeMerge, 4_000, 800, n);
        for workers in [0usize, 1, 2, 3, 8] {
            let out = execute_dag_pooled(&g, &d, workers).unwrap();
            assert!(out.verified, "workers={workers}");
            assert_eq!(
                out.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn cpu_merge_node_executes_with_its_own_span_class() {
        let n = 12_000;
        let d = data(n, 9);
        let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
            .with_batch_elems(2_000)
            .with_pinned_elems(400)
            .with_trace_recording();
        let mut g = PlanDag::from_plan(Plan::build(cfg, n).unwrap());
        // Re-type one pair merge onto the CPU merge resource.
        let idx = g
            .nodes
            .iter()
            .position(|node| matches!(node.op, DagOp::PairMerge { .. }))
            .expect("PipeMerge has pair merges");
        let DagOp::PairMerge { slot } = g.nodes[idx].op else {
            unreachable!()
        };
        g.nodes[idx].op = DagOp::CpuMerge { slot };
        g.validate().unwrap();
        let out = execute_dag(&g, &d).unwrap();
        assert!(out.verified);
        let classes: Vec<&str> = out.metrics.spans().iter().map(|s| s.class.name()).collect();
        assert!(classes.contains(&"CpuMerge"), "{classes:?}");
        let mut expect = d.clone();
        introsort(&mut expect);
        assert_eq!(
            out.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        // The executed trace describes the dag that ran: every pair
        // slot's trace label names the class its span was recorded
        // under — `CpuMerge` for the hand-re-typed one.
        let trace = out.trace.expect("trace recording is on");
        for (i, node) in g.nodes.iter().enumerate() {
            let (DagOp::PairMerge { slot } | DagOp::CpuMerge { slot }) = node.op else {
                continue;
            };
            let span = out
                .metrics
                .spans()
                .iter()
                .find(|s| s.node == Some(i as u32) && s.class != OpClass::CpuPart)
                .expect("every pair slot ran");
            let label = format!("{} slot {slot} (step {i})", span.class.name());
            assert!(
                trace.records.iter().any(|r| r.label == label),
                "no trace record `{label}`"
            );
        }
    }

    #[test]
    fn pinned_alloc_spans_record_the_node_bytes() {
        // Double-buffered staging carves both inbound halves out of one
        // allocation: that span is 2·p_s elements, the paper's is one.
        use crate::config::StagingMode;
        for (staging, halves) in [(StagingMode::Paper, 1), (StagingMode::DoubleBuffered, 2)] {
            let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
                .with_batch_elems(2_000)
                .with_pinned_elems(400)
                .with_staging(staging);
            let g = PlanDag::from_plan(Plan::build(cfg, 6_000).unwrap());
            let out = execute_dag(&g, &data(6_000, 4)).unwrap();
            let mut inbound = 0;
            for s in out.metrics.spans() {
                if s.class != OpClass::PinnedAlloc {
                    continue;
                }
                let node = s.node.expect("a pinned alloc is a dag node") as usize;
                let DagOp::PinnedAlloc { bytes, dir_in, .. } = g.nodes[node].op else {
                    panic!("{}: {s} is not a pinned alloc node", staging.name())
                };
                assert_eq!(s.bytes, bytes as f64, "{}: {s}", staging.name());
                if dir_in {
                    inbound += 1;
                    assert_eq!(s.bytes, (halves * 400 * 8) as f64, "{}", staging.name());
                }
            }
            assert_eq!(inbound, g.plan.total_streams, "{}", staging.name());
        }
    }

    #[test]
    fn losing_both_gpus_attributes_every_casualty() {
        use hetsort_vgpu::{platform2, FaultInjector};
        use std::sync::Arc;
        // Kill GPU 0 and GPU 1 in quick succession: the run degrades to
        // host sorting with NO survivors, and the recovery stats must
        // name *both* casualties — not just the first one noticed.
        let n = 24_000;
        let d = data(n, 33);
        let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(3_000)
            .with_pinned_elems(600)
            .with_faults(Arc::new(
                FaultInjector::new().lose_device(0, 2).lose_device(1, 3),
            ));
        let g = PlanDag::from_plan(Plan::build(cfg, n).unwrap());
        let out = execute_dag_pooled(&g, &d, 2).unwrap();
        assert!(out.verified, "host fallback still sorts");
        assert_eq!(out.recovery.device_lost, 2, "{}", out.recovery.summary());
        assert_eq!(
            out.recovery.lost_gpus(),
            vec![0, 1],
            "both casualties must be in the mask: {}",
            out.recovery.summary()
        );
        // The no-survivor failover span names every lost device.
        let failovers: Vec<&str> = out
            .metrics
            .spans()
            .iter()
            .filter_map(|s| s.text.as_deref())
            .filter(|t| t.starts_with("failover"))
            .collect();
        assert!(
            failovers.iter().any(|t| t.contains("GPU(s) 0, 1 lost")),
            "failover span must list both GPUs: {failovers:?}"
        );
        // The sequential engine attributes identically.
        let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(3_000)
            .with_pinned_elems(600)
            .with_faults(Arc::new(
                FaultInjector::new().lose_device(0, 2).lose_device(1, 3),
            ));
        let g = PlanDag::from_plan(Plan::build(cfg, n).unwrap());
        let seq = execute_dag(&g, &d).unwrap();
        assert_eq!(seq.recovery.lost_gpus(), vec![0, 1]);
    }

    #[test]
    fn rebound_stream_is_a_typed_error_at_every_worker_count() {
        // Renaming every node of a stream to an id the plan does not
        // have keeps all FIFO chains intact; only `stream-bind` sees
        // it. The pooled run sits under a watchdog so a regression
        // (a worker dying with its node still counted in flight) fails
        // instead of hanging the suite.
        let mut g = dag(Approach::PipeData, 2_000, 400, 6_000);
        for node in &mut g.nodes {
            if node.stream == Some(1) {
                node.stream = Some(99);
            }
        }
        let d = data(6_000, 1);
        for workers in [0usize, 2] {
            let (g, d) = (g.clone(), d.clone());
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = tx.send(execute_dag_pooled(&g, &d, workers));
            });
            match rx.recv_timeout(std::time::Duration::from_secs(60)) {
                Ok(Err(HetSortError::Plan { reason })) => {
                    assert!(reason.starts_with("stream-bind:"), "{reason}")
                }
                Ok(other) => panic!("workers={workers}: expected Plan error, got {other:?}"),
                Err(_) => panic!("workers={workers}: engine hung (or died) on a rebound stream"),
            }
        }
    }

    #[test]
    fn rewritten_chunk_fields_are_a_typed_error_on_every_entry_point() {
        // The interpreters read each node's own `(start, len)`, so a
        // dag whose chunk ops disagree with the batch tiling must be
        // rejected — by name — before anything runs or is timed. Both
        // rewrites keep every per-batch `StagingCopy` length sum intact.
        let base = dag(Approach::PipeMerge, 2_000, 400, 12_000);
        let mut dma = base.clone();
        let mut shifted = base;
        for node in &mut dma.nodes {
            if let DagOp::HtoD { start, len, .. } | DagOp::DtoH { start, len, .. } = &mut node.op {
                (*start, *len) = (0, 1);
            }
        }
        for node in &mut shifted.nodes {
            if let DagOp::StagingCopy {
                start,
                dir_in: true,
                ..
            } = &mut node.op
            {
                *start += 7;
            }
        }
        let d = data(12_000, 5);
        for g in [dma, shifted] {
            let outcomes = [
                g.validate(),
                execute_dag(&g, &d).map(drop),
                execute_dag_pooled(&g, &d, 2).map(drop),
                crate::exec_sim::simulate_dag(&g).map(drop),
            ];
            for (entry, outcome) in outcomes.into_iter().enumerate() {
                match outcome {
                    Err(HetSortError::Plan { reason }) => {
                        assert!(
                            reason.starts_with("chunk-cover:"),
                            "entry {entry}: {reason}"
                        )
                    }
                    other => panic!("entry {entry}: expected Plan error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn invalid_dag_is_rejected_before_execution() {
        let mut g = dag(Approach::PipeData, 2_000, 400, 6_000);
        let last = g.nodes.len() - 1;
        g.nodes[0].deps.push(last);
        let d = data(6_000, 1);
        match execute_dag(&g, &d) {
            Err(HetSortError::Plan { reason }) => assert!(reason.contains("cycle"), "{reason}"),
            other => panic!("expected Plan error, got {other:?}"),
        }
    }
}
