//! The defect catalogue: every seeded schedule defect the batteries
//! prove they kill.
//!
//! Each [`Mutant`] is one small, realistic scheduling bug — the kind a
//! planner, lowering or engine refactor could introduce — together with
//! its [`Kill`]: the one named check contracted to catch it. A mutant
//! rewrites exactly one thing, its [`Site`]: the op dag
//! ([`Mutant::apply_dag`]), the trace lowered from it
//! ([`Mutant::apply_trace`]), the engine's run ([`Mutant::hooks`], the
//! switches of `hetsort_core::dag::hooks::EngineHooks`), or the trace
//! of the survivor plan a device loss re-plans onto (also
//! [`Mutant::apply_trace`]). The kill suite (`tests/mutation.rs`)
//! applies every mutant under both staging protocols and fails if the
//! contracted check does not fire, or if a mutant the catalogue calls
//! applicable finds no site.
//!
//! The admission controller's defects are
//! [`crate::admission_model::AdmissionDefect`]s: they seed another
//! object, the service's controller.

use hetsort_core::config::PairStrategy;
use hetsort_core::dag::hooks::EngineHooks;
use hetsort_core::dag::{DagOp, PlanDag};
use hetsort_core::optrace::{lower_dag, Buffer, OpTrace, TraceKind, TraceRecord};
use hetsort_core::plan::{Plan, StagingLayout};
use hetsort_vgpu::{platform1, platform2};

use crate::finding::{AnalysisReport, FindingClass};
use crate::static_lint::lint_dag;

/// The named check contracted to kill a [`Mutant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kill {
    /// `PlanDag::validate` rejects the mutated dag by this rule: its
    /// message names `<rule>:`, and the linter reports it as a
    /// [`FindingClass::Malformed`] finding.
    Validator(&'static str),
    /// The analyzer reports this class over the mutated dag and trace
    /// ([`Mutant::analyze`]), or, for a [`Site::Survivor`] mutant, over
    /// the survivor plan and its mutated trace
    /// ([`crate::analyze_plan_with_trace`]).
    Analyzer(FindingClass),
    /// Exploring every node order and loss alignment of the shipped
    /// engine losing a GPU reports this class.
    Explorer(FindingClass),
    /// The output stays bit-perfect; only comparing the run's
    /// `RecoveryStats` with the healthy run's sees the defect.
    RecoveryStats,
    /// The engine itself answers.
    Engine(EngineKill),
}

/// How the engine itself answers an [`Kill::Engine`] defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKill {
    /// A merge refuses with a typed `HetSortError::Plan` naming itself
    /// and the input that was already consumed.
    ConsumedInput,
    /// The run comes back `Ok` with `verified == false`.
    Unverified,
}

/// What a [`Mutant`] rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// The op dag: its nodes, or its plan's geometry and config.
    Dag,
    /// The trace lowered from the dag.
    Trace,
    /// The engine's run, through its hooks.
    Hooks,
    /// The trace lowered from the survivor plan of a device loss.
    Survivor,
}

/// One seeded defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// Delete a stream FIFO edge (a `DtoH` no longer waits for its
    /// stream predecessor).
    DropFifoEdge,
    /// Reverse a `StageIn → HtoD` dependency: the DMA no longer waits
    /// for the staging copy; the staging copy waits for the DMA.
    SwapDepDirection,
    /// Drop the `StageIn(c) ← HtoD(c−2)` edge (c ≥ 2) of the first
    /// double-buffered stream: the staging copy overwrites the pinned
    /// half its chunk's DMA may still be reading. Paper staging has one
    /// buffer and no such edge.
    DropHalfReuse,
    /// Append a second producer for an artifact (a batch sorted twice).
    DuplicateProducer,
    /// Close a dependency cycle (the first node waits on the last).
    Cycle,
    /// Reference a node id that does not exist.
    MissingRef,
    /// A pair merge stops depending on the producer of its left input
    /// (merge may run before both inputs exist).
    MergeBeforeInputs,
    /// Shrink one staging chunk so the chunks no longer tile the batch.
    ChunkGap,
    /// Shift one stage-in chunk's `start` without touching any `len`:
    /// the per-batch length sums still add up, but the interpreter
    /// would stage the wrong window of `A`.
    ShiftChunk,
    /// Rename every node of one stream to a stream the plan does not
    /// have: every FIFO chain stays intact, but the engine has no
    /// interpreter state to run the nodes on.
    RebindStream,
    /// Make node 0 wait on a later node that depends on nothing: no
    /// cycle, but a consumer resolving deps in id order reads ahead.
    ForwardEdge,
    /// Feed one batch into the final merge twice.
    DuplicateMergeInput,
    /// Drop one input from the final merge.
    DropMergeInput,
    /// Move the last batch onto a GPU the platform lacks.
    RetargetBatchGpu,
    /// Inflate `b_s` past device capacity after planning.
    OversizeBatch,
    /// Shrink `p_s` below the planned chunk sizes after planning.
    UndersizeStaging,
    /// Break the PIPEMERGE pair-count heuristic (the plan no longer
    /// matches `⌊(n_b−1)/2^n_GPU⌋` for its platform).
    BreakPairCount,
    /// Remove the last `stream_wait_event` — the consumer runs
    /// unordered with its producer.
    DropWait,
    /// Remove the first `event_record` — its waiters wait on an event
    /// that no longer exists.
    DropEventRecord,
    /// Collapse every stream's pinned staging buffers onto stream 0's —
    /// two streams share one staging buffer.
    AliasPinned,
    /// Point one stream's HtoD at another stream's device buffer.
    RetargetHtoD,
    /// Insert a cross-stream wait cycle (each stream waits on an event
    /// the other records only later).
    WaitCycle,
    /// Record the last cross-stream synchronization event on the wrong
    /// stream, so the consumer's wait no longer orders it after the
    /// producer.
    WrongStreamEvent,
    /// Remove one buffer's epilogue free — the allocation leaks.
    DropFree,
    /// Free the same buffer twice.
    DoubleFree,
    /// Hoist a free above later uses of its buffer.
    UseAfterFree,
    /// Engine defect: ignore the per-batch checkpoint when re-planning
    /// after a device loss, recomputing every batch. Output stays
    /// correct — only the differential on recovery statistics sees it.
    SkipCheckpoint,
    /// Engine defect: free a batch run as soon as its stage-out
    /// completes, before its one consumer merge has read it.
    FreeBeforeConsumer,
    /// Engine defect: swap two unequal neighbours of the final output
    /// across an interior boundary of the output check's parts. The
    /// multiset is unchanged; only a check that scans each boundary pair
    /// sees it.
    SwapAcrossCheckBoundary,
    /// Engine defect: overwrite one element of the final output with its
    /// unequal neighbour (one key dropped, one duplicated). The output
    /// stays sorted; only a fingerprint of the written memory sees it.
    DropAndDuplicate,
    /// Engine defect: a survivor pass leaves out the first batch the
    /// checkpoint says is unfinished, so no pass ever produces it.
    DropRecoveryBatch,
    /// The recovery path loses a `stream_wait_event`: the survivor
    /// plan's consumer runs unordered with its producer.
    DropRecoveryWait,
}

impl Mutant {
    /// The catalogue, grouped by [`Site`].
    pub const ALL: [Mutant; 32] = [
        Mutant::DropFifoEdge,
        Mutant::SwapDepDirection,
        Mutant::DropHalfReuse,
        Mutant::DuplicateProducer,
        Mutant::Cycle,
        Mutant::MissingRef,
        Mutant::MergeBeforeInputs,
        Mutant::ChunkGap,
        Mutant::ShiftChunk,
        Mutant::RebindStream,
        Mutant::ForwardEdge,
        Mutant::DuplicateMergeInput,
        Mutant::DropMergeInput,
        Mutant::RetargetBatchGpu,
        Mutant::OversizeBatch,
        Mutant::UndersizeStaging,
        Mutant::BreakPairCount,
        Mutant::DropWait,
        Mutant::DropEventRecord,
        Mutant::AliasPinned,
        Mutant::RetargetHtoD,
        Mutant::WaitCycle,
        Mutant::WrongStreamEvent,
        Mutant::DropFree,
        Mutant::DoubleFree,
        Mutant::UseAfterFree,
        Mutant::SkipCheckpoint,
        Mutant::FreeBeforeConsumer,
        Mutant::SwapAcrossCheckBoundary,
        Mutant::DropAndDuplicate,
        Mutant::DropRecoveryBatch,
        Mutant::DropRecoveryWait,
    ];

    /// The named check contracted to kill this mutant.
    pub fn kill(&self) -> Kill {
        use FindingClass::*;
        match self {
            Mutant::DropFifoEdge | Mutant::SwapDepDirection | Mutant::DropHalfReuse => {
                Kill::Validator("fifo")
            }
            Mutant::DuplicateProducer => Kill::Validator("duplicate-producer"),
            Mutant::Cycle => Kill::Validator("cycle"),
            Mutant::MissingRef => Kill::Validator("missing-ref"),
            Mutant::MergeBeforeInputs => Kill::Validator("merge-inputs"),
            Mutant::ChunkGap | Mutant::ShiftChunk => Kill::Validator("chunk-cover"),
            Mutant::RebindStream => Kill::Validator("stream-bind"),
            Mutant::ForwardEdge => Kill::Validator("order"),
            Mutant::DuplicateMergeInput | Mutant::DropMergeInput => Kill::Validator("merge-cover"),
            Mutant::RetargetBatchGpu => Kill::Validator("placement"),
            Mutant::OversizeBatch | Mutant::UndersizeStaging => Kill::Analyzer(Oom),
            Mutant::BreakPairCount => Kill::Analyzer(Malformed),
            Mutant::DropWait
            | Mutant::RetargetHtoD
            | Mutant::WrongStreamEvent
            | Mutant::DropRecoveryWait => Kill::Analyzer(MissingSync),
            Mutant::DropEventRecord | Mutant::WaitCycle => Kill::Analyzer(Deadlock),
            Mutant::AliasPinned => Kill::Analyzer(Aliasing),
            Mutant::DropFree => Kill::Analyzer(Leak),
            Mutant::DoubleFree => Kill::Analyzer(DoubleFree),
            Mutant::UseAfterFree => Kill::Analyzer(UseAfterFree),
            Mutant::SkipCheckpoint => Kill::RecoveryStats,
            Mutant::FreeBeforeConsumer => Kill::Engine(EngineKill::ConsumedInput),
            Mutant::SwapAcrossCheckBoundary | Mutant::DropAndDuplicate => {
                Kill::Engine(EngineKill::Unverified)
            }
            Mutant::DropRecoveryBatch => Kill::Explorer(ReplanCover),
        }
    }

    /// What this mutant rewrites.
    pub fn site(&self) -> Site {
        match self {
            Mutant::DropWait
            | Mutant::DropEventRecord
            | Mutant::AliasPinned
            | Mutant::RetargetHtoD
            | Mutant::WaitCycle
            | Mutant::WrongStreamEvent
            | Mutant::DropFree
            | Mutant::DoubleFree
            | Mutant::UseAfterFree => Site::Trace,
            Mutant::SkipCheckpoint
            | Mutant::FreeBeforeConsumer
            | Mutant::SwapAcrossCheckBoundary
            | Mutant::DropAndDuplicate
            | Mutant::DropRecoveryBatch => Site::Hooks,
            Mutant::DropRecoveryWait => Site::Survivor,
            _ => Site::Dag,
        }
    }

    /// Do plans staged under `layout` have a site for this mutant? The
    /// appliers return `false` where they do not: the half-reuse edge
    /// exists only on a layout with a host lane.
    pub fn applies_to(&self, layout: &StagingLayout) -> bool {
        !matches!(self, Mutant::DropHalfReuse) || layout.host_lane()
    }

    /// The engine hooks that seed a [`Site::Hooks`] defect (the default
    /// hooks for every other mutant).
    pub fn hooks(&self) -> EngineHooks<'static> {
        let mut hooks = EngineHooks::default();
        match self {
            Mutant::SkipCheckpoint => hooks.skip_checkpoint = true,
            Mutant::FreeBeforeConsumer => hooks.free_before_consumer = true,
            Mutant::SwapAcrossCheckBoundary => hooks.swap_across_check_boundary = true,
            Mutant::DropAndDuplicate => hooks.drop_and_duplicate = true,
            Mutant::DropRecoveryBatch => hooks.drop_recovery_batch = true,
            _ => {}
        }
        hooks
    }

    /// Apply a [`Site::Dag`] mutation. Returns `false` when the dag has
    /// no site for it (e.g. no pair merges) or the mutant rewrites
    /// something else: "not applicable here", never a kill.
    pub fn apply_dag(&self, dag: &mut PlanDag) -> bool {
        match self {
            Mutant::DropFifoEdge => {
                // Remove the FIFO dep of the first DtoH that has one.
                let mut tail: std::collections::BTreeMap<usize, usize> = Default::default();
                for i in 0..dag.nodes.len() {
                    let stream = dag.nodes[i].stream;
                    if let Some(s) = stream {
                        if matches!(dag.nodes[i].op, DagOp::DtoH { .. }) {
                            if let Some(&prev) = tail.get(&s) {
                                if let Some(p) = dag.nodes[i].deps.iter().position(|&d| d == prev) {
                                    dag.nodes[i].deps.remove(p);
                                    return true;
                                }
                            }
                        }
                        tail.insert(s, i);
                    }
                }
                false
            }
            Mutant::SwapDepDirection => {
                for i in 0..dag.nodes.len() {
                    if !matches!(dag.nodes[i].op, DagOp::HtoD { .. }) {
                        continue;
                    }
                    let stage_dep = dag.nodes[i].deps.iter().copied().find(|&d| {
                        matches!(
                            dag.nodes.get(d).map(|n| &n.op),
                            Some(DagOp::StagingCopy { dir_in: true, .. })
                        )
                    });
                    if let Some(d) = stage_dep {
                        dag.nodes[i].deps.retain(|&x| x != d);
                        dag.nodes[d].deps.push(i);
                        return true;
                    }
                }
                false
            }
            Mutant::DropHalfReuse => {
                for i in 0..dag.nodes.len() {
                    let (
                        stream,
                        DagOp::StagingCopy {
                            batch,
                            chunk,
                            dir_in: true,
                            ..
                        },
                    ) = (dag.nodes[i].stream, &dag.nodes[i].op)
                    else {
                        continue;
                    };
                    let (batch, chunk) = (*batch, *chunk);
                    if chunk < 2 {
                        continue;
                    }
                    let nodes = &dag.nodes;
                    let half = nodes[i].deps.iter().position(|&d| {
                        nodes.get(d).is_some_and(|n| {
                            n.stream == stream
                                && matches!(n.op, DagOp::HtoD { batch: b, chunk: c, .. }
                                    if b == batch && c == chunk - 2)
                        })
                    });
                    if let Some(p) = half {
                        dag.nodes[i].deps.remove(p);
                        return true;
                    }
                }
                false
            }
            Mutant::DuplicateProducer => {
                let Some(i) = dag
                    .nodes
                    .iter()
                    .position(|n| matches!(n.op, DagOp::Sort { .. }))
                else {
                    return false;
                };
                let mut dup = dag.nodes[i].clone();
                // Keep the graph otherwise well-formed: the clone runs
                // after the original.
                dup.deps = vec![i];
                dup.stream = None;
                dag.nodes.push(dup);
                true
            }
            Mutant::Cycle => {
                let last = dag.nodes.len() - 1;
                if last == 0 {
                    return false;
                }
                dag.nodes[0].deps.push(last);
                true
            }
            Mutant::MissingRef => {
                dag.nodes[0].deps.push(usize::MAX);
                true
            }
            Mutant::MergeBeforeInputs => {
                for node in &mut dag.nodes {
                    if matches!(node.op, DagOp::PairMerge { .. }) && !node.deps.is_empty() {
                        node.deps.remove(0);
                        return true;
                    }
                }
                false
            }
            Mutant::ChunkGap => {
                for node in &mut dag.nodes {
                    if let DagOp::StagingCopy { len, .. } = &mut node.op {
                        if *len > 1 {
                            *len -= 1;
                            return true;
                        }
                    }
                }
                false
            }
            Mutant::ShiftChunk => {
                for node in &mut dag.nodes {
                    if let DagOp::StagingCopy {
                        start,
                        dir_in: true,
                        ..
                    } = &mut node.op
                    {
                        *start += 1;
                        return true;
                    }
                }
                false
            }
            Mutant::RebindStream => {
                let Some(from) = dag.nodes.iter().find_map(|n| n.stream) else {
                    return false;
                };
                let to = dag.plan.total_streams + 99;
                for node in &mut dag.nodes {
                    if node.stream == Some(from) {
                        node.stream = Some(to);
                    }
                }
                true
            }
            Mutant::ForwardEdge => {
                // A node without dependencies cannot reach node 0, so
                // the new edge closes no cycle.
                let root = (1..dag.nodes.len()).find(|&i| dag.nodes[i].deps.is_empty());
                root.map(|r| dag.nodes[0].deps.push(r)).is_some()
            }
            Mutant::DuplicateMergeInput => {
                for node in dag.nodes.iter_mut() {
                    if let DagOp::MultiwayMerge { inputs } = &mut node.op {
                        let Some(&first) = inputs.first() else {
                            return false;
                        };
                        inputs.push(first);
                        return true;
                    }
                }
                false
            }
            Mutant::DropMergeInput => {
                for node in dag.nodes.iter_mut() {
                    if let DagOp::MultiwayMerge { inputs } = &mut node.op {
                        return inputs.pop().is_some();
                    }
                }
                false
            }
            Mutant::RetargetBatchGpu => {
                let missing = dag.plan.config.platform.n_gpus();
                dag.plan
                    .batches
                    .last_mut()
                    .map(|b| b.gpu = missing)
                    .is_some()
            }
            Mutant::OversizeBatch => {
                dag.plan.config.batch_elems = usize::MAX / 1024;
                true
            }
            Mutant::UndersizeStaging => {
                // At p_s = 1 there is nothing smaller to shrink to.
                let was = std::mem::replace(&mut dag.plan.config.pinned_elems, 1);
                was > 1
            }
            Mutant::BreakPairCount => {
                // The pair-count heuristic only governs the paper
                // strategy; the rejected strategies schedule freely.
                let plan = &mut dag.plan;
                if plan.config.pair_strategy != PairStrategy::PaperHeuristic {
                    return false;
                }
                let nb = plan.nb();
                let before = plan.config.pipelined_pair_merges(nb);
                plan.config.platform = if plan.config.platform.n_gpus() == 1 {
                    platform2()
                } else {
                    platform1()
                };
                let after = plan.config.pipelined_pair_merges(nb);
                before != after
            }
            _ => false,
        }
    }

    /// Apply a [`Site::Trace`] or [`Site::Survivor`] mutation to the
    /// trace lowered from `plan`. Returns `false` when the trace has no
    /// site for it or the mutant rewrites something else.
    pub fn apply_trace(&self, plan: &Plan, trace: &mut OpTrace) -> bool {
        match self {
            Mutant::DropWait | Mutant::DropRecoveryWait => {
                let Some(i) = trace
                    .records
                    .iter()
                    .rposition(|r| matches!(r.kind, TraceKind::StreamWaitEvent { .. }))
                else {
                    return false;
                };
                trace.records.remove(i);
                true
            }
            Mutant::DropEventRecord => {
                let Some(i) = trace
                    .records
                    .iter()
                    .position(|r| matches!(r.kind, TraceKind::EventRecord { .. }))
                else {
                    return false;
                };
                trace.records.remove(i);
                true
            }
            Mutant::AliasPinned => {
                if plan.total_streams < 2 {
                    return false;
                }
                for r in trace.records.iter_mut() {
                    let remap = |buf: &mut Buffer| {
                        if let Buffer::Pinned { id } = buf {
                            *id %= StagingLayout::IDS_PER_STREAM;
                        }
                    };
                    match &mut r.kind {
                        TraceKind::Alloc { buf, .. } | TraceKind::Free { buf } => remap(buf),
                        TraceKind::Op { accesses } => {
                            accesses.iter_mut().for_each(|a| remap(&mut a.buf))
                        }
                        _ => {}
                    }
                }
                true
            }
            Mutant::RetargetHtoD => {
                // Another allocation on the same GPU to collide with.
                let mut dev_ids: Vec<(usize, usize)> = Vec::new();
                for r in &trace.records {
                    if let TraceKind::Alloc {
                        buf: Buffer::Dev { gpu, id },
                        ..
                    } = r.kind
                    {
                        dev_ids.push((gpu, id));
                    }
                }
                for r in trace.records.iter_mut() {
                    if let TraceKind::Op { accesses } = &mut r.kind {
                        for a in accesses.iter_mut() {
                            if let Buffer::Dev { gpu, id } = a.buf {
                                if !a.write {
                                    continue;
                                }
                                let Some(&(_, other)) =
                                    dev_ids.iter().find(|&&(g, i)| g == gpu && i != id)
                                else {
                                    return false;
                                };
                                a.buf = Buffer::Dev { gpu, id: other };
                                return true;
                            }
                        }
                    }
                }
                false
            }
            Mutant::WaitCycle => {
                let recs: Vec<(usize, usize, usize)> = trace
                    .records
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| match r.kind {
                        TraceKind::EventRecord { event } => Some((i, r.thread, event)),
                        _ => None,
                    })
                    .collect();
                let Some(&(i1, t1, e1)) = recs.first() else {
                    return false;
                };
                let Some(&(i2, t2, e2)) = recs.iter().find(|&&(_, t, _)| t != t1) else {
                    return false;
                };
                // Each thread now waits on the event the other records
                // only later: a cycle in the wait graph.
                trace.records.insert(
                    i1,
                    TraceRecord {
                        thread: t1,
                        label: format!("seeded wait on ev{e2}"),
                        kind: TraceKind::StreamWaitEvent { event: e2 },
                    },
                );
                trace.records.insert(
                    i2 + 1,
                    TraceRecord {
                        thread: t2,
                        label: format!("seeded wait on ev{e1}"),
                        kind: TraceKind::StreamWaitEvent { event: e1 },
                    },
                );
                true
            }
            Mutant::WrongStreamEvent => {
                if trace.n_threads < 2 {
                    return false;
                }
                // The last record: no later record of its stream can
                // cover the wait that relied on it.
                for rec in trace.records.iter_mut().rev() {
                    if matches!(rec.kind, TraceKind::EventRecord { .. }) {
                        rec.thread = (rec.thread + 1) % trace.n_threads;
                        return true;
                    }
                }
                false
            }
            Mutant::DropFree => {
                // Removing the *only* free would also disable the leak
                // lint (freeless traces opt out), so require two.
                let frees: Vec<usize> = trace
                    .records
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| matches!(r.kind, TraceKind::Free { .. }))
                    .map(|(i, _)| i)
                    .collect();
                if frees.len() < 2 {
                    return false;
                }
                trace.records.remove(frees[0]);
                true
            }
            Mutant::DoubleFree => {
                let Some(i) = trace
                    .records
                    .iter()
                    .position(|r| matches!(r.kind, TraceKind::Free { .. }))
                else {
                    return false;
                };
                let dup = trace.records[i].clone();
                trace.records.insert(i + 1, dup);
                true
            }
            Mutant::UseAfterFree => {
                // Move some buffer's free to just after its first use,
                // so every later use touches freed memory.
                let frees: Vec<(usize, Buffer)> = trace
                    .records
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| match &r.kind {
                        TraceKind::Free { buf } => Some((i, *buf)),
                        _ => None,
                    })
                    .collect();
                for (fi, buf) in frees {
                    let uses: Vec<usize> = trace
                        .records
                        .iter()
                        .enumerate()
                        .take(fi)
                        .filter(|(_, r)| match &r.kind {
                            TraceKind::Op { accesses } => accesses.iter().any(|a| a.buf == buf),
                            _ => false,
                        })
                        .map(|(i, _)| i)
                        .collect();
                    if uses.len() < 2 {
                        continue;
                    }
                    let rec = trace.records.remove(fi);
                    trace.records.insert(uses[0] + 1, rec);
                    return true;
                }
                false
            }
            _ => false,
        }
    }

    /// Apply a [`Site::Dag`] or [`Site::Trace`] mutant to a copy of
    /// `base` and analyze the result: the lint over the (mutated) dag
    /// plus happens-before over the (mutated) trace lowered from
    /// `base`. A dag mutant is never lowered, so a dag the validator
    /// rejects is linted, not interpreted. `None` when `base` has no
    /// site for the mutant or it rewrites something else.
    pub fn analyze(&self, base: &PlanDag) -> Option<AnalysisReport> {
        let mut dag = base.clone();
        let mut trace = lower_dag(base);
        let applied = match self.site() {
            Site::Dag => self.apply_dag(&mut dag),
            Site::Trace => self.apply_trace(&base.plan, &mut trace),
            Site::Hooks | Site::Survivor => false,
        };
        applied.then(|| crate::with_races(lint_dag(&dag), &dag.plan, &trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_is_covered() {
        use FindingClass::*;
        // Budget is asserted where its defects live: tests/explore_admission.rs
        // seeds both admission defects into the shipped AdmissionController.
        for class in [
            MissingSync,
            Aliasing,
            Deadlock,
            Oom,
            Malformed,
            UseAfterFree,
            DoubleFree,
            Leak,
            ReplanCover,
        ] {
            assert!(
                Mutant::ALL.iter().any(
                    |m| matches!(m.kill(), Kill::Analyzer(c) | Kill::Explorer(c) if c == class)
                ),
                "no mutant seeds {class:?}"
            );
        }
    }

    #[test]
    fn hooks_seed_exactly_the_hook_site() {
        for m in Mutant::ALL {
            let h = m.hooks();
            let seeded = h.skip_checkpoint
                || h.free_before_consumer
                || h.swap_across_check_boundary
                || h.drop_and_duplicate
                || h.drop_recovery_batch;
            assert_eq!(seeded, m.site() == Site::Hooks, "{m:?}");
        }
    }
}
