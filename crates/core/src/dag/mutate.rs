//! Seeded DAG defects for the mutation kill suite.
//!
//! Each [`DagMutant`] is a small, realistic scheduling bug — the kind a
//! hand-written executor refactor could introduce — together with the
//! *named* check expected to kill it ([`DagMutant::expected_kill`]).
//! The kill suite (`crates/analyze/tests/dag_mutation.rs`) applies each
//! mutant and asserts that exactly the named validator rule, analyzer
//! finding class, or differential check fires; a mutant that survives
//! means the battery has a hole and the build fails.
//!
//! Structural mutants rewrite a [`PlanDag`] via [`DagMutant::apply`];
//! trace-level mutants (sync/lifetime defects the structural validator
//! cannot see by design — they live in the lowered event semantics)
//! rewrite an [`OpTrace`] via [`DagMutant::apply_trace`]; and five are
//! *engine* defects enabled through [`EngineHooks`]:
//! [`DagMutant::SkipCheckpoint`], killed differentially by comparing
//! [`crate::report::RecoveryStats`];
//! [`DagMutant::DropRecoveryBatch`], killed by exploring the engine's
//! loss alignments (`hetsort-analyze`'s `EngineModel`);
//! [`DagMutant::FreeBeforeConsumer`], killed by the typed error a merge
//! returns when its input was already freed; and the two output defects
//! [`DagMutant::SwapAcrossCheckBoundary`] and
//! [`DagMutant::DropAndDuplicate`], killed by the engine's own output
//! check (`verified == false`).
//!
//! [`execute_dag_hooked`] is the battery's way into the engine: the
//! hooks it sets, a [`Schedule`] included, are deliberately not
//! parameters of the public [`crate::dag::exec::execute_dag`] and
//! [`crate::dag::exec::execute_dag_pooled`].

use hetsort_algos::keys::{RadixKey, SortOrd};
use hetsort_algos::verify::check_parts;

use crate::dag::{DagNode, DagOp, PlanDag, TieBreak};
use crate::error::HetSortError;
use crate::exec_real::RealOutcome;
use crate::optrace::{OpTrace, TraceKind};
use crate::plan::Plan;

/// What a [`Schedule`] does at one scheduling point of the inline
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Pop and run this ready node.
    Node(usize),
    /// Fire the scheduled loss of this physical GPU now
    /// ([`hetsort_vgpu::FaultInjector::fire_loss`]); the engine then
    /// asks again. The next device op on the GPU observes the loss.
    Lose(usize),
}

/// A scheduler for the inline engine (`workers = 0`), for model
/// checkers that drive the shipped engine through every node order and
/// loss alignment. Without one the engine pops in [`TieBreak`] order and
/// losses fire at their op counts.
pub trait Schedule: Sync {
    /// The next action of the pass over `plan`'s `nodes`, whose ready
    /// nodes are `ready` (ascending ids, never empty); the nodes of a
    /// batch the checkpoint holds (`checkpointed[b]`) run as no-ops. A
    /// node that is not in `ready` falls back to the tie-break.
    fn pick(&self, plan: &Plan, nodes: &[DagNode], ready: &[usize], checkpointed: &[bool]) -> Pick;

    /// Batch `batch`'s sorted run was published: staged out by its
    /// stream, or sorted on the host.
    fn published(&self, batch: usize);
}

/// What only the test battery may vary about an engine run. The
/// default is what every production entry point runs.
#[derive(Clone, Copy, Default)]
pub struct EngineHooks<'h> {
    /// Ready-node tie-break (see [`TieBreak`]).
    pub tie: TieBreak,
    /// Who picks each ready node and places each scheduled loss at
    /// `workers = 0` (ignored by pooled runs).
    pub schedule: Option<&'h dyn Schedule>,
    /// The [`DagMutant::SkipCheckpoint`] defect: ignore the per-batch
    /// checkpoint when a device loss triggers a re-plan, recomputing
    /// *every* batch. Output stays correct; the differential check on
    /// [`crate::report::RecoveryStats`] kills it.
    pub skip_checkpoint: bool,
    /// The [`DagMutant::DropRecoveryBatch`] defect: each re-plan's
    /// checkpoint records the first unfinished batch as consumed, so no
    /// later pass produces it and the final merge fails.
    pub drop_recovery_batch: bool,
    /// The [`DagMutant::FreeBeforeConsumer`] defect: drop every batch
    /// run the moment its stage-out completes, before its consumer
    /// merge has read it. The merge must refuse with a typed
    /// [`HetSortError::Plan`] naming itself and the consumed input.
    pub free_before_consumer: bool,
    /// The [`DagMutant::SwapAcrossCheckBoundary`] defect: after the
    /// final merge, swap the two neighbours that straddle the middle
    /// interior boundary of the output check's parts (the middle element
    /// when the check is one part).
    pub swap_across_check_boundary: bool,
    /// The [`DagMutant::DropAndDuplicate`] defect: after the final
    /// merge, overwrite the first element from the middle on that differs
    /// from its right neighbour with that neighbour. The output stays
    /// sorted; only the fingerprint sees it.
    pub drop_and_duplicate: bool,
}

impl EngineHooks<'_> {
    /// Apply the output defects that are set to the engine's final
    /// `sorted` run, just before its check at `threads`.
    pub(crate) fn corrupt_output<T: RadixKey>(&self, threads: usize, sorted: &mut [T]) {
        let len = sorted.len();
        if self.swap_across_check_boundary && len >= 2 {
            let parts = check_parts(threads, len);
            let b = if parts.len() > 1 {
                parts[parts.len() / 2].start
            } else {
                len / 2
            };
            sorted.swap(b - 1, b);
        }
        if self.drop_and_duplicate {
            let differs = (len / 2..len.saturating_sub(1))
                .find(|&i| sorted[i].radix_key() != sorted[i + 1].radix_key());
            if let Some(i) = differs {
                sorted[i] = sorted[i + 1];
            }
        }
    }
}

/// [`crate::dag::exec::execute_dag_pooled`] at `workers` with the test
/// battery's `hooks` set.
///
/// # Errors
///
/// As [`crate::dag::exec::execute_dag`].
pub fn execute_dag_hooked<T>(
    dag: &PlanDag,
    data: &[T],
    workers: usize,
    hooks: EngineHooks<'_>,
) -> Result<RealOutcome<T>, HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    crate::dag::exec::execute_nodes(&dag.plan, &dag.nodes, data, workers, hooks)
}

/// A seeded defect and (implicitly) the check contracted to kill it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagMutant {
    /// Delete a stream FIFO edge (a `DtoH` no longer waits for its
    /// stream predecessor).
    DropFifoEdge,
    /// Reverse a `StageIn → HtoD` dependency: the DMA no longer waits
    /// for the staging copy; the staging copy waits for the DMA.
    SwapDepDirection,
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
    /// Engine defect: ignore the per-batch checkpoint when re-planning
    /// after a device loss, recomputing every batch. Output stays
    /// correct — only the differential on recovery statistics sees it.
    SkipCheckpoint,
    /// Record a cross-stream synchronization event on the wrong stream,
    /// so the consumer's wait no longer orders it after the producer.
    WrongStreamEvent,
    /// Hoist a buffer's `Free` above its last reader.
    FreeBeforeLastReader,
    /// Rename every node of one stream to a stream the plan does not
    /// have: every FIFO chain stays intact, but the engine has no
    /// interpreter state to run the nodes on.
    RebindStream,
    /// Engine defect: free a batch run as soon as its stage-out
    /// completes, before its one consumer merge has read it.
    FreeBeforeConsumer,
    /// Engine defect: a survivor pass leaves out the first batch the
    /// checkpoint says is unfinished, so no pass ever produces it.
    DropRecoveryBatch,
    /// Engine defect: swap two unequal neighbours of the final output
    /// across an interior boundary of the output check's parts. The
    /// multiset is unchanged; only a check that scans each boundary pair
    /// sees it.
    SwapAcrossCheckBoundary,
    /// Engine defect: overwrite one element of the final output with its
    /// unequal neighbour (one key dropped, one duplicated). The output
    /// stays sorted; only a fingerprint of the written memory sees it.
    DropAndDuplicate,
    /// Make node 0 wait on a later node that depends on nothing: no
    /// cycle, but a consumer resolving deps in id order reads ahead.
    ForwardEdge,
    /// The final merge reads its first input again in place of its
    /// second: one run gets two consumers, another none.
    MergeInputTwice,
    /// Move the last batch onto a GPU the platform lacks.
    RetargetBatchGpu,
}

impl DagMutant {
    /// Every mutant, in display order (the kill suite's acceptance
    /// floor is 8; this battery seeds 19).
    pub const ALL: [DagMutant; 19] = [
        DagMutant::DropFifoEdge,
        DagMutant::SwapDepDirection,
        DagMutant::DuplicateProducer,
        DagMutant::Cycle,
        DagMutant::MissingRef,
        DagMutant::MergeBeforeInputs,
        DagMutant::ChunkGap,
        DagMutant::ShiftChunk,
        DagMutant::SkipCheckpoint,
        DagMutant::WrongStreamEvent,
        DagMutant::FreeBeforeLastReader,
        DagMutant::RebindStream,
        DagMutant::FreeBeforeConsumer,
        DagMutant::DropRecoveryBatch,
        DagMutant::SwapAcrossCheckBoundary,
        DagMutant::DropAndDuplicate,
        DagMutant::ForwardEdge,
        DagMutant::MergeInputTwice,
        DagMutant::RetargetBatchGpu,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            DagMutant::DropFifoEdge => "drop-fifo-edge",
            DagMutant::SwapDepDirection => "swap-dep-direction",
            DagMutant::DuplicateProducer => "duplicate-producer",
            DagMutant::Cycle => "cycle",
            DagMutant::MissingRef => "missing-ref",
            DagMutant::MergeBeforeInputs => "merge-before-inputs",
            DagMutant::ChunkGap => "chunk-gap",
            DagMutant::ShiftChunk => "shift-chunk",
            DagMutant::SkipCheckpoint => "skip-checkpoint",
            DagMutant::WrongStreamEvent => "wrong-stream-event",
            DagMutant::FreeBeforeLastReader => "free-before-last-reader",
            DagMutant::RebindStream => "rebind-stream",
            DagMutant::FreeBeforeConsumer => "free-before-consumer",
            DagMutant::DropRecoveryBatch => "drop-recovery-batch",
            DagMutant::SwapAcrossCheckBoundary => "swap-across-check-boundary",
            DagMutant::DropAndDuplicate => "drop-and-duplicate",
            DagMutant::ForwardEdge => "forward-edge",
            DagMutant::MergeInputTwice => "merge-input-twice",
            DagMutant::RetargetBatchGpu => "retarget-batch-gpu",
        }
    }

    /// The named check contracted to kill this mutant:
    /// `validator:<rule>` ([`PlanDag::validate`]),
    /// `analyzer:<finding-class>` (`hetsort-analyze` over the lowered
    /// trace), `differential:<check>` (the equivalence suite),
    /// `engine:<error>` (a typed error the engine itself returns), or
    /// `explorer:<finding-class>` (exploring the engine's loss
    /// schedules).
    pub fn expected_kill(&self) -> &'static str {
        match self {
            DagMutant::DropFifoEdge => "validator:fifo",
            DagMutant::SwapDepDirection => "validator:fifo",
            DagMutant::DuplicateProducer => "validator:duplicate-producer",
            DagMutant::Cycle => "validator:cycle",
            DagMutant::MissingRef => "validator:missing-ref",
            DagMutant::MergeBeforeInputs => "validator:merge-inputs",
            DagMutant::ChunkGap | DagMutant::ShiftChunk => "validator:chunk-cover",
            DagMutant::SkipCheckpoint => "differential:recovery-stats",
            DagMutant::WrongStreamEvent => "analyzer:missing-sync",
            DagMutant::FreeBeforeLastReader => "analyzer:use-after-free",
            DagMutant::RebindStream => "validator:stream-bind",
            DagMutant::FreeBeforeConsumer => "engine:consumed-input",
            DagMutant::DropRecoveryBatch => "explorer:replan-cover",
            DagMutant::SwapAcrossCheckBoundary | DagMutant::DropAndDuplicate => "engine:unverified",
            DagMutant::ForwardEdge => "validator:order",
            DagMutant::MergeInputTwice => "validator:merge-cover",
            DagMutant::RetargetBatchGpu => "validator:placement",
        }
    }

    /// Whether this mutant rewrites the trace (vs the dag structure or
    /// the engine options).
    pub fn is_trace_level(&self) -> bool {
        matches!(
            self,
            DagMutant::WrongStreamEvent | DagMutant::FreeBeforeLastReader
        )
    }

    /// Whether this mutant is an [`EngineHooks`] defect (vs a rewrite of
    /// the dag or the trace).
    pub fn is_engine_level(&self) -> bool {
        matches!(
            self,
            DagMutant::SkipCheckpoint
                | DagMutant::DropRecoveryBatch
                | DagMutant::FreeBeforeConsumer
                | DagMutant::SwapAcrossCheckBoundary
                | DagMutant::DropAndDuplicate
        )
    }

    /// Apply a structural mutation. Returns `false` when the dag has no
    /// site for it (e.g. no pair merges) or the mutant is not
    /// structural — the kill suite treats `false` as "not applicable
    /// here", never as a kill.
    pub fn apply(&self, dag: &mut PlanDag) -> bool {
        match self {
            DagMutant::DropFifoEdge => {
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
            DagMutant::SwapDepDirection => {
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
            DagMutant::DuplicateProducer => {
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
            DagMutant::Cycle => {
                let last = dag.nodes.len() - 1;
                if last == 0 {
                    return false;
                }
                dag.nodes[0].deps.push(last);
                true
            }
            DagMutant::MissingRef => {
                dag.nodes[0].deps.push(usize::MAX);
                true
            }
            DagMutant::MergeBeforeInputs => {
                for node in &mut dag.nodes {
                    if matches!(node.op, DagOp::PairMerge { .. }) && !node.deps.is_empty() {
                        node.deps.remove(0);
                        return true;
                    }
                }
                false
            }
            DagMutant::ChunkGap => {
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
            DagMutant::ShiftChunk => {
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
            DagMutant::RebindStream => {
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
            DagMutant::ForwardEdge => {
                // A node without dependencies cannot reach node 0, so
                // the new edge closes no cycle.
                let root = (1..dag.nodes.len()).find(|&i| dag.nodes[i].deps.is_empty());
                root.map(|r| dag.nodes[0].deps.push(r)).is_some()
            }
            DagMutant::MergeInputTwice => dag.nodes.iter_mut().any(|node| match &mut node.op {
                DagOp::MultiwayMerge { inputs } if inputs.len() >= 2 => {
                    inputs[1] = inputs[0];
                    true
                }
                _ => false,
            }),
            DagMutant::RetargetBatchGpu => {
                let missing = dag.plan.config.platform.n_gpus();
                dag.plan
                    .batches
                    .last_mut()
                    .map(|b| b.gpu = missing)
                    .is_some()
            }
            DagMutant::SkipCheckpoint
            | DagMutant::DropRecoveryBatch
            | DagMutant::FreeBeforeConsumer
            | DagMutant::SwapAcrossCheckBoundary
            | DagMutant::DropAndDuplicate
            | DagMutant::WrongStreamEvent
            | DagMutant::FreeBeforeLastReader => false,
        }
    }

    /// Apply a trace-level mutation to a lowered [`OpTrace`]. Returns
    /// `false` when the trace has no site for it or the mutant is not
    /// trace-level.
    pub fn apply_trace(&self, trace: &mut OpTrace) -> bool {
        match self {
            DagMutant::WrongStreamEvent => {
                if trace.n_threads < 2 {
                    return false;
                }
                for rec in &mut trace.records {
                    if matches!(rec.kind, TraceKind::EventRecord { .. }) {
                        rec.thread = (rec.thread + 1) % trace.n_threads;
                        return true;
                    }
                }
                false
            }
            DagMutant::FreeBeforeLastReader => {
                // Hoist the first Free whose buffer has a reader before
                // it to just before that buffer's *first* access.
                for fi in 0..trace.records.len() {
                    let TraceKind::Free { buf } = &trace.records[fi].kind else {
                        continue;
                    };
                    let buf = *buf;
                    let first_access = trace.records[..fi].iter().position(|r| {
                        matches!(&r.kind, TraceKind::Op { accesses }
                            if accesses.iter().any(|a| a.buf == buf))
                    });
                    if let Some(ai) = first_access {
                        let rec = trace.records.remove(fi);
                        trace.records.insert(ai, rec);
                        return true;
                    }
                }
                false
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HetSortConfig};
    use crate::plan::Plan;
    use hetsort_vgpu::platform1;

    fn dag() -> PlanDag {
        let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
            .with_batch_elems(1000)
            .with_pinned_elems(300);
        PlanDag::from_plan(Plan::build(cfg, 7000).unwrap())
    }

    #[test]
    fn structural_mutants_apply_and_break_validation() {
        for m in DagMutant::ALL {
            if m.is_trace_level() || m.is_engine_level() {
                continue;
            }
            let mut d = dag();
            assert!(m.apply(&mut d), "{} found no site", m.name());
            assert!(d.validate().is_err(), "{} survived validation", m.name());
        }
    }

    #[test]
    fn trace_mutants_apply() {
        let d = dag();
        let trace = crate::optrace::lower_plan(&d.plan);
        for m in [DagMutant::WrongStreamEvent, DagMutant::FreeBeforeLastReader] {
            let mut t = trace.clone();
            assert!(m.apply_trace(&mut t), "{} found no site", m.name());
            assert_ne!(t, trace, "{} was a no-op", m.name());
        }
    }

    #[test]
    fn every_mutant_names_its_killer() {
        for m in DagMutant::ALL {
            let kill = m.expected_kill();
            assert!(
                kill.starts_with("validator:")
                    || kill.starts_with("analyzer:")
                    || kill.starts_with("differential:")
                    || kill.starts_with("engine:")
                    || kill.starts_with("explorer:"),
                "{kill}"
            );
        }
        assert!(DagMutant::ALL.len() >= 8, "acceptance floor: 8 mutants");
    }
}
