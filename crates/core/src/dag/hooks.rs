//! The engine's test seam: [`EngineHooks`] — the ready-node tie-break,
//! the [`Schedule`] a model checker drives the inline engine with, and
//! the switches of the seeded engine defects in `hetsort_analyze::Mutant`
//! — and [`execute_dag_hooked`], the only way in. Every production entry
//! point ([`crate::dag::exec::execute_dag`],
//! [`crate::dag::exec::execute_dag_pooled`]) runs the default hooks.

use hetsort_algos::keys::{RadixKey, SortOrd};
use hetsort_algos::verify::check_parts;

use crate::dag::{DagNode, PlanDag, TieBreak};
use crate::error::HetSortError;
use crate::exec_real::RealOutcome;
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
    /// Defect: a device-loss re-plan ignores the per-batch checkpoint
    /// and recomputes *every* batch.
    pub skip_checkpoint: bool,
    /// Defect: each re-plan's checkpoint records the first unfinished
    /// batch as consumed, so no later pass produces it.
    pub drop_recovery_batch: bool,
    /// Defect: drop every batch run the moment its stage-out completes,
    /// before its consumer merge has read it.
    pub free_before_consumer: bool,
    /// Defect: after the final merge, swap the two neighbours that
    /// straddle the middle interior boundary of the output check's parts
    /// (the middle element when the check is one part).
    pub swap_across_check_boundary: bool,
    /// Defect: after the final merge, overwrite the first element from
    /// the middle on that differs from its right neighbour with it.
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
