//! Seeded schedule defects for mutation-testing the analyzer.
//!
//! Each [`Mutant`] breaks a correct plan/trace pair in one specific way
//! and declares the [`FindingClass`] the analyzer must report for it.
//! The mutation suite (`tests/mutation.rs`) applies every mutant to
//! every shipped configuration and fails if any goes undetected — the
//! analyzer's recall is tested, not assumed.
//!
//! Sync mutants edit the lowered trace (dropping or misplacing the
//! event edges an executor could plausibly forget); structural mutants
//! edit the plan in place (the hand-mutated-plan shapes
//! `Plan::check_invariants` and the static linter exist to catch).
//!
//! [`ExploreMutant`] seeds the recovery coordinator the schedule-space
//! explorer drives. The admission controller's seeded defects are a
//! serve concept and live in `hetsort_serve::admission_model`.

use hetsort_core::config::PairStrategy;
use hetsort_core::dag::DagOp;
use hetsort_core::plan::Plan;
use hetsort_sim::{Buffer, OpTrace, TraceKind};
use hetsort_vgpu::{platform1, platform2};

use crate::finding::FindingClass;

/// One seeded defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
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
    /// Inflate `b_s` past device capacity after planning.
    OversizeBatch,
    /// Shrink `p_s` below the planned chunk sizes after planning.
    UndersizeStaging,
    /// Feed one batch into the final merge twice.
    DuplicateMergeInput,
    /// Drop one input from the final merge.
    DropMergeInput,
    /// Break the PIPEMERGE pair-count heuristic (the plan no longer
    /// matches `⌊(n_b−1)/2^n_GPU⌋` for its platform).
    BreakPairCount,
    /// Remove one buffer's epilogue free — the allocation leaks.
    DropFree,
    /// Free the same buffer twice.
    DoubleFree,
    /// Hoist a free above later uses of its buffer.
    UseAfterFree,
}

impl Mutant {
    /// Every mutant, in a stable order.
    pub const ALL: [Mutant; 13] = [
        Mutant::DropWait,
        Mutant::DropEventRecord,
        Mutant::AliasPinned,
        Mutant::RetargetHtoD,
        Mutant::WaitCycle,
        Mutant::OversizeBatch,
        Mutant::UndersizeStaging,
        Mutant::DuplicateMergeInput,
        Mutant::DropMergeInput,
        Mutant::BreakPairCount,
        Mutant::DropFree,
        Mutant::DoubleFree,
        Mutant::UseAfterFree,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Mutant::DropWait => "drop-wait",
            Mutant::DropEventRecord => "drop-event-record",
            Mutant::AliasPinned => "alias-pinned",
            Mutant::RetargetHtoD => "retarget-htod",
            Mutant::WaitCycle => "wait-cycle",
            Mutant::OversizeBatch => "oversize-batch",
            Mutant::UndersizeStaging => "undersize-staging",
            Mutant::DuplicateMergeInput => "duplicate-merge-input",
            Mutant::DropMergeInput => "drop-merge-input",
            Mutant::BreakPairCount => "break-pair-count",
            Mutant::DropFree => "drop-free",
            Mutant::DoubleFree => "double-free",
            Mutant::UseAfterFree => "use-after-free",
        }
    }

    /// The finding class the analyzer must report for this defect.
    pub fn expected_class(&self) -> FindingClass {
        match self {
            Mutant::DropWait | Mutant::RetargetHtoD => FindingClass::MissingSync,
            Mutant::AliasPinned => FindingClass::Aliasing,
            Mutant::DropEventRecord | Mutant::WaitCycle => FindingClass::Deadlock,
            Mutant::OversizeBatch | Mutant::UndersizeStaging => FindingClass::Oom,
            Mutant::DuplicateMergeInput | Mutant::DropMergeInput | Mutant::BreakPairCount => {
                FindingClass::Malformed
            }
            Mutant::DropFree => FindingClass::Leak,
            Mutant::DoubleFree => FindingClass::DoubleFree,
            Mutant::UseAfterFree => FindingClass::UseAfterFree,
        }
    }

    /// Apply the defect to a plan/trace pair. Returns `false` when the
    /// plan's shape does not support it (e.g. no pair merges to break).
    pub fn apply(&self, plan: &mut Plan, trace: &mut OpTrace) -> bool {
        match self {
            Mutant::DropWait => {
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
                if !plan.asynchronous || plan.total_streams < 2 {
                    return false;
                }
                for r in trace.records.iter_mut() {
                    let remap = |buf: &mut Buffer| {
                        if let Buffer::Pinned { id } = buf {
                            *id %= 2;
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
                    hetsort_sim::TraceRecord {
                        thread: t1,
                        label: format!("seeded wait on ev{e2}"),
                        kind: TraceKind::StreamWaitEvent { event: e2 },
                    },
                );
                trace.records.insert(
                    i2 + 1,
                    hetsort_sim::TraceRecord {
                        thread: t2,
                        label: format!("seeded wait on ev{e1}"),
                        kind: TraceKind::StreamWaitEvent { event: e1 },
                    },
                );
                true
            }
            Mutant::OversizeBatch => {
                plan.config.batch_elems = usize::MAX / 1024;
                true
            }
            Mutant::UndersizeStaging => {
                plan.config.pinned_elems = 1;
                true
            }
            Mutant::DuplicateMergeInput => {
                for s in plan.steps.iter_mut() {
                    if let DagOp::MultiwayMerge { inputs } = &mut s.op {
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
                for s in plan.steps.iter_mut() {
                    if let DagOp::MultiwayMerge { inputs } = &mut s.op {
                        return inputs.pop().is_some();
                    }
                }
                false
            }
            Mutant::BreakPairCount => {
                // The pair-count heuristic only governs the paper
                // strategy; the rejected strategies schedule freely.
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
        }
    }
}

/// A seeded defect in the recovery coordinator the schedule-space
/// explorer drives ([`crate::replan_model`]) rather than in a
/// plan/trace pair: the explorer-targeted half of the kill-suite. Each
/// variant names the [`FindingClass`] exploration must report, and
/// `tests/explore_mutation.rs` kills every one.
///
/// The admission-side defects are seeded into the shipped
/// `AdmissionController` itself and killed by `hetsort-serve`'s
/// `tests/explore_admission.rs`; they are a serve concept and live
/// there (`hetsort_serve::admission_model::AdmissionDefect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreMutant {
    /// The coordinator re-plans without reading the checkpoint:
    /// completed batches are sorted again.
    DropCheckpoint,
    /// The first unfinished batch is dropped from the recovery set.
    DropRecoveryBatch,
    /// The recovery path loses a `stream_wait_event`: the survivor
    /// plan's consumer runs unordered with its producer.
    DropRecoveryWait,
}

impl ExploreMutant {
    /// Every explorer-targeted mutant, in a stable order.
    pub const ALL: [ExploreMutant; 3] = [
        ExploreMutant::DropCheckpoint,
        ExploreMutant::DropRecoveryBatch,
        ExploreMutant::DropRecoveryWait,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ExploreMutant::DropCheckpoint => "drop-checkpoint",
            ExploreMutant::DropRecoveryBatch => "drop-recovery-batch",
            ExploreMutant::DropRecoveryWait => "drop-recovery-wait",
        }
    }

    /// The finding class exploration must report for this defect.
    pub fn expected_class(&self) -> FindingClass {
        match self {
            ExploreMutant::DropCheckpoint | ExploreMutant::DropRecoveryBatch => {
                FindingClass::ReplanCover
            }
            ExploreMutant::DropRecoveryWait => FindingClass::MissingSync,
        }
    }

    /// The recovery-coordinator defect this mutant seeds, if any.
    pub fn replan_defect(&self) -> Option<crate::replan_model::ReplanDefect> {
        match self {
            ExploreMutant::DropCheckpoint => {
                Some(crate::replan_model::ReplanDefect::DropCheckpoint)
            }
            ExploreMutant::DropRecoveryBatch => {
                Some(crate::replan_model::ReplanDefect::DropRecoveryBatch)
            }
            ExploreMutant::DropRecoveryWait => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_is_covered() {
        use FindingClass::*;
        for class in [
            MissingSync,
            Aliasing,
            Deadlock,
            Oom,
            Malformed,
            UseAfterFree,
            DoubleFree,
            Leak,
        ] {
            assert!(
                Mutant::ALL.iter().any(|m| m.expected_class() == class),
                "no mutant seeds {class:?}"
            );
        }
        // The interleaving-only classes: the explorer mutants seed
        // ReplanCover and MissingSync; the other two are asserted where
        // their defects live.
        let asserted_elsewhere = [
            // hetsort-serve tests/explore_admission.rs: both admission
            // defects, seeded into the shipped AdmissionController.
            Budget,
            // tests/explore_sweep.rs
            // seeded_wait_cycle_is_a_reachable_deadlock_in_every_interleaving_engine.
            Deadlock,
        ];
        for class in [Budget, ReplanCover, Deadlock, MissingSync] {
            assert!(
                ExploreMutant::ALL
                    .iter()
                    .any(|m| m.expected_class() == class)
                    || asserted_elsewhere.contains(&class),
                "no explorer mutant seeds {class:?}"
            );
        }
        assert!(Mutant::ALL.len() >= 8);
    }
}
