//! The static op-dag of one heterogeneous sort run.
//!
//! A [`Plan`] encodes, independent of any executor, exactly which
//! operations the configured approach performs and in what dependency
//! order: staging copies chunk by chunk through the pinned buffers,
//! transfers, device sorts, pipelined pair merges, and the final
//! multiway merge. Its [`Plan::steps`] are [`DagNode`]s — the one IR
//! [`crate::plan_builders`] emits — and both the simulator
//! ([`crate::exec_sim`]) and the functional engine
//! ([`crate::dag::exec`]) interpret the nodes they are handed, so what
//! we time is what we proved correct.
//!
//! Workflows encoded (paper §III-D):
//!
//! * `BLine`   (n_b = 1):  `A → Stage → HtoD → GPUSort → DtoH → Stage → B`
//! * `BLineMulti`:         `A → Stage → HtoD → GPUSort → DtoH → Stage → W → Merge → B`
//! * `PipeData/PipeMerge`: same per batch, but chunks flow through
//!   per-stream pinned buffers in `n_s` streams per GPU, and PipeMerge
//!   inserts pair-wise merges as soon as both batches of a pair are
//!   resident in `W`.

use crate::config::HetSortConfig;
use crate::dag::{DagNode, DagOp};
use crate::error::HetSortError;

/// One contiguous batch of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchInfo {
    /// Batch index `0..n_b`.
    pub index: usize,
    /// First element offset in `A`.
    pub start: usize,
    /// Element count (the last batch may be short).
    pub len: usize,
    /// Global stream index the batch is processed in.
    pub stream: usize,
    /// GPU executing this batch.
    pub gpu: usize,
}

/// One sorted run a merge reads: a side of a pipelined two-way merge
/// or an input of the final multiway merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeSrc {
    /// A sorted batch resident in `W`.
    Batch(usize),
    /// The output of an earlier pair-merge slot.
    Merged(usize),
}

/// One pipelined two-way merge: its inputs and output size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairSpec {
    /// Left input.
    pub left: MergeSrc,
    /// Right input.
    pub right: MergeSrc,
    /// Output length in elements.
    pub out_elems: usize,
}

/// Where a stream's sorted chunks go between `DtoH` and `W`/`B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outbound {
    /// A pinned buffer of `p_s` of their own (piped plans).
    Own,
    /// Inbound half 0, reused both ways: §IV-E's one staging buffer per
    /// host thread (blocking plans, paper staging).
    Inbound,
    /// None: `DtoH` pages the still device-resident batch straight into
    /// `W`/`B` and `StageOut` is a zero-byte emission marker (blocking
    /// plans, double-buffered staging).
    Elided,
}

/// A plan's pinned staging protocol, decided once by
/// [`crate::plan_builders`] from approach × staging mode (the table is
/// in DESIGN § 19). Every interpreter, model and check reads it here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagingLayout {
    /// Elements of one staging buffer (`p_s`).
    pub chunk_elems: usize,
    /// Inbound halves per stream, in one allocation: 2 when
    /// double-buffered (chunk parity selects the half), else 1.
    pub halves: usize,
    /// Where outbound chunks go.
    pub outbound: Outbound,
}

impl StagingLayout {
    /// Trace identities per stream: stream `s` owns `3·s .. 3·s + 2`,
    /// its inbound halves and then its own outbound buffer.
    pub const IDS_PER_STREAM: usize = 3;

    /// The inbound half chunk `chunk` is staged in.
    pub fn half(&self, chunk: usize) -> usize {
        chunk % self.halves
    }

    /// Does each stream run a host lane (allocs, staging copies) beside
    /// its device lane, overlapping one chunk's copy with the last DMA?
    pub fn host_lane(&self) -> bool {
        self.halves == 2
    }

    /// Is every HtoD a chunked async copy? All but blocking-paper.
    pub fn async_htod(&self) -> bool {
        self.host_lane() || self.outbound == Outbound::Own
    }

    /// Is every DtoH a chunked async copy? Only into its own buffer.
    pub fn async_dtoh(&self) -> bool {
        self.outbound == Outbound::Own
    }

    /// Pinned staging elements one stream holds.
    pub fn pinned_elems(&self) -> usize {
        (self.halves + usize::from(self.outbound == Outbound::Own)) * self.chunk_elems
    }

    /// Trace identity of stream `stream`'s inbound half for `chunk`.
    pub fn in_id(&self, stream: usize, chunk: usize) -> usize {
        Self::IDS_PER_STREAM * stream + self.half(chunk)
    }

    /// Trace identity of the pinned buffer `stream`'s outbound chunks
    /// pass through (`None` when elided).
    pub fn out_id(&self, stream: usize) -> Option<usize> {
        match self.outbound {
            Outbound::Own => Some(Self::IDS_PER_STREAM * stream + 2),
            Outbound::Inbound => Some(self.in_id(stream, 0)),
            Outbound::Elided => None,
        }
    }
}

/// The full static DAG.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Configuration the plan was built from.
    pub config: HetSortConfig,
    /// Input size.
    pub n: usize,
    /// Batches.
    pub batches: Vec<BatchInfo>,
    /// Pipelined two-way merges (inputs + output sizes per slot).
    pub pairs: Vec<PairSpec>,
    /// The op-dag in submission (topological) order: node `i`'s deps
    /// all point backward. Intra-stream FIFO ordering is encoded as
    /// dependency edges too, so executors need no queue support.
    pub steps: Vec<DagNode>,
    /// Total streams (`n_s · n_GPU` for piped approaches, 1 otherwise).
    pub total_streams: usize,
    /// The pinned staging protocol every stream follows.
    pub staging: StagingLayout,
    /// Physical device identity of each plan-local GPU index: batch `b`
    /// runs on physical device `device_ids[batches[b].gpu]`. Identity
    /// (`0..n_gpus`) for a freshly built plan; a recovery re-plan built
    /// on survivors maps its compacted indices back to the original
    /// platform's device numbers so fault schedules, spans, and
    /// residency accounting keep meaning the same hardware.
    pub device_ids: Vec<usize>,
}

impl Plan {
    /// Build the plan for sorting `n` elements under `config` — the
    /// approach's builder in [`crate::plan_builders`] does the work.
    ///
    /// # Errors
    ///
    /// Propagates [`HetSortConfig::validate`] failures
    /// ([`HetSortError::Config`]).
    pub fn build(config: HetSortConfig, n: usize) -> Result<Plan, HetSortError> {
        crate::plan_builders::build(config, n)
    }

    /// Relabel the plan's GPUs with physical device numbers `ids`
    /// (plan-local GPU `g` ↦ physical device `ids[g]`) and validate the
    /// result. Used when a re-plan built on a survivor platform must
    /// keep addressing the original devices.
    ///
    /// # Errors
    ///
    /// [`HetSortError::Plan`] if the relabelled plan fails
    /// [`Plan::validate`] — `placement` when `ids` has the wrong length
    /// or repeats a device.
    pub fn on_devices(mut self, ids: Vec<usize>) -> Result<Plan, HetSortError> {
        self.device_ids = ids;
        self.validate()?;
        Ok(self)
    }

    /// Physical device number of plan-local GPU index `g`.
    pub fn physical_gpu(&self, g: usize) -> usize {
        self.device_ids.get(g).copied().unwrap_or(g)
    }

    /// Number of batches.
    pub fn nb(&self) -> usize {
        self.batches.len()
    }

    /// The final multiway merge's input count `k` (0 when n_b = 1).
    pub fn multiway_k(&self) -> usize {
        self.steps
            .iter()
            .rev()
            .find_map(|s| match &s.op {
                DagOp::MultiwayMerge { inputs } => Some(inputs.len()),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Validate the plan's own nodes: the rules of
    /// [`PlanDag::validate`](crate::dag::PlanDag::validate) over
    /// [`Plan::steps`].
    ///
    /// # Errors
    ///
    /// [`HetSortError::Plan`] naming the violated rule.
    pub fn validate(&self) -> Result<(), HetSortError> {
        crate::dag::check::check(self, &self.steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Approach;
    use hetsort_vgpu::{platform1, platform2};

    fn cfg(approach: Approach) -> HetSortConfig {
        HetSortConfig::paper_defaults(platform1(), approach)
            .with_batch_elems(1000)
            .with_pinned_elems(300)
    }

    #[test]
    fn bline_single_batch_plan_shape() {
        let plan = Plan::build(cfg(Approach::BLine), 1000).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.nb(), 1);
        assert_eq!(plan.total_streams, 1);
        assert!(!plan.staging.async_dtoh());
        // 1 alloc + 4 chunks × (StageIn + HtoD) + sort + 4 × (DtoH + StageOut).
        assert_eq!(plan.steps.len(), 1 + 4 * 2 + 1 + 4 * 2);
        assert_eq!(plan.multiway_k(), 0);
        assert!(plan.pairs.is_empty());
    }

    #[test]
    fn bline_multi_has_final_merge() {
        let plan = Plan::build(cfg(Approach::BLineMulti), 5000).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.nb(), 5);
        assert_eq!(plan.multiway_k(), 5); // no pair merges
        assert!(plan.pairs.is_empty());
        assert_eq!(plan.total_streams, 1);
    }

    #[test]
    fn pipedata_uses_streams_and_async() {
        let plan = Plan::build(cfg(Approach::PipeData), 6000).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.total_streams, 2); // ns=2 × 1 GPU
        assert!(plan.staging.async_htod() && plan.staging.async_dtoh());
        // Round-robin batches across streams.
        assert_eq!(plan.batches[0].stream, 0);
        assert_eq!(plan.batches[1].stream, 1);
        assert_eq!(plan.batches[2].stream, 0);
        assert_eq!(plan.multiway_k(), 6);
    }

    #[test]
    fn pipemerge_pairs_match_figure3() {
        // n_b = 6 on 1 GPU → 2 pair merges (b0,b1), (b2,b3); final
        // multiway merges 4 sublists: 2 pairs + b4 + b5 (§III-D3).
        let plan = Plan::build(cfg(Approach::PipeMerge), 6000).unwrap();
        plan.validate().unwrap();
        assert_eq!(
            plan.pairs,
            vec![
                PairSpec {
                    left: MergeSrc::Batch(0),
                    right: MergeSrc::Batch(1),
                    out_elems: 2000,
                },
                PairSpec {
                    left: MergeSrc::Batch(2),
                    right: MergeSrc::Batch(3),
                    out_elems: 2000,
                },
            ]
        );
        assert_eq!(plan.multiway_k(), 4);
    }

    #[test]
    fn pipemerge_odd_batches_leaves_last_unmerged() {
        let plan = Plan::build(cfg(Approach::PipeMerge), 7000).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.pairs.len(), 3); // ⌊6/2⌋
        assert_eq!(plan.multiway_k(), 3 + 1); // 3 pairs + b6
    }

    #[test]
    fn multi_gpu_assignment_alternates() {
        let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeData)
            .with_batch_elems(1000)
            .with_pinned_elems(250);
        let plan = Plan::build(cfg, 8000).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.total_streams, 4); // 2 streams × 2 GPUs
        let gpus: Vec<usize> = plan.batches.iter().map(|b| b.gpu).collect();
        assert_eq!(gpus, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn multi_gpu_pipemerge_heuristic() {
        // n_b = 10 on 2 GPUs → ⌊9/4⌋ = 2 pair merges → k = 8.
        let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(1000)
            .with_pinned_elems(250);
        let plan = Plan::build(cfg, 10_000).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.pairs.len(), 2);
        assert_eq!(plan.multiway_k(), 2 + 6);
    }

    #[test]
    fn short_last_batch_is_tiled_exactly() {
        let plan = Plan::build(cfg(Approach::BLineMulti), 2345).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.nb(), 3);
        assert_eq!(plan.batches[2].len, 345);
        // Last chunk of last batch is short too.
        let lens: Vec<usize> = plan
            .steps
            .iter()
            .filter_map(|s| match s.op {
                DagOp::StagingCopy {
                    batch: 2,
                    len,
                    dir_in: true,
                    ..
                } => Some(len),
                _ => None,
            })
            .collect();
        assert_eq!(lens, vec![300, 45]);
    }

    #[test]
    fn streams_never_exceed_batches() {
        let plan = Plan::build(cfg(Approach::PipeData), 1000).unwrap();
        assert_eq!(plan.total_streams, 1); // one batch → one stream
    }

    #[test]
    fn invalid_configs_propagate() {
        assert!(Plan::build(cfg(Approach::BLine), 5000).is_err()); // nb>1
        assert!(Plan::build(cfg(Approach::PipeData), 0).is_err());
    }

    #[test]
    fn online_strategy_chains_merges() {
        use crate::config::PairStrategy;
        let cfg = cfg(Approach::PipeMerge).with_pair_strategy(PairStrategy::Online);
        let plan = Plan::build(cfg, 5000).unwrap();
        plan.validate().unwrap();
        // n_b = 5 → 4 chained merges; the final multiway has 1 input.
        assert_eq!(plan.pairs.len(), 4);
        assert_eq!(plan.multiway_k(), 1);
        assert_eq!(plan.pairs[0].left, MergeSrc::Batch(0));
        assert_eq!(plan.pairs[3].left, MergeSrc::Merged(2));
        assert_eq!(plan.pairs[3].out_elems, 5000);
    }

    #[test]
    fn merge_tree_strategy_builds_binary_tree() {
        use crate::config::PairStrategy;
        let cfg = cfg(Approach::PipeMerge).with_pair_strategy(PairStrategy::MergeTree);
        let plan = Plan::build(cfg, 6000).unwrap();
        plan.validate().unwrap();
        // n_b = 6 → 3 + 1 + 1 = 5 tree merges, root feeds the "merge".
        assert_eq!(plan.pairs.len(), 5);
        assert_eq!(plan.multiway_k(), 1);
        assert_eq!(plan.pairs.last().unwrap().out_elems, 6000);
        // Odd counts carry the straggler up a level.
        let cfg = cfg2_tree();
        let plan = Plan::build(cfg, 7000).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.pairs.last().unwrap().out_elems, 7000);
    }

    fn cfg2_tree() -> HetSortConfig {
        use crate::config::PairStrategy;
        cfg(Approach::PipeMerge).with_pair_strategy(PairStrategy::MergeTree)
    }

    #[test]
    fn fifo_chaining_is_encoded_in_deps() {
        // Paper staging: every step in a stream (except the first)
        // depends on the previous step of that stream — one total FIFO.
        use crate::config::StagingMode;
        let plan = Plan::build(
            cfg(Approach::PipeData).with_staging(StagingMode::Paper),
            2000,
        )
        .unwrap();
        let mut last: Vec<Option<usize>> = vec![None; plan.total_streams];
        for (i, s) in plan.steps.iter().enumerate() {
            if let Some(st) = s.stream {
                if let Some(prev) = last[st] {
                    assert!(
                        s.deps.contains(&prev),
                        "step {i} missing FIFO dep on {prev}"
                    );
                }
                last[st] = Some(i);
            }
        }
    }

    #[test]
    fn double_buffered_chains_per_lane() {
        // Double-buffered staging splits each stream into a host lane
        // (allocs + staging copies) and a device lane (HtoD/sort/DtoH);
        // chaining holds per lane, and the cross edges HtoD←StageIn and
        // StageOut←DtoH are explicit.
        let plan = Plan::build(cfg(Approach::PipeData), 2000).unwrap();
        assert!(plan.staging.host_lane());
        assert_eq!(
            plan.staging.outbound,
            Outbound::Own,
            "piped plans keep the bounce"
        );
        let mut host: Vec<Option<usize>> = vec![None; plan.total_streams];
        let mut dev: Vec<Option<usize>> = vec![None; plan.total_streams];
        for (i, s) in plan.steps.iter().enumerate() {
            let Some(st) = s.stream else { continue };
            let tail = if s.op.is_device_lane() {
                &mut dev[st]
            } else {
                &mut host[st]
            };
            if let Some(prev) = *tail {
                assert!(
                    s.deps.contains(&prev),
                    "step {i} missing lane dep on {prev}"
                );
            }
            *tail = Some(i);
        }
        // Cross edges: each HtoD names its StageIn, each StageOut its DtoH.
        for (i, s) in plan.steps.iter().enumerate() {
            match s.op {
                DagOp::HtoD { batch, chunk, .. } => {
                    let si = plan
                        .steps
                        .iter()
                        .position(|t| {
                            matches!(t.op, DagOp::StagingCopy { batch: b, chunk: c, dir_in: true, .. }
                                if b == batch && c == chunk)
                        })
                        .unwrap();
                    assert!(s.deps.contains(&si), "HtoD {i} missing StageIn dep");
                }
                DagOp::StagingCopy {
                    batch,
                    chunk,
                    dir_in: false,
                    ..
                } => {
                    let d = plan
                        .steps
                        .iter()
                        .position(|t| {
                            matches!(t.op, DagOp::DtoH { batch: b, chunk: c, .. }
                                if b == batch && c == chunk)
                        })
                        .unwrap();
                    assert!(s.deps.contains(&d), "StageOut {i} missing DtoH dep");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn staging_layout_follows_approach_and_mode() {
        // The four layouts: halves, outbound, host lane, async HtoD and
        // DtoH, pinned elements per stream (p_s = 300).
        use crate::config::StagingMode::{DoubleBuffered as Double, Paper};
        use Approach::{BLineMulti as Blocking, PipeData as Piped};
        use Outbound::{Elided, Inbound, Own};
        for (approach, mode, halves, outbound, lane, htod, dtoh, pinned) in [
            (Piped, Paper, 1, Own, false, true, true, 600),
            (Piped, Double, 2, Own, true, true, true, 900),
            (Blocking, Paper, 1, Inbound, false, false, false, 300),
            (Blocking, Double, 2, Elided, true, true, false, 600),
        ] {
            let plan = Plan::build(cfg(approach).with_staging(mode), 5000).unwrap();
            let layout = plan.staging;
            let what = format!("{approach:?}/{}", mode.name());
            assert_eq!(
                (layout.halves, layout.outbound),
                (halves, outbound),
                "{what}"
            );
            assert_eq!(layout.host_lane(), lane, "{what}");
            let asynchronous = (layout.async_htod(), layout.async_dtoh());
            assert_eq!(asynchronous, (htod, dtoh), "{what}");
            assert_eq!(layout.pinned_elems(), pinned, "{what}");
            assert_eq!(layout.half(3), 3 % halves, "{what}");
        }
    }

    #[test]
    fn indices_past_the_plan_are_errors_not_panics() {
        let plan = Plan::build(cfg(Approach::PipeMerge), 7000).unwrap();
        plan.validate().unwrap();
        let rejects = |plan: &Plan, what: &str| match plan.validate() {
            Err(HetSortError::Plan { reason }) => {
                assert!(reason.contains(what), "{reason}")
            }
            other => panic!("expected a Plan error naming {what}, got {other:?}"),
        };

        // A stage-in naming a batch the plan lacks.
        let mut bad = plan.clone();
        let step = bad
            .steps
            .iter_mut()
            .find(|s| matches!(s.op, DagOp::StagingCopy { dir_in: true, .. }))
            .unwrap();
        if let DagOp::StagingCopy { batch, .. } = &mut step.op {
            *batch = 99;
        }
        rejects(&bad, "chunk-cover: StageIn names batch 99 of 7");

        // A final-merge input naming a pair slot the plan lacks.
        let mut bad = plan.clone();
        let step = bad
            .steps
            .iter_mut()
            .find(|s| matches!(s.op, DagOp::MultiwayMerge { .. }))
            .unwrap();
        if let DagOp::MultiwayMerge { inputs } = &mut step.op {
            inputs.push(MergeSrc::Merged(77));
        }
        rejects(
            &bad,
            "merge-inputs: node 126 input Merged(77) has no producer",
        );
    }
}
