//! Host-memory model of the functional engine.
//!
//! The paper sorts with three host arrays, `A`, `W` and `B` (§III-A).
//! The engine (`hetsort_core::dag::exec`) borrows `A` and owns the rest,
//! each allocation alive only while something will still read it:
//!
//! * a batch's sorted run, from its first `StageOut` chunk until its one
//!   consumer merge runs;
//! * a pair merge's output, from that merge until its consumer runs;
//! * `B`, from the final merge on (it is the result);
//! * per stream, the device-buffer stand-in (the stream's largest batch)
//!   and its pinned staging, from the stream's first node until its
//!   last;
//! * one radix scratch of the batch's length during each `Sort`;
//! * the final merge's tree scratch while it runs, at fan-in 3 or more:
//!   `min(n, MERGE_SCRATCH_ELEMS)` elements. The kernel cuts parts no
//!   longer than `MERGE_SCRATCH_ELEMS / w` at width `w` and holds at
//!   most `w` part-sized buffers; one worker merging at most
//!   `MERGE_SCRATCH_ELEMS` elements holds one buffer of `n`. The term
//!   reads [`hetsort_algos::multiway::MERGE_SCRATCH_ELEMS`], so kernel
//!   and model cannot drift apart.
//!
//! [`host_peak_bytes`] replays that rule over the inline engine's order
//! (`workers = 0` under the `MinId` tie-break, which is node-id order).
//! [`host_bound_bytes`] is the bound for *any* order the pooled engine
//! may take:
//!
//! `2·n·elem + streams·(b_s·elem + pinned) + b_s·elem + scratch`
//!
//! It holds because only the calling thread merges, one merge at a
//! time. Every input element sits in at most one live run or pair
//! output, or in a batch being sorted, and the one running merge adds
//! an output no larger than the runs it reads. A sort's scratch is as
//! long as its batch, which is not a run yet. So runs, pair outputs,
//! `B` and sort scratch together never exceed `2·n·elem`, and each
//! stream adds at most its device buffer and staging. The last
//! `b_s·elem` is margin; `scratch` is the final merge's tree scratch
//! above (pair merges need none). Bookkeeping (spans, merge cut tables)
//! is not modelled.
//!
//! Recovery detours (an OOM split's host staging, a given-up batch's
//! host sort) add up to a batch per stream on top of this; the model
//! covers fault-free runs.
//!
//! [`crate::Residency::of_plan`] accounts device and pinned bytes for
//! admission; this model is kept apart from it so its cost stays out of
//! that hot path.

use hetsort_algos::multiway::MERGE_SCRATCH_ELEMS;
use hetsort_core::dag::DagOp;
use hetsort_core::plan::{MergeSrc, Plan};

/// Pinned staging elements one stream of `plan` holds: the inbound
/// halves, plus the outbound buffer unless the stage-out is elided.
fn staging_elems(plan: &Plan) -> usize {
    let buffers = plan.staging_halves() + usize::from(!plan.stage_out_elided());
    buffers * plan.config.pinned_elems
}

/// Tree scratch of a final merge over `inputs` while it runs: none at
/// fan-in 2 or less, else at most `min(n, MERGE_SCRATCH_ELEMS)`.
fn merge_scratch_elems(plan: &Plan, inputs: &[MergeSrc]) -> usize {
    if inputs.len() >= 3 {
        plan.n.min(MERGE_SCRATCH_ELEMS)
    } else {
        0
    }
}

/// Peak engine-owned host bytes of `plan` run inline (node-id order):
/// `A` is the caller's and not counted.
pub fn host_peak_bytes(plan: &Plan) -> u64 {
    let elem = plan.config.elem_bytes.bytes();
    let bytes = |elems: usize| elems as u64 * elem;
    let src_len = |src: MergeSrc| match src {
        MergeSrc::Batch(b) => plan.batches.get(b).map_or(0, |b| b.len),
        MergeSrc::Merged(p) => plan.pairs.get(p).map_or(0, |p| p.out_elems),
    };
    // Per stream: the bytes it holds, and its first and last node.
    let streams = plan.total_streams;
    let mut device = vec![0usize; streams];
    for b in &plan.batches {
        if let Some(d) = device.get_mut(b.stream) {
            *d = (*d).max(b.len);
        }
    }
    let held: Vec<u64> = device
        .iter()
        .map(|&d| bytes(d + staging_elems(plan)))
        .collect();
    let mut span = vec![(usize::MAX, 0usize); streams];
    for (i, node) in plan.steps.iter().enumerate() {
        if let Some((first, last)) = node.stream.and_then(|s| span.get_mut(s)) {
            *first = (*first).min(i);
            *last = i;
        }
    }

    let (mut live, mut peak) = (0u64, 0u64);
    for (i, node) in plan.steps.iter().enumerate() {
        let stream = node.stream.filter(|&s| s < streams);
        if let Some(s) = stream.filter(|&s| span[s].0 == i) {
            live += held[s];
        }
        // A radix or merge scratch lives only while its node runs; a
        // merge's inputs are freed when it returns.
        let (mut scratch, mut freed) = (0, 0);
        match &node.op {
            DagOp::Sort { batch } => scratch = bytes(src_len(MergeSrc::Batch(*batch))),
            DagOp::StagingCopy {
                batch,
                chunk: 0,
                dir_in: false,
                ..
            } => live += bytes(src_len(MergeSrc::Batch(*batch))),
            DagOp::PairMerge { slot } | DagOp::CpuMerge { slot } => {
                if let Some(p) = plan.pairs.get(*slot) {
                    live += bytes(p.out_elems);
                    freed = bytes(src_len(p.left) + src_len(p.right));
                }
            }
            DagOp::MultiwayMerge { inputs } => {
                live += bytes(plan.n);
                scratch = bytes(merge_scratch_elems(plan, inputs));
                freed = bytes(inputs.iter().map(|&s| src_len(s)).sum());
            }
            _ => {}
        }
        peak = peak.max(live + scratch);
        live = live.saturating_sub(freed);
        if let Some(s) = stream.filter(|&s| span[s].1 == i) {
            live = live.saturating_sub(held[s]);
        }
    }
    peak
}

/// The host bound every order of `plan` stays under:
/// `2·n·elem + streams·(b_s·elem + pinned) + b_s·elem + scratch`, where
/// `b_s` is the longest batch, `pinned` one stream's staging and
/// `scratch` the final merge's tree scratch.
pub fn host_bound_bytes(plan: &Plan) -> u64 {
    let elem = plan.config.elem_bytes.bytes();
    let bs = plan.batches.iter().map(|b| b.len).max().unwrap_or(0) as u64;
    let per_stream = (bs + staging_elems(plan) as u64) * elem;
    let scratch = plan
        .steps
        .iter()
        .map(|node| match &node.op {
            DagOp::MultiwayMerge { inputs } => merge_scratch_elems(plan, inputs),
            _ => 0,
        })
        .max()
        .unwrap_or(0) as u64;
    2 * plan.n as u64 * elem + plan.total_streams as u64 * per_stream + (bs + scratch) * elem
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsort_core::{Approach, HetSortConfig, PairStrategy, StagingMode};
    use hetsort_vgpu::{platform1, platform2};

    #[test]
    fn sort_uniform_geometry_peaks_at_two_n() {
        // p1 PIPEMERGE, n = 8e6, b_s = 1e6, p_s = 1e5: 8 batches and 3
        // pair merges. The final merge reads n and writes B = n, with
        // every stream already released, and its 5-way tree holds the
        // 4 MiB scratch bound.
        let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
            .with_batch_elems(1_000_000)
            .with_pinned_elems(100_000);
        let plan = Plan::build(cfg, 8_000_000).unwrap();
        assert_eq!((plan.nb(), plan.pairs.len()), (8, 3));
        let n_bytes = 8_000_000 * 8;
        let scratch = 4 << 20;
        assert_eq!(
            host_peak_bytes(&plan),
            2 * n_bytes + scratch,
            "2.07 × n·elem"
        );
        assert!(host_peak_bytes(&plan) <= host_bound_bytes(&plan));
    }

    #[test]
    fn every_shape_stays_under_the_any_order_bound() {
        for platform in [platform1(), platform2()] {
            for approach in [
                Approach::BLineMulti,
                Approach::PipeData,
                Approach::PipeMerge,
            ] {
                for strategy in [
                    PairStrategy::PaperHeuristic,
                    PairStrategy::Online,
                    PairStrategy::MergeTree,
                ] {
                    for staging in [StagingMode::Paper, StagingMode::DoubleBuffered] {
                        let cfg = HetSortConfig::paper_defaults(platform.clone(), approach)
                            .with_batch_elems(1_000)
                            .with_pinned_elems(300)
                            .with_pair_strategy(strategy)
                            .with_staging(staging);
                        let plan = Plan::build(cfg, 7_500).unwrap();
                        let (peak, bound) = (host_peak_bytes(&plan), host_bound_bytes(&plan));
                        assert!(peak >= 2 * 7_500 * 8, "B and the final inputs: {peak}");
                        assert!(peak <= bound, "{approach:?}/{strategy:?}/{staging:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn one_batch_run_is_b() {
        // BLINE: the one run is B; at its stage-out the stream still
        // holds the device buffer and staging.
        let cfg = HetSortConfig::paper_defaults(platform1(), Approach::BLine)
            .with_batch_elems(1_000)
            .with_pinned_elems(250);
        let plan = Plan::build(cfg, 1_000).unwrap();
        let staging = staging_elems(&plan) as u64;
        assert_eq!(host_peak_bytes(&plan), (2 * 1_000 + staging) * 8);
    }
}
