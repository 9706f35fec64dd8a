//! Plan memory math: the device and pinned footprint ([`Residency`],
//! §III-B) and the host arrays `A`, `W` and `B` ([`host_peak_bytes`],
//! §III-A) of a built [`Plan`], computed from its layout and nodes alone.
//!
//! ## Device and pinned residency
//!
//! A built plan pins two kinds of memory for its entire run:
//!
//! * **device**: every stream scheduled on a GPU keeps one
//!   `2 · elem_bytes · b_s` batch buffer
//!   ([`HetSortConfig::device_bytes`](crate::HetSortConfig::device_bytes))
//!   resident from its first `HtoD` until its last `DtoH` — with
//!   round-robin batch rotation the buffers never free between batches,
//!   so the peak per GPU is simply `streams_on_gpu × dev_bytes`;
//! * **pinned host**: every stream's staging buffers
//!   ([`StagingLayout::pinned_elems`](crate::plan::StagingLayout::pinned_elems))
//!   live until the run ends.
//!
//! The analyzer's static linter uses this to flag statically-guaranteed
//! OOM, and the `hetsort-serve` admission controller sums it across
//! concurrent jobs to keep the aggregate footprint under a budget.
//!
//! ## Host memory
//!
//! The engine ([`crate::dag::exec`]) borrows `A` and owns the rest, each
//! allocation alive only while something will still read it:
//!
//! * a batch's sorted run, from its first `StageOut` chunk until its one
//!   consumer merge runs;
//! * a pair merge's output, from that merge until its consumer runs;
//! * `B`, from the final merge on (it is the result);
//! * per stream, the device-buffer stand-in (the stream's largest batch)
//!   and its pinned staging, from the stream's first node until its
//!   last;
//! * during each `Sort`, one radix scratch of the batch's length plus
//!   the kernel's working set at the host's width (the inline engine
//!   sorts at full width): its partition counters and bucket rows, read
//!   from [`hetsort_algos::radix_par::working_set_bytes`];
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
//! `2·n·elem + streams·(b_s·elem + pinned + rows) + b_s·elem + scratch`
//!
//! It holds because only the calling thread merges, one merge at a
//! time. Every input element sits in at most one live run or pair
//! output, or in a batch being sorted, and the one running merge adds
//! an output no larger than the runs it reads. A sort's scratch is as
//! long as its batch, which is not a run yet. So runs, pair outputs,
//! `B` and sort scratch together never exceed `2·n·elem`, and each
//! stream adds at most its device buffer, staging and the working set
//! `rows` of one sort at the host's width. The last `b_s·elem` is
//! margin; `scratch` is the final merge's tree scratch above (pair
//! merges need none). Bookkeeping (spans, merge cut tables)
//! is not modelled.
//!
//! Recovery detours (an OOM split's host staging, a given-up batch's
//! host sort) add up to a batch per stream on top of this; the model
//! covers fault-free runs.
//!
//! [`Residency::of_plan`] does not call this model, so its cost stays
//! out of admission's hot path.

use std::collections::{BTreeMap, BTreeSet};

use hetsort_algos::multiway::MERGE_SCRATCH_ELEMS;
use hetsort_algos::par::default_threads;
use hetsort_algos::radix_par::working_set_bytes;

use crate::dag::DagOp;
use crate::plan::{MergeSrc, Plan};

/// The peak memory footprint a plan keeps resident for its whole run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Residency {
    /// Peak resident bytes per *physical* GPU index
    /// ([`Plan::physical_gpu`]) — a recovery re-plan built on surviving
    /// devices accounts against the original platform's device numbers,
    /// so pool bookkeeping stays consistent across plan generations.
    pub device_bytes: BTreeMap<usize, u64>,
    /// Total pinned host staging bytes: every stream's staging layout.
    pub pinned_bytes: u64,
}

impl Residency {
    /// Compute the peak residency of a built plan.
    pub fn of_plan(plan: &Plan) -> Residency {
        let cfg = &plan.config;
        let dev_bytes = cfg.device_bytes(cfg.batch_elems);
        let mut streams_on: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for b in &plan.batches {
            streams_on
                .entry(plan.physical_gpu(b.gpu))
                .or_default()
                .insert(b.stream);
        }
        let device_bytes = streams_on
            .into_iter()
            .map(|(gpu, streams)| (gpu, dev_bytes.saturating_mul(streams.len() as u64)))
            .collect();
        let pinned = plan.staging.pinned_elems() * plan.total_streams;
        Residency {
            device_bytes,
            pinned_bytes: cfg.elem_bytes.bytes() * pinned as u64,
        }
    }

    /// A footprint of `device_bytes` on one GPU plus `pinned_bytes` of
    /// staging.
    pub fn on_gpu(gpu: usize, device_bytes: u64, pinned_bytes: u64) -> Residency {
        Residency {
            device_bytes: BTreeMap::from([(gpu, device_bytes)]),
            pinned_bytes,
        }
    }

    /// Total device bytes across every GPU.
    pub fn device_total(&self) -> u64 {
        self.device_bytes.values().sum()
    }

    /// Largest single-GPU residency (0 when no batches are scheduled).
    pub fn device_peak(&self) -> u64 {
        self.device_bytes.values().copied().max().unwrap_or(0)
    }

    /// Fold another footprint into this one (per-GPU sums).
    pub fn add(&mut self, other: &Residency) {
        for (gpu, b) in &other.device_bytes {
            *self.device_bytes.entry(*gpu).or_insert(0) += b;
        }
        self.pinned_bytes += other.pinned_bytes;
    }

    /// Remove a previously-added footprint (per-GPU differences). A
    /// footprint removed twice saturates at zero instead of wrapping,
    /// so the under-count shows up as a later overcommit.
    pub fn sub(&mut self, other: &Residency) {
        for (gpu, b) in &other.device_bytes {
            if let Some(cur) = self.device_bytes.get_mut(gpu) {
                *cur = cur.saturating_sub(*b);
            }
        }
        self.pinned_bytes = self.pinned_bytes.saturating_sub(other.pinned_bytes);
    }

    /// Element-wise maximum of two footprints: the shared reservation
    /// of a coalesced group, whose members reuse the same buffers one
    /// after another.
    pub fn max(&self, other: &Residency) -> Residency {
        let mut out = self.clone();
        for (gpu, bytes) in &other.device_bytes {
            let cur = out.device_bytes.entry(*gpu).or_insert(0);
            *cur = (*cur).max(*bytes);
        }
        out.pinned_bytes = out.pinned_bytes.max(other.pinned_bytes);
        out
    }
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
        .map(|&d| bytes(d + plan.staging.pinned_elems()))
        .collect();
    let mut span = vec![(usize::MAX, 0usize); streams];
    for (i, node) in plan.steps.iter().enumerate() {
        if let Some((first, last)) = node.stream.and_then(|s| span.get_mut(s)) {
            *first = (*first).min(i);
            *last = i;
        }
    }

    let threads = default_threads();
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
            DagOp::Sort { batch } => {
                let len = src_len(MergeSrc::Batch(*batch));
                scratch = bytes(len) + working_set_bytes(threads, len, elem as usize) as u64;
            }
            DagOp::StagingCopy {
                batch,
                chunk: 0,
                dir_in: false,
                ..
            } => live += bytes(src_len(MergeSrc::Batch(*batch))),
            DagOp::PairMerge { slot } => {
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
/// `2·n·elem + streams·(b_s·elem + pinned + rows) + b_s·elem + scratch`,
/// where `b_s` is the longest batch, `pinned` one stream's staging,
/// `rows` the radix working set of sorting `b_s` at the host's width
/// and `scratch` the final merge's tree scratch.
pub fn host_bound_bytes(plan: &Plan) -> u64 {
    let elem = plan.config.elem_bytes.bytes();
    let bs = plan.batches.iter().map(|b| b.len).max().unwrap_or(0);
    let rows = working_set_bytes(default_threads(), bs, elem as usize) as u64;
    let per_stream = (bs + plan.staging.pinned_elems()) as u64 * elem + rows;
    let scratch = plan
        .steps
        .iter()
        .map(|node| match &node.op {
            DagOp::MultiwayMerge { inputs } => merge_scratch_elems(plan, inputs),
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    2 * plan.n as u64 * elem + plan.total_streams as u64 * per_stream + (bs + scratch) as u64 * elem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Approach, HetSortConfig, PairStrategy, StagingMode};
    use hetsort_vgpu::{platform1, platform2};

    fn plan_staged(approach: Approach, staging: StagingMode) -> Plan {
        let cfg = HetSortConfig::paper_defaults(platform1(), approach)
            .with_batch_elems(1000)
            .with_pinned_elems(250)
            .with_staging(staging);
        Plan::build(cfg, 6000).unwrap()
    }

    fn plan(approach: Approach) -> Plan {
        plan_staged(approach, StagingMode::default())
    }

    #[test]
    fn piped_residency_counts_streams_and_double_buffers() {
        // Double-buffered staging pins two inbound halves plus the
        // outbound buffer per stream; the paper's protocol pins one of
        // each. The footprint increase is the price of the overlap and
        // must be visible to admission control.
        let p = plan_staged(Approach::PipeData, StagingMode::DoubleBuffered);
        let r = Residency::of_plan(&p);
        // Platform 1 has one GPU; every scheduled stream holds one
        // 2 × 8 B × b_s buffer.
        let streams = p.total_streams as u64;
        assert_eq!(r.device_bytes.len(), 1);
        assert_eq!(r.device_total(), streams * 2 * 8 * 1000);
        assert_eq!(r.device_peak(), r.device_total());
        assert_eq!(r.pinned_bytes, streams * 3 * 8 * 250);
        let paper = Residency::of_plan(&plan_staged(Approach::PipeData, StagingMode::Paper));
        assert_eq!(paper.pinned_bytes, streams * 2 * 8 * 250);
    }

    #[test]
    fn blocking_residency_is_single_buffered() {
        // Blocking + double-buffered: two inbound halves, outbound
        // elided (DtoH drains from batch storage). Paper protocol: one
        // buffer per stream, period.
        let p = plan_staged(Approach::BLineMulti, StagingMode::DoubleBuffered);
        let r = Residency::of_plan(&p);
        let streams = p.total_streams as u64;
        assert_eq!(r.pinned_bytes, streams * 2 * 8 * 250, "two halves");
        let paper = Residency::of_plan(&plan_staged(Approach::BLineMulti, StagingMode::Paper));
        assert_eq!(paper.pinned_bytes, streams * 8 * 250, "one buffer");
    }

    #[test]
    fn multi_gpu_residency_splits_per_device() {
        let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(1000)
            .with_pinned_elems(250);
        let p = Plan::build(cfg, 20_000).unwrap();
        let r = Residency::of_plan(&p);
        assert!(r.device_bytes.len() > 1, "{:?}", r.device_bytes);
        assert!(r.device_peak() < r.device_total());
    }

    #[test]
    fn add_sub_round_trips() {
        let a = Residency::of_plan(&plan(Approach::PipeData));
        let b = Residency::of_plan(&plan(Approach::BLineMulti));
        let mut agg = Residency::default();
        agg.add(&a);
        agg.add(&b);
        assert_eq!(agg.device_total(), a.device_total() + b.device_total());
        assert_eq!(agg.pinned_bytes, a.pinned_bytes + b.pinned_bytes);
        agg.sub(&a);
        assert_eq!(agg.device_total(), b.device_total());
        agg.sub(&b);
        assert_eq!(agg.device_total(), 0);
        assert_eq!(agg.pinned_bytes, 0);
    }

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
        let staging = plan.staging.pinned_elems() as u64;
        assert_eq!(host_peak_bytes(&plan), (2 * 1_000 + staging) * 8);
    }
}
