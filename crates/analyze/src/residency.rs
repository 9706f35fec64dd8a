//! Peak-residency accounting as a reusable API.
//!
//! A built [`Plan`] pins two kinds of memory for its entire run:
//!
//! * **device**: every stream scheduled on a GPU keeps one
//!   `2 · elem_bytes · b_s` batch buffer
//!   ([`HetSortConfig::device_bytes`](hetsort_core::HetSortConfig::device_bytes))
//!   resident from its first `HtoD` until its last `DtoH` — with
//!   round-robin batch rotation the buffers never free between batches,
//!   so the peak per GPU is simply `streams_on_gpu × dev_bytes`;
//! * **pinned host**: every `PinnedAlloc` step's staging buffer lives
//!   until the run ends (piped approaches allocate an inbound and an
//!   outbound buffer per stream).
//!
//! The static linter uses this to flag statically-guaranteed OOM, and
//! the `hetsort-serve` admission controller sums it across concurrent
//! jobs to keep the aggregate footprint under a budget.

use std::collections::{BTreeMap, BTreeSet};

use hetsort_core::dag::DagOp;
use hetsort_core::plan::Plan;

/// The peak memory footprint a plan keeps resident for its whole run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Residency {
    /// Peak resident bytes per *physical* GPU index
    /// ([`Plan::physical_gpu`]) — a recovery re-plan built on surviving
    /// devices accounts against the original platform's device numbers,
    /// so pool bookkeeping stays consistent across plan generations.
    pub device_bytes: BTreeMap<usize, u64>,
    /// Total pinned host staging bytes (sum over `PinnedAlloc` steps).
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
        let pinned_bytes = plan
            .steps
            .iter()
            .map(|s| match s.op {
                DagOp::PinnedAlloc { bytes, .. } => bytes,
                _ => 0,
            })
            .sum();
        Residency {
            device_bytes,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsort_core::{Approach, HetSortConfig, StagingMode};
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
}
