//! The missing-overhead analysis (§IV-E).
//!
//! Tools to compare the literature's end-to-end accounting (\[5\] Stehle &
//! Jacobsen's method: `HtoD + GPUSort + DtoH` only) with the full
//! response time, reproducing Figures 7 and 8.

use hetsort_vgpu::tags;

use crate::report::TimingReport;

/// One row of the Figure 8 sweep: the component decomposition of a
/// BLINE run at one input size.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Input size.
    pub n: usize,
    /// Pure HtoD transfer seconds (component 1 of \[5\]).
    pub htod_s: f64,
    /// Pure DtoH transfer seconds (component 2 of \[5\]).
    pub dtoh_s: f64,
    /// Sorting seconds (component 3 of \[5\]).
    pub sort_s: f64,
    /// The literature's "end-to-end": 1+2+3.
    pub literature_total_s: f64,
    /// The true end-to-end including staging copies, pinned allocation,
    /// and synchronization (the paper's green curve).
    pub full_total_s: f64,
}

impl OverheadRow {
    /// Decompose a BLINE report.
    pub fn from_report(r: &TimingReport) -> OverheadRow {
        OverheadRow {
            n: r.n,
            // Absent components decompose as zero seconds: a BLINE run
            // that never transferred has no HtoD line to adjust.
            htod_s: r.component(tags::HTOD).unwrap_or(0.0) - r.sync_s / 2.0,
            dtoh_s: r.component(tags::DTOH).unwrap_or(0.0) - r.sync_s / 2.0,
            sort_s: r.component(tags::GPU_SORT).unwrap_or(0.0) - r.launch_s,
            literature_total_s: r.literature_total_s,
            full_total_s: r.total_s,
        }
    }

    /// The overhead the literature omits at this size.
    pub fn missing_s(&self) -> f64 {
        self.full_total_s - self.literature_total_s
    }

    /// Fraction of the true total the literature's method misses.
    pub fn missing_fraction(&self) -> f64 {
        if self.full_total_s <= 0.0 {
            0.0
        } else {
            self.missing_s() / self.full_total_s
        }
    }
}

/// Figure 7's comparison values from the literature (\[5\] Figure 8, CUB
/// bar, estimated by the paper's authors): HtoD 0.542 s, DtoH 0.477 s
/// for 6 GB of key/value pairs.
pub const RELATED_WORK_HTOD_S: f64 = 0.542;
/// See [`RELATED_WORK_HTOD_S`].
pub const RELATED_WORK_DTOH_S: f64 = 0.477;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HetSortConfig};
    use crate::exec_sim::simulate;
    use hetsort_vgpu::platform1;

    // These tests reproduce the paper's §IV-E numbers, which measure
    // the *paper's* single-buffer pinned protocol.

    #[test]
    fn figure7_transfer_times_consistent_with_related_work() {
        // The paper validates its setup by matching [5]'s transfer
        // times at n = 8e8 (5.96 GiB): ours must land within ~5%.
        let cfg = HetSortConfig::paper_protocol(platform1(), Approach::BLine);
        let r = simulate(cfg, 800_000_000).unwrap();
        let row = OverheadRow::from_report(&r);
        assert!(
            (row.htod_s - RELATED_WORK_HTOD_S).abs() / RELATED_WORK_HTOD_S < 0.05,
            "HtoD {} vs {}",
            row.htod_s,
            RELATED_WORK_HTOD_S
        );
        assert!(
            (row.dtoh_s - RELATED_WORK_DTOH_S).abs() / RELATED_WORK_DTOH_S < 0.15,
            "DtoH {} vs {}",
            row.dtoh_s,
            RELATED_WORK_DTOH_S
        );
    }

    #[test]
    fn missing_overhead_grows_with_n() {
        let cfg = HetSortConfig::paper_protocol(platform1(), Approach::BLine);
        let rows: Vec<OverheadRow> = [200_000_000usize, 400_000_000, 800_000_000]
            .iter()
            .map(|&n| OverheadRow::from_report(&simulate(cfg.clone(), n).unwrap()))
            .collect();
        for w in rows.windows(2) {
            assert!(w[1].missing_s() > w[0].missing_s());
        }
        // The omitted overhead is a substantial fraction of the truth
        // (the paper's headline point).
        assert!(
            rows[2].missing_fraction() > 0.4,
            "{}",
            rows[2].missing_fraction()
        );
    }

    #[test]
    fn one_big_pinned_buffer_is_worse() {
        // §IV-E: allocating ps = n pinned memory costs 2.2 s at
        // n = 8e8 — more than the literature's whole end-to-end.
        let cfg = HetSortConfig::paper_protocol(platform1(), Approach::BLine)
            .with_pinned_elems(800_000_000)
            .with_batch_elems(800_000_000);
        let r = simulate(cfg, 800_000_000).unwrap();
        let alloc = r
            .component(hetsort_vgpu::tags::PINNED_ALLOC)
            .expect("pinned alloc ran");
        assert!((alloc - 2.2).abs() < 0.05, "alloc={alloc}");
        assert!(alloc > r.literature_total_s);
    }
}
