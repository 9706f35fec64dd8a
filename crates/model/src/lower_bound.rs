//! The §IV-G lower-limit baseline models, rebuilt the paper's way.

use hetsort_core::{simulate, Approach, HetSortConfig};
use hetsort_vgpu::PlatformSpec;

/// The paper's measured 1-GPU model slope on PLATFORM2 (s/element).
pub const PAPER_SLOPE_1GPU: f64 = 6.278e-9;
/// The paper's measured 2-GPU model slope on PLATFORM2 (s/element).
pub const PAPER_SLOPE_2GPU: f64 = 3.706e-9;

/// A linear lower-bound model `t(n) = slope · n`.
#[derive(Debug, Clone, Copy)]
pub struct LowerBoundModel {
    /// Seconds per element.
    pub slope: f64,
    /// GPUs the model assumes.
    pub n_gpus: usize,
}

impl LowerBoundModel {
    /// Predicted time for `n` elements.
    pub fn predict(&self, n: usize) -> f64 {
        self.slope * n as f64
    }

    /// Derive the 1-GPU model exactly as the paper does: run BLINE at
    /// the largest `n` that fits in one GPU's global memory and divide
    /// (§IV-G uses n = 7·10⁸ on a K40m).
    ///
    /// # Panics
    ///
    /// Panics if the probe simulation fails (impossible for valid
    /// platforms).
    pub fn one_gpu(plat: &PlatformSpec) -> LowerBoundModel {
        let mut single = plat.clone();
        single.gpus.truncate(1);
        let n = (single.max_batch_elems(1) / 1_000_000) * 1_000_000;
        // The paper's probe stages through a single pinned buffer, so
        // the fitted slope stays the published one.
        let cfg = HetSortConfig::paper_protocol(single, Approach::BLine);
        let r = simulate(cfg, n).expect("1-GPU lower-bound probe failed");
        LowerBoundModel {
            slope: r.total_s / n as f64,
            n_gpus: 1,
        }
    }

    /// Derive the 2-GPU model: BLINE on both GPUs with `b_s = n/2`
    /// (each GPU sorts one half) plus the unavoidable CPU merge of the
    /// two batches (§IV-G uses n = 1.4·10⁹, b_s = 7·10⁸, n_s = 1).
    ///
    /// # Panics
    ///
    /// Panics on platforms with fewer than 2 GPUs or probe failure.
    pub fn two_gpu(plat: &PlatformSpec) -> LowerBoundModel {
        assert!(plat.n_gpus() >= 2, "two_gpu model needs 2 GPUs");
        let bs = (plat.max_batch_elems(1) / 1_000_000) * 1_000_000;
        let n = 2 * bs;
        let cfg =
            HetSortConfig::paper_protocol(plat.clone(), Approach::BLineMulti).with_batch_elems(bs);
        let r = simulate(cfg, n).expect("2-GPU lower-bound probe failed");
        LowerBoundModel {
            slope: r.total_s / n as f64,
            n_gpus: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsort_vgpu::platform2;

    #[test]
    fn one_gpu_slope_matches_paper() {
        let m = LowerBoundModel::one_gpu(&platform2());
        assert_eq!(m.n_gpus, 1);
        let err = (m.slope - PAPER_SLOPE_1GPU).abs() / PAPER_SLOPE_1GPU;
        assert!(
            err < 0.03,
            "slope {} vs paper {}",
            m.slope,
            PAPER_SLOPE_1GPU
        );
    }

    #[test]
    fn two_gpu_slope_in_paper_ballpark() {
        let m = LowerBoundModel::two_gpu(&platform2());
        assert_eq!(m.n_gpus, 2);
        let err = (m.slope - PAPER_SLOPE_2GPU).abs() / PAPER_SLOPE_2GPU;
        assert!(
            err < 0.20,
            "slope {} vs paper {}",
            m.slope,
            PAPER_SLOPE_2GPU
        );
        // Two GPUs must beat one, but by less than 2× (shared PCIe +
        // the extra merge — the paper's sub-linearity finding).
        let one = LowerBoundModel::one_gpu(&platform2());
        assert!(m.slope < one.slope);
        assert!(m.slope > one.slope / 2.0);
    }

    #[test]
    fn predictions_are_linear() {
        let m = LowerBoundModel {
            slope: 6.278e-9,
            n_gpus: 1,
        };
        assert!((m.predict(1_000_000_000) - 6.278).abs() < 1e-9);
        assert_eq!(m.predict(0), 0.0);
    }
}
