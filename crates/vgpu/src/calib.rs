//! Calibration helpers and provenance notes.
//!
//! Every constant in [`crate::platform`] traces back to a number the
//! paper reports (figure reading, stated rate, or back-solved component).
//! This module holds the shared functional forms:
//!
//! * [`Affine`] — `t = base + per_unit · x` costs (pinned allocation:
//!   the paper measures 0.01 s for an 8 MB buffer and 2.2 s for a
//!   6.4 GB buffer, §IV-E, which fixes both coefficients);
//! * [`amdahl_speedup`] — the black-box scalability model used for the
//!   *measured* CPU libraries (GNU parallel sort, Figure 4b endpoints
//!   3.17× at n=10⁶ and 10.12× at n=10⁹ on 16 threads fix the parallel
//!   fraction's dependence on `n`);
//! * small unit helpers.

/// An affine cost: `seconds(x) = base_s + per_unit_s · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affine {
    /// Fixed cost in seconds.
    pub base_s: f64,
    /// Marginal cost in seconds per unit.
    pub per_unit_s: f64,
}

impl Affine {
    /// Evaluate the cost at `x` units.
    pub fn eval(&self, x: f64) -> f64 {
        self.base_s + self.per_unit_s * x
    }

    /// Fit an affine model exactly through two points.
    pub fn through(x0: f64, y0: f64, x1: f64, y1: f64) -> Affine {
        let per_unit_s = (y1 - y0) / (x1 - x0);
        Affine {
            base_s: y0 - per_unit_s * x0,
            per_unit_s,
        }
    }
}

/// Amdahl speedup with parallel fraction `phi` on `p` workers.
pub fn amdahl_speedup(phi: f64, p: usize) -> f64 {
    let p = p.max(1) as f64;
    let phi = phi.clamp(0.0, 1.0);
    1.0 / ((1.0 - phi) + phi / p)
}

/// Parallel fraction of the GNU parallel sort as a function of input
/// size, fit through Figure 4b's 16-thread endpoints:
/// `S(16, 10⁶) = 3.17 → φ = 0.730` and `S(16, 10⁹) = 10.12 → φ = 0.961`.
/// Linear in `log₁₀ n`, clamped to a sane band.
pub fn gnu_sort_parallel_fraction(n: f64) -> f64 {
    let log10n = n.max(2.0).log10();
    (0.268 + 0.077 * log10n).clamp(0.0, 0.975)
}

/// `log₂` clamped below at 1 (merge trees of 1–2 lists still do work).
pub fn log2_at_least_1(x: f64) -> f64 {
    x.max(2.0).log2()
}

/// Gibibytes → bytes.
pub const GIB: u64 = 1 << 30;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_through_two_points_reproduces_them() {
        // The paper's pinned-alloc measurements: 0.01 s @ 8 MB,
        // 2.2 s @ 6.4 GB.
        let a = Affine::through(8e6, 0.01, 6.4e9, 2.2);
        assert!((a.eval(8e6) - 0.01).abs() < 1e-12);
        assert!((a.eval(6.4e9) - 2.2).abs() < 1e-12);
        assert!(a.per_unit_s > 0.0);
    }

    #[test]
    fn amdahl_endpoints() {
        assert!((amdahl_speedup(1.0, 16) - 16.0).abs() < 1e-12);
        assert!((amdahl_speedup(0.0, 16) - 1.0).abs() < 1e-12);
        assert!((amdahl_speedup(0.5, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gnu_fraction_matches_figure_4b() {
        // S(16, 1e6) ≈ 3.17 and S(16, 1e9) ≈ 10.12 from the paper.
        let s6 = amdahl_speedup(gnu_sort_parallel_fraction(1e6), 16);
        let s9 = amdahl_speedup(gnu_sort_parallel_fraction(1e9), 16);
        assert!((s6 - 3.17).abs() < 0.25, "S(16,1e6)={s6}");
        assert!((s9 - 10.12).abs() < 0.6, "S(16,1e9)={s9}");
        // Monotone in n.
        assert!(gnu_sort_parallel_fraction(1e7) > gnu_sort_parallel_fraction(1e6));
    }

    #[test]
    fn log2_clamps() {
        assert_eq!(log2_at_least_1(1.0), 1.0);
        assert_eq!(log2_at_least_1(0.0), 1.0);
        assert!((log2_at_least_1(8.0) - 3.0).abs() < 1e-12);
    }
}
