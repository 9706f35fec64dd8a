//! Efficiency relative to the lower bound (the paper's 0.93×/0.88×
//! "slowdown" numbers at n = 4.9·10⁹).

use crate::lower_bound::LowerBoundModel;

/// A measured-vs-model comparison at one input size.
#[derive(Debug, Clone, Copy)]
pub struct Efficiency {
    /// Input size.
    pub n: usize,
    /// Measured (simulated) response time.
    pub measured_s: f64,
    /// Model prediction.
    pub model_s: f64,
}

impl Efficiency {
    /// Build from a model and a measurement.
    pub fn new(model: &LowerBoundModel, n: usize, measured_s: f64) -> Efficiency {
        Efficiency {
            n,
            measured_s,
            model_s: model.predict(n),
        }
    }

    /// The paper's "slowdown" metric: model/measured (1.0 = at the
    /// bound; > 1.0 = *faster* than the bound, possible because
    /// pipelining overlaps transfers the serial BLINE probe cannot).
    pub fn slowdown(&self) -> f64 {
        if self.measured_s <= 0.0 {
            f64::INFINITY
        } else {
            self.model_s / self.measured_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_semantics_match_paper() {
        let m = LowerBoundModel {
            slope: 6.278e-9,
            n_gpus: 1,
        };
        // Paper: at n = 4.9e9 PIPEDATA is 0.93× the model.
        let n = 4_900_000_000usize;
        let model_t = m.predict(n);
        let measured = model_t / 0.93;
        let e = Efficiency::new(&m, n, measured);
        assert!((e.slowdown() - 0.93).abs() < 1e-12);
        // At small n the paper observes PIPEDATA *beating* the bound.
        let e2 = Efficiency::new(&m, 1_400_000_000, m.predict(1_400_000_000) * 0.9);
        assert!(e2.slowdown() > 1.0);
    }

    #[test]
    fn degenerate_measurement() {
        let m = LowerBoundModel {
            slope: 1e-9,
            n_gpus: 1,
        };
        let e = Efficiency::new(&m, 100, 0.0);
        assert!(e.slowdown().is_infinite());
    }
}
