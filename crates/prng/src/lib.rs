//! Deterministic randomness for the whole workspace.
//!
//! The build environment is fully offline, so this crate supplies the
//! two things external crates used to provide:
//!
//! * [`Rng`] — a SplitMix64 generator (Steele et al., OOPSLA 2014):
//!   tiny, fast, passes BigCrush at the quality level tests need, and
//!   bit-reproducible across platforms;
//! * [`run_cases`] + [`prop_assert!`]/[`prop_assert_eq!`] — a minimal
//!   property-test harness with per-case seeds, env-var reproduction
//!   (`PTEST_SEED`, `PTEST_CASES`), and shrink-free failure reports.

// No unsafe anywhere in this crate — enforced, not assumed.
#![forbid(unsafe_code)]

/// SplitMix64 pseudo-random generator.
///
/// Every draw advances the state by a fixed odd constant and hashes it,
/// so streams never short-cycle and two generators with different seeds
/// are statistically independent for test purposes.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Create a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64`.
    pub fn u64(&mut self) -> u64 {
        self.next_u64()
    }

    /// Uniform `bool`.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform `usize` in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "usize_in: empty range {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform `u64` in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "u64_in: empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `u32` in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_in(lo as u64, hi as u64) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64_unit()
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.usize_in(0, xs.len())]
    }

    /// An arbitrary `f64` including specials: a mix of raw bit
    /// patterns (NaNs, denormals, ±inf all reachable), hand-picked
    /// special values, and ordinary unit-range values — the same
    /// coverage the old proptest strategy aimed for.
    pub fn any_f64(&mut self) -> f64 {
        const SPECIALS: [f64; 10] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
        ];
        match self.next_u64() % 6 {
            0 => f64::from_bits(self.next_u64()),
            1 => {
                let s = SPECIALS[self.usize_in(0, SPECIALS.len())];
                if s.is_nan() && self.bool() {
                    -s
                } else {
                    s
                }
            }
            _ => self.f64_in(-1.0, 1.0) * 10f64.powi(self.u32_in(0, 9) as i32 - 4),
        }
    }

    /// Vector of length `[0, max_len)` filled by `gen`.
    pub fn vec_with<T>(&mut self, max_len: usize, mut gen: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = self.usize_in(0, max_len.max(1));
        (0..n).map(|_| gen(self)).collect()
    }
}

/// Run a property `cases` times with per-case deterministic seeds.
///
/// On failure, panics with the case's seed; reproduce a single failing
/// case with `PTEST_SEED=<seed> PTEST_CASES=1 cargo test <name>`.
/// `PTEST_CASES` also globally overrides the case count.
pub fn run_cases<F>(name: &str, cases: usize, mut property: F)
where
    F: FnMut(&mut Rng) -> Result<(), String>,
{
    let base: u64 = std::env::var("PTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE);
    let cases: usize = std::env::var("PTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(cases);
    for i in 0..cases {
        // Case 0 uses the base seed itself so PTEST_SEED reproduces it.
        let seed = base.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = Rng::new(seed);
        if let Err(msg) = property(&mut rng) {
            panic!(
                "property '{name}' failed at case {i}/{cases}:\n  {msg}\n  \
                 reproduce with: PTEST_SEED={seed} PTEST_CASES=1"
            );
        }
    }
}

/// Property-style assertion: returns `Err` from the enclosing
/// `Result<(), String>` closure instead of panicking, so `run_cases`
/// can report the failing seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($fmt)+)
            ));
        }
    };
}

/// Equality counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return Err(format!(
                "assertion failed: {} == {} ({}:{})\n    left: {:?}\n   right: {:?}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                lhs,
                rhs
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..100).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..100).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..100).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_are_in_bounds() {
        let mut r = Rng::new(42);
        for _ in 0..10_000 {
            let x = r.usize_in(3, 17);
            assert!((3..17).contains(&x));
            let f = r.f64_in(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&f));
            let u = r.f64_unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_mean_is_half() {
        let mut r = Rng::new(1);
        let n = 100_000;
        let mean = (0..n).map(|_| r.f64_unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn property_harness_runs_and_reports() {
        run_cases("trivial", 25, |rng| {
            let v = rng.usize_in(0, 10);
            prop_assert!(v < 10, "v={v}");
            prop_assert_eq!(v, v);
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "reproduce with")]
    fn property_harness_panics_with_seed() {
        run_cases("failing", 5, |rng| {
            prop_assert!(rng.usize_in(0, 2) > 5);
            Ok(())
        });
    }

    #[test]
    fn any_f64_hits_specials_eventually() {
        let mut r = Rng::new(3);
        let vals: Vec<f64> = (0..10_000).map(|_| r.any_f64()).collect();
        assert!(vals.iter().any(|v| v.is_nan()));
        assert!(vals.iter().any(|v| v.is_infinite()));
        assert!(vals.iter().any(|v| v.is_finite()));
    }
}
