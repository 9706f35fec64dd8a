//! Order statistics over timing samples.

/// Median of `values` (mean of the middle two for an even count).
/// Returns NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method) — the rule the
/// benchmark driver applies to ten runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median — the driver's spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    Some((q3 - q1) / q2)
}

/// The highest order statistic that still has ten samples beyond it:
/// the (N−10)-th smallest when N ≥ 21, else the median.
pub fn high_percentile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() >= 21 {
        v[v.len() - 11]
    } else {
        median(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        // == [3.5, 24.0, 160.0]
        let v: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        assert_eq!(quartiles(&v), Some((3.5, 24.0, 160.0)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_high_percentile() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(high_percentile(&[4.0, 1.0, 3.0]), 3.0);
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(high_percentile(&v), 15.0);
    }
}
