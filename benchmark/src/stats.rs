//! Order statistics and aggregates the harness reports with.

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) does —
/// the acceptance rule for this benchmark is stated in those terms.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the acceptance rule compares against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Smallest value (`+inf` for an empty sample).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest value (`-inf` for an empty sample).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no
/// work has no ratio to report).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn extremes_and_ratio() {
        assert_eq!((min(&[3.0, 1.0, 2.0]), max(&[3.0, 1.0, 2.0])), (1.0, 3.0));
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
