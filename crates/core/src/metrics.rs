//! Result types and aggregate statistics used by the experiment harness.

use crate::mapping::Mapping;
use std::time::Duration;

/// Outcome of a successful heuristic run.
#[derive(Clone, Debug)]
pub struct MappingResult {
    /// The valid, complete mapping.
    pub mapping: Mapping,
    /// Its makespan under the paper's model.
    pub makespan: f64,
    /// The block count `k'` of the winning configuration.
    pub kprime: usize,
    /// Wall-clock time of the heuristic.
    pub elapsed: Duration,
}

/// Geometric mean of a non-empty slice of positive values (the paper
/// aggregates relative makespans this way).
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean needs positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_zero() {
        geometric_mean(&[1.0, 0.0]);
    }
}
