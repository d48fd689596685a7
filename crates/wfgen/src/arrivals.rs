//! Arrival traces for online scheduling experiments.
//!
//! The paper's setting is offline: one workflow, one idle platform. The
//! online engine (`dhp-online`) instead consumes a *stream* of workflow
//! submissions. This module generates the arrival-time side of such
//! streams — Poisson processes (the standard open-system model),
//! uniformly spaced arrivals, and instantaneous bursts — plus a
//! convenience generator for a mixed multi-family workload.
//!
//! Everything is deterministic given a seed.

use crate::{Family, WeightModel, WorkflowInstance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How submission instants are spaced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson process: i.i.d. exponential inter-arrival times with the
    /// given rate (arrivals per unit of virtual time).
    Poisson {
        /// Mean arrivals per unit time (> 0).
        rate: f64,
    },
    /// Fixed spacing: one arrival every `interval` time units.
    Uniform {
        /// Spacing between consecutive arrivals (>= 0).
        interval: f64,
    },
    /// All workflows arrive at the same instant (a burst at `at`).
    Burst {
        /// The common arrival time.
        at: f64,
    },
}

/// Generates `n` non-decreasing arrival times.
pub fn arrival_times(n: usize, process: &ArrivalProcess, seed: u64) -> Vec<f64> {
    match *process {
        ArrivalProcess::Poisson { rate } => {
            assert!(rate > 0.0, "Poisson rate must be positive");
            let mut rng = StdRng::seed_from_u64(seed ^ 0xa11_17a1);
            let mut t = 0.0;
            (0..n)
                .map(|_| {
                    // Inverse-CDF exponential; 1 - u avoids ln(0).
                    let u: f64 = rng.random_range(0.0..1.0);
                    t += -(1.0 - u).ln() / rate;
                    t
                })
                .collect()
        }
        ArrivalProcess::Uniform { interval } => {
            assert!(interval >= 0.0, "interval must be non-negative");
            (0..n).map(|i| i as f64 * interval).collect()
        }
        ArrivalProcess::Burst { at } => vec![at; n],
    }
}

/// A mixed workload: `n` instances cycling through `families`, with
/// task counts drawn uniformly from `tasks` (inclusive). Weights follow
/// the paper's simulated-workflow model.
pub fn mixed_workload(
    n: usize,
    families: &[Family],
    tasks: (usize, usize),
    seed: u64,
) -> Vec<WorkflowInstance> {
    assert!(!families.is_empty(), "need at least one family");
    assert!(tasks.0 >= 2 && tasks.0 <= tasks.1, "bad task range");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3a77_0b5c);
    (0..n)
        .map(|i| {
            let family = families[i % families.len()];
            let size = rng.random_range(tasks.0..=tasks.1);
            let graph = family.generate(size, &WeightModel::paper(), seed.wrapping_add(i as u64));
            WorkflowInstance {
                name: format!("{}-{}-{}", family.name(), size, i),
                family: Some(family),
                size_class: crate::SizeClass::of_size(size),
                requested_size: size,
                graph: graph.into(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_sorted_positive_and_deterministic() {
        let p = ArrivalProcess::Poisson { rate: 2.0 };
        let a = arrival_times(200, &p, 7);
        let b = arrival_times(200, &p, 7);
        assert_eq!(a, b);
        assert!(a[0] > 0.0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean inter-arrival ~ 1/rate (loose sanity bound).
        let mean = a.last().unwrap() / a.len() as f64;
        assert!(mean > 0.25 && mean < 1.0, "mean inter-arrival {mean}");
    }

    #[test]
    fn uniform_spacing_exact() {
        let a = arrival_times(4, &ArrivalProcess::Uniform { interval: 2.5 }, 0);
        assert_eq!(a, vec![0.0, 2.5, 5.0, 7.5]);
    }

    #[test]
    fn burst_is_constant() {
        let a = arrival_times(3, &ArrivalProcess::Burst { at: 1.0 }, 0);
        assert_eq!(a, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn mixed_workload_cycles_families_and_is_deterministic() {
        let fams = [Family::Blast, Family::Seismology];
        let a = mixed_workload(6, &fams, (30, 60), 11);
        let b = mixed_workload(6, &fams, (30, 60), 11);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.graph.node_count(), y.graph.node_count());
        }
        assert_eq!(a[0].family, Some(Family::Blast));
        assert_eq!(a[1].family, Some(Family::Seismology));
        assert_eq!(a[2].family, Some(Family::Blast));
        for inst in &a {
            assert!(inst.graph.node_count() >= 2);
        }
    }
}
