//! Weight models for generated workflows.
//!
//! The paper (§5.1.1) draws uniformly distributed values: 1–10 for edge
//! volumes, 1–1000 for task workloads, and 1–192 for task memory weights,
//! mimicking the ranges observed in historical trace data.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Inclusive uniform ranges for the three weight kinds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WeightModel {
    /// Task workload `w_u` range.
    pub work: (f64, f64),
    /// Task memory `m_u` range.
    pub memory: (f64, f64),
    /// Edge communication volume `c_{u,v}` range.
    pub volume: (f64, f64),
}

impl WeightModel {
    /// The paper's simulated-workflow model: volume 1–10, work 1–1000,
    /// memory 1–192.
    pub fn paper() -> Self {
        Self {
            work: (1.0, 1000.0),
            memory: (1.0, 192.0),
            volume: (1.0, 10.0),
        }
    }

    /// Unit weights (useful in tests).
    pub fn unit() -> Self {
        Self {
            work: (1.0, 1.0),
            memory: (1.0, 1.0),
            volume: (1.0, 1.0),
        }
    }

    /// Draws a workload.
    pub fn draw_work(&self, rng: &mut StdRng) -> f64 {
        draw(rng, self.work)
    }

    /// Draws a memory weight.
    pub fn draw_memory(&self, rng: &mut StdRng) -> f64 {
        draw(rng, self.memory)
    }

    /// Draws an edge volume.
    pub fn draw_volume(&self, rng: &mut StdRng) -> f64 {
        draw(rng, self.volume)
    }
}

fn draw(rng: &mut StdRng, (lo, hi): (f64, f64)) -> f64 {
    if lo >= hi {
        lo
    } else {
        rng.random_range(lo..=hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// `count` draws of each kind, interleaved as a generator makes them.
    fn draws(model: &WeightModel, seed: u64, count: usize) -> Vec<[f64; 3]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                [
                    model.draw_work(&mut rng),
                    model.draw_memory(&mut rng),
                    model.draw_volume(&mut rng),
                ]
            })
            .collect()
    }

    #[test]
    fn paper_ranges_respected() {
        for [work, memory, volume] in draws(&WeightModel::paper(), 17, 200) {
            assert!((1.0..=1000.0).contains(&work));
            assert!((1.0..=192.0).contains(&memory));
            assert!((1.0..=10.0).contains(&volume));
        }
    }

    #[test]
    fn deterministic() {
        let a = draws(&WeightModel::paper(), 99, 50);
        assert_eq!(a, draws(&WeightModel::paper(), 99, 50));
        assert_ne!(a, draws(&WeightModel::paper(), 98, 50));
    }

    #[test]
    fn unit_model_is_constant() {
        for d in draws(&WeightModel::unit(), 3, 10) {
            assert_eq!(d, [1.0; 3]);
        }
    }
}
