//! Communication-link models.
//!
//! The paper assumes one uniform bandwidth `β`; its stated future work is
//! "to add one more level of heterogeneity by considering different
//! communication bandwidths". [`LinkModel::PerProcessor`] implements the
//! natural version of that: each processor has its own link speed, and a
//! transfer between two processors is limited by the slower endpoint.

use dhp_platform::ProcId;

/// Bandwidth model for inter-processor file transfers.
#[derive(Clone, Debug, PartialEq)]
pub enum LinkModel {
    /// The paper's model: a single bandwidth `β` between any two
    /// processors.
    Uniform(f64),
    /// Heterogeneous links: `rates[j]` is processor `p_j`'s link speed;
    /// the effective bandwidth of a transfer is the minimum of the two
    /// endpoints' rates.
    PerProcessor(Vec<f64>),
}

impl LinkModel {
    /// Effective bandwidth between two processors.
    pub fn bandwidth(&self, a: ProcId, b: ProcId) -> f64 {
        match self {
            LinkModel::Uniform(beta) => *beta,
            LinkModel::PerProcessor(rates) => rates[a.idx()].min(rates[b.idx()]),
        }
    }

    /// Validates rates are positive.
    pub fn validate(&self) -> bool {
        match self {
            LinkModel::Uniform(beta) => *beta > 0.0,
            LinkModel::PerProcessor(rates) => !rates.is_empty() && rates.iter().all(|&r| r > 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_symmetric_constant() {
        let l = LinkModel::Uniform(2.5);
        assert_eq!(l.bandwidth(ProcId(0), ProcId(7)), 2.5);
        assert!(l.validate());
    }

    #[test]
    fn per_processor_takes_min() {
        let l = LinkModel::PerProcessor(vec![4.0, 1.0, 2.0]);
        assert_eq!(l.bandwidth(ProcId(0), ProcId(1)), 1.0);
        assert_eq!(l.bandwidth(ProcId(2), ProcId(0)), 2.0);
    }

    #[test]
    fn validation_catches_bad_rates() {
        assert!(!LinkModel::Uniform(0.0).validate());
        assert!(!LinkModel::PerProcessor(vec![]).validate());
        assert!(!LinkModel::PerProcessor(vec![1.0, -2.0]).validate());
        assert!(LinkModel::PerProcessor(vec![1.0, 2.0]).validate());
    }
}
