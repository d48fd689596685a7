#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # dhp-wfgen
//!
//! Workflow-instance generator reproducing the input sets of the paper's
//! evaluation (§5.1.1):
//!
//! * **Simulated workflows** following the seven WfCommons model families
//!   used by the paper — 1000Genome, BLAST, BWA, Epigenomics, Montage,
//!   Seismology, SoyKB — scaled to a requested task count, with uniformly
//!   distributed weights (edge volume 1–10, work 1–1000, memory 1–192).
//! * **Real-world-like workflows**: five small nf-core-style instances
//!   (11–58 tasks) with heavy-tailed "historical trace" weights where more
//!   than half of the tasks carry weight 1, mirroring the Lotaru traces
//!   the paper uses.
//!
//! All generation is deterministic given a seed.
//!
//! ```
//! use dhp_wfgen::{Family, WorkflowInstance};
//!
//! let inst = WorkflowInstance::simulated(Family::Blast, 200, 42);
//! assert!(inst.graph.node_count() >= 190);    // widths quantise slightly
//! assert_eq!(inst.size_class.name(), "small");
//! // WfCommons JSON round-trip (the paper's instance format):
//! let json = dhp_wfgen::wfcommons::to_json(&inst, dhp_wfgen::wfcommons::GIB).unwrap();
//! let back = dhp_wfgen::wfcommons::from_json(
//!     &json, &dhp_wfgen::wfcommons::ImportConfig::default()).unwrap();
//! assert_eq!(back.graph.node_count(), inst.graph.node_count());
//! ```

pub mod arrivals;
pub mod families;
pub mod realworld;
pub mod weights;
pub mod wfcommons;

use dhp_dag::Dag;
use serde::{Deserialize, Serialize};

pub use families::Family;
pub use weights::WeightModel;

/// The task counts used by the paper for simulated workflows.
pub const PAPER_SIZES: [usize; 11] = [
    200, 1_000, 2_000, 4_000, 8_000, 10_000, 15_000, 18_000, 20_000, 25_000, 30_000,
];

/// Workflow size category (paper groups by task count).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SizeClass {
    /// Real-world workflows (11–58 tasks).
    Real,
    /// Up to 8 000 tasks.
    Small,
    /// 10 000 – 18 000 tasks.
    Mid,
    /// 20 000 – 30 000 tasks.
    Big,
}

impl SizeClass {
    /// Classifies a simulated workflow size.
    pub fn of_size(n: usize) -> SizeClass {
        if n <= 8_000 {
            SizeClass::Small
        } else if n <= 18_000 {
            SizeClass::Mid
        } else {
            SizeClass::Big
        }
    }

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SizeClass::Real => "real",
            SizeClass::Small => "small",
            SizeClass::Mid => "middle",
            SizeClass::Big => "big",
        }
    }
}

/// A concrete workflow instance: the DAG plus provenance metadata.
#[derive(Clone, Debug)]
pub struct WorkflowInstance {
    /// Instance name, e.g. `"seismology-2000"` or `"methylseq"`.
    pub name: String,
    /// Generating family (`None` for real-world instances).
    pub family: Option<Family>,
    /// Size category.
    pub size_class: SizeClass,
    /// Requested task count (actual count may differ slightly because
    /// family topologies quantise widths; see [`Family::generate`]).
    pub requested_size: usize,
    /// The workflow DAG.
    pub graph: Dag,
}

impl WorkflowInstance {
    /// Generates a simulated instance of `family` with about `n` tasks.
    pub fn simulated(family: Family, n: usize, seed: u64) -> Self {
        let graph = family.generate(n, &WeightModel::paper(), seed);
        Self {
            name: format!("{}-{}", family.name(), n),
            family: Some(family),
            size_class: SizeClass::of_size(n),
            requested_size: n,
            graph,
        }
    }

    /// Multiplies every task's work weight by `factor` (the paper's
    /// "four times bigger w_u" experiment, §5.2.4).
    pub fn scale_work(&mut self, factor: f64) {
        scale_work(&mut self.graph, factor);
    }
}

/// Multiplies every task's work weight by `factor`.
pub fn scale_work(g: &mut Dag, factor: f64) {
    for u in g.node_ids().collect::<Vec<_>>() {
        g.node_mut(u).work *= factor;
    }
}

/// The full simulated benchmark suite: every family at every size it is
/// available in (the paper could not generate all sizes for Montage and
/// SoyKB), restricted to sizes in `sizes`.
pub fn simulated_suite(sizes: &[usize], seed: u64) -> Vec<WorkflowInstance> {
    let mut out = Vec::new();
    for (fi, family) in Family::ALL.into_iter().enumerate() {
        for &n in sizes {
            if family.available_sizes().contains(&n) {
                out.push(WorkflowInstance::simulated(
                    family,
                    n,
                    seed.wrapping_add(fi as u64 * 1013),
                ));
            }
        }
    }
    out
}

/// The real-world-like suite (five small nf-core-style workflows).
pub fn real_world_suite(seed: u64) -> Vec<WorkflowInstance> {
    realworld::suite(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_match_paper_grouping() {
        assert_eq!(SizeClass::of_size(200), SizeClass::Small);
        assert_eq!(SizeClass::of_size(8_000), SizeClass::Small);
        assert_eq!(SizeClass::of_size(10_000), SizeClass::Mid);
        assert_eq!(SizeClass::of_size(18_000), SizeClass::Mid);
        assert_eq!(SizeClass::of_size(20_000), SizeClass::Big);
        assert_eq!(SizeClass::of_size(30_000), SizeClass::Big);
    }

    #[test]
    fn scale_work_multiplies_all() {
        let mut inst = WorkflowInstance::simulated(Family::Blast, 200, 1);
        let before = inst.graph.total_work();
        inst.scale_work(4.0);
        assert!((inst.graph.total_work() - 4.0 * before).abs() < 1e-6);
    }

    #[test]
    fn suite_is_deterministic() {
        let a = simulated_suite(&[200, 1000], 9);
        let b = simulated_suite(&[200, 1000], 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.graph.node_count(), y.graph.node_count());
            assert_eq!(x.graph.total_work(), y.graph.total_work());
        }
    }

    #[test]
    fn suite_covers_all_families_at_small_size() {
        let suite = simulated_suite(&[200], 3);
        assert_eq!(suite.len(), Family::ALL.len());
    }
}

#[cfg(test)]
mod proptests;
