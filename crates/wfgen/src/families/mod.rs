//! The seven WfCommons-style workflow families used in the paper's
//! evaluation, each scalable to a requested task count.
//!
//! The topology of each family follows the published structural
//! description of the corresponding real workflow (see the per-module
//! docs); weights are drawn from a [`WeightModel`]. Generation is
//! deterministic given a seed.

mod blast;
mod bwa;
mod epigenomics;
mod genome;
mod montage;
mod seismology;
mod soykb;

use crate::weights::WeightModel;
use dhp_dag::{Dag, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The workflow families of the paper (§5.1.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Family {
    /// 1000Genome: per-chromosome fan-out/merge followed by per-population
    /// analysis pairs.
    Genome,
    /// BLAST: one split, massive parallel search, one merge — highly
    /// fanned-out.
    Blast,
    /// BWA: index + split, massive parallel alignment, merge — highly
    /// fanned-out.
    Bwa,
    /// Epigenomics: parallel 4-stage pipelines per lane — chain-dominated.
    Epigenomics,
    /// Montage: project/diff/background stages with global synchronisation
    /// points.
    Montage,
    /// Seismology: the most fanned-out family — one source, huge fan, one
    /// sink.
    Seismology,
    /// SoyKB: long entry chain, per-sample pipelines, closing fork-join —
    /// chain-dominated at small sizes.
    Soykb,
}

impl Family {
    /// All families, in the paper's listing order.
    pub const ALL: [Family; 7] = [
        Family::Genome,
        Family::Blast,
        Family::Bwa,
        Family::Epigenomics,
        Family::Montage,
        Family::Seismology,
        Family::Soykb,
    ];

    /// Family name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Family::Genome => "genome",
            Family::Blast => "blast",
            Family::Bwa => "bwa",
            Family::Epigenomics => "epigenomics",
            Family::Montage => "montage",
            Family::Seismology => "seismology",
            Family::Soykb => "soykb",
        }
    }

    /// Parses a family name (case-insensitive).
    pub fn parse(s: &str) -> Option<Family> {
        let s = s.to_ascii_lowercase();
        Family::ALL.into_iter().find(|f| f.name() == s)
    }

    /// The subset of [`crate::PAPER_SIZES`] this family can be generated
    /// at. The paper notes that for SoyKB and Montage only a subset of
    /// sizes could be generated; we reproduce that restriction.
    pub fn available_sizes(self) -> &'static [usize] {
        match self {
            Family::Montage => &[200, 1_000, 2_000, 4_000, 8_000, 10_000],
            Family::Soykb => &[200, 1_000, 2_000, 10_000, 15_000, 20_000],
            _ => &crate::PAPER_SIZES,
        }
    }

    /// Generates an instance with approximately `n` tasks.
    ///
    /// Family topologies quantise internal widths, so the actual task
    /// count may deviate by a few tasks; it is always within 5 % of `n`
    /// for `n ≥ 50`.
    ///
    /// The graph comes back compact ([`Dag::shrink_to_fit`]): it holds
    /// exactly the bytes of its own clone, not the slack of being built
    /// edge by edge (1.92 MiB against 1.04 MiB for 10,000 blast tasks).
    pub fn generate(self, n: usize, model: &WeightModel, seed: u64) -> Dag {
        let mut ctx = Ctx::new(model, seed);
        match self {
            Family::Genome => genome::build(&mut ctx, n),
            Family::Blast => blast::build(&mut ctx, n),
            Family::Bwa => bwa::build(&mut ctx, n),
            Family::Epigenomics => epigenomics::build(&mut ctx, n),
            Family::Montage => montage::build(&mut ctx, n),
            Family::Seismology => seismology::build(&mut ctx, n),
            Family::Soykb => soykb::build(&mut ctx, n),
        }
        ctx.g.shrink_to_fit();
        ctx.g
    }
}

/// Construction context shared by the family builders: the graph under
/// construction plus the weight sampler.
pub(crate) struct Ctx {
    pub g: Dag,
    rng: StdRng,
    model: WeightModel,
}

impl Ctx {
    fn new(model: &WeightModel, seed: u64) -> Self {
        Self {
            g: Dag::new(),
            rng: StdRng::seed_from_u64(seed),
            model: *model,
        }
    }

    /// Adds a task with freshly drawn weights.
    pub fn task(&mut self, label: &str) -> NodeId {
        let work = self.model.draw_work(&mut self.rng);
        let memory = self.model.draw_memory(&mut self.rng);
        let u = self.g.add_node(work, memory);
        self.g.set_label(u, Some(label));
        u
    }

    /// Adds an edge with a freshly drawn volume.
    pub fn edge(&mut self, a: NodeId, b: NodeId) {
        let v = self.model.draw_volume(&mut self.rng);
        self.g.add_edge(a, b, v);
    }

    /// Adds a chain of `len` tasks starting from `from`; returns the last
    /// node (or `from` when `len == 0`).
    pub fn chain_from(&mut self, from: NodeId, len: usize, label: &str) -> NodeId {
        let mut cur = from;
        for i in 0..len {
            let t = self.task(&format!("{label}_{i}"));
            self.edge(cur, t);
            cur = t;
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::cycles::is_cyclic;
    use dhp_dag::topo::topo_sort;

    #[test]
    fn all_families_generate_requested_sizes() {
        for family in Family::ALL {
            for &n in &[200usize, 1_000, 2_000] {
                let g = family.generate(n, &WeightModel::paper(), 42);
                let actual = g.node_count();
                let tol = (n as f64 * 0.05).ceil() as usize;
                assert!(
                    actual.abs_diff(n) <= tol,
                    "{}: requested {n}, got {actual}",
                    family.name()
                );
                assert!(!is_cyclic(&g), "{} produced a cycle", family.name());
            }
        }
    }

    #[test]
    fn all_families_single_source_single_target() {
        for family in Family::ALL {
            let g = family.generate(500, &WeightModel::paper(), 7);
            assert_eq!(
                g.sources().count(),
                1,
                "{} should have one source",
                family.name()
            );
            assert!(
                g.targets().count() >= 1,
                "{} should have targets",
                family.name()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for family in Family::ALL {
            let a = family.generate(300, &WeightModel::paper(), 5);
            let b = family.generate(300, &WeightModel::paper(), 5);
            assert_eq!(a.node_count(), b.node_count());
            assert_eq!(a.edge_count(), b.edge_count());
            assert_eq!(a.total_work(), b.total_work());
            assert_eq!(a.total_volume(), b.total_volume());
        }
    }

    #[test]
    fn seeds_differ() {
        let a = Family::Blast.generate(300, &WeightModel::paper(), 5);
        let b = Family::Blast.generate(300, &WeightModel::paper(), 6);
        assert_eq!(a.node_count(), b.node_count());
        assert_ne!(a.total_work(), b.total_work());
    }

    #[test]
    fn fanout_ranking_holds() {
        // Max antichain proxy: widest topological level.
        fn max_width(g: &Dag) -> usize {
            let lv = dhp_dag::topo::topo_levels(g).unwrap();
            let mut count = vec![0usize; lv.iter().max().map_or(0, |&m| m + 1)];
            for &l in &lv {
                count[l] += 1;
            }
            count.into_iter().max().unwrap_or(0)
        }
        let n = 1_000;
        let seismo = max_width(&Family::Seismology.generate(n, &WeightModel::paper(), 1));
        let blast = max_width(&Family::Blast.generate(n, &WeightModel::paper(), 1));
        let bwa = max_width(&Family::Bwa.generate(n, &WeightModel::paper(), 1));
        let epi = max_width(&Family::Epigenomics.generate(n, &WeightModel::paper(), 1));
        let soykb = max_width(&Family::Soykb.generate(n, &WeightModel::paper(), 1));
        assert!(seismo > epi && seismo > soykb);
        assert!(blast > epi && blast > soykb);
        assert!(bwa > epi && bwa > soykb);
    }

    #[test]
    fn parse_names() {
        assert_eq!(Family::parse("BLAST"), Some(Family::Blast));
        assert_eq!(Family::parse("soykb"), Some(Family::Soykb));
        assert_eq!(Family::parse("nope"), None);
    }

    #[test]
    fn generated_graphs_are_connected_enough() {
        // Every non-source task has a parent: no orphans.
        for family in Family::ALL {
            let g = family.generate(400, &WeightModel::paper(), 11);
            let order = topo_sort(&g).unwrap();
            assert_eq!(order.len(), g.node_count());
            let orphan = g
                .node_ids()
                .filter(|&u| g.in_degree(u) == 0 && g.out_degree(u) == 0)
                .count();
            assert_eq!(orphan, 0, "{} has isolated tasks", family.name());
        }
    }
}
