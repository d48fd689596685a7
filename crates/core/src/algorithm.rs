//! The choice between the paper's two heuristics, and the one place that
//! runs the chosen one.

use crate::baseline::dag_het_mem;
use crate::daghetpart::{dag_het_part, DagHetPartConfig};
use crate::makespan::makespan_of_mapping;
use crate::metrics::MappingResult;
use crate::SchedError;
use dhp_dag::Dag;
use dhp_platform::Cluster;

/// Which heuristic to run. Ordered as declared: the order solve-cache
/// snapshots sort keys in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// The four-step partitioning heuristic (paper §4.2).
    DagHetPart,
    /// The memory-traversal baseline (paper §4.1).
    DagHetMem,
}

impl Algorithm {
    /// Display name as used by the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::DagHetPart => "daghetpart",
            Algorithm::DagHetMem => "daghetmem",
        }
    }

    /// Parses a CLI algorithm name.
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s {
            "daghetpart" => Some(Algorithm::DagHetPart),
            "daghetmem" => Some(Algorithm::DagHetMem),
            _ => None,
        }
    }

    /// Runs this heuristic on `cluster`, in its processor ids. `cfg` is
    /// DagHetPart's settings; DagHetMem ignores it and is priced with
    /// [`makespan_of_mapping`], its `k'` being its block count.
    /// `Err(SchedError::NoSolution)` means the cluster cannot hold `g`.
    pub fn solve(
        self,
        g: &Dag,
        cluster: &Cluster,
        cfg: &DagHetPartConfig,
    ) -> Result<MappingResult, SchedError> {
        match self {
            Algorithm::DagHetPart => dag_het_part(g, cluster, cfg),
            Algorithm::DagHetMem => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "`MappingResult::elapsed` reports solver wall time; no decision reads it"
                )]
                let start = std::time::Instant::now();
                let mapping = dag_het_mem(g, cluster)?;
                let makespan = makespan_of_mapping(g, cluster, &mapping);
                let kprime = mapping.num_blocks();
                Ok(MappingResult {
                    mapping,
                    makespan,
                    kprime,
                    elapsed: start.elapsed(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitting::scale_cluster_with_headroom;
    use dhp_platform::configs::{self, ClusterKind, ClusterSize};
    use dhp_wfgen::{Family, WorkflowInstance};

    #[test]
    fn algorithm_names_roundtrip() {
        for algo in [Algorithm::DagHetPart, Algorithm::DagHetMem] {
            assert_eq!(Algorithm::parse(algo.name()), Some(algo));
        }
        assert_eq!(Algorithm::parse("heft"), None);
    }

    /// `solve` runs exactly the heuristic it names: on generated
    /// workflows of every family, on a roomy and on a tight cluster,
    /// DagHetMem's answer is `dag_het_mem` priced by
    /// `makespan_of_mapping` and DagHetPart's is `dag_het_part`'s, bit
    /// for bit, `NoSolution` included.
    #[test]
    fn solve_is_the_named_heuristic_bit_for_bit() {
        let cfg = DagHetPartConfig::default();
        let small = configs::cluster(ClusterKind::Default, ClusterSize::Small);
        let mut solved = 0;
        for (i, family) in Family::ALL.into_iter().enumerate() {
            for (tasks, base) in [(40, configs::default_cluster()), (120, small.clone())] {
                let g = WorkflowInstance::simulated(family, tasks, 7 + i as u64).graph;
                let cluster = scale_cluster_with_headroom(&g, &base, 1.05);
                let mem = dag_het_mem(&g, &cluster)
                    .map(|m| (makespan_of_mapping(&g, &cluster, &m).to_bits(), m));
                let part = dag_het_part(&g, &cluster, &cfg).map(|r| (r.makespan.to_bits(), r));
                let got_mem = Algorithm::DagHetMem.solve(&g, &cluster, &cfg);
                let got_part = Algorithm::DagHetPart.solve(&g, &cluster, &cfg);
                let what = format!("{}-{tasks}", family.name());
                match (mem, got_mem) {
                    (Ok((bits, m)), Ok(got)) => {
                        assert_eq!(got.makespan.to_bits(), bits, "{what}");
                        assert_eq!(got.kprime, m.num_blocks(), "{what}");
                        assert_eq!(got.mapping.partition, m.partition, "{what}");
                        assert_eq!(got.mapping.proc_of_block, m.proc_of_block, "{what}");
                        solved += 1;
                    }
                    (Err(want), Err(got)) => assert_eq!(got, want, "{what}"),
                    (want, got) => panic!("{what}: {:?} vs {:?}", want.err(), got.err()),
                }
                match (part, got_part) {
                    (Ok((bits, want)), Ok(got)) => {
                        assert_eq!(got.makespan.to_bits(), bits, "{what}");
                        assert_eq!(got.kprime, want.kprime, "{what}");
                        assert_eq!(got.mapping.partition, want.mapping.partition, "{what}");
                        let procs = (&got.mapping.proc_of_block, &want.mapping.proc_of_block);
                        assert_eq!(procs.0, procs.1, "{what}");
                    }
                    (Err(want), Err(got)) => assert_eq!(got, want, "{what}"),
                    (want, got) => panic!("{what}: {:?} vs {:?}", want.err(), got.err()),
                }
            }
        }
        assert!(solved > 0, "no instance exercised a DagHetMem solution");
    }
}
