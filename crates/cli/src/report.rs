//! JSON report emitted by `daghetpart schedule`.

use dhp_core::Mapping;
use dhp_dag::{Dag, NodeId};
use dhp_platform::Cluster;
use serde::{Deserialize, Serialize};

/// One block of the final mapping.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BlockReport {
    /// Dense block index.
    pub block: usize,
    /// Index of the processor the block runs on.
    pub processor: usize,
    /// Machine-kind label of that processor.
    pub processor_kind: String,
    /// Processor speed.
    pub speed: f64,
    /// Processor memory capacity `M`.
    pub memory_capacity: f64,
    /// Block memory requirement `r` (peak over its best traversal).
    pub memory_requirement: f64,
    /// Total work of the block.
    pub work: f64,
    /// Tasks in the block (labels where present, else indices).
    pub tasks: Vec<String>,
}

/// The whole schedule report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScheduleReport {
    /// Workflow name.
    pub workflow: String,
    /// Algorithm that produced the mapping.
    pub algorithm: String,
    /// Number of tasks.
    pub tasks: usize,
    /// Number of blocks `k'`.
    pub blocks: usize,
    /// Processors available.
    pub processors: usize,
    /// Analytic makespan (paper Eq. (1)–(2)).
    pub makespan: f64,
    /// Discrete-event simulated makespan, when `--simulate` was given.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub simulated_makespan: Option<f64>,
    /// Per-block details.
    pub mapping: Vec<BlockReport>,
}

impl ScheduleReport {
    /// Builds the report from a validated mapping.
    pub fn new(
        name: &str,
        algorithm: &str,
        g: &Dag,
        cluster: &Cluster,
        mapping: &Mapping,
        makespan: f64,
    ) -> ScheduleReport {
        let members = mapping.partition.members();
        let blocks = members
            .iter()
            .enumerate()
            .map(|(i, tasks)| {
                let Some(p) = mapping.proc_of_block[i] else {
                    unreachable!(
                        "the mapping is validated, and `validate` rejects an incomplete one"
                    )
                };
                let proc = cluster.proc(p);
                BlockReport {
                    block: i,
                    processor: p.idx(),
                    processor_kind: proc.kind.clone(),
                    speed: proc.speed,
                    memory_capacity: proc.memory,
                    memory_requirement: dhp_core::blockmem::block_requirement(g, tasks),
                    work: tasks.iter().map(|&u| g.node(u).work).sum(),
                    tasks: tasks
                        .iter()
                        .map(|&u: &NodeId| {
                            g.label(u)
                                .map_or_else(|| format!("task{}", u.idx()), str::to_string)
                        })
                        .collect(),
                }
            })
            .collect();
        ScheduleReport {
            workflow: name.to_string(),
            algorithm: algorithm.to_string(),
            tasks: g.node_count(),
            blocks: mapping.num_blocks(),
            processors: cluster.len(),
            makespan,
            simulated_makespan: None,
            mapping: blocks,
        }
    }

    /// Pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_core::prelude::*;
    use dhp_platform::configs;

    #[test]
    fn report_is_complete_and_parses_back() {
        let g = dhp_dag::builder::fork_join(6, 10.0, 4.0, 2.0);
        let cluster = configs::default_cluster();
        let r = dag_het_part(&g, &cluster, &DagHetPartConfig::default()).unwrap();
        let report = ScheduleReport::new(
            "forkjoin",
            "daghetpart",
            &g,
            &cluster,
            &r.mapping,
            r.makespan,
        );
        assert_eq!(report.tasks, g.node_count());
        assert_eq!(report.blocks, r.mapping.num_blocks());
        let total_tasks: usize = report.mapping.iter().map(|b| b.tasks.len()).sum();
        assert_eq!(total_tasks, g.node_count());
        for b in &report.mapping {
            assert!(b.memory_requirement <= b.memory_capacity * (1.0 + 1e-9));
        }
        let back: ScheduleReport = serde_json::from_str(&report.to_json().unwrap()).unwrap();
        assert_eq!(back.makespan, report.makespan);
        assert_eq!(back.mapping.len(), report.mapping.len());
    }
}
