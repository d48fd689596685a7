//! Final mapping representation and validation.

use crate::blockmem::block_requirement;
use dhp_dag::{Dag, Partition, QuotientGraph};
use dhp_platform::{Cluster, ProcId};
use std::collections::HashSet;

/// A (possibly partial) solution to DAGP-PM: an acyclic partition plus a
/// block-to-processor assignment.
#[derive(Clone, Debug)]
pub struct Mapping {
    /// The partition `F` of the workflow's tasks.
    pub partition: Partition,
    /// `proc_of_block[i]` = processor of block `i` (dense block ids as in
    /// `partition`), or `None` for unassigned blocks (only valid
    /// intermediate states; final mappings assign every block).
    pub proc_of_block: Vec<Option<ProcId>>,
}

impl Mapping {
    /// True if every block is assigned to a processor.
    pub fn is_complete(&self) -> bool {
        self.proc_of_block.iter().all(Option::is_some)
    }

    /// Number of blocks `k'`.
    pub fn num_blocks(&self) -> usize {
        self.partition.num_blocks()
    }

    /// Number of distinct processors in use.
    pub fn procs_used(&self) -> usize {
        self.proc_of_block
            .iter()
            .flatten()
            .collect::<HashSet<_>>()
            .len()
    }
}

/// Reasons a mapping is invalid.
#[derive(Clone, Debug, PartialEq)]
pub enum MappingError {
    /// Partition does not cover the graph / block table mismatch / a
    /// processor id outside the cluster.
    Malformed,
    /// The quotient graph contains a cycle.
    CyclicQuotient,
    /// A block is not assigned to any processor.
    Unassigned {
        /// Index of the unassigned block.
        block: usize,
    },
    /// Two blocks share a processor.
    DuplicateProcessor {
        /// The doubly-used processor.
        proc: ProcId,
    },
    /// A block's memory requirement exceeds its processor's memory.
    MemoryExceeded {
        /// Block index.
        block: usize,
        /// Requirement `r`.
        req: f64,
        /// Processor capacity `M`.
        capacity: f64,
    },
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::Malformed => write!(f, "malformed mapping"),
            MappingError::CyclicQuotient => write!(f, "quotient graph is cyclic"),
            MappingError::Unassigned { block } => {
                write!(f, "block {block} has no processor")
            }
            MappingError::DuplicateProcessor { proc } => {
                write!(f, "processor {proc} used by two blocks")
            }
            MappingError::MemoryExceeded {
                block,
                req,
                capacity,
            } => write!(
                f,
                "block {block} needs {req} memory but its processor has {capacity}"
            ),
        }
    }
}

impl std::error::Error for MappingError {}

/// Validates all DAGP-PM constraints: complete assignment, distinct
/// processors, acyclic quotient, and the memory constraint
/// `r_{V_i} ≤ M_{proc(V_i)}` (requirements are recomputed from scratch —
/// this is the ground-truth check used by the test suites).
pub fn validate(g: &Dag, cluster: &Cluster, mapping: &Mapping) -> Result<(), MappingError> {
    if mapping.partition.len() != g.node_count()
        || mapping.proc_of_block.len() != mapping.partition.num_blocks()
        || !mapping.partition.validate(g)
    {
        return Err(MappingError::Malformed);
    }
    let q = QuotientGraph::build(g, &mapping.partition);
    if !q.is_acyclic() {
        return Err(MappingError::CyclicQuotient);
    }
    let mut used = HashSet::new();
    for (i, p) in mapping.proc_of_block.iter().enumerate() {
        match p {
            None => return Err(MappingError::Unassigned { block: i }),
            Some(p) => {
                if !used.insert(*p) {
                    return Err(MappingError::DuplicateProcessor { proc: *p });
                }
                if p.idx() >= cluster.len() {
                    return Err(MappingError::Malformed);
                }
                let req = block_requirement(g, &q.members[i]);
                let capacity = cluster.memory(*p);
                if req > capacity * (1.0 + 1e-9) {
                    return Err(MappingError::MemoryExceeded {
                        block: i,
                        req,
                        capacity,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;
    use dhp_platform::Processor;

    fn tiny_cluster() -> Cluster {
        Cluster::new(
            vec![
                Processor::new("big", 1.0, 1000.0),
                Processor::new("small", 2.0, 10.0),
            ],
            1.0,
        )
    }

    #[test]
    fn valid_single_block_mapping() {
        let g = builder::chain(4, 1.0, 2.0, 1.0);
        let mapping = Mapping {
            partition: Partition::single_block(4),
            proc_of_block: vec![Some(ProcId(0))],
        };
        assert!(validate(&g, &tiny_cluster(), &mapping).is_ok());
        assert!(mapping.is_complete());
        assert_eq!(mapping.procs_used(), 1);
    }

    #[test]
    fn memory_violation_detected() {
        let g = builder::chain(4, 1.0, 50.0, 1.0);
        let mapping = Mapping {
            partition: Partition::single_block(4),
            proc_of_block: vec![Some(ProcId(1))], // 10 memory, needs ~52
        };
        match validate(&g, &tiny_cluster(), &mapping) {
            Err(MappingError::MemoryExceeded { .. }) => {}
            other => panic!("expected MemoryExceeded, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_processor_detected() {
        let g = builder::chain(4, 1.0, 1.0, 1.0);
        let mapping = Mapping {
            partition: Partition::from_raw(&[0, 0, 1, 1]),
            proc_of_block: vec![Some(ProcId(0)), Some(ProcId(0))],
        };
        assert_eq!(
            validate(&g, &tiny_cluster(), &mapping),
            Err(MappingError::DuplicateProcessor { proc: ProcId(0) })
        );
    }

    #[test]
    fn unassigned_detected() {
        let g = builder::chain(2, 1.0, 1.0, 1.0);
        let mapping = Mapping {
            partition: Partition::from_raw(&[0, 1]),
            proc_of_block: vec![Some(ProcId(0)), None],
        };
        assert_eq!(
            validate(&g, &tiny_cluster(), &mapping),
            Err(MappingError::Unassigned { block: 1 })
        );
    }

    #[test]
    fn processor_outside_the_cluster_is_malformed() {
        let g = builder::chain(2, 1.0, 1.0, 1.0);
        let cluster = tiny_cluster();
        let mapping = Mapping {
            partition: Partition::from_raw(&[0, 1]),
            proc_of_block: vec![Some(ProcId(0)), Some(ProcId(cluster.len() as u32))],
        };
        assert_eq!(
            validate(&g, &cluster, &mapping),
            Err(MappingError::Malformed)
        );
    }

    #[test]
    fn cyclic_quotient_detected() {
        // diamond split so that the quotient is cyclic:
        // 0->1, 0->2, 1->3, 2->3 with blocks {0,3} and {1,2}
        let mut g = Dag::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(1.0, 1.0)).collect();
        g.add_edge(n[0], n[1], 1.0);
        g.add_edge(n[0], n[2], 1.0);
        g.add_edge(n[1], n[3], 1.0);
        g.add_edge(n[2], n[3], 1.0);
        let mapping = Mapping {
            partition: Partition::from_raw(&[0, 1, 1, 0]),
            proc_of_block: vec![Some(ProcId(0)), Some(ProcId(1))],
        };
        assert_eq!(
            validate(&g, &tiny_cluster(), &mapping),
            Err(MappingError::CyclicQuotient)
        );
    }
}
