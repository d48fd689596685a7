//! Final mapping representation and validation.

use crate::blockmem::block_requirement;
use dhp_dag::{Dag, FlatQuotient, NodeId, Partition, PassScratch};
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

    /// The mapping of `blocks`, member lists that cover `0..n` once,
    /// each with its processor. Blocks are numbered by first appearance
    /// over task ids ([`Partition::from_raw`]), and every processor
    /// follows its block.
    pub(crate) fn from_blocks<'a>(
        n: usize,
        blocks: impl ExactSizeIterator<Item = (&'a [NodeId], Option<ProcId>)>,
    ) -> Self {
        let mut raw = vec![u32::MAX; n];
        let mut first_and_proc = Vec::with_capacity(blocks.len());
        for (b, (members, proc)) in blocks.enumerate() {
            for &u in members {
                raw[u.idx()] = b as u32;
            }
            first_and_proc.push((members[0], proc));
        }
        assert!(raw.iter().all(|&x| x != u32::MAX));
        let partition = Partition::from_raw(&raw);
        let mut proc_of_block = vec![None; first_and_proc.len()];
        for (first, proc) in first_and_proc {
            proc_of_block[partition.block_of(first).idx()] = proc;
        }
        Self {
            partition,
            proc_of_block,
        }
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
/// `r_{V_i} ≤ M_{proc(V_i)}` (up to a relative `1e-9`), requirements
/// recomputed from scratch — this is the ground-truth check used by
/// the test suites.
///
/// Bound first, kernel second: a block whose smallest-id-first
/// topological order already fits — a real order, and an upper bound
/// on `r` (`dhp_memdag::block_bounds`) — is accepted on that peak
/// alone; any other block gets the full kernel, so the verdict and a
/// [`MappingError::MemoryExceeded`]'s `req` are exactly what `r` gives.
pub fn validate(g: &Dag, cluster: &Cluster, mapping: &Mapping) -> Result<(), MappingError> {
    if mapping.partition.len() != g.node_count()
        || mapping.proc_of_block.len() != mapping.partition.num_blocks()
        || !mapping.partition.validate(g)
    {
        return Err(MappingError::Malformed);
    }
    let q = FlatQuotient::build(g, &mapping.partition);
    if !PassScratch::default().index(&q, cluster.bandwidth) {
        return Err(MappingError::CyclicQuotient);
    }
    let members = mapping.partition.members();
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
                let members = &members[i];
                let capacity = cluster.memory(*p);
                let req = match members.len() {
                    0 | 1 => block_requirement(g, members),
                    _ => {
                        let bounds = dhp_memdag::block_bounds(g, members);
                        if bounds.hi <= capacity * (1.0 + 1e-9) {
                            continue;
                        }
                        if bounds.is_exact() {
                            bounds.hi
                        } else {
                            block_requirement(g, members)
                        }
                    }
                };
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

    /// `validate` as it was before it tried the bound first: every
    /// block priced by the kernel.
    fn reference_validate(
        g: &Dag,
        cluster: &Cluster,
        mapping: &Mapping,
    ) -> Result<(), MappingError> {
        let members = mapping.partition.members();
        for (i, p) in mapping.proc_of_block.iter().enumerate() {
            let p = p.expect("complete mappings only");
            let req = block_requirement(g, &members[i]);
            let capacity = cluster.memory(p);
            if req > capacity * (1.0 + 1e-9) {
                return Err(MappingError::MemoryExceeded {
                    block: i,
                    req,
                    capacity,
                });
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Bound first, kernel second gives today's verdict and payload
        /// on capacities set exactly where the bound and the kernel part
        /// ways: at a block's requirement, between its bounds, at its
        /// topological peak, just below either.
        #[test]
        fn validate_equals_the_kernel_only_check(
            n in 8usize..60,
            blocks in 1usize..6,
            seed in proptest::strategy::any::<u64>(),
        ) {
            const DECIMALS: [f64; 4] = [0.1, 0.2, 0.3, 0.7];
            let mut g = builder::gnp_dag(n, (4.0 / n as f64).min(0.5), seed);
            let pick = |i: u64| DECIMALS[(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize % 4];
            for u in g.node_ids().collect::<Vec<_>>() {
                g.node_mut(u).memory = pick(seed ^ u.0 as u64);
            }
            for e in g.edge_ids().collect::<Vec<_>>() {
                g.edge_mut(e).volume = pick(seed.rotate_left(9) ^ e.0 as u64);
            }
            // Runs of a topological order: an acyclic quotient.
            let order = dhp_dag::topo::topo_sort(&g).unwrap();
            let mut raw = vec![0u32; n];
            for (i, &u) in order.iter().enumerate() {
                raw[u.idx()] = (i * blocks / n) as u32;
            }
            let partition = Partition::from_raw(&raw);
            let members = partition.members();
            let processors = (0..partition.num_blocks())
                .map(|b| {
                    let members = &members[b];
                    let bounds = dhp_memdag::block_bounds(&g, members);
                    let r = block_requirement(&g, members);
                    let spots = [r, 0.5 * (bounds.lo + bounds.hi), bounds.hi, bounds.lo];
                    let spot = spots[(seed >> (2 * b)) as usize % 4];
                    let capacity = match (seed >> (20 + b)) % 3 {
                        0 => spot,
                        1 => spot / (1.0 + 1e-9),
                        _ => spot * (1.0 - 1e-12),
                    };
                    Processor::new(format!("p{b}"), 1.0, capacity)
                })
                .collect();
            let cluster = Cluster::new(processors, 1.0);
            let mapping = Mapping {
                proc_of_block: (0..partition.num_blocks() as u32).map(|p| Some(ProcId(p))).collect(),
                partition,
            };
            proptest::prop_assert_eq!(
                validate(&g, &cluster, &mapping),
                reference_validate(&g, &cluster, &mapping)
            );
        }
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
