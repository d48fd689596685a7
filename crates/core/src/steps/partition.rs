//! Step 1: initial acyclic partitioning with the dagP-style multilevel
//! partitioner.
//!
//! The driver tentatively partitions the DAG into `k'` blocks for every
//! `1 ≤ k' ≤ k` and keeps the best end-to-end makespan; this module
//! produces the single-`k'` starting [`BlockSet`]. Balance is on task
//! work (heterogeneity is deliberately ignored here — it is handled by
//! Steps 2–4).

use crate::blockmem::ReqMemo;
use crate::blocks::BlockSet;
use dhp_dag::{Dag, Partition};
use dhp_dagp::coarsen::Hierarchy;
use dhp_dagp::{BalanceWeight, PartitionConfig};

/// Produces the Step-1 block set with (at most) `k'` blocks, every
/// requirement exact.
pub fn initial_blocks(g: &Dag, k_prime: usize, cfg: &PartitionConfig) -> BlockSet {
    let memo = ReqMemo::new(g);
    let mut bs = Step1::coarsen(g, [k_prime], cfg).blocks(k_prime, &memo);
    bs.resolve_all(&memo);
    bs
}

/// What Step 1 computes once for all the `k'` of a solve: the
/// coarsening hierarchy of the workflow. The partitioner coarsens the
/// same way whatever the block count and only stops earlier for a
/// larger one, so the hierarchy for the smallest `k'` holds the levels
/// of every other.
#[derive(Debug)]
pub(crate) struct Step1 {
    cfg: PartitionConfig,
    tasks: usize,
    /// `None` when no `k'` has two blocks or more: nothing to coarsen.
    hierarchy: Option<Hierarchy>,
}

impl Step1 {
    /// Coarsens `g` for the block counts `k_primes`.
    pub(crate) fn coarsen(
        g: &Dag,
        k_primes: impl IntoIterator<Item = usize>,
        cfg: &PartitionConfig,
    ) -> Self {
        let cfg = PartitionConfig {
            balance: BalanceWeight::Work,
            ..cfg.clone()
        };
        let smallest = k_primes.into_iter().filter(|&k| k >= 2).min();
        Self {
            hierarchy: smallest.map(|k| dhp_dagp::coarsen_for(g, k, &cfg)),
            tasks: g.node_count(),
            cfg,
        }
    }

    /// The Step-1 block set for `k_prime`, one of the block counts this
    /// was coarsened for, with the bounds of the block requirements
    /// answered by the solve's memo (neighbouring `k'` share many
    /// Step-1 blocks).
    pub(crate) fn blocks(&self, k_prime: usize, memo: &ReqMemo<'_>) -> BlockSet {
        let partition = match &self.hierarchy {
            Some(hierarchy) => dhp_dagp::partition_on(hierarchy, k_prime, &self.cfg),
            None => Partition::single_block(self.tasks),
        };
        BlockSet::from_partition_memo(&partition, memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;
    use dhp_dag::quotient::is_acyclic_partition;

    #[test]
    fn produces_k_blocks_with_acyclic_quotient() {
        let g = builder::gnp_dag_weighted(80, 0.08, 4);
        for k in [1usize, 3, 7] {
            let bs = initial_blocks(&g, k, &PartitionConfig::default());
            assert_eq!(bs.len(), k);
            let p = bs.to_mapping(80).partition;
            assert!(is_acyclic_partition(&g, &p));
            // requirements are cached and positive
            assert!(bs.iter().all(|b| b.req > 0.0));
        }
    }
}
