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
use dhp_dag::Dag;
use dhp_dagp::{BalanceWeight, PartitionConfig};

/// Produces the Step-1 block set with (at most) `k'` blocks.
pub fn initial_blocks(g: &Dag, k_prime: usize, cfg: &PartitionConfig) -> BlockSet {
    initial_blocks_memo(g, k_prime, cfg, &ReqMemo::new(g))
}

/// [`initial_blocks`] with the block requirements answered by the
/// solve's memo (neighbouring `k'` share many Step-1 blocks).
pub(crate) fn initial_blocks_memo(
    g: &Dag,
    k_prime: usize,
    cfg: &PartitionConfig,
    memo: &ReqMemo<'_>,
) -> BlockSet {
    let mut cfg = cfg.clone();
    cfg.balance = BalanceWeight::Work;
    let partition = dhp_dagp::partition(g, k_prime, &cfg);
    BlockSet::from_partition_memo(&partition, memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;
    use dhp_dag::quotient::QuotientGraph;

    #[test]
    fn produces_k_blocks_with_acyclic_quotient() {
        let g = builder::gnp_dag_weighted(80, 0.08, 4);
        for k in [1usize, 3, 7] {
            let bs = initial_blocks(&g, k, &PartitionConfig::default());
            assert_eq!(bs.len(), k);
            let p = bs.to_partition(80);
            assert!(QuotientGraph::build(&g, &p).is_acyclic());
            // requirements are cached and positive
            assert!(bs.iter().all(|b| b.req > 0.0));
        }
    }
}
