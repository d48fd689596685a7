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
use crate::workspace::Workspace;
use dhp_dag::Dag;
use dhp_dagp::coarsen::Hierarchy;
use dhp_dagp::{BalanceWeight, PartitionConfig, PartitionScratch};

/// Produces the Step-1 block set with (at most) `k'` blocks, every
/// requirement exact.
pub fn initial_blocks(g: &Dag, k_prime: usize, cfg: &PartitionConfig) -> BlockSet {
    let memo = ReqMemo::new(g);
    let mut bs = Step1::coarsen(g, [k_prime], cfg).blocks(k_prime, &memo);
    bs.resolve_all(&memo);
    bs
}

/// What Step 1 computes once for all the `k'` of a solve: the
/// coarsening hierarchy of the workflow ([`dhp_dagp::coarsen_for`]).
/// The partitioner coarsens the same way whatever the block count and
/// only stops earlier for a larger one, so the hierarchy for the
/// smallest `k'` holds the levels of every other. Its levels are views
/// and weights, not graphs: a workflow already at the coarsening target
/// of the smallest `k'` is one level, its view, and is not copied.
#[derive(Debug)]
pub(crate) struct Step1 {
    cfg: PartitionConfig,
    tasks: usize,
    /// `None` when no `k'` has two blocks or more: nothing to partition.
    levels: Option<Hierarchy>,
}

/// What Step 1 reuses from one attempt to the next.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    partition: PartitionScratch,
    /// Every task in part 0, for a solve with no `k'` above 1.
    whole: Vec<u32>,
    /// Dense block number per part, and the size of every block.
    dense: Vec<u32>,
    sizes: Vec<usize>,
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
            levels: smallest.map(|k| dhp_dagp::coarsen_for(g, k, &cfg)),
            tasks: g.node_count(),
            cfg,
        }
    }

    /// The Step-1 block set for `k_prime`, one of the block counts this
    /// was coarsened for, with the bounds of the block requirements
    /// answered by the solve's memo. Whether that memo saves anything
    /// here depends on the workflow. Over `k' = 1..=36` on the fitted
    /// default cluster (seed 17), epigenomics-60's 512 multi-task
    /// Step-1 blocks are 210 distinct sets. Blast-10000's 666 are 666
    /// distinct sets, and genome-10000's are 611.
    pub(crate) fn blocks(&self, k_prime: usize, memo: &ReqMemo<'_>) -> BlockSet {
        self.blocks_in(k_prime, memo, &mut Workspace::default())
    }

    /// [`Step1::blocks`] on `ws`: the partitioner's buffers, the block
    /// list and the member lists all come from it.
    pub(crate) fn blocks_in(
        &self,
        k_prime: usize,
        memo: &ReqMemo<'_>,
        ws: &mut Workspace,
    ) -> BlockSet {
        let Scratch {
            partition,
            whole,
            dense,
            sizes,
        } = &mut ws.step1;
        let raw = match &self.levels {
            Some(levels) => dhp_dagp::partition_on_into(levels, k_prime, &self.cfg, partition),
            None => {
                whole.clear();
                whole.resize(self.tasks, 0);
                whole
            }
        };
        let storage = std::mem::take(&mut ws.blocks);
        BlockSet::from_raw_in(raw, memo, &mut ws.pool, storage, dense, sizes)
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
