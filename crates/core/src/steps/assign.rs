//! Step 2: `BiggestAssign` and `FitBlock` (paper Algorithms 1 and 2).
//!
//! Blocks enter a max-priority queue keyed by their memory requirement;
//! processors queue up by decreasing memory. The largest block is fitted
//! onto the largest free processor; a block that does not fit is split in
//! two by the partitioner and its sub-blocks re-enter the queue. Once the
//! processors run out, remaining blocks are still split down to the
//! smallest processor's memory (without being mapped) so that Step 3 can
//! merge them somewhere feasible.
//!
//! Deviation guard: a single-task block that exceeds every relevant
//! memory cannot be split further (the paper's pseudocode would loop);
//! such blocks are left unassigned for Step 3 / the final failure check.

use crate::blockmem::ReqMemo;
use crate::blocks::BlockSet;
use dhp_dag::{Dag, NodeId};
use dhp_dagp::PartitionConfig;
use dhp_platform::{Cluster, ProcId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A queued block: max-heap by requirement, ties broken by insertion
/// sequence for determinism.
struct QueuedBlock {
    req: f64,
    seq: u64,
    members: Vec<NodeId>,
}

impl PartialEq for QueuedBlock {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueuedBlock {}
impl PartialOrd for QueuedBlock {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedBlock {
    fn cmp(&self, other: &Self) -> Ordering {
        self.req
            .total_cmp(&other.req)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Runs `BiggestAssign` on the Step-1 block set, returning the Step-2
/// block set: every mapped block fits its processor; unassigned blocks
/// (if any) have been split down to the smallest memory where possible.
pub fn biggest_assign(g: &Dag, cluster: &Cluster, bs: BlockSet, cfg: &PartitionConfig) -> BlockSet {
    biggest_assign_memo(g, cluster, bs, cfg, &ReqMemo::new(g))
}

/// [`biggest_assign`] with the sub-blocks' requirements answered by the
/// solve's memo. Every block leaves the queue with the requirement it
/// entered with, so nothing is computed twice on the way out either.
pub(crate) fn biggest_assign_memo(
    g: &Dag,
    cluster: &Cluster,
    bs: BlockSet,
    cfg: &PartitionConfig,
    memo: &ReqMemo<'_>,
) -> BlockSet {
    let mut seq = 0u64;
    let mut queue: BinaryHeap<QueuedBlock> = BinaryHeap::new();
    for b in bs.iter() {
        queue.push(QueuedBlock {
            req: b.req,
            seq,
            members: b.members.clone(),
        });
        seq += 1;
    }
    let mut split = |queue: &mut BinaryHeap<QueuedBlock>, members: &[NodeId]| {
        for part in split_in_two(g, members, cfg) {
            queue.push(QueuedBlock {
                req: memo.requirement(&part),
                seq,
                members: part,
            });
            seq += 1;
        }
    };

    let proc_order = cluster.ids_by_memory_desc();
    let mut free: std::collections::VecDeque<ProcId> = proc_order.into_iter().collect();

    let mut out = BlockSet::default();
    let mut leftover: Vec<QueuedBlock> = Vec::new();

    // Main loop: largest block onto largest free processor.
    while let Some(&proc) = free.front() {
        let Some(top) = queue.pop() else { break };
        if top.req <= cluster.memory(proc) {
            let i = out.push_block_with_req(top.members, top.req);
            out.assign(i, proc);
            free.pop_front();
        } else if top.members.len() == 1 {
            // Unsplittable and oversized for every remaining processor
            // (they only get smaller): park it for Step 3.
            leftover.push(top);
        } else {
            split(&mut queue, &top.members);
        }
    }

    // Processors exhausted: split remaining blocks down to the smallest
    // memory (FitBlock with doMap = false).
    let min_mem = cluster.min_memory();
    while let Some(top) = queue.pop() {
        if top.req <= min_mem || top.members.len() == 1 {
            leftover.push(top);
        } else {
            split(&mut queue, &top.members);
        }
    }

    for block in leftover {
        out.push_block_with_req(block.members, block.req);
    }
    out
}

/// `Partition(V_m, 2)`: bisects the block's induced sub-DAG; may return
/// more than two parts if the partitioner cannot balance otherwise
/// (mirroring dagP's behaviour noted in the paper).
fn split_in_two(g: &Dag, members: &[NodeId], cfg: &PartitionConfig) -> Vec<Vec<NodeId>> {
    debug_assert!(members.len() >= 2);
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    let (sub, back) = g.induced_subgraph(&sorted);
    let part = dhp_dagp::bisect(&sub, cfg);
    let mut parts: Vec<Vec<NodeId>> = vec![Vec::new(); part.num_blocks()];
    for u in sub.node_ids() {
        parts[part.block_of(u).idx()].push(back[u.idx()]);
    }
    parts.retain(|p| !p.is_empty());
    debug_assert!(parts.len() >= 2);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steps::partition::initial_blocks;
    use dhp_dag::builder;
    use dhp_dag::quotient::QuotientGraph;
    use dhp_platform::Processor;

    fn assert_step2_invariants(g: &Dag, cluster: &Cluster, bs: &BlockSet) {
        // 1. mapped blocks fit, 2. distinct processors, 3. acyclic quotient,
        // 4. cover preserved.
        let mut used = std::collections::HashSet::new();
        for b in bs.iter() {
            if let Some(p) = b.proc {
                assert!(b.req <= cluster.memory(p) * (1.0 + 1e-9));
                assert!(used.insert(p), "duplicate processor");
            }
        }
        let p = bs.to_partition(g.node_count());
        assert!(QuotientGraph::build(g, &p).is_acyclic());
    }

    #[test]
    fn assigns_when_memory_ample() {
        let g = builder::gnp_dag_weighted(60, 0.08, 1);
        // every processor holds the entire workflow: nothing may be left
        // unassigned
        let m = dhp_memdag::min_peak(&g) * 1.2;
        let cluster = Cluster::new(
            (0..36)
                .map(|i| Processor::new(format!("p{i}"), 1.0 + i as f64, m))
                .collect(),
            1.0,
        );
        let cfg = PartitionConfig::default();
        let bs = initial_blocks(&g, 6, &cfg);
        let out = biggest_assign(&g, &cluster, bs, &cfg);
        assert_step2_invariants(&g, &cluster, &out);
        assert!(out.unassigned().is_empty(), "default cluster is ample");
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn splits_oversized_blocks() {
        // File-heavy graph on a small-memory cluster forces splits: wide
        // layers with fat edges keep many files live at once.
        let g = builder::layered_random(6, 6, 0.1, (1.0, 10.0), (20.0, 40.0), (20.0, 40.0), 7);
        let cap = crate::fitting::max_task_requirement(&g) * 1.3;
        let cluster = Cluster::new(
            (0..12)
                .map(|i| Processor::new(format!("p{i}"), 1.0, cap))
                .collect(),
            1.0,
        );
        let cfg = PartitionConfig::default();
        let bs = initial_blocks(&g, 2, &cfg);
        let big_req = bs.iter().map(|b| b.req).fold(0.0f64, f64::max);
        assert!(big_req > cap, "test premise: initial blocks oversized");
        let out = biggest_assign(&g, &cluster, bs, &cfg);
        assert!(out.len() > 2, "blocks must have been split");
        assert_step2_invariants(&g, &cluster, &out);
    }

    #[test]
    fn leftover_blocks_stay_unassigned() {
        // More blocks than processors: the excess must remain unassigned
        // but split small enough for the (only) processor size.
        let g = builder::gnp_dag_weighted(40, 0.1, 3);
        let cluster = Cluster::new(vec![Processor::new("solo", 1.0, 250.0)], 1.0);
        let cfg = PartitionConfig::default();
        let bs = initial_blocks(&g, 4, &cfg);
        let out = biggest_assign(&g, &cluster, bs, &cfg);
        assert_step2_invariants(&g, &cluster, &out);
        assert!(out.assigned().len() <= 1);
        assert!(!out.unassigned().is_empty());
    }

    #[test]
    fn oversized_single_task_parked() {
        let mut g = Dag::new();
        let a = g.add_node(1.0, 500.0);
        let b = g.add_node(1.0, 1.0);
        g.add_edge(a, b, 1.0);
        let cluster = Cluster::new(vec![Processor::new("p", 1.0, 50.0)], 1.0);
        let cfg = PartitionConfig::default();
        let bs = BlockSet::from_partition(&g, &dhp_dag::Partition::single_block(2));
        let out = biggest_assign(&g, &cluster, bs, &cfg);
        // terminates (no infinite split loop) and leaves the giant task
        // unassigned
        assert!(out
            .iter()
            .any(|bl| bl.proc.is_none() && bl.members.contains(&a)));
    }
}
