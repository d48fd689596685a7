//! Mutable block-set representation used while the heuristics run.
//!
//! [`dhp_dag::Partition`] is compact but renumbering-heavy under splits
//! and merges; the heuristics instead manipulate a [`BlockSet`]: an
//! explicit list of blocks, each with its member tasks, cached memory
//! requirement `r_{V_i}`, and (optional) processor assignment. A final
//! [`BlockSet::to_mapping`] produces the immutable result.

use crate::blockmem::{block_requirement, ReqMemo};
use dhp_dag::{Dag, NodeId, Partition};
use dhp_memdag::PeakBounds;
use dhp_platform::ProcId;

/// One block of the evolving partition.
#[derive(Clone, Debug)]
pub struct Block {
    /// Stable identity, preserved across index shuffles (merges create a
    /// fresh id). Used by the heuristics' bookkeeping (e.g. the
    /// reinsertion counters of Step 3).
    pub id: u64,
    /// Member tasks, ascending by id.
    pub members: Vec<NodeId>,
    /// Cached memory requirement `r` (peak of the best traversal
    /// found). Every block set a public function returns holds it to
    /// the bit. Inside a solve it may hold only an upper bound on `r`
    /// (`dhp_memdag::block_bounds`), beside a private lower bound.
    pub req: f64,
    /// Processor this block is mapped to, if any.
    pub proc: Option<ProcId>,
    /// Certified lower bound on `r`; the same bits as `req` once `req`
    /// is exact.
    lo: f64,
}

impl Block {
    /// What is known of `r`: `lo ≤ r ≤ req`.
    pub(crate) fn bounds(&self) -> PeakBounds {
        PeakBounds {
            lo: self.lo,
            hi: self.req,
        }
    }
}

/// The evolving set of blocks.
#[derive(Clone, Debug, Default)]
pub struct BlockSet {
    blocks: Vec<Block>,
    next_id: u64,
}

impl BlockSet {
    /// Builds a block set from a partition, computing every requirement.
    pub fn from_partition(g: &Dag, partition: &Partition) -> Self {
        Self::from_partition_with(partition, |members| {
            PeakBounds::exact(block_requirement(g, members))
        })
    }

    /// [`BlockSet::from_partition`] with only the bounds of each
    /// requirement, answered by the solve's memo.
    pub(crate) fn from_partition_memo(partition: &Partition, memo: &ReqMemo<'_>) -> Self {
        Self::from_partition_with(partition, |members| memo.bounds(members))
    }

    fn from_partition_with(partition: &Partition, req: impl Fn(&[NodeId]) -> PeakBounds) -> Self {
        let blocks: Vec<Block> = partition
            .members()
            .into_iter()
            .enumerate()
            .map(|(id, members)| {
                let req = req(&members);
                Block {
                    id: id as u64,
                    members,
                    req: req.hi,
                    proc: None,
                    lo: req.lo,
                }
            })
            .collect();
        let next_id = blocks.len() as u64;
        Self { blocks, next_id }
    }

    /// Index of the block with stable id `id`, if it still exists.
    pub fn index_of(&self, id: u64) -> Option<usize> {
        self.blocks.iter().position(|b| b.id == id)
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when no blocks exist.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Access a block.
    pub fn block(&self, i: usize) -> &Block {
        &self.blocks[i]
    }

    /// Iterate over blocks.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Assigns block `i` to a processor.
    pub fn assign(&mut self, i: usize, p: ProcId) {
        self.blocks[i].proc = Some(p);
    }

    /// Clears the assignment of block `i`.
    pub fn unassign(&mut self, i: usize) {
        self.blocks[i].proc = None;
    }

    /// The requirement of block `i`, resolved from its bounds by `memo`
    /// if it is not exact yet; the block keeps it.
    pub(crate) fn resolve(&mut self, i: usize, memo: &ReqMemo<'_>) -> f64 {
        let block = &mut self.blocks[i];
        let req = memo.resolve(&block.members, block.bounds());
        block.req = req;
        block.lo = req;
        req
    }

    /// Resolves every requirement: what a public function does before
    /// it returns a block set.
    pub(crate) fn resolve_all(&mut self, memo: &ReqMemo<'_>) {
        for i in 0..self.blocks.len() {
            self.resolve(i, memo);
        }
    }

    /// Adds a block (computing its requirement) and returns its index.
    pub fn push_block(&mut self, g: &Dag, members: Vec<NodeId>) -> usize {
        let req = block_requirement(g, &members);
        self.push_block_with_bounds(members, PeakBounds::exact(req))
    }

    /// Adds a block whose requirement's bounds the caller already holds
    /// (they must bound `block_requirement` of exactly `members`) and
    /// returns its index.
    pub(crate) fn push_block_with_bounds(
        &mut self,
        mut members: Vec<NodeId>,
        req: PeakBounds,
    ) -> usize {
        members.sort_unstable();
        let id = self.next_id;
        self.next_id += 1;
        self.blocks.push(Block {
            id,
            members,
            req: req.hi,
            proc: None,
            lo: req.lo,
        });
        self.blocks.len() - 1
    }

    /// Removes block `i` (swap-remove; the last block takes index `i`).
    pub fn remove_block(&mut self, i: usize) -> Block {
        self.blocks.swap_remove(i)
    }

    /// Replaces block `i` by the given member lists (used when `FitBlock`
    /// re-partitions an oversized block). Returns the indices of the new
    /// blocks.
    pub fn split_block(&mut self, g: &Dag, i: usize, parts: Vec<Vec<NodeId>>) -> Vec<usize> {
        assert!(!parts.is_empty());
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(
            total,
            self.blocks[i].members.len(),
            "split must cover block"
        );
        self.remove_block(i);
        parts
            .into_iter()
            .map(|members| self.push_block(g, members))
            .collect()
    }

    /// Merges the members of blocks `i` and `j` (and optionally `o`) into
    /// a single new block; the merged block inherits `proc`. Returns the
    /// new block's index.
    ///
    /// Indices other than the removed ones are invalidated only as
    /// documented by `remove_block` (swap-remove semantics), so callers
    /// must re-derive indices afterwards; the heuristics always rebuild
    /// their index maps after a merge.
    pub fn merge_blocks(
        &mut self,
        g: &Dag,
        i: usize,
        j: usize,
        o: Option<usize>,
        proc: Option<ProcId>,
    ) -> usize {
        let members: Vec<NodeId> = removal_order(i, j, o)
            .flat_map(|b| self.blocks[b].members.iter().copied())
            .collect();
        let req = block_requirement(g, &members);
        self.merge_blocks_with_bounds(i, j, o, proc, PeakBounds::exact(req))
    }

    /// [`BlockSet::merge_blocks`] for a caller that already holds the
    /// bounds of the merged block's requirement (Step 3 has just
    /// checked them against the processor's memory).
    pub(crate) fn merge_blocks_with_bounds(
        &mut self,
        i: usize,
        j: usize,
        o: Option<usize>,
        proc: Option<ProcId>,
        req: PeakBounds,
    ) -> usize {
        let len = removal_order(i, j, o)
            .map(|b| self.blocks[b].members.len())
            .sum();
        let mut members = Vec::with_capacity(len);
        for b in removal_order(i, j, o) {
            members.extend(self.remove_block(b).members);
        }
        let ni = self.push_block_with_bounds(members, req);
        self.blocks[ni].proc = proc;
        ni
    }

    /// Finalises into a [`crate::mapping::Mapping`].
    ///
    /// Block order is preserved: mapping block `i` corresponds to
    /// `self.block(i)`.
    pub fn to_mapping(&self, n: usize) -> crate::mapping::Mapping {
        crate::mapping::Mapping::from_blocks(
            n,
            self.blocks.iter().map(|b| (b.members.as_slice(), b.proc)),
        )
    }

    /// Indices of unassigned blocks.
    pub fn unassigned(&self) -> Vec<usize> {
        (0..self.blocks.len())
            .filter(|&i| self.blocks[i].proc.is_none())
            .collect()
    }

    /// Indices of assigned blocks.
    pub fn assigned(&self) -> Vec<usize> {
        (0..self.blocks.len())
            .filter(|&i| self.blocks[i].proc.is_some())
            .collect()
    }
}

/// The order in which a merge of blocks `i`, `j` (and `o`) swap-removes
/// them: highest index first, so the lower ones stay valid. Step 3
/// replays it on its own per-block tables.
pub(crate) fn removal_order(i: usize, j: usize, o: Option<usize>) -> impl Iterator<Item = usize> {
    let mut idx = [i, j, o.unwrap_or(i)];
    idx.sort_unstable_by(|a, b| b.cmp(a));
    assert!(idx[0] != idx[2], "merge needs at least two distinct blocks");
    (0..3)
        .filter(move |&k| k == 0 || idx[k - 1] != idx[k])
        .map(move |k| idx[k])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;

    #[test]
    fn roundtrip_partition() {
        let g = builder::gnp_dag_weighted(20, 0.2, 1);
        let order = dhp_dag::topo::topo_sort(&g).unwrap();
        let mut raw = vec![0u32; 20];
        for (i, &u) in order.iter().enumerate() {
            raw[u.idx()] = (i / 5) as u32;
        }
        let p = Partition::from_raw(&raw);
        let bs = BlockSet::from_partition(&g, &p);
        assert_eq!(bs.len(), 4);
        let p2 = bs.to_mapping(20).partition;
        assert_eq!(p2.num_blocks(), 4);
        // same grouping (up to renumbering): block of each node pair equal
        for a in g.node_ids() {
            for b in g.node_ids() {
                assert_eq!(
                    p.block_of(a) == p.block_of(b),
                    p2.block_of(a) == p2.block_of(b)
                );
            }
        }
    }

    #[test]
    fn split_and_merge_keep_cover() {
        let g = builder::gnp_dag_weighted(12, 0.2, 2);
        let p = Partition::single_block(12);
        let mut bs = BlockSet::from_partition(&g, &p);
        let members = bs.block(0).members.clone();
        let (a, b) = members.split_at(6);
        bs.split_block(&g, 0, vec![a.to_vec(), b.to_vec()]);
        assert_eq!(bs.len(), 2);
        bs.to_mapping(12); // must not panic (covers everything)
        let ni = bs.merge_blocks(&g, 0, 1, None, None);
        assert_eq!(bs.len(), 1);
        assert_eq!(bs.block(ni).members.len(), 12);
        bs.to_mapping(12);
    }

    #[test]
    fn merged_block_requirement_is_recomputed() {
        let g = builder::chain(4, 1.0, 5.0, 2.0);
        let raw = [0u32, 0, 1, 1];
        let mut bs = BlockSet::from_partition(&g, &Partition::from_raw(&raw));
        let r0 = bs.block(0).req;
        let ni = bs.merge_blocks(&g, 0, 1, None, None);
        assert!(bs.block(ni).req > 0.0);
        // merging removes the boundary edge from both blocks' boundaries
        assert!(bs.block(ni).req >= r0 - 1e-9);
    }

    #[test]
    fn to_mapping_aligns_procs() {
        let g = builder::chain(6, 1.0, 1.0, 1.0);
        let raw = [0u32, 0, 1, 1, 2, 2];
        let mut bs = BlockSet::from_partition(&g, &Partition::from_raw(&raw));
        bs.assign(1, ProcId(7));
        let m = bs.to_mapping(6);
        let b = m.partition.block_of(NodeId(2));
        assert_eq!(m.proc_of_block[b.idx()], Some(ProcId(7)));
        let b0 = m.partition.block_of(NodeId(0));
        assert_eq!(m.proc_of_block[b0.idx()], None);
    }
}
