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
    /// requirement, answered by the solve's memo: what
    /// [`BlockSet::from_raw_in`] builds, through a [`Partition`].
    #[cfg(test)]
    pub(crate) fn from_partition_memo(partition: &Partition, memo: &ReqMemo<'_>) -> Self {
        Self::from_partition_with(partition, |members| memo.bounds(members))
    }

    /// The Step-1 block set of the raw assignment `raw` (the part of
    /// every task, each below `raw.len()`), numbered as
    /// [`Partition::from_raw`] numbers its blocks, with the bounds of
    /// every requirement answered by the solve's memo: what the
    /// test-build `BlockSet::from_partition_memo` of that partition
    /// gives. Its
    /// member lists come from `pool` and its block list is `storage`;
    /// `dense` and `sizes` are scratch.
    pub(crate) fn from_raw_in(
        raw: &[u32],
        memo: &ReqMemo<'_>,
        pool: &mut MemberPool,
        mut storage: Vec<Block>,
        dense: &mut Vec<u32>,
        sizes: &mut Vec<usize>,
    ) -> Self {
        dense.clear();
        dense.resize(raw.len(), u32::MAX);
        sizes.clear();
        for &part in raw {
            let slot = &mut dense[part as usize];
            if *slot == u32::MAX {
                *slot = sizes.len() as u32;
                sizes.push(0);
            }
            sizes[*slot as usize] += 1;
        }
        storage.clear();
        storage.extend(sizes.iter().enumerate().map(|(id, &len)| Block {
            id: id as u64,
            members: pool.take(len),
            req: 0.0,
            proc: None,
            lo: 0.0,
        }));
        for (u, &part) in raw.iter().enumerate() {
            storage[dense[part as usize] as usize]
                .members
                .push(NodeId(u as u32));
        }
        for block in &mut storage {
            let req = memo.bounds(&block.members);
            (block.req, block.lo) = (req.hi, req.lo);
        }
        let next_id = storage.len() as u64;
        Self {
            blocks: storage,
            next_id,
        }
    }

    /// An empty block set on `storage` (cleared), numbering its blocks
    /// from 0 as [`BlockSet::default`] does.
    pub(crate) fn on_storage(mut storage: Vec<Block>) -> Self {
        storage.clear();
        Self {
            blocks: storage,
            next_id: 0,
        }
    }

    /// Takes the set apart: every member list goes back to `pool`, and
    /// the emptied block list is returned for the next set.
    pub(crate) fn recycle(mut self, pool: &mut MemberPool) -> Vec<Block> {
        for block in self.blocks.drain(..) {
            pool.give(block.members);
        }
        self.blocks
    }

    /// Moves every block out, in order, leaving the emptied block list.
    pub(crate) fn drain_into(mut self, mut each: impl FnMut(Block)) -> Vec<Block> {
        self.blocks.drain(..).for_each(&mut each);
        self.blocks
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
        self.merge_blocks_with_bounds(
            i,
            j,
            o,
            proc,
            PeakBounds::exact(req),
            &mut MemberPool::default(),
        )
    }

    /// [`BlockSet::merge_blocks`] for a caller that already holds the
    /// bounds of the merged block's requirement (Step 3 has just
    /// checked them against the processor's memory). The merged list
    /// comes from `pool`, and the merged blocks' lists go back to it.
    pub(crate) fn merge_blocks_with_bounds(
        &mut self,
        i: usize,
        j: usize,
        o: Option<usize>,
        proc: Option<ProcId>,
        req: PeakBounds,
        pool: &mut MemberPool,
    ) -> usize {
        let len = removal_order(i, j, o)
            .map(|b| self.blocks[b].members.len())
            .sum();
        let mut members = pool.take(len);
        for b in removal_order(i, j, o) {
            let merged = self.remove_block(b).members;
            members.extend_from_slice(&merged);
            pool.give(merged);
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

    /// Writes the indices of the unassigned blocks into `out`.
    pub(crate) fn unassigned_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.blocks.len()).filter(|&i| self.blocks[i].proc.is_none()));
    }

    /// Indices of unassigned blocks.
    pub fn unassigned(&self) -> Vec<usize> {
        (0..self.blocks.len())
            .filter(|&i| self.blocks[i].proc.is_none())
            .collect()
    }
}

/// Member lists of dropped blocks, kept for the next blocks of the
/// thread's attempts ([`crate::workspace`]), by size class: class `c`
/// holds lists with room for at least `2^c` members. A list is handed
/// out for a block of known size from the smallest class that holds
/// it and is never filled past that size, so it is never grown. An
/// attempt that repeats one the thread has made takes at most as many
/// lists of each class as were live at once the first time, and all of
/// those are back in the pool: it allocates none.
#[derive(Debug, Default)]
pub(crate) struct MemberPool(Vec<Vec<Vec<NodeId>>>);

impl MemberPool {
    /// An empty list with room for `len` members.
    pub(crate) fn take(&mut self, len: usize) -> Vec<NodeId> {
        let class = len.next_power_of_two().trailing_zeros() as usize;
        self.0
            .get_mut(class)
            .and_then(Vec::pop)
            .unwrap_or_else(|| Vec::with_capacity(1 << class))
    }

    /// [`MemberPool::take`] filled with `members`.
    pub(crate) fn copy_of(&mut self, members: &[NodeId]) -> Vec<NodeId> {
        let mut copy = self.take(members.len());
        copy.extend_from_slice(members);
        copy
    }

    /// Keeps `members` (cleared) for a later block; a list without room
    /// is dropped, which frees nothing.
    pub(crate) fn give(&mut self, mut members: Vec<NodeId>) {
        let Some(class) = members.capacity().checked_ilog2() else {
            return;
        };
        members.clear();
        let class = class as usize;
        if self.0.len() <= class {
            self.0.resize_with(class + 1, Vec::new);
        }
        self.0[class].push(members);
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
        let raw: Vec<u32> = (0..12).map(|u| u / 6).collect();
        let mut bs = BlockSet::from_partition(&g, &Partition::from_raw(&raw));
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

    /// Block sets built on reused lists — a pool and a block list that
    /// held blocks of other sets, of other sizes — equal the ones built
    /// through a [`Partition`]: the same blocks in the same order, with
    /// the same ids, members and bounds bits.
    #[test]
    fn pooled_block_sets_equal_the_partition_built_ones() {
        let g = builder::gnp_dag_weighted(90, 0.05, 7);
        let memo = ReqMemo::new(&g);
        let mut pool = MemberPool::default();
        let (mut storage, mut dense, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
        for seed in 0..40u64 {
            let k = 1 + (seed * 7) % 30;
            let raw: Vec<u32> = (0..90u64)
                .map(|u| ((u.wrapping_mul(2_654_435_761) ^ seed.wrapping_mul(40_503)) % k) as u32)
                .collect();
            let want = BlockSet::from_partition_memo(&Partition::from_raw(&raw), &memo);
            let got =
                BlockSet::from_raw_in(&raw, &memo, &mut pool, storage, &mut dense, &mut sizes);
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(want.iter()) {
                assert_eq!((a.id, &a.members, a.proc), (b.id, &b.members, b.proc));
                assert_eq!(a.req.to_bits(), b.req.to_bits());
                assert_eq!(a.lo.to_bits(), b.lo.to_bits());
            }
            assert_eq!(got.next_id, want.next_id);
            // The mapping of either, built from the block lists alone.
            let (m, w) = (got.to_mapping(90), want.to_mapping(90));
            assert_eq!(m.partition, Partition::from_raw(&raw));
            assert_eq!(
                (m.partition, m.proc_of_block),
                (w.partition, w.proc_of_block)
            );
            storage = got.recycle(&mut pool);
        }
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
