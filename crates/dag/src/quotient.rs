//! Partitions and quotient graphs.
//!
//! A [`Partition`] assigns every task a block number; the induced
//! [`QuotientGraph`] `Γ` has one vertex per block, vertex weight
//! `w_ν = Σ_{u∈V_i} w_u` and edge weight `c_{νi,νj} = Σ c_{u,v}` over all
//! crossing edges (paper §3.3). The scheduler only accepts partitions
//! whose quotient graph is acyclic.

use crate::graph::{Dag, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a block within a partition (dense index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A partitioning function `F : V -> blocks` with dense block numbering.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// `assignment[u] = block of task u`.
    assignment: Vec<BlockId>,
    /// Number of blocks (blocks are `0..num_blocks`).
    num_blocks: usize,
}

impl Partition {
    /// Builds a partition from a raw per-node block array.
    ///
    /// Block numbers may be sparse; they are renumbered densely in order
    /// of first appearance.
    pub fn from_raw(raw: &[u32]) -> Self {
        let slots = raw.iter().max().map_or(0, |&b| b as usize + 1);
        if slots <= 2 * raw.len() + 1024 {
            return Self::renumber(raw, slots);
        }
        // Too sparse for a slot per number: rank the numbers first.
        let mut used = raw.to_vec();
        used.sort_unstable();
        used.dedup();
        let ranks: Vec<u32> = raw
            .iter()
            .map(|&b| used.partition_point(|&x| x < b) as u32)
            .collect();
        Self::renumber(&ranks, used.len())
    }

    /// [`Partition::from_raw`] of block numbers below `slots`, through
    /// one table slot per number.
    fn renumber(raw: &[u32], slots: usize) -> Self {
        let mut dense = vec![u32::MAX; slots];
        let mut num_blocks = 0;
        let assignment = raw
            .iter()
            .map(|&b| {
                let slot = &mut dense[b as usize];
                if *slot == u32::MAX {
                    *slot = num_blocks;
                    num_blocks += 1;
                }
                BlockId(*slot)
            })
            .collect();
        Self {
            assignment,
            num_blocks: num_blocks as usize,
        }
    }

    /// The trivial partition placing every task in one block.
    pub fn single_block(n: usize) -> Self {
        Self {
            assignment: vec![BlockId(0); n],
            num_blocks: if n == 0 { 0 } else { 1 },
        }
    }

    /// Number of tasks covered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when covering no tasks.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of blocks `k'`.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Block of task `u`.
    #[inline]
    pub fn block_of(&self, u: NodeId) -> BlockId {
        self.assignment[u.idx()]
    }

    /// Members of every block, in ascending task order.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.num_blocks];
        for (i, &b) in self.assignment.iter().enumerate() {
            out[b.idx()].push(NodeId(i as u32));
        }
        out
    }

    /// Members of a single block.
    pub fn block_members(&self, b: BlockId) -> Vec<NodeId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &x)| x == b)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Reassigns every task of block `from` into block `to` and compacts
    /// block numbering. Returns the new id of the merged block.
    pub fn merge_blocks(&mut self, from: BlockId, to: BlockId) -> BlockId {
        assert_ne!(from, to, "cannot merge a block into itself");
        for a in &mut self.assignment {
            if *a == from {
                *a = to;
            }
        }
        // Compact: shift every block numbered above `from` down by one.
        for a in &mut self.assignment {
            if a.0 > from.0 {
                a.0 -= 1;
            }
        }
        self.num_blocks -= 1;
        if to.0 > from.0 {
            BlockId(to.0 - 1)
        } else {
            to
        }
    }

    /// Replaces the tasks of block `b` according to `sub`: task `u` of the
    /// block moves to a brand-new block numbered `num_blocks + sub(u)` and
    /// numbering is recompacted. Used when `FitBlock` re-partitions an
    /// oversized block. Returns the ids of the newly created blocks.
    pub fn split_block(&mut self, b: BlockId, members: &[NodeId], sub: &[u32]) -> Vec<BlockId> {
        assert_eq!(members.len(), sub.len());
        let base = self.num_blocks as u32;
        let mut used: Vec<u32> = sub.to_vec();
        used.sort_unstable();
        used.dedup();
        let remap: HashMap<u32, u32> = used
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, base + i as u32))
            .collect();
        for (&u, &s) in members.iter().zip(sub) {
            debug_assert_eq!(self.assignment[u.idx()], b);
            self.assignment[u.idx()] = BlockId(remap[&s]);
        }
        self.num_blocks += used.len();
        // Old block b is now empty: compact it away.
        for a in &mut self.assignment {
            if a.0 > b.0 {
                a.0 -= 1;
            }
        }
        self.num_blocks -= 1;
        (0..used.len() as u32)
            .map(|i| BlockId(base + i - 1))
            .collect()
    }

    /// Validates that the partition covers `g` exactly and block ids are
    /// dense.
    pub fn validate(&self, g: &Dag) -> bool {
        if self.assignment.len() != g.node_count() {
            return false;
        }
        let mut seen = vec![false; self.num_blocks];
        for b in &self.assignment {
            if b.idx() >= self.num_blocks {
                return false;
            }
            seen[b.idx()] = true;
        }
        seen.iter().all(|&s| s)
    }
}

/// The quotient graph `Γ` of a partition, plus bookkeeping to map between
/// blocks and quotient nodes (they coincide: block `i` is node `i`).
#[derive(Clone, Debug)]
pub struct QuotientGraph {
    /// The quotient DAG; node weights carry summed work and memory,
    /// edge weights summed crossing volume.
    pub graph: Dag,
    /// Members of each block, ascending.
    pub members: Vec<Vec<NodeId>>,
}

impl QuotientGraph {
    /// Builds the quotient graph of `partition` over `g`.
    ///
    /// Parallel crossing edges between two blocks are combined into one
    /// quotient edge with summed volume. Edges internal to a block are
    /// dropped. The result may be cyclic — callers must check
    /// [`QuotientGraph::is_acyclic`].
    pub fn build(g: &Dag, partition: &Partition) -> Self {
        assert_eq!(partition.len(), g.node_count());
        let k = partition.num_blocks();
        let mut graph = Dag::with_capacity(k, g.edge_count().min(k * k));
        let members = partition.members();
        for m in &members {
            let work: f64 = m.iter().map(|&u| g.node(u).work).sum();
            let memory: f64 = m.iter().map(|&u| g.node(u).memory).sum();
            graph.add_node(work, memory);
        }
        let mut combined: HashMap<(BlockId, BlockId), f64> = HashMap::new();
        for e in g.edge_ids() {
            let ed = g.edge(e);
            let (bs, bd) = (partition.block_of(ed.src), partition.block_of(ed.dst));
            if bs != bd {
                *combined.entry((bs, bd)).or_insert(0.0) += ed.volume;
            }
        }
        // Deterministic edge order.
        let mut pairs: Vec<_> = combined.into_iter().collect();
        pairs.sort_by_key(|&((a, b), _)| (a, b));
        for ((bs, bd), vol) in pairs {
            graph.add_edge(NodeId(bs.0), NodeId(bd.0), vol);
        }
        Self { graph, members }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.graph.node_count()
    }

    /// True if the quotient graph is a DAG (i.e. the partition is acyclic).
    pub fn is_acyclic(&self) -> bool {
        !crate::cycles::is_cyclic(&self.graph)
    }

    /// Total crossing volume (the edge cut of the partition).
    pub fn edge_cut(&self) -> f64 {
        self.graph.total_volume()
    }
}

/// Convenience: true iff `partition` induces an acyclic quotient graph.
pub fn is_acyclic_partition(g: &Dag, partition: &Partition) -> bool {
    QuotientGraph::build(g, partition).is_acyclic()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 9-task example of paper Fig. 1, reconstructed from the facts
    /// the paper states: task 1 is the only source, task 9 the only
    /// target, parents of task 6 are {3,4}, children of 6 are {7,8},
    /// merging tasks 4 and 9 creates a cycle via edges (4,6) and (8,9),
    /// and the quotient of the partition below has the weights given in
    /// §3.3 (all quotient edge costs 1 except c(ν1,ν3) = 2).
    fn paper_graph() -> Dag {
        let mut g = Dag::new();
        for _ in 0..9 {
            g.add_node(1.0, 1.0);
        }
        // 0-indexed edges (tasks 1..9 -> ids 0..8):
        // 1->2, 1->3, 1->4, 2->5, 3->6, 4->6, 5->7, 5->9, 6->7, 6->8,
        // 7->8, 8->9
        let e = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 4),
            (2, 5),
            (3, 5),
            (4, 6),
            (4, 8),
            (5, 6),
            (5, 7),
            (6, 7),
            (7, 8),
        ];
        for (a, b) in e {
            g.add_edge(NodeId(a), NodeId(b), 1.0);
        }
        g
    }

    /// Partition of Fig. 1: V1={1,2,3,4}, V2={5}, V3={6,7,8}, V4={9}.
    fn paper_partition() -> Partition {
        Partition::from_raw(&[0, 0, 0, 0, 1, 2, 2, 2, 3])
    }

    #[test]
    fn from_raw_renumbers_densely() {
        let p = Partition::from_raw(&[5, 5, 9, 2]);
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.block_of(NodeId(0)), BlockId(0));
        assert_eq!(p.block_of(NodeId(2)), BlockId(1));
        assert_eq!(p.block_of(NodeId(3)), BlockId(2));
    }

    /// The hashing renumbering [`Partition::from_raw`] replaced.
    fn reference_from_raw(raw: &[u32]) -> Partition {
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut assignment = Vec::with_capacity(raw.len());
        for &b in raw {
            let next = remap.len() as u32;
            let dense = *remap.entry(b).or_insert(next);
            assignment.push(BlockId(dense));
        }
        Partition {
            assignment,
            num_blocks: remap.len(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The slot table renumbers like the hash map did: on dense
        /// numbers, on numbers with gaps, and on numbers too sparse
        /// for a slot each (up to `u32::MAX`, ranked first).
        #[test]
        fn from_raw_equals_the_hashing_reference(
            raw in proptest::collection::vec(0u32..40, 0..200),
            spread in 0u32..4,
        ) {
            let raw: Vec<u32> = match spread {
                0 => raw,
                1 => raw.iter().map(|&b| b * 7 + 5).collect(),
                2 => raw.iter().map(|&b| b * 97).collect(),
                _ => raw.iter().map(|&b| u32::MAX - b * 0x0100_0001).collect(),
            };
            proptest::prop_assert_eq!(Partition::from_raw(&raw), reference_from_raw(&raw));
        }
    }

    #[test]
    fn paper_quotient_weights() {
        let g = paper_graph();
        let p = paper_partition();
        let q = QuotientGraph::build(&g, &p);
        assert!(q.is_acyclic());
        // Paper: w1=4, w2=1, w3=3, w4=1
        let works: Vec<f64> = q.graph.node_ids().map(|u| q.graph.node(u).work).collect();
        assert_eq!(works, vec![4.0, 1.0, 3.0, 1.0]);
        // Paper: all quotient edge costs 1 except c(v1,v3) = 2.
        let e13 = q.graph.edge_between(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(q.graph.edge(e13).volume, 2.0);
        let e12 = q.graph.edge_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(q.graph.edge(e12).volume, 1.0);
    }

    #[test]
    fn paper_cyclic_merge_detected() {
        // Merging tasks 4 and 9 (ids 3 and 8) makes the quotient cyclic
        // via edges (4,6) and (8,9) — paper §3.3.
        let g = paper_graph();
        let p = Partition::from_raw(&[0, 0, 0, 4, 1, 2, 2, 2, 4]);
        let q = QuotientGraph::build(&g, &p);
        assert!(!q.is_acyclic());
    }

    #[test]
    fn merge_blocks_compacts() {
        let mut p = Partition::from_raw(&[0, 1, 2, 3]);
        let merged = p.merge_blocks(BlockId(1), BlockId(3));
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.block_of(NodeId(1)), merged);
        assert_eq!(p.block_of(NodeId(3)), merged);
        assert!(p.validate(&{
            let mut g = Dag::new();
            for _ in 0..4 {
                g.add_node(1.0, 1.0);
            }
            g
        }));
    }

    #[test]
    fn split_block_creates_new_blocks() {
        let mut p = Partition::from_raw(&[0, 0, 0, 1]);
        let members = p.block_members(BlockId(0));
        let new = p.split_block(BlockId(0), &members, &[0, 1, 0]);
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(new.len(), 2);
        assert_eq!(p.block_of(NodeId(0)), p.block_of(NodeId(2)));
        assert_ne!(p.block_of(NodeId(0)), p.block_of(NodeId(1)));
        let mut g = Dag::new();
        for _ in 0..4 {
            g.add_node(1.0, 1.0);
        }
        assert!(p.validate(&g));
    }

    #[test]
    fn edge_cut_sums_crossing_volume() {
        let g = paper_graph();
        let p = paper_partition();
        let q = QuotientGraph::build(&g, &p);
        // Crossing edges in Fig.1: 2->5,3->6? recount: internal edges of
        // V1: (0,1),(0,2),(0,3); V3: (5,6),(5,7)... crossing:
        // (1,4),(2,5),(3,5),(4,6),(6,8),(7,8) -> 6 edges of volume 1.
        assert_eq!(q.edge_cut(), 6.0);
    }

    #[test]
    fn single_block_partition() {
        let g = paper_graph();
        let p = Partition::single_block(g.node_count());
        let q = QuotientGraph::build(&g, &p);
        assert_eq!(q.num_blocks(), 1);
        assert_eq!(q.edge_cut(), 0.0);
        assert!(q.is_acyclic());
        assert_eq!(q.graph.node(NodeId(0)).work, 9.0);
    }
}
