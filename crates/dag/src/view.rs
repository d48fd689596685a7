//! A block of a workflow as a flat view of the parent graph.
//!
//! The memory requirement of a block is a question about the sub-DAG
//! its members induce, asked thousands of times per solve on blocks of
//! a handful of tasks. [`BlockView`] answers "what does that sub-DAG
//! look like?" without building a [`Dag`]: the members get dense local
//! ids `0..n` in ascending parent id, their internal edges are written
//! in CSR form straight from the parent's adjacency lists, and every
//! edge that leaves the block is folded into the member's *external
//! load* in the same pass. The buffers belong to the view and are
//! refilled in place, so a view that has seen a block of this size
//! allocates nothing.
//!
//! **Edge order.** A [`Dag`] appends an edge to both adjacency lists
//! when it is added, so each list ascends by edge id. The induced
//! sub-DAG ([`Dag::induced_subgraph`]) adds the surviving edges in
//! ascending parent edge id, so *its* adjacency lists are the parent's,
//! filtered to members — exactly what a view stores, parallel edges
//! included. Every per-task sum over a view's edge slices therefore
//! adds the same numbers in the same order as the same sum on the
//! induced sub-DAG, and keeps its bits.

use crate::graph::{Dag, NodeId};
use crate::topo::kahn_min_id;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The sub-DAG induced by a member set (or a whole graph), flat.
///
/// Nodes are local ids `0..len()`; [`BlockView::members`] maps them back
/// to the parent's ids.
#[derive(Clone, Debug, Default)]
pub struct BlockView {
    /// Local id → parent id, ascending.
    members: Vec<NodeId>,
    /// Parent id → local id while a block is being filled; all
    /// `u32::MAX` between fills. Grows to the largest parent seen and
    /// is never reallocated for a smaller one.
    local: Vec<u32>,
    memory: Vec<f64>,
    ext: Vec<f64>,
    out_sum: Vec<f64>,
    in_sum: Vec<f64>,
    out_start: Vec<u32>,
    out_dst: Vec<u32>,
    out_vol: Vec<f64>,
    in_start: Vec<u32>,
    in_src: Vec<u32>,
    in_vol: Vec<f64>,
}

impl BlockView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Refills the view with the block `members` of `g` (any order).
    /// The external load of a member is the total volume of its edges
    /// to and from tasks outside the block.
    ///
    /// # Panics
    /// Panics if a member is listed twice or is not a node of `g`.
    pub fn fill_block(&mut self, g: &Dag, members: &[NodeId]) {
        self.members.clear();
        self.members.extend_from_slice(members);
        self.members.sort_unstable();
        // Checked before the id table is touched, so a refused block
        // leaves it all-clear.
        assert!(
            self.members.windows(2).all(|w| w[0] < w[1]),
            "duplicate member in block"
        );
        assert!(
            self.members.last().is_none_or(|u| u.idx() < g.node_count()),
            "block member out of bounds"
        );
        if self.local.len() < g.node_count() {
            self.local.resize(g.node_count(), u32::MAX);
        }
        for (i, &u) in self.members.iter().enumerate() {
            self.local[u.idx()] = i as u32;
        }
        let local = std::mem::take(&mut self.local);
        self.fill_edges(g, 0, |v| local[v.idx()]);
        self.local = local;
        for &u in &self.members {
            self.local[u.idx()] = u32::MAX;
        }
    }

    /// Refills the view with all of `g`: local ids are `g`'s ids and
    /// every external load is zero (see [`BlockView::set_ext`]).
    pub fn fill_graph(&mut self, g: &Dag) {
        self.members.clear();
        self.members.extend(g.node_ids());
        self.fill_edges(g, g.edge_count(), |v| v.0);
    }

    /// Writes the per-member tables for `self.members`; `local(v)` is
    /// the local id of parent node `v`, `u32::MAX` outside the block.
    /// `edges` is how many internal edges to make room for up front (a
    /// fresh view of a whole graph then allocates each table once).
    fn fill_edges(&mut self, g: &Dag, edges: usize, local: impl Fn(NodeId) -> u32) {
        let n = self.members.len();
        for (table, len) in [
            (&mut self.memory, n),
            (&mut self.ext, n),
            (&mut self.out_sum, n),
            (&mut self.in_sum, n),
            (&mut self.out_vol, edges),
            (&mut self.in_vol, edges),
        ] {
            table.clear();
            table.reserve(len);
        }
        for (table, len) in [
            (&mut self.out_dst, edges),
            (&mut self.in_src, edges),
            (&mut self.out_start, n + 1),
            (&mut self.in_start, n + 1),
        ] {
            table.clear();
            table.reserve(len);
        }
        self.out_start.push(0);
        self.in_start.push(0);
        for &u in &self.members {
            // Boundary inputs before boundary outputs, internal sums
            // from +0.0 in adjacency order: the order and the start the
            // induced sub-DAG's consumers used.
            let (mut boundary, mut inputs, mut outputs) = (0.0f64, 0.0f64, 0.0f64);
            debug_assert!(g.in_edges(u).is_sorted() && g.out_edges(u).is_sorted());
            for &e in g.in_edges(u) {
                let e = g.edge(e);
                match local(e.src) {
                    u32::MAX => boundary += e.volume,
                    src => {
                        self.in_src.push(src);
                        self.in_vol.push(e.volume);
                        inputs += e.volume;
                    }
                }
            }
            for &e in g.out_edges(u) {
                let e = g.edge(e);
                match local(e.dst) {
                    u32::MAX => boundary += e.volume,
                    dst => {
                        self.out_dst.push(dst);
                        self.out_vol.push(e.volume);
                        outputs += e.volume;
                    }
                }
            }
            self.in_start.push(self.in_src.len() as u32);
            self.out_start.push(self.out_dst.len() as u32);
            self.memory.push(g.node(u).memory);
            self.ext.push(boundary);
            self.in_sum.push(inputs);
            self.out_sum.push(outputs);
        }
    }

    /// Replaces the external loads (`ext[u]` for local id `u`).
    ///
    /// # Panics
    /// Panics if `ext.len() != self.len()`.
    pub fn set_ext(&mut self, ext: &[f64]) {
        self.ext.copy_from_slice(ext);
    }

    /// Number of tasks in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the view holds no task.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Local id → id in the parent graph, ascending.
    #[inline]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Working memory `m_u` of local task `u`.
    #[inline]
    pub fn memory(&self, u: u32) -> f64 {
        self.memory[u as usize]
    }

    /// External load of local task `u`.
    #[inline]
    pub fn ext(&self, u: u32) -> f64 {
        self.ext[u as usize]
    }

    /// Total volume of `u`'s edges to tasks of the view.
    #[inline]
    pub fn out_sum(&self, u: u32) -> f64 {
        self.out_sum[u as usize]
    }

    /// Total volume of `u`'s edges from tasks of the view.
    #[inline]
    pub fn in_sum(&self, u: u32) -> f64 {
        self.in_sum[u as usize]
    }

    /// Targets of `u`'s internal out-edges, one entry per edge.
    #[inline]
    pub fn children(&self, u: u32) -> &[u32] {
        &self.out_dst[self.out_range(u)]
    }

    /// Sources of `u`'s internal in-edges, one entry per edge.
    #[inline]
    pub fn parents(&self, u: u32) -> &[u32] {
        &self.in_src[self.in_range(u)]
    }

    /// `(target, volume)` of `u`'s internal out-edges.
    #[inline]
    pub fn out_edges(&self, u: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let r = self.out_range(u);
        self.out_dst[r.clone()]
            .iter()
            .copied()
            .zip(self.out_vol[r].iter().copied())
    }

    /// `(source, volume)` of `u`'s internal in-edges.
    #[inline]
    pub fn in_edges(&self, u: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let r = self.in_range(u);
        self.in_src[r.clone()]
            .iter()
            .copied()
            .zip(self.in_vol[r].iter().copied())
    }

    /// Writes the view's topological order (smallest ready id first,
    /// [`crate::topo::topo_sort`]'s order) into `order` and returns how
    /// many tasks it holds: all of them iff the view is acyclic.
    /// `indeg` and `ready` are scratch.
    pub fn topo_order_into(
        &self,
        indeg: &mut Vec<u32>,
        ready: &mut BinaryHeap<Reverse<u32>>,
        order: &mut Vec<u32>,
    ) -> usize {
        indeg.clear();
        indeg.extend((0..self.len() as u32).map(|u| self.parents(u).len() as u32));
        order.clear();
        kahn_min_id(
            indeg,
            ready,
            |u| self.children(u).iter().copied(),
            |u| order.push(u),
        )
    }

    /// Number of the view's internal edges, parallel edges counted
    /// apart.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_dst.len()
    }

    /// Total volume of the view's internal edges.
    pub fn total_volume(&self) -> f64 {
        self.out_vol.iter().sum()
    }

    #[inline]
    fn out_range(&self, u: u32) -> std::ops::Range<usize> {
        self.out_start[u as usize] as usize..self.out_start[u as usize + 1] as usize
    }

    #[inline]
    fn in_range(&self, u: u32) -> std::ops::Range<usize> {
        self.in_start[u as usize] as usize..self.in_start[u as usize + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;

    /// `view` against the induced sub-DAG of its members, edge by edge.
    fn assert_is_induced(g: &Dag, view: &BlockView) {
        let (sub, back) = g.induced_subgraph(view.members());
        assert_eq!(back, view.members());
        for u in sub.node_ids() {
            let edges = |ids: &[crate::EdgeId], end: fn(&crate::EdgeData) -> NodeId| {
                ids.iter()
                    .map(|&e| (end(sub.edge(e)).0, sub.edge(e).volume))
                    .collect::<Vec<_>>()
            };
            let outs = edges(sub.out_edges(u), |e| e.dst);
            let ins = edges(sub.in_edges(u), |e| e.src);
            assert_eq!(view.out_edges(u.0).collect::<Vec<_>>(), outs);
            assert_eq!(view.in_edges(u.0).collect::<Vec<_>>(), ins);
            assert_eq!(view.memory(u.0), sub.node(u).memory);
            assert_eq!(view.out_sum(u.0), outs.iter().fold(0.0, |s, e| s + e.1));
            assert_eq!(view.in_sum(u.0), ins.iter().fold(0.0, |s, e| s + e.1));
            let orig = back[u.idx()];
            let internal = view.out_sum(u.0) + view.in_sum(u.0);
            let all = g.task_requirement(orig) - g.node(orig).memory;
            assert!((view.ext(u.0) - (all - internal)).abs() < 1e-9);
        }
    }

    #[test]
    fn block_is_the_induced_subgraph_with_boundary_folded_in() {
        // Edge ids are not grouped by source, and a -> b is doubled.
        let mut g = Dag::new();
        let a = g.add_node(1.0, 1.0);
        let b = g.add_node(2.0, 2.0);
        let c = g.add_node(3.0, 3.0);
        let outside = g.add_node(4.0, 4.0);
        g.add_edge(b, c, 1.0);
        g.add_edge(a, b, 2.0);
        g.add_edge(a, outside, 9.0);
        g.add_edge(a, c, 3.0);
        g.add_edge(a, b, 4.0);
        g.add_edge(outside, c, 5.0);
        let mut view = BlockView::new();
        view.fill_block(&g, &[c, a, b]);
        assert_eq!(view.members(), [a, b, c]);
        assert_eq!(view.children(0), [1, 2, 1]);
        assert_eq!(view.parents(2), [1, 0]);
        assert_eq!(view.edge_count(), 4);
        assert_eq!(view.ext(0), 9.0);
        assert_eq!(view.ext(2), 5.0);
        assert_is_induced(&g, &view);
    }

    #[test]
    fn refills_leave_nothing_behind() {
        let big = builder::gnp_dag_weighted(60, 0.15, 3);
        let small = builder::gnp_dag_weighted(9, 0.4, 4);
        let mut view = BlockView::new();
        let wide: Vec<NodeId> = big.node_ids().filter(|u| u.0 % 3 != 1).collect();
        view.fill_block(&big, &wide);
        assert_is_induced(&big, &view);
        // A smaller block of a smaller graph on the same buffers.
        view.fill_block(&small, &[NodeId(7), NodeId(2), NodeId(5)]);
        assert_is_induced(&small, &view);
        view.fill_graph(&big);
        assert_is_induced(&big, &view);
        assert!((0..60).all(|u| view.ext(u) == 0.0));
        assert!(view.local.iter().all(|&l| l == u32::MAX));
    }

    #[test]
    #[should_panic(expected = "duplicate member")]
    fn duplicate_members_are_refused() {
        let g = builder::chain(4, 1.0, 1.0, 1.0);
        BlockView::new().fill_block(&g, &[NodeId(1), NodeId(2), NodeId(1)]);
    }
}
