//! Acyclicity-preserving coarsening.
//!
//! An edge `(u, v)` may be contracted when no *bypass* path `u → … → v`
//! of length ≥ 2 exists, since the merged vertex would close such a path
//! into a cycle. Two cheap sufficient conditions are used (as in dagP's
//! matching heuristics):
//!
//! * `v` has in-degree 1 (its only parent is `u`), or
//! * `u` has out-degree 1 (its only child is `v`).
//!
//! Either one rules out any alternative `u → … → v` path. Matching is
//! greedy by decreasing edge volume (heavy edges are hidden inside coarse
//! nodes so they can never be cut), with a seeded shuffle for
//! deterministic tie-breaking.

use dhp_dag::{BlockView, Dag, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BinaryHeap;

/// What initial partitioning and refinement read of a graph: its
/// adjacency as a flat [`BlockView`] (CSR, each list in the [`Dag`]'s own
/// edge-id order, so a sum over a vertex's edges adds what the same sum
/// over the `Dag` adds, in the same order) and its topological order
/// ([`dhp_dag::topo::topo_sort`]'s). Neither depends on the part count,
/// so a level builds them once for every `k'` that partitions on it.
/// A view refilled with block after block ([`LevelView::fill_block`])
/// reuses its buffers.
#[derive(Debug, Default)]
pub struct LevelView {
    adjacency: BlockView,
    order: Vec<u32>,
}

impl LevelView {
    /// Views all of `g`.
    ///
    /// # Panics
    /// Panics if `g` is cyclic.
    pub fn of(g: &Dag) -> Self {
        let mut adjacency = BlockView::new();
        adjacency.fill_graph(g);
        let mut order = Vec::with_capacity(adjacency.len());
        let emitted =
            adjacency.topo_order_into(&mut Vec::new(), &mut BinaryHeap::new(), &mut order);
        assert_eq!(emitted, adjacency.len(), "partitioning requires a DAG");
        Self { adjacency, order }
    }

    /// Refills the view with the sub-DAG `members` (ascending, without
    /// duplicates) induce in `g`: what [`LevelView::of`] gives for
    /// `g.induced_subgraph(members).0`, edge lists and order alike
    /// (see [`BlockView`] on edge order), built without the sub-DAG.
    /// `indeg` and `ready` are scratch.
    ///
    /// # Panics
    /// Panics if `members` is not ascending.
    pub fn fill_block(
        &mut self,
        g: &Dag,
        members: &[NodeId],
        indeg: &mut Vec<u32>,
        ready: &mut BinaryHeap<std::cmp::Reverse<u32>>,
    ) {
        assert!(members.is_sorted(), "block members must ascend");
        self.adjacency.fill_block(g, members);
        let emitted = self
            .adjacency
            .topo_order_into(indeg, ready, &mut self.order);
        debug_assert_eq!(emitted, members.len(), "a sub-DAG of a DAG is acyclic");
    }

    /// The graph's adjacency; local ids are the graph's node ids.
    pub fn adjacency(&self) -> &BlockView {
        &self.adjacency
    }

    /// The graph's topological order, smallest ready id first.
    pub fn order(&self) -> &[u32] {
        &self.order
    }
}

/// One level of the coarsening hierarchy.
#[derive(Debug)]
pub struct Level {
    graph: Dag,
    view: LevelView,
    weights: Vec<f64>,
    /// For each node of this level's graph, its coarse representative
    /// in the next coarser level. Empty for the coarsest level.
    coarse_map: Vec<NodeId>,
}

impl Level {
    fn new(graph: Dag, weights: Vec<f64>) -> Self {
        Self {
            view: LevelView::of(&graph),
            graph,
            weights,
            coarse_map: Vec::new(),
        }
    }

    /// The graph at this level. Its tasks carry their weights but no
    /// label, at the finest level too.
    pub fn graph(&self) -> &Dag {
        &self.graph
    }

    /// The flat view and topological order of [`Level::graph`].
    pub fn view(&self) -> &LevelView {
        &self.view
    }

    /// Balance weights of this level's nodes.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Coarse representative (in the *next coarser* level) of fine node
    /// `u` of this level.
    pub fn coarse_of(&self, u: NodeId) -> NodeId {
        self.coarse_map[u.idx()]
    }
}

/// The coarsening hierarchy: the input graph and every coarser level
/// [`coarsen`] built from it.
#[derive(Debug)]
pub struct Hierarchy {
    finest: Level,
    /// Levels `1..`, each the contraction of the one before it (the
    /// first of `finest`).
    coarser: Vec<Level>,
    /// The node count coarsening was asked to reach.
    target: usize,
}

impl Hierarchy {
    /// The finest level: the input graph.
    pub fn finest(&self) -> &Level {
        &self.finest
    }

    /// The coarsest level.
    pub fn coarsest(&self) -> &Level {
        self.coarser.last().unwrap_or(&self.finest)
    }

    /// Number of levels (≥ 1).
    pub fn depth(&self) -> usize {
        1 + self.coarser.len()
    }

    /// The levels [`coarsen`] would have built for `target`, which must
    /// be at least this hierarchy's own: everything up to the first
    /// level with at most `target` nodes.
    ///
    /// Coarsening draws its matchings from one seeded stream and looks
    /// at the target only to decide whether to go on; its other two
    /// stopping rules do not depend on it. So the hierarchy for a
    /// smaller target starts with the levels of every larger one.
    pub fn prefix(&self, target: usize) -> Prefix<'_> {
        debug_assert!(target >= self.target, "{target} < {}", self.target);
        let small_enough = |level: &Level| level.graph.node_count() <= target;
        let coarser = if small_enough(&self.finest) {
            0
        } else {
            let first = self.coarser.iter().position(small_enough);
            first.map_or(self.coarser.len(), |i| i + 1)
        };
        Prefix {
            finest: &self.finest,
            coarser: &self.coarser[..coarser],
        }
    }
}

/// The first levels of a [`Hierarchy`], its finest (input) level
/// included.
#[derive(Clone, Copy, Debug)]
pub struct Prefix<'h> {
    finest: &'h Level,
    coarser: &'h [Level],
}

impl<'h> Prefix<'h> {
    /// The coarsest level.
    pub fn coarsest(&self) -> &'h Level {
        self.coarser.last().unwrap_or(self.finest)
    }

    /// Number of levels (≥ 1).
    pub fn depth(&self) -> usize {
        1 + self.coarser.len()
    }

    /// Iterates over the levels from second-coarsest down to finest; at
    /// each yielded level, `coarse_of` maps its nodes into the previously
    /// processed (coarser) level.
    pub fn finer_levels(&self) -> impl Iterator<Item = &'h Level> {
        let finest = self.finest;
        self.coarser
            .split_last()
            .into_iter()
            .flat_map(move |(_, finer)| finer.iter().rev().chain(std::iter::once(finest)))
    }
}

/// Coarsens `g` until at most `target` nodes remain or no further safe
/// contraction exists.
pub fn coarsen(g: &Dag, weights: &[f64], target: usize, seed: u64) -> Hierarchy {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hierarchy = Hierarchy {
        finest: Level::new(unlabelled(g), weights.to_vec()),
        coarser: Vec::new(),
        target,
    };

    loop {
        let cur = hierarchy
            .coarser
            .last_mut()
            .unwrap_or(&mut hierarchy.finest);
        let n = cur.graph.node_count();
        if n <= target {
            break;
        }
        let (matched_to, groups) = match_edges(&cur.graph, &mut rng);
        if groups == n {
            break; // no contraction possible
        }
        let (graph, weights, coarse_map) = contract(&cur.graph, &cur.weights, &matched_to, groups);
        cur.coarse_map = coarse_map;
        hierarchy.coarser.push(Level::new(graph, weights));
        // Diminishing returns guard: stop if the last round removed <5%.
        if (n - groups) * 20 < n {
            break;
        }
    }
    hierarchy
}

/// `g` with the same node and edge ids and every weight, without the
/// labels: nothing reads a level's labels, so the finest level does not
/// pay for a copy of them.
fn unlabelled(g: &Dag) -> Dag {
    let mut copy = Dag::with_capacity(g.node_count(), g.edge_count());
    for u in g.node_ids() {
        copy.add_node(g.node(u).work, g.node(u).memory);
    }
    for e in g.edge_ids() {
        let e = g.edge(e);
        copy.add_edge(e.src, e.dst, e.volume);
    }
    copy
}

/// Greedy matching over contractible edges. Returns for each node the
/// group it belongs to (pairs share a group) and the number of groups.
fn match_edges(g: &Dag, rng: &mut StdRng) -> (Vec<u32>, usize) {
    let n = g.node_count();
    let mut edges: Vec<(f64, NodeId, NodeId)> = g
        .edge_ids()
        .map(|e| {
            let ed = g.edge(e);
            (ed.volume, ed.src, ed.dst)
        })
        .collect();
    // Shuffle then stable sort by decreasing volume: equal-volume edges
    // appear in seeded random order, everything else deterministic.
    // `+ 0.0` turns a -0.0 into 0.0, so that `total_cmp` ranks the two
    // zeros equal, as `partial_cmp` does.
    edges.shuffle(rng);
    edges.sort_by(|a, b| (b.0 + 0.0).total_cmp(&(a.0 + 0.0)));

    let mut matched = vec![false; n];
    let mut group = vec![u32::MAX; n];
    let mut next = 0u32;
    for (_, u, v) in edges {
        if matched[u.idx()] || matched[v.idx()] {
            continue;
        }
        let safe = g.in_degree(v) == 1 || g.out_degree(u) == 1;
        if !safe {
            continue;
        }
        matched[u.idx()] = true;
        matched[v.idx()] = true;
        group[u.idx()] = next;
        group[v.idx()] = next;
        next += 1;
    }
    for gslot in group.iter_mut() {
        if *gslot == u32::MAX {
            *gslot = next;
            next += 1;
        }
    }
    (group, next as usize)
}

/// Builds the contracted graph. `group` maps fine nodes to coarse ids
/// `0..groups`.
fn contract(
    g: &Dag,
    weights: &[f64],
    group: &[u32],
    groups: usize,
) -> (Dag, Vec<f64>, Vec<NodeId>) {
    let mut coarse = Dag::with_capacity(groups, g.edge_count());
    let mut coarse_weights = vec![0.0f64; groups];
    let mut work = vec![0.0f64; groups];
    let mut memory = vec![0.0f64; groups];
    for u in g.node_ids() {
        let c = group[u.idx()] as usize;
        work[c] += g.node(u).work;
        memory[c] += g.node(u).memory;
        coarse_weights[c] += weights[u.idx()];
    }
    for c in 0..groups {
        coarse.add_node(work[c], memory[c]);
    }
    // Coalesce parallel coarse edges.
    use std::collections::HashMap;
    let mut combined: HashMap<(u32, u32), f64> = HashMap::new();
    for e in g.edge_ids() {
        let ed = g.edge(e);
        let (a, b) = (group[ed.src.idx()], group[ed.dst.idx()]);
        if a != b {
            *combined.entry((a, b)).or_insert(0.0) += ed.volume;
        }
    }
    let mut pairs: Vec<_> = combined.into_iter().collect();
    pairs.sort_by_key(|&((a, b), _)| (a, b));
    for ((a, b), vol) in pairs {
        coarse.add_edge(NodeId(a), NodeId(b), vol);
    }
    let coarse_map = group.iter().map(|&c| NodeId(c)).collect();
    (coarse, coarse_weights, coarse_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;
    use dhp_dag::cycles::is_cyclic;

    #[test]
    fn coarsening_preserves_acyclicity_and_totals() {
        for seed in 0..6 {
            let g = builder::gnp_dag_weighted(150, 0.04, seed);
            let weights: Vec<f64> = g.node_ids().map(|u| g.node(u).work).collect();
            let h = coarsen(&g, &weights, 20, seed);
            let c = h.coarsest();
            assert!(!is_cyclic(c.graph()), "seed {seed}");
            assert!(c.graph().node_count() < g.node_count());
            let total: f64 = c.weights().iter().sum();
            assert!((total - g.total_work()).abs() < 1e-6);
            assert!((c.graph().total_work() - g.total_work()).abs() < 1e-6);
            assert!((c.graph().total_memory() - g.total_memory()).abs() < 1e-6);
        }
    }

    /// Every level's view is its graph, edge by edge in the graph's own
    /// list order (doubled edges included), and its order is the
    /// graph's topological sort.
    #[test]
    fn the_level_view_is_the_level_graph() {
        for seed in 0..4 {
            let mut g = builder::gnp_dag_weighted(150, 0.04, seed);
            // Edge ids that ascend with neither endpoint, and doubles.
            for e in g.edge_ids().rev().step_by(3).collect::<Vec<_>>() {
                let e = g.edge(e).clone();
                g.add_edge(e.src, e.dst, e.volume + 1.0);
            }
            let weights = vec![1.0; g.node_count()];
            let h = coarsen(&g, &weights, 10, seed);
            assert!(h.depth() >= 3, "seed {seed}");
            for level in std::iter::once(&h.finest).chain(&h.coarser) {
                let (g, view) = (level.graph(), level.view());
                assert_eq!(view.adjacency().len(), g.node_count());
                for u in g.node_ids() {
                    let ends = |ids: &[dhp_dag::EdgeId], end: fn(&dhp_dag::EdgeData) -> NodeId| {
                        ids.iter()
                            .map(|&e| (end(g.edge(e)).0, g.edge(e).volume))
                            .collect::<Vec<_>>()
                    };
                    let outs: Vec<_> = view.adjacency().out_edges(u.0).collect();
                    let ins: Vec<_> = view.adjacency().in_edges(u.0).collect();
                    assert_eq!(outs, ends(g.out_edges(u), |e| e.dst));
                    assert_eq!(ins, ends(g.in_edges(u), |e| e.src));
                }
                let sorted = dhp_dag::topo::topo_sort(g).expect("levels are acyclic");
                assert!(view.order().iter().eq(sorted.iter().map(|u| &u.0)));
            }
        }
    }

    #[test]
    fn the_finest_level_keeps_ids_and_weights_and_drops_labels() {
        let mut g = builder::gnp_dag_weighted(40, 0.1, 5);
        g.node_mut(NodeId(3)).label = Some("named".into());
        let h = coarsen(&g, &vec![1.0; 40], 10, 0);
        let finest = h.finest().graph();
        assert!(finest.node_ids().all(|u| finest.node(u).label.is_none()
            && finest.node(u).work == g.node(u).work
            && finest.node(u).memory == g.node(u).memory));
        assert!(g
            .edge_ids()
            .map(|e| g.edge(e))
            .eq(finest.edge_ids().map(|e| finest.edge(e))));
    }

    #[test]
    #[should_panic(expected = "partitioning requires a DAG")]
    fn a_cycle_is_refused() {
        let mut g = builder::chain(4, 1.0, 1.0, 1.0);
        g.add_edge(NodeId(3), NodeId(1), 1.0);
        LevelView::of(&g);
    }

    #[test]
    fn chain_coarsens_hard() {
        let g = builder::chain(64, 1.0, 1.0, 1.0);
        let weights = vec![1.0; 64];
        let h = coarsen(&g, &weights, 4, 0);
        assert!(h.coarsest().graph().node_count() <= 40);
        assert!(h.depth() >= 2);
    }

    #[test]
    fn maps_compose_to_finest() {
        let g = builder::gnp_dag_weighted(80, 0.06, 2);
        let weights = vec![1.0; 80];
        let h = coarsen(&g, &weights, 10, 1);
        // walk every fine node through the maps; must land in coarsest
        let mut idx: Vec<NodeId> = g.node_ids().collect();
        for level in std::iter::once(&h.finest)
            .chain(&h.coarser)
            .take(h.depth() - 1)
        {
            idx = idx.iter().map(|&u| level.coarse_of(u)).collect();
        }
        let m = h.coarsest().graph().node_count();
        assert!(idx.iter().all(|u| u.idx() < m));
    }

    #[test]
    fn already_small_graph_is_single_level() {
        let g = builder::chain(5, 1.0, 1.0, 1.0);
        let h = coarsen(&g, &[1.0; 5], 30, 0);
        assert_eq!(h.depth(), 1);
        assert_eq!(h.coarsest().graph().node_count(), 5);
    }
}
