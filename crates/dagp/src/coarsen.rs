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
//!
//! A level is contracted without hashing: parallel coarse edges are
//! coalesced by [`dhp_dag::quotient::coalesce_crossing`], which sums
//! each pair's volume in fine edge-id order. A level keeps at least
//! half the nodes of the one before it, so the coalescer mostly buckets
//! the fine edges by coarse source rather than fill a `k × k` table.
//! The tests keep the hash-map contraction it replaced and hold every
//! level to it, bit for bit.
//!
//! A [`Level`] is what partitioning reads and nothing more: its
//! [`LevelView`], balance weights and coarse map. The finest level is
//! viewed straight from the input, with no copy of it, and a contracted
//! graph lives only until the next level has been matched and
//! contracted from it. The hierarchy of a 10,000-task blast workflow
//! holds 2.02 MiB this way; with an unlabelled copy of the input and
//! every level's `Dag` beside the views it held 4.16 MiB.

use dhp_dag::quotient::coalesce_crossing;
use dhp_dag::{BlockView, Dag, EdgeId, NodeId};
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

/// One level of the coarsening hierarchy: what partitioning reads of
/// it, and nothing else. The contracted graph a level was viewed from
/// is dropped once the next level has been matched and contracted from
/// it, and the finest level is a view of the input itself.
#[derive(Debug)]
pub struct Level {
    view: LevelView,
    weights: Vec<f64>,
    /// For each node of this level, its coarse representative in the
    /// next coarser level. Empty for the coarsest level.
    coarse_map: Vec<NodeId>,
}

impl Level {
    fn new(graph: &Dag, weights: Vec<f64>) -> Self {
        Self {
            view: LevelView::of(graph),
            weights,
            coarse_map: Vec::new(),
        }
    }

    /// Number of nodes at this level.
    pub fn node_count(&self) -> usize {
        self.view.adjacency.len()
    }

    /// The level's flat adjacency and topological order. Its tasks
    /// carry the weights of their members, summed, and no label.
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
        let small_enough = |level: &Level| level.node_count() <= target;
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
    coarsen_owned(g, weights.to_vec(), target, seed)
}

/// [`coarsen`] with `g`'s balance weights handed over, not copied.
pub(crate) fn coarsen_owned(g: &Dag, weights: Vec<f64>, target: usize, seed: u64) -> Hierarchy {
    coarsen_with(g, weights, target, seed, contract)
}

/// The graph, balance weights and coarse map of one level's contraction
/// (see [`contract`]).
type Contraction = (Dag, Vec<f64>, Vec<NodeId>);

/// [`coarsen_owned`], each level contracted by `contract`. Only the
/// graph the next matching reads is kept: the input, then each
/// contraction until the one after it.
fn coarsen_with(
    g: &Dag,
    weights: Vec<f64>,
    target: usize,
    seed: u64,
    mut contract: impl FnMut(&Dag, &[f64], &[u32], usize) -> Contraction,
) -> Hierarchy {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hierarchy = Hierarchy {
        finest: Level::new(g, weights),
        coarser: Vec::new(),
        target,
    };
    let mut contracted: Option<Dag> = None;

    loop {
        let graph = contracted.as_ref().unwrap_or(g);
        let cur = hierarchy
            .coarser
            .last_mut()
            .unwrap_or(&mut hierarchy.finest);
        let n = graph.node_count();
        if n <= target {
            break;
        }
        let (matched_to, groups) = match_edges(graph, &mut rng);
        if groups == n {
            break; // no contraction possible
        }
        let (coarse, weights, coarse_map) = contract(graph, &cur.weights, &matched_to, groups);
        cur.coarse_map = coarse_map;
        hierarchy.coarser.push(Level::new(&coarse, weights));
        contracted = Some(coarse);
        // Diminishing returns guard: stop if the last round removed <5%.
        if (n - groups) * 20 < n {
            break;
        }
    }
    hierarchy
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
/// `0..groups`. A coarse node sums its members' works, memories and
/// weights in ascending fine id; a coarse edge is one pair of groups,
/// ascending, its volume summed in fine edge-id order
/// ([`coalesce_crossing`]).
fn contract(g: &Dag, weights: &[f64], group: &[u32], groups: usize) -> Contraction {
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
    let crossing = (0..g.edge_count() as u32)
        .map(|e| g.edge(EdgeId(e)))
        .map(|e| (group[e.src.idx()], group[e.dst.idx()], e.volume));
    for (a, b, volume) in coalesce_crossing(groups, crossing) {
        coarse.add_edge(NodeId(a), NodeId(b), volume);
    }
    let coarse_map = group.iter().map(|&c| NodeId(c)).collect();
    (coarse, coarse_weights, coarse_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;
    use dhp_dag::cycles::is_cyclic;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// [`contract`] as it was: coarse edges through a hash map of group
    /// pairs, each volume summed onto `0.0`, then sorted by pair.
    fn contract_by_hash_map(g: &Dag, weights: &[f64], group: &[u32], groups: usize) -> Contraction {
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

    /// [`coarsen_with`] through `contract`, and a copy of every graph
    /// it contracted, coarsest last: level `i + 1`'s graph is the
    /// `i`-th.
    fn coarsen_recording(
        g: &Dag,
        weights: &[f64],
        target: usize,
        seed: u64,
        contract: fn(&Dag, &[f64], &[u32], usize) -> Contraction,
    ) -> (Hierarchy, Vec<Dag>) {
        let mut graphs = Vec::new();
        let h = coarsen_with(g, weights.to_vec(), target, seed, |g, w, group, groups| {
            let contraction = contract(g, w, group, groups);
            graphs.push(contraction.0.clone());
            contraction
        });
        assert_eq!(graphs.len() + 1, h.depth());
        (h, graphs)
    }

    /// Every level, finest first.
    fn levels(h: &Hierarchy) -> impl Iterator<Item = &Level> {
        std::iter::once(&h.finest).chain(&h.coarser)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Coarsening through the coalescer builds the hierarchy the
        /// hash map built, level by level and to the bit: coarse edges
        /// in order with their volumes, works, memories, balance
        /// weights, and the coarse maps (which the next level's
        /// matching draws from the edges). Edges are doubled or tripled;
        /// works and weights include `±0.0`, NaN and `±∞`, compared
        /// with every NaN alike (Rust leaves the sign of a NaN that
        /// arithmetic returns unspecified). Volumes include `±0.0` and
        /// `+∞` but no NaN and no `-∞`: the matching ranks volumes with
        /// `total_cmp`, which sees a NaN's sign, so a NaN sum could rank
        /// differently in two builds of the same code.
        #[test]
        fn coarsening_matches_the_hash_map_contraction(
            (n, p, seed) in (2usize..160, 0.01f64..0.15, any::<u64>()),
            (doubled, copies) in (0usize..200, 1usize..3),
            classes in proptest::collection::vec(0u8..8, 64),
            target in 1usize..24,
        ) {
            let hostile = |v: f64, class: u8| match class {
                0 => 0.0,
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NAN,
                4 => f64::NEG_INFINITY,
                _ => v,
            };
            let volume = |v: f64, class: u8| if class < 3 { hostile(v, class) } else { v };
            let bits = |v: f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
            let base = builder::gnp_dag_weighted(n, p, seed);
            let mut g = Dag::with_capacity(n, 3 * base.edge_count());
            for u in base.node_ids() {
                let node = base.node(u);
                g.add_node(hostile(node.work, classes[u.idx() % 64]), node.memory);
            }
            for (i, e) in base.edge_ids().map(|e| base.edge(e)).enumerate() {
                g.add_edge(e.src, e.dst, volume(e.volume, classes[i % 64]));
                for copy in 1..=copies * usize::from(i < doubled) {
                    g.add_edge(e.src, e.dst, volume(e.volume + 1.0, classes[(i + copy) % 64]));
                }
            }
            let weights: Vec<f64> =
                g.node_ids().map(|u| hostile(g.node(u).work, classes[(u.idx() + 7) % 64])).collect();
            let (got, got_graphs) = coarsen_recording(&g, &weights, target, seed, contract);
            let (want, want_graphs) =
                coarsen_recording(&g, &weights, target, seed, contract_by_hash_map);
            prop_assert_eq!(got.depth(), want.depth());
            let facts = |h: &Hierarchy, graphs: &[Dag]| {
                levels(h).zip(std::iter::once(&g).chain(graphs)).map(|(level, g)| {
                    (
                        g.node_ids()
                            .map(|u| (bits(g.node(u).work), g.node(u).memory.to_bits()))
                            .collect::<Vec<_>>(),
                        g.edge_ids()
                            .map(|e| g.edge(e))
                            .map(|e| (e.src.0, e.dst.0, e.volume.to_bits()))
                            .collect::<Vec<_>>(),
                        level.weights.iter().map(|&w| bits(w)).collect::<Vec<_>>(),
                        level.coarse_map.clone(),
                    )
                }).collect::<Vec<_>>()
            };
            prop_assert_eq!(facts(&got, &got_graphs), facts(&want, &want_graphs));
        }
    }

    #[test]
    fn coarsening_preserves_acyclicity_and_totals() {
        for seed in 0..6 {
            let g = builder::gnp_dag_weighted(150, 0.04, seed);
            let weights: Vec<f64> = g.node_ids().map(|u| g.node(u).work).collect();
            let (h, graphs) = coarsen_recording(&g, &weights, 20, seed, contract);
            let (c, coarsest) = (h.coarsest(), graphs.last().expect("coarsened"));
            assert!(!is_cyclic(coarsest), "seed {seed}");
            assert!(c.node_count() < g.node_count());
            assert_eq!(c.node_count(), coarsest.node_count());
            let total: f64 = c.weights().iter().sum();
            assert!((total - g.total_work()).abs() < 1e-6);
            assert!((coarsest.total_work() - g.total_work()).abs() < 1e-6);
            assert!((coarsest.total_memory() - g.total_memory()).abs() < 1e-6);
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
            let (h, graphs) = coarsen_recording(&g, &weights, 10, seed, contract);
            assert!(h.depth() >= 3, "seed {seed}");
            for (level, g) in levels(&h).zip(std::iter::once(&g).chain(&graphs)) {
                assert_views(level.view(), g);
                assert_eq!(level.node_count(), g.node_count());
            }
        }
    }

    /// `view` is `g`, edge by edge in `g`'s own list order, with `g`'s
    /// memories, and its order is `g`'s topological sort.
    fn assert_views(view: &LevelView, g: &Dag) {
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
            assert_eq!(
                view.adjacency().memory(u.0).to_bits(),
                g.node(u).memory.to_bits()
            );
        }
        let sorted = dhp_dag::topo::topo_sort(g).expect("levels are acyclic");
        assert!(view.order().iter().eq(sorted.iter().map(|u| &u.0)));
    }

    /// A labelled input's finest level is [`LevelView::of`] the input,
    /// edge by edge, whatever its labels.
    #[test]
    fn the_finest_view_of_a_labelled_input_is_its_own_view() {
        let mut g = builder::gnp_dag_weighted(40, 0.1, 5);
        for u in g.node_ids().step_by(3).collect::<Vec<_>>() {
            g.set_label(u, Some(&format!("task-{u}")));
        }
        let h = coarsen(&g, &vec![1.0; 40], 10, 0);
        assert!(h.depth() >= 2);
        let (finest, own) = (h.finest().view(), LevelView::of(&g));
        assert_views(finest, &g);
        for u in 0..g.node_count() as u32 {
            let adjacency = |view: &LevelView| {
                let a = view.adjacency();
                let bits = |(v, volume): (u32, f64)| (v, volume.to_bits());
                (
                    a.out_edges(u).map(bits).collect::<Vec<_>>(),
                    a.in_edges(u).map(bits).collect::<Vec<_>>(),
                    a.memory(u).to_bits(),
                )
            };
            assert_eq!(adjacency(finest), adjacency(&own));
        }
        assert_eq!(finest.order(), own.order());
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
        assert!(h.coarsest().node_count() <= 40);
        assert!(h.depth() >= 2);
    }

    #[test]
    fn maps_compose_to_finest() {
        let g = builder::gnp_dag_weighted(80, 0.06, 2);
        let weights = vec![1.0; 80];
        let h = coarsen(&g, &weights, 10, 1);
        // walk every fine node through the maps; must land in coarsest
        let mut idx: Vec<NodeId> = g.node_ids().collect();
        for level in levels(&h).take(h.depth() - 1) {
            idx = idx.iter().map(|&u| level.coarse_of(u)).collect();
        }
        let m = h.coarsest().node_count();
        assert!(idx.iter().all(|u| u.idx() < m));
    }

    #[test]
    fn already_small_graph_is_single_level() {
        let g = builder::chain(5, 1.0, 1.0, 1.0);
        let h = coarsen(&g, &[1.0; 5], 30, 0);
        assert_eq!(h.depth(), 1);
        assert_eq!(h.coarsest().node_count(), 5);
    }
}
