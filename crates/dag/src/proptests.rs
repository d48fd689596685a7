//! Property-based tests over the whole crate.

use crate::builder;
use crate::critical::bottom_weights;
use crate::cycles::{find_cycle, is_cyclic};
use crate::graph::{Dag, EdgeData, EdgeId, NodeId};
use crate::quotient::{is_acyclic_partition, Partition, QuotientGraph};
use crate::topo::{is_topological_order, topo_levels, topo_sort};
use proptest::prelude::*;

/// `Dag::induced_subgraph` as a scan of the whole edge list: the
/// reference the adjacency-built one is held to. Like it, the copy
/// keeps the weights of a task and drops its label.
fn induced_by_edge_scan(g: &Dag, members: &[NodeId]) -> Dag {
    let mut local = vec![u32::MAX; g.node_count()];
    let mut sub = Dag::new();
    for (i, &u) in members.iter().enumerate() {
        local[u.idx()] = i as u32;
        sub.add_node(g.node(u).work, g.node(u).memory);
    }
    for e in g.edge_ids().map(|e| g.edge(e)) {
        let (ls, ld) = (local[e.src.idx()], local[e.dst.idx()]);
        if ls != u32::MAX && ld != u32::MAX {
            sub.add_edge(NodeId(ls), NodeId(ld), e.volume);
        }
    }
    sub
}

/// `g` again, built by another route to the same storage: each task
/// is added just before the first edge that needs it instead of all
/// tasks first, and every task gets a label.
fn rebuilt_interleaved(g: &Dag) -> Dag {
    let mut copy = Dag::new();
    let grow_to = |copy: &mut Dag, n: usize| {
        while copy.node_count() < n {
            let u = NodeId(copy.node_count() as u32);
            copy.add_node_data(*g.node(u));
            copy.set_label(u, Some(&format!("t{u}")));
        }
    };
    for e in g.edge_ids().map(|e| g.edge(e)) {
        grow_to(&mut copy, e.src.idx().max(e.dst.idx()) + 1);
        copy.add_edge(e.src, e.dst, e.volume);
    }
    grow_to(&mut copy, g.node_count());
    copy
}

/// The storage `Dag` replaced, kept as the model its flat pools are
/// held to: one `Vec` of edge ids per node and direction, one optional
/// `String` per task.
#[derive(Clone, Debug, Default)]
struct Model {
    out: Vec<Vec<EdgeId>>,
    inn: Vec<Vec<EdgeId>>,
    ends: Vec<(NodeId, NodeId)>,
    labels: Vec<Option<String>>,
}

/// One step of a random build, drawn as `(kind, a, b)`: a node, an
/// edge between two existing nodes picked by `a` and `b`, the last
/// edge again (a parallel edge), or a label set or cleared.
type Op = (u8, u32, u32);

impl Model {
    /// Applies `op` to both `g` and the model. `step` makes labels
    /// unique per step.
    fn apply(&mut self, g: &mut Dag, (kind, a, b): Op, step: usize) {
        let n = self.out.len() as u32;
        match kind {
            _ if n < 2 || kind == 0 => {
                let u = g.add_node(f64::from(a % 7), f64::from(b % 5));
                assert_eq!(u, NodeId(n));
                self.out.push(Vec::new());
                self.inn.push(Vec::new());
                self.labels.push(None);
            }
            1 | 2 => {
                let src = NodeId(a % n);
                let dst = NodeId((src.0 + 1 + b % (n - 1)) % n);
                self.edge(g, src, dst);
            }
            3 => match self.ends.last() {
                Some(&(src, dst)) => self.edge(g, src, dst),
                None => self.edge(g, NodeId(0), NodeId(1)),
            },
            4 => {
                let u = NodeId(a % n);
                // DOT's statement, list and quote characters included.
                let label = format!("t{u}-{step}; \"q\" \\ [a, b=c]");
                g.set_label(u, Some(&label));
                self.labels[u.idx()] = Some(label);
            }
            _ => {
                let u = NodeId(a % n);
                g.set_label(u, None);
                self.labels[u.idx()] = None;
            }
        }
    }

    fn edge(&mut self, g: &mut Dag, src: NodeId, dst: NodeId) {
        let e = g.add_edge(src, dst, 1.0);
        assert_eq!(e, EdgeId(self.ends.len() as u32));
        self.out[src.idx()].push(e);
        self.inn[dst.idx()].push(e);
        self.ends.push((src, dst));
    }

    /// Whether `g` answers every adjacency and label question as the
    /// model does, in order.
    fn check(&self, g: &Dag) {
        prop_assert_eq!(g.node_count(), self.out.len());
        prop_assert_eq!(g.edge_count(), self.ends.len());
        for u in g.node_ids() {
            let (out, inn) = (&self.out[u.idx()], &self.inn[u.idx()]);
            prop_assert_eq!(g.out_edges(u), out.as_slice());
            prop_assert_eq!(g.in_edges(u), inn.as_slice());
            prop_assert_eq!(g.out_degree(u), out.len());
            prop_assert_eq!(g.in_degree(u), inn.len());
            let children: Vec<NodeId> = out.iter().map(|e| self.ends[e.idx()].1).collect();
            let parents: Vec<NodeId> = inn.iter().map(|e| self.ends[e.idx()].0).collect();
            prop_assert_eq!(g.children(u).collect::<Vec<_>>(), children);
            prop_assert_eq!(g.parents(u).collect::<Vec<_>>(), parents);
            for v in g.node_ids() {
                let first = out.iter().copied().find(|e| self.ends[e.idx()].1 == v);
                prop_assert_eq!(g.edge_between(u, v), first);
            }
            prop_assert_eq!(g.label(u), self.labels[u.idx()].as_deref());
        }
    }
}

/// Strategy: a random DAG described by (n, p, seed).
fn dag_params() -> impl Strategy<Value = (usize, f64, u64)> {
    (2usize..40, 0.05f64..0.5, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topo_sort_is_valid((n, p, seed) in dag_params()) {
        let g = builder::gnp_dag(n, p, seed);
        let order = topo_sort(&g).expect("gnp graphs are acyclic");
        prop_assert!(is_topological_order(&g, &order));
    }

    #[test]
    fn content_equal_graphs_share_every_derived_fact(
        (n, p, seed) in dag_params(),
        pick in any::<u32>(),
    ) {
        let g = builder::gnp_dag_weighted(n, p, seed);
        let copy = rebuilt_interleaved(&g);
        prop_assert!(g.content_eq(&copy) && copy.content_eq(&g));
        // What the online engine keeps of an arrival...
        prop_assert_eq!(g.fingerprint(), copy.fingerprint());
        prop_assert_eq!(g.total_work().to_bits(), copy.total_work().to_bits());
        for u in g.node_ids() {
            prop_assert_eq!(
                g.task_requirement(u).to_bits(),
                copy.task_requirement(u).to_bits()
            );
            // ...and why: equal storage is equal adjacency.
            prop_assert_eq!(g.out_edges(u), copy.out_edges(u));
            prop_assert_eq!(g.in_edges(u), copy.in_edges(u));
        }

        // One stored word changed: no longer a copy.
        let mut other = copy;
        let u = NodeId(pick % n as u32);
        match (pick / 7) % 3 {
            0 => other.node_mut(u).work += 1.0,
            1 => other.node_mut(u).memory += 1.0,
            _ if g.edge_count() > 0 => {
                let e = crate::graph::EdgeId(pick % g.edge_count() as u32);
                other.edge_mut(e).volume += 1.0;
            }
            _ => {
                other.add_node(1.0, 1.0);
            }
        }
        prop_assert!(!g.content_eq(&other) && !other.content_eq(&g));
        prop_assert_ne!(g.fingerprint(), other.fingerprint());
    }

    #[test]
    fn levels_respect_edges((n, p, seed) in dag_params()) {
        let g = builder::gnp_dag(n, p, seed);
        let lv = topo_levels(&g).unwrap();
        for e in g.edge_ids() {
            let ed = g.edge(e);
            prop_assert!(lv[ed.src.idx()] < lv[ed.dst.idx()]);
        }
    }

    #[test]
    fn cycle_found_iff_cyclic((n, p, seed) in dag_params(), extra in any::<u32>()) {
        let mut g = builder::gnp_dag(n, p, seed);
        // Optionally inject a back edge to create a cycle.
        let inject = extra.is_multiple_of(2);
        if inject {
            // Add an edge from the last node back to the first: it
            // closes a cycle exactly when a path leads from the first
            // node to the last.
            let order = topo_sort(&g).unwrap();
            let a = order[0];
            let b = order[order.len() - 1];
            if a != b {
                g.add_edge(b, a, 1.0);
            }
        }
        match find_cycle(&g) {
            Some(cycle) => {
                prop_assert!(is_cyclic(&g));
                // verify cycle edges exist
                for i in 0..cycle.len() {
                    let u = cycle[i];
                    let v = cycle[(i + 1) % cycle.len()];
                    prop_assert!(g.edge_between(u, v).is_some());
                }
            }
            None => prop_assert!(!is_cyclic(&g)),
        }
    }

    #[test]
    fn bottom_weights_bound_every_path((n, p, seed) in dag_params()) {
        let g = builder::gnp_dag_weighted(n, p, seed);
        let b = bottom_weights(&g, |u| g.node(u).work, |e| g.edge(e).volume).unwrap();
        // bottom[u] >= work[u]; bottom[u] >= work[u] + vol(u,v) + bottom[v]
        for u in g.node_ids() {
            prop_assert!(b[u.idx()] >= g.node(u).work - 1e-9);
        }
        for e in g.edge_ids() {
            let ed = g.edge(e);
            prop_assert!(
                b[ed.src.idx()] + 1e-6 >=
                g.node(ed.src).work + ed.volume + b[ed.dst.idx()]
            );
        }
    }

    #[test]
    fn quotient_conserves_weights((n, p, seed) in dag_params(), k in 1usize..6) {
        let g = builder::gnp_dag_weighted(n, p, seed);
        // Contiguous topological chunks always give an acyclic quotient.
        let order = topo_sort(&g).unwrap();
        let mut raw = vec![0u32; n];
        for (i, &u) in order.iter().enumerate() {
            raw[u.idx()] = (i * k / n) as u32;
        }
        let part = Partition::from_raw(&raw);
        let q = QuotientGraph::build(&g, &part);
        prop_assert!(is_acyclic_partition(&g, &part));
        let qw: f64 = q.graph.node_ids().map(|u| q.graph.node(u).work).sum();
        prop_assert!((qw - g.total_work()).abs() < 1e-6);
        let qm: f64 = q.graph.node_ids().map(|u| q.graph.node(u).memory).sum();
        prop_assert!((qm - g.total_memory()).abs() < 1e-6);
        // Cut + internal volume == total volume.
        let mut internal = 0.0;
        for e in g.edge_ids() {
            let ed = g.edge(e);
            if part.block_of(ed.src) == part.block_of(ed.dst) {
                internal += ed.volume;
            }
        }
        prop_assert!((q.edge_cut() + internal - g.total_volume()).abs() < 1e-6);
    }

    #[test]
    fn topo_chunk_partitions_are_acyclic((n, p, seed) in dag_params(), k in 1usize..8) {
        let g = builder::gnp_dag(n, p, seed);
        let order = topo_sort(&g).unwrap();
        let mut raw = vec![0u32; n];
        for (i, &u) in order.iter().enumerate() {
            raw[u.idx()] = (i * k / n) as u32;
        }
        prop_assert!(is_acyclic_partition(&g, &Partition::from_raw(&raw)));
    }

    #[test]
    fn induced_subgraph_equals_edge_scan(
        (n, p, seed) in dag_params(),
        keys in proptest::collection::vec(any::<u64>(), 40),
    ) {
        // The gnp edges re-added in key order, about a third of them
        // doubled with another volume: edge ids are not grouped by
        // source, and parallel edges must keep their relative order.
        let base = builder::gnp_dag_weighted(n, p, seed);
        let mut keyed: Vec<(u64, EdgeData)> = Vec::new();
        for (i, e) in base.edge_ids().enumerate() {
            let key = keys[i % keys.len()] ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            keyed.push((key, base.edge(e).clone()));
            if key.is_multiple_of(3) {
                let mut twin = base.edge(e).clone();
                twin.volume += 0.5;
                keyed.push((key.rotate_left(17), twin));
            }
        }
        keyed.sort_by_key(|&(key, _)| key);
        let mut g = Dag::new();
        for u in base.node_ids() {
            let named = g.add_node_data(*base.node(u));
            g.set_label(named, Some(&format!("task-{u}")));
        }
        for (_, e) in &keyed {
            g.add_edge(e.src, e.dst, e.volume);
        }
        // About half of the nodes, in key order.
        let mut members: Vec<NodeId> = g
            .node_ids()
            .filter(|u| keys[u.idx()] & 8 == 0)
            .collect();
        members.sort_by_key(|u| keys[u.idx()]);

        let (sub, back) = g.induced_subgraph(&members);
        let want = induced_by_edge_scan(&g, &members);
        prop_assert_eq!(&back, &members);
        prop_assert_eq!(sub.node_count(), want.node_count());
        for u in sub.node_ids() {
            prop_assert_eq!(sub.node(u), want.node(u));
        }
        let edges = |d: &Dag| d.edge_ids().map(|e| d.edge(e).clone()).collect::<Vec<_>>();
        prop_assert_eq!(edges(&sub), edges(&want));
    }

    #[test]
    fn flat_storage_matches_a_vec_of_vecs_model(
        ops in proptest::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 0..160),
        later in proptest::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 0..60),
        clone_at in 0usize..160,
    ) {
        // Edges outnumber nodes about three to one, so spans fill, move
        // to the end of the pool and grow in place, in every order.
        let (mut g, mut model) = (Dag::new(), Model::default());
        let mut taken = None;
        for (step, &op) in ops.iter().enumerate() {
            if step == clone_at {
                taken = Some((g.clone(), model.clone()));
            }
            model.apply(&mut g, op, step);
            model.check(&g);
        }
        let (mut copy, mut copy_model) = taken.unwrap_or_else(|| (g.clone(), model.clone()));
        copy_model.check(&copy);

        // The clone and its source are independent from here on.
        for (step, &op) in later.iter().enumerate() {
            copy_model.apply(&mut copy, op, ops.len() + step);
            copy_model.check(&copy);
        }
        model.check(&g);
        for (step, &op) in later.iter().rev().enumerate() {
            model.apply(&mut g, op, ops.len() + later.len() + step);
        }
        model.check(&g);
        copy_model.check(&copy);

        // Labels survive the DOT round trip exactly (an unlabelled task
        // comes back unlabelled), and so does the adjacency.
        let back = crate::dot::from_dot(&crate::dot::to_dot(&g, "model")).unwrap();
        for u in g.node_ids() {
            prop_assert_eq!(back.label(u), g.label(u));
            prop_assert_eq!(back.out_edges(u), g.out_edges(u));
            prop_assert_eq!(back.in_edges(u), g.in_edges(u));
        }
    }

    #[test]
    fn dot_roundtrip_preserves_structure((n, p, seed) in dag_params()) {
        let g = builder::gnp_dag_weighted(n, p, seed);
        let dot = crate::dot::to_dot(&g, "t");
        let h = crate::dot::from_dot(&dot).unwrap();
        prop_assert_eq!(g.node_count(), h.node_count());
        prop_assert_eq!(g.edge_count(), h.edge_count());
        prop_assert!((g.total_work() - h.total_work()).abs() < 1e-6);
        prop_assert!((g.total_volume() - h.total_volume()).abs() < 1e-6);
    }
}

#[test]
fn induced_subgraph_of_block_is_consistent() {
    let g = builder::gnp_dag_weighted(25, 0.2, 7);
    let order = topo_sort(&g).unwrap();
    let mut raw = vec![0u32; 25];
    for (i, &u) in order.iter().enumerate() {
        raw[u.idx()] = (i / 9) as u32;
    }
    let part = Partition::from_raw(&raw);
    for members in part.members() {
        let (sub, back) = g.induced_subgraph(&members);
        assert_eq!(sub.node_count(), members.len());
        assert!(!is_cyclic(&sub));
        for (i, &orig) in back.iter().enumerate() {
            assert_eq!(sub.node(NodeId(i as u32)).work, g.node(orig).work);
        }
    }
}
