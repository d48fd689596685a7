//! Memory-greedy list traversal.
//!
//! At every step, among the ready tasks, execute the one that leaves the
//! smallest resident memory afterwards, breaking ties by the smallest
//! transient memory during the step and then by id. This is the
//! traversal used inside non-series-parallel cores and as an independent
//! strategy in [`crate::best_traversal`].
//!
//! The selection key is *static* per task: the resident-memory delta is
//! `out − in`, and the transient term `live + m_u + out_u + ext_u` only
//! differs between ready candidates by its static part
//! `m_u + out_u + ext_u` (the resident `live` is common to all). The
//! ready set is therefore a plain binary heap and the traversal runs in
//! `O((V + E) log V)`.

use dhp_dag::{BlockView, Dag, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Min-heap entry: (delta, static transient part, id).
#[derive(Debug)]
struct Ready {
    delta: f64,
    transient: f64,
    id: u32,
}

impl PartialEq for Ready {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ready {}
impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ready {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse for min-first ordering.
        other
            .delta
            .total_cmp(&self.delta)
            .then(other.transient.total_cmp(&self.transient))
            .then(other.id.cmp(&self.id))
    }
}

/// The tasks one greedy run orders: all of a view, or a non-SP core of
/// it. A task's position in the set is its id for tie-breaking.
pub(crate) trait TaskSet {
    /// Number of tasks in the set.
    fn len(&self) -> usize;
    /// The task (local id of the view) at position `i`.
    fn task(&self, i: u32) -> u32;
    /// The position of view task `v`, `None` outside the set.
    fn position(&self, v: u32) -> Option<u32>;
}

/// Every task of a view of `.0` tasks, in id order.
pub(crate) struct AllTasks(pub usize);

impl TaskSet for AllTasks {
    fn len(&self) -> usize {
        self.0
    }
    fn task(&self, i: u32) -> u32 {
        i
    }
    fn position(&self, v: u32) -> Option<u32> {
        Some(v)
    }
}

/// Tables of one greedy run, indexed by position in the set.
#[derive(Debug, Default)]
pub(crate) struct GreedyScratch {
    indeg: Vec<u32>,
    delta: Vec<f64>,
    transient: Vec<f64>,
    ready: BinaryHeap<Ready>,
}

/// Writes the memory-greedy order of `set` into `out` (`set.len()`
/// slots, view-local ids). Only edges inside the set order its tasks;
/// files exchanged with the rest of the view are folded into the
/// external load, so a core is ordered as the block it would be alone.
pub(crate) fn greedy_into(
    view: &BlockView,
    set: &impl TaskSet,
    s: &mut GreedyScratch,
    out: &mut [u32],
) {
    let m = set.len();
    debug_assert_eq!(out.len(), m);
    let GreedyScratch {
        indeg,
        delta,
        transient,
        ready,
    } = s;
    indeg.clear();
    delta.clear();
    transient.clear();
    ready.clear();
    for i in 0..m as u32 {
        let u = set.task(i);
        let (mut boundary, mut in_sum, mut out_sum, mut internal_in) = (0.0f64, 0.0f64, 0.0f64, 0);
        for (v, volume) in view.in_edges(u) {
            if set.position(v).is_some() {
                in_sum += volume;
                internal_in += 1;
            } else {
                boundary += volume;
            }
        }
        for (v, volume) in view.out_edges(u) {
            if set.position(v).is_some() {
                out_sum += volume;
            } else {
                boundary += volume;
            }
        }
        // The selection key is static per task (module docs).
        indeg.push(internal_in);
        delta.push(out_sum - in_sum);
        transient.push(view.memory(u) + out_sum + (view.ext(u) + boundary));
    }
    let entry = |i: usize| Ready {
        delta: delta[i],
        transient: transient[i],
        id: i as u32,
    };
    ready.extend((0..m).filter(|&i| indeg[i] == 0).map(entry));
    let mut done = 0;
    while let Some(Ready { id, .. }) = ready.pop() {
        let u = set.task(id);
        out[done] = u;
        done += 1;
        for &v in view.children(u) {
            let Some(j) = set.position(v) else { continue };
            let j = j as usize;
            indeg[j] -= 1;
            if indeg[j] == 0 {
                ready.push(entry(j));
            }
        }
    }
    debug_assert_eq!(done, m, "graph must be acyclic");
}

/// Computes the memory-greedy topological order.
pub fn greedy_order(g: &Dag, ext: &[f64]) -> Vec<NodeId> {
    let ws = &mut crate::workspace::Workspace::default();
    ws.load_graph(g, ext);
    ws.greedy_order().iter().map(|&u| NodeId(u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::traversal_peak;
    use dhp_dag::builder;
    use dhp_dag::topo::is_topological_order;

    #[test]
    fn produces_valid_orders() {
        for seed in 0..10 {
            let g = builder::gnp_dag_weighted(30, 0.15, seed);
            let order = greedy_order(&g, &vec![0.0; 30]);
            assert!(is_topological_order(&g, &order));
        }
    }

    #[test]
    fn prefers_freeing_tasks() {
        // s fans out to two subtrees; greedy should drain one subtree's
        // file before opening the other.
        let mut g = Dag::new();
        let s = g.add_node(0.0, 1.0);
        let a = g.add_node(0.0, 1.0);
        let b = g.add_node(0.0, 1.0);
        g.add_edge(s, a, 10.0);
        g.add_edge(s, b, 10.0);
        let order = greedy_order(&g, &[0.0; 3]);
        let peak = traversal_peak(&g, &[0.0; 3], &order);
        // s: 1+20=21 is unavoidable
        assert_eq!(peak, 21.0);
    }

    #[test]
    fn greedy_beats_bad_topo_on_forks() {
        // Wide fork where natural topo order holds many files at once.
        let g = builder::fork_join(16, 1.0, 1.0, 5.0);
        let n = g.node_count();
        let ext = vec![0.0; n];
        let order = greedy_order(&g, &ext);
        let peak = traversal_peak(&g, &ext, &order);
        let topo = dhp_dag::topo::topo_sort(&g).unwrap();
        let tp = traversal_peak(&g, &ext, &topo);
        assert!(peak <= tp);
    }

    #[test]
    fn consuming_tasks_run_before_producing_ones() {
        // A ready task that frees memory (negative delta) must always be
        // chosen before one that allocates.
        let mut g = Dag::new();
        let s = g.add_node(0.0, 1.0);
        let free = g.add_node(0.0, 1.0); // consumes 10, produces nothing
        let alloc = g.add_node(0.0, 1.0); // produces 50
        let sink = g.add_node(0.0, 1.0);
        g.add_edge(s, free, 10.0);
        g.add_edge(s, alloc, 1.0);
        g.add_edge(alloc, sink, 50.0);
        let order = greedy_order(&g, &[0.0; 4]);
        let pos_free = order.iter().position(|&u| u == free).unwrap();
        let pos_alloc = order.iter().position(|&u| u == alloc).unwrap();
        assert!(pos_free < pos_alloc);
    }

    #[test]
    fn scales_to_wide_fans() {
        // A 20k-wide fan completes quickly (heap-based ready set).
        let g = builder::fork_join(20_000, 1.0, 1.0, 1.0);
        let n = g.node_count();
        #[expect(
            clippy::disallowed_methods,
            reason = "the test's subject is the traversal's wall time"
        )]
        let t0 = std::time::Instant::now();
        let order = greedy_order(&g, &vec![0.0; n]);
        assert_eq!(order.len(), n);
        assert!(
            t0.elapsed().as_secs_f64() < 2.0,
            "greedy traversal too slow: {:?}",
            t0.elapsed()
        );
    }
}
