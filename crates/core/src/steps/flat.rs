//! The quotient graph as Steps 3 and 4 hold it: flat arrays instead of
//! a [`Dag`], and the passes over it (Kahn order, bottom weights,
//! critical path, first cycle) on buffers that are reused from one
//! candidate to the next.
//!
//! A pass is split where its inputs change at different rates.
//! [`PassScratch::index`] depends on the quotient's shape and volumes
//! only — out-edge index, Kahn order, edge costs `volume / bandwidth`;
//! [`PassScratch::relax`] is the one reverse sweep that depends on the
//! speeds. Step 3 contracts a new quotient per candidate and runs both;
//! Step 4 only ever changes speeds, indexes its quotient once and
//! relaxes per candidate.
//!
//! The arithmetic is that of `dhp_dag::critical` (`tail.max(cost +
//! bottom[v])`, `work / speed + tail`), so makespans and critical paths
//! equal `makespan::quotient_makespan` / `quotient_critical_path` to
//! the bit.

use crate::blocks::BlockSet;
use dhp_dag::{Dag, QuotientGraph};
use dhp_platform::Cluster;

/// A quotient graph as flat arrays. Node ids are dense `u32`s.
#[derive(Debug, Default)]
pub(super) struct FlatQuotient {
    /// Summed task work per node.
    pub(super) work: Vec<f64>,
    /// Speed per node: its block's processor's, 1.0 while unassigned
    /// (the paper's *estimated* makespan).
    pub(super) speed: Vec<f64>,
    /// `(src, dst, volume)`, ascending by `(src, dst)`, no parallel
    /// edges.
    pub(super) edges: Vec<(u32, u32, f64)>,
}

impl FlatQuotient {
    /// The quotient of `bs` over `g`, plus the quotient node of every
    /// block index.
    pub(super) fn of_blocks(g: &Dag, bs: &BlockSet, cluster: &Cluster) -> (Self, Vec<u32>) {
        // `to_partition` renumbers blocks by first node appearance;
        // recover each block's quotient node via a member lookup.
        let partition = bs.to_partition(g.node_count());
        let node_of_block: Vec<u32> = bs
            .iter()
            .map(|b| partition.block_of(b.members[0]).0)
            .collect();
        let mut speed = vec![1.0; bs.len()];
        for (b, &qn) in bs.iter().zip(&node_of_block) {
            speed[qn as usize] = b.proc.map_or(1.0, |p| cluster.speed(p));
        }
        let q = Self::of_dag(&QuotientGraph::build(g, &partition).graph, speed);
        (q, node_of_block)
    }

    /// `q` (simple, edges stored ascending by endpoints, as
    /// `QuotientGraph::build` leaves them) with the given node speeds.
    pub(super) fn of_dag(q: &Dag, speed: Vec<f64>) -> Self {
        let edges: Vec<(u32, u32, f64)> = q
            .edge_ids()
            .map(|e| q.edge(e))
            .map(|e| (e.src.0, e.dst.0, e.volume))
            .collect();
        debug_assert!(edges
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        Self {
            work: q.node_ids().map(|u| q.node(u).work).collect(),
            speed,
            edges,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.work.len()
    }

    /// Writes into `out` this graph with `group` contracted into node 0
    /// running at `merged_speed`; every other node keeps its relative
    /// order, numbered from 1. `new_of_old` receives the renumbering.
    ///
    /// Floating-point sums are taken in one fixed order so that
    /// makespans keep their bits: works in ascending old node id;
    /// parallel edges (three of them after a triple merge, where the
    /// order of the additions shows in the last bit) in the order
    /// `sort_unstable_by_key` — deterministic for a given input — leaves
    /// the renumbered old edge sequence in, which is the order the
    /// golden outputs were recorded with.
    pub(super) fn contract_into(
        &self,
        group: &[u32],
        merged_speed: f64,
        out: &mut FlatQuotient,
        new_of_old: &mut Vec<u32>,
    ) {
        new_of_old.clear();
        new_of_old.resize(self.len(), u32::MAX);
        for &member in group {
            new_of_old[member as usize] = 0;
        }
        let mut next = 1u32;
        for slot in new_of_old.iter_mut().filter(|slot| **slot == u32::MAX) {
            *slot = next;
            next += 1;
        }
        out.work.clear();
        out.work.resize(next as usize, 0.0);
        out.speed.clear();
        out.speed.resize(next as usize, 1.0);
        for (old, &new) in new_of_old.iter().enumerate() {
            out.work[new as usize] += self.work[old];
            out.speed[new as usize] = self.speed[old];
        }
        out.speed[0] = merged_speed;

        out.edges.clear();
        out.edges.extend(
            self.edges
                .iter()
                .map(|&(a, b, vol)| (new_of_old[a as usize], new_of_old[b as usize], vol))
                .filter(|&(a, b, _)| a != b),
        );
        out.edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        out.edges.dedup_by(|next, kept| {
            let parallel = (next.0, next.1) == (kept.0, kept.1);
            if parallel {
                kept.2 += next.2;
            }
            parallel
        });
    }
}

/// Reusable buffers of the passes over a [`FlatQuotient`].
#[derive(Debug, Default)]
pub(super) struct PassScratch {
    /// `edges[first_out[u]..first_out[u + 1]]` leave node `u`.
    first_out: Vec<u32>,
    indegree: Vec<u32>,
    /// Kahn order (doubles as its own work queue).
    order: Vec<u32>,
    /// `volume / bandwidth` of every edge, in edge order.
    cost: Vec<f64>,
    /// Bottom weight per node (paper Eq. (1)); valid after
    /// [`PassScratch::relax`].
    bottom: Vec<f64>,
    /// DFS stack of [`PassScratch::two_cycle_partner`]: node and the
    /// index of its next out-edge.
    stack: Vec<(u32, u32)>,
    /// DFS colours: 0 unseen, 1 on the stack, 2 done.
    colour: Vec<u8>,
}

impl PassScratch {
    /// Positions in `q.edges` (and `cost`) of the edges leaving `u`.
    fn out_edges(&self, u: u32) -> std::ops::Range<usize> {
        self.first_out[u as usize] as usize..self.first_out[u as usize + 1] as usize
    }

    /// Everything about `q` that its speeds do not change: indexes its
    /// out-edges, prices every edge at `volume / bandwidth` and takes
    /// one Kahn pass. Returns whether `q` is acyclic, which
    /// [`PassScratch::relax`] requires.
    pub(super) fn index(&mut self, q: &FlatQuotient, bandwidth: f64) -> bool {
        let n = q.len();
        self.first_out.clear();
        self.first_out.resize(n + 1, 0);
        self.indegree.clear();
        self.indegree.resize(n, 0);
        self.cost.clear();
        for &(a, b, vol) in &q.edges {
            self.first_out[a as usize + 1] += 1;
            self.indegree[b as usize] += 1;
            self.cost.push(vol / bandwidth);
        }
        for u in 0..n {
            self.first_out[u + 1] += self.first_out[u];
        }
        self.order.clear();
        self.order
            .extend((0..n as u32).filter(|&u| self.indegree[u as usize] == 0));
        let mut head = 0;
        while let Some(&u) = self.order.get(head) {
            head += 1;
            for &(_, v, _) in &q.edges[self.out_edges(u)] {
                self.indegree[v as usize] -= 1;
                if self.indegree[v as usize] == 0 {
                    self.order.push(v);
                }
            }
        }
        self.order.len() == n
    }

    /// Fills `bottom` for the speeds `q` has now and returns the
    /// makespan: the largest bottom weight, with node cost
    /// `work / speed`. `q` must be the acyclic quotient last given to
    /// [`PassScratch::index`], its speeds aside.
    pub(super) fn relax(&mut self, q: &FlatQuotient) -> f64 {
        debug_assert_eq!(self.order.len(), q.len());
        self.bottom.clear();
        self.bottom.resize(q.len(), 0.0);
        let mut makespan = 0.0f64;
        for &u in self.order.iter().rev() {
            let mut tail = 0.0f64;
            for e in self.out_edges(u) {
                tail = tail.max(self.cost[e] + self.bottom[q.edges[e].1 as usize]);
            }
            let b = q.work[u as usize] / q.speed[u as usize] + tail;
            self.bottom[u as usize] = b;
            makespan = makespan.max(b);
        }
        makespan
    }

    /// [`PassScratch::index`] then [`PassScratch::relax`]: the makespan
    /// of `q`, or `None` when it is cyclic.
    pub(super) fn bottom_weights(&mut self, q: &FlatQuotient, bandwidth: f64) -> Option<f64> {
        self.index(q, bandwidth).then(|| self.relax(q))
    }

    /// Writes the critical path of `q`, first node to last, into `path`
    /// (empty when `q` is empty). Needs the bottom weights of a
    /// [`PassScratch::relax`] under `q`'s current speeds. Starts at the
    /// smallest node id of maximal bottom weight and follows, at each
    /// step, the smallest child id that realises it.
    pub(super) fn critical_path(&self, q: &FlatQuotient, path: &mut Vec<u32>) {
        path.clear();
        if q.len() == 0 {
            return;
        }
        let mut cur = 0u32;
        for u in 1..q.len() as u32 {
            if self.bottom[u as usize] > self.bottom[cur as usize] {
                cur = u;
            }
        }
        loop {
            path.push(cur);
            let residual = self.bottom[cur as usize] - q.work[cur as usize] / q.speed[cur as usize];
            let mut next: Option<u32> = None;
            for e in self.out_edges(cur) {
                let v = q.edges[e].1;
                let via = self.cost[e] + self.bottom[v as usize];
                if (via - residual).abs() <= 1e-9 * residual.abs().max(1.0)
                    && next.is_none_or(|n| v < n)
                {
                    next = Some(v);
                }
            }
            match next {
                Some(v) => cur = v,
                None => break,
            }
        }
    }

    /// For a cyclic `q` (out-edges indexed by the failed
    /// [`PassScratch::bottom_weights`]): depth-first from the smallest
    /// node id, children in ascending id, to the first edge that closes
    /// a cycle. If that cycle has exactly two nodes, returns the one
    /// that is not the merged node 0 — the third vertex of paper Fig. 2;
    /// a longer first cycle disqualifies the candidate.
    pub(super) fn two_cycle_partner(&mut self, q: &FlatQuotient) -> Option<u32> {
        self.colour.clear();
        self.colour.resize(q.len(), 0);
        for root in 0..q.len() as u32 {
            if self.colour[root as usize] != 0 {
                continue;
            }
            self.stack.clear();
            self.stack.push((root, self.first_out[root as usize]));
            self.colour[root as usize] = 1;
            while let Some(&mut (u, ref mut next_edge)) = self.stack.last_mut() {
                if *next_edge == self.first_out[u as usize + 1] {
                    self.colour[u as usize] = 2;
                    self.stack.pop();
                    continue;
                }
                let v = q.edges[*next_edge as usize].1;
                *next_edge += 1;
                match self.colour[v as usize] {
                    0 => {
                        self.colour[v as usize] = 1;
                        self.stack.push((v, self.first_out[v as usize]));
                    }
                    1 => {
                        // Back edge u -> v: the cycle is the stack from
                        // v up to u.
                        let below = self.stack.len().checked_sub(2).map(|i| self.stack[i].0);
                        return (below == Some(v)).then_some(if v != 0 { v } else { u });
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::makespan::{quotient_critical_path, quotient_makespan};
    use dhp_dag::{builder, NodeId};
    use proptest::prelude::*;

    /// A random quotient: a weighted G(n, p) DAG whose nodes are
    /// relabelled by the order of `keys` (so ids are not a topological
    /// order, as in a real quotient), edges ascending, plus a speed per
    /// node.
    pub(in crate::steps) fn random_quotient(
        n: usize,
        p: f64,
        seed: u64,
        keys: &[u64],
    ) -> (Dag, Vec<f64>) {
        let g = builder::gnp_dag_weighted(n, p, seed);
        let mut by_key: Vec<usize> = (0..n).collect();
        by_key.sort_by_key(|&i| (keys[i % keys.len()], i));
        let mut label = vec![0u32; n];
        for (new, &old) in by_key.iter().enumerate() {
            label[old] = new as u32;
        }
        let mut q = Dag::new();
        for &old in &by_key {
            q.add_node(g.node(NodeId(old as u32)).work, 0.0);
        }
        let mut edges: Vec<(u32, u32, f64)> = g
            .edge_ids()
            .map(|e| g.edge(e))
            .map(|e| (label[e.src.idx()], label[e.dst.idx()], e.volume))
            .collect();
        edges.sort_by_key(|&(a, b, _)| (a, b));
        for (a, b, vol) in edges {
            q.add_edge(NodeId(a), NodeId(b), vol);
        }
        let speed = (0..n)
            .map(|i| [1.0, 4.0, 8.0, 16.0, 32.0][(keys[i % keys.len()] % 5) as usize])
            .collect();
        (q, speed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// What Step 4 does to a quotient — index it once, then relax
        /// under one speed vector after another — gives the makespan
        /// and the critical path of the `Dag` passes, to the bit and in
        /// path order.
        #[test]
        fn indexed_once_relaxed_often_matches_the_dag_passes(
            n in 1usize..28,
            p in 0.05f64..0.5,
            seed in any::<u64>(),
            keys in proptest::collection::vec(any::<u64>(), 28),
            speeds in proptest::collection::vec(proptest::collection::vec(0usize..5, 28), 6),
            bandwidth in proptest::sample::select(vec![0.3, 1.0, 3.0, 7.0]),
        ) {
            let (q, speed) = random_quotient(n, p, seed, &keys);
            let mut flat = FlatQuotient::of_dag(&q, speed);
            let mut pass = PassScratch::default();
            prop_assert!(pass.index(&flat, bandwidth));
            let mut path = Vec::new();
            for draw in &speeds {
                for (slot, &class) in flat.speed.iter_mut().zip(draw) {
                    *slot = [1.0, 4.0, 8.0, 16.0, 32.0][class];
                }
                let want = quotient_makespan(&q, &flat.speed, bandwidth);
                prop_assert_eq!(pass.relax(&flat).to_bits(), want.to_bits());
                pass.critical_path(&flat, &mut path);
                let want: Vec<u32> = quotient_critical_path(&q, &flat.speed, bandwidth)
                    .unwrap_or_default()
                    .iter()
                    .map(|u| u.0)
                    .collect();
                prop_assert_eq!(&path, &want);
            }
        }
    }
}
