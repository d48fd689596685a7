//! The reusable workspace every traversal question is answered on.
//!
//! One [`Workspace`] holds the block as a flat view of its graph
//! ([`BlockView`]) plus all the scratch of the pipeline: the three
//! candidate orders, the in-degree table and ready heaps of the
//! topological and greedy orders, the flat series-parallel tree with
//! its position / separator / component tables, and the segment stack
//! and heap of the hill–valley merge. Every table is indexed by
//! view-local id or by position in an order, is rewritten from its
//! start by the question that uses it, and every heap and stack is
//! drained by the routine that fills it — so a question finds the
//! workspace as good as new, and one that is no larger than an earlier
//! one allocates nothing.
//!
//! Each thread owns one for block questions (`with_workspace`): the
//! `k'` workers of a solve, the online engine's solver threads and a
//! test's main thread all find theirs warm after the first question.
//! A question about a whole graph makes a workspace of its own instead
//! (`Workspace::default()`), dropped with the answer, so the thread's
//! tables grow only to the largest block it has been asked about. Only
//! the view's parent-id table scales with the workflow: four bytes a
//! task, grown once and wiped member by member after each fill.

use crate::greedy::{greedy_into, AllTasks, GreedyScratch};
use crate::liveness::peak_of;
use crate::spdecomp::Decomposition;
use crate::sptraversal::{sp_order_into, MergeScratch};
use crate::{PeakBounds, Traversal};
use dhp_dag::{BlockView, Dag};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// View, candidate orders and scratch of one thread's questions.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// The block (or whole graph) being asked about.
    pub view: BlockView,
    /// Smallest-id-first topological order of `view`.
    pub topo: Vec<u32>,
    /// Memory-greedy order of `view`.
    greedy: Vec<u32>,
    /// Order guided by the series-parallel decomposition of `view`.
    pub sp: Vec<u32>,
    indeg: Vec<u32>,
    ready: BinaryHeap<Reverse<u32>>,
    greedy_scratch: GreedyScratch,
    pub decomp: Decomposition,
    merge: MergeScratch,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

#[cfg(test)]
thread_local! {
    /// Questions this thread's [`Workspace::best`] answered in one
    /// pass, because the view had no internal edge.
    pub(crate) static TALLY: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Runs a block question on this thread's workspace. A question asked
/// from inside another one (there is none in this crate) would get a
/// fresh workspace rather than a panic.
pub(crate) fn with_workspace<R>(question: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|ws| match ws.try_borrow_mut() {
        Ok(mut ws) => question(&mut ws),
        Err(_) => question(&mut Workspace::default()),
    })
}

impl Workspace {
    /// Views all of `g` with the external loads `ext`.
    ///
    /// # Panics
    /// Panics if `ext.len() != g.node_count()`.
    pub fn load_graph(&mut self, g: &Dag, ext: &[f64]) {
        assert_eq!(ext.len(), g.node_count(), "ext length mismatch");
        self.view.fill_graph(g);
        self.view.set_ext(ext);
    }

    /// Fills `topo` with the topological order of the view.
    ///
    /// # Panics
    /// Panics with `cyclic` if the view has a cycle.
    pub fn topo_order(&mut self, cyclic: &str) {
        let emitted = self
            .view
            .topo_order_into(&mut self.indeg, &mut self.ready, &mut self.topo);
        assert_eq!(emitted, self.view.len(), "{cyclic}");
    }

    /// The memory-greedy order of the view.
    pub fn greedy_order(&mut self) -> &[u32] {
        let n = self.view.len();
        self.greedy.resize(n, 0);
        greedy_into(
            &self.view,
            &AllTasks(n),
            &mut self.greedy_scratch,
            &mut self.greedy,
        );
        &self.greedy
    }

    /// Fills `sp` with the decomposition-guided order of the view;
    /// `topo` must hold its topological order.
    pub fn sp_order(&mut self) {
        sp_order_into(
            &self.view,
            &self.topo,
            &mut self.decomp,
            &mut self.merge,
            &mut self.greedy_scratch,
            &mut self.sp,
        );
    }

    /// Runs every strategy on the (non-empty) view — plain topological,
    /// memory-greedy, series-parallel merge — evaluates each exactly
    /// and returns the smallest peak and whose it is. A later strategy
    /// replaces an earlier one only by a strictly smaller peak.
    ///
    /// A view without an internal edge is answered in one pass: `0..n`,
    /// which is its smallest-id-first topological order, evaluated once.
    /// That is what the three strategies return, to the bit and to the
    /// task. Every input and output sum is then the `+0.0` the fill
    /// starts from, so `live` stays `+0.0` and a step's value
    /// `((live + m_u) + out_u) + ext_u` depends on `u` alone and is
    /// never `-0.0`. `f64::max` over one set of such values gives the
    /// same bits in any order (a NaN is ignored either way), so greedy
    /// and SP tie with the topological peak and never replace it.
    pub fn best(&mut self) -> (f64, Strategy) {
        if self.view.edge_count() == 0 {
            #[cfg(test)]
            TALLY.set(TALLY.get() + 1);
            self.topo.clear();
            self.topo.extend(0..self.view.len() as u32);
            let peak = peak_of(&self.view, self.topo.iter().copied());
            return (peak, Strategy::Topological);
        }
        self.topo_order("best_traversal requires a DAG");
        let mut best = (
            peak_of(&self.view, self.topo.iter().copied()),
            Strategy::Topological,
        );

        self.greedy_order();
        let greedy_peak = peak_of(&self.view, self.greedy.iter().copied());
        if greedy_peak < best.0 {
            best = (greedy_peak, Strategy::Greedy);
        }

        self.sp_order();
        let sp_peak = peak_of(&self.view, self.sp.iter().copied());
        if sp_peak < best.0 {
            best = (sp_peak, Strategy::SeriesParallel);
        }
        best
    }

    /// Certified bounds on what [`Workspace::best`] would return for
    /// the (non-empty) view, computed without the greedy order, the
    /// decomposition or the merge; see [`crate::block_bounds`] for the
    /// argument.
    pub fn bounds(&mut self) -> PeakBounds {
        if self.view.edge_count() == 0 {
            return PeakBounds::exact(self.best().0);
        }
        let view = &self.view;
        let (mut lo, mut sum, mut degree) = (0.0f64, 0.0f64, 0usize);
        let mut tame = true;
        for u in 0..view.len() as u32 {
            let (memory, ext) = (view.memory(u), view.ext(u));
            tame &= memory.is_finite() && memory >= 0.0 && ext.is_finite() && ext >= 0.0;
            tame &= view
                .out_edges(u)
                .all(|(_, volume)| volume.is_finite() && volume >= 0.0);
            degree = degree
                .max(view.children(u).len())
                .max(view.parents(u).len());
            let term = ((memory + view.in_sum(u)) + view.out_sum(u)) + ext;
            lo = lo.max(term);
            sum += term;
        }
        if !tame || !sum.is_finite() {
            return PeakBounds::exact(self.best().0);
        }
        self.topo_order("best_traversal requires a DAG");
        let hi = peak_of(&self.view, self.topo.iter().copied());
        let factor = (2 * self.view.len() + 4 * degree + 24) as f64 * f64::EPSILON;
        let lo = lo - factor * sum;
        if lo >= hi {
            // `lo ≤ r ≤ hi` pins `r` to `hi`, and `best` keeps the
            // topological peak's bits unless another is strictly smaller.
            return PeakBounds::exact(hi);
        }
        PeakBounds { lo, hi }
    }

    /// [`Workspace::best`] with the winning order, as ids of the
    /// viewed graph.
    pub fn best_traversal(&mut self) -> Traversal {
        let (peak, strategy) = self.best();
        let order = match strategy {
            Strategy::Topological => &self.topo,
            Strategy::Greedy => &self.greedy,
            Strategy::SeriesParallel => &self.sp,
        };
        let members = self.view.members();
        Traversal {
            order: order.iter().map(|&u| members[u as usize]).collect(),
            peak,
        }
    }
}

/// The strategies of [`Workspace::best`], in the order they are tried.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Strategy {
    Topological,
    Greedy,
    SeriesParallel,
}

#[cfg(test)]
mod tests {
    use super::TALLY;
    use dhp_dagp::{BalanceWeight, PartitionConfig};
    use dhp_wfgen::{Family, WorkflowInstance};

    /// The one-pass answer is not inert: dagP cuts a fork-join into
    /// stages of independent tasks, and at least 30 of the 35
    /// multi-task Step-1 blocks of blast-1000 at `k' = 36` take it —
    /// exactly the blocks without an internal edge.
    #[test]
    fn most_step1_blocks_of_a_fork_join_are_answered_in_one_pass() {
        let g = WorkflowInstance::simulated(Family::Blast, 1_000, 17).graph;
        // Step 1's partition: dagP balanced on task work.
        let cfg = PartitionConfig {
            balance: BalanceWeight::Work,
            ..PartitionConfig::default()
        };
        let blocks = dhp_dagp::partition(&g, 36, &cfg).members();
        let (mut multi, mut one_pass) = (0, 0);
        for members in blocks.iter().filter(|m| m.len() > 1) {
            TALLY.set(0);
            crate::block_peak(&g, members);
            let edge_free = g.induced_subgraph(members).0.edge_count() == 0;
            assert_eq!(TALLY.get(), u64::from(edge_free), "{members:?}");
            multi += 1;
            one_pass += TALLY.get();
        }
        assert_eq!(multi, 35);
        assert!(one_pass >= 30, "{one_pass} of {multi} blocks");
    }
}
