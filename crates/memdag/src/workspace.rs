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
//! one allocates nothing. Only the view's parent-id table scales with
//! the workflow; it grows once, to the largest workflow the thread has
//! seen, and is wiped member by member after each fill.
//!
//! Each thread owns one (`with_workspace`): the `k'` workers of a
//! solve, the online engine's solver threads and a test's main thread
//! all find theirs warm after the first question.

use crate::greedy::{greedy_into, AllTasks, GreedyScratch};
use crate::liveness::peak_of;
use crate::spdecomp::Decomposition;
use crate::sptraversal::{sp_order_into, MergeScratch};
use crate::Traversal;
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

/// Runs `question` on this thread's workspace. A question asked from
/// inside another one (there is none in this crate) would get a fresh
/// workspace rather than a panic.
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
    pub fn best(&mut self) -> (f64, Strategy) {
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
