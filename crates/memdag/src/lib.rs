#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # dhp-memdag
//!
//! Peak-memory-minimising sequential traversals of workflow DAGs — the
//! `memDag` substrate of the paper (Kayaaslan, Lambert, Marchal, Uçar,
//! *Scheduling series-parallel task graphs to minimize peak memory*,
//! TCS 2018). The scheduler uses it to compute the memory requirement
//! `r_{V_i}` of a block: the peak memory of the best sequential execution
//! order of the block's tasks.
//!
//! ## Memory model
//!
//! Executing a block's tasks in a sequential order `σ`, the memory in use
//! while executing task `u` is
//!
//! * the task's own working memory `m_u`,
//! * all its input and output files (edges incident to `u`), and
//! * every *internal* file `(v, w)` produced earlier (`v` before `u`) and
//!   not yet consumed (`w` after `u`): these stay resident between the
//!   producer's and consumer's steps.
//!
//! Files crossing the block boundary (modelled by the per-task *external
//! load*) are charged while the incident task executes, so a singleton
//! block reproduces the paper's `r_u = Σ c_in + Σ c_out + m_u`.
//!
//! ## Algorithms
//!
//! * [`liveness::traversal_peak`] — exact O(V+E) evaluation of any order.
//! * [`spdecomp`] — recursive series/parallel/complex decomposition of an
//!   arbitrary DAG (exact series-parallel tree when the graph is
//!   two-terminal node-series-parallel).
//! * [`sptraversal`] — Liu-style hill–valley profile merging over the
//!   decomposition, optimal in the classical tree/SP cases.
//! * [`greedy`] — memory-greedy list traversal used both inside `Complex`
//!   cores and as an independent strategy.
//! * [`best_traversal`] — runs all strategies and returns the best order
//!   found together with its exactly evaluated peak; a graph or block
//!   whose tasks share no file gets the answer all of them would give,
//!   its smallest-id-first order, from one evaluation;
//!   [`block_traversal`] / [`block_peak`] ask the same of a block of a
//!   larger graph without building its sub-DAG.
//! * [`block_bounds`] — certified bounds `lo ≤ r ≤ hi` on
//!   [`block_peak`] from one topological order and its peak, for callers
//!   that only *compare* a requirement with something: they need the
//!   kernel's bits only when the bounds straddle it.
//! * [`dpopt::dp_min_peak`] — exact optimum by subset DP (≤ 20 nodes),
//!   the referee used by the property tests.
//!
//! ## One kernel, one workspace
//!
//! Every entry point above runs the same flat kernel. The graph in
//! question — a whole [`dhp_dag::Dag`], or the members of a block viewed
//! in place — is written once into a [`dhp_dag::BlockView`] (dense
//! local ids, CSR adjacency in the parent's edge order, per-task
//! input / output sums, boundary files folded into the external load),
//! and the topological order, the greedy order, the decomposition, the
//! merge and the three evaluations all read that one representation.
//! The view and every piece of scratch live in one workspace:
//!
//! * the view itself, with its parent-id table (the only table as long
//!   as the workflow; wiped member by member after each fill);
//! * the three candidate orders, the in-degree table and the ready
//!   heaps of the topological and greedy orders, the greedy keys;
//! * the decomposition: one node buffer that series splits cut into
//!   ranges and parallel splits sort by component, the position table
//!   that makes "is `v` in this set" a range check, separator flags,
//!   one difference array, component ids and counting-sort slots, the
//!   flat pre-order tree;
//! * the merge: a stack of segments (ranges of the order buffer with
//!   their peak and delta), the queue bounds, the heap of queue heads.
//!
//! Tables are rewritten from their start by each question, heaps and
//! stacks are drained by the routine that fills them, so nothing
//! carries over. A block question ([`block_bounds`], [`block_peak`],
//! [`block_traversal`]) runs on its thread's workspace, and one no
//! larger than an earlier block on the same thread allocates nothing. A
//! `&Dag` is simply the view whose members are all its nodes: there is
//! no second implementation for whole workflows. A whole-graph question
//! ([`best_traversal`], [`min_peak`] and the per-strategy entry points)
//! runs on a workspace of its own and drops it with the answer, so no
//! thread keeps tables sized for a whole workflow under the block
//! questions that follow.
//!
//! ```
//! // A fork where one branch produces a big intermediate file: the
//! // traversal engine finds an order whose peak matches the exact DP
//! // optimum.
//! let mut g = dhp_dag::Dag::new();
//! let s = g.add_node(0.0, 1.0);
//! let a = g.add_node(0.0, 1.0);
//! let b = g.add_node(0.0, 1.0);
//! let t = g.add_node(0.0, 1.0);
//! g.add_edge(s, a, 1.0);
//! g.add_edge(s, b, 1.0);
//! g.add_edge(a, t, 8.0); // heavy intermediate
//! g.add_edge(b, t, 1.0);
//!
//! let ext = vec![0.0; 4];
//! let found = dhp_memdag::best_traversal(&g, &ext);
//! let optimum = dhp_memdag::dp_min_peak(&g, &ext);
//! assert!(found.peak >= optimum);
//! assert_eq!(found.order.len(), 4);
//! ```

pub mod dpopt;
pub mod greedy;
pub mod liveness;
pub mod spdecomp;
pub mod sptraversal;
mod workspace;

pub use dpopt::dp_min_peak;

use dhp_dag::{Dag, NodeId};
use workspace::{with_workspace, Workspace};

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference_tests;

/// A traversal and its exactly evaluated peak memory.
#[derive(Clone, Debug, PartialEq)]
pub struct Traversal {
    /// Topological order of all tasks.
    pub order: Vec<NodeId>,
    /// Peak memory of `order` under the block memory model.
    pub peak: f64,
}

/// Computes the best traversal found over all implemented strategies
/// (series-parallel merge, memory-greedy, plain topological), evaluating
/// each exactly and keeping the minimum.
///
/// `ext[u]` is the external (boundary) load of task `u`: the total volume
/// of files exchanged with tasks outside this DAG, charged while `u`
/// executes. Pass zeroes for a standalone workflow.
///
/// The call allocates its workspace and frees it before returning: the
/// only heap it leaves behind is the order it returns. A whole workflow
/// is asked about once (DagHetMem's traversal, a requirement for
/// fitting), and tables sized for it would otherwise stay on the thread
/// under every later block question.
///
/// # Panics
/// Panics if `g` is cyclic or `ext.len() != g.node_count()`.
pub fn best_traversal(g: &Dag, ext: &[f64]) -> Traversal {
    assert_eq!(ext.len(), g.node_count(), "ext length mismatch");
    if g.is_empty() {
        return Traversal {
            order: Vec::new(),
            peak: 0.0,
        };
    }
    let ws = &mut Workspace::default();
    ws.load_graph(g, ext);
    ws.best_traversal()
}

/// Convenience wrapper: the minimum peak memory found for `g` with no
/// external load (`r` of the whole workflow on one processor). Like
/// [`best_traversal`], it answers on a workspace of its own and leaves
/// no heap behind, so whole-workflow tables do not stay on the thread.
pub fn min_peak(g: &Dag) -> f64 {
    if g.is_empty() {
        return 0.0;
    }
    let ws = &mut Workspace::default();
    ws.view.fill_graph(g);
    ws.best().0
}

/// [`best_traversal`] of the block `members` of `g` (any order, no
/// duplicates): the sub-DAG the members induce, each member's external
/// load being the total volume of its files to and from the rest of
/// `g`. The order is in ids of `g`.
///
/// The block is viewed in place ([`dhp_dag::BlockView`]) — no sub-DAG
/// is built — and the answer is, to the bit and to the task, that of
/// [`best_traversal`] on the `Dag` the ascending members induce.
///
/// # Panics
/// Panics if the induced sub-DAG is cyclic, or a member is listed twice
/// or is not a node of `g`.
pub fn block_traversal(g: &Dag, members: &[NodeId]) -> Traversal {
    if members.is_empty() {
        return Traversal {
            order: Vec::new(),
            peak: 0.0,
        };
    }
    with_workspace(|ws| {
        ws.view.fill_block(g, members);
        ws.best_traversal()
    })
}

/// The peak of [`block_traversal`] without its order: on a workspace
/// that has seen a block this large, it allocates nothing.
pub fn block_peak(g: &Dag, members: &[NodeId]) -> f64 {
    if members.is_empty() {
        return 0.0;
    }
    with_workspace(|ws| {
        ws.view.fill_block(g, members);
        ws.best().0
    })
}

/// Certified bounds `lo ≤ r ≤ hi` on a block's requirement `r`, the
/// peak [`block_peak`] returns ([`block_bounds`]).
///
/// The bounds are *exact* when `lo` and `hi` are the same bits: then
/// both are `r`, to the bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeakBounds {
    /// No order the kernel can return has a smaller computed peak.
    pub lo: f64,
    /// The computed peak of the block's smallest-id-first topological
    /// order, which the kernel replaces only by a strictly smaller one.
    pub hi: f64,
}

impl PeakBounds {
    /// The bounds of a known requirement `r`.
    pub fn exact(r: f64) -> Self {
        Self { lo: r, hi: r }
    }

    /// True when `lo` and `hi` are the same bits, which are then `r`'s.
    pub fn is_exact(self) -> bool {
        self.lo.to_bits() == self.hi.to_bits()
    }

    /// `r ≤ memory`, when the bounds decide it: `Some(true)` if
    /// `hi ≤ memory`, `Some(false)` if `lo > memory`, `None` when the
    /// interval straddles `memory` (or a NaN is involved) and only `r`
    /// itself can tell.
    pub fn fits(self, memory: f64) -> Option<bool> {
        if self.hi <= memory {
            Some(true)
        } else if self.lo > memory {
            Some(false)
        } else {
            None
        }
    }
}

/// Certified bounds on [`block_peak`]`(g, members)`, for the price of
/// one topological order and two passes over the block — no greedy
/// order, decomposition or merge. A caller that only *compares* the
/// requirement with something decides on the bounds and asks
/// [`block_peak`] only when they straddle it; every decision is then
/// the one the exact value would make.
///
/// * A block without an internal edge gets its exact answer, in the
///   one pass [`block_peak`] takes for it.
/// * Any negative or non-finite memory, external load or file volume,
///   or a sum `S` (below) that overflows, gets the exact answer of the
///   full kernel.
/// * Otherwise `hi` is the computed peak of the topological order that
///   the kernel evaluates first and replaces only by a strictly smaller
///   peak, so `r ≤ hi` holds bit for bit; and
///   `lo = max_u τ_u − (2n + 4Δ + 24)·ε·S`, where
///   `τ_u = ((m_u + in_u) + out_u) + ext_u` as computed,
///   `S` is the computed sum of every `τ_u`, `n` the block's size, `Δ`
///   its largest in- or out-degree, and `ε = f64::EPSILON`.
///
/// **Why `lo ≤ r`.** Take any topological order, as every strategy's
/// is, and the task `t` of the largest `τ`. In real arithmetic the
/// step running `t` holds every internal input of `t` resident (its
/// producers ran, `t` has not), so the step's value is at least `t`'s
/// own term. Computed, the step's value differs from its real one by
/// the rounding of the resident sum (at most `γ_n` of the volumes it
/// ever added), of the per-task input and output sums (at most `γ_Δ`
/// each), and of the step's three additions (`γ_3`), while `τ_t`
/// carries the rounding of its own three (`γ_3`); with `u = ε/2` that
/// is under `1.01·(n + 2Δ + 9)·u` times the real sum of all terms,
/// which is below `1.01·S`. The slack subtracted,
/// `4·(n + 2Δ + 12)·u·S`, is about four times that and also covers
/// the rounding of the subtraction itself, so every order's computed
/// peak — and hence `r`, the smallest of three — is at least `lo`.
///
/// On a workspace that has seen a block this large it allocates
/// nothing.
///
/// # Panics
/// Panics if the induced sub-DAG is cyclic, or a member is listed twice
/// or is not a node of `g`.
pub fn block_bounds(g: &Dag, members: &[NodeId]) -> PeakBounds {
    if members.is_empty() {
        return PeakBounds::exact(0.0);
    }
    with_workspace(|ws| {
        ws.view.fill_block(g, members);
        ws.bounds()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;

    #[test]
    fn empty_graph() {
        let g = Dag::new();
        let t = best_traversal(&g, &[]);
        assert_eq!(t.peak, 0.0);
        assert!(t.order.is_empty());
    }

    #[test]
    fn single_node_peak_is_requirement() {
        let mut g = Dag::new();
        g.add_node(1.0, 42.0);
        let t = best_traversal(&g, &[7.0]);
        assert_eq!(t.peak, 49.0);
    }

    #[test]
    fn chain_peak_is_max_task_requirement() {
        // In a chain, memory never accumulates beyond one task's
        // requirement: r_u = in + out + m.
        let g = builder::chain(6, 1.0, 10.0, 3.0);
        let t = best_traversal(&g, &[0.0; 6]);
        // middle tasks: 3 (in) + 3 (out) + 10 = 16
        assert_eq!(t.peak, 16.0);
    }

    /// A file of infinite or NaN size (WfCommons sizes are not checked)
    /// gets an answer in debug builds as in release: the liveness
    /// residual `inf - inf` is not a leftover file.
    #[test]
    fn non_finite_volumes_are_answered() {
        for volume in [f64::INFINITY, f64::NAN] {
            let mut g = Dag::new();
            let a = g.add_node(1.0, 2.0);
            let b = g.add_node(1.0, 3.0);
            let c = g.add_node(1.0, 4.0);
            g.add_edge(a, b, volume);
            g.add_edge(b, c, 1.0);
            let whole = best_traversal(&g, &[0.0; 3]);
            assert_eq!(whole.order, [a, b, c]);
            let block = block_traversal(&g, &[b, a]);
            assert_eq!(block.order, [a, b]);
            assert_eq!(block_peak(&g, &[a, b]).to_bits(), block.peak.to_bits());
            if volume.is_infinite() {
                assert_eq!((whole.peak, block.peak), (volume, volume));
            }
        }
    }

    #[test]
    fn best_is_never_worse_than_topo() {
        for seed in 0..10 {
            let g = builder::gnp_dag_weighted(24, 0.2, seed);
            let ext = vec![0.0; 24];
            let topo = dhp_dag::topo::topo_sort(&g).unwrap();
            let tp = liveness::traversal_peak(&g, &ext, &topo);
            let best = best_traversal(&g, &ext);
            assert!(best.peak <= tp + 1e-9);
            assert!(dhp_dag::topo::is_topological_order(&g, &best.order));
        }
    }
}
