#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # dhp-dag
//!
//! Directed-acyclic-graph substrate used by the `daghetpart` workflow
//! mapper, a Rust reproduction of Kulagina, Meyerhenke and Benoit,
//! *Mapping Large Memory-constrained Workflows onto Heterogeneous
//! Platforms* (ICPP 2024).
//!
//! The crate provides the data structure and graph algorithms every other
//! crate in the workspace builds on:
//!
//! * [`Dag`] — a weighted directed graph tuned for workflow DAGs: each
//!   node carries a `work` (computation) and `memory` weight, each edge a
//!   communication `volume` (the size of the file written by the source
//!   task and read by the target task). It lives in a few flat arrays:
//!   the weights, one edge-id pool per direction with a per-node span
//!   into each, and one label arena; `Clone` compacts them, so a copy
//!   is at most eight heap blocks at any size (it was up to three a
//!   task), and a task costs 48 bytes plus its edge ids and label text
//!   (88 bytes and three heap blocks before). See [`graph`].
//! * Topological sorting and level computation ([`topo`]).
//! * Cycle detection and extraction ([`cycles`]), needed when merging
//!   blocks of a partition may create cyclic quotient graphs.
//! * Bottom weights over any DAG ([`critical`]).
//! * Partitions and their quotient graph ([`quotient`]): the flat
//!   [`FlatQuotient`] and the passes of [`PassScratch`] (acyclicity,
//!   makespan per paper Eq. (1)–(2), critical path) that every caller
//!   runs; [`QuotientGraph`] materialises it as a [`Dag`].
//! * [`BlockView`] — a block's induced sub-DAG as a flat, refillable
//!   view of the parent graph ([`view`]), for questions that need the
//!   sub-DAG's shape but not a graph of their own.
//! * GraphViz DOT import/export ([`dot`]).
//! * Deterministic random-graph builders for tests and benchmarks
//!   ([`builder`]).
//!
//! The graph is index-based: nodes and edges are identified by [`NodeId`]
//! and [`EdgeId`] newtypes wrapping dense `u32` indices, so all per-node
//! state elsewhere in the workspace can live in flat `Vec`s.
//!
//! ```
//! use dhp_dag::quotient::is_acyclic_partition;
//! use dhp_dag::{Dag, Partition, QuotientGraph};
//!
//! // A diamond: s -> {a, b} -> t with per-task (work, memory) weights.
//! let mut g = Dag::new();
//! let s = g.add_node(1.0, 2.0);
//! let a = g.add_node(4.0, 8.0);
//! let b = g.add_node(3.0, 8.0);
//! let t = g.add_node(1.0, 2.0);
//! for (u, v) in [(s, a), (s, b), (a, t), (b, t)] {
//!     g.add_edge(u, v, 1.5); // file volume
//! }
//! assert!(g.check_acyclic().is_ok());
//! assert_eq!(dhp_dag::topo::topo_sort(&g).unwrap().len(), 4);
//!
//! // Partition {s,a} | {b,t}: the quotient graph stays acyclic and
//! // aggregates node works and crossing volumes.
//! let p = Partition::from_raw(&[0, 0, 1, 1]);
//! assert!(is_acyclic_partition(&g, &p));
//! let q = QuotientGraph::build(&g, &p);
//! assert_eq!(q.graph.node_count(), 2);
//! ```

pub mod builder;
pub mod critical;
pub mod cycles;
pub mod dot;
pub mod fingerprint;
pub mod graph;
pub mod quotient;
pub mod topo;
pub mod util;
pub mod view;

pub use graph::{Dag, EdgeData, EdgeId, NodeData, NodeId};
pub use quotient::{BlockId, FlatQuotient, Partition, PassScratch, QuotientGraph};
pub use view::BlockView;

#[cfg(test)]
mod proptests;
