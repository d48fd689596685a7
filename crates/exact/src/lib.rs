#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # dhp-exact
//!
//! Exact solver and makespan lower bounds for the **DAGP-PM** problem
//! (acyclic DAG partitioning + mapping onto heterogeneous processors
//! under per-processor memory constraints, minimising the bottom-weight
//! makespan of the quotient graph).
//!
//! DAGP-PM is NP-complete (paper §3.4), so this crate is not a competitor
//! to the heuristics in `dhp-core` — it is their *referee*: on instances
//! with up to ~10 tasks it enumerates all acyclic partitions and injective
//! processor assignments (with symmetry reduction and branch-and-bound
//! pruning) and returns a certified optimum under the exact same memory
//! model the heuristics use. The test suites use it to measure the
//! optimality gap of `DagHetPart` and to verify that the heuristics never
//! report "no solution" on instances that have one... within the solver's
//! reach.
//!
//! For larger instances, [`bounds`] provides valid makespan lower bounds
//! (critical path at top speed, aggregate work over aggregate speed) that
//! hold for every feasible mapping.
//!
//! ```
//! use dhp_exact::{solve, ExactConfig};
//!
//! let g = dhp_dag::builder::fork_join(3, 5.0, 1.0, 0.5);
//! let cluster = dhp_platform::Cluster::new(
//!     vec![
//!         dhp_platform::Processor::new("fast", 4.0, 64.0),
//!         dhp_platform::Processor::new("slow", 1.0, 64.0),
//!     ],
//!     1.0,
//! );
//! let optimum = solve(&g, &cluster, &ExactConfig::default())
//!     .expect("within size limits")
//!     .expect("feasible");
//! assert!(optimum.makespan > 0.0);
//! ```

pub mod bounds;
pub mod partitions;
pub mod solver;

pub use bounds::{critical_path_bound, makespan_lower_bound, total_work_bound};
pub use partitions::RestrictedGrowth;
pub use solver::{
    solve, solve_with_incumbent, ExactConfig, ExactError, ExactSolution, SearchStats,
};

#[cfg(test)]
mod proptests;
