// Product code never uses `unsafe`; the test build downgrades the
// forbid to a deny so the allocation-count pins in `alloc_tests` can
// install a counting global allocator (the one thing that cannot be
// written without an `unsafe impl`).
#![cfg_attr(not(test), forbid(unsafe_code))]
#![cfg_attr(test, deny(unsafe_code))]
#![warn(missing_docs)]

//! # dhp-core
//!
//! The paper's contribution: heuristics for mapping large
//! memory-constrained workflow DAGs onto heterogeneous platforms
//! (processors with individual memory sizes and speeds), minimising the
//! makespan while guaranteeing that every block of the induced acyclic
//! partition fits the memory of its processor (the **DAGP-PM** problem).
//!
//! Two solvers are provided:
//!
//! * [`baseline::dag_het_mem`] — **DagHetMem** (paper §4.1): follows a
//!   memory-optimal traversal of the whole workflow and greedily fills
//!   processors in decreasing order of memory. Produces valid mappings
//!   but ignores parallelism and speed heterogeneity.
//! * [`daghetpart::dag_het_part`] — **DagHetPart** (paper §4.2): the
//!   four-step partitioning-based heuristic — (1) acyclic DAG
//!   partitioning, (2) memory-aware block-to-processor assignment with
//!   recursive block splitting, (3) makespan-driven merging of unassigned
//!   blocks, (4) local search by block swaps and moves to idle faster
//!   processors.
//!
//! Both return a [`mapping::Mapping`] that can be validated with
//! [`mapping::validate`] and scored with [`makespan`].
//!
//! ```
//! use dhp_core::prelude::*;
//!
//! let g = dhp_dag::builder::fork_join(8, 10.0, 4.0, 2.0);
//! let cluster = dhp_platform::configs::default_cluster();
//! let result = dag_het_part(&g, &cluster, &DagHetPartConfig::default()).unwrap();
//! assert!(dhp_core::mapping::validate(&g, &cluster, &result.mapping).is_ok());
//! ```

pub mod baseline;
pub mod blockmem;
pub mod blocks;
pub mod daghetpart;
pub mod fitting;
pub mod heft;
pub mod makespan;
pub mod mapping;
pub mod metrics;
pub mod partial;
pub mod persist;
pub mod steps;
mod workspace;

#[cfg(test)]
mod alloc_tests;

pub use baseline::dag_het_mem;
pub use daghetpart::{dag_het_part, dag_het_part_traced, DagHetPartConfig, StepTrace};
pub use mapping::{Mapping, MappingError};
pub use metrics::MappingResult;

/// Errors shared by both heuristics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// The platform does not provide enough memory for the workflow (the
    /// paper's "no solution" outcome: the user should use a larger
    /// platform).
    NoSolution,
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoSolution => {
                write!(f, "platform has not enough resources for this workflow")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Hardware threads available to this process, probed once. On Linux
/// the standard library's probe re-reads the cgroup files on every
/// call (≈ 13 µs on the 2-core reference box), which is more
/// than a warm admission costs — so every "how many workers?" decision
/// in `dhp-core` and `dhp-online` reads this instead.
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Commonly used items.
pub mod prelude {
    pub use crate::baseline::dag_het_mem;
    pub use crate::daghetpart::{dag_het_part, dag_het_part_traced, DagHetPartConfig, StepTrace};
    pub use crate::makespan::makespan_of_mapping;
    pub use crate::mapping::{validate, Mapping};
    pub use crate::metrics::MappingResult;
    pub use crate::SchedError;
}
