//! The content-addressed solve cache the engine memoizes lease solves
//! with, and its crash-safe snapshot.
//!
//! The offline heuristics map one workflow onto a whole
//! [`Cluster`](dhp_platform::Cluster). The online engine instead hands
//! each workflow a [`SubCluster`](dhp_platform::SubCluster) lease, runs
//! [`Algorithm::solve`](dhp_core::Algorithm::solve) on the lease view,
//! and needs the resulting mapping expressed in the *parent* cluster's
//! processor ids, so that fleet-level invariants (distinct processors
//! across concurrent workflows) can be checked against one shared id
//! space: a [`SubClusterSchedule`] holds both forms.
//!
//! Those solves go through a [`SolveCache`] keyed by `(fingerprint,
//! lease shape, algorithm, config hash)`. Inside the engine a solver
//! binds the last two once — the algorithm, its settings and the
//! settings' hash — and a view probes the cache with one bound solver,
//! so this module alone decides how a probe is keyed: the scheduling
//! layers pass a graph and a lease, never the algorithm, the settings
//! or the hash. The store survives a restart as a `DHPCACHE` snapshot
//! ([`SolveCache::save_to`] / [`SolveCache::load_from`]).

pub(crate) mod persist;
mod solve;
pub(crate) mod store;
#[cfg(test)]
#[path = "tally_tests.rs"]
pub(crate) mod tally;
mod view;

pub use persist::{temp_sibling, LoadSummary, SnapshotError};
pub use solve::SubClusterSchedule;
pub use store::{SolveCache, SolveCacheStats};

pub(crate) use solve::{remap_to_parent, solve_suffix, SuffixSolve};
pub(crate) use store::SimOutcome;
pub(crate) use view::{CacheView, ProbeKey, Solver, WarmProbe};
