// Product code never uses `unsafe`; the test build downgrades the
// forbid to a deny so the allocation-count pins in `hotpath_tests`
// can install a counting global allocator (the one thing that cannot
// be written without an `unsafe impl`).
#![cfg_attr(not(test), forbid(unsafe_code))]
#![cfg_attr(test, deny(unsafe_code))]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # dhp-online
//!
//! An **online multi-workflow co-scheduling engine** on one shared
//! memory-heterogeneous cluster — the serving layer above the paper's
//! offline DAGP-PM heuristics.
//!
//! The paper maps a *single* workflow onto an *idle* platform. In a
//! production setting workflows arrive continuously and compete for the
//! same processors. This crate closes that gap without touching the
//! solvers: it slices the shared [`Cluster`](dhp_platform::Cluster)
//! into disjoint [`SubCluster`](dhp_platform::SubCluster) *leases*,
//! runs `dag_het_part`/`dag_het_mem` per lease
//! ([`dhp_core::Algorithm::solve`], memoized by the [`cache`]), executes each
//! mapping with the `dhp-sim` discrete-event simulator to fix its
//! completion instant, and advances a global virtual clock over
//! arrival/completion events.
//!
//! * [`Submission`]/[`submission::stream`] — workflow arrival streams
//!   (Poisson / uniform / burst, via [`dhp_wfgen::arrivals`]).
//! * [`AdmissionPolicy`] — FIFO (head-of-line blocking), FIFO with
//!   conservative backfilling (reservation-preserving),
//!   shortest-workflow-first, memory-fit-first.
//! * [`LeaseSizing`] — how many processors each workflow gets,
//!   optionally shrinking targets as the queue grows
//!   (`shrink_under_load`).
//! * [`serve`] — the engine; returns a [`ServeOutcome`] holding the
//!   serialisable [`ServeReport`] (per-workflow wait/service, the
//!   dedicated-cluster `stretch` and lease-relative `slowdown`, fleet
//!   throughput/utilisation) plus every [`Placement`] (lease + global
//!   mapping) for validation and replay.
//!
//! Runs are deterministic: a fixed `(cluster, submissions, config)`
//! triple always yields the identical report.
//!
//! ```
//! use dhp_online::prelude::*;
//! use dhp_wfgen::arrivals::ArrivalProcess;
//! use dhp_wfgen::Family;
//!
//! let subs = dhp_online::submission::stream(
//!     5, &[Family::Blast], (20, 40), &ArrivalProcess::Burst { at: 0.0 }, 42);
//! // Scale the shared platform once so the hottest task of the whole
//! // stream fits (the paper's §5.1.2 normalisation, fleet-wide).
//! let cluster = fit_cluster(&dhp_platform::configs::default_cluster(), &subs, 1.05);
//! let out = serve(&cluster, subs, &OnlineConfig::default());
//! assert_eq!(out.report.fleet.completed, 5);
//! for p in &out.placements {
//!     dhp_core::mapping::validate(&p.submission.instance.graph, &cluster, &p.mapping).unwrap();
//! }
//! ```

pub mod admission;
#[cfg(test)]
mod arrival_tests;
pub mod cache;
pub mod chaos;
pub mod engine;
#[cfg(test)]
mod engine_tests;
mod event;
pub mod federation;
mod free_set;
#[cfg(test)]
mod free_set_tests;
#[cfg(test)]
mod hotpath_tests;
pub mod lease;
pub mod policy;
mod queue;
#[cfg(test)]
mod queue_tests;
pub mod report;
#[cfg(test)]
mod shape_memo_tests;
#[cfg(test)]
mod solve_tests;
mod state;
pub mod submission;

// The solve cache's and its snapshot's unit tests, under the module
// paths their names have always carried (`partial::tests::*`,
// `persist::tests::*`).
#[cfg(test)]
#[path = "cache"]
mod partial {
    #[path = "partial_tests.rs"]
    mod tests;
}
#[cfg(test)]
#[path = "cache"]
mod persist {
    #[path = "persist_tests.rs"]
    mod tests;
}

pub use chaos::{FailureMode, MembershipEvent, MembershipEventSpec, MembershipPlan};
pub use engine::{
    fit_cluster, serve, serve_with_cache, OnlineConfig, PersistSpec, Placement, Regrow,
    ReservationRecord, ReservationTrigger, ServeOutcome,
};
pub use federation::{
    serve_federation, serve_federation_chaos, serve_federation_chaos_with_cache,
    serve_federation_with_cache, FederationOutcome, FederationReport, RoutingPolicy,
};
pub use policy::{AdmissionPolicy, LeaseSizing};
pub use report::{FleetMetrics, LostRecord, RejectedRecord, ServeReport, WorkflowRecord};
pub use submission::{peak_overlap, Submission};
// The content-addressed solve cache the engine memoizes with; exposed
// so callers can share one cache across [`serve_with_cache`] runs.
pub use cache::{SolveCache, SolveCacheStats};

/// Commonly used items.
pub mod prelude {
    pub use crate::cache::SolveCache;
    pub use crate::chaos::{FailureMode, MembershipPlan};
    pub use crate::engine::{
        fit_cluster, serve, serve_with_cache, OnlineConfig, PersistSpec, Placement, Regrow,
        ReservationRecord, ReservationTrigger, ServeOutcome,
    };
    pub use crate::federation::{
        serve_federation, serve_federation_chaos, serve_federation_chaos_with_cache,
        serve_federation_with_cache, FederationOutcome, FederationReport, RoutingPolicy,
    };
    pub use crate::policy::{AdmissionPolicy, LeaseSizing};
    pub use crate::report::ServeReport;
    pub use crate::submission::Submission;
    pub use dhp_platform::Federation;
}
