//! Report assembly: per-member finalisation, fleet-metric merging, and
//! the serialisable [`FederationReport`].

// Digest-pinned output: no hash-ordered collection may reach it.
#![deny(clippy::disallowed_types)]

use super::routing::RoutingPolicy;
use super::shard::MemberShard;
use crate::cache::SolveCache;
use crate::engine::{finalize, OnlineConfig, ServeOutcome};
use crate::report::{FleetMetrics, ServeReport};
use crate::submission::peak_overlap_of;
use serde::{Deserialize, Serialize};
#[cfg(debug_assertions)]
use std::collections::BTreeSet;

/// Everything one federated serving run reports: per-cluster
/// [`ServeReport`]s plus fleet-level merged metrics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FederationReport {
    /// Routing policy name.
    pub routing: String,
    /// Admission policy name (shared by every member).
    pub policy: String,
    /// Solver name.
    pub algorithm: String,
    /// Total processors across the federation.
    pub total_procs: usize,
    /// Cross-cluster spillover migrations (a workflow leaving its home
    /// queue for a member that could place it immediately).
    #[serde(default)]
    pub spillovers: u64,
    /// Per-member serving reports, in member-index order. Each record
    /// carries its member's `cluster_id`.
    pub clusters: Vec<ServeReport>,
    /// Fleet-level merged metrics: counters are exact sums of the
    /// per-cluster ones, means are completion-weighted, the horizon and
    /// utilisation window span the whole federation, and
    /// `peak_concurrency` is recomputed over the merged record set.
    pub fleet: FleetMetrics,
    /// Set when a configured cache snapshot (`--cache-file`) existed
    /// but could not be restored — the run degraded to a cold start.
    /// Absent on warm starts and when persistence is off.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub recovery: Option<String>,
}

impl FederationReport {
    /// Pretty-printed JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| unreachable!("report serialisation cannot fail: {e}"))
    }

    /// A short human-readable summary: the merged fleet line plus one
    /// line per member.
    pub fn summary(&self) -> String {
        let f = &self.fleet;
        let mut s = format!(
            "federation · routing {} · policy {} · {} members · {} procs\n\
             completed {:>5}   rejected {:>4}   spillovers {:>4}   horizon {:.2}\n\
             throughput {:.4}/t   utilization {:.1}%   peak concurrency {}\n\
             wait   mean {:.2}  max {:.2}\n\
             stretch mean {:.3}  max {:.3}\n\
             solve cache hits {}  misses {}  evictions {}   \
             leases grown {}  shrunk {}   lost {}\n",
            self.routing,
            self.policy,
            self.clusters.len(),
            self.total_procs,
            f.completed,
            f.rejected,
            self.spillovers,
            f.horizon,
            f.throughput,
            100.0 * f.utilization,
            f.peak_concurrency,
            f.mean_wait,
            f.max_wait,
            f.mean_stretch,
            f.max_stretch,
            f.solve_cache_hits,
            f.solve_cache_misses,
            f.solve_cache_evictions,
            f.lease_grown,
            f.lease_shrunk,
            f.lost,
        );
        for (i, c) in self.clusters.iter().enumerate() {
            s.push_str(&format!(
                "  cluster {i}: {} procs · completed {} · rejected {} · \
                 mean wait {:.2} · utilization {:.1}%\n",
                c.cluster_procs,
                c.fleet.completed,
                c.fleet.rejected,
                c.fleet.mean_wait,
                100.0 * c.fleet.utilization,
            ));
        }
        s
    }
}

/// Result of [`serve_federation`](super::serve_federation): the
/// serialisable report plus every member's full [`ServeOutcome`]
/// (placements and reservation records included), in member-index
/// order.
#[derive(Clone, Debug)]
pub struct FederationOutcome {
    /// Per-cluster reports and merged fleet metrics.
    pub report: FederationReport,
    /// One engine outcome per member cluster.
    pub outcomes: Vec<ServeOutcome>,
}

/// Finalises every shard (in member-index order — the deferred
/// baseline batches and the report assembly are order-sensitive) and
/// assembles the federation outcome. Each member's solver statistics
/// are exactly the charges its shard accumulated.
pub(super) fn assemble(
    shards: Vec<MemberShard>,
    cfg: &OnlineConfig,
    cache: &SolveCache,
    routing: RoutingPolicy,
    spillovers: u64,
) -> FederationOutcome {
    let outcomes: Vec<ServeOutcome> = shards
        .into_iter()
        .map(|sh| finalize(sh.state, cfg, cache, sh.stats))
        .collect();
    let clusters: Vec<ServeReport> = outcomes.iter().map(|o| o.report.clone()).collect();
    let total_procs: usize = clusters.iter().map(|c| c.cluster_procs).sum();
    let fleet = merge_fleet(&clusters, total_procs);
    FederationOutcome {
        report: FederationReport {
            routing: routing.name().to_string(),
            policy: cfg.policy.name().to_string(),
            algorithm: cfg.algorithm.name().to_string(),
            total_procs,
            spillovers,
            clusters,
            fleet,
            // The fleet-level note is stamped by the serve loop, which
            // owns the snapshot; member reports never carry one.
            recovery: None,
        },
        outcomes,
    }
}

/// Merges the per-cluster fleet metrics into the federation-level
/// block: exact sums for counters and solver statistics,
/// completion-weighted means, a federation-wide utilisation window, and
/// peak concurrency recomputed over the merged record set (read in
/// place, never copied). Debug
/// builds additionally verify the per-member ↔ fleet partition
/// invariant: every submission id appears in exactly one terminal
/// class (completed, rejected, or lost) across the whole federation,
/// and each member's counters equal its record lengths.
pub(super) fn merge_fleet(clusters: &[ServeReport], total_procs: usize) -> FleetMetrics {
    #[cfg(debug_assertions)]
    {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        for (i, c) in clusters.iter().enumerate() {
            debug_assert_eq!(
                c.fleet.completed,
                c.workflows.len(),
                "member {i}: completed counter must equal its record count"
            );
            debug_assert_eq!(
                c.fleet.lost,
                c.lost.len(),
                "member {i}: lost counter must equal its record count"
            );
            let ids = c
                .workflows
                .iter()
                .map(|r| r.id)
                .chain(c.rejected.iter().map(|r| r.id))
                .chain(c.lost.iter().map(|r| r.id));
            for id in ids {
                debug_assert!(
                    seen.insert(id),
                    "workflow {id} appears in two terminal classes across the fleet"
                );
            }
        }
    }
    let completed: usize = clusters.iter().map(|c| c.fleet.completed).sum();
    let rejected: usize = clusters.iter().map(|c| c.fleet.rejected).sum();
    let lost: usize = clusters.iter().map(|c| c.fleet.lost).sum();
    let horizon = clusters.iter().map(|c| c.fleet.horizon).fold(0.0, f64::max);
    let window_start = clusters
        .iter()
        .filter(|c| c.fleet.completed > 0)
        .map(|c| c.fleet.window_start)
        .fold(f64::INFINITY, f64::min)
        .min(horizon);
    let window = horizon - window_start;
    // Per-member busy processor-time, reconstructed exactly from each
    // member's utilisation over its own window.
    let busy: f64 = clusters
        .iter()
        .map(|c| {
            c.fleet.utilization * (c.fleet.horizon - c.fleet.window_start) * c.cluster_procs as f64
        })
        .sum();
    let weighted = |f: &dyn Fn(&FleetMetrics) -> f64| -> f64 {
        if completed == 0 {
            return 0.0;
        }
        clusters
            .iter()
            .map(|c| f(&c.fleet) * c.fleet.completed as f64)
            .sum::<f64>()
            / completed as f64
    };
    let maxed = |f: &dyn Fn(&FleetMetrics) -> f64| -> f64 {
        clusters.iter().map(|c| f(&c.fleet)).fold(0.0, f64::max)
    };
    FleetMetrics {
        completed,
        rejected,
        lost,
        horizon,
        window_start,
        throughput: if window > 0.0 {
            completed as f64 / window
        } else {
            0.0
        },
        utilization: if window > 0.0 {
            busy / (window * total_procs as f64)
        } else {
            0.0
        },
        mean_wait: weighted(&|f| f.mean_wait),
        max_wait: maxed(&|f| f.max_wait),
        mean_stretch: weighted(&|f| f.mean_stretch),
        max_stretch: maxed(&|f| f.max_stretch),
        mean_slowdown: weighted(&|f| f.mean_slowdown),
        max_slowdown: maxed(&|f| f.max_slowdown),
        mean_lease: weighted(&|f| f.mean_lease),
        peak_concurrency: peak_overlap_of(clusters.iter().flat_map(|c| &c.workflows)),
        solve_cache_hits: clusters.iter().map(|c| c.fleet.solve_cache_hits).sum(),
        solve_cache_misses: clusters.iter().map(|c| c.fleet.solve_cache_misses).sum(),
        baseline_solves: clusters.iter().map(|c| c.fleet.baseline_solves).sum(),
        solve_cache_evictions: clusters.iter().map(|c| c.fleet.solve_cache_evictions).sum(),
        sim_cache_hits: clusters.iter().map(|c| c.fleet.sim_cache_hits).sum(),
        sim_cache_misses: clusters.iter().map(|c| c.fleet.sim_cache_misses).sum(),
        lease_grown: clusters.iter().map(|c| c.fleet.lease_grown).sum(),
        lease_shrunk: clusters.iter().map(|c| c.fleet.lease_shrunk).sum(),
        requeues: clusters.iter().map(|c| c.fleet.requeues).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::routing::RoutingPolicy;
    use super::super::serve_federation;
    use super::super::testutil::{burst, member};
    use super::*;
    use crate::policy::AdmissionPolicy;
    use dhp_platform::Federation;

    #[test]
    fn per_cluster_metrics_sum_to_fleet_metrics() {
        let fed = Federation::new(vec![member(), member()]);
        for routing in RoutingPolicy::ALL {
            let out = serve_federation(&fed, burst(12), &OnlineConfig::default(), routing);
            let f = &out.report.fleet;
            let sum = |g: &dyn Fn(&FleetMetrics) -> u64| -> u64 {
                out.report.clusters.iter().map(|c| g(&c.fleet)).sum()
            };
            assert_eq!(
                f.completed,
                out.report
                    .clusters
                    .iter()
                    .map(|c| c.fleet.completed)
                    .sum::<usize>()
            );
            assert_eq!(
                f.rejected,
                out.report
                    .clusters
                    .iter()
                    .map(|c| c.fleet.rejected)
                    .sum::<usize>()
            );
            assert_eq!(f.solve_cache_hits, sum(&|f| f.solve_cache_hits));
            assert_eq!(f.solve_cache_misses, sum(&|f| f.solve_cache_misses));
            assert_eq!(f.baseline_solves, sum(&|f| f.baseline_solves));
            assert_eq!(f.sim_cache_hits, sum(&|f| f.sim_cache_hits));
            assert_eq!(f.sim_cache_misses, sum(&|f| f.sim_cache_misses));
            assert_eq!(f.lease_grown, sum(&|f| f.lease_grown));
            assert_eq!(f.requeues, sum(&|f| f.requeues));
            // Every workflow served exactly once, on a real member.
            let mut ids: Vec<usize> = out
                .report
                .clusters
                .iter()
                .flat_map(|c| c.workflows.iter().map(|r| r.id))
                .collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..12).collect::<Vec<_>>(), "{}", routing.name());
            for (i, c) in out.report.clusters.iter().enumerate() {
                for r in &c.workflows {
                    assert_eq!(r.cluster_id, Some(i));
                }
            }
        }
    }

    #[test]
    fn federation_report_roundtrips_and_summarises() {
        let fed = Federation::new(vec![member(), member()]);
        let out = serve_federation(
            &fed,
            burst(4),
            &OnlineConfig {
                policy: AdmissionPolicy::FifoBackfill,
                ..OnlineConfig::default()
            },
            RoutingPolicy::BestFit,
        );
        let json = out.report.to_json();
        assert!(!json.contains("recovery"));
        let back: FederationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, out.report);
        // A report's JSON with every `#[serde(default)]` key removed
        // still parses, to the defaults.
        let bare: FederationReport = serde_json::from_str(
            r#"{
                "routing": "best-fit", "policy": "fifo", "algorithm": "daghetpart",
                "total_procs": 4, "clusters": [],
                "fleet": {
                    "completed": 1, "rejected": 1, "horizon": 12.5, "window_start": 0,
                    "throughput": 0.08, "utilization": 0.5, "mean_wait": 0, "max_wait": 0,
                    "mean_stretch": 1.25, "max_stretch": 1.25, "mean_slowdown": 1,
                    "max_slowdown": 1, "mean_lease": 2, "peak_concurrency": 1
                }
            }"#,
        )
        .unwrap();
        assert_eq!((bare.total_procs, bare.fleet.completed), (4, 1));
        assert_eq!((bare.spillovers, bare.fleet.solve_cache_hits), (0, 0));
        assert_eq!(bare.recovery, None);
        let s = out.report.summary();
        assert!(s.contains("routing best-fit"), "{s}");
        assert!(s.contains("cluster 0"), "{s}");
        assert!(s.contains("cluster 1"), "{s}");
    }
}
