//! Serialisable results of one serving run: per-workflow records and
//! fleet-level aggregates.

// Digest-pinned output: no hash-ordered collection may reach it.
#![deny(clippy::disallowed_types)]

use crate::state::Pending;
use serde::{Deserialize, Serialize};

/// `skip_serializing_if` helper: keeps pre-chaos reports byte-identical
/// by omitting the flag until a shrink actually happens.
fn is_false(b: &bool) -> bool {
    !*b
}

/// `skip_serializing_if` helper for the chaos counters.
fn is_zero_u64(n: &u64) -> bool {
    *n == 0
}

/// `skip_serializing_if` helper for the chaos counters.
fn is_zero_usize(n: &usize) -> bool {
    *n == 0
}

/// Metrics of one completed workflow.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkflowRecord {
    /// Submission id.
    pub id: usize,
    /// Instance name (family + size + index).
    pub name: String,
    /// Task count.
    pub tasks: usize,
    /// Arrival instant.
    pub arrival: f64,
    /// Instant the lease was granted and execution started.
    pub start: f64,
    /// Completion instant (simulated).
    pub finish: f64,
    /// `start - arrival`.
    pub wait: f64,
    /// Simulated execution time on the lease (`finish - start`).
    pub service: f64,
    /// `finish - arrival`.
    pub response: f64,
    /// Lease-relative slowdown `response / service` (>= 1; 1 = never
    /// waited). Distorted under load: a tiny lease inflates `service`
    /// and hides queueing delay — use `stretch` for cross-run
    /// comparisons.
    pub slowdown: f64,
    /// Dedicated-cluster stretch `response / baseline_makespan`: how
    /// much slower this workflow ran than it would have alone on the
    /// whole idle cluster. The load-independent denominator makes
    /// stretches comparable across policies and traffic levels.
    pub stretch: f64,
    /// Model makespan of this workflow scheduled alone on the whole
    /// idle cluster
    /// ([`SolveCache::dedicated_baseline`](crate::SolveCache::dedicated_baseline))
    /// — the denominator of `stretch`, solved off the admission critical
    /// path by the engine's deferred report-time baseline batch (one
    /// solve per unique topology when the solve cache is on).
    pub baseline_makespan: f64,
    /// Analytic (model) makespan the solver promised on the lease; the
    /// simulated `service` is never larger (paper §3.3).
    pub model_makespan: f64,
    /// Global processor ids of the lease, in grant order. After an
    /// elastic growth this is the *grown* lease; the extra processors
    /// joined at the growth instant, not at `start`.
    pub lease: Vec<u32>,
    /// Number of blocks of the chosen mapping.
    pub blocks: usize,
    /// True when elastic growth re-solved this workflow's suffix onto a
    /// grown lease mid-flight (`finish`, `service`, `response`,
    /// `slowdown`, `stretch` and `lease` all reflect the grown
    /// schedule). Absent/false in pre-elastic reports.
    #[serde(default)]
    pub lease_grown: bool,
    /// True when elastic shrinking reclaimed processors from this
    /// workflow mid-flight (`--elastic-shrink`): its not-yet-started
    /// suffix was re-solved on a reduced lease so arriving load could
    /// be admitted sooner. `finish`, `service`, `response`, `slowdown`,
    /// `stretch` and `lease` all reflect the shrunk schedule. Absent
    /// (and omitted from the JSON) in pre-chaos reports.
    #[serde(default, skip_serializing_if = "is_false")]
    pub lease_shrunk: bool,
    /// Federation member index of the cluster that served this
    /// workflow. `None` (and absent from the JSON) for single-cluster
    /// runs, so their reports keep the pre-federation schema
    /// byte-for-byte.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cluster_id: Option<usize>,
    /// How many times this workflow was requeued by a member failure
    /// under `--failure-mode requeue` before the run that completed it
    /// (0 = completed on its first attempt). Omitted from the JSON
    /// when 0, so pre-chaos reports keep their schema byte-for-byte.
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub requeues: u64,
}

/// A workflow the engine could not serve.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RejectedRecord {
    /// Submission id.
    pub id: usize,
    /// Instance name.
    pub name: String,
    /// Arrival instant.
    pub arrival: f64,
    /// Instant the engine gave up on it (the virtual clock at
    /// rejection). Equals `arrival` when the workflow was screened out
    /// on arrival; later when it queued first.
    pub rejected_at: f64,
    /// Time spent queued before rejection: `rejected_at - arrival`.
    pub wait: f64,
    /// Why it was rejected.
    pub reason: String,
    /// Federation member index of the cluster that rejected it; `None`
    /// (absent from the JSON) for single-cluster runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cluster_id: Option<usize>,
}

impl RejectedRecord {
    /// The record of giving up on `p` at `clock` on member
    /// `cluster_id`: the one place its `wait` is derived.
    pub(crate) fn of(p: &Pending, clock: f64, reason: String, cluster_id: Option<usize>) -> Self {
        RejectedRecord {
            id: p.id,
            name: p.submission.instance.name.clone(),
            arrival: p.arrival,
            rejected_at: clock,
            wait: clock - p.arrival,
            reason,
            cluster_id,
        }
    }
}

/// A workflow that was in service on a member that failed with
/// `--failure-mode lost`: its lease vanished with the member and the
/// engine does not retry it. Lost records are a third, disjoint
/// terminal class — every submission ends up in exactly one of
/// `workflows`, `rejected` or `lost`, and the fleet counters account
/// for all three exactly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LostRecord {
    /// Submission id.
    pub id: usize,
    /// Instance name.
    pub name: String,
    /// Task count.
    pub tasks: usize,
    /// Arrival instant.
    pub arrival: f64,
    /// Instant its (now voided) lease was granted.
    pub start: f64,
    /// The membership event instant the member failed at.
    pub failed_at: f64,
    /// Federation member index of the failed cluster it was running on.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cluster_id: Option<usize>,
}

/// Fleet-level aggregates over the whole run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FleetMetrics {
    /// Workflows completed.
    pub completed: usize,
    /// Workflows rejected (infeasible on this cluster).
    pub rejected: usize,
    /// End of the run: the last completion instant.
    pub horizon: f64,
    /// Start of the measured window: the first served arrival. Traces
    /// whose first workflow arrives late would otherwise count the
    /// leading dead time as idle capacity.
    pub window_start: f64,
    /// Completed workflows per unit of virtual time over the measured
    /// window (`horizon - window_start`), so late-starting traces are
    /// not deflated by leading dead time.
    pub throughput: f64,
    /// Busy processor-time divided by
    /// `(horizon - window_start) × cluster size`.
    pub utilization: f64,
    /// Mean time from arrival to lease grant.
    pub mean_wait: f64,
    /// Largest wait.
    pub max_wait: f64,
    /// Mean dedicated-cluster stretch (`response / baseline_makespan`).
    pub mean_stretch: f64,
    /// Largest dedicated-cluster stretch.
    pub max_stretch: f64,
    /// Mean lease-relative slowdown (`response / service`).
    pub mean_slowdown: f64,
    /// Largest lease-relative slowdown.
    pub max_slowdown: f64,
    /// Mean lease size (processors per workflow).
    pub mean_lease: f64,
    /// Largest number of workflows in service at once.
    pub peak_concurrency: usize,
    /// Solver probes answered from the content-addressed solve cache
    /// (admission, reservation scans and the baseline batch). Always 0
    /// with `--no-solve-cache`.
    #[serde(default)]
    pub solve_cache_hits: u64,
    /// Actual solver invocations: cache misses, or every probe when
    /// the cache is disabled. The cache's value is this number staying
    /// near the count of *unique* workflow topologies on repeat-heavy
    /// traces.
    #[serde(default)]
    pub solve_cache_misses: u64,
    /// Dedicated-cluster baseline solves performed by the deferred
    /// report-time batch (deduplicated by workflow fingerprint when
    /// the cache is on; one per served workflow when it is off).
    #[serde(default)]
    pub baseline_solves: u64,
    /// Entries evicted by the LRU-bounded solve cache (`--cache-cap`).
    /// Always 0 for the default unbounded cache.
    #[serde(default)]
    pub solve_cache_evictions: u64,
    /// Elastic lease growths: completion events whose freed processors
    /// were handed to a running workflow (its not-yet-started suffix
    /// re-solved on the grown lease) instead of idling. Always 0
    /// without `--elastic`.
    #[serde(default)]
    pub lease_grown: u64,
    /// Elastic lease shrinks: arriving-load events where processors
    /// were reclaimed from a running workflow (its not-yet-started
    /// suffix re-solved on a reduced lease) to admit queued work
    /// sooner. Always 0 without `--elastic-shrink`; omitted from the
    /// JSON when 0 so pre-chaos reports stay byte-identical.
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub lease_shrunk: u64,
    /// Workflows lost to a member failure under `--failure-mode lost`
    /// (the length of [`ServeReport::lost`]). Always 0 outside chaos
    /// runs; omitted from the JSON when 0.
    #[serde(default, skip_serializing_if = "is_zero_usize")]
    pub lost: usize,
    /// Total failure-driven requeue attempts across completed
    /// workflows (the sum of their `requeues` fields). Always 0
    /// outside `--failure-mode requeue` chaos runs; omitted when 0.
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub requeues: u64,
    /// Admission/growth simulations answered from the memoized
    /// sim-outcome cache (keyed next to the solves). Always 0 with
    /// `--no-solve-cache`; omitted from the JSON when 0 so earlier
    /// reports keep their schema byte-for-byte.
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub sim_cache_hits: u64,
    /// Discrete-event simulator runs the cache could not answer (every
    /// grant/growth/shrink simulation when the cache is disabled).
    /// Omitted from the JSON when 0.
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub sim_cache_misses: u64,
}

impl FleetMetrics {
    /// Zeroes the solver-effort statistics, leaving every scheduling
    /// outcome untouched. The cache equivalence tests compare reports
    /// through this: caching must change *only* these counters.
    pub fn clear_solve_stats(&mut self) {
        self.solve_cache_hits = 0;
        self.solve_cache_misses = 0;
        self.baseline_solves = 0;
        self.solve_cache_evictions = 0;
        self.sim_cache_hits = 0;
        self.sim_cache_misses = 0;
    }
}

/// Everything one serving run reports.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Admission policy name.
    pub policy: String,
    /// Solver name.
    pub algorithm: String,
    /// Cluster size (processors).
    pub cluster_procs: usize,
    /// Cluster interconnect bandwidth.
    pub bandwidth: f64,
    /// Per-workflow records, in completion order.
    pub workflows: Vec<WorkflowRecord>,
    /// Rejected submissions, in rejection order.
    pub rejected: Vec<RejectedRecord>,
    /// Workflows lost to member failures (`--failure-mode lost`), in
    /// failure order. Empty — and omitted from the JSON — outside
    /// chaos runs, so pre-chaos reports keep their schema
    /// byte-for-byte.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub lost: Vec<LostRecord>,
    /// Fleet aggregates.
    pub fleet: FleetMetrics,
    /// Why a `--cache-file` warm start fell back to a cold one: the
    /// classified snapshot failure, as a human-readable note. `None`
    /// (and absent from the JSON) when the snapshot loaded cleanly, on
    /// a silent first-run cold start (no file yet), or when no cache
    /// file was configured at all.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub recovery: Option<String>,
}

impl ServeReport {
    /// Pretty-printed JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| unreachable!("report serialisation cannot fail: {e}"))
    }

    /// A short human-readable summary (one line per aggregate).
    pub fn summary(&self) -> String {
        let f = &self.fleet;
        let probes = f.solve_cache_hits + f.solve_cache_misses;
        let hit_rate = if probes > 0 {
            100.0 * f.solve_cache_hits as f64 / probes as f64
        } else {
            0.0
        };
        format!(
            "policy {} · algorithm {} · {} procs\n\
             completed {:>5}   rejected {:>4}   horizon {:.2}\n\
             throughput {:.4}/t   utilization {:.1}%   peak concurrency {}\n\
             wait   mean {:.2}  max {:.2}\n\
             stretch mean {:.3}  max {:.3}   (dedicated-cluster baseline)\n\
             slowdown mean {:.3}  max {:.3}   mean lease {:.2} procs\n\
             solve cache hits {}  misses {}  (hit rate {:.1}%)   baseline solves {}  \
             evictions {}\n\
             sim cache hits {}  misses {}\n\
             leases grown {}  shrunk {}   lost {}",
            self.policy,
            self.algorithm,
            self.cluster_procs,
            f.completed,
            f.rejected,
            f.horizon,
            f.throughput,
            100.0 * f.utilization,
            f.peak_concurrency,
            f.mean_wait,
            f.max_wait,
            f.mean_stretch,
            f.max_stretch,
            f.mean_slowdown,
            f.max_slowdown,
            f.mean_lease,
            f.solve_cache_hits,
            f.solve_cache_misses,
            hit_rate,
            f.baseline_solves,
            f.solve_cache_evictions,
            f.sim_cache_hits,
            f.sim_cache_misses,
            f.lease_grown,
            f.lease_shrunk,
            f.lost,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeReport {
        ServeReport {
            policy: "fifo".into(),
            algorithm: "daghetpart".into(),
            cluster_procs: 4,
            bandwidth: 1.0,
            workflows: vec![WorkflowRecord {
                id: 0,
                name: "blast-30-0".into(),
                tasks: 30,
                arrival: 0.0,
                start: 0.0,
                finish: 12.5,
                wait: 0.0,
                service: 12.5,
                response: 12.5,
                slowdown: 1.0,
                stretch: 1.25,
                baseline_makespan: 10.0,
                model_makespan: 13.0,
                lease: vec![1, 3],
                blocks: 2,
                lease_grown: false,
                lease_shrunk: false,
                cluster_id: None,
                requeues: 0,
            }],
            rejected: vec![RejectedRecord {
                id: 1,
                name: "blast-99-0".into(),
                arrival: 2.0,
                rejected_at: 6.0,
                wait: 4.0,
                reason: "too big".into(),
                cluster_id: None,
            }],
            lost: Vec::new(),
            fleet: FleetMetrics {
                completed: 1,
                rejected: 1,
                horizon: 12.5,
                window_start: 0.0,
                throughput: 0.08,
                utilization: 0.5,
                mean_wait: 0.0,
                max_wait: 0.0,
                mean_stretch: 1.25,
                max_stretch: 1.25,
                mean_slowdown: 1.0,
                max_slowdown: 1.0,
                mean_lease: 2.0,
                peak_concurrency: 1,
                solve_cache_hits: 3,
                solve_cache_misses: 2,
                baseline_solves: 1,
                solve_cache_evictions: 0,
                lease_grown: 0,
                lease_shrunk: 0,
                lost: 0,
                requeues: 0,
                sim_cache_hits: 0,
                sim_cache_misses: 0,
            },
            recovery: None,
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let back: ServeReport = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn summary_mentions_key_metrics() {
        let s = sample().summary();
        assert!(s.contains("fifo"));
        assert!(s.contains("throughput"));
        assert!(s.contains("stretch"));
        assert!(s.contains("slowdown"));
        assert!(s.contains("solve cache hits 3"));
        assert!(s.contains("hit rate 60.0%"));
        assert!(s.contains("baseline solves 1"));
        assert!(s.contains("leases grown 0"));
    }

    #[test]
    fn clear_solve_stats_touches_only_the_counters() {
        let mut r = sample();
        let before = r.clone();
        r.fleet.clear_solve_stats();
        assert_eq!(r.fleet.solve_cache_hits, 0);
        assert_eq!(r.fleet.solve_cache_misses, 0);
        assert_eq!(r.fleet.baseline_solves, 0);
        r.fleet.solve_cache_hits = before.fleet.solve_cache_hits;
        r.fleet.solve_cache_misses = before.fleet.solve_cache_misses;
        r.fleet.baseline_solves = before.fleet.baseline_solves;
        assert_eq!(r, before);
    }

    #[test]
    fn chaos_fields_stay_out_of_the_json_until_used() {
        // Pre-chaos reports must keep their schema byte-for-byte: the
        // new fields only appear once a shrink or a loss happened, and
        // `cluster_id` only once a federation member served the record.
        let json = sample().to_json();
        assert!(!json.contains("lease_shrunk"));
        assert!(!json.contains("\"lost\""));
        assert!(!json.contains("requeues"));
        assert!(!json.contains("sim_cache"));
        assert!(!json.contains("recovery"));
        assert!(!json.contains("cluster_id"));

        let mut r = sample();
        r.lost.push(LostRecord {
            id: 2,
            name: "blast-30-1".into(),
            tasks: 30,
            arrival: 1.0,
            start: 3.0,
            failed_at: 7.5,
            cluster_id: None,
        });
        r.fleet.lost = 1;
        let json = r.to_json();
        assert!(json.contains("failed_at"));
        assert!(!json.contains("cluster_id"));

        r.workflows[0].cluster_id = Some(0);
        r.rejected[0].cluster_id = Some(1);
        r.lost[0].cluster_id = Some(1);
        r.fleet.lease_shrunk = 2;
        r.fleet.requeues = 1;
        r.workflows[0].requeues = 1;
        r.fleet.sim_cache_hits = 4;
        r.fleet.sim_cache_misses = 2;
        r.recovery = Some("cold start: snapshot is truncated".into());
        let json = r.to_json();
        assert_eq!(json.matches("cluster_id").count(), 3);
        assert!(json.contains("lease_shrunk"));
        assert!(json.contains("requeues"));
        assert!(json.contains("sim_cache_hits"));
        assert!(json.contains("recovery"));
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    /// `sample()`'s JSON with every `#[serde(default)]` key removed (the
    /// skipped ones are absent anyway): a report written before those
    /// fields existed. A field added without `#[serde(default)]` makes
    /// it unparseable.
    const SAMPLE_WITHOUT_DEFAULTED_KEYS: &str = r#"{
        "policy": "fifo", "algorithm": "daghetpart", "cluster_procs": 4, "bandwidth": 1,
        "workflows": [{
            "id": 0, "name": "blast-30-0", "tasks": 30, "arrival": 0, "start": 0,
            "finish": 12.5, "wait": 0, "service": 12.5, "response": 12.5, "slowdown": 1,
            "stretch": 1.25, "baseline_makespan": 10, "model_makespan": 13, "lease": [1, 3],
            "blocks": 2
        }],
        "rejected": [{
            "id": 1, "name": "blast-99-0", "arrival": 2, "rejected_at": 6, "wait": 4,
            "reason": "too big"
        }],
        "fleet": {
            "completed": 1, "rejected": 1, "horizon": 12.5, "window_start": 0,
            "throughput": 0.08, "utilization": 0.5, "mean_wait": 0, "max_wait": 0,
            "mean_stretch": 1.25, "max_stretch": 1.25, "mean_slowdown": 1, "max_slowdown": 1,
            "mean_lease": 2, "peak_concurrency": 1
        }
    }"#;

    #[test]
    fn reports_without_stats_fields_still_deserialize() {
        // `#[serde(default)]` keeps reports written before a field
        // existed loadable: the literal lacks every defaulted key.
        let back: ServeReport = serde_json::from_str(SAMPLE_WITHOUT_DEFAULTED_KEYS).unwrap();
        let mut want = sample();
        want.fleet.clear_solve_stats();
        assert_eq!(back, want);
        let lost: LostRecord = serde_json::from_str(
            r#"{"id": 2, "name": "blast-30-1", "tasks": 30, "arrival": 1, "start": 3,
                "failed_at": 7.5}"#,
        )
        .unwrap();
        assert_eq!(lost.cluster_id, None);
    }
}
