//! The single-cluster co-scheduling engine: its configuration, its
//! entry points, and the per-cluster finalisation every serving run
//! ends with.
//!
//! [`serve`] advances a global virtual clock over two event kinds —
//! workflow *arrivals* (from the submission stream) and workflow
//! *completions* (computed by `dhp-sim` on the workflow's lease) — and
//! at every event boundary runs the admission layer
//! ([`crate::admission`]) and, when enabled, elastic shrink and growth
//! ([`crate::lease`]). The loop is [`crate::federation`]'s, run over
//! one member whose records carry no `cluster_id`. This module
//! finalises a finished member into its [`ServeOutcome`] (`finalize`:
//! the deferred dedicated-baseline batch plus the fleet metrics), for
//! the single cluster and for each federation member.
//!
//! Each admitted workflow is also solved once *alone on the whole idle
//! cluster* (under the key [`SolveCache::dedicated_baseline`] uses);
//! the resulting makespan is recorded in its
//! [`WorkflowRecord`](crate::report::WorkflowRecord) and is the
//! denominator of the reported `stretch`, next to the lease-relative
//! `slowdown`. These whole-cluster solves are **deferred off the
//! admission critical path**: the engine only remembers each admitted
//! workflow's structural fingerprint and drains the baseline solves at
//! report time as one deduplicated batch, fanned over the calling
//! thread and `std::thread::scope` worker threads when more than one of
//! its jobs still needs the solver.
//!
//! Every solver call — admission probes, reservation feasibility scans
//! and the baseline batch — goes through a content-addressed
//! [`SolveCache`] keyed by `(workflow fingerprint, lease shape
//! signature, algorithm, solver-config hash)`. The last two come from a
//! `Solver` bound once: the serve loop binds `cfg`'s algorithm and
//! settings for every lease probe, and `finalize` binds the baseline
//! batch's one-worker settings; each probes through a
//! `CacheView` over that solver, so no layer below names the
//! algorithm, the settings or their hash. Realistic traces repeat
//! the same topologies on the same lease shapes over and over, so
//! repeat traffic admits in near-O(1): the cached lease-local mapping
//! is remapped onto the probe's concrete processors. The caller picks
//! the cache: [`SolveCache::disabled`] (`--no-solve-cache`) bypasses
//! memoization; the *scheduling outcome is byte-identical either way*
//! (asserted by `tests/solve_cache.rs`), only the [`FleetMetrics`]
//! solver statistics differ. [`SolveCache::with_capacity`]
//! (`--cache-cap`) bounds the cache to an LRU capacity for unbounded
//! streams.
//!
//! Completions at an instant are processed before arrivals at the same
//! instant (freed processors are visible to the newly arrived work),
//! and every tie is broken by submission id, so a run is a pure
//! function of `(cluster, submissions, config)` — asserted by the
//! integration tests. This holds with the cache on: entries are only
//! ever *shape-equivalent* replays of what the solver would have
//! produced, and the deferred baseline batch deduplicates jobs up
//! front so its hit/miss counts are independent of thread
//! interleaving.

use crate::cache::{CacheView, SnapshotError, SolveCache, SolveCacheStats, Solver};
use crate::federation::{serve_loop, shard::MemberShard, RoutingPolicy};
use crate::policy::{AdmissionPolicy, LeaseSizing};
use crate::report::{FleetMetrics, ServeReport};
use crate::state::ClusterState;
use crate::submission::{peak_overlap, Submission};
use dhp_core::daghetpart::DagHetPartConfig;
use dhp_core::Algorithm;
use dhp_core::SchedError;
use dhp_platform::Cluster;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

pub use crate::admission::{ReservationRecord, ReservationTrigger, BACKFILL_DEPTH};
pub use crate::state::{Placement, Regrow};
pub use crate::submission::fit_cluster;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Queue-ranking policy.
    pub policy: AdmissionPolicy,
    /// Lease sizing rule.
    pub lease: LeaseSizing,
    /// Solver run on each lease.
    pub algorithm: Algorithm,
    /// DagHetPart settings (ignored by DagHetMem).
    pub solver: DagHetPartConfig,
    /// Elastic lease growth (`--elastic N`): `Some(threshold)` lets a
    /// completion event whose freed processors would otherwise idle —
    /// strictly fewer than `threshold` workflows queued — hand them to
    /// the running workflow with the most unstarted work, re-solving
    /// its suffix DAG on the grown lease. `Some(1)` grows only when the
    /// queue is empty; `None` (default) keeps leases static.
    pub elastic: Option<usize>,
    /// Elastic lease shrinking (`--elastic-shrink T`): `Some(T)` lets
    /// an event that leaves at least `T` workflows queued reclaim
    /// processors from the running workflow with the most unstarted
    /// work — its not-yet-started suffix is re-solved on a reduced
    /// lease and the released processors go to the admission queue —
    /// the dual of `elastic` growth. Guarded exactly like growth: a
    /// shrink is refused when it would delay a blocked backfill head's
    /// reservation. `None` (default) never shrinks.
    pub elastic_shrink: Option<usize>,
    /// Durable warm start (`--cache-file PATH`, `--autosave N`):
    /// `Some` restores the solve cache from a snapshot before the run's
    /// first admission and rewrites it crash-safely at exit. `None`
    /// (default) keeps the cache purely in-memory.
    pub persist: Option<PersistSpec>,
}

/// Where (and how often) a run persists its solve cache.
#[derive(Clone, Debug)]
pub struct PersistSpec {
    /// Snapshot path (`--cache-file PATH`). A missing file is a silent
    /// cold start; a corrupt, truncated, or mismatched one degrades to
    /// a cold start with a warning and a `recovery` note in the report
    /// — never a panic. Writes go through a temp sibling + fsync +
    /// atomic rename, so a crash mid-save leaves the prior snapshot
    /// intact.
    pub path: PathBuf,
    /// Periodic snapshots (`--autosave N`): additionally rewrite the
    /// snapshot every `N` synchronisation points — clock steps of the
    /// event loop, on a single cluster as on a federation — bounding
    /// how much warm state a crash can lose. `None` saves only at
    /// exit.
    pub autosave: Option<usize>,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            policy: AdmissionPolicy::Fifo,
            lease: LeaseSizing::default(),
            algorithm: Algorithm::DagHetPart,
            solver: DagHetPartConfig::default(),
            elastic: None,
            elastic_shrink: None,
            persist: None,
        }
    }
}

impl OnlineConfig {
    /// `algorithm` with its `solver` settings, bound once per run: the
    /// solver every lease probe of the run is keyed by and runs.
    pub(crate) fn lease_solver(&self) -> Solver {
        Solver::new(self.algorithm, self.solver.clone())
    }
}

/// Result of [`serve`]: the serialisable report plus the placements.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Metrics, in completion order.
    pub report: ServeReport,
    /// Every served workflow's lease and mapping, in completion order
    /// (matching `report.workflows`).
    pub placements: Vec<Placement>,
    /// Every head-reservation computation under the backfilling
    /// policies, in decision order — the observable behind the
    /// conservative guarantee and its pinning tests.
    pub reservations: Vec<ReservationRecord>,
}

/// Serves a submission stream on a shared cluster. See the module docs
/// for the event loop; the returned outcome is deterministic for fixed
/// inputs. A fresh unbounded [`SolveCache`] is created per call; use
/// [`serve_with_cache`] to pass a disabled or capped one, or to share
/// one cache across runs.
pub fn serve(cluster: &Cluster, submissions: Vec<Submission>, cfg: &OnlineConfig) -> ServeOutcome {
    serve_with_cache(cluster, submissions, cfg, &SolveCache::new())
}

/// [`serve`] with a caller-owned [`SolveCache`], so repeat traffic
/// across *runs* (not just within one trace) skips the solver too. The
/// report's solver statistics count only this run's probes; memoized
/// entries carried in from earlier runs surface as hits.
pub fn serve_with_cache(
    cluster: &Cluster,
    submissions: Vec<Submission>,
    cfg: &OnlineConfig,
    cache: &SolveCache,
) -> ServeOutcome {
    // One member: routing answers without weighing any load, and the
    // spillover sweep has no destination. It ends every submission, so
    // its outputs are sized once for the whole trace.
    let mut member = MemberShard::new(cluster, None);
    member.state.reserve_outputs(submissions.len());
    serve_loop(
        vec![member],
        submissions,
        cfg,
        RoutingPolicy::LeastLoaded,
        cache,
        &[],
        |shards, _spillovers, recovery| {
            let Some(shard) = shards.into_iter().next() else {
                unreachable!("a run without a membership plan keeps its one member")
            };
            let mut outcome = finalize(shard.state, cfg, cache, shard.stats);
            outcome.report.recovery = recovery;
            outcome
        },
    )
}

/// Restores the snapshot named by `cfg.persist` (if any) into `cache`,
/// checking it was saved under `solver`'s settings.
/// Returns `None` on a warm start, when persistence is off, or when the
/// file simply does not exist yet (the silent first-run cold start);
/// `Some(note)` when a snapshot was present but unusable — the run
/// degrades to a cold start, a warning goes to stderr, and the note
/// lands in the report's `recovery` field. Never panics on a bad file.
pub(crate) fn load_snapshot(
    cfg: &OnlineConfig,
    cache: &SolveCache,
    solver: &Solver,
) -> Option<String> {
    let spec = cfg.persist.as_ref()?;
    match cache.load_from(&spec.path, solver.config_hash()) {
        Ok(_) | Err(SnapshotError::Missing) => None,
        Err(e) => {
            let note = format!("cold start: {e}");
            eprintln!("warning: {}: {note}", spec.path.display());
            Some(note)
        }
    }
}

/// Rewrites the snapshot named by `cfg.persist` (if any) from `cache`,
/// under `solver`'s settings, crash-safely (temp sibling + fsync +
/// atomic rename). A failed save
/// warns on stderr but never fails the run — the report is the
/// product; the snapshot is an optimisation for the next run.
pub(crate) fn save_snapshot(cfg: &OnlineConfig, cache: &SolveCache, solver: &Solver) {
    let Some(spec) = cfg.persist.as_ref() else {
        return;
    };
    if let Err(e) = cache.save_to(&spec.path, solver.config_hash()) {
        eprintln!(
            "warning: could not save solve-cache snapshot to {}: {e}",
            spec.path.display()
        );
    }
}

/// `a - b`, counter-wise — solver statistics accumulated between two
/// snapshots of the same cache.
fn diff_stats(a: SolveCacheStats, b: SolveCacheStats) -> SolveCacheStats {
    SolveCacheStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        evictions: a.evictions - b.evictions,
        sim_hits: a.sim_hits - b.sim_hits,
        sim_misses: a.sim_misses - b.sim_misses,
    }
}

/// Drains the deferred dedicated-baseline batch and assembles the final
/// [`ServeOutcome`] from a finished event loop's state. `pre` carries
/// the solver statistics the shard's live views were charged during
/// the loop (its admission, lease and routing probes).
pub(crate) fn finalize(
    state: ClusterState,
    cfg: &OnlineConfig,
    cache: &SolveCache,
    pre: SolveCacheStats,
) -> ServeOutcome {
    let ClusterState {
        cluster,
        mut finished,
        finished_fp,
        placements,
        rejected,
        busy_time,
        reservations,
        lease_grown,
        lease_shrunk,
        lost,
        ..
    } = state;

    // ------------------------------------------------- baseline batch
    // The dedicated-cluster baselines deferred during admission drain
    // here, off the critical path: deduplicated by fingerprint (one
    // solve per unique topology when the cache memoizes; one per
    // workflow when it is disabled, preserving honest uncached solver
    // counts). Each job writes its own slot, so the batch is
    // deterministic whatever runs it. Only jobs the cache has not
    // solved yet are worth a thread: the pool is sized by those cold
    // jobs, and a batch with at most one (every repeat-traffic member
    // at report time) runs inline.
    let stats_before_batch = cache.stats();
    let jobs: Vec<usize> = if cache.is_enabled() {
        let mut seen: HashSet<u64> = HashSet::new();
        (0..finished.len())
            .filter(|&i| seen.insert(finished_fp[i]))
            .collect()
    } else {
        (0..finished.len()).collect()
    };
    let results: Vec<parking_lot::Mutex<Option<Result<f64, SchedError>>>> =
        jobs.iter().map(|_| parking_lot::Mutex::new(None)).collect();
    // The batch is already parallel across jobs, so each job's k' sweep
    // runs with one worker on the job's own thread — otherwise every one
    // of the P workers would fan its sweep over P more threads (P²
    // threads on P cores). Both settings drain the same largest-first
    // loop and break ties towards the smaller k', so results are
    // unchanged unless three or more makespans tie within a few 1e-12
    // (the goldens pin that none of theirs do); the batch binds that
    // sequential solver once, so only its cache keys carry the
    // sequential config's hash.
    let batch_solver = Solver::new(
        cfg.algorithm,
        DagHetPartConfig {
            parallel: false,
            ..cfg.solver.clone()
        },
    );
    // Every job solves on the whole cluster in canonical memory order —
    // the key [`SolveCache::dedicated_baseline`] uses — so the order and
    // its shape are computed once for the batch. A pure peek (no tick,
    // no counter) tells the warm jobs from the cold ones; a memoized
    // `NoSolution` is not warm, so it counts as cold.
    let whole = cluster.ids_by_memory_desc();
    let whole_shape = cluster.shape_of_slice(&whole);
    let batch_view = CacheView::direct(cache, &batch_solver);
    let cold = jobs
        .iter()
        .filter(|&&i| !batch_view.is_warm(finished_fp[i], whole_shape))
        .count();
    // A capacity-bounded cache runs the batch on one worker: exact
    // LRU eviction order (and so the eviction counters) is only
    // well-defined when capped inserts are not racing, and the batch is
    // the one place the engine would otherwise insert from several
    // threads at once.
    let workers = if cache.capacity().is_some() {
        1
    } else {
        dhp_core::host_cores().min(cold)
    };
    let next = AtomicUsize::new(0);
    let drain = || loop {
        let j = next.fetch_add(1, AtomicOrdering::Relaxed);
        let Some(&i) = jobs.get(j) else { break };
        let g = &placements[i].submission.instance.graph;
        // A view per worker: a view is not `Sync`, and making one
        // neither hashes nor allocates.
        *results[j].lock() = Some(
            CacheView::direct(cache, &batch_solver)
                .solve(g, finished_fp[i], &cluster, &whole)
                .map(|local| local.makespan),
        );
    };
    if workers <= 1 {
        drain();
    } else {
        // The caller is one of the workers, as in the k' sweep.
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(drain);
            }
            drain();
        });
    }
    let baseline_of: HashMap<u64, Result<f64, SchedError>> = jobs
        .iter()
        .zip(&results)
        .map(|(&i, r)| {
            (
                finished_fp[i],
                r.lock()
                    .clone()
                    .unwrap_or_else(|| unreachable!("the drain ran every baseline job")),
            )
        })
        .collect();
    for (i, r) in finished.iter_mut().enumerate() {
        // An infeasible whole-cluster baseline cannot happen for an
        // admitted workflow (its lease is a subset of the cluster and
        // feasibility is monotone in added memory), but fall back to
        // the lease service time rather than panicking.
        let baseline = match &baseline_of[&finished_fp[i]] {
            Ok(b) => *b,
            Err(_) => r.service,
        };
        r.baseline_makespan = baseline;
        r.stretch = if baseline > 0.0 {
            r.response / baseline
        } else {
            1.0
        };
    }
    let batch = diff_stats(cache.stats(), stats_before_batch);

    // ---------------------------------------------------------- report
    let horizon = finished.iter().map(|r| r.finish).fold(0.0, f64::max);
    let completed = finished.len();
    let mean = |xs: &mut dyn Iterator<Item = f64>| -> (f64, f64) {
        let mut n = 0usize;
        let (mut sum, mut max) = (0.0, 0.0);
        for x in xs {
            n += 1;
            sum += x;
            max = f64::max(max, x);
        }
        if n == 0 {
            (0.0, 0.0)
        } else {
            (sum / n as f64, max)
        }
    };
    let (mean_wait, max_wait) = mean(&mut finished.iter().map(|r| r.wait));
    let (mean_stretch, max_stretch) = mean(&mut finished.iter().map(|r| r.stretch));
    let (mean_slowdown, max_slowdown) = mean(&mut finished.iter().map(|r| r.slowdown));
    let (mean_lease, _) = mean(&mut finished.iter().map(|r| r.lease.len() as f64));
    // Utilisation is measured over the active window [first served
    // arrival, horizon]: a trace whose first workflow arrives late must
    // not count the leading dead time as wasted capacity.
    let window_start = finished
        .iter()
        .map(|r| r.arrival)
        .fold(f64::INFINITY, f64::min)
        .min(horizon);
    let window = horizon - window_start;
    let utilization = if window > 0.0 {
        busy_time.iter().sum::<f64>() / (window * cluster.len() as f64)
    } else {
        0.0
    };
    let peak_concurrency = peak_overlap(&finished);
    let rejected_count = rejected.len();
    let lost_count = lost.len();
    let requeues: u64 = finished.iter().map(|r| r.requeues).sum();

    ServeOutcome {
        report: ServeReport {
            policy: cfg.policy.name().to_string(),
            algorithm: cfg.algorithm.name().to_string(),
            cluster_procs: cluster.len(),
            bandwidth: cluster.bandwidth,
            workflows: finished,
            rejected,
            lost,
            fleet: FleetMetrics {
                completed,
                rejected: rejected_count,
                horizon,
                window_start,
                throughput: if window > 0.0 {
                    completed as f64 / window
                } else {
                    0.0
                },
                utilization,
                mean_wait,
                max_wait,
                mean_stretch,
                max_stretch,
                mean_slowdown,
                max_slowdown,
                mean_lease,
                peak_concurrency,
                // Solver-effort statistics for *this run's* probes
                // (admission + reservation scans + baseline batch);
                // entries carried in by a shared cache surface as hits.
                solve_cache_hits: pre.hits + batch.hits,
                solve_cache_misses: pre.misses + batch.misses,
                baseline_solves: batch.misses,
                solve_cache_evictions: pre.evictions + batch.evictions,
                sim_cache_hits: pre.sim_hits + batch.sim_hits,
                sim_cache_misses: pre.sim_misses + batch.sim_misses,
                lease_grown,
                lease_shrunk,
                lost: lost_count,
                requeues,
            },
            recovery: None,
        },
        placements,
        reservations,
    }
}
