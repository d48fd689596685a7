//! Online workloads: whole submission traces, each handed to one serve
//! call.
//!
//! The engine runs on a virtual clock, so the load is a closed loop of
//! one client: a call returns when every submission of its trace has
//! completed, been rejected or been lost, the next trace is handed over
//! then, and wall time measures how fast the engine processes events —
//! not how long workflows wait.

use crate::metrics::Values;
use crate::run::CallSummary;
use crate::stats::{self, ratio};
use crate::trace::Recorder;
use crate::workloads::OnlineInputs;
use dhp_core::mapping::validate;
use dhp_dag::fingerprint::fnv1a_bytes;
use dhp_online::{
    serve_federation_with_cache, serve_with_cache, FederationOutcome, FleetMetrics, OnlineConfig,
    Placement, ServeOutcome, SolveCache, Submission, WorkflowRecord,
};
use dhp_platform::Cluster;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// Placements replayed per layer for unit costs: an evenly strided
/// sample, so the traced run stays short on the long traces.
const REPLAY_SAMPLE: usize = 200;

/// The program's defaults; only the policy under test is set.
pub fn config(inputs: &OnlineInputs) -> OnlineConfig {
    OnlineConfig {
        policy: inputs.spec.policy,
        ..OnlineConfig::default()
    }
}

/// What one serve call returned.
#[derive(Debug)]
pub enum Served {
    Single(ServeOutcome),
    Federated(FederationOutcome),
}

/// One call: a whole trace handed to the engine. `submissions` is the
/// call's own copy (cloned outside the timed region).
pub fn serve(inputs: &OnlineInputs, submissions: Vec<Submission>, cache: &SolveCache) -> Served {
    let cfg = config(inputs);
    match (&inputs.federation, inputs.spec.federation) {
        (Some(federation), Some((_, routing))) => Served::Federated(serve_federation_with_cache(
            federation,
            submissions,
            &cfg,
            routing,
            cache,
        )),
        _ => Served::Single(serve_with_cache(&inputs.cluster, submissions, &cfg, cache)),
    }
}

impl Served {
    pub fn fleet(&self) -> &FleetMetrics {
        match self {
            Served::Single(o) => &o.report.fleet,
            Served::Federated(o) => &o.report.fleet,
        }
    }

    fn report_json(&self) -> String {
        match self {
            Served::Single(o) => o.report.to_json(),
            Served::Federated(o) => o.report.to_json(),
        }
    }

    /// The engine outcome of each member (one when not federated).
    fn members(&self) -> &[ServeOutcome] {
        match self {
            Served::Single(o) => std::slice::from_ref(o),
            Served::Federated(f) => &f.outcomes,
        }
    }

    fn records(&self) -> impl Iterator<Item = &WorkflowRecord> {
        self.members()
            .iter()
            .flat_map(|m| m.report.workflows.iter())
    }

    fn placements(&self) -> impl Iterator<Item = &Placement> {
        self.members().iter().flat_map(|m| m.placements.iter())
    }

    fn reservations(&self) -> usize {
        self.members().iter().map(|m| m.reservations.len()).sum()
    }
}

/// Digest of the serialised report: every scheduling decision and
/// every counter the engine publishes.
fn digest(served: &Served) -> u64 {
    fnv1a_bytes(served.report_json().bytes())
}

/// What is kept of a call once its output is dropped: the report's
/// digest; per completed workflow the term 100·service ÷
/// baseline_makespan (execution on the granted lease against execution
/// alone on the whole platform) of the makespan ratio;
/// `fleet.mean_stretch` weighted by completions; and, when `check` is
/// set, how many of the trace's submissions failed the output oracle.
///
/// The oracle, outside the timed region: a submission fails when it was
/// rejected or lost, when its placement does not validate on the shared
/// platform, or when its lease overlaps an earlier one on some
/// processor. The accounting identity `completed + rejected + lost ==
/// submitted` is checked on top: every submission it leaves unaccounted
/// counts as failed too.
pub fn summary(inputs: &OnlineInputs, call: usize, served: &Served, check: bool) -> CallSummary {
    let fleet = served.fleet();
    let ratios = served.records().count();
    CallSummary {
        digest: digest(served),
        ln_ratio_sum: served
            .records()
            .map(|r| (100.0 * r.service / r.baseline_makespan).ln())
            .sum(),
        ratios,
        stretch_sum: fleet.mean_stretch * fleet.completed as f64,
        completed: fleet.completed,
        baseline_invalid: 0,
        failed: if check {
            failed_in_call(&inputs.cluster, inputs.traces[call].len(), served)
        } else {
            0
        },
    }
}

fn failed_in_call(cluster: &Cluster, submitted: usize, served: &Served) -> usize {
    let mut bad: BTreeSet<usize> = BTreeSet::new();
    for member in served.members() {
        for p in &member.placements {
            if let Err(e) = validate(&p.submission.instance.graph, cluster, &p.mapping) {
                eprintln!("failed: submission {}: placement: {e}", p.submission.id);
                bad.insert(p.submission.id);
            }
        }
        for id in double_leased(&member.report.workflows) {
            eprintln!("failed: submission {id}: a processor of its lease was still leased");
            bad.insert(id);
        }
    }
    let fleet = served.fleet();
    let accounted = fleet.completed + fleet.rejected + fleet.lost;
    if fleet.rejected + fleet.lost > 0 || accounted != submitted {
        eprintln!(
            "failed: {submitted} submitted, {} completed, {} rejected, {} lost",
            fleet.completed, fleet.rejected, fleet.lost
        );
    }
    bad.len() + fleet.rejected + fleet.lost + submitted.abs_diff(accounted)
}

/// Ids of records whose lease holds a processor that an earlier record
/// (by start instant) still holds: the per-processor timeline built
/// from `WorkflowRecord.{lease,start,finish}` must never overlap.
fn double_leased(records: &[WorkflowRecord]) -> Vec<usize> {
    let mut by_proc: BTreeMap<u32, Vec<(f64, f64, usize)>> = BTreeMap::new();
    for r in records {
        for &p in &r.lease {
            by_proc
                .entry(p)
                .or_default()
                .push((r.start, r.finish, r.id));
        }
    }
    let mut bad = Vec::new();
    for timeline in by_proc.values_mut() {
        timeline.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        let mut busy_until = f64::NEG_INFINITY;
        for &(start, finish, id) in timeline.iter() {
            if start < busy_until {
                bad.push(id);
            }
            busy_until = busy_until.max(finish);
        }
    }
    bad
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// The traced repetition: one span around each serve call (made in
/// `order`, on the warm cache or a fresh one each, as the untraced
/// repetition does), counters read from the returned reports, then unit
/// costs from replaying a sample of the placements through each layer's
/// public entry point. `scratch` is where the cache snapshot is written
/// (and removed again). Returns the per-layer values and each call's
/// report digest, by call index.
pub fn traced_repetition(
    inputs: &OnlineInputs,
    order: &[usize],
    warm: Option<&SolveCache>,
    scratch: &Path,
    rec: &mut Recorder,
) -> (Values, Vec<u64>) {
    let cfg = config(inputs);
    let config_hash = SolveCache::config_hash(&cfg.solver);
    let cluster = &inputs.cluster;
    let mut served = Vec::new();
    let mut digests = vec![0; inputs.traces.len()];
    let mut last_fresh = None;
    for &call in order {
        let submissions = inputs.submissions(call);
        let fresh = warm.is_none().then(SolveCache::new);
        let cache = warm.or(fresh.as_ref()).expect("a warm or a fresh cache");
        let span = rec.open("online.serve", None, call);
        let out = serve(inputs, submissions, cache);
        rec.close(span);
        digests[call] = digest(&out);
        served.push(out);
        last_fresh = fresh.or(last_fresh);
    }
    let cache = warm.or(last_fresh.as_ref()).expect("at least one call");
    let busy = rec.busy("online.serve");
    let subs: f64 = inputs.traces.iter().map(|t| t.len() as f64).sum();
    let count =
        |f: fn(&FleetMetrics) -> u64| -> f64 { served.iter().map(|s| f(s.fleet()) as f64).sum() };
    let hits = count(|f| f.solve_cache_hits);
    let misses = count(|f| f.solve_cache_misses);
    let sim_hits = count(|f| f.sim_cache_hits);
    let sim_misses = count(|f| f.sim_cache_misses);
    let baseline_solves = count(|f| f.baseline_solves);
    let reservations: f64 = served.iter().map(|s| s.reservations() as f64).sum();

    // An evenly strided sample of what was placed.
    let placed: Vec<&Placement> = served.iter().flat_map(Served::placements).collect();
    let stride = placed.len().div_ceil(REPLAY_SAMPLE).max(1);
    let sample: Vec<&Placement> = placed.into_iter().step_by(stride).collect();

    // Lease solves: first on a fresh cache (a miss wherever the key is
    // new), then again on the same cache (all hits).
    let replay = SolveCache::new();
    let (mut miss_s, mut hit_s, mut fingerprint_s, mut shape_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for pass in 0..2 {
        for p in &sample {
            let g = &p.submission.instance.graph;
            let started = Instant::now();
            let fingerprint = std::hint::black_box(g.fingerprint());
            let fingerprinted = started.elapsed();
            let sub = cluster.subcluster(&p.lease);
            let started = Instant::now();
            std::hint::black_box(sub.shape_signature());
            let shaped = started.elapsed();
            let misses_before = replay.stats().misses;
            let span = rec.open("core.partial.schedule", None, 0);
            let solved = replay.schedule(
                g,
                fingerprint,
                &sub,
                cfg.algorithm,
                &cfg.solver,
                config_hash,
            );
            rec.close(span);
            std::hint::black_box(solved.is_ok());
            let seconds = rec.span(span).seconds();
            if replay.stats().misses > misses_before {
                miss_s.push(seconds);
            } else if pass == 1 {
                hit_s.push(seconds);
            }
            if pass == 0 {
                fingerprint_s.push(fingerprinted.as_secs_f64());
                shape_s.push(shaped.as_secs_f64());
            }
        }
    }

    // Whole-platform baseline solves, one per distinct topology.
    let baselines = SolveCache::new();
    let mut seen = BTreeSet::new();
    for p in &sample {
        let g = &p.submission.instance.graph;
        let fingerprint = g.fingerprint();
        if seen.insert(fingerprint) {
            rec.time("core.partial.baseline", None, 0, || {
                baselines
                    .dedicated_baseline(
                        g,
                        fingerprint,
                        cluster,
                        cfg.algorithm,
                        &cfg.solver,
                        config_hash,
                    )
                    .is_ok()
            });
        }
    }
    for p in &sample {
        rec.time("sim.simulate", None, 0, || {
            dhp_sim::simulate(&p.submission.instance.graph, cluster, &p.mapping).makespan
        });
    }

    // Snapshot of the cache this run served from, to a scratch file.
    let snapshot = scratch.join(format!(
        "cache-{}-{:?}.snapshot",
        std::process::id(),
        std::thread::current().id()
    ));
    let saved = rec.time("core.persist.save", None, 0, || {
        cache.save_to(&snapshot, config_hash)
    });
    let bytes = std::fs::metadata(&snapshot).map_or(0, |m| m.len());
    let loaded = rec.time("core.persist.load", None, 0, || {
        SolveCache::new().load_from(&snapshot, config_hash)
    });
    let _ = std::fs::remove_file(&snapshot);
    let report_bytes: usize = rec.time("online.report.to_json", None, 0, || {
        served.iter().map(|s| s.report_json().len()).sum()
    });

    let per_call = |name: &str| ratio(rec.busy(name), rec.calls(name) as f64);
    let (miss_s, hit_s) = (mean(&miss_s), mean(&hit_s));
    let simulate_s = per_call("sim.simulate");
    let baseline_busy_s = baseline_solves * per_call("core.partial.baseline");
    let explained = misses * miss_s + hits * hit_s + sim_misses * simulate_s + baseline_busy_s;

    let mut v = Values::default();
    v.set("online.engine.busy_s", busy);
    v.set("online.engine.residual_s", busy - explained);
    v.set(
        "online.engine.residual_share",
        ratio(busy - explained, busy),
    );
    v.set("online.admission.reservations", reservations);
    v.set(
        "online.admission.reservations_per_sub",
        ratio(reservations, subs),
    );
    v.set("core.partial.probes", hits + misses);
    v.set("core.partial.hit_share", ratio(hits, hits + misses));
    v.set("core.partial.miss_us", 1e6 * miss_s);
    v.set("core.partial.hit_us", 1e6 * hit_s);
    v.set("core.partial.baseline_solves", baseline_solves);
    v.set("core.partial.baseline_busy_s", baseline_busy_s);
    v.set("sim.runs", sim_misses);
    v.set("sim.hit_share", ratio(sim_hits, sim_hits + sim_misses));
    v.set("sim.simulate_us", 1e6 * simulate_s);
    v.set("dag.fingerprint_us", 1e6 * mean(&fingerprint_s));
    v.set("platform.shape_us", 1e6 * mean(&shape_s));
    if saved.is_ok() && loaded.is_ok() {
        v.set("core.persist.save_s", rec.busy("core.persist.save"));
        v.set("core.persist.load_s", rec.busy("core.persist.load"));
        v.set("core.persist.bytes", bytes as f64);
    }
    v.set("online.report.to_json_s", rec.busy("online.report.to_json"));
    v.set("online.report.bytes", report_bytes as f64);
    let federated: Vec<&FederationOutcome> = served
        .iter()
        .filter_map(|s| match s {
            Served::Federated(f) => Some(f),
            Served::Single(_) => None,
        })
        .collect();
    if let Some(first) = federated.first() {
        let mut completed = vec![0.0; first.report.clusters.len()];
        for f in &federated {
            for (sum, member) in completed.iter_mut().zip(&f.report.clusters) {
                *sum += member.fleet.completed as f64;
            }
        }
        let spillovers: f64 = federated.iter().map(|f| f.report.spillovers as f64).sum();
        v.set("online.federation.busy_s", busy);
        v.set("online.federation.spillovers", spillovers);
        v.set("online.federation.spill_per_sub", ratio(spillovers, subs));
        v.set(
            "online.federation.member_imbalance",
            ratio(stats::max(&completed), mean(&completed)),
        );
    }
    (v, digests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, Inputs, Kind, WORKLOADS};

    fn small_online(federated: bool) -> OnlineInputs {
        let kind = WORKLOADS
            .iter()
            .map(|w| w.kind)
            .find(|k| matches!(k, Kind::Online(s) if s.federation.is_some() == federated))
            .unwrap();
        match generate(&kind, 20).inputs {
            Inputs::Online(o) => o,
            Inputs::Offline(_) => unreachable!(),
        }
    }

    #[test]
    fn serving_repeats_and_passes_the_oracle() {
        for federated in [false, true] {
            let inputs = small_online(federated);
            let cache = SolveCache::new();
            let call = |c: usize| serve(&inputs, inputs.submissions(c), &cache);
            let warm_up: Vec<Served> = (0..inputs.traces.len()).map(call).collect();
            for (c, first) in warm_up.iter().enumerate() {
                let (a, b) = (call(c), call(c));
                let s = summary(&inputs, c, &a, true);
                assert_eq!(s.digest, summary(&inputs, c, &b, false).digest);
                assert_eq!(a.fleet().solve_cache_misses, 0, "warm cache");
                assert_eq!(s.stretch_sum, summary(&inputs, c, first, false).stretch_sum);
                assert_eq!(s.failed, 0);
                assert_eq!((s.ratios, s.completed), (inputs.traces[c].len(), s.ratios));
                assert!(s.ln_ratio_sum / s.ratios as f64 >= 100f64.ln() - 1e-9);
            }
        }
    }

    fn record(id: usize, lease: &[u32], start: f64, finish: f64) -> WorkflowRecord {
        WorkflowRecord {
            id,
            name: format!("w{id}"),
            tasks: 1,
            arrival: 0.0,
            start,
            finish,
            wait: start,
            service: finish - start,
            response: finish,
            slowdown: 1.0,
            stretch: 1.0,
            baseline_makespan: finish - start,
            model_makespan: finish - start,
            lease: lease.to_vec(),
            blocks: 1,
            lease_grown: false,
            lease_shrunk: false,
            cluster_id: None,
            requeues: 0,
        }
    }

    #[test]
    fn a_processor_leased_twice_at_one_instant_is_caught() {
        let clean = [
            record(0, &[0, 1], 0.0, 10.0),
            record(1, &[2], 5.0, 20.0),
            record(2, &[0], 10.0, 30.0),
        ];
        assert!(double_leased(&clean).is_empty());
        let clash = [
            record(0, &[0, 1], 0.0, 10.0),
            record(1, &[1, 2], 9.5, 20.0),
            record(2, &[0], 10.0, 30.0),
        ];
        assert_eq!(double_leased(&clash), vec![1]);
    }

    #[test]
    fn rejections_count_as_failed_operations() {
        let inputs = small_online(false);
        let mut served = serve(&inputs, inputs.submissions(0), &SolveCache::new());
        assert_eq!(summary(&inputs, 0, &served, true).failed, 0);
        if let Served::Single(o) = &mut served {
            o.report.fleet.completed -= 1;
            o.report.fleet.rejected += 1;
        }
        assert_eq!(summary(&inputs, 0, &served, true).failed, 1);
        assert_eq!(summary(&inputs, 0, &served, false).failed, 0);
    }

    #[test]
    fn the_traced_calls_leave_the_reports_untouched() {
        let inputs = small_online(true);
        let cache = SolveCache::new();
        let calls = inputs.traces.len();
        let plain = |c: usize| {
            let served = serve(&inputs, inputs.submissions(c), &cache);
            summary(&inputs, c, &served, false).digest
        };
        (0..calls).map(plain).for_each(drop);
        let untraced: Vec<u64> = (0..calls).map(plain).collect();
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&scratch).unwrap();
        let mut rec = Recorder::new();
        let order: Vec<usize> = (0..calls).rev().collect();
        let (v, traced) = traced_repetition(&inputs, &order, Some(&cache), &scratch, &mut rec);
        assert_eq!(untraced, traced);
        assert!(v.get("online.engine.busy_s").unwrap() > 0.0);
        assert!(v.get("core.persist.bytes").unwrap() > 0.0);
        assert!(v.get("online.federation.member_imbalance").unwrap() >= 1.0);
        assert_eq!(v.get("core.partial.hit_share"), Some(1.0));
    }
}
