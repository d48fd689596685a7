//! `daghetpart queue` (alias `serve`): online multi-workflow
//! co-scheduling on one shared cluster, or — with `--clusters` — across
//! a federation of clusters.

use crate::args::Args;
use crate::commands::parse_algorithm;
use crate::spec::resolve_cluster;
use dhp_online::{
    fit_cluster, serve_federation_chaos_with_cache, serve_federation_with_cache, serve_with_cache,
    AdmissionPolicy, FailureMode, LeaseSizing, MembershipPlan, OnlineConfig, PersistSpec,
    RoutingPolicy, SolveCache,
};
use dhp_platform::Federation;
use dhp_wfgen::arrivals::ArrivalProcess;
use dhp_wfgen::Family;

/// Runs the online co-scheduling engine on a generated submission
/// stream and prints the serving report (JSON, or a text summary with
/// `--summary`).
pub fn queue(args: &Args) -> Result<String, String> {
    let n = args.get_usize("workflows", 20)?;
    if n == 0 {
        return Err("--workflows must be positive".into());
    }
    let families = parse_families(args.get_or("families", "blast,seismology,genome"))?;
    let tasks = parse_task_range(args.get_or("tasks", "20-60"))?;
    let seed = args.get_usize("seed", 42)? as u64;

    let process = match args.get_or("process", "poisson") {
        "poisson" => ArrivalProcess::Poisson {
            rate: positive(args.get_f64("rate", 0.05)?, "--rate")?,
        },
        "uniform" => ArrivalProcess::Uniform {
            interval: positive(args.get_f64("interval", 10.0)?, "--interval")?,
        },
        "burst" => ArrivalProcess::Burst { at: 0.0 },
        other => {
            return Err(format!(
                "unknown --process {other:?} (poisson|uniform|burst)"
            ))
        }
    };

    let policy = AdmissionPolicy::parse(args.get_or("policy", "fifo"))
        .ok_or("unknown --policy (fifo|fifo-backfill|easy-backfill|shortest|memfit)")?;
    let algorithm = parse_algorithm(args)?;
    let lease = LeaseSizing {
        tasks_per_proc: args.get_usize("lease-tasks", 25)?.max(1),
        min_procs: args.get_usize("min-procs", 1)?.max(1),
        max_procs: args.get_usize("max-procs", usize::MAX)?.max(1),
        shrink_under_load: args.switch("lease-load-aware"),
    };
    if lease.min_procs > lease.max_procs {
        return Err(format!(
            "--min-procs {} exceeds --max-procs {}",
            lease.min_procs, lease.max_procs
        ));
    }

    // `--clusters a,b,...` switches to the federation tier; `--cluster`
    // keeps the single-cluster engine. Naming both is ambiguous.
    if args.get("cluster").is_some() && args.get("clusters").is_some() {
        return Err("--cluster and --clusters are mutually exclusive".into());
    }
    if args.get("routing").is_some() && args.get("clusters").is_none() {
        return Err("--routing requires --clusters (a federation to route across)".into());
    }
    if args.get("chaos").is_some() && args.get("clusters").is_none() {
        return Err("--chaos requires --clusters (membership events act on a federation)".into());
    }
    if args.get("failure-mode").is_some() && args.get("chaos").is_none() {
        return Err("--failure-mode requires --chaos (it defaults the plan's fail events)".into());
    }
    let bandwidth = match args.get("bandwidth") {
        Some(_) => Some(positive(args.get_f64("bandwidth", 0.0)?, "--bandwidth")?),
        None => None,
    };

    // `--unique K` generates a repeat-heavy trace: K distinct instances
    // cycled for n submissions (production-shaped traffic, ideal for
    // the solve cache). Omitting the flag keeps every submission
    // distinct; an explicit `--unique 0` is a usage error.
    let subs = match args.get_positive_usize("unique")? {
        Some(unique) => {
            dhp_online::submission::repeating_stream(unique, n, &families, tasks, &process, seed)
        }
        None => dhp_online::submission::stream(n, &families, tasks, &process, seed),
    };
    // `--elastic T` enables elastic lease growth: freed processors grow
    // a running lease whenever fewer than T workflows are queued (T=1:
    // only when the queue is empty). A non-positive threshold would
    // never trigger — usage error instead of a silently static run.
    let elastic = args.get_positive_usize("elastic")?;
    // `--elastic-shrink T` enables the dual reclamation: when T or more
    // workflows are queued, processors are clawed back from the running
    // workflow with the most unstarted work (suffix re-solved on the
    // reduced lease) to unblock admission. Like `--elastic`, a
    // non-positive threshold is a usage error.
    let elastic_shrink = args.get_positive_usize("elastic-shrink")?;
    let headroom = args.get_f64("headroom", 1.05)?;
    if headroom != 0.0 && headroom < 1.0 {
        return Err("--headroom must be >= 1 (or 0 to disable)".into());
    }

    // `--cache-file PATH` makes the solve cache durable: restored
    // before the run (a missing file is a silent cold start; a corrupt
    // one degrades to a cold start with a `recovery` note), rewritten
    // crash-safely at exit. `--autosave N` additionally rewrites the
    // snapshot every N clock steps of the event loop.
    let autosave = args.get_positive_usize("autosave")?;
    let persist = args.get("cache-file").map(|p| PersistSpec {
        path: std::path::PathBuf::from(p),
        autosave,
    });

    // Escape hatch: `--no-solve-cache` forces a fresh solver run per
    // probe (identical scheduling outcome, only slower — the solver
    // statistics in the report show the difference).
    let solve_cache = !args.switch("no-solve-cache");
    // `--cache-cap N` bounds the solve cache to an LRU capacity;
    // evictions surface in the report's solver statistics.
    let cache_cap = args.get_positive_usize("cache-cap")?;
    let cfg = OnlineConfig {
        policy,
        lease,
        algorithm,
        solver: Default::default(),
        elastic,
        elastic_shrink,
        persist,
    };
    let cache = match (solve_cache, cache_cap) {
        (true, None) => SolveCache::new(),
        (true, Some(cap)) => SolveCache::with_capacity(cap),
        (false, None) => SolveCache::disabled(),
        (false, Some(_)) => return Err("--cache-cap is meaningless with --no-solve-cache".into()),
    };
    if cfg.persist.is_some() && !solve_cache {
        return Err("--cache-file is meaningless with --no-solve-cache \
                    (a disabled cache has nothing to persist)"
            .into());
    }
    if autosave.is_some() && !solve_cache {
        return Err("--autosave is meaningless with --no-solve-cache \
                    (a disabled cache has nothing to persist)"
            .into());
    }
    if autosave.is_some() && cfg.persist.is_none() {
        return Err("--autosave requires --cache-file (a snapshot path to save to)".into());
    }

    // ------------------------------------------------ federation path
    if let Some(spec) = args.get("clusters") {
        let routing = RoutingPolicy::parse(args.get_or("routing", "least-loaded"))
            .ok_or("unknown --routing (round-robin|least-loaded|best-fit)")?;
        let mut members = Vec::new();
        for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let mut c = resolve_cluster(name)?;
            if let Some(beta) = bandwidth {
                c = c.with_bandwidth(beta);
            }
            if headroom != 0.0 {
                c = fit_cluster(&c, &subs, headroom);
            }
            members.push(c);
        }
        if members.is_empty() {
            return Err("--clusters must name at least one cluster".into());
        }
        let federation = Federation::new(members);
        // `--chaos events.json` merges a membership plan into the run;
        // `--failure-mode` fills in `mode` for fail events that omit it.
        let out = match args.get("chaos") {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read chaos plan {path:?}: {e}"))?;
                let mut plan = MembershipPlan::from_json(&text)?;
                if let Some(mode) = args.get("failure-mode") {
                    let mode = FailureMode::parse(mode)
                        .ok_or_else(|| format!("unknown --failure-mode {mode:?} (requeue|lost)"))?;
                    plan = plan.with_default_mode(mode);
                }
                // Joining members get the same bandwidth override and
                // workload fit the initial members got — a raw named
                // joiner would fail every memory probe against a trace
                // fitted to the scaled members and silently serve
                // nothing.
                plan = plan.map_join_clusters(|mut c| {
                    if let Some(beta) = bandwidth {
                        c = c.with_bandwidth(beta);
                    }
                    if headroom != 0.0 {
                        c = fit_cluster(&c, &subs, headroom);
                    }
                    c
                })?;
                serve_federation_chaos_with_cache(&federation, subs, &cfg, routing, &plan, &cache)?
            }
            None => serve_federation_with_cache(&federation, subs, &cfg, routing, &cache),
        };
        let text = if args.switch("summary") {
            out.report.summary()
        } else {
            out.report.to_json()
        };
        if let Some(path) = args.get("output") {
            std::fs::write(path, &text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
            return Ok(format!(
                "wrote {path}: {} members, {} completed, {} rejected, \
                 {} spillovers, utilization {:.1}%",
                out.report.clusters.len(),
                out.report.fleet.completed,
                out.report.fleet.rejected,
                out.report.spillovers,
                100.0 * out.report.fleet.utilization
            ));
        }
        return Ok(text);
    }

    // --------------------------------------------- single-cluster path
    let mut cluster = resolve_cluster(args.get_or("cluster", "default"))?;
    if let Some(beta) = bandwidth {
        cluster = cluster.with_bandwidth(beta);
    }
    if headroom != 0.0 {
        cluster = fit_cluster(&cluster, &subs, headroom);
    }
    let out = serve_with_cache(&cluster, subs, &cfg, &cache);

    let text = if args.switch("summary") {
        out.report.summary()
    } else {
        out.report.to_json()
    };
    if let Some(path) = args.get("output") {
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        return Ok(format!(
            "wrote {path}: {} completed, {} rejected, utilization {:.1}%",
            out.report.fleet.completed,
            out.report.fleet.rejected,
            100.0 * out.report.fleet.utilization
        ));
    }
    Ok(text)
}

fn positive(x: f64, flag: &str) -> Result<f64, String> {
    if x > 0.0 {
        Ok(x)
    } else {
        Err(format!("{flag} must be positive"))
    }
}

fn parse_families(list: &str) -> Result<Vec<Family>, String> {
    let fams: Result<Vec<Family>, String> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| {
            Family::ALL
                .into_iter()
                .find(|f| f.name().eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    let names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
                    format!("unknown family {name:?}; choose from {}", names.join("|"))
                })
        })
        .collect();
    let fams = fams?;
    if fams.is_empty() {
        return Err("--families must name at least one family".into());
    }
    Ok(fams)
}

fn parse_task_range(spec: &str) -> Result<(usize, usize), String> {
    let parse_one = |s: &str| {
        s.trim()
            .parse::<usize>()
            .map_err(|_| format!("--tasks: not an integer: {s:?}"))
    };
    let (lo, hi) = match spec.split_once('-') {
        Some((a, b)) => (parse_one(a)?, parse_one(b)?),
        None => {
            let v = parse_one(spec)?;
            (v, v)
        }
    };
    if lo < 2 || hi < lo {
        return Err(format!(
            "--tasks: bad range {spec:?} (want LO-HI with 2 <= LO <= HI)"
        ));
    }
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use crate::run;
    use crate::tests::Scratch;

    fn cli(line: &str) -> Result<String, String> {
        run(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn queue_reports_json_with_all_workflows() {
        let out = cli("queue --workflows 5 --families blast --tasks 20-30 \
             --process burst --cluster small --seed 7")
        .unwrap();
        let report: dhp_online::ServeReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.fleet.completed + report.fleet.rejected, 5);
        assert_eq!(report.policy, "fifo");
        assert_eq!(report.algorithm, "daghetpart");
    }

    #[test]
    fn serve_alias_and_summary() {
        let out = cli("serve --workflows 4 --families seismology --tasks 20-30 \
             --process uniform --interval 5 --policy shortest \
             --cluster small --summary")
        .unwrap();
        assert!(out.contains("policy shortest"), "{out}");
        assert!(out.contains("throughput"), "{out}");
    }

    #[test]
    fn backfill_policy_and_load_aware_sizing_parse_and_serve() {
        let out = cli("queue --workflows 5 --families blast --tasks 20-30 \
             --process burst --cluster small --seed 7 \
             --policy fifo-backfill --lease-load-aware")
        .unwrap();
        let report: dhp_online::ServeReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.policy, "fifo-backfill");
        assert_eq!(report.fleet.completed + report.fleet.rejected, 5);
        for r in &report.workflows {
            assert!(r.baseline_makespan.is_finite() && r.baseline_makespan > 0.0);
        }
    }

    #[test]
    fn queue_surfaces_solve_cache_stats_and_escape_hatch() {
        let base = "queue --workflows 6 --families blast --tasks 20-30 \
                    --process burst --cluster small --seed 7";
        let cached: dhp_online::ServeReport = serde_json::from_str(&cli(base).unwrap()).unwrap();
        let uncached: dhp_online::ServeReport =
            serde_json::from_str(&cli(&format!("{base} --no-solve-cache")).unwrap()).unwrap();
        // The cache is on by default and reports its counters; the
        // escape hatch records zero hits and one solver run per probe.
        assert!(cached.fleet.solve_cache_misses > 0);
        assert!(cached.fleet.baseline_solves > 0);
        assert_eq!(uncached.fleet.solve_cache_hits, 0);
        assert!(uncached.fleet.solve_cache_misses >= cached.fleet.solve_cache_misses);
        // Identical scheduling outcome either way.
        let mut a = cached.clone();
        let mut b = uncached.clone();
        a.fleet.clear_solve_stats();
        b.fleet.clear_solve_stats();
        assert_eq!(a.to_json(), b.to_json());
        // The text summary mentions the counters too.
        let summary = cli(&format!("{base} --summary")).unwrap();
        assert!(summary.contains("solve cache hits"), "{summary}");
        assert!(summary.contains("baseline solves"), "{summary}");
    }

    #[test]
    fn queue_unique_generates_repeat_heavy_traffic_the_cache_eats() {
        let out = cli("queue --workflows 12 --unique 3 --families blast \
             --tasks 26-40 --process burst --cluster small --seed 7")
        .unwrap();
        let report: dhp_online::ServeReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.fleet.completed + report.fleet.rejected, 12);
        // 3 unique topologies cycling: repeats hit the cache, and the
        // deduplicated baseline batch solves each topology once.
        assert!(
            report.fleet.solve_cache_hits > 0,
            "no hits on a repeat trace"
        );
        assert!(report.fleet.baseline_solves <= 3);
    }

    #[test]
    fn easy_backfill_and_elastic_parse_and_serve() {
        let out = cli(
            "queue --workflows 6 --unique 2 --families blast --tasks 20-30 \
             --process burst --cluster small --seed 7 \
             --policy easy-backfill --elastic 2",
        )
        .unwrap();
        let report: dhp_online::ServeReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.policy, "easy-backfill");
        assert_eq!(report.fleet.completed + report.fleet.rejected, 6);
        // The summary surfaces the growth counter.
        let summary = cli("queue --workflows 4 --families blast --tasks 20-30 \
             --process uniform --interval 40 --cluster small --elastic 1 --summary")
        .unwrap();
        assert!(summary.contains("leases grown"), "{summary}");
    }

    #[test]
    fn non_finite_numeric_flags_are_usage_errors() {
        // `NaN < 1.0` is false, so a NaN headroom used to pass the range
        // check and trip the fitting assertion; `inf` ran on infinite
        // memories, and an infinite bandwidth was accepted.
        for (flag, line) in [
            ("--headroom", "queue --workflows 2 --headroom NaN"),
            ("--headroom", "queue --workflows 2 --headroom inf"),
            ("--bandwidth", "queue --workflows 2 --bandwidth inf"),
            ("--rate", "queue --workflows 2 --process poisson --rate NaN"),
            (
                "--interval",
                "queue --workflows 2 --process uniform --interval inf",
            ),
        ] {
            let err = cli(line).unwrap_err();
            assert!(
                err.contains(flag) && err.contains("finite"),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn zero_unique_and_zero_elastic_are_usage_errors() {
        // An explicit `--unique 0` used to fall through to the
        // all-distinct default; it now fails loudly, as does a
        // non-positive `--elastic` threshold (which would never grow).
        let err = cli("queue --workflows 4 --unique 0").unwrap_err();
        assert!(
            err.contains("--unique") && err.contains("positive"),
            "{err}"
        );
        let err = cli("queue --workflows 4 --elastic 0").unwrap_err();
        assert!(
            err.contains("--elastic") && err.contains("positive"),
            "{err}"
        );
        let err = cli("queue --workflows 4 --elastic -1").unwrap_err();
        assert!(err.contains("--elastic"), "{err}");
    }

    #[test]
    fn chaos_plan_and_failure_mode_flags_serve() {
        let dir = Scratch::new("chaos");
        let plan = dir.file("chaos.json");
        // A fail event with no mode: `--failure-mode` must supply it.
        std::fs::write(
            &plan,
            r#"{ "events": [ { "kind": "fail", "at": 5.0, "member": 1 } ] }"#,
        )
        .unwrap();
        let base = format!(
            "queue --workflows 6 --families blast --tasks 20-30 \
             --process burst --seed 7 --clusters small,small \
             --chaos {plan}"
        );
        // Without the flag the plan is invalid (fail needs a mode)...
        let err = cli(&base).unwrap_err();
        assert!(err.contains("mode"), "{err}");
        // ...with it, both modes serve and partition the stream.
        let requeue = cli(&format!("{base} --failure-mode requeue")).unwrap();
        let report: dhp_online::FederationReport = serde_json::from_str(&requeue).unwrap();
        assert_eq!(report.fleet.completed + report.fleet.rejected, 6);
        assert_eq!(report.fleet.lost, 0);
        let lost = cli(&format!("{base} --failure-mode lost")).unwrap();
        let report: dhp_online::FederationReport = serde_json::from_str(&lost).unwrap();
        assert_eq!(
            report.fleet.completed + report.fleet.rejected + report.fleet.lost,
            6
        );
        // Deterministic, like every other serving path.
        let line = format!("{base} --failure-mode lost");
        assert_eq!(cli(&line).unwrap(), cli(&line).unwrap());
        // Unknown mode is a usage error.
        let err = cli(&format!("{base} --failure-mode explode")).unwrap_err();
        assert!(err.contains("--failure-mode"), "{err}");
    }

    #[test]
    fn a_named_joiner_is_fitted_to_the_workload_and_serves() {
        let dir = Scratch::new("chaos-join");
        let plan = dir.file("chaos-join.json");
        // Member 1 fails at peak; a *named* joiner replaces it. The
        // joiner spec carries the raw paper memory profile — the CLI
        // must fit it to the workload like the initial members, or it
        // silently fails every placement probe and serves nothing.
        std::fs::write(
            &plan,
            r#"{ "events": [
                 { "kind": "fail", "at": 5.0, "member": 1, "mode": "requeue" },
                 { "kind": "join", "at": 10.0, "spec": { "name": "small" } }
               ] }"#,
        )
        .unwrap();
        let out = cli(&format!(
            "queue --workflows 24 --unique 4 --families blast,seismology \
             --tasks 20-40 --process burst --seed 7 --clusters small,small \
             --chaos {plan}"
        ))
        .unwrap();
        let report: dhp_online::FederationReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.clusters.len(), 3);
        assert_eq!(report.fleet.completed + report.fleet.rejected, 24);
        assert!(
            report.clusters[2].fleet.completed > 0,
            "the fitted joiner must absorb displaced work: {}",
            report.summary()
        );
    }

    #[test]
    fn elastic_shrink_flag_parses_and_serves() {
        let out = cli("queue --workflows 8 --families blast --tasks 20-30 \
             --process burst --cluster small --seed 7 \
             --lease-tasks 4 --elastic-shrink 1")
        .unwrap();
        let report: dhp_online::ServeReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.fleet.completed + report.fleet.rejected, 8);
        assert!(
            report.fleet.lease_shrunk > 0,
            "a deep burst with wide leases must shrink at least once"
        );
        // The summary surfaces the counter.
        let summary = cli("queue --workflows 8 --families blast --tasks 20-30 \
             --process burst --cluster small --seed 7 \
             --lease-tasks 4 --elastic-shrink 1 --summary")
        .unwrap();
        assert!(summary.contains("shrunk"), "{summary}");
        // Non-positive thresholds are usage errors, like --elastic.
        let err = cli("queue --workflows 4 --elastic-shrink 0").unwrap_err();
        assert!(
            err.contains("--elastic-shrink") && err.contains("positive"),
            "{err}"
        );
    }

    #[test]
    fn serial_federation_flag_parses_and_requires_clusters() {
        // The federation has one driver; the switch that picked the
        // other one is gone, with or without --clusters.
        for extra in ["", " --clusters small,small"] {
            let err = cli(&format!("queue --workflows 4 --serial-federation{extra}")).unwrap_err();
            assert!(
                err.starts_with("unknown flag --serial-federation") && err.contains("USAGE"),
                "{err}"
            );
        }
    }

    #[test]
    fn chaos_flag_misuse_is_rejected() {
        let err = cli("queue --workflows 4 --chaos plan.json").unwrap_err();
        assert!(err.contains("--chaos requires --clusters"), "{err}");
        let err = cli("queue --workflows 4 --clusters small,small \
             --failure-mode lost")
        .unwrap_err();
        assert!(err.contains("--failure-mode requires --chaos"), "{err}");
        let err = cli("queue --workflows 4 --clusters small,small \
             --chaos /does/not/exist.json")
        .unwrap_err();
        assert!(err.contains("/does/not/exist.json"), "{err}");
    }

    #[test]
    fn federation_clusters_and_routing_serve() {
        let base = "queue --workflows 6 --families blast --tasks 20-30 \
                    --process burst --seed 7 --clusters small,small";
        for routing in ["round-robin", "least-loaded", "best-fit"] {
            let out = cli(&format!("{base} --routing {routing}")).unwrap();
            let report: dhp_online::FederationReport = serde_json::from_str(&out).unwrap();
            assert_eq!(report.routing, routing);
            assert_eq!(report.clusters.len(), 2);
            assert_eq!(report.total_procs, 36);
            assert_eq!(report.fleet.completed + report.fleet.rejected, 6);
            let served: usize = report.clusters.iter().map(|c| c.fleet.completed).sum();
            assert_eq!(served, report.fleet.completed);
        }
        // Routing defaults to least-loaded; the summary names it.
        let summary = cli(&format!("{base} --summary")).unwrap();
        assert!(summary.contains("routing least-loaded"), "{summary}");
        assert!(summary.contains("cluster 1:"), "{summary}");
        // Deterministic like the single-cluster path.
        assert_eq!(cli(base).unwrap(), cli(base).unwrap());
    }

    #[test]
    fn cache_cap_bounds_the_cache_and_reports_evictions() {
        let out = cli("queue --workflows 12 --unique 4 --families blast \
             --tasks 26-40 --process uniform --interval 15 --cluster small \
             --seed 7 --cache-cap 1")
        .unwrap();
        let capped: dhp_online::ServeReport = serde_json::from_str(&out).unwrap();
        assert!(
            capped.fleet.solve_cache_evictions > 0,
            "a 1-entry cache on a 4-topology trace must evict"
        );
        // The cap changes solver effort only, never the schedule.
        let out = cli("queue --workflows 12 --unique 4 --families blast \
             --tasks 26-40 --process uniform --interval 15 --cluster small \
             --seed 7")
        .unwrap();
        let unbounded: dhp_online::ServeReport = serde_json::from_str(&out).unwrap();
        let mut a = capped.clone();
        let mut b = unbounded.clone();
        a.fleet.clear_solve_stats();
        b.fleet.clear_solve_stats();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn federation_and_cache_flag_misuse_is_rejected() {
        let err = cli("queue --workflows 4 --routing least-loaded").unwrap_err();
        assert!(err.contains("--routing requires --clusters"), "{err}");
        let err = cli("queue --workflows 4 --cluster small --clusters small,small").unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = cli("queue --workflows 4 --clusters small,small --routing nosuch").unwrap_err();
        assert!(err.contains("--routing"), "{err}");
        let err = cli("queue --workflows 4 --cache-cap 0").unwrap_err();
        assert!(
            err.contains("--cache-cap") && err.contains("positive"),
            "{err}"
        );
        let err = cli("queue --workflows 4 --cache-cap 10 --no-solve-cache").unwrap_err();
        assert!(err.contains("--cache-cap"), "{err}");
        let err = cli("queue --workflows 4 --clusters ,").unwrap_err();
        assert!(err.contains("at least one cluster"), "{err}");
    }

    #[test]
    fn warm_start_flag_misuse_is_rejected() {
        let err = cli("queue --workflows 4 --cache-file snap.bin --no-solve-cache").unwrap_err();
        assert!(err.contains("--cache-file"), "{err}");
        let err = cli("queue --workflows 4 --cache-file snap.bin --autosave 5 \
             --no-solve-cache")
        .unwrap_err();
        assert!(err.contains("--no-solve-cache"), "{err}");
        let err = cli("queue --workflows 4 --autosave 5 --no-solve-cache").unwrap_err();
        assert!(err.contains("--autosave"), "{err}");
        let err = cli("queue --workflows 4 --autosave 5").unwrap_err();
        assert!(err.contains("--autosave requires --cache-file"), "{err}");
        let err = cli("queue --workflows 4 --cache-file snap.bin --autosave 0").unwrap_err();
        assert!(
            err.contains("--autosave") && err.contains("positive"),
            "{err}"
        );
    }

    #[test]
    fn cache_file_round_trips_and_warms_the_second_run() {
        let dir = Scratch::new("warm");
        let snap = dir.file("queue-warm-roundtrip.bin");
        let base = format!(
            "queue --workflows 6 --unique 2 --families blast --tasks 20-30 \
             --process burst --cluster small --seed 7 --cache-file {snap}"
        );
        let cold: dhp_online::ServeReport = serde_json::from_str(&cli(&base).unwrap()).unwrap();
        let warm: dhp_online::ServeReport = serde_json::from_str(&cli(&base).unwrap()).unwrap();
        assert!(cold.fleet.solve_cache_misses > 0, "first run must be cold");
        assert_eq!(warm.fleet.solve_cache_misses, 0, "second run must be warm");
        assert_eq!(warm.fleet.baseline_solves, 0);
        assert_eq!(warm.fleet.sim_cache_misses, 0);
        assert!(warm.recovery.is_none(), "a good snapshot is not a recovery");
        // The schedule is identical either way — only solver effort
        // differs between the cold and the warm run.
        let mut a = cold.clone();
        let mut b = warm.clone();
        a.fleet.clear_solve_stats();
        b.fleet.clear_solve_stats();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn queue_is_deterministic() {
        let line = "queue --workflows 4 --families blast --tasks 20-30 \
                    --process poisson --rate 0.1 --cluster small --seed 11";
        assert_eq!(cli(line).unwrap(), cli(line).unwrap());
    }

    #[test]
    fn queue_rejects_bad_flags() {
        assert!(cli("queue --workflows 0").is_err());
        assert!(cli("queue --families nosuch")
            .unwrap_err()
            .contains("family"));
        assert!(cli("queue --tasks 9-3").is_err());
        assert!(cli("queue --policy nosuch").is_err());
        assert!(cli("queue --process nosuch").is_err());
        assert!(cli("queue --rate -1").is_err());
        assert!(cli("queue --min-procs 8 --max-procs 4")
            .unwrap_err()
            .contains("exceeds"));
    }
}
