//! Golden outputs of the federation tier.
//!
//! `tests/golden/online_golden.txt` holds a single cluster to its
//! recorded outputs. These rows hold whole federated
//! runs — routing, every member's admission passes, the spillover
//! sweep, membership events and each member's deferred baseline batch —
//! to the outputs they had when the file was recorded:
//!
//! * `matrix` — {burst, poisson, uniform} × {round-robin, least-loaded,
//!   best-fit} × {fifo, fifo-backfill, easy-backfill} × elastic off/on ×
//!   chaos plan off/on, on three homogeneous members fitted to a
//!   repeat-heavy DAG trace;
//! * `hetero` — single-task traces on three members whose largest
//!   memories differ (1000 / 120 / 600), so that routing's memory
//!   screen and the spillover sweep's destination screen both turn
//!   members away;
//! * `fleet16` — sixteen homogeneous members;
//! * `nocache` / `capped` — a pass-through solve cache and a three-entry
//!   LRU cache, which run the baseline batch's cold and capacity-capped
//!   paths.
//!
//! Each line is `online_rows::federation_row`: a label, the FNV-1a of
//! the `FederationReport` JSON with the solver counters cleared on the
//! fleet and on every member, the spillover count, and the FNV-1a of
//! the full JSON (counters included).
//!
//! Re-record (only when an output change is intended):
//! `cargo test --release --test federation_golden -- --ignored record`.

#[path = "support/online_rows.rs"]
mod online_rows;

use dhp_online::submission::repeating_stream;
use dhp_online::{
    fit_cluster, serve_federation_chaos_with_cache, serve_federation_with_cache, AdmissionPolicy,
    FailureMode, MembershipPlan, OnlineConfig, RoutingPolicy, SolveCache, Submission,
};
use dhp_platform::configs::{cluster, ClusterKind, ClusterSize};
use dhp_platform::{Cluster, Federation, MemberSpec, ProcSpec, Processor};
use dhp_wfgen::arrivals::ArrivalProcess;
use dhp_wfgen::Family;
use online_rows::{federation_row, single_task_trace};

const GOLDEN: &str = include_str!("golden/federation_golden.txt");

const POLICIES: [AdmissionPolicy; 3] = [
    AdmissionPolicy::Fifo,
    AdmissionPolicy::FifoBackfill,
    AdmissionPolicy::EasyBackfill,
];

fn processes() -> [(&'static str, ArrivalProcess); 3] {
    [
        ("burst", ArrivalProcess::Burst { at: 0.0 }),
        ("poisson", ArrivalProcess::Poisson { rate: 0.05 }),
        ("uniform", ArrivalProcess::Uniform { interval: 10.0 }),
    ]
}

/// Six recipes cycled `n` times, and the member platform fitted to them.
fn dag_trace(process: &ArrivalProcess, n: usize) -> (Cluster, Vec<Submission>) {
    let subs = repeating_stream(
        6,
        n,
        &[Family::Blast, Family::Seismology],
        (10, 50),
        process,
        11,
    );
    let member = fit_cluster(
        &cluster(ClusterKind::LessHet, ClusterSize::Small),
        &subs,
        1.05,
    );
    (member, subs)
}

/// A drain, a requeueing failure and a join: every sync point a
/// membership plan adds. The joiner is a copy of the initial members.
fn chaos_plan(member: &Cluster) -> MembershipPlan {
    let processors = member
        .proc_ids()
        .map(|p| ProcSpec {
            name: "p".into(),
            speed: member.speed(p),
            memory: member.memory(p),
            count: 1,
        })
        .collect();
    MembershipPlan::new()
        .drain(0, 40.0)
        .fail(1, 90.0, FailureMode::Requeue)
        .join(
            MemberSpec {
                name: None,
                bandwidth: member.bandwidth,
                processors,
            },
            120.0,
        )
}

struct Case {
    label: String,
    federation: Federation,
    subs: Vec<Submission>,
    cfg: OnlineConfig,
    routing: RoutingPolicy,
    plan: Option<MembershipPlan>,
    /// The solve cache the run starts with.
    cache: fn() -> SolveCache,
}

impl Case {
    fn row(&self) -> String {
        let cache = (self.cache)();
        let out = match &self.plan {
            Some(plan) => serve_federation_chaos_with_cache(
                &self.federation,
                self.subs.clone(),
                &self.cfg,
                self.routing,
                plan,
                &cache,
            )
            .expect("the plan validates against the federation"),
            None => serve_federation_with_cache(
                &self.federation,
                self.subs.clone(),
                &self.cfg,
                self.routing,
                &cache,
            ),
        };
        federation_row(&self.label, &out.report)
    }
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for (pname, process) in processes() {
        let (member, subs) = dag_trace(&process, 30);
        for routing in RoutingPolicy::ALL {
            for policy in POLICIES {
                for (ename, elastic, elastic_shrink) in
                    [("off", None, None), ("on", Some(2), Some(4))]
                {
                    for chaos in [false, true] {
                        cases.push(Case {
                            label: format!(
                                "matrix {pname} {} {} elastic-{ename} chaos-{}",
                                routing.name(),
                                policy.name(),
                                if chaos { "on" } else { "off" }
                            ),
                            federation: Federation::homogeneous(member.clone(), 3),
                            subs: subs.clone(),
                            cfg: OnlineConfig {
                                policy,
                                elastic,
                                elastic_shrink,
                                ..OnlineConfig::default()
                            },
                            routing,
                            plan: chaos.then(|| chaos_plan(&member)),
                            cache: SolveCache::new,
                        });
                    }
                }
            }
        }
    }

    let hetero = Federation::new(vec![
        online_rows::cluster(),
        Cluster::new(vec![Processor::new("sml", 1.0, 120.0); 3], 1.0),
        Cluster::new(
            vec![
                Processor::new("mid", 2.0, 600.0),
                Processor::new("sml", 1.0, 120.0),
            ],
            1.0,
        ),
    ]);
    for (kind, pname) in ["burst", "poisson", "uniform"].into_iter().enumerate() {
        let subs = single_task_trace(60, kind as u8, 17);
        for routing in RoutingPolicy::ALL {
            for policy in POLICIES {
                cases.push(Case {
                    label: format!("hetero {pname} {} {}", routing.name(), policy.name()),
                    federation: hetero.clone(),
                    subs: subs.clone(),
                    cfg: OnlineConfig {
                        policy,
                        ..OnlineConfig::default()
                    },
                    routing,
                    plan: None,
                    cache: SolveCache::new,
                });
            }
        }
    }

    for (pname, process) in [
        ("burst", ArrivalProcess::Burst { at: 0.0 }),
        ("poisson", ArrivalProcess::Poisson { rate: 0.5 }),
    ] {
        let (member, subs) = dag_trace(&process, 160);
        for routing in RoutingPolicy::ALL {
            cases.push(Case {
                label: format!("fleet16 {pname} {} fifo", routing.name()),
                federation: Federation::homogeneous(member.clone(), 16),
                subs: subs.clone(),
                cfg: OnlineConfig::default(),
                routing,
                plan: None,
                cache: SolveCache::new,
            });
        }
    }

    let (member, subs) = dag_trace(&ArrivalProcess::Poisson { rate: 0.05 }, 30);
    let caches = [
        ("nocache", SolveCache::disabled as fn() -> SolveCache),
        ("capped", || SolveCache::with_capacity(3)),
    ];
    for (label, cache) in caches {
        cases.push(Case {
            label: format!("{label} poisson least-loaded fifo-backfill elastic-on"),
            federation: Federation::homogeneous(member.clone(), 3),
            subs: subs.clone(),
            cfg: OnlineConfig {
                policy: AdmissionPolicy::FifoBackfill,
                elastic: Some(2),
                elastic_shrink: Some(4),
                ..OnlineConfig::default()
            },
            routing: RoutingPolicy::LeastLoaded,
            plan: None,
            cache,
        });
    }
    cases
}

fn compute() -> String {
    let mut out = String::new();
    for case in cases() {
        out.push_str(&case.row());
        out.push('\n');
    }
    out
}

#[test]
fn federated_runs_reproduce_every_golden_line() {
    let fresh = compute();
    for (i, (want, got)) in GOLDEN.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(want, got, "golden line {i} differs");
    }
    assert_eq!(GOLDEN.lines().count(), fresh.lines().count());
    assert_eq!(GOLDEN.lines().count(), 108 + 27 + 6 + 2);
}

#[test]
#[ignore = "rewrites tests/golden/federation_golden.txt"]
fn record() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/federation_golden.txt"
    );
    std::fs::write(path, compute()).unwrap();
}
