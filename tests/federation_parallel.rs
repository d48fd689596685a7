//! Golden rows of the federation driver over the matrix that once held
//! its parallel member stepping to the sequential path, before that
//! second path was deleted: {burst, poisson, uniform} × {round-robin,
//! least-loaded, best-fit} × chaos on/off × elastic on/off, a
//! three-entry LRU cache under every routing, and a chaos + elastic
//! burst served fifty times.
//!
//! Every run is held to its row of
//! `tests/golden/federation_parallel_golden.txt`
//! (`online_rows::federation_row`: the report digest with solver
//! counters cleared, the spillover count, and the full digest).
//! Re-record (only when an output change is intended):
//! `cargo test --release --test federation_parallel -- --ignored record`.

#[path = "support/online_rows.rs"]
mod online_rows;

use dhp_online::{
    fit_cluster, serve_federation_chaos_with_cache, serve_federation_with_cache, FailureMode,
    FederationReport, MembershipPlan, OnlineConfig, RoutingPolicy, SolveCache, Submission,
};
use dhp_platform::configs::{cluster, ClusterKind, ClusterSize};
use dhp_platform::Federation;
use dhp_wfgen::arrivals::ArrivalProcess;
use dhp_wfgen::Family;
use online_rows::federation_row;

const GOLDEN: &str = include_str!("golden/federation_parallel_golden.txt");

fn trace(process: &ArrivalProcess, n: usize) -> (Federation, Vec<Submission>) {
    let subs = dhp_online::submission::repeating_stream(
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
    (Federation::homogeneous(member, 3), subs)
}

/// A drain (queue migration) and a requeue failure (in-service
/// rebuild) on distinct members.
fn chaos_plan() -> MembershipPlan {
    MembershipPlan::new()
        .drain(0, 40.0)
        .fail(1, 90.0, FailureMode::Requeue)
}

/// One recorded run: its label, trace, configuration and routing.
struct Case {
    label: String,
    fed: Federation,
    subs: Vec<Submission>,
    cfg: OnlineConfig,
    routing: RoutingPolicy,
    chaos: bool,
    /// The solve cache the run starts with.
    cache: fn() -> SolveCache,
}

impl Case {
    fn serve(&self) -> FederationReport {
        let (subs, cache) = (self.subs.clone(), (self.cache)());
        if self.chaos {
            let plan = chaos_plan();
            serve_federation_chaos_with_cache(
                &self.fed,
                subs,
                &self.cfg,
                self.routing,
                &plan,
                &cache,
            )
            .expect("the plan validates against a 3-member federation")
            .report
        } else {
            serve_federation_with_cache(&self.fed, subs, &self.cfg, self.routing, &cache).report
        }
    }

    /// The run's golden row.
    fn row(&self, report: &FederationReport) -> String {
        federation_row(&self.label, report)
    }

    /// The recorded row for this case's label.
    fn golden(&self) -> &'static str {
        let prefix = format!("{}: ", self.label);
        GOLDEN
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no golden row for {}", self.label))
    }
}

/// {burst, poisson, uniform} × routings × chaos off/on × elastic off/on.
fn matrix() -> Vec<Case> {
    let processes = [
        ("burst", ArrivalProcess::Burst { at: 0.0 }),
        ("poisson", ArrivalProcess::Poisson { rate: 0.05 }),
        ("uniform", ArrivalProcess::Uniform { interval: 10.0 }),
    ];
    let mut cases = Vec::new();
    for (pname, process) in &processes {
        let (fed, subs) = trace(process, 36);
        for routing in RoutingPolicy::ALL {
            for chaos in [false, true] {
                for elastic in [None, Some(2)] {
                    cases.push(Case {
                        label: format!(
                            "matrix {pname} {} chaos-{} elastic-{}",
                            routing.name(),
                            if chaos { "on" } else { "off" },
                            if elastic.is_some() { "on" } else { "off" },
                        ),
                        fed: fed.clone(),
                        subs: subs.clone(),
                        cfg: OnlineConfig {
                            elastic,
                            elastic_shrink: elastic.map(|_| 4),
                            ..OnlineConfig::default()
                        },
                        routing,
                        chaos,
                        cache: SolveCache::new,
                    });
                }
            }
        }
    }
    cases
}

/// A three-entry LRU cache under every routing.
fn capped() -> Vec<Case> {
    let (fed, subs) = trace(&ArrivalProcess::Uniform { interval: 8.0 }, 48);
    RoutingPolicy::ALL
        .into_iter()
        .map(|routing| Case {
            label: format!("capped uniform {}", routing.name()),
            fed: fed.clone(),
            subs: subs.clone(),
            cfg: OnlineConfig::default(),
            routing,
            chaos: false,
            cache: || SolveCache::with_capacity(3),
        })
        .collect()
}

/// The stress loop's chaos + elastic burst.
fn stress() -> Case {
    let (fed, subs) = trace(&ArrivalProcess::Burst { at: 0.0 }, 24);
    Case {
        label: "stress burst least-loaded chaos-on elastic-on".into(),
        fed,
        subs,
        cfg: OnlineConfig {
            elastic: Some(2),
            ..OnlineConfig::default()
        },
        routing: RoutingPolicy::LeastLoaded,
        chaos: true,
        cache: SolveCache::new,
    }
}

#[test]
fn parallel_driver_is_byte_identical_to_sequential_across_the_matrix() {
    let cases = matrix();
    assert_eq!(cases.len(), 36);
    for case in &cases {
        assert_eq!(
            case.row(&case.serve()),
            case.golden(),
            "{} moved",
            case.label
        );
    }
    assert_eq!(GOLDEN.lines().count(), 36 + 3 + 1);
}

#[test]
fn lru_eviction_under_the_striped_store_is_deterministic() {
    // A cap far below the trace's working set forces evictions through
    // the store's LRU scan; the victim choice (and with it every later
    // hit/miss) must repeat run to run.
    for case in capped() {
        let a = case.serve();
        let b = case.serve();
        assert!(
            a.fleet.solve_cache_evictions > 0,
            "{}: the cap never evicted — the test is not exercising LRU",
            case.label
        );
        assert_eq!(
            case.row(&a),
            case.row(&b),
            "{}: capped runs diverged",
            case.label
        );
        assert_eq!(case.row(&a), case.golden(), "{} moved", case.label);
    }
}

#[test]
fn fifty_stress_runs_yield_one_digest() {
    // Fifty runs over a chaos + elastic trace must all land on the
    // recorded row: one lucky run proves little about shared state.
    let case = stress();
    for i in 0..50 {
        assert_eq!(
            case.row(&case.serve()),
            case.golden(),
            "stress run {i} moved"
        );
    }
}

#[test]
#[ignore = "rewrites tests/golden/federation_parallel_golden.txt"]
fn record() {
    let mut out = String::new();
    for case in matrix().into_iter().chain(capped()).chain([stress()]) {
        out.push_str(&case.row(&case.serve()));
        out.push('\n');
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/federation_parallel_golden.txt"
    );
    std::fs::write(path, out).unwrap();
}
