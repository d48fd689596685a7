//! Shared by `tests/online_golden.rs`, `tests/backfill_invariants.rs`
//! and the federation golden suites: the single-task trace generator,
//! the row format of `tests/golden/online_golden.txt` and that of the
//! federation golden files.
#![allow(dead_code)] // each test binary uses its own part

use dhp_dag::fingerprint::{fnv1a_bytes, fnv1a_u64, FNV_OFFSET};
use dhp_online::submission::single_task;
use dhp_online::{
    serve, AdmissionPolicy, FederationReport, OnlineConfig, ReservationTrigger, ServeOutcome,
    Submission,
};
use dhp_platform::{Cluster, Processor};
use dhp_wfgen::arrivals::{arrival_times, ArrivalProcess};

/// Deterministic value derivation for trace parameters (the tests own
/// their randomness; proptest only supplies a master seed).
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One big-memory processor two jobs fight over, plus two small ones —
/// all the same speed (see `backfill_invariants`' module docs for why).
pub fn cluster() -> Cluster {
    Cluster::new(
        vec![
            Processor::new("big", 1.0, 1000.0),
            Processor::new("sml", 1.0, 120.0),
            Processor::new("sml", 1.0, 120.0),
        ],
        1.0,
    )
}

pub fn process_of(kind: u8) -> ArrivalProcess {
    match kind % 3 {
        0 => ArrivalProcess::Burst { at: 0.0 },
        1 => ArrivalProcess::Poisson { rate: 0.2 },
        _ => ArrivalProcess::Uniform { interval: 4.0 },
    }
}

/// `n` single-task jobs: memory mixes small (fits anywhere) and large
/// (big processor only, the head-blocking kind), work spreads an order
/// of magnitude so reservations and holes actually appear.
pub fn single_task_trace(n: usize, kind: u8, seed: u64) -> Vec<Submission> {
    let times = arrival_times(n, &process_of(kind), seed);
    let mut state = seed ^ 0xabcd_ef01_2345_6789;
    (0..n)
        .map(|i| {
            let work = 1.0 + (splitmix(&mut state) % 400) as f64 / 4.0;
            let memory = if splitmix(&mut state).is_multiple_of(3) {
                200.0 + (splitmix(&mut state) % 400) as f64
            } else {
                20.0 + (splitmix(&mut state) % 100) as f64
            };
            single_task(i, times[i], work, memory, &format!("job-{i}"))
        })
        .collect()
}

/// The `single` rows' elastic picks, `(label, growth threshold, shrink
/// threshold)` — the four the former proptest drew from.
pub const SINGLE_ELASTIC: [(&str, Option<usize>, Option<usize>); 4] = [
    ("off", None, None),
    ("grow-1", Some(1), None),
    ("shrink-1", None, Some(1)),
    ("grow-2+shrink-2", Some(2), Some(2)),
];

/// The seeds the `single` rows were recorded with.
pub const SINGLE_SEEDS: [u64; 8] = [
    0,
    1,
    17,
    2024,
    0xdead_beef,
    0x0123_4567_89ab_cdef,
    0x9e37_79b9_7f4a_7c15,
    u64::MAX,
];

/// One golden row: the label, FNV of the report JSON with the
/// solver-effort counters cleared, how many head reservations the
/// engine computed, FNV over every reservation's `(at, head id,
/// reservation, trigger)` in decision order, and FNV of the report JSON
/// *with* its counters (a rerun must repeat those too).
pub fn row(label: &str, out: &ServeOutcome) -> String {
    let mut scheduled = out.report.clone();
    scheduled.fleet.clear_solve_stats();
    let resv = out.reservations.iter().fold(FNV_OFFSET, |h, r| {
        let trigger = match r.trigger {
            ReservationTrigger::HeadBlocked => 0,
            ReservationTrigger::PostAdmission => 1,
        };
        [
            r.at.to_bits(),
            r.head_id as u64,
            r.reservation.to_bits(),
            trigger,
        ]
        .into_iter()
        .fold(h, fnv1a_u64)
    });
    format!(
        "{label}: {:016x} {} {resv:016x} {:016x}",
        fnv1a_bytes(scheduled.to_json().bytes()),
        out.reservations.len(),
        fnv1a_bytes(out.report.to_json().bytes()),
    )
}

/// One federation golden row: the label, FNV of the report JSON with
/// the solver-effort counters cleared on the fleet and on every member,
/// the spillover count, and FNV of the report JSON *with* its counters.
/// A change that moves only the last column moved solver effort (which
/// member paid for a probe, and whether it hit), not a schedule.
pub fn federation_row(label: &str, report: &FederationReport) -> String {
    let mut scheduled = report.clone();
    scheduled.fleet.clear_solve_stats();
    for c in &mut scheduled.clusters {
        c.fleet.clear_solve_stats();
    }
    format!(
        "{label}: {:016x} {} {:016x}",
        fnv1a_bytes(scheduled.to_json().bytes()),
        report.spillovers,
        fnv1a_bytes(report.to_json().bytes()),
    )
}

/// One run of the golden file: its label, trace and configuration.
pub struct Case {
    pub label: String,
    pub cluster: Cluster,
    pub subs: Vec<Submission>,
    pub cfg: OnlineConfig,
}

impl Case {
    pub fn serve(&self) -> ServeOutcome {
        serve(&self.cluster, self.subs.clone(), &self.cfg)
    }
}

/// The `single` cases: [`single_task_trace`] for n ∈ {3, 6, 9} × the
/// three arrival kinds × the three FIFO-family policies ×
/// [`SINGLE_ELASTIC`] × [`SINGLE_SEEDS`].
pub fn single_cases() -> Vec<Case> {
    let policies = [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::FifoBackfill,
        AdmissionPolicy::EasyBackfill,
    ];
    let mut cases = Vec::new();
    for n in [3usize, 6, 9] {
        for (kind, kname) in ["burst", "poisson", "uniform"].into_iter().enumerate() {
            for policy in policies {
                for (ename, elastic, elastic_shrink) in SINGLE_ELASTIC {
                    for seed in SINGLE_SEEDS {
                        cases.push(Case {
                            label: format!(
                                "single n={n} {kname} {} {ename} seed={seed:016x}",
                                policy.name()
                            ),
                            cluster: cluster(),
                            subs: single_task_trace(n, kind as u8, seed),
                            cfg: OnlineConfig {
                                policy,
                                elastic,
                                elastic_shrink,
                                ..OnlineConfig::default()
                            },
                        });
                    }
                }
            }
        }
    }
    cases
}
