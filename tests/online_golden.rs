//! Golden outputs of the single-cluster serving engine.
//!
//! `tests/golden/online_golden.txt` was recorded from an admission
//! driver the engine no longer has — one that materialised every pass's
//! candidate order, replayed every reservation from scratch, sent every
//! feasibility probe through the full placement search and shifted
//! taken entries out of the queue — and the recorder refused to write a
//! row today's driver did not reproduce. Every line is a label, the FNV
//! of the report JSON with the solver-effort counters cleared, the
//! number of head reservations the engine computed, the FNV over every
//! reservation's `(at, head id, reservation, trigger)` in decision
//! order, and — from today's driver — the FNV of the report JSON *with*
//! its counters.
//!
//! * `matrix` rows: `tests/engine_equivalence.rs`'s stream and cluster
//!   over {burst, poisson, uniform} × all five policies × elastic {off,
//!   grow 2, shrink 1, grow 2 + shrink 2}.
//! * `single` rows: `tests/backfill_invariants.rs`'s single-task traces
//!   (see `support/online_rows.rs` for the axes); that suite holds the
//!   engine to the same rows.
//!
//! Re-record (only when an output change is intended):
//! `cargo test --release --test online_golden -- --ignored record`.

#[path = "support/online_rows.rs"]
mod online_rows;

use dhp_online::{AdmissionPolicy, OnlineConfig};
use dhp_platform::{Cluster, Processor};
use dhp_wfgen::arrivals::ArrivalProcess;
use dhp_wfgen::Family;
use online_rows::{row, single_cases, Case};

const GOLDEN: &str = include_str!("golden/online_golden.txt");

/// `tests/engine_equivalence.rs`'s cluster.
fn small_cluster() -> Cluster {
    Cluster::new(
        vec![
            Processor::new("big", 4.0, 600.0),
            Processor::new("mid", 2.0, 400.0),
            Processor::new("mid", 2.0, 400.0),
            Processor::new("sml", 1.0, 250.0),
        ],
        1.0,
    )
}

fn matrix_cases() -> Vec<Case> {
    let processes = [
        ("burst", ArrivalProcess::Burst { at: 0.0 }),
        ("poisson", ArrivalProcess::Poisson { rate: 0.05 }),
        ("uniform", ArrivalProcess::Uniform { interval: 10.0 }),
    ];
    let elastic = [
        ("off", None, None),
        ("grow-2", Some(2), None),
        ("shrink-1", None, Some(1)),
        ("grow-2+shrink-2", Some(2), Some(2)),
    ];
    let mut cases = Vec::new();
    for (pname, process) in &processes {
        // `tests/engine_equivalence.rs`'s stream.
        let subs = dhp_online::submission::stream(
            8,
            &[Family::Blast, Family::Seismology],
            (20, 40),
            process,
            2024,
        );
        for policy in AdmissionPolicy::ALL {
            for (ename, elastic, elastic_shrink) in elastic {
                cases.push(Case {
                    label: format!("matrix {pname} {} {ename}", policy.name()),
                    cluster: small_cluster(),
                    subs: subs.clone(),
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
    cases
}

fn compute() -> String {
    let mut out = String::new();
    for case in matrix_cases().into_iter().chain(single_cases()) {
        out.push_str(&row(&case.label, &case.serve()));
        out.push('\n');
    }
    out
}

#[test]
fn the_engine_reproduces_every_golden_line() {
    let fresh = compute();
    let (mut matrix, mut single, mut reserved) = (0, 0, 0);
    for (i, (want, got)) in GOLDEN.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(want, got, "golden line {i} differs");
        matrix += want.starts_with("matrix ") as usize;
        single += want.starts_with("single ") as usize;
        let count = want.split(": ").nth(1).and_then(|c| c.split(' ').nth(1));
        reserved += (count != Some("0")) as usize;
    }
    assert_eq!(GOLDEN.lines().count(), fresh.lines().count());
    assert_eq!(matrix, 3 * 5 * 4);
    assert_eq!(single, 3 * 3 * 3 * 4 * 8);
    assert!(
        reserved * 4 > matrix + single,
        "premise: at least a quarter of the rows computed a head reservation ({reserved})"
    );
}

/// `(keys sharing a bucket with an earlier key, largest bucket)` when
/// `hashes` are placed by their low bits in a table of `buckets`, as a
/// `HashMap` places them.
fn spread(hashes: &[u64], buckets: usize) -> (usize, usize) {
    let mut load = vec![0usize; buckets];
    for &h in hashes {
        load[h as usize & (buckets - 1)] += 1;
    }
    let occupied = load.iter().filter(|&&l| l > 0).count();
    (hashes.len() - occupied, load.into_iter().max().unwrap_or(0))
}

/// The solve store folds its keys (`dhp_dag::fingerprint::FoldState`)
/// instead of running SipHash over them, because every word of a key is
/// already a hash. On the golden traces' distinct store keys the fold
/// must spread over a map's buckets like SipHash does — at the table
/// size a map of that many keys has, and at 2× and 4× it — and its top
/// seven bits, which a `HashMap` compares before the keys, must take
/// as many values.
#[test]
fn the_store_keys_of_the_golden_traces_spread_like_siphash() {
    use dhp_dag::fingerprint::FoldState;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{BuildHasher, BuildHasherDefault};
    let cache = dhp_online::SolveCache::new();
    for case in matrix_cases().into_iter().chain(single_cases()) {
        dhp_online::serve_with_cache(&case.cluster, case.subs.clone(), &case.cfg, &cache);
    }
    let keys: Vec<_> = cache.recency().1.into_iter().map(|(key, _)| key).collect();
    assert!(keys.len() > 200, "premise: {} distinct keys", keys.len());
    let fold: Vec<u64> = keys.iter().map(|k| FoldState.hash_one(k)).collect();
    let sip: Vec<u64> = keys
        .iter()
        .map(|k| BuildHasherDefault::<DefaultHasher>::default().hash_one(k))
        .collect();
    let table = (keys.len() * 8 / 7).next_power_of_two();
    for buckets in [table, 2 * table, 4 * table] {
        let (fold_shared, fold_max) = spread(&fold, buckets);
        let (sip_shared, sip_max) = spread(&sip, buckets);
        assert!(
            fold_shared * 10 <= sip_shared * 11 + 10 && fold_max <= sip_max + 1,
            "{} keys in {buckets} buckets: the fold shares {fold_shared} (largest {fold_max}), \
             SipHash {sip_shared} (largest {sip_max})",
            keys.len()
        );
    }
    let top7 = |hashes: &[u64]| {
        let mut seen = [false; 128];
        for &h in hashes {
            seen[(h >> 57) as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    };
    assert!(top7(&fold) >= top7(&sip) - 2);
}

#[test]
#[ignore = "rewrites tests/golden/online_golden.txt"]
fn record() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/online_golden.txt"
    );
    std::fs::write(path, compute()).unwrap();
}
