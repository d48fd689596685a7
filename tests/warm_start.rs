//! Integration tests of durable warm start (ISSUE 8 acceptance
//! criteria):
//!
//! * a repeat-heavy 500-submission trace round-trips through a
//!   `--cache-file` snapshot: the warm second run performs **zero**
//!   solver runs and zero simulations, and its report is byte-identical
//!   to the cold run's once the solver-effort counters are normalised;
//! * every corrupt-snapshot variant — truncated, bit-flipped, wrong
//!   format version, wrong solver-config hash, non-snapshot garbage —
//!   degrades to a cold start with a `recovery` note, **never a
//!   panic**, and never changes the schedule;
//! * a simulated kill between the temp-file write and the atomic
//!   rename leaves the prior snapshot loadable;
//! * the federation tier warm-starts and autosaves through the same
//!   snapshot path, and a single cluster's autosave leaves the report
//!   and the final snapshot as a save at exit does;
//! * a snapshot entry whose processor ids lie past its lease loads,
//!   is dropped at its first warm hit and solved again, never
//!   indexing the lease with them;
//! * the raw bytes a cold run's snapshot holds — lease sims and
//!   elastic grow/shrink suffix sims included — are pinned, a second
//!   cold run writes the same file, and save → load → save reproduces
//!   it exactly.

use dhp_dag::fingerprint::fnv1a_bytes;
use dhp_online::cache::temp_sibling;
use dhp_online::{
    serve, serve_federation, serve_with_cache, AdmissionPolicy, OnlineConfig, PersistSpec,
    RoutingPolicy, ServeOutcome, SolveCache, Submission,
};
use dhp_platform::{Cluster, Federation, Processor};
use dhp_wfgen::arrivals::ArrivalProcess;
use dhp_wfgen::Family;
use std::path::{Path, PathBuf};

/// A per-test scratch directory, removed when the test ends. Tests run
/// concurrently, and so may two runs of the suite: the process id and
/// the test's tag keep every snapshot file apart.
struct Scratch(PathBuf);

impl Scratch {
    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch(tag: &str) -> Scratch {
    let dir =
        std::env::temp_dir().join(format!("dhp-warm-start-tests-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    Scratch(dir)
}

/// The repeat-heavy acceptance trace: 500 submissions cycling 10
/// unique topologies.
fn trace_500x10() -> Vec<Submission> {
    dhp_online::submission::repeating_stream(
        10,
        500,
        &[Family::Blast, Family::Seismology, Family::Genome],
        (26, 50),
        &ArrivalProcess::Burst { at: 0.0 },
        11,
    )
}

/// A roomy homogeneous cluster every trace workflow fits on whole.
fn roomy_cluster(subs: &[Submission]) -> Cluster {
    let roomy = subs
        .iter()
        .map(|s| {
            let g = &s.instance.graph;
            g.node_ids().map(|u| g.task_requirement(u)).sum::<f64>()
        })
        .fold(0.0f64, f64::max);
    Cluster::new(vec![Processor::new("node", 1.0, roomy * 1.1); 8], 1.0)
}

fn persist_cfg(path: &Path) -> OnlineConfig {
    OnlineConfig {
        persist: Some(PersistSpec {
            path: path.to_path_buf(),
            autosave: None,
        }),
        ..OnlineConfig::default()
    }
}

/// JSON of the report with the solver-effort counters zeroed and the
/// recovery note dropped — everything a snapshot is allowed to change.
fn normalized_json(out: &ServeOutcome) -> String {
    let mut report = out.report.clone();
    report.fleet.clear_solve_stats();
    report.recovery = None;
    report.to_json()
}

#[test]
fn a_500_submission_trace_round_trips_through_a_snapshot() {
    let dir = scratch("round-trip");
    let snap = dir.join("cache.bin");
    let subs = trace_500x10();
    let cluster = roomy_cluster(&subs);
    let cfg = persist_cfg(&snap);

    let cold = serve(&cluster, subs.clone(), &cfg);
    assert!(
        cold.report.recovery.is_none(),
        "first run starts cold, silently"
    );
    assert!(cold.report.fleet.solve_cache_misses > 0);
    assert!(cold.report.fleet.sim_cache_misses > 0);
    assert!(snap.exists(), "the run must leave a snapshot behind");

    // The warm run replays everything from the snapshot: zero solver
    // runs, zero baseline solves, zero fresh simulations.
    let warm = serve(&cluster, subs, &cfg);
    assert!(warm.report.recovery.is_none());
    assert_eq!(
        warm.report.fleet.solve_cache_misses, 0,
        "warm run re-solved"
    );
    assert_eq!(warm.report.fleet.baseline_solves, 0);
    assert_eq!(
        warm.report.fleet.sim_cache_misses, 0,
        "warm run re-simulated"
    );
    assert!(warm.report.fleet.solve_cache_hits > 0);
    assert!(warm.report.fleet.sim_cache_hits > 0);

    // Byte-identical schedule, modulo the solver-effort counters.
    assert_eq!(normalized_json(&cold), normalized_json(&warm));
}

#[test]
fn every_corrupt_snapshot_variant_degrades_to_a_cold_start() {
    let dir = scratch("corruption");
    let snap = dir.join("cache.bin");
    // A small trace keeps the corruption runs fast; the semantics
    // under test are identical at any scale.
    let subs = dhp_online::submission::repeating_stream(
        3,
        24,
        &[Family::Blast, Family::Seismology],
        (20, 40),
        &ArrivalProcess::Burst { at: 0.0 },
        7,
    );
    let cluster = roomy_cluster(&subs);
    let cfg = persist_cfg(&snap);
    let reference = serve(&cluster, subs.clone(), &cfg);
    let good = std::fs::read(&snap).unwrap();
    assert!(good.len() > 64, "snapshot should have a header and a body");

    // Each variant: (tag, corrupted bytes, substring the recovery note
    // must carry). Offsets follow the documented layout: magic [0..8),
    // version [8..12), config_hash [12..20), body length [20..28),
    // body checksum [28..36), then the body — five counters and the
    // recency clock, then the entry count at [84..92).
    let truncated = good[..good.len() / 2].to_vec();
    let mut bitflip = good.clone();
    let last = bitflip.len() - 1;
    bitflip[last] ^= 0x40; // body corruption → checksum mismatch
    let mut wrong_version = good.clone();
    wrong_version[8..12].copy_from_slice(&999u32.to_le_bytes());
    // A genuine version-4 frame: the same header with its two 8-byte
    // record counts back after config_hash.
    let mut previous_version = good.clone();
    previous_version[8..12].copy_from_slice(&4u32.to_le_bytes());
    previous_version.splice(20..20, [0u8; 16]);
    // An entry count past the end of the body, under a valid checksum.
    let mut header_count = good.clone();
    header_count[84..92].copy_from_slice(&u64::MAX.to_le_bytes());
    let checksum = fnv1a_bytes(header_count[36..].iter().copied());
    header_count[28..36].copy_from_slice(&checksum.to_le_bytes());
    let mut wrong_config = good.clone();
    for b in &mut wrong_config[12..20] {
        *b ^= 0xff;
    }
    let garbage = b"this is not a snapshot of anything at all".to_vec();
    let variants: [(&str, Vec<u8>, &str); 7] = [
        ("truncated", truncated, "truncated"),
        ("bit-flipped", bitflip, "checksum"),
        ("wrong-version", wrong_version, "version 999"),
        ("previous-version", previous_version, "version 4"),
        ("header-count", header_count, "malformed"),
        ("wrong-config", wrong_config, "solver config"),
        ("garbage", garbage, "bad magic"),
    ];

    for (tag, bytes, note) in variants {
        std::fs::write(&snap, &bytes).unwrap();
        // Must not panic, must serve the full trace, must say why.
        let out = serve(&cluster, subs.clone(), &cfg);
        let recovery = out
            .report
            .recovery
            .as_deref()
            .unwrap_or_else(|| panic!("{tag}: expected a recovery note"));
        assert!(
            recovery.starts_with("cold start:") && recovery.contains(note),
            "{tag}: unexpected recovery note {recovery:?}"
        );
        assert!(
            out.report.fleet.solve_cache_misses > 0,
            "{tag}: a cold start must re-solve"
        );
        assert_eq!(
            normalized_json(&reference),
            normalized_json(&out),
            "{tag}: recovery changed the schedule"
        );
    }

    // Each recovery run rewrote the snapshot at exit; it is valid again.
    let healed = serve(&cluster, subs, &cfg);
    assert!(healed.report.recovery.is_none());
    assert_eq!(healed.report.fleet.solve_cache_misses, 0);
}

/// Offsets into a version-5 snapshot of every solved record's
/// processor table (its first entry) and, for a record with its sim,
/// of the sim's first lane processor. Layout as in the snapshot module
/// of `dhp_online::cache`: records start at 92; a record is its 25-byte
/// key, its stamp and its kind byte, then for a solve the makespan,
/// `k'`, the block array and the processor table, then for kind 2 the
/// sim.
fn solved_record_offsets(file: &[u8]) -> Vec<(usize, Option<usize>)> {
    let word = |at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap()) as usize;
    let mut found = Vec::new();
    let mut at = 92;
    for _ in 0..word(84) {
        let kind = file[at + 33];
        at += 34;
        if kind == 0 {
            continue;
        }
        at += 16;
        let tasks = word(at);
        at += 8 + 4 * tasks;
        let procs = at + 8;
        at += 8 + 8 * word(at);
        let mut lanes = None;
        if kind == 2 {
            at += 8 + 2 * (8 + 8 * tasks);
            lanes = (word(at) > 0).then_some(at + 8);
            at += 8 + 12 * word(at);
        }
        found.push((procs, lanes));
    }
    assert_eq!(at, file.len(), "walked every record");
    found
}

#[test]
fn an_entry_that_does_not_fit_its_lease_is_solved_again() {
    // The reader cannot see the graph or the lease a record's key
    // names. A processor id past the lease, in a solve's table or in
    // its sim's lanes, passes its checks under a re-stamped checksum;
    // the first warm hit must drop the entry and solve again instead
    // of indexing the lease with it.
    let dir = scratch("misfit");
    let snap = dir.join("cache.bin");
    let subs = dhp_online::submission::repeating_stream(
        3,
        24,
        &[Family::Blast, Family::Seismology],
        (20, 40),
        &ArrivalProcess::Burst { at: 0.0 },
        7,
    );
    let cluster = roomy_cluster(&subs);
    let cfg = persist_cfg(&snap);
    let reference = serve(&cluster, subs.clone(), &cfg);
    let good = std::fs::read(&snap).unwrap();
    let records = solved_record_offsets(&good);
    let (first_proc, _) = records[0];
    let first_lane = records
        .iter()
        .find_map(|&(_, lane)| lane)
        .expect("a record with a memoized sim");
    for (tag, at, width) in [("processor", first_proc, 8), ("lane", first_lane, 4)] {
        let mut bytes = good.clone();
        bytes[at..at + width].copy_from_slice(&1000u64.to_le_bytes()[..width]);
        let checksum = fnv1a_bytes(bytes[36..].iter().copied());
        bytes[28..36].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&snap, &bytes).unwrap();

        let out = serve(&cluster, subs.clone(), &cfg);
        assert!(out.report.recovery.is_none(), "{tag}: the file loads");
        assert!(
            out.report.fleet.solve_cache_misses > 0,
            "{tag}: the misfit entry was solved again"
        );
        for p in &out.placements {
            dhp_core::mapping::validate(&p.submission.instance.graph, &cluster, &p.mapping)
                .unwrap_or_else(|e| panic!("{tag}: invalid placement: {e:?}"));
        }
        assert_eq!(
            normalized_json(&reference),
            normalized_json(&out),
            "{tag}: the re-solve changed the schedule"
        );
    }
}

#[test]
fn a_kill_between_temp_write_and_rename_keeps_the_prior_snapshot() {
    let dir = scratch("kill-mid-save");
    let snap = dir.join("cache.bin");
    let subs = dhp_online::submission::repeating_stream(
        3,
        24,
        &[Family::Blast, Family::Seismology],
        (20, 40),
        &ArrivalProcess::Burst { at: 0.0 },
        7,
    );
    let cluster = roomy_cluster(&subs);
    let cfg = persist_cfg(&snap);
    serve(&cluster, subs.clone(), &cfg);

    // Simulate a crash mid-save: a later save got as far as writing a
    // (torn) temp sibling but died before the atomic rename. The
    // committed snapshot is untouched, so the next run is still warm.
    std::fs::write(temp_sibling(&snap), b"torn half-written snapshot").unwrap();
    let warm = serve(&cluster, subs, &cfg);
    assert!(warm.report.recovery.is_none());
    assert_eq!(
        warm.report.fleet.solve_cache_misses, 0,
        "the prior committed snapshot must still load"
    );
}

#[test]
fn a_missing_snapshot_is_a_silent_cold_start_that_creates_one() {
    let dir = scratch("first-run");
    let snap = dir.join("never-written.bin");
    let subs = dhp_online::submission::stream(
        6,
        &[Family::Blast],
        (20, 40),
        &ArrivalProcess::Burst { at: 0.0 },
        3,
    );
    let cluster = roomy_cluster(&subs);
    let out = serve(&cluster, subs, &persist_cfg(&snap));
    assert!(
        out.report.recovery.is_none(),
        "a first run is not a recovery"
    );
    assert!(out.report.fleet.solve_cache_misses > 0);
    assert!(snap.exists());
}

#[test]
fn the_federation_warm_starts_and_autosaves_through_the_same_snapshot() {
    let dir = scratch("federation");
    let snap = dir.join("cache.bin");
    let member = || {
        Cluster::new(
            vec![
                Processor::new("big", 4.0, 600.0),
                Processor::new("mid", 2.0, 400.0),
                Processor::new("sml", 1.0, 250.0),
            ],
            1.0,
        )
    };
    let fed = Federation::new(vec![member(), member()]);
    let subs = dhp_online::submission::repeating_stream(
        4,
        24,
        &[Family::Blast, Family::Seismology],
        (20, 40),
        &ArrivalProcess::Uniform { interval: 5.0 },
        7,
    );
    let cfg = OnlineConfig {
        persist: Some(PersistSpec {
            path: snap.clone(),
            autosave: Some(3),
        }),
        ..OnlineConfig::default()
    };
    let cold = serve_federation(&fed, subs.clone(), &cfg, RoutingPolicy::LeastLoaded);
    assert!(cold.report.recovery.is_none());
    assert!(cold.report.fleet.solve_cache_misses > 0);
    assert!(snap.exists());

    let warm = serve_federation(&fed, subs.clone(), &cfg, RoutingPolicy::LeastLoaded);
    assert!(warm.report.recovery.is_none());
    assert_eq!(warm.report.fleet.solve_cache_misses, 0);
    assert_eq!(warm.report.fleet.baseline_solves, 0);
    assert_eq!(warm.report.fleet.sim_cache_misses, 0);
    // The snapshot changes solver effort only, never the schedule: a
    // persistence-free run agrees byte-for-byte once normalised.
    let plain = serve_federation(
        &fed,
        subs,
        &OnlineConfig::default(),
        RoutingPolicy::LeastLoaded,
    );
    let strip = |r: &dhp_online::FederationReport| {
        let mut r = r.clone();
        r.fleet.clear_solve_stats();
        for c in &mut r.clusters {
            c.fleet.clear_solve_stats();
        }
        r.to_json()
    };
    assert_eq!(strip(&plain.report), strip(&warm.report));
    assert_eq!(strip(&plain.report), strip(&cold.report));
}

/// `tests/engine_equivalence.rs`'s cluster and stream, served with
/// growth and shrinking so the cache holds suffix sims next to the
/// lease sims, persisting to `snap`.
fn cold_elastic_case(snap: &Path) -> (Cluster, Vec<Submission>, OnlineConfig) {
    let cluster = Cluster::new(
        vec![
            Processor::new("big", 4.0, 600.0),
            Processor::new("mid", 2.0, 400.0),
            Processor::new("mid", 2.0, 400.0),
            Processor::new("sml", 1.0, 250.0),
        ],
        1.0,
    );
    let subs = dhp_online::submission::stream(
        8,
        &[Family::Blast, Family::Seismology],
        (20, 40),
        &ArrivalProcess::Burst { at: 0.0 },
        2024,
    );
    let cfg = OnlineConfig {
        policy: AdmissionPolicy::FifoBackfill,
        elastic: Some(2),
        elastic_shrink: Some(2),
        ..persist_cfg(snap)
    };
    (cluster, subs, cfg)
}

/// Serves [`cold_elastic_case`] on a capped cache: it runs the baseline
/// batch on one worker, so the batch's LRU stamps do not depend on
/// thread interleaving.
fn serve_capped(cluster: &Cluster, subs: Vec<Submission>, cfg: &OnlineConfig) -> ServeOutcome {
    serve_with_cache(cluster, subs, cfg, &SolveCache::with_capacity(1 << 20))
}

#[test]
fn a_cold_elastic_runs_snapshot_bytes_are_pinned_and_reload_exactly() {
    let dir = scratch("snapshot-pin");
    let snap = dir.join("cache.bin");
    let (cluster, subs, cfg) = cold_elastic_case(&snap);
    let cold = serve_capped(&cluster, subs, &cfg);
    assert!(cold.report.recovery.is_none());
    assert_eq!(
        (
            cold.report.fleet.lease_grown,
            cold.report.fleet.lease_shrunk
        ),
        (2, 4),
        "premise: the run grows and shrinks leases"
    );
    let saved = std::fs::read(&snap).unwrap();
    assert_eq!(
        fnv1a_bytes(saved.iter().copied()),
        0xd7c2_a07b_a7f6_8ed6,
        "snapshot bytes moved"
    );

    // A second cold run leaves the same bytes: no field of the file
    // is a wall-clock reading.
    let second = dir.join("second.bin");
    let (cluster, subs, cfg) = cold_elastic_case(&second);
    serve_capped(&cluster, subs, &cfg);
    assert_eq!(std::fs::read(&second).unwrap(), saved);

    // Save → load → save reproduces the file byte for byte.
    let chash = SolveCache::config_hash(&cfg.solver);
    let reloaded = SolveCache::new();
    let summary = reloaded.load_from(&snap, chash).unwrap();
    assert_eq!(summary.sims as u64, cold.report.fleet.sim_cache_misses);
    let again = dir.join("again.bin");
    reloaded.save_to(&again, chash).unwrap();
    assert_eq!(std::fs::read(&again).unwrap(), saved);
}

#[test]
fn single_cluster_autosave_changes_neither_the_report_nor_the_snapshot() {
    // `--autosave 1` rewrites the snapshot at every clock step of the
    // single-cluster run too; what it leaves behind at exit, and the
    // report, are those of a run that saves only at exit.
    let dir = scratch("single-autosave");
    let run = |autosave: Option<usize>, tag: &str| {
        let snap = dir.join(tag);
        let (cluster, subs, mut cfg) = cold_elastic_case(&snap);
        if let Some(spec) = cfg.persist.as_mut() {
            spec.autosave = autosave;
        }
        let out = serve_capped(&cluster, subs, &cfg);
        assert!(out.report.recovery.is_none(), "{tag}");
        (out.report.to_json(), std::fs::read(&snap).unwrap())
    };
    let (every_step, every_step_snap) = run(Some(1), "autosave.bin");
    let (at_exit, at_exit_snap) = run(None, "exit.bin");
    assert_eq!(every_step, at_exit);
    assert_eq!(every_step_snap, at_exit_snap);
}
