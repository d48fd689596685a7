//! Unit tests of the `DHPCACHE` snapshot: round trips of entries,
//! stamps, counters and sims, and hostile files that must load as
//! classified cold starts, never a panic or a partial restore.

use crate::cache::persist::{encode, frame, HEADER_LEN};
use crate::cache::store::{CachedSolve, StoreImage};
use crate::cache::{
    temp_sibling, CacheView, LoadSummary, SimOutcome, SnapshotError, SolveCache, SolveCacheStats,
    Solver,
};
use dhp_core::daghetpart::DagHetPartConfig;
use dhp_core::{Algorithm, Mapping, MappingResult};
use dhp_dag::{builder, Partition};
use dhp_platform::{Cluster, ProcId, Processor};
use std::sync::Arc;
use std::time::Duration;

fn cluster() -> Cluster {
    Cluster::new(
        vec![
            Processor::new("m0", 2.0, 64.0),
            Processor::new("m1", 4.0, 128.0),
            Processor::new("m2", 1.0, 32.0),
            Processor::new("m3", 8.0, 256.0),
        ],
        1.0,
    )
}

/// A temp directory unique to the calling test and process, removed
/// when the test ends, whether it passes or fails.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn join(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch(tag: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("dhp-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    Scratch(dir)
}

/// Populates a cache with two solved entries (one hit to order the
/// LRU stamps), a memoized NoSolution, and one sim outcome;
/// returns the graphs for later probing. Every key carries the
/// default DagHetPart settings' config hash.
fn populate(cache: &SolveCache) -> (Vec<dhp_dag::Dag>, u64) {
    let c = cluster();
    let solver = Solver::new(Algorithm::DagHetPart, DagHetPartConfig::default());
    let lease = [dhp_platform::ProcId(3), dhp_platform::ProcId(1)];
    let shape = c.shape_of_slice(&lease);
    let graphs: Vec<dhp_dag::Dag> = (4..6).map(|n| builder::chain(n, 2.0, 4.0, 1.0)).collect();
    let view = CacheView::direct(cache, &solver);
    let solve =
        |g: &dhp_dag::Dag, ids: &[dhp_platform::ProcId]| view.solve(g, g.fingerprint(), &c, ids);
    for g in &graphs {
        solve(g, &lease).unwrap();
    }
    // Refresh g0 so the snapshot carries a non-trivial LRU order.
    solve(&graphs[0], &lease).unwrap();
    let big = builder::chain(40, 1.0, 30.0, 5.0);
    let _ = solve(&big, &[dhp_platform::ProcId(2)]);
    let key = view.key(graphs[0].fingerprint(), shape);
    view.sim_outcome_keyed(key, || SimOutcome {
        makespan: 12.5,
        task_start: vec![0.0, 2.5, 5.0, 7.5],
        task_finish: vec![2.5, 5.0, 7.5, 12.5],
        lanes: vec![(0, 10.0), (1, 2.5)],
    });
    (graphs, shape)
}

#[test]
fn snapshot_roundtrips_entries_stamps_stats_and_sims() {
    let dir = scratch("roundtrip");
    let path = dir.join("cache.snap");
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::new();
    let (graphs, shape) = populate(&cache);
    let saved_stats = cache.stats();
    cache.save_to(&path, chash).unwrap();

    let restored = SolveCache::new();
    let summary = restored.load_from(&path, chash).unwrap();
    assert_eq!(summary, LoadSummary { solves: 3, sims: 1 });
    assert_eq!(restored.len(), 3);
    assert_eq!(restored.sim_len(), 1);
    assert_eq!(restored.stats(), saved_stats, "cumulative stats carry over");

    // Warm probes: both solves hit, the sim hits bit-exactly.
    let c = cluster();
    let sub = c.subcluster(&[dhp_platform::ProcId(3), dhp_platform::ProcId(1)]);
    let solver = Solver::new(Algorithm::DagHetPart, cfg.clone());
    let view = CacheView::direct(&restored, &solver);
    for g in &graphs {
        let direct = Algorithm::DagHetPart.solve(g, sub.cluster(), &cfg).unwrap();
        let warm = view
            .solve(g, g.fingerprint(), &c, sub.global_ids())
            .unwrap();
        assert_eq!(warm.makespan, direct.makespan);
        assert_eq!(warm.mapping.proc_of_block, direct.mapping.proc_of_block);
    }
    let key = view.key(graphs[0].fingerprint(), shape);
    let sim = view.sim_outcome_keyed(key, || panic!("restored sim must hit"));
    assert_eq!(sim.makespan, 12.5);
    assert_eq!(sim.lanes, vec![(0, 10.0), (1, 2.5)]);
    let after = restored.stats();
    assert_eq!(after.hits, saved_stats.hits + graphs.len() as u64);
    assert_eq!(after.misses, saved_stats.misses);
    assert_eq!(after.sim_hits, saved_stats.sim_hits + 1);
}

#[test]
fn restored_lru_order_survives_the_roundtrip() {
    let dir = scratch("lru");
    let path = dir.join("cache.snap");
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let unbounded = SolveCache::new();
    let (graphs, shape) = populate(&unbounded);
    unbounded.save_to(&path, chash).unwrap();

    // Load into a capacity-2 cache: the snapshot's 3 entries evict
    // down to 2, and the victim is the entry with the *oldest*
    // restored stamp (the NoSolution probe was last, g1 before it,
    // g0 was refreshed) — so g1... wait, g0 refreshed last of the
    // solves; order is g1 < g0 < NoSolution. The victim is g1.
    let capped = SolveCache::with_capacity(2);
    capped.load_from(&path, chash).unwrap();
    assert_eq!(capped.len(), 2);
    assert!(capped.is_warm(&(graphs[0].fingerprint(), shape, Algorithm::DagHetPart, chash)));
    assert!(!capped.is_warm(&(graphs[1].fingerprint(), shape, Algorithm::DagHetPart, chash)));
}

#[test]
fn missing_file_is_classified_not_a_panic() {
    let dir = scratch("missing");
    let cache = SolveCache::new();
    assert_eq!(
        cache.load_from(&dir.join("nope.snap"), 1).unwrap_err(),
        SnapshotError::Missing
    );
    assert!(cache.is_empty());
}

#[test]
fn hostile_files_degrade_to_classified_cold_starts() {
    let dir = scratch("hostile");
    let path = dir.join("cache.snap");
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::new();
    populate(&cache);
    cache.save_to(&path, chash).unwrap();
    let good = std::fs::read(&path).unwrap();

    let load = |bytes: &[u8]| -> (SolveCache, Result<LoadSummary, SnapshotError>) {
        let p = dir.join("mut.snap");
        std::fs::write(&p, bytes).unwrap();
        let fresh = SolveCache::new();
        let loaded = fresh.load_from(&p, chash);
        (fresh, loaded)
    };
    let try_load = |bytes: &[u8]| -> SnapshotError {
        let (fresh, loaded) = load(bytes);
        // The failed load never half-populates the cache.
        assert!(fresh.is_empty() && fresh.sim_len() == 0);
        loaded.unwrap_err()
    };

    // Truncated: drop the tail of the body.
    assert_eq!(try_load(&good[..good.len() - 7]), SnapshotError::Truncated);
    // Truncated inside the header.
    assert_eq!(try_load(&good[..10]), SnapshotError::Truncated);
    // Bit flip in the body: checksum catches it.
    let mut flipped = good.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    assert_eq!(try_load(&flipped), SnapshotError::ChecksumMismatch);
    // Foreign file.
    assert_eq!(
        try_load(b"{\"not\": \"a snapshot\"}"),
        SnapshotError::BadMagic
    );
    // Wrong format version — a later one, and the previous one
    // (whose header is two fields longer; it is never parsed).
    for v in [99u32, 4] {
        let mut wrong_ver = good.clone();
        wrong_ver[8..12].copy_from_slice(&v.to_le_bytes());
        assert_eq!(try_load(&wrong_ver), SnapshotError::WrongVersion(v));
    }
    // An entry count no body of this length can hold is refused
    // before it sizes anything, checksum re-stamped; one that is
    // merely one too many runs off the end of the body.
    let body = &good[HEADER_LEN..];
    let count_at = 6 * 8;
    assert_eq!(body[count_at..count_at + 8], 3u64.to_le_bytes());
    for claimed in [u64::MAX, 4] {
        let mut more = body.to_vec();
        more[count_at..count_at + 8].copy_from_slice(&claimed.to_le_bytes());
        let err = try_load(&frame(chash, &more));
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err:?}");
    }
    // One solved entry over two tasks in two blocks, the block
    // array and the processor table made hostile by hand.
    let one_solve = |proc_of_block: Vec<Option<ProcId>>| -> Vec<u8> {
        let local = MappingResult {
            mapping: Mapping {
                partition: Partition::from_dense(vec![0, 1]),
                proc_of_block,
            },
            makespan: 1.0,
            kprime: 2,
            elapsed: Duration::ZERO,
        };
        let image = StoreImage {
            tick: 1,
            stats: SolveCacheStats::default(),
            entries: vec![(
                (1, 2, Algorithm::DagHetPart, chash),
                CachedSolve::Solved {
                    local: Arc::new(local),
                    sim: None,
                },
                1,
            )],
        };
        encode(&image)
    };
    let fine = one_solve(vec![Some(ProcId(0)), Some(ProcId(1))]);
    assert_eq!(
        load(&frame(chash, &fine)).1,
        Ok(LoadSummary { solves: 1, sims: 0 }),
        "premise: the hand-built entry loads"
    );
    // Blocks [0, 1] → [1, 0]: still two blocks, one processor
    // each, but block 1 comes before block 0.
    let blocks: Vec<u8> = [
        2u64.to_le_bytes().as_slice(),
        &0u32.to_le_bytes(),
        &1u32.to_le_bytes(),
    ]
    .concat();
    let at = fine
        .windows(blocks.len())
        .position(|w| w == blocks)
        .unwrap();
    let mut non_dense = fine.clone();
    non_dense[at + 8..at + 12].copy_from_slice(&1u32.to_le_bytes());
    non_dense[at + 12..at + 16].copy_from_slice(&0u32.to_le_bytes());
    // A processor table one entry short of the block count.
    let short = one_solve(vec![Some(ProcId(0))]);
    // Records in descending and in repeated key order, a stamp past
    // the clock (1), a byte after the last record and an unknown
    // entry kind.
    let no_solutions = |fps: [u64; 2], stamp: u64| -> Vec<u8> {
        let key = |fp| (fp, 2, Algorithm::DagHetPart, chash);
        let entries = fps.map(|fp| (key(fp), CachedSolve::NoSolution, stamp));
        encode(&StoreImage {
            tick: 1,
            stats: SolveCacheStats::default(),
            entries: entries.to_vec(),
        })
    };
    assert_eq!(
        load(&frame(chash, &no_solutions([1, 2], 1))).1,
        Ok(LoadSummary { solves: 2, sims: 0 }),
        "premise: ascending keys load"
    );
    let mut trailing = fine.clone();
    trailing.push(0);
    // The last byte is the last record's kind.
    let mut unknown_kind = no_solutions([1, 2], 1);
    *unknown_kind.last_mut().unwrap() = 3;
    for body in [
        non_dense,
        short,
        no_solutions([2, 1], 1),
        no_solutions([1, 1], 1),
        no_solutions([1, 2], 2),
        trailing,
        unknown_kind,
    ] {
        let err = try_load(&frame(chash, &body));
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err:?}");
    }
    // Wrong solver config: the whole file is refused.
    let fresh = SolveCache::new();
    let err = fresh.load_from(&path, chash ^ 1).unwrap_err();
    assert!(matches!(err, SnapshotError::ConfigMismatch { .. }));
    assert!(fresh.is_empty());
}

/// Every prefix of a saved file, and seeded single-byte mutations
/// of its body with the checksum re-stamped: each load returns `Ok`
/// or a classified error — never a panic — and an `Err` leaves the
/// cache empty.
#[test]
fn prefixes_and_mutated_bodies_never_panic() {
    let dir = scratch("hostile-bytes");
    let path = dir.join("cache.snap");
    let chash = SolveCache::config_hash(&DagHetPartConfig::default());
    let cache = SolveCache::new();
    populate(&cache);
    cache.save_to(&path, chash).unwrap();
    let good = std::fs::read(&path).unwrap();

    let load = |bytes: &[u8]| -> Result<LoadSummary, SnapshotError> {
        std::fs::write(&path, bytes).unwrap();
        let fresh = SolveCache::new();
        let loaded = fresh.load_from(&path, chash);
        if loaded.is_err() {
            assert!(fresh.is_empty(), "a failed load restored entries");
        }
        loaded
    };
    for end in 0..good.len() {
        let err = load(&good[..end]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
            "{end}: {err:?}"
        );
    }

    let body = &good[HEADER_LEN..];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        // xorshift64: a fixed seed, no dependency.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut ok, mut malformed) = (0, 0);
    for _ in 0..2_000 {
        let mut mutated = body.to_vec();
        let at = next() as usize % mutated.len();
        mutated[at] ^= (next() % 255 + 1) as u8;
        match load(&frame(chash, &mutated)) {
            Ok(_) => ok += 1,
            Err(SnapshotError::Malformed(_)) => malformed += 1,
            Err(e) => panic!("a re-stamped body gave {e:?}"),
        }
    }
    // Neither outcome is vacuous: flipped stamps, makespans and
    // counters still load; flipped lengths, kinds and keys do not.
    assert!(
        ok > 0 && malformed > 0,
        "{ok} loaded, {malformed} malformed"
    );
}

#[test]
fn a_kill_between_temp_write_and_rename_leaves_the_old_snapshot() {
    let dir = scratch("kill");
    let path = dir.join("cache.snap");
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::new();
    populate(&cache);
    cache.save_to(&path, chash).unwrap();

    // Simulate the crash window: a later save that died after
    // writing its temp file but before the rename. The temp
    // sibling holds garbage; the committed snapshot is untouched.
    std::fs::write(temp_sibling(&path), b"torn half-written snapshot").unwrap();
    let restored = SolveCache::new();
    let summary = restored.load_from(&path, chash).unwrap();
    assert_eq!(summary.solves, 3);
    assert_eq!(restored.len(), 3);
}

#[test]
fn save_overwrites_atomically() {
    let dir = scratch("overwrite");
    let path = dir.join("cache.snap");
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::new();
    cache.save_to(&path, chash).unwrap(); // empty snapshot
    let restored = SolveCache::new();
    assert_eq!(
        restored.load_from(&path, chash).unwrap(),
        LoadSummary::default()
    );
    populate(&cache);
    cache.save_to(&path, chash).unwrap(); // replaces in place
    assert_eq!(restored.load_from(&path, chash).unwrap().solves, 3);
}

#[test]
fn disabled_caches_validate_but_do_not_restore() {
    let dir = scratch("disabled");
    let path = dir.join("cache.snap");
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::new();
    populate(&cache);
    cache.save_to(&path, chash).unwrap();
    let disabled = SolveCache::disabled();
    assert_eq!(
        disabled.load_from(&path, chash).unwrap(),
        LoadSummary::default()
    );
    assert!(disabled.is_empty());
}
