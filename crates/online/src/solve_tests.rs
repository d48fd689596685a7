//! Property tests of [`CacheView::solve`], the one probe every lease
//! search makes. The yes/no the reservation scans need used to come
//! from a separate feasibility probe whose contract was "exactly
//! [`SolveCache::schedule`]`(..).is_ok()`, with the same key and the
//! same charges". `solve(..).is_ok()` replaced it, so it is held to
//! that same contract: on random probe sequences — warm hits, misses,
//! memoized `NoSolution`s, LRU evictions, a disabled cache — it gives
//! the reference's answer and moves the store's counters exactly as
//! the reference moves a twin store, through direct and live views; a
//! live view charges the same to its account.

use dhp_core::daghetpart::DagHetPartConfig;
use dhp_core::partial::{Algorithm, CacheView, SolveCache, SolveCacheStats};
use dhp_dag::{builder, Dag};
use dhp_platform::{Cluster, ProcId, Processor};

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

/// Leases in carve order: single processors (the long chain fits none
/// of the small ones), pairs, and the whole cluster.
fn leases() -> Vec<Vec<ProcId>> {
    [
        &[2][..],
        &[0],
        &[3],
        &[3, 1],
        &[1, 0],
        &[0, 2],
        &[3, 1, 0, 2],
    ]
    .iter()
    .map(|ids| ids.iter().map(|&i| ProcId(i)).collect())
    .collect()
}

fn graphs() -> Vec<Dag> {
    vec![
        builder::chain(3, 2.0, 4.0, 1.0),
        builder::chain(5, 2.0, 4.0, 1.0),
        builder::fork_join(6, 10.0, 4.0, 2.0),
        builder::chain(40, 1.0, 30.0, 5.0),
    ]
}

const ALGORITHMS: [Algorithm; 2] = [Algorithm::DagHetPart, Algorithm::DagHetMem];

#[derive(Clone, Copy, Debug)]
enum Mode {
    Direct,
    Live,
}

fn delta(after: SolveCacheStats, before: SolveCacheStats) -> SolveCacheStats {
    SolveCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        sim_hits: after.sim_hits - before.sim_hits,
        sim_misses: after.sim_misses - before.sim_misses,
    }
}

/// Drives `probes` (indices into graphs × leases × algorithms) through
/// `view.solve` on one cache and through `SolveCache::schedule` on a
/// twin, comparing every answer and every counter move.
fn agree(mode: Mode, make: fn() -> SolveCache, probes: &[(usize, usize, usize)]) {
    let c = cluster();
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let (graphs, leases) = (graphs(), leases());
    let reference = make();
    let subject = make();
    let mut account = SolveCacheStats::default();
    {
        let view = match mode {
            Mode::Direct => CacheView::direct(&subject),
            Mode::Live => CacheView::live(&subject, &mut account),
        };
        for &(gi, li, ai) in probes {
            let (g, ids, algo) = (&graphs[gi], &leases[li], ALGORITHMS[ai]);
            let fp = g.fingerprint();
            let before = reference.stats();
            let want = reference
                .schedule(g, fp, &c.subcluster(ids), algo, &cfg, chash)
                .is_ok();
            let want_moved = delta(reference.stats(), before);
            let before = subject.stats();
            let got = view.solve(g, fp, &c, ids, algo, &cfg, chash).is_ok();
            let moved = delta(subject.stats(), before);
            assert_eq!(got, want, "{mode:?}: graph {gi}, lease {ids:?}, {algo:?}");
            assert_eq!(
                moved, want_moved,
                "{mode:?}: graph {gi}, lease {ids:?}, {algo:?}"
            );
        }
    }
    match mode {
        Mode::Direct => assert_eq!(account, SolveCacheStats::default()),
        Mode::Live => assert_eq!(account, subject.stats(), "live charges"),
    }
    assert_eq!(subject.len(), reference.len());
    for g in &graphs {
        for ids in &leases {
            for algo in ALGORITHMS {
                let key = (g.fingerprint(), c.shape_of_slice(ids), algo, chash);
                assert_eq!(
                    subject.is_warm(key.0, key.1, key.2, key.3),
                    reference.is_warm(key.0, key.1, key.2, key.3),
                    "{mode:?}: store contents differ"
                );
            }
        }
    }
}

fn unbounded() -> SolveCache {
    SolveCache::new()
}

fn capped() -> SolveCache {
    SolveCache::with_capacity(3)
}

fn disabled() -> SolveCache {
    SolveCache::disabled()
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(24))]

    #[test]
    fn solve_answers_and_charges_like_the_feasibility_probe_it_replaced(
        probes in proptest::collection::vec((0usize..4, 0usize..7, 0usize..2), 1..40),
    ) {
        for make in [unbounded, capped, disabled] {
            agree(Mode::Direct, make, &probes);
            agree(Mode::Live, make, &probes);
        }
    }
}

/// The three outcomes one by one, so a failure names its case: a miss
/// solves, a repeat hits, and an infeasible lease is a memoized
/// `NoSolution` that hits as `Err` too.
#[test]
fn solve_hits_misses_and_memoized_no_solution() {
    let (gi_small, gi_long) = (0, 3);
    let (tiny, pair) = (0, 3);
    let probes = [
        (gi_small, pair, 0),
        (gi_small, pair, 0),
        (gi_long, tiny, 0),
        (gi_long, tiny, 0),
    ];
    for mode in [Mode::Direct, Mode::Live] {
        agree(mode, unbounded, &probes);
    }
    let cache = SolveCache::new();
    let view = CacheView::direct(&cache);
    let (c, cfg) = (cluster(), DagHetPartConfig::default());
    let chash = SolveCache::config_hash(&cfg);
    let long = &graphs()[gi_long];
    for _ in 0..2 {
        assert!(view
            .solve(
                long,
                long.fingerprint(),
                &c,
                &leases()[tiny],
                Algorithm::DagHetPart,
                &cfg,
                chash
            )
            .is_err());
    }
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, cache.len()), (1, 1, 1));
}
