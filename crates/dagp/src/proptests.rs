//! Property-based validation of the partitioner.

use crate::{bisect, coarsen_for, partition, partition_on, BalanceWeight, PartitionConfig};
use dhp_dag::quotient::{is_acyclic_partition, QuotientGraph};
use dhp_dag::{builder, Dag};
use proptest::prelude::*;

/// Four graphs of about `n` nodes: sparse random, layered, a chain and
/// a fan-out (uniform weights on the last two, so every matching is
/// decided by the seeded shuffle).
fn shapes(n: usize, seed: u64) -> [(&'static str, Dag); 4] {
    let width = 2 + (seed % 7) as usize;
    let wide = (1.0, 9.0);
    [
        ("gnp", builder::gnp_dag_weighted(n, 3.0 / n as f64, seed)),
        (
            "layered",
            builder::layered_random(n.div_ceil(width), width, 0.3, wide, wide, wide, seed),
        ),
        ("chain", builder::chain(n, 1.0, 1.0, 1.0)),
        ("fan-out", builder::fork_join(n - 2, 2.0, 3.0, 4.0)),
    ]
}

/// What [`shared_hierarchy_matches_fresh_partition`] came across.
#[derive(Debug, Default)]
struct Seen {
    /// Part counts whose levels were fewer than the shared hierarchy's.
    shorter_prefix: usize,
    /// Hierarchies that stopped above their target (no safe contraction
    /// left, or the last round removed less than 5 %).
    stopped_early: usize,
}

/// One hierarchy, coarsened for two parts, must give every part count
/// `1..=min(n, 40)` the partition a fresh `partition` computes.
fn shared_hierarchy_matches_fresh_partition(g: &Dag, cfg: &PartitionConfig, seen: &mut Seen) {
    let shared = coarsen_for(g, 2, cfg);
    let coarsest = shared.coarsest().graph().node_count();
    seen.stopped_early += (coarsest > 2 * cfg.coarsen_target) as usize;
    for k in 1..=g.node_count().min(40) {
        assert_eq!(partition_on(&shared, k, cfg), partition(g, k, cfg), "k={k}");
        if k >= 2 {
            let fresh_depth = coarsen_for(g, k, cfg).depth();
            assert_eq!(shared.prefix(k * cfg.coarsen_target).depth(), fresh_depth);
            seen.shorter_prefix += (fresh_depth < shared.depth()) as usize;
        }
    }
}

#[test]
fn shared_hierarchy_covers_short_prefixes_and_early_stops() {
    let mut seen = Seen::default();
    for (n, seed) in [(30usize, 1u64), (95, 2), (240, 3), (400, 4)] {
        for balance in [BalanceWeight::Work, BalanceWeight::TaskRequirement] {
            let cfg = PartitionConfig {
                seed,
                balance,
                ..Default::default()
            };
            for (shape, g) in shapes(n, seed) {
                let before = seen.shorter_prefix;
                shared_hierarchy_matches_fresh_partition(&g, &cfg, &mut seen);
                if n > 2 * cfg.coarsen_target {
                    assert!(
                        seen.shorter_prefix > before,
                        "{shape} {n}: every k used all levels"
                    );
                }
            }
        }
    }
    assert!(seen.stopped_early > 0, "{seen:?}");
}

proptest! {
    // Each case partitions four graphs for up to 40 part counts, twice.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn shared_hierarchy_partitions_like_fresh(n in 30usize..400, seed in any::<u64>()) {
        let cfg = PartitionConfig { seed, ..Default::default() };
        for (_, g) in shapes(n, seed) {
            shared_hierarchy_matches_fresh_partition(&g, &cfg, &mut Seen::default());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn partition_always_valid(
        n in 5usize..120,
        p in 0.02f64..0.3,
        k in 2usize..10,
        seed in any::<u64>(),
    ) {
        let g = builder::gnp_dag_weighted(n, p, seed);
        let cfg = PartitionConfig { seed, ..Default::default() };
        let part = partition(&g, k, &cfg);
        prop_assert!(part.validate(&g));
        prop_assert_eq!(part.num_blocks(), k.min(n));
        prop_assert!(is_acyclic_partition(&g, &part));
    }

    #[test]
    fn bisection_valid_on_structured_graphs(width in 2usize..30, seed in any::<u64>()) {
        let g = builder::fork_join(width, 2.0, 3.0, 4.0);
        let cfg = PartitionConfig { seed, ..Default::default() };
        let part = bisect(&g, &cfg);
        prop_assert_eq!(part.num_blocks(), 2);
        prop_assert!(is_acyclic_partition(&g, &part));
    }

    #[test]
    fn cut_never_exceeds_total_volume(
        n in 10usize..80,
        p in 0.05f64..0.3,
        k in 2usize..8,
        seed in any::<u64>(),
    ) {
        let g = builder::gnp_dag_weighted(n, p, seed);
        let part = partition(&g, k, &PartitionConfig::default());
        let cut = QuotientGraph::build(&g, &part).edge_cut();
        prop_assert!(cut <= g.total_volume() + 1e-9);
    }

    #[test]
    fn all_balance_criteria_work(
        n in 10usize..60,
        seed in any::<u64>(),
    ) {
        let g = builder::gnp_dag_weighted(n, 0.15, seed);
        for balance in [BalanceWeight::Work, BalanceWeight::Memory, BalanceWeight::TaskRequirement] {
            let cfg = PartitionConfig { balance, ..Default::default() };
            let part = partition(&g, 3, &cfg);
            prop_assert!(is_acyclic_partition(&g, &part));
        }
    }

    #[test]
    fn chains_partition_into_intervals(len in 6usize..60, k in 2usize..6, seed in any::<u64>()) {
        // On a chain, any acyclic partition into contiguous quotient must
        // keep parts as intervals; verify the partitioner's parts are
        // contiguous runs.
        let g = builder::chain(len, 1.0, 1.0, 1.0);
        let cfg = PartitionConfig { seed, ..Default::default() };
        let part = partition(&g, k, &cfg);
        prop_assert!(is_acyclic_partition(&g, &part));
        // contiguous: along the chain, the block id changes exactly k-1 times
        let mut changes = 0;
        for w in g.node_ids().collect::<Vec<_>>().windows(2) {
            if part.block_of(w[0]) != part.block_of(w[1]) {
                changes += 1;
            }
        }
        prop_assert_eq!(changes, k.min(len) - 1);
    }
}
