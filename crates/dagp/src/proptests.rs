//! Property-based validation of the partitioner.

use crate::initial::topo_chunks;
use crate::reference_tests;
use crate::refine::{refine, Tally, TALLY};
use crate::{
    bisect, bisect_block, coarsen_for, partition, partition_on, partition_on_into, BalanceWeight,
    PartitionConfig, PartitionScratch,
};
use dhp_dag::quotient::{is_acyclic_partition, Partition, QuotientGraph};
use dhp_dag::{builder, Dag, NodeId};
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

/// What [`shared_hierarchy_matches_fresh_partition`] came across, and
/// the partitioning buffers every call of it shares.
#[derive(Debug, Default)]
struct Seen {
    scratch: PartitionScratch,
    /// Graphs partitioned on their own view: one-level hierarchies.
    flat: usize,
    /// Part counts whose levels were fewer than the shared hierarchy's.
    shorter_prefix: usize,
    /// Hierarchies that stopped above their target (no safe contraction
    /// left, or the last round removed less than 5 %).
    stopped_early: usize,
}

/// One hierarchy, coarsened for two parts, must give every part count
/// `1..=min(n, 40)` the partition a fresh `partition` computes, also
/// when partitioned on buffers the calls before left behind (other
/// graphs, other counts).
fn shared_hierarchy_matches_fresh_partition(g: &Dag, cfg: &PartitionConfig, seen: &mut Seen) {
    let shared = coarsen_for(g, 2, cfg);
    let coarsest = shared.coarsest().node_count();
    seen.stopped_early += (coarsest > 2 * cfg.coarsen_target) as usize;
    seen.flat += (shared.depth() == 1) as usize;
    for k in 1..=g.node_count().min(40) {
        let fresh = partition(g, k, cfg);
        assert_eq!(partition_on(&shared, k, cfg), fresh, "k={k}");
        let raw = partition_on_into(&shared, k, cfg, &mut seen.scratch);
        assert_eq!(Partition::from_raw(raw), fresh, "k={k}");
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
    assert!(seen.stopped_early > 0 && seen.flat > 0, "{seen:?}");
}

/// The inputs refinement is held to its reference on, each built to
/// reach one branch of the scoring.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Case {
    /// The graph as built, unit weights, default balance.
    AsBuilt,
    /// Every seventh vertex fifty times heavier and no slack: chunks
    /// start overweight and shed vertices by zero-gain moves.
    Overweight,
    /// Every third edge carries nothing and every fifth is doubled.
    ZeroAndParallel,
    /// Every other edge has its volume negated and the balance is
    /// slack: vertices with a negative internal volume, whose gain
    /// towards a part they do not touch is positive.
    Negative,
}

const CASES: [Case; 4] = [
    Case::AsBuilt,
    Case::Overweight,
    Case::ZeroAndParallel,
    Case::Negative,
];

/// Refines the `k` topological chunks of `g`, disturbed as `case` says,
/// with `refine` and with its reference, which must agree on every
/// vertex. Returns what `refine` scored and whether anything moved.
fn refines_like_the_reference(mut g: Dag, k: usize, case: Case) -> (Tally, bool) {
    let n = g.node_count();
    let mut weights = vec![1.0; n];
    let mut cfg = PartitionConfig::default();
    let edges: Vec<_> = g.edge_ids().collect();
    match case {
        Case::AsBuilt => {}
        Case::Overweight => {
            weights.iter_mut().step_by(7).for_each(|w| *w = 50.0);
            cfg.epsilon = 0.0;
        }
        Case::ZeroAndParallel => {
            for &e in edges.iter().step_by(3) {
                g.edge_mut(e).volume = 0.0;
            }
            for &e in edges.iter().step_by(5) {
                let e = g.edge(e).clone();
                g.add_edge(e.src, e.dst, e.volume);
            }
        }
        Case::Negative => {
            for &e in edges.iter().step_by(2) {
                g.edge_mut(e).volume *= -1.0;
            }
            cfg.epsilon = 10.0;
        }
    }
    let k = k.min(n);
    let chunks = topo_chunks(&g, &weights, k);
    let (mut new, mut old) = (chunks.clone(), chunks.clone());
    TALLY.set(Tally::default());
    refine(&g, &weights, &mut new, k, &cfg);
    reference_tests::refine(&g, &weights, &mut old, k, &cfg);
    assert_eq!(new, old, "{case:?} k={k}");
    (TALLY.get(), new != chunks)
}

#[test]
fn refinement_takes_each_branch_and_agrees_with_the_reference() {
    for case in CASES {
        let (mut ends_only, mut whole_window, mut moved) = (0, 0, 0);
        for (n, seed) in [(30usize, 1u64), (95, 2), (240, 3), (400, 4)] {
            for (_, g) in shapes(n, seed) {
                for k in [2usize, 3, 7, 16, 40] {
                    let (tally, changed) = refines_like_the_reference(g.clone(), k, case);
                    ends_only += tally.ends_only;
                    whole_window += tally.whole_window;
                    moved += changed as usize;
                }
            }
        }
        assert!(moved > 0, "{case:?}: refinement never moved a vertex");
        assert!(
            ends_only > 0,
            "{case:?}: no vertex had only its window's ends scored"
        );
        // With all the slack of `Negative` no part is overweight: whole
        // windows are scored there for the negative volumes alone.
        if matches!(case, Case::Overweight | Case::Negative) {
            assert!(whole_window > 0, "{case:?}: no whole window was scored");
        }
    }
}

proptest! {
    // Each case refines four graphs four ways, twice.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn refine_matches_its_reference(n in 30usize..400, k in 2usize..=40, seed in any::<u64>()) {
        for (_, g) in shapes(n, seed) {
            for case in CASES {
                refines_like_the_reference(g.clone(), k, case);
            }
        }
    }
}

proptest! {
    // Each case partitions four graphs for up to 40 part counts, twice.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn shared_hierarchy_partitions_like_fresh(n in 30usize..400, seed in any::<u64>()) {
        let cfg = PartitionConfig { seed, ..Default::default() };
        let mut seen = Seen::default();
        for (_, g) in shapes(n, seed) {
            shared_hierarchy_matches_fresh_partition(&g, &cfg, &mut seen);
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
        for balance in [BalanceWeight::Work, BalanceWeight::TaskRequirement] {
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

/// Graph `source` of about `n` tasks: a workflow family (every one of
/// them) or one of two random DAGs.
fn block_source(source: usize, n: usize, seed: u64) -> Dag {
    use dhp_wfgen::{Family, WorkflowInstance};
    match Family::ALL.get(source) {
        Some(&family) => {
            std::sync::Arc::unwrap_or_clone(WorkflowInstance::simulated(family, n, seed).graph)
        }
        None if source.is_multiple_of(2) => builder::gnp_dag_weighted(n, 4.0 / n as f64, seed),
        None => {
            let wide = (0.5, 9.0);
            builder::layered_random(n.div_ceil(6), 6, 0.3, wide, wide, wide, seed)
        }
    }
}

/// `size` members of `g`, ascending: a window of its topological order
/// (what a partition's blocks look like) or a scattered pick.
fn block_of(g: &Dag, size: usize, at: u64, scattered: bool) -> Vec<NodeId> {
    let n = g.node_count();
    let mut members: Vec<NodeId> = if scattered {
        let keep =
            |u: &NodeId| (u64::from(u.0) ^ at).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 62 != 0;
        let picked: Vec<NodeId> = g.node_ids().filter(keep).take(size).collect();
        match picked.len() {
            0 | 1 => g.node_ids().take(size).collect(),
            _ => picked,
        }
    } else {
        let order = dhp_dag::topo::topo_sort(g).expect("generated graphs are acyclic");
        let start = at as usize % (n - size + 1);
        order[start..start + size].to_vec()
    };
    members.sort_unstable();
    members
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A block bisected in place equals the bisection of its induced
    /// sub-DAG, to the assignment: on every workflow family and random
    /// DAGs, for blocks of 2 to 61 tasks (the in-place path ends at 60
    /// under the default configuration), with hostile weights (`-0.0`
    /// memories and volumes, NaN volumes), on one thread whose buffers
    /// saw the previous case's block.
    #[test]
    fn bisect_block_equals_bisect_of_the_induced_subgraph(
        source in 0usize..dhp_wfgen::Family::ALL.len() + 2,
        n in 70usize..160,
        seed in any::<u64>(),
        size in 2usize..62,
        at in any::<u64>(),
        scattered in any::<bool>(),
        hostile in 0u8..4,
    ) {
        let mut g = block_source(source, n, seed);
        if hostile > 0 {
            for u in g.node_ids().filter(|u| u.0 % 3 == 0).collect::<Vec<_>>() {
                g.node_mut(u).memory = -0.0;
            }
            for (i, e) in g.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
                match (i as u64 ^ seed) % 5 {
                    0 | 1 => g.edge_mut(e).volume = -0.0,
                    2 if hostile == 3 => g.edge_mut(e).volume = f64::NAN,
                    _ => {}
                }
            }
        }
        let members = block_of(&g, size.min(g.node_count()), at, scattered);
        let cfg = PartitionConfig { seed, ..PartitionConfig::default() };
        let want = bisect(&g.induced_subgraph(&members).0, &cfg);
        prop_assert_eq!(bisect_block(&g, &members, &cfg), want);
    }
}

/// Both sides of the 60-task boundary on every source: windows of 59
/// to 62 tasks of a topological order bisect in place or through the
/// induced sub-DAG exactly as `bisect` of that sub-DAG does. No block
/// up to the boundary is coarsened, and some past it are, so the
/// boundary is where the in-place path would stop being `bisect`.
#[test]
fn bisect_block_holds_on_both_sides_of_the_coarsening_boundary() {
    let cfg = PartitionConfig::default();
    let mut coarsened = 0;
    for source in 0..dhp_wfgen::Family::ALL.len() + 2 {
        let g = block_source(source, 150, source as u64);
        for size in 59..=62 {
            for at in [0u64, 17, 40] {
                let members = block_of(&g, size, at, false);
                let sub = g.induced_subgraph(&members).0;
                assert_eq!(
                    bisect_block(&g, &members, &cfg),
                    bisect(&sub, &cfg),
                    "source {source}, size {size}, at {at}"
                );
                let c = PartitionConfig {
                    balance: BalanceWeight::TaskRequirement,
                    ..cfg.clone()
                };
                let depth = coarsen_for(&sub, 2, &c).depth();
                assert!(size > 60 || depth == 1, "source {source}, size {size}");
                coarsened += (depth > 1) as usize;
            }
        }
    }
    assert!(coarsened > 0);
}
