//! Model tests of the free set: random take / give-back / hypothetical
//! / carve sequences over random heterogeneous clusters, against a plain
//! `Vec<bool>` of the free processors. After every step the set must
//! show the model's count, its largest free memory, the bits of its free
//! speed (summed in processor-id order), its free processors in memory
//! order, and the model's answer to the "no free processor holds this
//! task" screen for NaN, ±0, ±∞ and on both sides of the `1e-9`
//! tolerance. Every carve must list the model mask's processors in
//! memory order, and every shape it hands out — hashed or read back from
//! the memo — must equal a fresh `shape_of_slice` of its lease.

use crate::free_set::{FreeSet, Mask};
use crate::queue_tests::Rng;
use dhp_platform::{Cluster, ProcId, Processor};

/// Up to eight processors with memories from a small set (so ties in
/// memory, broken by speed and id, are common) and random speeds.
fn cluster(rng: &mut Rng) -> Cluster {
    const MEMORY: [f64; 5] = [10.0, 50.0, 120.0, 600.0, 1000.0];
    let n = 1 + rng.below(8);
    let procs = (0..n)
        .map(|_| Processor::new("p", 0.5 + 4.0 * rng.unit(), MEMORY[rng.below(5)]))
        .collect();
    Cluster::new(procs, 1.0 + rng.unit())
}

/// The processors `mask` marks, in the cluster's memory order.
fn in_order(c: &Cluster, mask: &[bool]) -> Vec<ProcId> {
    c.ids_by_memory_desc()
        .into_iter()
        .filter(|p| mask[p.idx()])
        .collect()
}

/// The screen as the lease search words it: no processor, or a task
/// above the largest one's memory.
fn refused(c: &Cluster, procs: &[ProcId], req: f64) -> bool {
    procs
        .first()
        .is_none_or(|&p| req > c.memory(p) * (1.0 + 1e-9))
}

/// Requirements around `top`: the awkward corners, both sides of the
/// tolerance, and anything.
fn requirements(top: f64, rng: &mut Rng) -> [f64; 10] {
    [
        f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        top,
        top * (1.0 + 0.5e-9),
        top * (1.0 + 1e-9),
        top * (1.0 + 2e-9),
        1200.0 * rng.unit(),
    ]
}

/// Some of `procs`, in a random order.
fn some_of(procs: &[ProcId], rng: &mut Rng) -> Vec<ProcId> {
    let mut pool = procs.to_vec();
    let mut picked = Vec::new();
    while !pool.is_empty() && rng.below(3) != 0 {
        picked.push(pool.swap_remove(rng.below(pool.len())));
    }
    picked
}

/// Checks every query of `set` against the model mask `free`.
fn agrees(set: &FreeSet, c: &Cluster, free: &[bool], rng: &mut Rng) {
    let want = in_order(c, free);
    assert_eq!(set.count(), want.len(), "the count");
    assert_eq!(set.all_free(), want.len() == c.len());
    let top = want.first().map_or(f64::NEG_INFINITY, |&p| c.memory(p));
    assert_eq!(set.top_memory().to_bits(), top.to_bits(), "the top");
    let speed: f64 = c
        .proc_ids()
        .filter(|p| free[p.idx()])
        .map(|p| c.speed(p))
        .sum();
    assert_eq!(set.speed().to_bits(), speed.to_bits(), "the free speed");
    assert_eq!(set.in_memory_order().collect::<Vec<_>>(), want);
    for req in requirements(top, rng) {
        assert_eq!(set.turns_away(req), refused(c, &want, req), "req {req}");
    }
}

/// Carves `from` (whose model mask is `mask`) and asks shapes of random
/// sizes, each against a fresh hash.
fn carve_agrees(set: &mut FreeSet, c: &Cluster, from: Mask, mask: &[bool], rng: &mut Rng) {
    let want = in_order(c, mask);
    assert_eq!(set.carve(from), want.len(), "the carve of {from:?}");
    assert_eq!(set.lease(want.len()), &want[..], "the carve order");
    let top = want.first().map_or(f64::NEG_INFINITY, |&p| c.memory(p));
    for req in requirements(top, rng) {
        assert_eq!(set.carve_turns_away(req), refused(c, &want, req));
    }
    for _ in 0..3 {
        if want.is_empty() {
            break;
        }
        let size = 1 + rng.below(want.len());
        let fresh = c.shape_of_slice(&want[..size]);
        assert_eq!(set.shape(c, size), fresh, "the shape of size {size}");
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(128))]

    #[test]
    fn the_free_set_follows_a_plain_mask(
        seed in proptest::prelude::any::<u64>(),
        steps in 1usize..120,
    ) {
        let mut rng = Rng(seed);
        let c = cluster(&mut rng);
        let mut set = FreeSet::new(&c);
        let mut free = vec![true; c.len()];
        // The leases held, disjoint, each in the order it was taken.
        let mut held: Vec<Vec<ProcId>> = Vec::new();
        // The model of the last hypothetical mask.
        let mut hyp = free.clone();
        agrees(&set, &c, &free, &mut rng);
        for _ in 0..steps {
            match rng.below(10) {
                0..=2 => {
                    let lease = some_of(&in_order(&c, &free), &mut rng);
                    let want: f64 = lease.iter().fold(0.0, |s, &p| s + c.speed(p));
                    assert_eq!(set.take(&lease).to_bits(), want.to_bits(), "lease speed");
                    for p in &lease {
                        free[p.idx()] = false;
                    }
                    held.push(lease);
                }
                3 | 4 if !held.is_empty() => {
                    let lease = held.swap_remove(rng.below(held.len()));
                    set.give_back(&lease);
                    for p in &lease {
                        free[p.idx()] = true;
                    }
                }
                5 | 6 => {
                    let claim = some_of(&in_order(&c, &free), &mut rng);
                    let freed: Vec<&[ProcId]> = held
                        .iter()
                        .filter(|_| rng.below(2) == 0)
                        .map(Vec::as_slice)
                        .collect();
                    set.hypothesise(&claim, freed.iter().copied());
                    hyp.copy_from_slice(&free);
                    for p in &claim {
                        hyp[p.idx()] = false;
                    }
                    for p in freed.concat() {
                        hyp[p.idx()] = true;
                    }
                    carve_agrees(&mut set, &c, Mask::Hypothetical, &hyp, &mut rng);
                }
                7 => carve_agrees(&mut set, &c, Mask::Hypothetical, &hyp, &mut rng),
                _ => carve_agrees(&mut set, &c, Mask::Real, &free, &mut rng),
            }
            agrees(&set, &c, &free, &mut rng);
        }
    }
}

/// A hand-made cluster: ties in memory go to the faster processor, a
/// lease's speed is summed in its own order, and the screen turns away
/// exactly what no free memory holds.
#[test]
fn a_lease_takes_the_biggest_free_memories_first() {
    let c = Cluster::new(
        vec![
            Processor::new("a", 1.0, 50.0),
            Processor::new("b", 3.0, 100.0),
            Processor::new("c", 2.0, 100.0),
            Processor::new("d", 4.0, 10.0),
        ],
        1.0,
    );
    let mut set = FreeSet::new(&c);
    assert!(set.all_free());
    assert_eq!(set.carve(Mask::Real), 4);
    assert_eq!(set.lease(4), [ProcId(1), ProcId(2), ProcId(0), ProcId(3)]);
    assert_eq!(set.take(&[ProcId(2), ProcId(1)]), 2.0 + 3.0);
    assert_eq!((set.count(), set.top_memory()), (2, 50.0));
    assert!(set.turns_away(50.1) && !set.turns_away(50.0) && !set.turns_away(f64::NAN));
    // A replay that frees `b` back and claims `a` carves [b, d].
    set.hypothesise(&[ProcId(0)], [&[ProcId(1)][..]]);
    assert_eq!(set.carve(Mask::Hypothetical), 2);
    assert_eq!(set.lease(2), [ProcId(1), ProcId(3)]);
    assert!(!set.carve_turns_away(100.0) && set.carve_turns_away(101.0));
    // The real set did not move.
    assert_eq!(
        set.in_memory_order().collect::<Vec<_>>(),
        [ProcId(0), ProcId(3)]
    );
    set.take(&[ProcId(0), ProcId(3)]);
    assert!(set.turns_away(f64::NAN) && set.turns_away(f64::NEG_INFINITY));
    assert_eq!((set.speed(), set.top_memory()), (0.0, f64::NEG_INFINITY));
    set.give_back(&[ProcId(1), ProcId(2), ProcId(0), ProcId(3)]);
    assert!(set.all_free());
}
