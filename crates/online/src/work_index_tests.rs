//! Property tests of the backfill window's jump table: wherever the
//! admission pass may jump, [`WorkIndex::next_from`] lands exactly
//! where a linear scan of the screened slots would — over random queue
//! storage with tombstones, NaN, ±0, ±∞ and negative work, under
//! every screen the pass can ask (including an unbounded reservation
//! and a free speed of zero or less), and through every queue mutation
//! [`ClusterState`] makes (arrival push, tombstone, compaction, spill
//! insert and removal, draining).

use crate::admission::fits_hole;
use crate::state::{ClusterState, Pending};
use crate::submission::single_task;
use crate::work_index::WorkIndex;
use dhp_platform::{Cluster, Processor};
use std::sync::Arc;

/// SplitMix64, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A `total_work` from the awkward corners about as often as from the
/// middle.
fn work(rng: &mut Rng) -> f64 {
    match rng.below(10) {
        0 => f64::NAN,
        1 => 0.0,
        2 => -0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => -100.0 * rng.unit(),
        _ => 1000.0 * rng.unit(),
    }
}

/// A screen the pass can ask: `(clock, free_speed, resv)` with a
/// finite free speed (the pass steps instead of jumping at `+∞`).
fn screen(rng: &mut Rng) -> (f64, f64, f64) {
    let clock = if rng.below(4) == 0 {
        0.0
    } else {
        500.0 * rng.unit()
    };
    let free_speed = match rng.below(8) {
        0 => 0.0,
        1 => -0.0,
        2 => -rng.unit(),
        3 => 1e-300,
        _ => 0.1 + 10.0 * rng.unit(),
    };
    let resv = match rng.below(5) {
        0 => f64::INFINITY,
        1 => clock,
        _ => clock + 1000.0 * rng.unit(),
    };
    (clock, free_speed, resv)
}

fn pending(id: usize, arrival: f64, total_work: f64) -> Pending {
    Pending {
        id,
        arrival,
        total_work,
        max_task_req: 1.0,
        fingerprint: 0,
        requeues: 0,
        submission: Arc::new(single_task(id, arrival, 1.0, 1.0, "slot")),
    }
}

/// The index's answer against the linear scan it replaces, for one
/// random start and screen.
fn check_query(state: &mut ClusterState, rng: &mut Rng) {
    let len = state.queue.len();
    let from = rng.below(len + 2);
    let (clock, free_speed, resv) = screen(rng);
    let pass = |w: f64| fits_hole(w, clock, free_speed, resv);
    let linear = (from..len)
        .find(|&j| {
            let key = if state.dead[j] {
                f64::INFINITY
            } else {
                WorkIndex::key(&state.queue[j])
            };
            pass(key)
        })
        .unwrap_or(len);
    let jumped = state.next_passing(from, pass);
    assert_eq!(
        jumped, linear,
        "from {from} of {len}, clock {clock}, free speed {free_speed}, reservation {resv}"
    );
    // The scan's own screen on the raw entry agrees with the key's for
    // every live slot it could stop at (NaN work is visited too).
    if jumped < len && !state.dead[jumped] {
        assert!(pass(state.queue[jumped].total_work));
    }
}

/// One random queue mutation, through `ClusterState`'s own methods.
fn mutate(state: &mut ClusterState, rng: &mut Rng, next_id: &mut usize) {
    let live: Vec<usize> = (0..state.queue.len()).filter(|&i| !state.dead[i]).collect();
    match rng.below(20) {
        0..=7 => {
            let id = *next_id;
            *next_id += 1;
            state.enqueue_arrival(pending(id, id as f64, work(rng)), id as f64);
        }
        8..=12 if !live.is_empty() => state.kill(live[rng.below(live.len())]),
        13 | 14 => state.compact_queue(),
        15 | 16 => {
            let id = *next_id;
            *next_id += 1;
            state.insert_pending(pending(id, id as f64 * rng.unit(), work(rng)));
        }
        17 | 18 if !live.is_empty() => {
            state.compact_queue();
            let qi = rng.below(state.queue.len());
            let moved = state.remove_queued(qi);
            assert!(moved.id < *next_id);
        }
        19 => {
            state.take_queue();
        }
        _ => {}
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(96))]

    #[test]
    fn next_from_matches_a_linear_first_passing_scan(
        seed in proptest::prelude::any::<u64>(),
        steps in 1usize..160,
    ) {
        let cluster = Cluster::new(vec![Processor::new("p", 1.0, 10.0)], 1.0);
        let mut state = ClusterState::new(&cluster, None);
        let mut rng = Rng(seed);
        let mut next_id = 0usize;
        for _ in 0..steps {
            mutate(&mut state, &mut rng, &mut next_id);
            assert_eq!(state.work_index.len(), state.queue.len());
            for _ in 0..4 {
                check_query(&mut state, &mut rng);
            }
        }
    }
}

/// A hand-made queue: the jump skips exactly the slots the screen
/// fails, lands on NaN work, and reports the end when nothing is left.
#[test]
fn the_jump_lands_on_the_first_slot_a_walk_would_try() {
    let cluster = Cluster::new(vec![Processor::new("p", 1.0, 10.0)], 1.0);
    let mut state = ClusterState::new(&cluster, None);
    for (id, w) in [500.0, 900.0, 40.0, f64::NAN, 700.0, 10.0]
        .into_iter()
        .enumerate()
    {
        state.enqueue_arrival(pending(id, id as f64, w), 0.0);
    }
    // Work ≤ 100 fits a hole of 100 at speed 1.
    let fits = |w: f64| fits_hole(w, 0.0, 1.0, 100.0);
    assert_eq!(state.next_passing(0, fits), 2);
    assert_eq!(state.next_passing(3, fits), 3, "NaN work is always tried");
    state.kill(2);
    state.kill(3);
    assert_eq!(state.next_passing(0, fits), 5);
    assert_eq!(state.next_passing(6, fits), 6);
    // No free speed: nothing can fit, the pass lands on the end.
    assert_eq!(state.next_passing(0, |w| fits_hole(w, 0.0, 0.0, 100.0)), 6);
    state.compact_queue();
    assert_eq!(state.queue.len(), 4);
    assert_eq!(state.next_passing(0, fits), 3);
}
