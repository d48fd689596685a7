//! Model tests of the admission queue: random sequences of every
//! mutation [`Queue`] offers (push, insert in `(arrival, id)` order,
//! remove, kill, settle, drain) against a plain `Vec` of the live
//! entries. After every step the queue must show the model's live order
//! through `first_live`, `next_live` and `live_slots`, its length and
//! the bits of its `queued_work`; and wherever the admission pass may
//! jump, `next_passing` must land where a walk of the live entries
//! stops — over NaN, ±0, ±∞ and negative work, under every screen
//! `fits_hole` can ask (an unbounded reservation, a free speed of zero
//! or less included).

use crate::admission::fits_hole;
use crate::queue::Queue;
use crate::state::Pending;
use crate::submission::single_task;
use std::sync::Arc;

/// SplitMix64, seeded per case.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub(crate) fn unit(&mut self) -> f64 {
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

/// A live entry of the model: `(id, arrival, total_work)`.
type Entry = (usize, f64, f64);

/// The queue's live slots, walked from `first_live` with `next_live`.
fn walk(q: &Queue) -> Vec<usize> {
    let mut slots = Vec::new();
    let mut at = q.first_live();
    while let Some(s) = at {
        slots.push(s);
        at = q.next_live(s + 1);
    }
    slots
}

/// One random mutation, applied to the queue and to the model alike.
/// Admission mostly takes the head, so a kill or removal picks the
/// first live entry half the time.
fn mutate(q: &mut Queue, model: &mut Vec<Entry>, rng: &mut Rng, next_id: &mut usize) {
    let slots = walk(q);
    let pick = |rng: &mut Rng| {
        if rng.below(2) == 0 {
            0
        } else {
            rng.below(slots.len())
        }
    };
    match rng.below(20) {
        0..=7 => {
            // A fresh arrival comes after every entry, taken or not.
            let e = (*next_id, *next_id as f64, work(rng));
            *next_id += 1;
            q.push(pending(e.0, e.1, e.2));
            model.push(e);
        }
        8..=12 if !slots.is_empty() => {
            let k = pick(rng);
            q.kill(slots[k]);
            model.remove(k);
        }
        13 | 14 => q.settle(),
        15 | 16 => {
            let e = (*next_id, *next_id as f64 * rng.unit(), work(rng));
            *next_id += 1;
            q.insert(pending(e.0, e.1, e.2));
            let at = model.partition_point(|m| (m.1, m.0) < (e.1, e.0));
            model.insert(at, e);
        }
        17 | 18 if !slots.is_empty() => {
            let k = pick(rng);
            let moved = q.remove(slots[k]);
            assert_eq!(moved.id, model.remove(k).0, "the removed entry");
        }
        19 => {
            let drained: Vec<usize> = q.drain().iter().map(|p| p.id).collect();
            let live: Vec<usize> = model.drain(..).map(|e| e.0).collect();
            assert_eq!(drained, live, "a drain returns the live entries in order");
        }
        _ => {}
    }
}

/// Storage positions to start a walk or a jump from: the front, every
/// live slot and the position just past it, and a few at random up to
/// past the end.
fn starts(slots: &[usize], rng: &mut Rng) -> Vec<usize> {
    let end = slots.last().map_or(0, |&s| s + 1);
    let mut from = vec![0];
    for &s in slots {
        from.extend([s, s + 1]);
    }
    from.extend((0..4).map(|_| rng.below(end + 3)));
    from
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(96))]

    #[test]
    fn first_live_next_live_and_queued_work_follow_the_live_model(
        seed in proptest::prelude::any::<u64>(),
        steps in 1usize..160,
    ) {
        let mut q = Queue::default();
        let mut model: Vec<Entry> = Vec::new();
        let mut rng = Rng(seed);
        let mut next_id = 0usize;
        for _ in 0..steps {
            mutate(&mut q, &mut model, &mut rng, &mut next_id);
            let slots = walk(&q);
            let shown: Vec<Entry> = slots
                .iter()
                .map(|&s| (q[s].id, q[s].arrival, q[s].total_work))
                .collect();
            let bits = |es: &[Entry]| -> Vec<(usize, u64, u64)> {
                es.iter().map(|e| (e.0, e.1.to_bits(), e.2.to_bits())).collect()
            };
            assert_eq!(bits(&shown), bits(&model), "the live order");
            assert_eq!(q.live_slots().collect::<Vec<_>>(), slots);
            assert_eq!(q.len(), model.len());
            assert_eq!(q.is_empty(), model.is_empty());
            for from in starts(&slots, &mut rng) {
                let want = slots.iter().copied().find(|&s| s >= from);
                assert_eq!(q.next_live(from), want, "next live slot from {from}");
            }
            // The same additions in the same order, bit for bit.
            let sum: f64 = model.iter().map(|e| e.2).sum();
            assert_eq!(q.queued_work().to_bits(), sum.to_bits());
        }
    }

    #[test]
    fn next_passing_lands_where_a_walk_of_the_live_model_stops(
        seed in proptest::prelude::any::<u64>(),
        steps in 1usize..160,
    ) {
        let mut q = Queue::default();
        let mut model: Vec<Entry> = Vec::new();
        let mut rng = Rng(seed);
        let mut next_id = 0usize;
        for _ in 0..steps {
            mutate(&mut q, &mut model, &mut rng, &mut next_id);
            let slots = walk(&q);
            for from in starts(&slots, &mut rng) {
                let (clock, free_speed, resv) = screen(&mut rng);
                let pass = |w: f64| fits_hole(w, clock, free_speed, resv);
                // The walk: the first live entry at or after `from`
                // whose raw work passes (NaN work is always tried).
                let first = slots.iter().position(|&s| s >= from).unwrap_or(slots.len());
                let stop = (first..slots.len()).find(|&k| pass(model[k].2)).map(|k| slots[k]);
                let jumped = q.next_passing(from, pass);
                let ctx = format!(
                    "from {from} over {slots:?}, clock {clock}, free speed {free_speed}, \
                     reservation {resv}"
                );
                assert_eq!(q.next_live(jumped), stop, "{ctx}");
                if let Some(stop) = stop {
                    assert!(jumped <= stop, "jumped past a passing entry: {ctx}");
                    // A screen that fails `+∞` fails every taken slot
                    // too, so the jump lands on the entry itself.
                    if !pass(f64::INFINITY) {
                        assert_eq!(jumped, stop, "{ctx}");
                    }
                }
            }
        }
    }
}

/// A hand-made queue: the jump skips exactly the entries the screen
/// fails, lands on NaN work, skips taken entries, and reports the end
/// when nothing is left; `settle` sweeps only once more than half of
/// storage is taken.
#[test]
fn the_jump_lands_on_the_first_slot_a_walk_would_try() {
    let mut q = Queue::default();
    for (id, w) in [500.0, 900.0, 40.0, f64::NAN, 700.0, 10.0]
        .into_iter()
        .enumerate()
    {
        q.push(pending(id, id as f64, w));
    }
    // Work ≤ 100 fits a hole of 100 at speed 1.
    let fits = |w: f64| fits_hole(w, 0.0, 1.0, 100.0);
    assert_eq!(q.next_passing(0, fits), 2);
    assert_eq!(q.next_passing(3, fits), 3, "NaN work is always tried");
    q.kill(2);
    q.kill(3);
    assert_eq!(q.next_passing(0, fits), 5);
    assert_eq!(q.next_passing(6, fits), 6);
    // No free speed: nothing can fit, the jump lands on the end.
    assert_eq!(q.next_passing(0, |w| fits_hole(w, 0.0, 0.0, 100.0)), 6);
    q.settle();
    assert_eq!(q.next_passing(0, fits), 5, "two of six taken: no sweep");
    q.kill(0);
    assert_eq!(q.first_live(), Some(1));
    q.kill(1);
    assert_eq!(q.first_live(), Some(4), "the head skips every taken slot");
    q.settle();
    assert_eq!(q.len(), 2);
    assert_eq!(q.first_live(), Some(0));
    assert_eq!(q.next_passing(0, fits), 1);
    assert_eq!(q.queued_work(), 710.0);
}
