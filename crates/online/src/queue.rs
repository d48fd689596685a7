//! The admission queue: the workflows waiting for a lease on one
//! cluster, in `(arrival, id)` order.
//!
//! [`Queue`] hands out *storage slots*. A slot read during an admission
//! pass stays valid until the pass ends, because the pass takes entries
//! with [`Queue::kill`] (storage does not move) and storage is swept
//! only by [`Queue::settle`] at the end of the pass. How storage is kept
//! is known to this module alone:
//!
//! * **Tombstones.** A taken entry stays in storage, marked dead, until
//!   more than half of storage is dead; `settle` then sweeps them all
//!   out. Each entry moves O(1) times over its lifetime instead of once
//!   per later admission.
//! * **The first live slot.** Admission takes mostly from the front, so
//!   the dead slots pile up there. The queue keeps where they end:
//!   [`Queue::first_live`] is O(1), and a walk from any position starts
//!   past the dead prefix, so each tombstone is stepped over once, not
//!   once per pass.
//! * **The work jump tree.** Once a blocked head has a reservation, the
//!   pass screens every later candidate by its work bound
//!   ([`fits_hole`](crate::admission::fits_hole)). On a deep queue of
//!   big workflows almost every candidate fails it, and walking past
//!   them one by one made a pass cost the depth of the queue.
//!   [`Queue::next_passing`] answers "the first slot at or after `i`
//!   whose work passes the screen" in O(log n) instead, from a
//!   min-tournament tree over storage keyed on each entry's
//!   `total_work`.
//!
//! **Why the jump is exact.** The screen a candidate passes is
//! `!(clock + w / free_speed > resv + 1e-9)`. For fixed `clock`, a
//! finite positive `free_speed` and `resv`, it is monotone in `w`:
//! IEEE-754 division by a positive constant and addition of a constant
//! are both monotone non-decreasing (rounding never reorders two
//! inputs), so if some `w` passes, every smaller key passes too. The
//! minimum of a subtree therefore passes whenever any leaf under it
//! does, and descending into the leftmost subtree whose minimum passes
//! finds exactly the slot a linear walk would stop at. Keys are chosen
//! so that every slot keeps its linear-walk answer:
//!
//! * a tombstone is `+∞`, the largest key (it fails whenever anything
//!   fails);
//! * a NaN `total_work` is `−∞`: `clock + NaN / s > r` is false, so the
//!   linear walk always visits a NaN candidate, and `−∞` passes every
//!   screen that anything passes.
//!
//! `free_speed ≤ 0` fails every key (the jump lands on the end);
//! `free_speed = +∞` is not monotone (`∞ / ∞` is NaN), so the pass does
//! not jump at all then.
//!
//! Every storage mutation is a method here, so the tree cannot miss
//! one: a push sets a leaf, a tombstone raises one to `+∞`, and the
//! splicing mutations (sweep, insert, removal, drain) mark the tree
//! stale so the next jump rebuilds it in one O(n) pass.

use crate::state::Pending;

/// The admission queue of one cluster (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Queue {
    /// Storage in `(arrival, id)` order, tombstones included.
    entries: Vec<Pending>,
    /// `dead[i]`: slot `i` was taken and awaits the sweep.
    dead: Vec<bool>,
    /// How many slots are dead.
    dead_count: usize,
    /// The first live slot, or `entries.len()` when none is live: every
    /// slot before it is dead.
    live_from: usize,
    /// The jump tree: `tree[cap + i]` is slot `i`'s key and `tree[n]`
    /// is `min(tree[2n], tree[2n + 1])`; `tree[0]` is unused. Leaves
    /// past `entries.len()` are padding at `+∞`.
    tree: Vec<f64>,
    /// Leaf count: a power of two once built, 0 before.
    cap: usize,
    /// The leaves no longer describe storage; the next jump rebuilds.
    stale: bool,
}

/// A live entry's key in the jump tree: its `total_work`, with NaN
/// mapped to `−∞` so it is visited exactly when the linear walk would
/// visit it (always).
fn key(p: &Pending) -> f64 {
    if p.total_work.is_nan() {
        f64::NEG_INFINITY
    } else {
        p.total_work
    }
}

impl Queue {
    /// How many workflows are queued.
    pub(crate) fn len(&self) -> usize {
        self.entries.len() - self.dead_count
    }

    /// Whether no workflow is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a fresh arrival, which comes after every queued entry.
    pub(crate) fn push(&mut self, p: Pending) {
        // A push never moves `live_from`: on an all-dead storage it
        // already points at the slot the entry takes.
        let key = key(&p);
        self.entries.push(p);
        self.dead.push(false);
        if self.stale || self.entries.len() > self.cap {
            // Out of leaves: the rebuild doubles them.
            self.stale = true;
        } else {
            self.set(self.entries.len() - 1, key);
        }
    }

    /// Inserts an entry at its `(arrival, id)` position — spillover and
    /// membership events move entries between members with this.
    pub(crate) fn insert(&mut self, p: Pending) {
        // Tombstones kept their keys, so storage stays sorted with them
        // in place and the search is oblivious to them.
        let pos = self
            .entries
            .partition_point(|q| (q.arrival, q.id) < (p.arrival, p.id));
        self.entries.insert(pos, p);
        self.dead.insert(pos, false);
        self.live_from = self.live_from.min(pos);
        self.stale = true;
    }

    /// Splices the live entry at `slot` out of storage; the entry after
    /// it takes the slot.
    pub(crate) fn remove(&mut self, slot: usize) -> Pending {
        debug_assert!(!self.dead[slot], "only a live entry can move");
        self.dead.remove(slot);
        let p = self.entries.remove(slot);
        if slot == self.live_from {
            self.skip_dead_prefix();
        }
        self.stale = true;
        p
    }

    /// Takes the live entry at `slot` (admitted or rejected by an
    /// admission pass). Storage does not move until [`Queue::settle`].
    pub(crate) fn kill(&mut self, slot: usize) {
        debug_assert!(!self.dead[slot], "an entry is taken once");
        self.dead[slot] = true;
        self.dead_count += 1;
        if slot == self.live_from {
            self.skip_dead_prefix();
        }
        if !self.stale {
            self.set(slot, f64::INFINITY);
        }
    }

    /// Ends an admission pass: sweeps the tombstones out once more than
    /// half of storage is dead, so each entry moves O(1) times over its
    /// lifetime. Slots read before this call are void after it.
    pub(crate) fn settle(&mut self) {
        if self.dead_count * 2 > self.entries.len() {
            self.sweep();
        }
    }

    /// Sweeps every tombstone out of storage; afterwards no slot is
    /// dead, so `live_from` is 0.
    fn sweep(&mut self) {
        if self.dead_count == 0 {
            debug_assert_eq!(self.live_from, 0, "no tombstone, no dead prefix");
            return;
        }
        let dead = std::mem::take(&mut self.dead);
        let mut i = 0;
        self.entries.retain(|_| {
            let keep = !dead[i];
            i += 1;
            keep
        });
        self.dead = dead;
        self.dead.clear();
        self.dead.resize(self.entries.len(), false);
        self.dead_count = 0;
        self.live_from = 0;
        self.stale = true;
    }

    /// Removes and returns every queued workflow, in queue order.
    pub(crate) fn drain(&mut self) -> Vec<Pending> {
        self.sweep();
        self.dead.clear();
        self.stale = true;
        std::mem::take(&mut self.entries)
    }

    /// The head: the first live slot, O(1).
    pub(crate) fn first_live(&self) -> Option<usize> {
        (self.live_from < self.entries.len()).then_some(self.live_from)
    }

    /// The first live slot at or after storage position `from`.
    pub(crate) fn next_live(&self, from: usize) -> Option<usize> {
        let from = from.max(self.live_from);
        let ahead = self.dead.get(from..)?;
        ahead.iter().position(|&d| !d).map(|k| from + k)
    }

    /// Every live slot, in queue order.
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (self.live_from..self.entries.len()).filter(|&i| !self.dead[i])
    }

    /// Total work queued — the `least-loaded` routing signal. The dead
    /// prefix adds nothing, so starting past it makes the same
    /// additions in the same order as a sum over all of storage.
    pub(crate) fn queued_work(&self) -> f64 {
        let from = self.live_from;
        self.entries[from..]
            .iter()
            .zip(&self.dead[from..])
            .filter(|(_, &d)| !d)
            .map(|(p, _)| p.total_work)
            .sum()
    }

    /// The first storage position at or after `from` whose work passes
    /// the monotone screen `pass` (true on a value ⇒ true on every
    /// smaller one), or the end of storage. No live slot in between
    /// passes, so a walk resumes at [`Queue::next_live`] of the answer
    /// exactly where stepping would have got to. O(log n) after an O(n)
    /// rebuild when storage was spliced.
    pub(crate) fn next_passing(&mut self, from: usize, pass: impl Fn(f64) -> bool) -> usize {
        if self.stale {
            self.rebuild();
        }
        let len = self.entries.len();
        if from >= len {
            return len;
        }
        let mut node = self.cap + from;
        loop {
            if pass(self.tree[node]) {
                // Some leaf below passes: take the leftmost one.
                while node < self.cap {
                    node = if pass(self.tree[2 * node]) {
                        2 * node
                    } else {
                        2 * node + 1
                    };
                }
                // Padding leaves pass only where no real slot does.
                return (node - self.cap).min(len);
            }
            // Everything under a right child is exhausted together with
            // its parent's left half: climb until a right sibling
            // remains, then try that whole subtree.
            while node % 2 == 1 {
                if node == 1 {
                    return len;
                }
                node /= 2;
            }
            node += 1;
        }
    }

    /// Advances `live_from` past the tombstones it points at.
    fn skip_dead_prefix(&mut self) {
        self.live_from = self.next_live(self.live_from).unwrap_or(self.entries.len());
    }

    /// Sets one leaf and repairs its ancestors, stopping at the first
    /// one whose minimum does not change.
    fn set(&mut self, i: usize, key: f64) {
        let mut n = self.cap + i;
        self.tree[n] = key;
        while n > 1 {
            n /= 2;
            let m = self.tree[2 * n].min(self.tree[2 * n + 1]);
            if self.tree[n].to_bits() == m.to_bits() {
                break;
            }
            self.tree[n] = m;
        }
    }

    /// Rebuilds every leaf from storage, reusing the tree's buffer.
    fn rebuild(&mut self) {
        self.cap = self.entries.len().next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * self.cap, f64::INFINITY);
        for (i, (p, &d)) in self.entries.iter().zip(&self.dead).enumerate() {
            self.tree[self.cap + i] = if d { f64::INFINITY } else { key(p) };
        }
        for n in (1..self.cap).rev() {
            self.tree[n] = self.tree[2 * n].min(self.tree[2 * n + 1]);
        }
        self.stale = false;
    }
}

impl std::ops::Index<usize> for Queue {
    type Output = Pending;

    /// The live entry at storage slot `slot`.
    fn index(&self, slot: usize) -> &Pending {
        debug_assert!(!self.dead[slot], "slot {slot} was taken");
        &self.entries[slot]
    }
}
