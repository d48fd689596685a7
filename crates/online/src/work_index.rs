//! The backfill window's jump table: a min-tournament tree over the
//! admission queue's storage, keyed on each entry's `total_work`.
//!
//! Once a blocked head has a reservation, the admission pass screens
//! every later candidate by its work bound — a candidate that cannot
//! finish inside the hole even on all free processors at once is
//! skipped without a probe. On a deep queue of big workflows almost
//! every candidate is skipped, and walking past them one by one made a
//! pass cost the depth of the queue. [`WorkIndex::next_from`] answers
//! "the first slot at or after `i` whose key passes the screen" in
//! O(log n) instead.
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
//! * a tombstoned slot is `+∞`, the largest key (it fails whenever
//!   anything fails);
//! * a NaN `total_work` is `−∞`: `clock + NaN / s > r` is false, so the
//!   linear walk always visits a NaN candidate, and `−∞` passes every
//!   screen that anything passes.
//!
//! `free_speed ≤ 0` fails every key (the caller lands on the end);
//! `free_speed = +∞` is not monotone (`∞ / ∞` is NaN), so the caller
//! does not jump at all then.
//!
//! The tree is owned by [`ClusterState`](crate::state::ClusterState),
//! which keeps it in step with every queue-storage mutation: an arrival
//! pushes a leaf, a tombstone raises one to `+∞`, and the splicing
//! mutations (compaction, spillover insert and removal, draining the
//! queue) mark it stale so the next query rebuilds it in one O(n)
//! sweep.

use crate::state::Pending;

/// A min-tournament tree over queue storage slots: leaf `i` holds slot
/// `i`'s key, every internal node the minimum of its two children.
#[derive(Debug, Default)]
pub(crate) struct WorkIndex {
    /// `tree[cap + i]` is slot `i`'s key and `tree[n]` is
    /// `min(tree[2n], tree[2n + 1])`; `tree[0]` is unused. Leaves past
    /// `len` are padding at `+∞`.
    tree: Vec<f64>,
    /// Leaf count: a power of two once built, 0 before.
    cap: usize,
    /// How many storage slots the index covers — the queue's length,
    /// kept exact even while the leaves are stale.
    len: usize,
    /// The leaves no longer describe storage; the next query rebuilds.
    stale: bool,
}

impl WorkIndex {
    /// The key of a live queue entry: its `total_work`, with NaN
    /// mapped to `−∞` so it is visited exactly when the linear walk
    /// would visit it (always).
    pub(crate) fn key(p: &Pending) -> f64 {
        if p.total_work.is_nan() {
            f64::NEG_INFINITY
        } else {
            p.total_work
        }
    }

    /// How many storage slots the index covers.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// A slot was appended to storage.
    pub(crate) fn push(&mut self, key: f64) {
        self.len += 1;
        if self.stale || self.len > self.cap {
            // Out of leaves: the rebuild doubles them.
            self.stale = true;
        } else {
            self.set(self.len - 1, key);
        }
    }

    /// Slot `i` was tombstoned.
    pub(crate) fn kill(&mut self, i: usize) {
        if !self.stale {
            self.set(i, f64::INFINITY);
        }
    }

    /// Storage was spliced and now has `len` slots: rebuild lazily.
    pub(crate) fn reset(&mut self, len: usize) {
        self.len = len;
        self.stale = true;
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
    fn rebuild(&mut self, queue: &[Pending], dead: &[bool]) {
        debug_assert_eq!(self.len, queue.len(), "the index missed a queue mutation");
        self.cap = self.len.next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * self.cap, f64::INFINITY);
        for (i, (p, &d)) in queue.iter().zip(dead).enumerate() {
            self.tree[self.cap + i] = if d { f64::INFINITY } else { Self::key(p) };
        }
        for n in (1..self.cap).rev() {
            self.tree[n] = self.tree[2 * n].min(self.tree[2 * n + 1]);
        }
        self.stale = false;
    }

    /// The first slot at or after `from` whose key passes `pass`, or
    /// `len` when none does — exactly what a linear scan of the keys
    /// answers, provided `pass` is monotone (true on a key ⇒ true on
    /// every smaller key). O(log n) after an O(n) rebuild when stale.
    pub(crate) fn next_from(
        &mut self,
        from: usize,
        queue: &[Pending],
        dead: &[bool],
        pass: impl Fn(f64) -> bool,
    ) -> usize {
        if self.stale {
            self.rebuild(queue, dead);
        }
        if from >= self.len {
            return self.len;
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
                return (node - self.cap).min(self.len);
            }
            // Everything under a right child is exhausted together with
            // its parent's left half: climb until a right sibling
            // remains, then try that whole subtree.
            while node % 2 == 1 {
                if node == 1 {
                    return self.len;
                }
                node /= 2;
            }
            node += 1;
        }
    }
}
