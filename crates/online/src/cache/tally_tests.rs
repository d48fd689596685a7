//! Test-build instrumentation of the store: per-thread tallies of what
//! probing it costs — store lock takes, key hashes and `Arc` clones
//! handed out — and peeks at how much it holds.

use super::store::SolveCache;
use dhp_dag::fingerprint::{FoldHasher, FoldState};
use std::cell::Cell;
use std::hash::BuildHasher;
use std::thread::LocalKey;

thread_local! {
    pub(super) static LOCKS: Cell<u64> = const { Cell::new(0) };
    pub(super) static HASHES: Cell<u64> = const { Cell::new(0) };
    pub(super) static ARC_CLONES: Cell<u64> = const { Cell::new(0) };
}

pub(super) fn bump(counter: &'static LocalKey<Cell<u64>>) {
    counter.with(|c| c.set(c.get() + 1));
}

/// `(lock takes, key hashes, Arc clones)` so far on this thread.
pub(crate) fn read() -> (u64, u64, u64) {
    let get = |counter: &'static LocalKey<Cell<u64>>| counter.with(Cell::get);
    (get(&LOCKS), get(&HASHES), get(&ARC_CLONES))
}

/// [`FoldState`], counting every hasher it builds: one per key hashed.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct CountingFold;

impl BuildHasher for CountingFold {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        bump(&HASHES);
        FoldState.build_hasher()
    }
}

impl SolveCache {
    /// Number of memoized entries.
    pub(crate) fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is memoized yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of memoized simulation outcomes.
    pub(crate) fn sim_len(&self) -> usize {
        let store = self.lock();
        store
            .entries
            .values()
            .filter(|e| e.0.sim().is_some())
            .count()
    }
}
