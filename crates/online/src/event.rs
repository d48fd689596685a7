//! The virtual-clock event layer: completion events and their heap.
//!
//! The engine advances a global virtual clock over two event kinds —
//! workflow *arrivals* (taken straight from the sorted submission
//! stream) and workflow *completions*, which live here as a min-heap of
//! [`Completion`] entries ordered by `(time, seq)`. The monotonically
//! increasing `seq` both breaks ties deterministically and implements
//! *staleness*: an elastic lease resize (growth or shrink)
//! re-schedules a workflow's completion by pushing a fresh event and
//! bumping the in-service record's `live_seq`; heap entries whose `seq`
//! no longer matches are stale and must be skipped on pop (see
//! [`InService::live_seq`](crate::state::InService)).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled workflow-completion event.
#[derive(Debug)]
pub(crate) struct Completion {
    /// Completion instant in virtual time.
    pub(crate) time: f64,
    /// Monotone sequence number; the live-event check compares it
    /// against the slot's `live_seq`.
    pub(crate) seq: u64,
    /// The `in_service` slot of the workflow it completes. Slots are
    /// reused and sequence numbers never are, so an entry whose `seq`
    /// is not the slot's `live_seq` is stale whoever holds the slot now.
    pub(crate) slot: usize,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Completion {}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, seq).
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The completion-event queue: a min-heap of [`Completion`]s plus the
/// engine's sequence counter. Every event ever pushed gets a fresh
/// `seq`, so `(time, seq)` ordering is a total order and replays are
/// deterministic.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Completion>,
    next_seq: u64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules a completion for `slot` at `time` and returns the
    /// sequence number assigned — the caller stores it as the slot's
    /// `live_seq`.
    pub(crate) fn push(&mut self, time: f64, slot: usize) -> u64 {
        let seq = self.next_seq;
        self.heap.push(Completion { time, seq, slot });
        self.next_seq += 1;
        seq
    }

    /// Instant of the earliest pending completion (stale entries
    /// included — the caller skips those on pop).
    pub(crate) fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|c| c.time)
    }

    pub(crate) fn peek(&self) -> Option<&Completion> {
        self.heap.peek()
    }

    pub(crate) fn pop(&mut self) -> Option<Completion> {
        self.heap.pop()
    }

    /// Unordered iteration over every pending entry (the reservation
    /// replay sorts its own copy).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Completion> {
        self.heap.iter()
    }
}
