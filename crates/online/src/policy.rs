//! Admission policies and lease sizing.
//!
//! When processors free up (or new work arrives), the engine must
//! decide *which* queued workflow to admit next and *how many*
//! processors to lease to it. Policies only rank the queue; the
//! feasibility test (can the solver actually produce a valid mapping on
//! the candidate lease?) stays in the engine, so every policy sees the
//! identical admission machinery.

use crate::queue::Queue;

/// Which queued workflow to try next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Strict arrival order with head-of-line blocking: nothing jumps
    /// the queue, even if the head cannot currently be placed.
    Fifo,
    /// Arrival order with *conservative backfilling*: when the head
    /// cannot be placed, the engine computes its reservation (the
    /// earliest instant enough processors free up, from the pending
    /// completions) and admits later arrivals only if their simulated
    /// finish does not push past that reservation — so the head is
    /// never delayed, but small work fills the holes.
    FifoBackfill,
    /// Arrival order with *aggressive (EASY) backfilling*: like
    /// [`FifoBackfill`](AdmissionPolicy::FifoBackfill) the blocked head
    /// gets a reservation, but the reservation is computed lazily once
    /// per event (not re-derived per pass) and a later arrival that
    /// places *now* may be admitted even if it runs past the
    /// reservation, provided the head is still placeable at the
    /// reservation instant on the processors the backfill does not
    /// take. Trades the conservative never-delay-the-head guarantee for
    /// throughput: piled-up aggressive backfills can push the head past
    /// its original promise.
    EasyBackfill,
    /// Smallest total work first (SJF-style): minimises mean wait under
    /// bursts, at the cost of potentially starving big workflows.
    ShortestFirst,
    /// Hardest-to-place memory footprint first (best-fit decreasing on
    /// the hottest task requirement): big-memory workflows grab the
    /// big-memory processors while they are free.
    MemoryFitFirst,
}

impl AdmissionPolicy {
    /// Display/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::Fifo => "fifo",
            AdmissionPolicy::FifoBackfill => "fifo-backfill",
            AdmissionPolicy::EasyBackfill => "easy-backfill",
            AdmissionPolicy::ShortestFirst => "shortest",
            AdmissionPolicy::MemoryFitFirst => "memfit",
        }
    }

    /// Parses a CLI policy name.
    pub fn parse(s: &str) -> Option<AdmissionPolicy> {
        match s {
            "fifo" => Some(AdmissionPolicy::Fifo),
            "fifo-backfill" | "backfill" => Some(AdmissionPolicy::FifoBackfill),
            "easy-backfill" | "easy" => Some(AdmissionPolicy::EasyBackfill),
            "shortest" | "sjf" => Some(AdmissionPolicy::ShortestFirst),
            "memfit" | "memory-fit" => Some(AdmissionPolicy::MemoryFitFirst),
            _ => None,
        }
    }

    /// All policies (for sweeps and tests).
    pub const ALL: [AdmissionPolicy; 5] = [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::FifoBackfill,
        AdmissionPolicy::EasyBackfill,
        AdmissionPolicy::ShortestFirst,
        AdmissionPolicy::MemoryFitFirst,
    ];

    /// True for the two backfilling variants (the policies that compute
    /// head reservations in the engine).
    pub fn backfills(self) -> bool {
        matches!(
            self,
            AdmissionPolicy::FifoBackfill | AdmissionPolicy::EasyBackfill
        )
    }

    /// Candidate order: slots of `queue` in the order this policy wants
    /// them tried, into a caller-owned buffer (the
    /// admission loop reuses one across passes so steady-state ordering
    /// is allocation-free). `Fifo` yields only the head (head-of-line
    /// blocking); the backfilling policies yield the whole queue in
    /// arrival order (the engine enforces the head's reservation); the
    /// others rank the whole queue.
    pub(crate) fn candidate_order_into(self, queue: &Queue, idx: &mut Vec<usize>) {
        idx.clear();
        match self {
            AdmissionPolicy::Fifo => idx.extend(queue.first_live()),
            // The queue is maintained in (arrival, id) order, so plain
            // slot order *is* arrival order.
            AdmissionPolicy::FifoBackfill | AdmissionPolicy::EasyBackfill => {
                idx.extend(queue.live_slots());
            }
            AdmissionPolicy::ShortestFirst => {
                idx.extend(queue.live_slots());
                idx.sort_by(|&a, &b| {
                    queue[a]
                        .total_work
                        .total_cmp(&queue[b].total_work)
                        .then(queue[a].id.cmp(&queue[b].id))
                });
            }
            AdmissionPolicy::MemoryFitFirst => {
                idx.extend(queue.live_slots());
                idx.sort_by(|&a, &b| {
                    queue[b]
                        .max_task_req
                        .total_cmp(&queue[a].max_task_req)
                        .then(queue[a].id.cmp(&queue[b].id))
                });
            }
        }
    }
}

/// How many processors a workflow's lease should target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseSizing {
    /// Target tasks per leased processor; the lease size is
    /// `ceil(tasks / tasks_per_proc)` clamped to the bounds below.
    pub tasks_per_proc: usize,
    /// Lower bound on the lease size.
    pub min_procs: usize,
    /// Upper bound on the lease size (caps how much of the cluster one
    /// workflow can monopolise).
    pub max_procs: usize,
    /// Queue-length-aware sizing: when set, the target shrinks as the
    /// admission queue grows (divided by the number of queued
    /// workflows, floored at `min_procs`), so a burst of workflows
    /// parallelises across small leases instead of serialising behind
    /// one big one. Feasibility escalation (lease doubling) still
    /// applies on top of the shrunken target.
    pub shrink_under_load: bool,
}

impl Default for LeaseSizing {
    fn default() -> Self {
        LeaseSizing {
            tasks_per_proc: 25,
            min_procs: 1,
            max_procs: usize::MAX,
            shrink_under_load: false,
        }
    }
}

impl LeaseSizing {
    /// Target lease size for a workflow with `tasks` tasks. Degenerate
    /// bounds are normalised (`min` raised to 1, `max` raised to `min`)
    /// rather than panicking.
    pub fn target(&self, tasks: usize) -> usize {
        let lo = self.min_procs.max(1);
        let hi = self.max_procs.max(lo);
        tasks.div_ceil(self.tasks_per_proc.max(1)).clamp(lo, hi)
    }

    /// Target lease size under queue pressure: with `shrink_under_load`
    /// set, [`target`](Self::target) is divided by `queue_len` (the
    /// number of workflows currently queued, candidate included) so the
    /// free processors are shared across the whole backlog; otherwise
    /// identical to `target`.
    pub fn target_under_load(&self, tasks: usize, queue_len: usize) -> usize {
        let base = self.target(tasks);
        if !self.shrink_under_load || queue_len <= 1 {
            return base;
        }
        base.div_ceil(queue_len).max(self.min_procs.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for p in AdmissionPolicy::ALL {
            assert_eq!(AdmissionPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(
            AdmissionPolicy::parse("sjf"),
            Some(AdmissionPolicy::ShortestFirst)
        );
        assert_eq!(
            AdmissionPolicy::parse("easy"),
            Some(AdmissionPolicy::EasyBackfill)
        );
        assert_eq!(AdmissionPolicy::parse("unknown"), None);
        assert!(AdmissionPolicy::FifoBackfill.backfills());
        assert!(AdmissionPolicy::EasyBackfill.backfills());
        assert!(!AdmissionPolicy::Fifo.backfills());
    }

    #[test]
    fn lease_target_scales_and_clamps() {
        let s = LeaseSizing {
            tasks_per_proc: 25,
            min_procs: 2,
            max_procs: 6,
            shrink_under_load: false,
        };
        assert_eq!(s.target(10), 2); // floor at min
        assert_eq!(s.target(100), 4); // 100/25
        assert_eq!(s.target(101), 5); // ceil
        assert_eq!(s.target(10_000), 6); // cap at max
    }

    #[test]
    fn degenerate_bounds_do_not_panic() {
        let s = LeaseSizing {
            tasks_per_proc: 0,
            min_procs: 8,
            max_procs: 4,
            shrink_under_load: false,
        };
        assert_eq!(s.target(100), 8); // min wins; max raised to min
        let z = LeaseSizing {
            tasks_per_proc: 25,
            min_procs: 0,
            max_procs: 0,
            shrink_under_load: false,
        };
        assert_eq!(z.target(10), 1);
    }

    #[test]
    fn load_aware_sizing_shrinks_with_queue_length() {
        let s = LeaseSizing {
            tasks_per_proc: 25,
            min_procs: 2,
            max_procs: 16,
            shrink_under_load: true,
        };
        // 200 tasks → base target 8.
        assert_eq!(s.target_under_load(200, 0), 8); // empty queue: unchanged
        assert_eq!(s.target_under_load(200, 1), 8); // alone in the queue
        assert_eq!(s.target_under_load(200, 2), 4);
        assert_eq!(s.target_under_load(200, 3), 3); // ceil(8/3)
        assert_eq!(s.target_under_load(200, 100), 2); // floored at min_procs

        // Without the mode, queue length is ignored.
        let off = LeaseSizing {
            shrink_under_load: false,
            ..s
        };
        assert_eq!(off.target_under_load(200, 100), 8);
    }
}
