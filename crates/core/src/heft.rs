//! HEFT — Heterogeneous Earliest Finish Time list scheduling.
//!
//! The related-work comparator: makespan-oriented schedulers for
//! heterogeneous platforms (e.g. the dagP-based scheduler of Özkaya et
//! al., classic HEFT) "do not take memory constraints into account, and
//! thus do not produce valid solutions for our target problem in
//! general" (paper §2). This module implements insertion-based HEFT and
//! a memory audit that quantifies exactly that: how badly a
//! memory-oblivious schedule overflows the processors' memories.
//!
//! HEFT schedules *tasks* (not blocks): upward ranks are computed with
//! mean execution and communication costs, tasks are scheduled in
//! decreasing rank order onto the processor minimising the earliest
//! finish time, allowing insertion into idle gaps.

use dhp_dag::{Dag, NodeId};
use dhp_platform::{Cluster, ProcId};

/// A task-level schedule produced by HEFT.
#[derive(Clone, Debug)]
pub struct HeftSchedule {
    /// Processor of every task.
    pub proc_of_task: Vec<ProcId>,
    /// Start time of every task.
    pub start: Vec<f64>,
    /// Finish time of every task.
    pub finish: Vec<f64>,
    /// Overall makespan.
    pub makespan: f64,
}

/// One processor whose memory a HEFT schedule overflows.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryViolation {
    /// The overflowing processor.
    pub proc: ProcId,
    /// Peak resident memory reached on it.
    pub peak: f64,
    /// Its capacity `M_j`.
    pub capacity: f64,
}

/// The rank phase of HEFT: the topological order, the mean-cost upward
/// ranks, and the scheduling order they induce. All three are a pure
/// function of the graph structure and the cluster's `(mean speed,
/// bandwidth)` profile.
#[derive(Clone, Debug, PartialEq)]
pub struct RankTable {
    /// A topological order of the graph.
    pub topo: Vec<NodeId>,
    /// Upward rank of every task: mean execution cost plus the largest
    /// mean-cost tail over its successors.
    pub rank: Vec<f64>,
    /// Task ids in HEFT scheduling order: decreasing rank, ties broken
    /// by ascending id.
    pub by_rank: Vec<NodeId>,
}

/// Computes the HEFT rank phase for `g` on `cluster`.
///
/// # Panics
/// Panics on an empty graph or cluster, or cyclic input.
pub fn rank_table(g: &Dag, cluster: &Cluster) -> RankTable {
    assert!(!g.is_empty() && !cluster.is_empty());
    let n = g.node_count();
    let beta = cluster.bandwidth;
    let mean_speed: f64 = cluster.iter().map(|(_, p)| p.speed).sum::<f64>() / cluster.len() as f64;

    // Upward ranks with mean costs.
    let Some(topo) = dhp_dag::topo::topo_sort(g) else {
        unreachable!("rank_table is only called on a DAG (see # Panics)")
    };
    let mut rank = vec![0.0f64; n];
    for &u in topo.iter().rev() {
        let mut tail: f64 = 0.0;
        for &e in g.out_edges(u) {
            let ed = g.edge(e);
            tail = tail.max(ed.volume / beta + rank[ed.dst.idx()]);
        }
        rank[u.idx()] = g.node(u).work / mean_speed + tail;
    }
    let mut by_rank: Vec<NodeId> = g.node_ids().collect();
    by_rank.sort_by(|&a, &b| rank[b.idx()].total_cmp(&rank[a.idx()]).then(a.cmp(&b)));
    RankTable {
        topo,
        rank,
        by_rank,
    }
}

/// Runs insertion-based HEFT.
///
/// # Panics
/// Panics on an empty graph or cluster, or cyclic input.
pub fn heft(g: &Dag, cluster: &Cluster) -> HeftSchedule {
    heft_with_ranks(g, cluster, &rank_table(g, cluster))
}

/// The EFT phase of HEFT against a precomputed [`RankTable`] —
/// byte-identical to [`heft`] when `ranks` came from [`rank_table`] on
/// the same `(g, cluster)` pair.
///
/// # Panics
/// Panics on an empty graph or cluster, or a rank table whose length
/// does not match the graph.
pub fn heft_with_ranks(g: &Dag, cluster: &Cluster, ranks: &RankTable) -> HeftSchedule {
    assert!(!g.is_empty() && !cluster.is_empty());
    let n = g.node_count();
    assert_eq!(
        ranks.by_rank.len(),
        n,
        "rank table does not belong to this graph"
    );
    let beta = cluster.bandwidth;

    // Insertion-based EFT.
    let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); cluster.len()]; // sorted intervals
    let mut proc_of_task = vec![ProcId(0); n];
    let mut start = vec![0.0f64; n];
    let mut finish = vec![0.0f64; n];

    for &u in &ranks.by_rank {
        let mut best: Option<(f64, f64, ProcId)> = None; // (eft, est, proc)
        for (p, proc) in cluster.iter() {
            // Ready time: all input files must have arrived on p.
            let mut ready = 0.0f64;
            for &e in g.in_edges(u) {
                let ed = g.edge(e);
                let src_p = proc_of_task[ed.src.idx()];
                let comm = if src_p == p { 0.0 } else { ed.volume / beta };
                ready = ready.max(finish[ed.src.idx()] + comm);
            }
            let dur = g.node(u).work / proc.speed;
            let est = earliest_slot(&busy[p.idx()], ready, dur);
            let eft = est + dur;
            if best.is_none_or(|(b, _, _)| eft < b - 1e-12) {
                best = Some((eft, est, p));
            }
        }
        let Some((eft, est, p)) = best else {
            unreachable!("asserted above: the cluster is non-empty, so some processor was tried")
        };
        proc_of_task[u.idx()] = p;
        start[u.idx()] = est;
        finish[u.idx()] = eft;
        insert_interval(&mut busy[p.idx()], (est, eft));
    }

    let makespan = finish.iter().copied().fold(0.0, f64::max);
    HeftSchedule {
        proc_of_task,
        start,
        finish,
        makespan,
    }
}

/// Earliest start ≥ `ready` such that `[start, start+dur)` fits into the
/// idle gaps of `busy` (sorted, disjoint intervals).
///
/// Intervals that finish at or before `ready` can neither host the slot
/// nor push the candidate, so the scan starts at the first interval
/// still alive at `ready` — found by binary search (finishes of sorted
/// disjoint intervals are themselves sorted) instead of a linear walk
/// over the whole prefix. On long busy lists with a late `ready` (the
/// common shape deep into a HEFT run) this turns the per-probe cost
/// from O(intervals) into O(log intervals + gap span).
fn earliest_slot(busy: &[(f64, f64)], ready: f64, dur: f64) -> f64 {
    let live = busy.partition_point(|&(_, f)| f <= ready);
    let mut candidate = ready;
    for &(s, f) in &busy[live..] {
        if candidate + dur <= s + 1e-12 {
            return candidate;
        }
        candidate = candidate.max(f);
    }
    candidate
}

/// Inserts `iv` into the sorted interval list. The insertion point is
/// found by binary search, and the overwhelmingly common case — tasks
/// land in rank order, so the new interval starts at or after the last
/// one — appends without shifting the tail.
fn insert_interval(busy: &mut Vec<(f64, f64)>, iv: (f64, f64)) {
    if busy.last().is_none_or(|&(s, _)| s <= iv.0) {
        busy.push(iv);
        return;
    }
    let pos = busy.partition_point(|&(s, _)| s < iv.0);
    busy.insert(pos, iv);
}

/// Audits the resident memory of a HEFT schedule per processor.
///
/// Memory model (consistent with the block model): a task's working
/// memory `m_u` is resident while it runs; a file `(u, v)` is resident on
/// the *consumer's* processor from the producer's finish (when the
/// transfer starts) until the consumer finishes, and on the producer's
/// processor while the producer runs. Returns the processors whose peak
/// exceeds their capacity.
pub fn memory_violations(
    g: &Dag,
    cluster: &Cluster,
    schedule: &HeftSchedule,
) -> Vec<MemoryViolation> {
    // One flat event sweep: (time, delta, processor), sorted once. The
    // per-processor subsequence of the global `(time, delta)` order is
    // exactly what sorting that processor's events alone would produce
    // (equal pairs carry equal deltas, so their relative order cannot
    // change any prefix sum), so a single sort replaces one sort per
    // processor.
    let mut events: Vec<(f64, f64, usize)> =
        Vec::with_capacity(2 * (g.node_count() + g.edge_count()));
    for u in g.node_ids() {
        let p = schedule.proc_of_task[u.idx()].idx();
        // task working memory + its outputs while running
        let out_sum: f64 = g.out_edges(u).iter().map(|&e| g.edge(e).volume).sum();
        events.push((schedule.start[u.idx()], g.node(u).memory + out_sum, p));
        events.push((schedule.finish[u.idx()], -(g.node(u).memory + out_sum), p));
    }
    for e in g.edge_ids() {
        let ed = g.edge(e);
        let cons = schedule.proc_of_task[ed.dst.idx()].idx();
        // resident on the consumer from producer finish to consumer finish
        events.push((schedule.finish[ed.src.idx()], ed.volume, cons));
        events.push((schedule.finish[ed.dst.idx()], -ed.volume, cons));
    }
    // At equal times apply frees before allocations for a fair peak.
    events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut cur = vec![0.0f64; cluster.len()];
    let mut peak = vec![0.0f64; cluster.len()];
    for &(_, d, p) in &events {
        cur[p] += d;
        peak[p] = peak[p].max(cur[p]);
    }
    let mut out = Vec::new();
    for (p, proc) in cluster.iter() {
        if peak[p.idx()] > proc.memory * (1.0 + 1e-9) {
            out.push(MemoryViolation {
                proc: p,
                peak: peak[p.idx()],
                capacity: proc.memory,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;
    use dhp_platform::Processor;

    fn het_cluster() -> Cluster {
        Cluster::new(
            vec![
                Processor::new("slow", 1.0, 1e9),
                Processor::new("fast", 4.0, 1e9),
            ],
            1.0,
        )
    }

    #[test]
    fn chain_goes_to_fastest_processor() {
        let g = builder::chain(5, 8.0, 1.0, 1.0);
        let s = heft(&g, &het_cluster());
        // All on the fast processor: 5 × 8/4 = 10.
        assert_eq!(s.makespan, 10.0);
        assert!(s.proc_of_task.iter().all(|&p| p == ProcId(1)));
    }

    #[test]
    fn fork_join_uses_both_processors() {
        let g = builder::fork_join(6, 40.0, 1.0, 1.0);
        let s = heft(&g, &het_cluster());
        let used: std::collections::HashSet<_> = s.proc_of_task.iter().collect();
        assert_eq!(used.len(), 2, "parallel middle should spread");
        // Sanity: schedule respects precedence.
        for e in g.edge_ids() {
            let ed = g.edge(e);
            assert!(s.start[ed.dst.idx()] >= s.finish[ed.src.idx()] - 1e-9);
        }
    }

    #[test]
    fn no_overlap_per_processor() {
        let g = builder::gnp_dag_weighted(40, 0.15, 9);
        let cluster = dhp_platform::configs::small_cluster();
        let s = heft(&g, &cluster);
        for a in g.node_ids() {
            for b in g.node_ids() {
                if a < b && s.proc_of_task[a.idx()] == s.proc_of_task[b.idx()] {
                    assert!(
                        s.finish[a.idx()] <= s.start[b.idx()] + 1e-9
                            || s.finish[b.idx()] <= s.start[a.idx()] + 1e-9,
                        "tasks overlap on a processor"
                    );
                }
            }
        }
    }

    #[test]
    fn memory_audit_flags_oblivious_schedules() {
        // Fan with fat files onto tiny-memory processors: HEFT piles the
        // files up far beyond capacity.
        let g = builder::fork_join(30, 5.0, 4.0, 8.0);
        let cluster = Cluster::new(
            vec![
                Processor::new("a", 1.0, 30.0),
                Processor::new("b", 2.0, 30.0),
            ],
            1.0,
        );
        let s = heft(&g, &cluster);
        let violations = memory_violations(&g, &cluster, &s);
        assert!(
            !violations.is_empty(),
            "memory-oblivious HEFT must overflow tiny memories"
        );
        for v in &violations {
            assert!(v.peak > v.capacity);
        }
    }

    #[test]
    fn memory_audit_accepts_roomy_clusters() {
        let g = builder::chain(6, 2.0, 1.0, 1.0);
        let s = heft(&g, &het_cluster());
        assert!(memory_violations(&g, &het_cluster(), &s).is_empty());
    }

    #[test]
    fn insertion_fills_gaps() {
        // earliest_slot must reuse an idle gap before the last interval.
        let busy = vec![(0.0, 2.0), (10.0, 12.0)];
        assert_eq!(earliest_slot(&busy, 0.0, 3.0), 2.0); // gap 2..10
        assert_eq!(earliest_slot(&busy, 0.0, 9.0), 12.0); // too big, append
        assert_eq!(earliest_slot(&busy, 11.0, 1.0), 12.0);
    }

    /// Regression for the insertion bookkeeping under many intervals:
    /// interleaving gap-filling inserts with appends must keep the busy
    /// list sorted and pairwise disjoint, and every scheduled slot must
    /// be the earliest feasible one.
    #[test]
    fn insert_interval_keeps_many_intervals_sorted_and_disjoint() {
        let mut busy: Vec<(f64, f64)> = Vec::new();
        // Deterministic mix: long strides first (leaving gaps), then
        // unit fillers that must land inside the gaps, then appends.
        let mut demands: Vec<(f64, f64)> = Vec::new();
        for i in 0..100 {
            demands.push((3.0 * i as f64, 2.0)); // (ready, dur): gap of 1 after each
        }
        for i in 0..100 {
            demands.push((3.0 * i as f64, 1.0)); // fills the 1-wide gaps exactly
        }
        demands.push((0.0, 5.0)); // forced to append at the end
        for (ready, dur) in demands {
            let est = earliest_slot(&busy, ready, dur);
            assert!(est >= ready);
            insert_interval(&mut busy, (est, est + dur));
        }
        assert_eq!(busy.len(), 201);
        for w in busy.windows(2) {
            assert!(w[0].0 <= w[1].0, "list no longer sorted: {w:?}");
            assert!(w[0].1 <= w[1].0 + 1e-12, "intervals overlap: {w:?}");
        }
        // The fillers really went into the holes: the first 300 units
        // of the timeline are packed solid.
        let packed_until =
            busy.iter()
                .take_while(|&&(s, _)| s < 300.0)
                .fold(0.0f64, |t, &(s, f)| {
                    assert!((s - t).abs() < 1e-12, "hole left before {s}");
                    f.max(t)
                });
        assert_eq!(packed_until, 300.0);
    }

    /// The split rank phase must reproduce `heft` exactly.
    #[test]
    fn heft_with_ranks_matches_heft_bitwise() {
        for seed in [1u64, 9, 42, 77] {
            let g = builder::gnp_dag_weighted(35, 0.2, seed);
            let cluster = dhp_platform::configs::small_cluster();
            let fresh = heft(&g, &cluster);
            let ranks = rank_table(&g, &cluster);
            let memo = heft_with_ranks(&g, &cluster, &ranks);
            assert_eq!(fresh.proc_of_task, memo.proc_of_task);
            assert_eq!(fresh.start, memo.start);
            assert_eq!(fresh.finish, memo.finish);
            assert_eq!(fresh.makespan.to_bits(), memo.makespan.to_bits());
            // And the table itself is deterministic.
            assert_eq!(ranks, rank_table(&g, &cluster));
        }
    }

    /// Pin the single-sort memory sweep against a per-processor
    /// reference accumulation: identical violations, bit-equal peaks.
    #[test]
    fn memory_sweep_matches_per_processor_reference() {
        for seed in [3u64, 11, 23] {
            let g = builder::gnp_dag_weighted(30, 0.2, seed);
            // Tight memories so violations actually occur.
            let cluster = Cluster::new(
                vec![
                    Processor::new("a", 1.0, 6.0),
                    Processor::new("b", 2.0, 6.0),
                    Processor::new("c", 3.0, 6.0),
                ],
                1.0,
            );
            let s = heft(&g, &cluster);
            let got = memory_violations(&g, &cluster, &s);

            // Reference: independent per-processor event sweep.
            let mut events: Vec<Vec<(f64, f64)>> = vec![Vec::new(); cluster.len()];
            for u in g.node_ids() {
                let p = s.proc_of_task[u.idx()].idx();
                let out_sum: f64 = g.out_edges(u).iter().map(|&e| g.edge(e).volume).sum();
                events[p].push((s.start[u.idx()], g.node(u).memory + out_sum));
                events[p].push((s.finish[u.idx()], -(g.node(u).memory + out_sum)));
            }
            for e in g.edge_ids() {
                let ed = g.edge(e);
                let cons = s.proc_of_task[ed.dst.idx()].idx();
                events[cons].push((s.finish[ed.src.idx()], ed.volume));
                events[cons].push((s.finish[ed.dst.idx()], -ed.volume));
            }
            let mut want = Vec::new();
            for (p, proc) in cluster.iter() {
                let ev = &mut events[p.idx()];
                ev.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
                let mut cur = 0.0f64;
                let mut peak = 0.0f64;
                for &(_, d) in ev.iter() {
                    cur += d;
                    peak = peak.max(cur);
                }
                if peak > proc.memory * (1.0 + 1e-9) {
                    want.push(MemoryViolation {
                        proc: p,
                        peak,
                        capacity: proc.memory,
                    });
                }
            }
            assert!(!want.is_empty(), "seed {seed} should overflow");
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.proc, b.proc);
                assert_eq!(a.peak.to_bits(), b.peak.to_bits());
                assert_eq!(a.capacity.to_bits(), b.capacity.to_bits());
            }
        }
    }

    /// The out-of-order path: an interval starting before the current
    /// head must be inserted at the front, not appended.
    #[test]
    fn insert_interval_handles_out_of_order_inserts() {
        let mut busy = vec![(5.0, 6.0), (8.0, 9.0)];
        insert_interval(&mut busy, (0.0, 1.0));
        insert_interval(&mut busy, (6.5, 7.0));
        insert_interval(&mut busy, (9.0, 10.0)); // equal-start append path
        assert_eq!(
            busy,
            vec![(0.0, 1.0), (5.0, 6.0), (6.5, 7.0), (8.0, 9.0), (9.0, 10.0)]
        );
    }
}
