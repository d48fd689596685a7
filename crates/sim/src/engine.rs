//! The discrete-event engine.

use crate::links::LinkModel;
use dhp_core::mapping::Mapping;
use dhp_dag::util::BitSet;
use dhp_dag::{Dag, NodeId};
use dhp_platform::Cluster;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Outcome of one simulated execution.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Time at which the last task finishes.
    pub makespan: f64,
    /// Start time of every task.
    pub task_start: Vec<f64>,
    /// Finish time of every task.
    pub task_finish: Vec<f64>,
    /// Finish time of every block (max over its tasks).
    pub block_finish: Vec<f64>,
    /// Peak memory of every block during the executed order (same
    /// liveness algebra as the analytic requirement `r`).
    pub block_peak_memory: Vec<f64>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Event {
    /// A task finished executing.
    TaskFinish(NodeId),
    /// A file (edge) arrived at its consumer's processor.
    FileArrive(dhp_dag::EdgeId),
}

struct QueuedEvent {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap by (time, seq)
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Simulates a complete mapping under the cluster's uniform bandwidth.
///
/// # Panics
/// Panics if the mapping is incomplete or malformed (every block must
/// have a distinct processor); validate with `dhp_core::mapping::validate`
/// first.
pub fn simulate(g: &Dag, cluster: &Cluster, mapping: &Mapping) -> SimResult {
    simulate_with_links(g, cluster, mapping, &LinkModel::Uniform(cluster.bandwidth))
}

/// Simulates a complete mapping under an arbitrary link model (the
/// heterogeneous-bandwidth extension of the paper's future work).
pub fn simulate_with_links(
    g: &Dag,
    cluster: &Cluster,
    mapping: &Mapping,
    links: &LinkModel,
) -> SimResult {
    let n = g.node_count();
    assert!(links.validate(), "invalid link model");
    assert!(mapping.is_complete(), "simulate needs a complete mapping");
    let k = mapping.num_blocks();

    // Per-task block and processor.
    let block_of: Vec<usize> = g
        .node_ids()
        .map(|u| mapping.partition.block_of(u).idx())
        .collect();
    let proc_of: Vec<dhp_platform::ProcId> = g
        .node_ids()
        .map(|u| {
            let Some(p) = mapping.proc_of_block[block_of[u.idx()]] else {
                unreachable!("asserted above: the mapping is complete")
            };
            p
        })
        .collect();

    // Execution order within each block: the same traversal the memory
    // requirement was computed with.
    let orders: Vec<Vec<NodeId>> = mapping
        .partition
        .members()
        .iter()
        .map(|members| block_order(g, members))
        .collect();
    let mut pos_in_block = vec![usize::MAX; n];
    for order in &orders {
        for (i, &u) in order.iter().enumerate() {
            pos_in_block[u.idx()] = i;
        }
    }

    let mut pending_inputs: Vec<usize> = g.node_ids().map(|u| g.in_degree(u)).collect();
    let mut cursor = vec![0usize; k]; // next task index per block
    let mut proc_free = vec![true; k]; // block's processor idle?
    let mut task_start = vec![f64::NAN; n];
    let mut task_finish = vec![f64::NAN; n];

    let mut heap: BinaryHeap<QueuedEvent> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<QueuedEvent>, seq: &mut u64, time: f64, event: Event| {
        heap.push(QueuedEvent {
            time,
            seq: *seq,
            event,
        });
        *seq += 1;
    };

    // Try to start the next task of block `b` at time `now`.
    let try_start = |b: usize,
                     now: f64,
                     cursor: &mut [usize],
                     proc_free: &mut [bool],
                     pending_inputs: &[usize],
                     task_start: &mut [f64],
                     heap: &mut BinaryHeap<QueuedEvent>,
                     seq: &mut u64| {
        if !proc_free[b] || cursor[b] >= orders[b].len() {
            return;
        }
        let u = orders[b][cursor[b]];
        if pending_inputs[u.idx()] > 0 {
            return;
        }
        proc_free[b] = false;
        task_start[u.idx()] = now;
        let dur = g.node(u).work / cluster.speed(proc_of[u.idx()]);
        heap.push(QueuedEvent {
            time: now + dur,
            seq: *seq,
            event: Event::TaskFinish(u),
        });
        *seq += 1;
    };

    // Kick off every block whose first task is a source.
    for b in 0..k {
        try_start(
            b,
            0.0,
            &mut cursor,
            &mut proc_free,
            &pending_inputs,
            &mut task_start,
            &mut heap,
            &mut seq,
        );
    }

    let mut makespan = 0.0f64;
    while let Some(QueuedEvent { time, event, .. }) = heap.pop() {
        match event {
            Event::TaskFinish(u) => {
                task_finish[u.idx()] = time;
                makespan = makespan.max(time);
                let b = block_of[u.idx()];
                cursor[b] += 1;
                proc_free[b] = true;
                // Dispatch output files.
                for &e in g.out_edges(u) {
                    let ed = g.edge(e);
                    let (pu, pv) = (proc_of[u.idx()], proc_of[ed.dst.idx()]);
                    if pu == pv {
                        // Local file: available immediately.
                        pending_inputs[ed.dst.idx()] -= 1;
                        try_start(
                            block_of[ed.dst.idx()],
                            time,
                            &mut cursor,
                            &mut proc_free,
                            &pending_inputs,
                            &mut task_start,
                            &mut heap,
                            &mut seq,
                        );
                    } else {
                        let dt = ed.volume / links.bandwidth(pu, pv);
                        push(&mut heap, &mut seq, time + dt, Event::FileArrive(e));
                    }
                }
                // The processor is idle again: maybe its next task is ready.
                try_start(
                    b,
                    time,
                    &mut cursor,
                    &mut proc_free,
                    &pending_inputs,
                    &mut task_start,
                    &mut heap,
                    &mut seq,
                );
            }
            Event::FileArrive(e) => {
                let v = g.edge(e).dst;
                pending_inputs[v.idx()] -= 1;
                try_start(
                    block_of[v.idx()],
                    time,
                    &mut cursor,
                    &mut proc_free,
                    &pending_inputs,
                    &mut task_start,
                    &mut heap,
                    &mut seq,
                );
            }
        }
    }

    assert!(
        task_finish.iter().all(|t| !t.is_nan()),
        "simulation deadlocked: not every task executed (cyclic quotient?)"
    );

    let mut block_finish = vec![0.0f64; k];
    for u in g.node_ids() {
        let b = block_of[u.idx()];
        block_finish[b] = block_finish[b].max(task_finish[u.idx()]);
    }
    let block_peak_memory = orders.iter().map(|order| executed_peak(g, order)).collect();

    SimResult {
        makespan,
        task_start,
        task_finish,
        block_finish,
        block_peak_memory,
    }
}

/// The execution order of a block: the best traversal found by
/// `dhp-memdag` (identical to the one behind the analytic requirement).
fn block_order(g: &Dag, members: &[NodeId]) -> Vec<NodeId> {
    if members.len() <= 1 {
        return members.to_vec();
    }
    dhp_memdag::block_traversal(g, members).order
}

/// Peak memory of executing `order` as one block (transient boundary
/// algebra, matching `dhp_core::blockmem::block_requirement`).
fn executed_peak(g: &Dag, order: &[NodeId]) -> f64 {
    let mut member = BitSet::new(g.node_count());
    for &u in order {
        member.set(u.idx());
    }
    let mut live = 0.0f64;
    let mut peak = 0.0f64;
    for &u in order {
        let mut out_all = 0.0;
        let mut out_int = 0.0;
        for &e in g.out_edges(u) {
            let ed = g.edge(e);
            out_all += ed.volume;
            if member.get(ed.dst.idx()) {
                out_int += ed.volume;
            }
        }
        let mut in_int = 0.0;
        let mut in_boundary = 0.0;
        for &e in g.in_edges(u) {
            let ed = g.edge(e);
            if member.get(ed.src.idx()) {
                in_int += ed.volume;
            } else {
                in_boundary += ed.volume;
            }
        }
        peak = peak.max(live + g.node(u).memory + out_all + in_boundary);
        live += out_int - in_int;
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::{builder, Partition};
    use dhp_platform::{ProcId, Processor};

    fn solo_cluster(speed: f64) -> Cluster {
        Cluster::new(vec![Processor::new("solo", speed, 1e9)], 1.0)
    }

    #[test]
    fn single_block_runs_sequentially() {
        let g = builder::chain(4, 6.0, 1.0, 1.0);
        let mapping = Mapping {
            partition: Partition::single_block(4),
            proc_of_block: vec![Some(ProcId(0))],
        };
        let r = simulate(&g, &solo_cluster(2.0), &mapping);
        // 4 tasks × 6 work / speed 2 = 12, no communication
        assert_eq!(r.makespan, 12.0);
        assert_eq!(r.block_finish, vec![12.0]);
        // starts are back-to-back
        for w in [0.0, 3.0, 6.0, 9.0] {
            assert!(r.task_start.contains(&w));
        }
    }

    #[test]
    fn cross_processor_transfer_costs_time() {
        let mut g = Dag::new();
        let a = g.add_node(4.0, 1.0);
        let b = g.add_node(4.0, 1.0);
        g.add_edge(a, b, 10.0);
        let cluster = Cluster::new(
            vec![
                Processor::new("p0", 2.0, 1e9),
                Processor::new("p1", 2.0, 1e9),
            ],
            5.0, // β
        );
        let mapping = Mapping {
            partition: Partition::from_raw(&[0, 1]),
            proc_of_block: vec![Some(ProcId(0)), Some(ProcId(1))],
        };
        let r = simulate(&g, &cluster, &mapping);
        // a: 0..2 ; transfer 10/5 = 2 ; b: 4..6
        assert_eq!(r.task_finish[0], 2.0);
        assert_eq!(r.task_start[1], 4.0);
        assert_eq!(r.makespan, 6.0);
    }

    #[test]
    fn successors_start_before_block_finishes() {
        // Block 0 = {src, slow_tail}; src also feeds block 1. In the
        // analytic model block 1 waits for ALL of block 0; in the
        // simulation it starts right after src's file arrives.
        let mut g = Dag::new();
        let src = g.add_node(2.0, 1.0);
        let tail = g.add_node(100.0, 1.0);
        let other = g.add_node(2.0, 1.0);
        g.add_edge(src, tail, 1.0);
        g.add_edge(src, other, 1.0);
        let cluster = Cluster::new(
            vec![
                Processor::new("p0", 1.0, 1e9),
                Processor::new("p1", 1.0, 1e9),
            ],
            1.0,
        );
        let mapping = Mapping {
            partition: Partition::from_raw(&[0, 0, 1]),
            proc_of_block: vec![Some(ProcId(0)), Some(ProcId(1))],
        };
        let r = simulate(&g, &cluster, &mapping);
        // other starts at 2 (src done) + 1 (transfer) = 3, while the tail
        // keeps block 0 busy until 102.
        assert_eq!(r.task_start[2], 3.0);
        assert_eq!(r.makespan, 102.0);
        // The analytic model overestimates: block0 finish + comm + other.
        let analytic = dhp_core::makespan::makespan_of_mapping(&g, &cluster, &mapping);
        assert!(analytic >= r.makespan);
        assert_eq!(analytic, 102.0 + 1.0 + 2.0);
    }

    #[test]
    fn per_processor_links_slow_transfers() {
        let mut g = Dag::new();
        let a = g.add_node(1.0, 1.0);
        let b = g.add_node(1.0, 1.0);
        g.add_edge(a, b, 12.0);
        let cluster = Cluster::new(
            vec![
                Processor::new("p0", 1.0, 1e9),
                Processor::new("p1", 1.0, 1e9),
            ],
            1.0,
        );
        let mapping = Mapping {
            partition: Partition::from_raw(&[0, 1]),
            proc_of_block: vec![Some(ProcId(0)), Some(ProcId(1))],
        };
        let fast = simulate_with_links(&g, &cluster, &mapping, &LinkModel::Uniform(4.0));
        let slow = simulate_with_links(
            &g,
            &cluster,
            &mapping,
            &LinkModel::PerProcessor(vec![4.0, 2.0]),
        );
        // fast: 1 + 3 + 1 ; slow: min(4,2)=2 -> 1 + 6 + 1
        assert_eq!(fast.makespan, 5.0);
        assert_eq!(slow.makespan, 8.0);
    }

    #[test]
    fn simulated_peak_matches_requirement() {
        let g = builder::gnp_dag_weighted(30, 0.15, 3);
        let order = dhp_dag::topo::topo_sort(&g).unwrap();
        let mut raw = vec![0u32; 30];
        for (i, &u) in order.iter().enumerate() {
            raw[u.idx()] = (i / 15) as u32;
        }
        let mapping = Mapping {
            partition: Partition::from_raw(&raw),
            proc_of_block: vec![Some(ProcId(0)), Some(ProcId(1))],
        };
        let cluster = Cluster::new(
            vec![
                Processor::new("p0", 1.0, 1e9),
                Processor::new("p1", 1.0, 1e9),
            ],
            1.0,
        );
        let r = simulate(&g, &cluster, &mapping);
        for (b, members) in mapping.partition.members().iter().enumerate() {
            let req = dhp_core::blockmem::block_requirement(&g, members);
            assert!(
                (r.block_peak_memory[b] - req).abs() < 1e-9,
                "block {b}: simulated {} vs analytic {req}",
                r.block_peak_memory[b]
            );
        }
    }
}
