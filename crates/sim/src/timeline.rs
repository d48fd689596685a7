//! Per-processor schedule timelines (text Gantt charts).
//!
//! Turns a [`SimResult`] into per-processor lanes of
//! task intervals, plus an ASCII rendering for terminals, examples, and
//! debugging sessions. The rendering is deliberately plain text: the
//! repository has no plotting dependency, and a monospace chart is
//! enough to see block boundaries, idle gaps, and the critical lane.

use crate::SimResult;
use dhp_core::Mapping;
use dhp_dag::{Dag, NodeId};
use dhp_platform::{Cluster, ProcId};

/// One executed task interval on a processor.
#[derive(Clone, Debug, PartialEq)]
pub struct Interval {
    /// The task.
    pub task: NodeId,
    /// Block the task belongs to.
    pub block: usize,
    /// Start time.
    pub start: f64,
    /// Finish time.
    pub finish: f64,
}

/// All intervals of one processor, sorted by start time.
#[derive(Clone, Debug)]
pub struct Lane {
    /// The processor.
    pub proc: ProcId,
    /// Machine-kind label.
    pub kind: String,
    /// Executed intervals (empty for idle processors).
    pub intervals: Vec<Interval>,
    /// Total busy time.
    pub busy: f64,
}

impl Lane {
    /// Utilisation over the whole makespan (0 for an idle lane).
    pub fn utilisation(&self, makespan: f64) -> f64 {
        if makespan <= 0.0 {
            0.0
        } else {
            self.busy / makespan
        }
    }
}

/// The complete timeline of a simulated execution.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// One lane per processor that executes at least one task.
    pub lanes: Vec<Lane>,
    /// The simulated makespan.
    pub makespan: f64,
}

/// Builds the timeline of a simulated mapping.
pub fn timeline(_g: &Dag, cluster: &Cluster, mapping: &Mapping, sim: &SimResult) -> Timeline {
    let mut lanes: Vec<Lane> = Vec::new();
    for (block, members) in mapping.partition.members().iter().enumerate() {
        let Some(proc) = mapping.proc_of_block[block] else {
            unreachable!("`sim` came from `simulate`, which asserts the mapping is complete")
        };
        let mut intervals: Vec<Interval> = members
            .iter()
            .map(|&u| Interval {
                task: u,
                block,
                start: sim.task_start[u.idx()],
                finish: sim.task_finish[u.idx()],
            })
            .collect();
        intervals.sort_by(|a, b| a.start.total_cmp(&b.start));
        let busy = intervals.iter().map(|iv| iv.finish - iv.start).sum();
        lanes.push(Lane {
            proc,
            kind: cluster.proc(proc).kind.clone(),
            intervals,
            busy,
        });
    }
    lanes.sort_by_key(|l| l.proc);
    Timeline {
        lanes,
        makespan: sim.makespan,
    }
}

impl Timeline {
    /// Mean utilisation across occupied lanes.
    pub fn mean_utilisation(&self) -> f64 {
        if self.lanes.is_empty() {
            return 0.0;
        }
        self.lanes
            .iter()
            .map(|l| l.utilisation(self.makespan))
            .sum::<f64>()
            / self.lanes.len() as f64
    }

    /// Verifies the physical sanity of the timeline: intervals within a
    /// lane never overlap (one processor runs one task at a time) and
    /// everything finishes by the makespan. Returns the offending lane
    /// on failure. Used by tests; cheap enough to run in debug builds.
    pub fn check_no_overlap(&self) -> Result<(), ProcId> {
        for lane in &self.lanes {
            for w in lane.intervals.windows(2) {
                if w[1].start < w[0].finish - 1e-9 {
                    return Err(lane.proc);
                }
            }
            if let Some(last) = lane.intervals.last() {
                if last.finish > self.makespan * (1.0 + 1e-9) {
                    return Err(lane.proc);
                }
            }
        }
        Ok(())
    }

    /// Renders an ASCII Gantt chart, `width` characters wide. Each lane
    /// shows block occupancy (`#`) and idle time (`·`); the header is a
    /// time axis. Tasks shorter than one cell still mark their cell.
    pub fn render(&self, width: usize) -> String {
        let width = width.max(10);
        let scale = if self.makespan > 0.0 {
            width as f64 / self.makespan
        } else {
            0.0
        };
        let mut out = String::new();
        out.push_str(&format!(
            "time 0 {:-^1$} {2:.2}\n",
            "",
            width.saturating_sub(8),
            self.makespan
        ));
        for lane in &self.lanes {
            let mut row = vec!['·'; width];
            for iv in &lane.intervals {
                let a = ((iv.start * scale) as usize).min(width - 1);
                let b = ((iv.finish * scale).ceil() as usize).clamp(a + 1, width);
                for c in &mut row[a..b] {
                    *c = '#';
                }
            }
            out.push_str(&format!(
                "p{:<3} {:<6} |{}| {:5.1}%\n",
                lane.proc.idx(),
                lane.kind,
                row.iter().collect::<String>(),
                100.0 * lane.utilisation(self.makespan),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use dhp_core::prelude::*;
    use dhp_platform::configs;

    fn scheduled(family: dhp_wfgen::Family, n: usize) -> (Dag, Cluster, Mapping, SimResult) {
        let inst = dhp_wfgen::WorkflowInstance::simulated(family, n, 3);
        let cluster = dhp_core::fitting::scale_cluster_with_headroom(
            &inst.graph,
            &configs::small_cluster(),
            1.05,
        );
        let r = dag_het_part(&inst.graph, &cluster, &DagHetPartConfig::default()).unwrap();
        let sim = simulate(&inst.graph, &cluster, &r.mapping);
        (
            std::sync::Arc::unwrap_or_clone(inst.graph),
            cluster,
            r.mapping,
            sim,
        )
    }

    #[test]
    fn timeline_covers_every_task_once() {
        let (g, cluster, mapping, sim) = scheduled(dhp_wfgen::Family::Montage, 200);
        let tl = timeline(&g, &cluster, &mapping, &sim);
        let total: usize = tl.lanes.iter().map(|l| l.intervals.len()).sum();
        assert_eq!(total, g.node_count());
        tl.check_no_overlap()
            .expect("one task at a time per processor");
        assert!(tl.makespan > 0.0);
        assert!(tl.mean_utilisation() > 0.0 && tl.mean_utilisation() <= 1.0 + 1e-9);
    }

    #[test]
    fn lanes_match_block_processors() {
        let (g, cluster, mapping, sim) = scheduled(dhp_wfgen::Family::Bwa, 200);
        let _ = g;
        let tl = timeline(&g, &cluster, &mapping, &sim);
        assert_eq!(tl.lanes.len(), mapping.num_blocks());
        for lane in &tl.lanes {
            for iv in &lane.intervals {
                assert_eq!(mapping.proc_of_block[iv.block], Some(lane.proc));
            }
        }
    }

    #[test]
    fn render_has_one_row_per_lane_and_fits_width() {
        let (g, cluster, mapping, sim) = scheduled(dhp_wfgen::Family::Seismology, 200);
        let tl = timeline(&g, &cluster, &mapping, &sim);
        let chart = tl.render(60);
        let rows: Vec<&str> = chart.lines().collect();
        assert_eq!(rows.len(), tl.lanes.len() + 1); // + time axis
        assert!(rows[0].starts_with("time 0"));
        for row in &rows[1..] {
            assert!(row.contains('|') && row.contains('%'));
        }
        // busy lanes must show at least one filled cell
        for (lane, row) in tl.lanes.iter().zip(&rows[1..]) {
            if !lane.intervals.is_empty() {
                assert!(row.contains('#'), "{row}");
            }
        }
    }

    #[test]
    fn single_block_lane_is_fully_busy() {
        let g = dhp_dag::builder::chain(5, 4.0, 1.0, 1.0);
        let cluster = Cluster::new(vec![dhp_platform::Processor::new("solo", 2.0, 100.0)], 1.0);
        let mapping = Mapping {
            partition: dhp_dag::Partition::single_block(5),
            proc_of_block: vec![Some(ProcId(0))],
        };
        let sim = simulate(&g, &cluster, &mapping);
        let tl = timeline(&g, &cluster, &mapping, &sim);
        assert_eq!(tl.lanes.len(), 1);
        assert!((tl.lanes[0].utilisation(tl.makespan) - 1.0).abs() < 1e-9);
        tl.check_no_overlap().unwrap();
    }
}
