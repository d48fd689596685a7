//! Real-world-like workflow instances.
//!
//! The paper's real-world set consists of five nf-core pipelines whose
//! DAGs (after removing nextflow pseudo-tasks) have 11–58 tasks, with
//! weights derived from the Lotaru historical traces of Bader et al.
//! Two trace properties shape the experiments and are reproduced here:
//!
//! 1. **Missing data**: for some workflows more than half of the tasks
//!    have no historical measurements and receive weight 1, producing a
//!    long "tail" of tiny tasks.
//! 2. **Normalisation**: measured values are normalised by the smallest
//!    one (so all values are ≥ 1) and memory weights are scaled so the
//!    largest fits the biggest machine memory (192).

use crate::{SizeClass, WorkflowInstance};
use dhp_dag::{Dag, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum memory weight after normalisation (the `C2` machine size).
pub const MEMORY_CAP: f64 = 192.0;

/// Descriptor of one synthetic real-world pipeline.
struct Spec {
    name: &'static str,
    tasks: usize,
    /// Fraction of tasks with historical data (the rest get weight 1).
    measured_fraction: f64,
    /// Mixing parameter: fraction of "fan" segments vs. chain segments.
    fan_bias: f64,
}

const SPECS: [Spec; 5] = [
    Spec {
        name: "methylseq",
        tasks: 58,
        measured_fraction: 0.45,
        fan_bias: 0.5,
    },
    Spec {
        name: "chipseq",
        tasks: 44,
        measured_fraction: 0.55,
        fan_bias: 0.4,
    },
    Spec {
        name: "eager",
        tasks: 32,
        measured_fraction: 0.6,
        fan_bias: 0.35,
    },
    Spec {
        name: "bacass",
        tasks: 20,
        measured_fraction: 0.5,
        fan_bias: 0.3,
    },
    Spec {
        name: "airrflow",
        tasks: 11,
        measured_fraction: 0.6,
        fan_bias: 0.25,
    },
];

/// Generates the five real-world-like instances, their graphs compact
/// ([`Dag::shrink_to_fit`]).
pub fn suite(seed: u64) -> Vec<WorkflowInstance> {
    SPECS
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut graph = build(spec, seed.wrapping_add(i as u64 * 7919));
            graph.shrink_to_fit();
            WorkflowInstance {
                name: spec.name.to_string(),
                family: None,
                size_class: SizeClass::Real,
                requested_size: spec.tasks,
                graph: graph.into(),
            }
        })
        .collect()
}

/// Builds one pipeline with the shape of an nf-core workflow DAG: a
/// short staging prefix, a fan into per-sample analysis *branches* (long
/// parallel tool chains — the dominant structure of these pipelines), a
/// merge, and a short reporting tail. `fan_bias` controls how much of the
/// task budget goes into parallel branches.
fn build(spec: &Spec, seed: u64) -> Dag {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Dag::new();
    let src = g.add_node(1.0, 1.0);
    g.set_label(src, Some(&format!("{}_input", spec.name)));

    let prefix_len = rng.random_range(1..=2usize).min(spec.tasks / 8 + 1);
    let tail_len = rng.random_range(1..=2usize);
    // Branch budget: everything between prefix, merge, and tail.
    let budget = spec.tasks - 1 - prefix_len - 1 - tail_len;
    let width = (2.0 + spec.fan_bias * 8.0).round() as usize;
    let width = width.clamp(2, budget.max(2));
    let per_branch = (budget / width).max(1);
    let mut extra = budget.saturating_sub(width * per_branch);

    // Prefix chain.
    let mut cur = src;
    for i in 0..prefix_len {
        let t = g.add_node(1.0, 1.0);
        g.set_label(t, Some(&format!("{}_prep{}", spec.name, i)));
        g.add_edge(cur, t, 1.0);
        cur = t;
    }
    // Parallel per-sample branches.
    let merge = g.add_node(1.0, 1.0);
    g.set_label(merge, Some(&format!("{}_multiqc", spec.name)));
    for b in 0..width {
        let len = per_branch + usize::from(extra > 0);
        extra = extra.saturating_sub(1);
        let mut prev = cur;
        for i in 0..len {
            let t = g.add_node(1.0, 1.0);
            g.set_label(t, Some(&format!("{}_b{}_{}", spec.name, b, i)));
            g.add_edge(prev, t, 1.0);
            prev = t;
        }
        g.add_edge(prev, merge, 1.0);
    }
    // Reporting tail.
    let mut prev = merge;
    for i in 0..tail_len {
        let t = g.add_node(1.0, 1.0);
        g.set_label(t, Some(&format!("{}_report{}", spec.name, i)));
        g.add_edge(prev, t, 1.0);
        prev = t;
    }
    debug_assert_eq!(g.node_count(), spec.tasks);
    assign_trace_weights(&mut g, spec.measured_fraction, &mut rng);
    g
}

/// Assigns Lotaru-trace-like weights: a `measured_fraction` of tasks get
/// heavy-tailed (log-uniform) normalised measurements, the rest weight 1;
/// memory weights are normalised to at most [`MEMORY_CAP`].
fn assign_trace_weights(g: &mut Dag, measured_fraction: f64, rng: &mut StdRng) {
    let ids: Vec<NodeId> = g.node_ids().collect();
    for &u in &ids {
        if rng.random_bool(measured_fraction) {
            // Log-uniform: most mass near small values with a heavy tail,
            // as produced by normalising by the smallest trace value. Task
            // runtimes span a much wider range than file sizes in the
            // Lotaru traces (seconds..hours vs MB..GB), hence the wider
            // work range.
            let w = (rng.random_range(0.0f64..=1.0) * 20_000f64.ln()).exp();
            let m = (rng.random_range(0.0f64..=1.0) * 400f64.ln()).exp();
            let n = g.node_mut(u);
            n.work = w;
            n.memory = m;
        } else {
            let n = g.node_mut(u);
            n.work = 1.0;
            n.memory = 1.0;
        }
    }
    // Edge volumes: the traces only record total output size per task;
    // split it evenly across children.
    for &u in &ids {
        let outs = g.out_edges(u).to_vec();
        if outs.is_empty() {
            continue;
        }
        let total = (g.node(u).memory * 0.2).max(1.0);
        let share = total / outs.len() as f64;
        for e in outs {
            g.edge_mut(e).volume = share;
        }
    }
    // Normalise memory to the cap.
    let max_mem = ids.iter().map(|&u| g.node(u).memory).fold(0.0f64, f64::max);
    if max_mem > MEMORY_CAP {
        let f = MEMORY_CAP / max_mem;
        for &u in &ids {
            g.node_mut(u).memory *= f;
        }
        for e in g.edge_ids().collect::<Vec<_>>() {
            g.edge_mut(e).volume *= f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::cycles::is_cyclic;

    #[test]
    fn suite_has_five_small_workflows() {
        let s = suite(1);
        assert_eq!(s.len(), 5);
        for inst in &s {
            assert_eq!(inst.graph.node_count(), inst.requested_size);
            assert!(
                (11..=58).contains(&inst.graph.node_count()),
                "{}",
                inst.name
            );
            assert!(!is_cyclic(&inst.graph));
            assert_eq!(inst.graph.sources().count(), 1, "{}", inst.name);
            assert_eq!(inst.size_class, SizeClass::Real);
        }
    }

    #[test]
    fn weights_have_unit_tail_and_cap() {
        for inst in suite(2) {
            let g = &inst.graph;
            let unit = g.node_ids().filter(|&u| g.node(u).work == 1.0).count();
            assert!(unit >= 1, "{} should have weight-1 tasks", inst.name);
            for u in g.node_ids() {
                assert!(g.node(u).memory <= MEMORY_CAP + 1e-9);
                assert!(g.node(u).work >= 1.0);
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = suite(3);
        let b = suite(3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph.total_work(), y.graph.total_work());
        }
    }
}
