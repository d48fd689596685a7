//! Golden outputs of the exact solver (`dhp-exact`).
//!
//! `tests/golden/exact_golden.txt` was recorded before the solver's
//! inner loop moved from a fresh `QuotientGraph` and topological sort
//! per search node onto one indexed flat quotient per partition,
//! relaxed per node. Every line pins one instance on one cluster: the
//! optimum's makespan bits, the FNV of its mapping (block of every task
//! in task order, then the processor of every block) and all five
//! search counters, so a change in what the search visits or prunes is
//! caught even where the optimum happens not to move.
//!
//! The instances are small `dhp-wfgen` workflows of three families on
//! the default and the small cluster (scaled so the hottest task fits,
//! as the experiment harness does), a few seeds each, plus one dense
//! random graph most of whose partitions have a cyclic quotient.
//!
//! Re-record (only when an output change is intended):
//! `cargo test --release --test exact_golden -- --ignored record`.

use dhp_core::fitting::scale_cluster_with_headroom;
use dhp_core::Mapping;
use dhp_dag::fingerprint::{fnv1a_u64, FNV_OFFSET};
use dhp_dag::{Dag, NodeId};
use dhp_exact::{solve, ExactConfig};
use dhp_platform::{configs, Cluster};
use dhp_wfgen::{Family, WorkflowInstance};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/exact_golden.txt");

/// The families that generate workflows of at most ten tasks (the
/// others start at twelve or more).
const FAMILIES: [Family; 3] = [Family::Blast, Family::Bwa, Family::Seismology];

/// Requested task counts of the workflow instances.
const SIZES: [usize; 2] = [6, 8];

/// Seeds of the workflow instances.
const SEEDS: [u64; 3] = [1, 2, 3];

/// FNV-1a over the mapping as stored: block of every task in task
/// order, then the processor of every block (`u64::MAX` = none).
fn mapping_fnv(m: &Mapping) -> u64 {
    let p = &m.partition;
    let blocks = (0..p.len()).map(|u| p.block_of(NodeId(u as u32)).0 as u64);
    let procs = m
        .proc_of_block
        .iter()
        .map(|p| p.map_or(u64::MAX, |p| p.0 as u64));
    blocks.chain(procs).fold(FNV_OFFSET, fnv1a_u64)
}

/// One line: `exact <label> <cluster> <outcome> <counters>`.
fn line(out: &mut String, label: &str, g: &Dag, cluster_name: &str, base: &Cluster) {
    let cluster = scale_cluster_with_headroom(g, base, 1.05);
    let solved = solve(g, &cluster, &ExactConfig::default()).expect("within the exact cap");
    let outcome = match &solved {
        Some(s) => format!(
            "{:016x} {:016x}",
            s.makespan.to_bits(),
            mapping_fnv(&s.mapping)
        ),
        None => "no-solution".into(),
    };
    let stats = solved.map(|s| s.stats).unwrap_or_default();
    writeln!(
        out,
        "exact {label} n={} {cluster_name} {outcome} {} {} {} {} {}",
        g.node_count(),
        stats.partitions,
        stats.acyclic,
        stats.mem_feasible,
        stats.assignments,
        stats.pruned
    )
    .unwrap();
}

/// The dense random graph: most of its set partitions have a cyclic
/// quotient.
fn cyclic_heavy() -> Dag {
    dhp_dag::builder::gnp_dag_weighted(9, 0.6, 5)
}

fn compute() -> String {
    let clusters = [
        ("default", configs::default_cluster()),
        ("small", configs::small_cluster()),
    ];
    let mut out = String::new();
    for family in FAMILIES {
        for tasks in SIZES {
            for seed in SEEDS {
                let g = WorkflowInstance::simulated(family, tasks, seed).graph;
                let label = format!("{}-{tasks}-s{seed}", family.name());
                for (name, cluster) in &clusters {
                    line(&mut out, &label, &g, name, cluster);
                }
            }
        }
    }
    for (name, cluster) in &clusters {
        line(&mut out, "gnp-9-p0.6-s5", &cyclic_heavy(), name, cluster);
    }
    out
}

#[test]
fn solver_reproduces_every_golden_line() {
    let fresh = compute();
    let mut checked = 0;
    for (want, got) in GOLDEN.lines().zip(fresh.lines()) {
        assert_eq!(want, got, "golden line {checked} differs");
        checked += 1;
    }
    assert_eq!(GOLDEN.lines().count(), fresh.lines().count());
    assert_eq!(
        checked,
        2 * (FAMILIES.len() * SIZES.len() * SEEDS.len() + 1)
    );
    // The premise of the `gnp` lines: fewer than a quarter of the dense
    // graph's partitions survive the acyclicity filter, so the
    // solver's cyclic branch carries most of the enumeration.
    for want in GOLDEN.lines().filter(|l| l.starts_with("exact gnp-")) {
        let counters: Vec<u64> = want
            .split(' ')
            .rev()
            .take(5)
            .map(|c| c.parse().unwrap())
            .collect();
        let (partitions, acyclic) = (counters[4], counters[3]);
        assert!(4 * acyclic < partitions, "{want}");
    }
}

#[test]
#[ignore = "rewrites tests/golden/exact_golden.txt"]
fn record() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exact_golden.txt");
    std::fs::write(path, compute()).unwrap();
}
