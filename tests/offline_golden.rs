//! Golden outputs of the offline solver.
//!
//! `tests/golden/offline_golden.txt` was recorded before Step 2/3 and
//! the k' sweep were reworked to stop recomputing what they hold; every
//! line is (makespan bits, winning k', FNV of the mapping's raw
//! partition + processor table). The solver must keep reproducing every
//! line bit for bit, threaded and sequential.
//!
//! Re-record (only when an output change is intended):
//! `cargo test --release --test offline_golden -- --ignored record`.

use dhp_core::daghetpart::KprimeMode;
use dhp_core::fitting::scale_cluster_with_headroom;
use dhp_core::prelude::*;
use dhp_dag::fingerprint::{fnv1a_u64, FNV_OFFSET};
use dhp_dag::NodeId;
use dhp_platform::{configs, Cluster};
use dhp_wfgen::{Family, WorkflowInstance};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/offline_golden.txt");

const FAMILIES: [Family; 5] = [
    Family::Epigenomics,
    Family::Montage,
    Family::Soykb,
    Family::Blast,
    Family::Genome,
];

/// FNV-1a over the mapping as stored: block of every task in task
/// order, then the processor of every block (`u64::MAX` = none).
fn mapping_fnv(m: &Mapping) -> u64 {
    let blocks = (0..m.partition.len()).map(|u| m.partition.block_of(NodeId(u as u32)).0 as u64);
    let procs = m
        .proc_of_block
        .iter()
        .map(|p| p.map_or(u64::MAX, |p| p.0 as u64));
    blocks.chain(procs).fold(FNV_OFFSET, fnv1a_u64)
}

fn outcome(r: &Result<MappingResult, SchedError>) -> String {
    match r {
        Ok(r) => format!(
            "{:016x} {} {:016x}",
            r.makespan.to_bits(),
            r.kprime,
            mapping_fnv(&r.mapping)
        ),
        Err(SchedError::NoSolution) => "no-solution".into(),
    }
}

/// The memory-tight instance: a 60-task epigenomics chain bundle on the
/// default cluster, where most `k'` attempts die in Step 3.
fn tight_instance() -> (WorkflowInstance, Cluster) {
    let inst = WorkflowInstance::simulated(Family::Epigenomics, 60, 4242);
    let cluster = scale_cluster_with_headroom(&inst.graph, &configs::default_cluster(), 1.05);
    (inst, cluster)
}

/// Every golden line, freshly computed.
fn compute() -> String {
    let mut out = String::new();
    for (fi, family) in FAMILIES.into_iter().enumerate() {
        for tasks in [60usize, 200] {
            let inst = WorkflowInstance::simulated(family, tasks, 17 + fi as u64);
            for (cname, base) in [
                ("default", configs::default_cluster()),
                ("small", configs::small_cluster()),
            ] {
                let cluster = scale_cluster_with_headroom(&inst.graph, &base, 1.05);
                for parallel in [true, false] {
                    let cfg = DagHetPartConfig {
                        parallel,
                        ..DagHetPartConfig::default()
                    };
                    let r = dag_het_part(&inst.graph, &cluster, &cfg);
                    writeln!(
                        out,
                        "{} {tasks} {cname} parallel={parallel}: {}",
                        family.name(),
                        outcome(&r)
                    )
                    .unwrap();
                }
            }
        }
    }
    // Per-k' outcomes of the tight instance, failures included: a
    // `no-solution` must stay one.
    let (inst, cluster) = tight_instance();
    for kp in 1..=cluster.len().min(inst.graph.node_count()) {
        let cfg = DagHetPartConfig {
            kprime: KprimeMode::Fixed(kp),
            ..DagHetPartConfig::default()
        };
        let r = dag_het_part(&inst.graph, &cluster, &cfg);
        writeln!(out, "tight k'={kp}: {}", outcome(&r)).unwrap();
    }
    out
}

#[test]
fn solver_reproduces_every_golden_line() {
    let fresh = compute();
    let (mut checked, mut tight, mut tight_failed) = (0, 0, 0);
    for (want, got) in GOLDEN.lines().zip(fresh.lines()) {
        assert_eq!(want, got, "golden line {checked} differs");
        checked += 1;
        if want.starts_with("tight ") {
            tight += 1;
            tight_failed += want.ends_with("no-solution") as usize;
        }
    }
    assert_eq!(GOLDEN.lines().count(), fresh.lines().count());
    assert_eq!(checked, 5 * 2 * 2 * 2 + tight);
    assert!(
        2 * tight_failed > tight,
        "premise: more than half of the tight instance's k' attempts fail ({tight_failed}/{tight})"
    );
}

#[test]
#[ignore = "rewrites tests/golden/offline_golden.txt"]
fn record() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/offline_golden.txt"
    );
    std::fs::write(path, compute()).unwrap();
}
