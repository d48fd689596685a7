//! Robustness and failure-injection tests: degenerate graphs, extreme
//! weights, and adversarial platform shapes must never panic, and every
//! successful mapping must still validate.

use dhp_core::makespan::makespan_of_mapping;
use dhp_core::prelude::*;
use dhp_dag::Dag;
use dhp_platform::{Cluster, Processor};

fn solo(speed: f64, memory: f64) -> Cluster {
    Cluster::new(vec![Processor::new("solo", speed, memory)], 1.0)
}

fn uniform(k: usize, speed: f64, memory: f64) -> Cluster {
    Cluster::new(
        (0..k).map(|_| Processor::new("u", speed, memory)).collect(),
        1.0,
    )
}

#[test]
fn empty_graph_is_no_solution_not_a_panic() {
    let g = Dag::new();
    let c = solo(1.0, 100.0);
    assert!(dag_het_part(&g, &c, &DagHetPartConfig::default()).is_err());
    assert!(dag_het_mem(&g, &c).is_err());
}

#[test]
fn single_task_schedules_everywhere() {
    let mut g = Dag::new();
    g.add_node(10.0, 5.0);
    for cluster in [solo(2.0, 100.0), uniform(4, 1.0, 6.0)] {
        let r = dag_het_part(&g, &cluster, &DagHetPartConfig::default()).unwrap();
        validate(&g, &cluster, &r.mapping).unwrap();
        assert_eq!(r.mapping.num_blocks(), 1);
        let m = dag_het_mem(&g, &cluster).unwrap();
        validate(&g, &cluster, &m).unwrap();
    }
}

#[test]
fn zero_work_and_zero_volume_yield_zero_makespan() {
    let mut g = Dag::new();
    let a = g.add_node(0.0, 1.0);
    let b = g.add_node(0.0, 1.0);
    g.add_edge(a, b, 0.0);
    let c = solo(2.0, 100.0);
    let r = dag_het_part(&g, &c, &DagHetPartConfig::default()).unwrap();
    assert_eq!(r.makespan, 0.0);
    validate(&g, &c, &r.mapping).unwrap();
}

#[test]
fn disconnected_components_schedule_together() {
    // Two independent chains; no edges between them. The partition may
    // place them on separate processors (quotient has no cross edges).
    let mut g = Dag::new();
    let mut prev = None;
    for i in 0..10 {
        let u = g.add_node(5.0, 1.0);
        if let Some(p) = prev {
            if i != 5 {
                g.add_edge(p, u, 1.0); // break at i=5: two components
            }
        }
        prev = Some(u);
    }
    assert_eq!(g.sources().count(), 2);
    let cluster = uniform(4, 1.0, 50.0);
    let r = dag_het_part(&g, &cluster, &DagHetPartConfig::default()).unwrap();
    validate(&g, &cluster, &r.mapping).unwrap();
    // Two independent 25-work chains on 4 unit processors: the two
    // components can run fully in parallel, so the optimum is 25 and
    // the serial fallback is 50. The heuristic must not exceed serial.
    assert!(r.makespan <= 50.0 + 1e-9, "got {}", r.makespan);
}

#[test]
fn wide_star_does_not_blow_up() {
    // One source fanning into 400 children: a worst case for the
    // partitioner's balance constraint and for Step 3's merge loop.
    let mut g = Dag::new();
    let hub = g.add_node(1.0, 1.0);
    for _ in 0..400 {
        let c = g.add_node(3.0, 1.0);
        g.add_edge(hub, c, 0.5);
    }
    let cluster = uniform(6, 2.0, 300.0);
    let r = dag_het_part(&g, &cluster, &DagHetPartConfig::default()).unwrap();
    validate(&g, &cluster, &r.mapping).unwrap();
    let serial = g.total_work() / 2.0;
    assert!(r.makespan <= serial * (1.0 + 1e-9));
}

#[test]
fn extreme_weight_scales_stay_finite() {
    // Mixing 1e-6 and 1e6 weights stresses the floating-point paths in
    // bottom weights and liveness bookkeeping.
    let mut g = Dag::new();
    let mut prev = None;
    for i in 0..40 {
        let (w, m) = if i % 2 == 0 { (1e-6, 1e-6) } else { (1e6, 2.0) };
        let u = g.add_node(w, m);
        if let Some(p) = prev {
            g.add_edge(p, u, if i % 3 == 0 { 1e-6 } else { 10.0 });
        }
        prev = Some(u);
    }
    let cluster = uniform(4, 3.0, 1e3);
    let r = dag_het_part(&g, &cluster, &DagHetPartConfig::default()).unwrap();
    assert!(r.makespan.is_finite() && r.makespan > 0.0);
    validate(&g, &cluster, &r.mapping).unwrap();
    let m = dag_het_mem(&g, &cluster).unwrap();
    let mk = makespan_of_mapping(&g, &cluster, &m);
    assert!(mk.is_finite() && mk > 0.0);
}

#[test]
fn parallel_edges_are_handled() {
    // Two tasks joined by two parallel files; the coalesced graph must
    // behave like a single edge carrying the summed volume.
    let mut g = Dag::new();
    let a = g.add_node(4.0, 1.0);
    let b = g.add_node(4.0, 1.0);
    g.add_edge(a, b, 3.0);
    g.add_edge(a, b, 5.0);
    let merged = g.coalesce_parallel_edges();
    assert_eq!(merged.edge_count(), 1);
    assert_eq!(merged.total_volume(), 8.0);
    let cluster = uniform(2, 1.0, 100.0);
    let r1 = dag_het_part(&g, &cluster, &DagHetPartConfig::default()).unwrap();
    let r2 = dag_het_part(&merged, &cluster, &DagHetPartConfig::default()).unwrap();
    assert!((r1.makespan - r2.makespan).abs() < 1e-9 * r1.makespan.max(1.0));
}

#[test]
fn heuristics_are_deterministic() {
    let inst = dhp_wfgen::WorkflowInstance::simulated(dhp_wfgen::Family::Montage, 400, 13);
    let cluster = dhp_core::fitting::scale_cluster_with_headroom(
        &inst.graph,
        &dhp_platform::configs::default_cluster(),
        1.05,
    );
    let a = dag_het_part(&inst.graph, &cluster, &DagHetPartConfig::default()).unwrap();
    let b = dag_het_part(&inst.graph, &cluster, &DagHetPartConfig::default()).unwrap();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.kprime, b.kprime);
    let ma = dag_het_mem(&inst.graph, &cluster).unwrap();
    let mb = dag_het_mem(&inst.graph, &cluster).unwrap();
    assert_eq!(
        makespan_of_mapping(&inst.graph, &cluster, &ma),
        makespan_of_mapping(&inst.graph, &cluster, &mb)
    );
}

#[test]
fn barely_sufficient_memory_succeeds_or_fails_cleanly() {
    // Sweep the single processor's memory through the interesting range
    // around the whole-graph requirement: below it everything fails
    // with NoSolution (never panics), at/above it both succeed.
    let g = dhp_dag::builder::chain(8, 2.0, 4.0, 3.0);
    let whole = dhp_core::blockmem::block_requirement(&g, &g.node_ids().collect::<Vec<_>>());
    for f in [0.5, 0.9, 0.99, 1.0, 1.2] {
        let c = solo(1.0, whole * f);
        let part = dag_het_part(&g, &c, &DagHetPartConfig::default());
        let mem = dag_het_mem(&g, &c);
        if f >= 1.0 {
            let r = part.unwrap_or_else(|e| panic!("f={f}: {e}"));
            validate(&g, &c, &r.mapping).unwrap();
            validate(&g, &c, &mem.unwrap()).unwrap();
        } else {
            assert!(part.is_err(), "f={f} should not fit on one processor");
            assert!(mem.is_err());
        }
    }
}

#[test]
fn many_processors_few_tasks() {
    // 60 processors, 5 tasks: most processors stay idle; k' sweep must
    // cap at the task count.
    let g = dhp_dag::builder::chain(5, 10.0, 2.0, 1.0);
    let cluster = dhp_platform::configs::large_cluster();
    let r = dag_het_part(&g, &cluster, &DagHetPartConfig::default()).unwrap();
    assert!(r.mapping.num_blocks() <= 5);
    validate(&g, &cluster, &r.mapping).unwrap();
}

#[test]
fn deep_chain_recursion_safety() {
    // 20 000-deep chain: traversals, bottom weights, and liveness must
    // all be iterative (no stack overflow).
    let g = dhp_dag::builder::chain(20_000, 1.0, 1.0, 1.0);
    let cluster = uniform(4, 2.0, 1e6);
    let r = dag_het_part(&g, &cluster, &DagHetPartConfig::default()).unwrap();
    validate(&g, &cluster, &r.mapping).unwrap();
    assert!(r.makespan >= g.total_work() / 2.0 / 4.0);
}

/// Ten thousand single-task submissions arriving at the same instant,
/// a fifth of them larger than any processor's memory: every one is
/// completed or rejected, none is lost or duplicated, and a second run
/// writes the same report — under plain and backfilling FIFO, on one
/// cluster and on a two-member federation.
#[test]
fn ten_thousand_same_instant_arrivals_are_all_accounted_for() {
    use dhp_online::submission::single_task;
    use dhp_online::{serve, serve_federation, AdmissionPolicy, OnlineConfig, RoutingPolicy};
    use dhp_platform::Federation;
    const N: usize = 10_000;
    let member = dhp_platform::configs::small_cluster();
    let largest = member.iter().map(|(_, p)| p.memory).fold(0.0, f64::max);
    let subs: Vec<_> = (0..N)
        .map(|id| {
            let memory = largest * [0.1, 0.3, 0.5, 0.9, 1.5][id % 5];
            single_task(id, 0.0, 1.0 + (id % 7) as f64, memory, &format!("t{id}"))
        })
        .collect();
    let fed = Federation::homogeneous(member.clone(), 2);
    for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::FifoBackfill] {
        let cfg = OnlineConfig {
            policy,
            ..OnlineConfig::default()
        };
        let one = || serve(&member, subs.clone(), &cfg).report;
        let (a, b) = (one(), one());
        let f = &a.fleet;
        assert_eq!(
            f.completed + f.rejected + f.lost,
            N,
            "{policy:?}, one cluster"
        );
        assert_eq!(
            f.rejected,
            N / 5,
            "{policy:?}: only the oversized are refused"
        );
        assert_eq!(a.to_json(), b.to_json(), "{policy:?}, one cluster");

        let two = || serve_federation(&fed, subs.clone(), &cfg, RoutingPolicy::LeastLoaded).report;
        let (a, b) = (two(), two());
        let f = &a.fleet;
        assert_eq!(
            f.completed + f.rejected + f.lost,
            N,
            "{policy:?}, federation"
        );
        assert_eq!(
            f.rejected,
            N / 5,
            "{policy:?}: only the oversized are refused"
        );
        assert_eq!(a.to_json(), b.to_json(), "{policy:?}, federation");
    }
}

/// A directory for one test's files under the system temp dir, named by
/// the process id so concurrent runs of the suite stay apart; removed
/// when dropped.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dhp-robustness-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// Writes `text` to the file `name` and returns its path.
    fn write(&self, name: &str, text: &str) -> String {
        let path = self.0.join(name);
        std::fs::write(&path, text).unwrap();
        path.display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `daghetpart` with `line`'s space-separated arguments.
fn cli(line: &str) -> Result<String, String> {
    dhp_cli::run(line.split_whitespace().map(String::from))
}

/// Workflow files whose tasks need no memory and carry no work or no
/// files schedule under both algorithms, with and without headroom,
/// and the simulator agrees with the model. The makespans are those of
/// the default cluster, whose fastest processors run at speed 32: a
/// task of the DOT default work 1.0 takes 1/32. DagHetPart runs the
/// two children of `a` side by side (two levels), DagHetMem all three
/// on one processor.
#[test]
fn zero_memory_workflows_schedule_under_both_algorithms() {
    let dir = Scratch::new("zero_memory_workflows");
    let files = [
        (
            "all-zero",
            "digraph g { a [work=0, memory=0]; b [work=0, memory=0]; \
             c [work=0, memory=0]; a -> b [volume=0]; a -> c [volume=0]; }",
            [0.0, 0.0],
        ),
        (
            "zero-work",
            "digraph g { a [work=0, memory=0]; b [work=0, memory=0]; a -> b [volume=5]; }",
            [0.0, 0.0],
        ),
        (
            "zero-volume",
            "digraph g { a [memory=0]; b [memory=0]; c [memory=0]; \
             a -> b [volume=0]; a -> c [volume=0]; }",
            [2.0 / 32.0, 3.0 / 32.0],
        ),
        ("one-task", "digraph g { a [memory=0]; }", [1.0 / 32.0; 2]),
    ];
    for (name, text, makespans) in files {
        let wf = dir.write(&format!("{name}.dot"), text);
        for (algorithm, want) in ["daghetpart", "daghetmem"].into_iter().zip(makespans) {
            for headroom in ["1.05", "0"] {
                let run = format!(
                    "schedule --workflow {wf} --algorithm {algorithm} --headroom {headroom} --simulate"
                );
                let out = cli(&run).unwrap_or_else(|e| panic!("{run}: {e}"));
                let report: dhp_cli::report::ScheduleReport = serde_json::from_str(&out).unwrap();
                assert!(report.blocks >= 1, "{run}");
                assert_eq!(report.makespan, want, "{run}");
                assert_eq!(report.simulated_makespan, Some(want), "{run}");
            }
        }
    }
}

/// Cluster files that describe no usable processor are refused with the
/// cluster spec's classified messages (the binary prints them and exits
/// 1): a processor of speed or memory 0, bandwidth 0, an empty
/// processor list, and a processor line of `count: 0`.
#[test]
fn degenerate_cluster_files_are_refused_with_their_reason() {
    let dir = Scratch::new("degenerate_cluster_files");
    let wf = dir.write("one.dot", "digraph g { a [work=2, memory=1]; }");
    let positive = "speed and memory must be positive and finite";
    let files = [
        (
            "zero-speed",
            r#"{ "processors": [ { "name": "slow", "speed": 0, "memory": 500 } ] }"#,
            format!("processor \"slow\": {positive}"),
        ),
        (
            "zero-memory",
            r#"{ "processors": [ { "name": "tiny", "speed": 4, "memory": 0 } ] }"#,
            format!("processor \"tiny\": {positive}"),
        ),
        (
            "zero-bandwidth",
            r#"{ "bandwidth": 0, "processors": [ { "name": "fat", "speed": 4, "memory": 500 } ] }"#,
            "bandwidth must be positive and finite".to_string(),
        ),
        (
            "no-processors",
            r#"{ "processors": [] }"#,
            "cluster file defines no processors".to_string(),
        ),
        (
            "count-zero",
            r#"{ "processors": [ { "name": "none", "speed": 4, "memory": 500, "count": 0 } ] }"#,
            "cluster file defines no processors".to_string(),
        ),
    ];
    for (name, text, reason) in files {
        let cluster = dir.write(&format!("{name}.json"), text);
        for algorithm in ["daghetpart", "daghetmem"] {
            let run =
                format!("schedule --workflow {wf} --cluster {cluster} --algorithm {algorithm}");
            let err = cli(&run).unwrap_err();
            assert!(err.contains(&reason), "{run}: {err}");
        }
    }
}
