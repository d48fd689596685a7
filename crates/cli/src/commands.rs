//! Subcommand implementations.

use crate::args::Args;
use crate::report::ScheduleReport;
use crate::spec::{resolve_cluster, ClusterSpec};
use dhp_core::fitting::{every_task_fits, scale_cluster_with_headroom};
use dhp_core::prelude::*;
use dhp_platform::configs;
use dhp_wfgen::wfcommons::{self, ImportConfig};
use dhp_wfgen::{Family, SizeClass, WorkflowInstance};

/// Usage text for `--help` and errors.
pub const USAGE: &str = "\
daghetpart — memory-constrained workflow mapping onto heterogeneous clusters

USAGE:
  daghetpart schedule --workflow FILE [--cluster NAME|FILE] [options]
  daghetpart generate --family NAME --tasks N [--seed N] [--format wfcommons|dot]
  daghetpart inspect  --workflow FILE
  daghetpart queue    [--workflows N] [--policy NAME] [options]   (alias: serve)
  daghetpart cluster-template

SCHEDULE OPTIONS:
  --workflow FILE       workflow in WfCommons JSON (.json) or GraphViz DOT (.dot)
  --cluster NAME|FILE   default|small|large|morehet|lesshet|nohet or a JSON
                        cluster file (default: default)
  --algorithm NAME      daghetpart|daghetmem (default: daghetpart)
  --bandwidth B         override the cluster bandwidth β
  --headroom H          scale processor memories so the hottest task fits
                        with headroom H (default 1.05; 0 disables scaling)
  --simulate            also run the discrete-event simulator
  --gantt               append an ASCII per-processor timeline (implies
                        --simulate)
  --output FILE         write the JSON report to FILE instead of stdout
  --quiet               with --output: print nothing on success

GENERATE OPTIONS:
  --family NAME         genome|blast|bwa|epigenomics|montage|seismology|soykb
  --tasks N             approximate task count
  --seed N              RNG seed (default 42)
  --format FMT          wfcommons (default) or dot
  --output FILE         write the workflow to FILE instead of stdout

QUEUE OPTIONS (online co-scheduling of a workflow stream):
  --workflows N         number of submissions (default 20)
  --families LIST       comma-separated families to cycle (default
                        blast,seismology,genome)
  --tasks LO-HI         per-workflow task count range (default 20-60)
  --unique K            cycle K >= 1 distinct instances over the N
                        submissions (repeat-heavy traffic; omit for all
                        distinct)
  --process NAME        poisson (default) | uniform | burst
  --rate R              Poisson arrival rate (default 0.05)
  --interval T          uniform inter-arrival spacing (default 10)
  --policy NAME         fifo (default) | fifo-backfill | easy-backfill |
                        shortest | memfit (easy-backfill reserves for the
                        blocked head once per event and lets backfills run
                        past the reservation on processors the head does
                        not need)
  --elastic T           elastic lease growth: when a completion leaves
                        processors idle with fewer than T >= 1 workflows
                        queued, grow the running workflow with the most
                        unstarted work (its suffix is re-solved on the
                        grown lease; T=1 grows only on an empty queue)
  --elastic-shrink T    elastic lease shrinking, the dual: when T >= 1 or
                        more workflows are queued, reclaim processors from
                        the running workflow with the most unstarted work
                        (its suffix is re-solved on the reduced lease) so
                        admission can use them; never delays a blocked
                        head's backfill reservation
  --algorithm NAME      daghetpart (default) | daghetmem
  --lease-tasks N       target tasks per leased processor (default 25)
  --min-procs N         lease size lower bound (default 1)
  --max-procs N         lease size upper bound (default unbounded)
  --lease-load-aware    shrink lease targets as the admission queue grows
                        (bursts parallelise instead of serialising)
  --no-solve-cache      disable the content-addressed solve cache (every
                        admission probe pays a fresh solver run; scheduling
                        outcome is identical, only the solver statistics in
                        the report change)
  --cache-cap N         bound the solve cache to an LRU capacity of N
                        entries (evictions are counted in the report);
                        default unbounded
  --cache-file PATH     durable warm start: restore the solve cache from
                        PATH before the run and rewrite it crash-safely
                        (temp file + fsync + atomic rename) at exit; a
                        missing file is a silent cold start, a corrupt or
                        mismatched one degrades to a cold start with a
                        `recovery` note in the report
  --autosave N          with --cache-file: additionally rewrite the
                        snapshot every N clock steps (single cluster or
                        federation), bounding what a crash can lose
  --cluster NAME|FILE   shared cluster (default: default)
  --clusters LIST       serve a *federation*: comma-separated cluster
                        names/files, one engine per member, a shared solve
                        cache, cross-cluster spillover, and a merged
                        fleet report (mutually exclusive with --cluster)
  --routing NAME        federation routing: round-robin | least-loaded
                        (default) | best-fit (requires --clusters)
  --chaos FILE          membership plan (JSON): time-ordered drain / fail /
                        join events merged into the federated clock
                        (requires --clusters)
  --failure-mode NAME   requeue | lost — fills in `mode` for fail events
                        that omit it (requires --chaos)
  --bandwidth B         override the cluster bandwidth
  --headroom H          fleet-wide memory scaling so the hottest task of
                        the stream fits (default 1.05; 0 disables)
  --seed N              stream RNG seed (default 42)
  --summary             print a text summary instead of the JSON report
  --output FILE         write the report to FILE
";

/// Loads a workflow from a `.json` (WfCommons) or `.dot` file.
fn load_workflow(path: &str) -> Result<WorkflowInstance, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string());
    if path.ends_with(".dot") || text.trim_start().starts_with("digraph") {
        let graph = dhp_dag::dot::from_dot(&text).map_err(|e| format!("{path}: {e}"))?;
        let n = graph.node_count();
        Ok(WorkflowInstance {
            name,
            family: None,
            size_class: if n < 200 {
                SizeClass::Real
            } else {
                SizeClass::of_size(n)
            },
            requested_size: n,
            graph: graph.into(),
        })
    } else {
        wfcommons::from_json(&text, &ImportConfig::default()).map_err(|e| format!("{path}: {e}"))
    }
}

/// `daghetpart schedule`.
pub fn schedule(args: &Args) -> Result<String, String> {
    let inst = load_workflow(args.require("workflow")?)?;
    let mut cluster = resolve_cluster(args.get_or("cluster", "default"))?;
    if args.get("bandwidth").is_some() {
        let beta = args.get_f64("bandwidth", 0.0)?;
        if beta <= 0.0 {
            return Err("--bandwidth must be positive".into());
        }
        cluster = cluster.with_bandwidth(beta);
    }
    let headroom = args.get_f64("headroom", 1.05)?;
    if headroom != 0.0 {
        if headroom < 1.0 {
            return Err("--headroom must be >= 1 (or 0 to disable)".into());
        }
        cluster = scale_cluster_with_headroom(&inst.graph, &cluster, headroom);
    } else if !every_task_fits(&inst.graph, &cluster) {
        return Err(
            "a task exceeds every processor memory; enlarge the cluster or use --headroom".into(),
        );
    }

    let algorithm = parse_algorithm(args)?;
    let MappingResult {
        mapping, makespan, ..
    } = algorithm
        .solve(&inst.graph, &cluster, &DagHetPartConfig::default())
        .map_err(|e| e.to_string())?;
    validate(&inst.graph, &cluster, &mapping)
        .map_err(|e| format!("internal error: produced mapping invalid: {e}"))?;

    let name = algorithm.name();
    let mut report =
        ScheduleReport::new(&inst.name, name, &inst.graph, &cluster, &mapping, makespan);
    let mut gantt = String::new();
    if args.switch("simulate") || args.switch("gantt") {
        let sim = dhp_sim::simulate(&inst.graph, &cluster, &mapping);
        report.simulated_makespan = Some(sim.makespan);
        if args.switch("gantt") {
            let tl = dhp_sim::timeline(&inst.graph, &cluster, &mapping, &sim);
            gantt = format!(
                "\n{}mean utilisation {:.1}%\n",
                tl.render(72),
                100.0 * tl.mean_utilisation()
            );
        }
    }
    let json = report
        .to_json()
        .map_err(|e| format!("cannot serialise the report: {e}"))?;
    if let Some(out) = args.get("output") {
        std::fs::write(out, &json).map_err(|e| format!("cannot write {out:?}: {e}"))?;
        if args.switch("quiet") {
            return Ok(String::new());
        }
        return Ok(format!(
            "wrote {out}: {} tasks in {} blocks, makespan {:.3}{gantt}",
            report.tasks, report.blocks, report.makespan
        ));
    }
    Ok(format!("{json}{gantt}"))
}

/// `daghetpart generate`.
pub fn generate(args: &Args) -> Result<String, String> {
    let family = parse_family(args.require("family")?)?;
    let tasks = args.get_usize("tasks", 200)?;
    if tasks == 0 {
        return Err("--tasks must be positive".into());
    }
    let seed = args.get_usize("seed", 42)? as u64;
    let inst = WorkflowInstance::simulated(family, tasks, seed);
    let text = match args.get_or("format", "wfcommons") {
        "wfcommons" => wfcommons::to_json(&inst, wfcommons::GIB)
            .map_err(|e| format!("cannot serialise the workflow: {e}"))?,
        "dot" => dhp_dag::dot::to_dot(&inst.graph, &inst.name),
        other => return Err(format!("unknown --format {other:?}")),
    };
    if let Some(out) = args.get("output") {
        std::fs::write(out, &text).map_err(|e| format!("cannot write {out:?}: {e}"))?;
        return Ok(format!("wrote {out}: {} tasks", inst.graph.node_count()));
    }
    Ok(text)
}

/// `daghetpart inspect`.
pub fn inspect(args: &Args) -> Result<String, String> {
    let inst = load_workflow(args.require("workflow")?)?;
    let g = &inst.graph;
    let depth = dhp_dag::topo::topo_levels(g)
        .ok_or("workflow is cyclic")?
        .into_iter()
        .max()
        .map_or(0, |d| d + 1);
    let max_req = g
        .node_ids()
        .map(|u| g.task_requirement(u))
        .fold(0.0f64, f64::max);
    let max_out = g.node_ids().map(|u| g.out_degree(u)).max().unwrap_or(0);
    Ok(format!(
        "workflow       {}\n\
         tasks          {}\n\
         edges          {}\n\
         sources        {}\n\
         targets        {}\n\
         levels (depth) {}\n\
         max fan-out    {}\n\
         total work     {:.3}\n\
         total memory   {:.3}\n\
         total volume   {:.3}\n\
         hottest task r {:.3}\n\
         size class     {}",
        inst.name,
        g.node_count(),
        g.edge_count(),
        g.sources().count(),
        g.targets().count(),
        depth,
        max_out,
        g.total_work(),
        g.total_memory(),
        g.total_volume(),
        max_req,
        inst.size_class.name(),
    ))
}

/// `daghetpart cluster-template`: the default cluster as a JSON file.
pub fn cluster_template() -> Result<String, String> {
    serde_json::to_string_pretty(&ClusterSpec::from_cluster(&configs::default_cluster()))
        .map_err(|e| format!("cannot serialise the cluster template: {e}"))
}

/// The `--algorithm` of `schedule` and `queue` (default DagHetPart).
pub(crate) fn parse_algorithm(args: &Args) -> Result<Algorithm, String> {
    let name = args.get_or("algorithm", "daghetpart");
    Algorithm::parse(name)
        .ok_or_else(|| format!("unknown --algorithm {name:?} (daghetpart|daghetmem)"))
}

fn parse_family(name: &str) -> Result<Family, String> {
    Family::ALL
        .into_iter()
        .find(|f| f.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
            format!("unknown family {name:?}; choose one of {}", names.join("|"))
        })
}

#[cfg(test)]
mod tests {

    use crate::run;
    use crate::tests::Scratch;
    use dhp_core::Algorithm;

    fn cli(line: &str) -> Result<String, String> {
        run(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn generate_then_schedule_wfcommons() {
        let dir = Scratch::new("generate_then_schedule_wfcommons");
        let wf = dir.file("gen.json");
        let msg = cli(&format!(
            "generate --family blast --tasks 200 --seed 7 --output {wf}"
        ))
        .unwrap();
        assert!(msg.contains("tasks"));
        let out = cli(&format!("schedule --workflow {wf} --cluster small")).unwrap();
        let report: crate::report::ScheduleReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.algorithm, "daghetpart");
        assert!(report.makespan > 0.0);
        assert!(report.blocks <= 18);
    }

    #[test]
    fn generate_then_schedule_dot_with_simulation() {
        let dir = Scratch::new("generate_then_schedule_dot_with_simulation");
        let wf = dir.file("gen.dot");
        cli(&format!(
            "generate --family seismology --tasks 200 --format dot --output {wf}"
        ))
        .unwrap();
        let out = cli(&format!(
            "schedule --workflow {wf} --cluster default --simulate"
        ))
        .unwrap();
        let report: crate::report::ScheduleReport = serde_json::from_str(&out).unwrap();
        let sim = report.simulated_makespan.expect("--simulate fills this");
        // §3.3: the analytic makespan over-estimates the execution.
        assert!(sim <= report.makespan * (1.0 + 1e-9));
    }

    #[test]
    fn schedule_with_baseline_algorithm() {
        let dir = Scratch::new("schedule_with_baseline_algorithm");
        let wf = dir.file("base.json");
        cli(&format!(
            "generate --family montage --tasks 200 --output {wf}"
        ))
        .unwrap();
        let part = cli(&format!("schedule --workflow {wf}")).unwrap();
        let mem = cli(&format!("schedule --workflow {wf} --algorithm daghetmem")).unwrap();
        let part: crate::report::ScheduleReport = serde_json::from_str(&part).unwrap();
        let mem: crate::report::ScheduleReport = serde_json::from_str(&mem).unwrap();
        assert!(part.makespan <= mem.makespan * (1.0 + 1e-9));
    }

    #[test]
    fn schedule_and_queue_share_one_algorithm_vocabulary() {
        let dir = Scratch::new("schedule_and_queue_share_one_algorithm_vocabulary");
        let wf = dir.file("algorithm.json");
        cli(&format!("generate --family bwa --tasks 50 --output {wf}")).unwrap();
        let schedule = cli(&format!("schedule --workflow {wf} --algorithm heft")).unwrap_err();
        let queue = cli("queue --workflows 2 --algorithm heft").unwrap_err();
        assert_eq!(schedule, queue);
        assert!(
            schedule.contains("\"heft\"") && schedule.contains("daghetpart|daghetmem"),
            "{schedule}"
        );
        // Every name `Algorithm::parse` accepts runs under both, and
        // the reports name it back.
        for algo in [Algorithm::DagHetPart, Algorithm::DagHetMem] {
            let name = algo.name();
            let out = cli(&format!("schedule --workflow {wf} --algorithm {name}")).unwrap();
            let report: crate::report::ScheduleReport = serde_json::from_str(&out).unwrap();
            assert_eq!(report.algorithm, name);
            let out = cli(&format!(
                "queue --workflows 2 --families blast --tasks 20-30 --process burst \
                 --algorithm {name}"
            ))
            .unwrap();
            let report: dhp_online::ServeReport = serde_json::from_str(&out).unwrap();
            assert_eq!(report.algorithm, name);
        }
    }

    #[test]
    fn inspect_reports_structure() {
        let dir = Scratch::new("inspect_reports_structure");
        let wf = dir.file("inspect.json");
        cli(&format!("generate --family bwa --tasks 200 --output {wf}")).unwrap();
        let out = cli(&format!("inspect --workflow {wf}")).unwrap();
        assert!(out.contains("tasks"));
        assert!(out.contains("max fan-out"));
        assert!(out.contains("small"));
    }

    #[test]
    fn gantt_switch_appends_chart() {
        let dir = Scratch::new("gantt_switch_appends_chart");
        let wf = dir.file("gantt.json");
        cli(&format!(
            "generate --family genome --tasks 200 --output {wf}"
        ))
        .unwrap();
        let out = cli(&format!("schedule --workflow {wf} --cluster small --gantt")).unwrap();
        assert!(out.contains("mean utilisation"));
        assert!(out.contains("time 0"));
        // The JSON part still parses: cut at the first blank line.
        let json_part = out.split("\ntime 0").next().unwrap();
        let report: crate::report::ScheduleReport = serde_json::from_str(json_part).unwrap();
        assert!(report.simulated_makespan.is_some());
    }

    #[test]
    fn cluster_template_is_loadable() {
        let text = cli("cluster-template").unwrap();
        let spec: crate::spec::ClusterSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(spec.build().unwrap().len(), 36);
    }

    #[test]
    fn custom_cluster_file_is_used() {
        let dir = Scratch::new("custom_cluster_file_is_used");
        let cf = dir.file("cluster.json");
        std::fs::write(
            &cf,
            r#"{ "bandwidth": 1.0, "processors": [
                { "name": "fat", "speed": 10, "memory": 500, "count": 2 } ] }"#,
        )
        .unwrap();
        let wf = dir.file("custom.json");
        cli(&format!(
            "generate --family soykb --tasks 200 --output {wf}"
        ))
        .unwrap();
        let out = cli(&format!("schedule --workflow {wf} --cluster {cf}")).unwrap();
        let report: crate::report::ScheduleReport = serde_json::from_str(&out).unwrap();
        assert!(report.blocks <= 2);
        assert!(report.mapping.iter().all(|b| b.processor_kind == "fat"));
    }

    #[test]
    fn bandwidth_override_changes_model() {
        let dir = Scratch::new("bandwidth_override_changes_model");
        let wf = dir.file("beta.json");
        cli(&format!(
            "generate --family blast --tasks 200 --output {wf}"
        ))
        .unwrap();
        let slow = cli(&format!("schedule --workflow {wf} --bandwidth 0.1")).unwrap();
        let fast = cli(&format!("schedule --workflow {wf} --bandwidth 5")).unwrap();
        let slow: crate::report::ScheduleReport = serde_json::from_str(&slow).unwrap();
        let fast: crate::report::ScheduleReport = serde_json::from_str(&fast).unwrap();
        assert!(
            fast.makespan <= slow.makespan * 1.5,
            "β=5 should not be much worse"
        );
    }

    #[test]
    fn schedule_refuses_a_workflow_with_a_hostile_weight() {
        let dir = Scratch::new("schedule_refuses_a_workflow_with_a_hostile_weight");
        let dot = dir.file("nan.dot");
        std::fs::write(
            &dot,
            "digraph g { a [work=NaN]; b [memory=inf]; a -> b [volume=-3]; }",
        )
        .unwrap();
        let err = cli(&format!("schedule --workflow {dot}")).unwrap_err();
        assert!(
            err.contains(&dot) && err.contains(r#"task "a": work=NaN"#),
            "{err}"
        );
        let json = dir.file("negative.json");
        std::fs::write(
            &json,
            r#"{ "name": "neg", "workflow": { "tasks": [
                { "name": "a", "memoryInBytes": -3 } ] } }"#,
        )
        .unwrap();
        let err = cli(&format!("schedule --workflow {json}")).unwrap_err();
        assert!(
            err.contains(&json) && err.contains(r#"task "a": memory"#),
            "{err}"
        );
    }

    #[test]
    fn schedule_rejects_a_non_finite_headroom() {
        let dir = Scratch::new("schedule_rejects_a_non_finite_headroom");
        let wf = dir.file("headroom.json");
        cli(&format!("generate --family blast --tasks 50 --output {wf}")).unwrap();
        for flag in ["headroom", "bandwidth"] {
            for v in ["NaN", "inf", "-inf"] {
                let err = cli(&format!("schedule --workflow {wf} --{flag} {v}")).unwrap_err();
                assert!(
                    err.contains(&format!("--{flag}")) && err.contains("finite"),
                    "--{flag} {v}: {err}"
                );
            }
        }
        // The vendored parser reads `1e999` as infinity; the cluster
        // file is refused with the bandwidth or the processor named.
        let beta = r#"{ "bandwidth": 1e999, "processors": [
            { "name": "fat", "speed": 10, "memory": 500 } ] }"#;
        let memory = r#"{ "processors": [ { "name": "fat", "speed": 10, "memory": 1e999 } ] }"#;
        for (tag, text, named) in [("beta", beta, "bandwidth"), ("memory", memory, "\"fat\"")] {
            let cf = dir.file(&format!("infinite-{tag}.json"));
            std::fs::write(&cf, text).unwrap();
            let err = cli(&format!("schedule --workflow {wf} --cluster {cf}")).unwrap_err();
            assert!(
                err.contains(named) && err.contains("finite"),
                "{tag}: {err}"
            );
        }
    }

    #[test]
    fn helpful_errors() {
        let dir = Scratch::new("helpful_errors");
        assert!(cli("schedule").unwrap_err().contains("--workflow"));
        assert!(cli("frobnicate")
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(cli("generate --family nosuch --tasks 10")
            .unwrap_err()
            .contains("unknown family"));
        assert!(cli("help").unwrap().contains("USAGE"));
        let err = cli("queue --workflows 2 --slow-admission --summary").unwrap_err();
        assert!(err.starts_with("unknown flag --slow-admission") && err.contains("USAGE"));
        let wf = dir.file("err.json");
        cli(&format!("generate --family bwa --tasks 200 --output {wf}")).unwrap();
        assert!(cli(&format!("schedule --workflow {wf} --algorithm magic"))
            .unwrap_err()
            .contains("magic"));
        assert!(cli(&format!("schedule --workflow {wf} --headroom 0.5"))
            .unwrap_err()
            .contains("headroom"));
    }
}
