//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```sh
//! cargo run --release -p dhp-bench --bin experiments -- all
//! cargo run --release -p dhp-bench --bin experiments -- fig3-left --full
//! ```
//!
//! Without `--full`, a scaled-down size ladder is used (200, 1 000,
//! 2 000 and 4 000 tasks; see `sizes`) so the whole suite completes in
//! minutes on a laptop; `--full` uses the paper's task counts (200 …
//! 30 000). The tables print to stdout; persisting them is ROADMAP
//! item E.

use dhp_bench::report::{num, pct, print_table, secs};
use dhp_bench::runner::{aggregate_absolute, aggregate_relative_pct, run_suite, Outcome};
use dhp_core::fitting::scale_cluster_with_headroom;
use dhp_core::prelude::*;
use dhp_platform::{configs, Cluster, ClusterKind, ClusterSize, MachineKind};
use dhp_wfgen::{Family, SizeClass, WorkflowInstance};

#[derive(Clone, Debug, PartialEq)]
struct Opts {
    full: bool,
    seed: u64,
}

/// Memoises suite runs across experiments within one invocation (running
/// `all` reuses the default-cluster sweep for Figs. 3, 5, 6, 8, 9 and
/// Table 4 instead of recomputing it six times).
struct Ctx {
    opts: Opts,
    cache: std::cell::RefCell<std::collections::HashMap<String, Vec<Outcome>>>,
}

impl Ctx {
    fn suite_on(&self, key: &str, cluster: &Cluster, insts: &[WorkflowInstance]) -> Vec<Outcome> {
        if let Some(hit) = self.cache.borrow().get(key) {
            return hit.clone();
        }
        let out = run_suite(insts, cluster);
        self.cache.borrow_mut().insert(key.to_string(), out.clone());
        out
    }
}

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Invocation {
    /// Print the usage text (`help`, or no experiment named).
    Help,
    /// Run these experiments, in order.
    Run(Opts, Vec<&'static str>),
}

/// Parses the arguments after the program name. An unknown experiment
/// or flag, and a `--seed` without a valid value, are usage errors.
fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut opts = Opts {
        full: false,
        seed: 42,
    };
    let (mut seeded, mut help, mut all) = (false, false, false);
    let mut cmds = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => opts.full = true,
            "--seed" if seeded => return Err("--seed given twice".into()),
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value}: not a non-negative integer"))?;
                seeded = true;
            }
            "help" => help = true,
            "all" => all = true,
            name => match ALL_EXPERIMENTS.iter().find(|&&e| e == name) {
                Some(&e) => cmds.push(e),
                None if name.starts_with('-') => return Err(format!("unknown flag: {name}")),
                None => return Err(format!("unknown experiment: {name}")),
            },
        }
    }
    if all {
        cmds = ALL_EXPERIMENTS.to_vec();
    }
    Ok(if help || cmds.is_empty() {
        Invocation::Help
    } else {
        Invocation::Run(opts, cmds)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, cmds) = match parse_args(&args) {
        Ok(Invocation::Help) => {
            print_help();
            return;
        }
        Ok(Invocation::Run(opts, cmds)) => (opts, cmds),
        Err(e) => {
            eprintln!("experiments: {e} (try `help`)");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        opts,
        cache: Default::default(),
    };
    for cmd in cmds {
        match cmd {
            "table2" => table2(),
            "table3" => table3(),
            "fig3-left" => fig3_left(&ctx),
            "fig3-right" => fig3_right(&ctx),
            "fig4" => fig4(&ctx),
            "fig5" => fig5(&ctx),
            "fig6" => fig6(&ctx),
            "fig7" => fig7(&ctx),
            "wu-x4" => wu_x4(&ctx),
            "fig8" => fig8_9_table4(&ctx, Timing::RelativePerWorkflow),
            "fig9" => fig8_9_table4(&ctx, Timing::AbsolutePerType),
            "table4" => fig8_9_table4(&ctx, Timing::SummaryTable),
            "sched-success" => sched_success(&ctx),
            "ablate-kprime" => ablate_kprime(&ctx),
            "ablate-step4" => ablate_step4(&ctx),
            "ablate-triple-merge" => ablate_triple_merge(&ctx),
            "ablate-traversal" => ablate_traversal(&ctx),
            "heft-motivation" => heft_motivation(&ctx),
            "sim-validation" => sim_validation(&ctx),
            "het-links" => het_links(&ctx),
            "exact-gap" => exact_gap(&ctx),
            "step-trace" => step_trace(&ctx),
            "ablate-partitioner" => ablate_partitioner(&ctx),
            other => unreachable!("`parse_args` accepts no experiment named {other}"),
        }
    }
}

const ALL_EXPERIMENTS: [&str; 23] = [
    "table2",
    "table3",
    "fig3-left",
    "fig3-right",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "wu-x4",
    "fig8",
    "fig9",
    "table4",
    "sched-success",
    "ablate-kprime",
    "ablate-step4",
    "ablate-triple-merge",
    "ablate-traversal",
    "heft-motivation",
    "sim-validation",
    "het-links",
    "exact-gap",
    "step-trace",
    "ablate-partitioner",
];

fn print_help() {
    println!("experiments — regenerate the paper's tables and figures\n");
    println!("usage: experiments [--full] [--seed N] <experiment>...\n");
    println!("experiments: {}", ALL_EXPERIMENTS.join(", "));
    println!("             all (runs everything)");
}

/// The simulated size ladder: scaled-down by default, paper sizes with
/// `--full`.
fn sizes(opts: &Opts) -> Vec<usize> {
    if opts.full {
        dhp_wfgen::PAPER_SIZES.to_vec()
    } else {
        vec![200, 1_000, 2_000, 4_000]
    }
}

/// Size classes for the scaled-down ladder (the paper thresholds would
/// put every scaled instance into "small"): up to 1 000 tasks is small,
/// up to 2 000 mid, larger big. Recording the ladder next to the tables
/// it produced is ROADMAP item E.
fn scaled_class(n: usize) -> SizeClass {
    if n <= 1_000 {
        SizeClass::Small
    } else if n <= 2_000 {
        SizeClass::Mid
    } else {
        SizeClass::Big
    }
}

/// All simulated + real-world instances.
fn instances(opts: &Opts) -> Vec<WorkflowInstance> {
    let mut all = dhp_wfgen::simulated_suite(&sizes(opts), opts.seed);
    if !opts.full {
        for inst in &mut all {
            inst.size_class = scaled_class(inst.requested_size);
        }
    }
    all.extend(dhp_wfgen::real_world_suite(opts.seed));
    all
}

fn by_class(outcomes: &[Outcome]) -> Vec<(SizeClass, Vec<&Outcome>)> {
    [
        SizeClass::Real,
        SizeClass::Small,
        SizeClass::Mid,
        SizeClass::Big,
    ]
    .into_iter()
    .map(|c| {
        (
            c,
            outcomes
                .iter()
                .filter(|o| o.size_class == c)
                .collect::<Vec<_>>(),
        )
    })
    .filter(|(_, v)| !v.is_empty())
    .collect()
}

fn cloned(v: &[&Outcome]) -> Vec<Outcome> {
    v.iter().map(|o| (*o).clone()).collect()
}

// ---------------------------------------------------------------- tables 2/3

fn table2() {
    let rows: Vec<Vec<String>> = MachineKind::ALL
        .iter()
        .map(|mk| {
            let (s, m) = mk.default_spec();
            vec![mk.name().into(), format!("{s}"), format!("{m}")]
        })
        .collect();
    print_table(
        "Table 2 — cluster configuration (default)",
        &["Processor", "CPU speed", "Memory size"],
        &rows,
    );
}

fn table3() {
    let rows: Vec<Vec<String>> = MachineKind::ALL
        .iter()
        .map(|mk| {
            let (ms, mm) = mk.more_het_spec();
            let (ls, lm) = mk.less_het_spec();
            vec![
                format!("{}*", mk.name()),
                format!("{ms}"),
                format!("{mm}"),
                format!("{}'", mk.name()),
                format!("{ls}"),
                format!("{lm}"),
            ]
        })
        .collect();
    print_table(
        "Table 3 — clusters with more (left) or less (right) heterogeneity",
        &["MoreHet", "Speed", "Memory", "LessHet", "Speed", "Memory"],
        &rows,
    );
}

// ------------------------------------------------------------------- fig 3

fn fig3_left(ctx: &Ctx) {
    let opts = &ctx.opts;
    let outcomes = ctx.suite_on("default", &configs::default_cluster(), &instances(opts));
    let rows: Vec<Vec<String>> = by_class(&outcomes)
        .into_iter()
        .map(|(class, v)| {
            let rel = aggregate_relative_pct(&cloned(&v));
            let factor = rel.map(|r| 100.0 / r);
            vec![
                class.name().into(),
                format!("{}", v.len()),
                pct(rel),
                num(factor),
            ]
        })
        .collect();
    print_table(
        "Fig. 3 (left) — relative makespan of DagHetPart vs DagHetMem, default cluster",
        &[
            "workflow type",
            "instances",
            "relative makespan",
            "improvement x",
        ],
        &rows,
    );
}

fn fig3_right(ctx: &Ctx) {
    let opts = &ctx.opts;
    let insts = instances(opts);
    let mut rows = Vec::new();
    for size in ClusterSize::ALL {
        let cluster = configs::cluster(ClusterKind::Default, size);
        let key = if size == ClusterSize::Default {
            "default".to_string()
        } else {
            format!("default-{}", size.total())
        };
        let outcomes = ctx.suite_on(&key, &cluster, &insts);
        for (class, v) in by_class(&outcomes) {
            rows.push(vec![
                format!("{}", size.total()),
                class.name().into(),
                pct(aggregate_relative_pct(&cloned(&v))),
            ]);
        }
    }
    print_table(
        "Fig. 3 (right) — relative makespan by cluster size (number of CPUs)",
        &["CPUs", "workflow type", "relative makespan"],
        &rows,
    );
}

// ------------------------------------------------------------------- fig 4

fn fig4(ctx: &Ctx) {
    let opts = &ctx.opts;
    let insts = instances(opts);
    let mut rows = Vec::new();
    for kind in ClusterKind::ALL {
        let cluster = configs::cluster(kind, ClusterSize::Default);
        let key = if kind == ClusterKind::Default {
            "default".to_string()
        } else {
            format!("het-{}", kind.name())
        };
        let outcomes = ctx.suite_on(&key, &cluster, &insts);
        for (class, v) in by_class(&outcomes) {
            rows.push(vec![
                kind.name().into(),
                class.name().into(),
                pct(aggregate_relative_pct(&cloned(&v))),
                num(aggregate_absolute(&cloned(&v))),
            ]);
        }
    }
    print_table(
        "Fig. 4 — relative (left) and absolute (right) makespan by heterogeneity level",
        &[
            "cluster",
            "workflow type",
            "relative makespan",
            "absolute makespan (geo-mean)",
        ],
        &rows,
    );
}

// ---------------------------------------------------------------- fig 5 / 6

fn per_family_series(ctx: &Ctx, absolute: bool) -> Vec<Vec<String>> {
    let opts = &ctx.opts;
    // Reuse the full default-cluster sweep; real-world rows are ignored
    // by the per-family filter below.
    let outcomes = ctx.suite_on("default", &configs::default_cluster(), &instances(opts));
    let mut rows = Vec::new();
    for family in Family::ALL {
        for o in outcomes.iter().filter(|o| o.family == family.name()) {
            let value = if absolute {
                num(o.part.as_ref().map(|p| p.makespan))
            } else {
                pct(o.relative_pct())
            };
            rows.push(vec![family.name().into(), format!("{}", o.tasks), value]);
        }
    }
    rows
}

fn fig5(ctx: &Ctx) {
    print_table(
        "Fig. 5 — relative makespan per workflow family vs size",
        &["family", "tasks", "relative makespan"],
        &per_family_series(ctx, false),
    );
}

fn fig6(ctx: &Ctx) {
    print_table(
        "Fig. 6 — absolute DagHetPart makespan per workflow family vs size",
        &["family", "tasks", "absolute makespan"],
        &per_family_series(ctx, true),
    );
}

// ------------------------------------------------------------------- fig 7

fn fig7(ctx: &Ctx) {
    let opts = &ctx.opts;
    let insts = instances(opts);
    let betas = [0.1, 0.5, 1.0, 2.0, 5.0];
    let mut rows = Vec::new();
    for beta in betas {
        let cluster = configs::default_cluster().with_bandwidth(beta);
        let key = if beta == 1.0 {
            "default".to_string()
        } else {
            format!("beta-{beta}")
        };
        let outcomes = ctx.suite_on(&key, &cluster, &insts);
        for (class, v) in by_class(&outcomes) {
            rows.push(vec![
                format!("{beta}"),
                class.name().into(),
                pct(aggregate_relative_pct(&cloned(&v))),
            ]);
        }
    }
    print_table(
        "Fig. 7 — relative makespan as a function of bandwidth β",
        &["β", "workflow type", "relative makespan"],
        &rows,
    );
}

// ----------------------------------------------------------------- §5.2.4

fn wu_x4(ctx: &Ctx) {
    let opts = &ctx.opts;
    let cluster = configs::default_cluster();
    let mut rows = Vec::new();
    let normal = ctx.suite_on("default", &cluster, &instances(opts));
    let scaled: Vec<WorkflowInstance> = instances(opts)
        .into_iter()
        .map(|mut i| {
            i.scale_work(4.0);
            i
        })
        .collect();
    let heavy = run_suite(&scaled, &cluster);
    for ((class, v1), (_, v2)) in by_class(&normal).into_iter().zip(by_class(&heavy)) {
        rows.push(vec![
            class.name().into(),
            pct(aggregate_relative_pct(&cloned(&v1))),
            pct(aggregate_relative_pct(&cloned(&v2))),
        ]);
    }
    print_table(
        "§5.2.4 — impact of 4x computational demand on the relative makespan",
        &["workflow type", "normal w_u", "4x w_u"],
        &rows,
    );
}

// -------------------------------------------------------- fig 8 / 9 / table4

enum Timing {
    RelativePerWorkflow,
    AbsolutePerType,
    SummaryTable,
}

fn fig8_9_table4(ctx: &Ctx, mode: Timing) {
    let opts = &ctx.opts;
    let outcomes = ctx.suite_on("default", &configs::default_cluster(), &instances(opts));
    match mode {
        Timing::RelativePerWorkflow => {
            let rows: Vec<Vec<String>> = outcomes
                .iter()
                .map(|o| {
                    vec![
                        o.name.clone(),
                        format!("{}", o.tasks),
                        num(o.relative_runtime()),
                    ]
                })
                .collect();
            print_table(
                "Fig. 8 — running time of DagHetPart relative to DagHetMem, per workflow",
                &["workflow", "tasks", "relative runtime"],
                &rows,
            );
        }
        Timing::AbsolutePerType => {
            let rows: Vec<Vec<String>> = outcomes
                .iter()
                .map(|o| {
                    vec![
                        o.size_class.name().into(),
                        o.name.clone(),
                        secs(o.part.as_ref().map(|p| p.time.as_secs_f64())),
                        secs(o.mem.as_ref().map(|m| m.time.as_secs_f64())),
                    ]
                })
                .collect();
            print_table(
                "Fig. 9 — absolute running times (log-scale in the paper)",
                &["type", "workflow", "DagHetPart", "DagHetMem"],
                &rows,
            );
        }
        Timing::SummaryTable => {
            let rows: Vec<Vec<String>> = by_class(&outcomes)
                .into_iter()
                .map(|(class, v)| {
                    let rel: Vec<f64> = v.iter().filter_map(|o| o.relative_runtime()).collect();
                    let abs: Vec<f64> = v
                        .iter()
                        .filter_map(|o| o.part.as_ref().map(|p| p.time.as_secs_f64()))
                        .collect();
                    let mean = |xs: &[f64]| {
                        if xs.is_empty() {
                            None
                        } else {
                            Some(xs.iter().sum::<f64>() / xs.len() as f64)
                        }
                    };
                    vec![class.name().into(), num(mean(&rel)), secs(mean(&abs))]
                })
                .collect();
            print_table(
                "Table 4 — relative and absolute running times of DagHetPart",
                &[
                    "workflow set",
                    "avg relative runtime",
                    "avg absolute runtime",
                ],
                &rows,
            );
        }
    }
}

// --------------------------------------------------------------- §5.2.1/2

fn sched_success(ctx: &Ctx) {
    let opts = &ctx.opts;
    let insts = instances(opts);
    let mut rows = Vec::new();
    for size in ClusterSize::ALL {
        let cluster = configs::cluster(ClusterKind::Default, size);
        let key = if size == ClusterSize::Default {
            "default".to_string()
        } else {
            format!("default-{}", size.total())
        };
        let outcomes = ctx.suite_on(&key, &cluster, &insts);
        for (class, v) in by_class(&outcomes) {
            let part_ok = v.iter().filter(|o| o.part.is_some()).count();
            let mem_ok = v.iter().filter(|o| o.mem.is_some()).count();
            rows.push(vec![
                format!("{}", size.total()),
                class.name().into(),
                format!("{part_ok}/{}", v.len()),
                format!("{mem_ok}/{}", v.len()),
            ]);
        }
    }
    print_table(
        "§5.2.1–5.2.2 — schedulable workflows per cluster size",
        &["CPUs", "workflow type", "DagHetPart", "DagHetMem"],
        &rows,
    );
}

// -------------------------------------------------------------- ablations

fn ablation_suite(opts: &Opts) -> Vec<WorkflowInstance> {
    let sizes = if opts.full {
        vec![1_000, 4_000, 10_000]
    } else {
        vec![500, 2_000]
    };
    dhp_wfgen::simulated_suite(&sizes, opts.seed)
}

fn run_with_cfg(insts: &[WorkflowInstance], cfg: &DagHetPartConfig) -> (usize, Option<f64>) {
    let cluster = configs::default_cluster();
    let mut makespans = Vec::new();
    let mut solved = 0;
    for inst in insts {
        let c = scale_cluster_with_headroom(&inst.graph, &cluster, 1.05);
        if let Ok(r) = dag_het_part(&inst.graph, &c, cfg) {
            solved += 1;
            makespans.push(r.makespan);
        }
    }
    let gm = if makespans.is_empty() {
        None
    } else {
        Some(dhp_core::metrics::geometric_mean(&makespans))
    };
    (solved, gm)
}

fn ablate_kprime(ctx: &Ctx) {
    let opts = &ctx.opts;
    use dhp_core::daghetpart::KprimeMode;
    let insts = ablation_suite(opts);
    let sweep = run_with_cfg(&insts, &DagHetPartConfig::default());
    let fixed = run_with_cfg(
        &insts,
        &DagHetPartConfig {
            kprime: KprimeMode::Fixed(36),
            ..Default::default()
        },
    );
    print_table(
        "Ablation — k' sweep (paper default) vs fixed k' = k",
        &["variant", "solved", "geo-mean makespan"],
        &[
            vec![
                "sweep k'=1..k".into(),
                format!("{}/{}", sweep.0, insts.len()),
                num(sweep.1),
            ],
            vec![
                "fixed k'=36".into(),
                format!("{}/{}", fixed.0, insts.len()),
                num(fixed.1),
            ],
        ],
    );
}

fn ablate_step4(ctx: &Ctx) {
    let opts = &ctx.opts;
    let insts = ablation_suite(opts);
    let variants = [
        ("full step 4", true, true),
        ("no swaps", false, true),
        ("no idle moves", true, false),
        ("no step 4", false, false),
    ];
    let rows: Vec<Vec<String>> = variants
        .iter()
        .map(|(name, swaps, idle)| {
            let (solved, gm) = run_with_cfg(
                &insts,
                &DagHetPartConfig {
                    enable_swaps: *swaps,
                    enable_idle_moves: *idle,
                    ..Default::default()
                },
            );
            vec![(*name).into(), format!("{solved}/{}", insts.len()), num(gm)]
        })
        .collect();
    print_table(
        "Ablation — Step 4 components",
        &["variant", "solved", "geo-mean makespan"],
        &rows,
    );
}

fn ablate_triple_merge(ctx: &Ctx) {
    let opts = &ctx.opts;
    let insts = ablation_suite(opts);
    let rows: Vec<Vec<String>> = [("with 2-cycle repair", true), ("without", false)]
        .iter()
        .map(|(name, on)| {
            let (solved, gm) = run_with_cfg(
                &insts,
                &DagHetPartConfig {
                    enable_triple_merge: *on,
                    ..Default::default()
                },
            );
            vec![(*name).into(), format!("{solved}/{}", insts.len()), num(gm)]
        })
        .collect();
    print_table(
        "Ablation — Step 3 triple-merge (2-cycle repair)",
        &["variant", "solved", "geo-mean makespan"],
        &rows,
    );
}

fn ablate_traversal(ctx: &Ctx) {
    let opts = &ctx.opts;
    // Traversal quality: peak memory of the plain topological order vs
    // the memory-greedy and SP-guided strategies, per family.
    let mut rows = Vec::new();
    for family in Family::ALL {
        let inst =
            WorkflowInstance::simulated(family, if opts.full { 4_000 } else { 1_000 }, opts.seed);
        let g = &inst.graph;
        let ext = vec![0.0; g.node_count()];
        let topo = dhp_dag::topo::topo_sort(g).unwrap();
        let topo_peak = dhp_memdag::liveness::traversal_peak(g, &ext, &topo);
        let greedy = dhp_memdag::greedy::greedy_order(g, &ext);
        let greedy_peak = dhp_memdag::liveness::traversal_peak(g, &ext, &greedy);
        let sp = dhp_memdag::sptraversal::sp_order(g, &ext);
        let sp_peak = dhp_memdag::liveness::traversal_peak(g, &ext, &sp);
        rows.push(vec![
            inst.name,
            num(Some(topo_peak)),
            num(Some(greedy_peak)),
            num(Some(sp_peak)),
            format!("{:.2}", topo_peak / greedy_peak.min(sp_peak)),
        ]);
    }
    print_table(
        "Ablation — traversal strategies (peak memory; lower is better)",
        &[
            "workflow",
            "plain topo",
            "memory-greedy",
            "SP-guided",
            "best gain x",
        ],
        &rows,
    );
}

// ------------------------------------------------------------ extensions

/// Motivation experiment: a memory-oblivious HEFT schedule of the same
/// instances — how often does it overflow the processors' memories, and
/// what makespan does it promise? (Paper §2: makespan-oriented schedulers
/// "do not produce valid solutions for our target problem in general".)
fn heft_motivation(ctx: &Ctx) {
    let opts = &ctx.opts;
    let cluster = configs::default_cluster();
    let mut rows = Vec::new();
    for inst in instances(opts)
        .into_iter()
        .take(if opts.full { 40 } else { 20 })
    {
        let c = scale_cluster_with_headroom(&inst.graph, &cluster, 1.05);
        let schedule = dhp_core::heft::heft(&inst.graph, &c);
        let violations = dhp_core::heft::memory_violations(&inst.graph, &c, &schedule);
        let worst = violations
            .iter()
            .map(|v| v.peak / v.capacity)
            .fold(0.0f64, f64::max);
        let part = dag_het_part(&inst.graph, &c, &DagHetPartConfig::default()).ok();
        rows.push(vec![
            inst.name.clone(),
            num(Some(schedule.makespan)),
            format!("{}", violations.len()),
            if violations.is_empty() {
                "valid".into()
            } else {
                format!("{worst:.1}x over")
            },
            num(part.map(|r| r.makespan)),
        ]);
    }
    print_table(
        "Extension — memory-oblivious HEFT vs DagHetPart (motivation for DAGP-PM)",
        &[
            "workflow",
            "HEFT makespan",
            "overflowing procs",
            "worst overflow",
            "DagHetPart makespan",
        ],
        &rows,
    );
}

/// Model validation: discrete-event simulation of the produced mappings.
/// The analytic bottom-weight makespan must upper-bound the simulated
/// execution (paper §3.3 calls the model an overestimation).
fn sim_validation(ctx: &Ctx) {
    let opts = &ctx.opts;
    let cluster = configs::default_cluster();
    let mut rows = Vec::new();
    for inst in instances(opts) {
        let c = scale_cluster_with_headroom(&inst.graph, &cluster, 1.05);
        let Ok(r) = dag_het_part(&inst.graph, &c, &DagHetPartConfig::default()) else {
            continue;
        };
        let sim = dhp_sim::simulate(&inst.graph, &c, &r.mapping);
        assert!(
            sim.makespan <= r.makespan * (1.0 + 1e-9),
            "{}: simulated {} > analytic {}",
            inst.name,
            sim.makespan,
            r.makespan
        );
        rows.push(vec![
            inst.name.clone(),
            num(Some(r.makespan)),
            num(Some(sim.makespan)),
            format!("{:.1} %", 100.0 * sim.makespan / r.makespan),
        ]);
    }
    print_table(
        "Extension — simulated execution vs analytic makespan bound (lower = looser bound)",
        &["workflow", "analytic bound", "simulated", "sim/analytic"],
        &rows,
    );
}

/// Future-work extension: heterogeneous communication bandwidths. The
/// mapping is computed under the uniform-β model and then *executed*
/// (simulated) under per-processor link speeds; the table shows how much
/// the uniform assumption underestimates real transfers.
fn het_links(ctx: &Ctx) {
    let opts = &ctx.opts;
    let cluster = configs::default_cluster();
    let mut rows = Vec::new();
    for inst in instances(opts)
        .into_iter()
        .take(if opts.full { 40 } else { 15 })
    {
        let c = scale_cluster_with_headroom(&inst.graph, &cluster, 1.05);
        let Ok(r) = dag_het_part(&inst.graph, &c, &DagHetPartConfig::default()) else {
            continue;
        };
        let uniform = dhp_sim::simulate(&inst.graph, &c, &r.mapping);
        // Per-processor link speeds: fast machines get fast links (2β),
        // slow machines β/2 — a plausible future-work scenario.
        let rates: Vec<f64> = c
            .iter()
            .map(|(_, p)| {
                if p.speed >= 16.0 {
                    c.bandwidth * 2.0
                } else {
                    c.bandwidth * 0.5
                }
            })
            .collect();
        let het = dhp_sim::simulate_with_links(
            &inst.graph,
            &c,
            &r.mapping,
            &dhp_sim::LinkModel::PerProcessor(rates),
        );
        rows.push(vec![
            inst.name.clone(),
            num(Some(uniform.makespan)),
            num(Some(het.makespan)),
            format!("{:+.1} %", 100.0 * (het.makespan / uniform.makespan - 1.0)),
        ]);
    }
    print_table(
        "Extension — executing the uniform-β mapping under heterogeneous links",
        &[
            "workflow",
            "simulated (uniform β)",
            "simulated (het links)",
            "impact",
        ],
        &rows,
    );
}

/// Extension — certified optimality gaps on small random instances via
/// the `dhp-exact` branch-and-bound solver (the paper has no optimum to
/// compare against; we do, at n <= 8).
fn exact_gap(ctx: &Ctx) {
    use dhp_exact::{solve, ExactConfig};
    let seeds = if ctx.opts.full { 0..40u64 } else { 0..15u64 };
    let base = configs::default_cluster();
    // A 4-processor slice keeps the assignment search small while
    // retaining speed and memory heterogeneity (one of each kind that
    // matters: luxury, fast-small, slow-big, weak).
    let mini = dhp_platform::Cluster::new(
        [0usize, 6, 12, 24]
            .iter()
            .map(|&i| base.proc(dhp_platform::ProcId(i as u32)).clone())
            .collect(),
        base.bandwidth,
    );
    let mut rows = Vec::new();
    let mut part_gaps = Vec::new();
    let mut mem_gaps = Vec::new();
    for seed in seeds {
        let g = dhp_dag::builder::gnp_dag_weighted(8, 0.3, ctx.opts.seed.wrapping_add(seed));
        let c = scale_cluster_with_headroom(&g, &mini, 1.05);
        let Some(exact) = solve(&g, &c, &ExactConfig::default()).expect("n=8 within limits") else {
            continue;
        };
        let [part, mem] = [Algorithm::DagHetPart, Algorithm::DagHetMem].map(|algorithm| {
            algorithm
                .solve(&g, &c, &DagHetPartConfig::default())
                .map(|r| r.makespan)
                .ok()
        });
        if let Some(p) = part {
            part_gaps.push(p / exact.makespan);
        }
        if let Some(m) = mem {
            mem_gaps.push(m / exact.makespan);
        }
        rows.push(vec![
            format!("gnp-8-{seed}"),
            num(Some(exact.makespan)),
            num(part),
            part.map_or("-".into(), |p| format!("{:.2}x", p / exact.makespan)),
            num(mem),
            mem.map_or("-".into(), |m| format!("{:.2}x", m / exact.makespan)),
        ]);
    }
    let geo = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().product::<f64>().powf(1.0 / v.len() as f64)
        }
    };
    rows.push(vec![
        "geo-mean".into(),
        "-".into(),
        "-".into(),
        format!("{:.2}x", geo(&part_gaps)),
        "-".into(),
        format!("{:.2}x", geo(&mem_gaps)),
    ]);
    print_table(
        "Extension — certified optimality gap on 8-task instances (4-proc heterogeneous slice)",
        &[
            "instance",
            "optimum",
            "DagHetPart",
            "gap",
            "DagHetMem",
            "gap",
        ],
        &rows,
    );
}

/// Extension — contribution of each DagHetPart step to the final
/// makespan, per workflow family (the winning k' of a traced sweep).
fn step_trace(ctx: &Ctx) {
    use dhp_core::daghetpart::dag_het_part_traced;
    let opts = &ctx.opts;
    let n = if opts.full { 2000 } else { 400 };
    let cluster = configs::default_cluster();
    let mut rows = Vec::new();
    for family in dhp_wfgen::Family::ALL {
        let inst = dhp_wfgen::WorkflowInstance::simulated(family, n, opts.seed);
        let c = scale_cluster_with_headroom(&inst.graph, &cluster, 1.05);
        let cfg = DagHetPartConfig {
            parallel: false,
            ..DagHetPartConfig::default()
        };
        let Ok((r, t)) = dag_het_part_traced(&inst.graph, &c, &cfg) else {
            rows.push(vec![
                inst.name.clone(),
                "no solution".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        rows.push(vec![
            inst.name.clone(),
            format!("{}", t.kprime),
            format!(
                "{} -> {} ({} leftover)",
                t.blocks_after_partition, t.blocks_after_assign, t.unassigned_after_assign
            ),
            num(Some(t.after_merge)),
            format!(
                "{} ({:+.1} %)",
                num(Some(t.after_swaps)),
                100.0 * (t.after_swaps / t.after_merge - 1.0)
            ),
            format!(
                "{} ({:+.1} %)",
                num(Some(r.makespan)),
                100.0 * (r.makespan / t.after_merge - 1.0)
            ),
        ]);
    }
    print_table(
        "Extension — per-step contribution (winning k'): Step 3 valid makespan, after Step 4 swaps, final",
        &["workflow", "k'", "blocks (step1 -> step2)", "after merge", "after swaps", "final"],
        &rows,
    );
}

/// Ablation — the paper's §2 claim that undirected partitioners do not
/// transfer to the DAG case: direction-blind partitioning + acyclicity
/// repair vs the native acyclic multilevel pipeline, same k.
fn ablate_partitioner(ctx: &Ctx) {
    use dhp_dagp::{partition, undirected, PartitionConfig};
    let opts = &ctx.opts;
    let n = if opts.full { 2000 } else { 1000 };
    let k = 16;
    let mut rows = Vec::new();
    for family in dhp_wfgen::Family::ALL {
        let inst = dhp_wfgen::WorkflowInstance::simulated(family, n, opts.seed);
        let g = &inst.graph;
        let cfg = PartitionConfig {
            seed: opts.seed,
            ..PartitionConfig::default()
        };
        let native = partition(g, k, &cfg);
        let und = undirected::partition_undirected(g, k, &cfg);
        let cut_native = undirected::cut_of(g, &native);
        let cut_und = undirected::cut_of(g, &und);
        // Estimated makespan with unit speeds (partition quality proxy
        // before any platform decisions).
        let est = |p: &dhp_dag::Partition| dhp_dag::FlatQuotient::build(g, p).makespan(1.0);
        rows.push(vec![
            inst.name.clone(),
            format!("{} / {}", native.num_blocks(), und.num_blocks()),
            num(Some(cut_native)),
            num(Some(cut_und)),
            format!("{:.2}x", cut_und / cut_native.max(1e-12)),
            num(Some(est(&native))),
            num(Some(est(&und))),
        ]);
    }
    print_table(
        "Ablation — native acyclic partitioner vs undirected + repair (k = 16)",
        &[
            "workflow",
            "blocks (native/und.)",
            "cut native",
            "cut und.+repair",
            "cut ratio",
            "est. makespan native",
            "est. makespan und.",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Invocation, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn an_unknown_experiment_is_a_usage_error() {
        let err = parse("table2 nosuch").unwrap_err();
        assert!(err.contains("unknown experiment: nosuch"), "{err}");
        assert!(parse("--fast table2").unwrap_err().contains("unknown flag"));
    }

    #[test]
    fn a_seed_that_is_not_a_number_is_a_usage_error() {
        let err = parse("--seed abc table2").unwrap_err();
        assert!(err.contains("--seed abc"), "{err}");
        assert!(parse("--seed -3 table2").is_err());
        assert!(parse("--seed 1 --seed 2 table2").is_err());
    }

    #[test]
    fn a_seed_without_a_value_is_a_usage_error() {
        assert_eq!(parse("table2 --seed"), Err("--seed needs a value".into()));
    }

    #[test]
    fn valid_lines_parse_as_before() {
        let run = |full, seed, cmds: &[&'static str]| {
            Ok(Invocation::Run(Opts { full, seed }, cmds.to_vec()))
        };
        assert_eq!(parse("table2 fig4"), run(false, 42, &["table2", "fig4"]));
        assert_eq!(parse("--full --seed 7 table3"), run(true, 7, &["table3"]));
        assert_eq!(parse("table2 all"), run(false, 42, &ALL_EXPERIMENTS));
        assert_eq!(parse(""), Ok(Invocation::Help));
        assert_eq!(parse("--full"), Ok(Invocation::Help));
        assert_eq!(parse("table2 help"), Ok(Invocation::Help));
    }
}
