//! The repository's one repeatable benchmark: five workloads, seven
//! end-to-end metrics, per-layer spans timed from outside the program.
//! See `benchmark/README.md` for what each number means.
//!
//! **Stable-API rule.** This harness must keep compiling as the engine
//! is simplified, so it uses only what is meant to stay: the solver and
//! step functions of `dhp-core`, `dhp_online::{serve_with_cache,
//! serve_federation_with_cache, SolveCache}`, and configs built with
//! `..OnlineConfig::default()` / `DagHetPartConfig::default()`. It must
//! never name the A/B switches and side stores a later clean-up may
//! delete: the fast/slow admission switch, the serial-federation
//! switch, the cache's stripe-count constructors, the HEFT rank tables
//! and rank memo, or the seven report bins of `dhp-bench`.

mod metrics;
mod offline;
mod online;
mod procfs;
mod run;
mod selfcheck;
mod stats;
mod trace;
mod workloads;

use metrics::{end_to_end_units, per_layer_units};
use run::{Run, Shape};
use std::fmt::Write as _;
use std::path::Path;
use workloads::{Workload, WORKLOADS};

/// Seconds one timed repetition is sized to take on the 2-core
/// reference box. `--seconds` is measured in repetitions of this size:
/// the declared 15 s are R = 5 of them.
const REPETITION_TARGET_S: f64 = 3.0;
/// Size divisor of the smoke run.
const SMOKE_DIVISOR: usize = 20;
/// Where summaries, traces and the cache snapshot of a traced run go.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

const USAGE: &str = "usage:
  dhp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  dhp-benchmark --smoke
  dhp-benchmark --selfcheck";

#[derive(Debug, PartialEq)]
enum Mode {
    Workload(String),
    Smoke,
    Selfcheck,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let (mut seed, mut seconds, mut traced) = (17, 15.0, false);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let new_mode = match arg.as_str() {
            "--workload" => Some(Mode::Workload(value("--workload")?)),
            "--smoke" => Some(Mode::Smoke),
            "--selfcheck" => Some(Mode::Selfcheck),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
                None
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
                None
            }
            "--trace" => {
                traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
                None
            }
            other => return Err(format!("unexpected argument {other}")),
        };
        if new_mode.is_some() && mode.is_some() {
            return Err("name one of --workload, --smoke, --selfcheck".into());
        }
        mode = mode.or(new_mode);
    }
    Ok(Args {
        mode: mode.ok_or("name one of --workload, --smoke, --selfcheck")?,
        seed,
        seconds,
        traced,
    })
}

/// Timed repetitions that fill `seconds`.
fn repetitions(seconds: f64) -> usize {
    (seconds / REPETITION_TARGET_S).round().max(1.0) as usize
}

/// Who ran this, on what: stamped into every summary.
struct Host {
    cores: usize,
    rustc: String,
    commit: String,
}

impl Host {
    fn read() -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: std::env::var("DHP_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
            commit: std::env::var("DHP_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        }
    }
}

fn metrics_json(rows: &[(&str, &str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in rows.iter().enumerate() {
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn list_json(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// The run's rows in table order. Refuses a non-finite value: a result
/// line must hold numbers as measured, never a placeholder.
fn rows(run: &Run, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
    let table = if traced {
        per_layer_units()
    } else {
        end_to_end_units()
    };
    let rows = run.values.in_table_order(&table);
    for (name, _, value) in &rows {
        assert!(value.is_finite(), "metric {name} is not a finite number");
    }
    rows
}

/// The full summary object: the result plus who ran it and how.
fn summary_json(w: &Workload, args: &Args, host: &Host, run: &Run) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
         \"host_cores\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"tasks_per_repetition\": {}, \"operations_per_repetition\": {}, \
         \"baseline_invalid\": {}, \"outputs_digest\": \"{:016x}\", \
         \"setup_s\": {}, \"repetition_wall_s\": {}, \"repetition_cpu_s\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"claim\": null}}",
        w.name,
        args.seed,
        args.seconds,
        args.traced,
        host.cores,
        host.rustc,
        host.commit,
        run.tasks,
        run.attempted,
        run.baseline_invalid,
        run.digest,
        run.setup_s,
        list_json(&run.repetition_wall_s),
        list_json(&run.repetition_cpu_s),
        run.correct,
        run.attempted,
        run.failed,
        metrics_json(&rows(run, args.traced)),
    )
}

/// The last line of standard output: exactly the four keys the driver
/// reads.
fn result_line(run: &Run, traced: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.correct,
        run.attempted.max(1),
        run.failed,
        metrics_json(&rows(run, traced)),
    )
}

fn write_out(file: &str, text: &str) {
    let path = Path::new(OUT_DIR).join(file);
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn run_one(w: &Workload, args: &Args, host: &Host) -> Run {
    let run = if args.traced {
        run::traced(&w.kind, args.seed, 1, Path::new(OUT_DIR))
    } else {
        let shape = Shape {
            divisor: 1,
            repetitions: repetitions(args.seconds),
        };
        run::end_to_end(&w.kind, args.seed, &shape)
    };

    println!("workload {}: {}", w.name, w.why);
    println!(
        "seed {}  {}  host_cores {}  {}  commit {}",
        args.seed,
        if args.traced { "traced" } else { "end-to-end" },
        host.cores,
        host.rustc,
        host.commit
    );
    let walls = &run.repetition_wall_s;
    println!(
        "repetitions {}  tasks/repetition {}  operations/repetition {}  wall_s median {:.4} min {:.4} max {:.4}",
        walls.len(),
        run.tasks,
        run.attempted,
        stats::median(walls),
        stats::min(walls),
        stats::max(walls),
    );
    for (name, unit, value) in rows(&run, args.traced) {
        println!("{name:<40} {value:>18.6} {unit}");
    }
    println!(
        "attempted {}  failed {}  correct {}  left out of makespan_ratio_pct (invalid baseline) {}",
        run.attempted, run.failed, run.correct, run.baseline_invalid
    );

    let summary = summary_json(w, args, host, &run);
    let suffix = if args.traced { "layers" } else { "summary" };
    write_out(
        &format!("{}.{suffix}.json", w.name),
        &format!("{summary}\n"),
    );
    if let Some(recorder) = &run.recorder {
        write_out(
            &format!("{}.trace.json", w.name),
            &recorder.to_json(&summary),
        );
    }
    println!("{summary}");
    run
}

const SMOKE_SHAPE: Shape = Shape {
    divisor: SMOKE_DIVISOR,
    repetitions: 2,
};

/// Every workload at 1/20 size, end-to-end and traced, with the result
/// schema asserted. Returns what went wrong, if anything.
fn smoke() -> Result<(), String> {
    for w in WORKLOADS {
        let check = |run: &Run, traced: bool| -> Result<(), String> {
            let table = if traced {
                per_layer_units()
            } else {
                end_to_end_units()
            };
            let rows = rows(run, traced);
            if rows.len() != table.len() {
                return Err(format!(
                    "{}: {} metrics, expected {}",
                    w.name,
                    rows.len(),
                    table.len()
                ));
            }
            if !run.correct || run.failed != 0 || run.attempted == 0 {
                return Err(format!(
                    "{}: attempted {} failed {} correct {}",
                    w.name, run.attempted, run.failed, run.correct
                ));
            }
            if !traced {
                if let Some((name, _, v)) = rows.iter().find(|(_, _, v)| *v <= 0.0) {
                    return Err(format!(
                        "{}: {name} = {v}, end-to-end metrics are never 0",
                        w.name
                    ));
                }
                if run.values.get("completed_share") != Some(1.0) {
                    return Err(format!("{}: completed_share below 1", w.name));
                }
            }
            Ok(())
        };
        let end_to_end = run::end_to_end(&w.kind, 17, &SMOKE_SHAPE);
        check(&end_to_end, false)?;
        // Another seed makes the calls in another order: same outputs.
        let reordered = run::traced(&w.kind, 18, SMOKE_DIVISOR, Path::new(OUT_DIR));
        check(&reordered, true)?;
        if reordered.digest != end_to_end.digest {
            return Err(format!("{}: the outputs depend on the seed", w.name));
        }
        println!("smoke {:<22} ok", w.name);
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("warning: could not create {OUT_DIR}: {e}");
    }
    match &args.mode {
        Mode::Smoke => {
            if let Err(e) = smoke() {
                eprintln!("smoke failed: {e}");
                std::process::exit(1);
            }
        }
        Mode::Selfcheck => {
            let ok = selfcheck::run(args.seed, args.seconds, Path::new(OUT_DIR));
            std::process::exit(if ok { 0 } else { 1 });
        }
        Mode::Workload(name) => {
            let Some(w) = workloads::find(name) else {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "no workload {name}; there are: {}\n{USAGE}",
                    names.join(", ")
                );
                std::process::exit(2);
            };
            let run = run_one(&w, &args, &Host::read());
            println!("{}", result_line(&run, args.traced));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_parses() {
        let a = parse_args(&argv(
            "--workload online_cold --seed 3 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.mode, Mode::Workload("online_cold".into()));
        assert_eq!((a.seed, a.seconds, a.traced), (3, 12.0, true));
        assert_eq!(parse_args(&argv("--smoke")).unwrap().mode, Mode::Smoke);
        assert_eq!((repetitions(15.0), repetitions(1.0)), (5, 1));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for line in [
            "",
            "--seed 3",
            "--seed",
            "--workload x --seed x",
            "--workload x --seconds 0",
            "--workload x --seconds nan",
            "--workload x --trace 2",
            "--workload x --smoke",
            "x",
        ] {
            assert!(parse_args(&argv(line)).is_err(), "{line}");
        }
    }

    /// The smoke run: every workload at 1/20 size, result schema
    /// asserted (all seven end-to-end names and every per-layer name,
    /// finite values, nothing failed).
    #[test]
    fn smoke_run_meets_the_schema() {
        std::fs::create_dir_all(OUT_DIR).unwrap();
        smoke().unwrap();
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let run = run::end_to_end(&WORKLOADS[0].kind, 17, &SMOKE_SHAPE);
        let line = result_line(&run, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        for m in metrics::END_TO_END {
            assert_eq!(
                selfcheck::metric_value(&line, m.name),
                run.values.get(m.name),
                "{}",
                m.name
            );
            assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)));
        }
        assert_eq!(
            line.matches("\"value\":").count(),
            metrics::END_TO_END.len()
        );
        assert!(!line.contains('\n'));
    }
}
