//! `--selfcheck`: does the benchmark agree with itself?
//!
//! Runs every workload [`RUNS`] times per set, each run in its own
//! child process with its own seed, for two sets (the second in reverse
//! workload order), as the acceptance rule does: per end-to-end metric,
//! the quartile spread of each set and the distance between the two
//! sets' medians. Fails when a spread exceeds the metric's bound, when
//! the medians are further apart than the bound (whichever set is taken
//! as the base), or when a deterministic metric takes more than one
//! value anywhere in the twenty runs.

use crate::metrics::END_TO_END;
use crate::stats::{median, quartile_spread};
use crate::workloads::WORKLOADS;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Runs per set.
const RUNS: u64 = 10;

/// Reads `"<name>": {"value": <number>` out of a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// One child run's end-to-end values in table order, or why it has none.
fn child(workload: &str, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} seed {seed}: exit {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !line.starts_with("{\"correct\": true") {
        return Err(format!("{workload} seed {seed}: not correct: {line}"));
    }
    END_TO_END
        .iter()
        .map(|m| metric_value(line, m.name).ok_or(format!("{workload}: no {} in {line}", m.name)))
        .collect()
}

/// Distance between two medians as a share of the smaller one: the
/// larger of the two relative shifts, so neither set is "the base".
fn distance(first: f64, second: f64) -> f64 {
    let base = first.abs().min(second.abs());
    if base == 0.0 {
        return if first == second { 0.0 } else { f64::INFINITY };
    }
    (first - second).abs() / base
}

pub fn run(base_seed: u64, seconds: f64, out: &Path) -> bool {
    let seeds: Vec<u64> = (0..RUNS).map(|i| base_seed + i).collect();
    // values[set][workload][run][metric]
    let mut values: [Vec<Vec<Vec<f64>>>; 2] = [
        vec![Vec::new(); WORKLOADS.len()],
        vec![Vec::new(); WORKLOADS.len()],
    ];
    let mut ok = true;
    for (set, sink) in values.iter_mut().enumerate() {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if set == 1 {
            order.reverse();
        }
        for wi in order {
            for &seed in &seeds {
                match child(WORKLOADS[wi].name, seed, seconds) {
                    Ok(v) => sink[wi].push(v),
                    Err(e) => {
                        eprintln!("selfcheck: {e}");
                        return false;
                    }
                }
                eprintln!(
                    "selfcheck: set {} {} seed {seed} done",
                    set + 1,
                    WORKLOADS[wi].name
                );
            }
        }
    }

    let mut report = String::from("{\"runs_per_set\": ");
    let _ = write!(report, "{RUNS}, \"seconds\": {seconds}, \"workloads\": {{");
    println!(
        "{:<22} {:<20} {:<7} {:>14} {:>9} {:>14} {:>9} {:>9} {:>7}",
        "workload",
        "metric",
        "better",
        "median_1",
        "spread_1",
        "median_2",
        "spread_2",
        "apart",
        "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let _ = write!(
            report,
            "{}\"{}\": {{",
            if wi == 0 { "" } else { ", " },
            w.name
        );
        for (mi, m) in END_TO_END.iter().enumerate() {
            let column =
                |set: usize| -> Vec<f64> { values[set][wi].iter().map(|run| run[mi]).collect() };
            let (first, second) = (column(0), column(1));
            let (m1, m2) = (median(&first), median(&second));
            let (s1, s2) = (quartile_spread(&first), quartile_spread(&second));
            let apart = distance(m1, m2);
            let one_value = first.iter().chain(&second).all(|v| *v == first[0]);
            let mut verdict = "";
            if m.deterministic && !one_value {
                verdict = "  NOT DETERMINISTIC";
            } else if apart > m.bound {
                verdict = "  MEDIANS APART BY MORE THAN THE BOUND";
            } else if s1.max(s2) > m.bound {
                verdict = "  SPREAD OVER BOUND";
            }
            ok &= verdict.is_empty();
            println!(
                "{:<22} {:<20} {:<7} {:>14.4} {:>8.2}% {:>14.4} {:>8.2}% {:>8.2}% {:>6.1}%{verdict}",
                w.name,
                m.name,
                m.better.name(),
                m1,
                100.0 * s1,
                m2,
                100.0 * s2,
                100.0 * apart,
                100.0 * m.bound
            );
            let _ = write!(
                report,
                "{}\"{}\": {{\"median\": [{m1}, {m2}], \"spread\": [{s1}, {s2}], \
                 \"apart\": {apart}, \"bound\": {}}}",
                if mi == 0 { "" } else { ", " },
                m.name,
                m.bound
            );
        }
        report.push('}');
    }
    let _ = writeln!(report, "}}, \"pass\": {ok}, \"claim\": null}}");
    if let Err(e) = std::fs::write(out.join("selfcheck.json"), &report) {
        eprintln!("warning: could not write selfcheck.json: {e}");
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_read_back_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": {\
                    \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
                    \"tasks_per_s\": {\"value\": 12000.5, \"unit\": \"tasks/s\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(1.25));
        assert_eq!(metric_value(line, "tasks_per_s"), Some(12000.5));
        assert_eq!(metric_value(line, "mean_stretch"), None);
    }

    #[test]
    fn the_distance_between_medians_has_no_base_set() {
        assert!((distance(10.0, 12.5) - 0.25).abs() < 1e-12);
        assert_eq!(distance(10.0, 12.5), distance(12.5, 10.0));
        assert_eq!(distance(3.0, 3.0), 0.0);
        assert_eq!(distance(0.0, 0.0), 0.0);
        assert_eq!(distance(0.0, 1.0), f64::INFINITY);
    }
}
