//! CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p dhp-lint -- --check            # exit 0 clean, 1 findings
//! cargo run -p dhp-lint -- --check --root X   # check another tree
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use std::path::PathBuf;

const USAGE: &str = "dhp-lint — workspace invariant checker (R1..R5)

USAGE:
    dhp-lint --check          run all rules; exit 1 on any finding
    dhp-lint ... --root PATH  workspace root (default: current directory)
";

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

fn run(args: Vec<String>) -> i32 {
    let mut check = false;
    let mut root = PathBuf::from(".");
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("dhp-lint: --root needs a path\n\n{USAGE}");
                    return 2;
                }
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return 0;
            }
            other => {
                eprintln!("dhp-lint: unknown argument `{other}`\n\n{USAGE}");
                return 2;
            }
        }
    }
    if !check {
        eprintln!("dhp-lint: pick a mode\n\n{USAGE}");
        return 2;
    }
    match dhp_lint::run_check(&root) {
        Ok(outcome) => {
            for f in &outcome.findings {
                println!("{}:{} {} {}", f.file, f.line, f.rule, f.message);
            }
            println!(
                "dhp-lint: {} file(s) checked, {} finding(s)",
                outcome.files,
                outcome.findings.len()
            );
            if outcome.findings.is_empty() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("dhp-lint: {e}");
            2
        }
    }
}
