//! End-to-end tests for the lint engine: each known-bad fixture must
//! produce its exact `file:line rule` findings when analyzed under a
//! rule-scoped fake path, the clean fixture must produce none, and the
//! real workspace must lint clean.

use dhp_lint::lexer::analyze;
use dhp_lint::rules::{self, check_model, panic_sites};

const R1_FIX: &str = include_str!("fixtures/r1_map_iteration.rs");
const R2_FIX: &str = include_str!("fixtures/r2_wallclock.rs");
const R3_GUARDS_FIX: &str = include_str!("fixtures/r3_nested_guards.rs");
const R4_FIX: &str = include_str!("fixtures/r4_unwrap.rs");
const R5_FIX: &str = include_str!("fixtures/r5_missing_attrs.rs");
const CLEAN_FIX: &str = include_str!("fixtures/clean.rs");

/// (line, rule) pairs of the findings for `src` analyzed as `rel`,
/// asserting every finding carries the file it was analyzed under.
fn findings(rel: &str, src: &str) -> Vec<(usize, &'static str)> {
    let fs = check_model(&analyze(rel, src));
    for f in &fs {
        assert_eq!(f.file, rel, "finding must carry the analyzed path");
    }
    let mut out: Vec<(usize, &'static str)> = fs.iter().map(|f| (f.line, f.rule)).collect();
    out.sort_unstable();
    out
}

#[test]
fn r1_flags_hash_iteration_in_merge_path() {
    let got = findings("crates/online/src/federation/merge.rs", R1_FIX);
    assert_eq!(got, vec![(6, rules::R1), (13, rules::R1)]);
}

#[test]
fn r1_is_scoped_to_digest_modules() {
    // The same source outside the report/merge/persist set is legal.
    assert!(findings("crates/online/src/admission.rs", R1_FIX).is_empty());
}

#[test]
fn r2_flags_wall_clock_outside_allowlist() {
    let got = findings("crates/online/src/admission.rs", R2_FIX);
    assert_eq!(got, vec![(8, rules::R2), (11, rules::R2), (12, rules::R2)]);
}

#[test]
fn r2_allowlist_and_bins_are_exempt() {
    assert!(findings("crates/bench/src/runner.rs", R2_FIX).is_empty());
    assert!(findings("crates/core/src/metrics.rs", R2_FIX).is_empty());
    assert!(findings("crates/cli/src/main.rs", R2_FIX).is_empty());
}

#[test]
fn r3_flags_nested_stripe_guards() {
    let got = findings("crates/core/src/partial.rs", R3_GUARDS_FIX);
    assert_eq!(got, vec![(7, rules::R3), (12, rules::R3)]);
    // Same defects inside the federation tree are also in scope.
    let got = findings("crates/online/src/federation/rebalance.rs", R3_GUARDS_FIX);
    assert_eq!(got, vec![(7, rules::R3), (12, rules::R3)]);
}

#[test]
fn r4_sites_skip_test_modules() {
    let m = analyze("crates/online/src/state.rs", R4_FIX);
    assert_eq!(panic_sites(&m), vec![3, 7]);
}

#[test]
fn r4_flags_every_library_unwrap() {
    let got = findings("crates/online/src/state.rs", R4_FIX);
    assert_eq!(got, vec![(3, rules::R4), (7, rules::R4)]);
}

#[test]
fn r4_exempts_bins() {
    assert!(findings("crates/cli/src/main.rs", R4_FIX).is_empty());
}

#[test]
fn r5_flags_missing_serde_attrs() {
    let got = findings("crates/online/src/report.rs", R5_FIX);
    assert_eq!(got, vec![(7, rules::R5), (8, rules::R5)]);
}

#[test]
fn clean_fixture_has_zero_findings_everywhere() {
    for rel in [
        "crates/online/src/report.rs",
        "crates/online/src/federation/merge.rs",
        "crates/online/src/federation/shard.rs",
        "crates/core/src/persist.rs",
        "crates/core/src/partial.rs",
        "crates/online/src/admission.rs",
    ] {
        assert!(findings(rel, CLEAN_FIX).is_empty(), "{rel}");
        assert!(panic_sites(&analyze(rel, CLEAN_FIX)).is_empty(), "{rel}");
    }
}

#[test]
fn workspace_lints_clean() {
    // CARGO_MANIFEST_DIR = crates/lint → workspace root two levels up.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let outcome = dhp_lint::run_check(&root).unwrap();
    assert!(outcome.files > 100, "scanned only {} files", outcome.files);
    let rendered: Vec<String> = outcome
        .findings
        .iter()
        .map(|f| format!("{}:{} {} {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        rendered.is_empty(),
        "workspace has findings:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn unknown_arguments_exit_2() {
    // `--check` is the only mode: anything else, the retired
    // `--fix-baseline` included, is a usage error.
    for arg in ["--fix-baseline", "--chekc"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dhp-lint"))
            .arg(arg)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{arg}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown argument"), "{arg}: {stderr}");
    }
}
