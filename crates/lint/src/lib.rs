//! `dhp-lint` — the workspace invariant checker.
//!
//! A dependency-free static analysis pass over the workspace sources
//! (`crates/*/src` plus the root facade's `src/`), machine-checking
//! the invariants that keep the engine bit-deterministic:
//!
//! * **R1 determinism** — no `HashMap`/`HashSet` iteration in the
//!   digest-pinned report/merge/persist modules.
//! * **R2 wall-clock confinement** — `Instant::now`/`SystemTime` only
//!   in the bench harness, solver timing, and metrics.
//! * **R3 lock discipline** — no nested lock guards in
//!   `core/partial.rs` and `online/federation/`.
//! * **R4 panic hygiene** — `unwrap()`/`expect()` in library non-test
//!   code governed by the shrink-only ratchet in `lint-baseline.toml`.
//! * **R5 golden-JSON discipline** — serde report structs keep their
//!   `skip_serializing_if`/`serde(default)` attributes.
//!
//! Run it with `cargo run -p dhp-lint -- --check` (CI gates on the
//! exit code) or `--fix-baseline` to regenerate the R4 ratchet after
//! burning occurrences down. The static pass is paired with dynamic
//! debug-build enforcement: the `vendor/parking_lot` lock-rank tracker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod lexer;
pub mod rules;

use rules::Finding;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Name of the R4 ratchet file at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.toml";

/// Result of a full `--check` run.
#[derive(Debug)]
pub struct Outcome {
    /// Rule violations, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Advisory notes (ratchet slack, stale baseline entries).
    pub notes: Vec<String>,
    /// Number of source files scanned.
    pub files: usize,
}

/// Collects the workspace sources the rules run over: every `.rs` file
/// under `crates/*/src` and the root `src/`, sorted by relative path.
/// Vendored shims, integration `tests/`, `examples/`, and fixtures are
/// deliberately out of scope.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "{} has no crates/ directory — pass the workspace root via --root",
            root.display()
        ));
    }
    let mut out = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    let entries =
        std::fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", crates_dir.display()))?;
        if entry.path().is_dir() {
            crate_dirs.push(entry.path());
        }
    }
    crate_dirs.sort();
    for dir in crate_dirs {
        walk_rs(&dir.join("src"), root, &mut out)?;
    }
    walk_rs(&root.join("src"), root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut paths: Vec<PathBuf> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes the workspace root", path.display()))?;
            let rel: Vec<String> = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect();
            out.push((rel.join("/"), path));
        }
    }
    Ok(())
}

/// Per-file `unwrap()`/`expect(` counts over the current tree, for
/// `--fix-baseline`.
pub fn current_counts(root: &Path) -> Result<BTreeMap<String, usize>, String> {
    let mut counts = BTreeMap::new();
    for (rel, path) in collect_sources(root)? {
        if !rules::ratchet_applies(&rel) {
            continue;
        }
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let sites = rules::panic_sites(&lexer::analyze(&rel, &src));
        if !sites.is_empty() {
            counts.insert(rel, sites.len());
        }
    }
    Ok(counts)
}

/// Runs all five rules over the workspace rooted at `root`.
pub fn run_check(root: &Path) -> Result<Outcome, String> {
    let sources = collect_sources(root)?;
    let baseline = baseline::load(&root.join(BASELINE_FILE))?;
    let mut notes = Vec::new();
    if baseline.is_none() {
        notes.push(format!(
            "{BASELINE_FILE} not found — every file gets an unwrap()/expect() allowance of 0 \
             (run --fix-baseline to create it)"
        ));
    }
    let baseline = baseline.unwrap_or_default();

    let mut findings = Vec::new();
    let mut sites: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut scanned: BTreeSet<String> = BTreeSet::new();
    let files = sources.len();
    for (rel, path) in sources {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let model = lexer::analyze(&rel, &src);
        findings.extend(rules::check_model(&model));
        if rules::ratchet_applies(&rel) {
            scanned.insert(rel.clone());
            let s = rules::panic_sites(&model);
            if !s.is_empty() {
                sites.insert(rel, s);
            }
        }
    }
    let (ratchet_findings, ratchet_notes) = rules::apply_ratchet(&sites, &scanned, &baseline);
    findings.extend(ratchet_findings);
    notes.extend(ratchet_notes);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(Outcome {
        findings,
        notes,
        files,
    })
}

/// Regenerates `lint-baseline.toml` from the current tree. Returns
/// `(total occurrences, files with entries)`.
pub fn fix_baseline(root: &Path) -> Result<(usize, usize), String> {
    let counts = current_counts(root)?;
    let text = baseline::render(&counts);
    let path = root.join(BASELINE_FILE);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((counts.values().sum(), counts.len()))
}
