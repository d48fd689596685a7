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
//! * **R4 panic hygiene** — no `unwrap()`/`expect()` in library
//!   non-test code.
//! * **R5 golden-JSON discipline** — serde report structs keep their
//!   `skip_serializing_if`/`serde(default)` attributes.
//!
//! Run it with `cargo run -p dhp-lint -- --check` (CI gates on the
//! exit code). The static pass is paired with dynamic
//! debug-build enforcement: the `vendor/parking_lot` lock-rank tracker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

use rules::Finding;
use std::path::{Path, PathBuf};

/// Result of a full `--check` run.
#[derive(Debug)]
pub struct Outcome {
    /// Rule violations, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
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

/// Runs all five rules over the workspace rooted at `root`.
pub fn run_check(root: &Path) -> Result<Outcome, String> {
    let sources = collect_sources(root)?;
    let mut findings = Vec::new();
    let files = sources.len();
    for (rel, path) in sources {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        findings.extend(rules::check_model(&lexer::analyze(&rel, &src)));
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(Outcome { findings, files })
}
