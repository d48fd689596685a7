//! The five invariant rule engines (R1–R5) running over lexed
//! [`FileModel`]s.
//!
//! Every rule is grounded in a real workspace invariant — see the
//! README's "Invariants & static analysis" section. All five are
//! per-file and run through [`check_model`].

use crate::lexer::{is_ident_char, FileModel};

/// Rule id: hash-iteration-order leaks in digest-pinned modules.
pub const R1: &str = "R1-determinism";
/// Rule id: wall-clock reads outside the allowlist.
pub const R2: &str = "R2-wallclock";
/// Rule id: nested lock guards.
pub const R3: &str = "R3-lock-discipline";
/// Rule id: unwrap/expect in library non-test code.
pub const R4: &str = "R4-panic-hygiene";
/// Rule id: serde attributes protecting the pinned golden JSON.
pub const R5: &str = "R5-golden-json";

/// One rule violation, printable as `file:line rule message`.
#[derive(Debug)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number of the violation.
    pub line: usize,
    /// Rule id (one of [`R1`]..[`R5`]).
    pub rule: &'static str,
    /// Human-readable explanation tied to the invariant.
    pub message: String,
}

/// Runs the five rules (R1..R5) over one lexed file.
pub fn check_model(m: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    determinism(m, &mut out);
    wallclock(m, &mut out);
    lock_discipline(m, &mut out);
    panic_hygiene(m, &mut out);
    golden_json(m, &mut out);
    out
}

/// Byte offsets at which `word` occurs in `hay` with identifier
/// boundaries on both sides.
fn word_starts(hay: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(word) {
        let at = from + pos;
        let before_ok = !hay[..at].chars().next_back().is_some_and(is_ident_char);
        let end = at + word.len();
        let after_ok = !hay[end..].chars().next().is_some_and(is_ident_char);
        if before_ok && after_ok {
            out.push(at);
        }
        from = end;
    }
    out
}

/// The trailing identifier of `s`, if it ends with one.
fn trailing_ident(s: &str) -> Option<String> {
    let tail: String = s
        .chars()
        .rev()
        .take_while(|&c| is_ident_char(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if tail.is_empty() || tail.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(tail)
    }
}

/// The name bound by the first `let [mut] name …` on the line.
fn let_binding_name(code: &str) -> Option<String> {
    let at = word_starts(code, "let").first().copied()?;
    let mut rest = code[at + 3..].trim_start();
    if let Some(stripped) = rest.strip_prefix("mut") {
        if !stripped.chars().next().is_some_and(is_ident_char) {
            rest = stripped.trim_start();
        }
    }
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

// ---------------------------------------------------------------- R1

/// Files whose output is pinned by FNV digest tests: hash iteration
/// order must never reach them.
const R1_FILES: &[&str] = &[
    "crates/online/src/report.rs",
    "crates/online/src/federation/merge.rs",
    "crates/core/src/persist.rs",
];

/// Methods whose result order is the hasher's, not the data's.
const HASH_ITER: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Walks a method chain starting just after a receiver occurrence and
/// returns the first order-leaking method it reaches, if any.
fn chain_banned(code: &str, mut pos: usize) -> Option<String> {
    let bytes = code.as_bytes();
    loop {
        while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if pos >= bytes.len() || bytes[pos] != b'.' {
            return None;
        }
        pos += 1;
        let start = pos;
        while pos < bytes.len() && (bytes[pos] >= 0x80 || is_ident_char(bytes[pos] as char)) {
            pos += 1;
        }
        if pos == start {
            return None;
        }
        let method = &code[start..pos];
        if HASH_ITER.contains(&method) {
            return Some(method.to_string());
        }
        if pos < bytes.len() && bytes[pos] == b'(' {
            let mut depth = 0usize;
            while pos < bytes.len() {
                match bytes[pos] {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            pos += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                pos += 1;
            }
        }
        while pos < bytes.len() && bytes[pos] == b'?' {
            pos += 1;
        }
    }
}

fn determinism(m: &FileModel, out: &mut Vec<Finding>) {
    if !R1_FILES.contains(&m.rel.as_str()) {
        return;
    }
    // Pass 1: names declared or bound as HashMap/HashSet.
    let mut tracked: Vec<String> = Vec::new();
    for line in m.lines.iter().filter(|l| !l.is_test) {
        for ty in ["HashMap", "HashSet"] {
            for at in word_starts(&line.code, ty) {
                // `name: [&][mut ]HashMap…` — field, param, or typed let.
                let mut before = line.code[..at].trim_end();
                if let Some(s) = before.strip_suffix("mut") {
                    before = s.trim_end();
                }
                if let Some(s) = before.strip_suffix('&') {
                    before = s.trim_end();
                }
                if let Some(b) = before.strip_suffix(':') {
                    if let Some(name) = trailing_ident(b.trim_end()) {
                        if !tracked.contains(&name) {
                            tracked.push(name);
                        }
                    }
                }
            }
            // `let [mut] name = HashMap::new()`-style bindings.
            let ctor = format!("{ty}::");
            if line.code.contains(&ctor) {
                if let Some(name) = let_binding_name(&line.code) {
                    if !tracked.contains(&name) {
                        tracked.push(name);
                    }
                }
            }
        }
    }
    // Pass 2: flag order-leaking uses of the tracked names.
    for line in m.lines.iter().filter(|l| !l.is_test) {
        let mut flagged: Vec<&str> = Vec::new();
        for name in &tracked {
            for at in word_starts(&line.code, name) {
                if let Some(method) = chain_banned(&line.code, at + name.len()) {
                    flagged.push(name);
                    out.push(Finding {
                        file: m.rel.clone(),
                        line: line.number,
                        rule: R1,
                        message: format!(
                            "iteration over hash collection `{name}` via `.{method}()` in a \
                             digest-pinned module; hash order would leak into pinned output — \
                             use a BTreeMap/BTreeSet or sort before iterating"
                        ),
                    });
                    break;
                }
            }
        }
        // `for … in <tracked>` without an explicit method call.
        if let Some(fpos) = word_starts(&line.code, "for").first().copied() {
            let after_for = &line.code[fpos..];
            if let Some(inpos) = word_starts(after_for, "in").first().copied() {
                let rest = &after_for[inpos + 2..];
                for name in &tracked {
                    if !flagged.contains(&name.as_str()) && !word_starts(rest, name).is_empty() {
                        out.push(Finding {
                            file: m.rel.clone(),
                            line: line.number,
                            rule: R1,
                            message: format!(
                                "for-loop over hash collection `{name}` in a digest-pinned \
                                 module; hash order would leak into pinned output — iterate a \
                                 sorted projection instead"
                            ),
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------- R2

/// Paths allowed to read the wall clock: the bench harness, the two
/// solver-timing sites, and the metrics module.
const R2_ALLOW_PREFIX: &[&str] = &["crates/bench/"];
const R2_ALLOW_FILES: &[&str] = &[
    "crates/core/src/daghetpart.rs",
    "crates/core/src/partial.rs",
    "crates/core/src/metrics.rs",
    "crates/memdag/src/greedy.rs",
];

/// Binary targets (drivers) may read the wall clock for reporting.
fn is_bin(rel: &str) -> bool {
    let base = rel.rsplit('/').next().unwrap_or(rel);
    base == "main.rs" || rel.contains("/src/bin/")
}

fn wallclock(m: &FileModel, out: &mut Vec<Finding>) {
    if is_bin(&m.rel)
        || R2_ALLOW_PREFIX.iter().any(|p| m.rel.starts_with(p))
        || R2_ALLOW_FILES.contains(&m.rel.as_str())
    {
        return;
    }
    for line in m.lines.iter().filter(|l| !l.is_test) {
        let hit = if line.code.contains("Instant::now") {
            Some("Instant::now")
        } else if !word_starts(&line.code, "SystemTime").is_empty() {
            Some("SystemTime")
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(Finding {
                file: m.rel.clone(),
                line: line.number,
                rule: R2,
                message: format!(
                    "wall-clock read (`{what}`) outside the allowlist; admission/routing/\
                     lease/federation decisions must be driven by the simulated clock — \
                     move timing to metrics or the bench harness"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- R3

fn lock_discipline(m: &FileModel, out: &mut Vec<Finding>) {
    let in_scope =
        m.rel == "crates/core/src/partial.rs" || m.rel.starts_with("crates/online/src/federation/");
    if !in_scope {
        return;
    }
    struct Guard {
        name: String,
        depth: usize,
        line: usize,
    }
    let mut guards: Vec<Guard> = Vec::new();
    for line in m.lines.iter().filter(|l| !l.is_test) {
        // A guard dies when its enclosing block closes…
        guards.retain(|g| line.depth_min >= g.depth);
        // …or when it is dropped explicitly.
        if !guards.is_empty() && !word_starts(&line.code, "drop").is_empty() {
            guards.retain(|g| !line.code.contains(&format!("drop({})", g.name)));
        }
        let lock_count = line.code.matches(".lock()").count();
        if lock_count == 0 {
            continue;
        }
        let trimmed = line.code.trim();
        let binding = trimmed.starts_with("let ") && trimmed.ends_with(".lock();");
        if let Some(held) = guards.last() {
            out.push(Finding {
                file: m.rel.clone(),
                line: line.number,
                rule: R3,
                message: format!(
                    "`.lock()` while guard `{}` (line {}) is still held — a second guard \
                     under a held one deadlocks on the same mutex, or against a thread \
                     locking in the other order; release the first guard (or copy what \
                     you need out of it) before locking again",
                    held.name, held.line
                ),
            });
        } else if lock_count >= 2 {
            out.push(Finding {
                file: m.rel.clone(),
                line: line.number,
                rule: R3,
                message: "two `.lock()` temporaries in one expression — nested guard \
                          acquisition can deadlock; split into sequential \
                          statements so each guard drops before the next acquires"
                    .to_string(),
            });
        }
        if binding {
            if let Some(name) = let_binding_name(&line.code) {
                guards.push(Guard {
                    name,
                    depth: line.depth_end,
                    line: line.number,
                });
            }
        }
    }
}

// ---------------------------------------------------------------- R4

/// Line numbers (one per occurrence) of `.unwrap()` / `.expect(` calls
/// in the file's non-test code.
pub fn panic_sites(m: &FileModel) -> Vec<usize> {
    let mut out = Vec::new();
    for line in m.lines.iter().filter(|l| !l.is_test) {
        for pat in [".unwrap", ".expect"] {
            let mut from = 0;
            while let Some(p) = line.code[from..].find(pat) {
                let end = from + p + pat.len();
                if line.code[end..].starts_with('(') {
                    out.push(line.number);
                }
                from = end;
            }
        }
    }
    out.sort_unstable();
    out
}

/// Every `.unwrap()` / `.expect(` in a library file's non-test code is
/// a finding; binary targets may panic on startup errors.
fn panic_hygiene(m: &FileModel, out: &mut Vec<Finding>) {
    if is_bin(&m.rel) {
        return;
    }
    for line in panic_sites(m) {
        out.push(Finding {
            file: m.rel.clone(),
            line,
            rule: R4,
            message: "unwrap()/expect() in library non-test code; propagate the error, or \
                      state the invariant with `let … else { unreachable!(\"<the check that \
                      guarantees it>\") }`"
                .to_string(),
        });
    }
}

// ---------------------------------------------------------------- R5

/// Files whose serde structs feed the pinned golden JSON reports.
const R5_FILES: &[&str] = &[
    "crates/online/src/report.rs",
    "crates/online/src/chaos.rs",
    "crates/online/src/federation/merge.rs",
];

fn golden_json(m: &FileModel, out: &mut Vec<Finding>) {
    if !R5_FILES.contains(&m.rel.as_str()) {
        return;
    }
    let mut pending_derive = false;
    // Depth of the open struct body, when inside a serde struct.
    let mut in_struct: Option<usize> = None;
    let mut field_attrs = String::new();
    for line in m.lines.iter().filter(|l| !l.is_test) {
        if !line.attr.is_empty() {
            if in_struct.is_none() {
                if !word_starts(&line.attr, "derive").is_empty()
                    && (!word_starts(&line.attr, "Serialize").is_empty()
                        || !word_starts(&line.attr, "Deserialize").is_empty())
                {
                    pending_derive = true;
                }
            } else {
                field_attrs.push_str(&line.attr);
                field_attrs.push(' ');
            }
        }
        if let Some(body_depth) = in_struct {
            if line.depth_min < body_depth {
                in_struct = None;
                field_attrs.clear();
                continue;
            }
            let t = line.code.trim();
            if line.depth_start == body_depth && t.contains(':') && !t.is_empty() {
                check_field(m, line.number, t, &field_attrs, out);
                field_attrs.clear();
            }
            continue;
        }
        let t = line.code.trim();
        if pending_derive
            && !word_starts(&line.code, "struct").is_empty()
            && line.code.contains('{')
            && line.depth_end == line.depth_start + 1
        {
            in_struct = Some(line.depth_end);
            pending_derive = false;
            field_attrs.clear();
        } else if pending_derive && !t.is_empty() && line.attr.is_empty() {
            // Some other item (enum, unit struct, fn) consumed the derive.
            pending_derive = false;
        }
    }
}

fn check_field(m: &FileModel, number: usize, t: &str, attrs: &str, out: &mut Vec<Finding>) {
    let t = t.strip_suffix(',').unwrap_or(t);
    let Some(colon) = t.find(':') else { return };
    let (name_part, ty_part) = t.split_at(colon);
    let Some(name) = trailing_ident(name_part.trim_end()) else {
        return;
    };
    let ty = ty_part[1..].trim();
    if ty.starts_with("Option<") && !attrs.contains("skip_serializing_if") {
        out.push(Finding {
            file: m.rel.clone(),
            line: number,
            rule: R5,
            message: format!(
                "Option field `{name}` without #[serde(skip_serializing_if)] — a None \
                 serialises as an explicit null and flips every pinned golden digest"
            ),
        });
    }
    if ty == "u64" && word_starts(attrs, "default").is_empty() {
        out.push(Finding {
            file: m.rel.clone(),
            line: number,
            rule: R5,
            message: format!(
                "counter field `{name}` (u64) without #[serde(default)] — snapshots and \
                 reports written before the field existed must still deserialize"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::analyze;

    #[test]
    fn word_starts_respects_boundaries() {
        assert_eq!(word_starts("map maple remap map", "map"), vec![0, 16]);
    }

    #[test]
    fn let_binding_names() {
        assert_eq!(
            let_binding_name("    let mut entries = x.lock();"),
            Some("entries".into())
        );
        assert_eq!(
            let_binding_name("let seen = HashSet::new();"),
            Some("seen".into())
        );
        assert_eq!(let_binding_name("entries.insert(k);"), None);
    }

    #[test]
    fn chain_banned_walks_intermediate_calls() {
        let code = "m.lock().keys()";
        assert_eq!(chain_banned(code, 1).as_deref(), Some("keys"));
        assert_eq!(chain_banned("m.len()", 1), None);
        assert_eq!(chain_banned("m.get(&k)?.insert(v)", 1), None);
    }

    #[test]
    fn r1_ignores_non_iterating_uses() {
        let src = "use std::collections::HashSet;\n\
                   fn dedup(seen: &mut HashSet<usize>, v: usize) -> bool {\n\
                   seen.insert(v)\n\
                   }\n";
        let m = analyze("crates/online/src/federation/merge.rs", src);
        assert!(check_model(&m).is_empty());
    }

    #[test]
    fn r4_sites_skip_tests_and_unwrap_or() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
                   fn g(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { Some(1).unwrap(); }\n\
                   }\n";
        let m = analyze("crates/online/src/state.rs", src);
        assert_eq!(panic_sites(&m), vec![2]);
    }
}
