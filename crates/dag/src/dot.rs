//! GraphViz DOT import/export.
//!
//! The paper converts nf-core nextflow workflows to `.dot` files; this
//! module supports a practical subset of the DOT language sufficient for
//! such exports: `digraph` bodies with node statements carrying
//! `work`/`memory` attributes and edge statements carrying `volume` (or
//! `weight`/`size`, accepted as synonyms).

use crate::graph::{Dag, NodeId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Serialises the graph to DOT, preserving weights as attributes. Names
/// and labels are written as quoted strings with `"` and `\` escaped; an
/// unlabelled task is written `label=""`, which [`from_dot`] reads back
/// as no label.
pub fn to_dot(g: &Dag, name: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "digraph \"{}\" {{", escape(name));
    for u in g.node_ids() {
        let n = g.node(u);
        let label = escape(g.label(u).unwrap_or(""));
        let _ = writeln!(
            s,
            "  n{} [work={}, memory={}, label=\"{label}\"];",
            u.0, n.work, n.memory
        );
    }
    for e in g.edge_ids() {
        let ed = g.edge(e);
        let _ = writeln!(
            s,
            "  n{} -> n{} [volume={}];",
            ed.src.0, ed.dst.0, ed.volume
        );
    }
    s.push_str("}\n");
    s
}

/// Errors produced when parsing DOT input.
#[derive(Debug, PartialEq, Eq)]
pub enum DotError {
    /// The input does not start with a `digraph` header.
    NotADigraph,
    /// A statement could not be parsed; carries the offending line.
    BadStatement(String),
    /// A `work`, `memory` or `volume` is NaN, infinite or negative;
    /// carries the task or edge (`task "a"`, `edge "a" -> "b"`), the
    /// attribute and its text.
    BadWeight {
        /// The task or edge the attribute belongs to.
        owner: String,
        /// The attribute as written (`work`, `mem`, `weight`, ...).
        attr: String,
        /// Its value as written.
        value: String,
    },
}

impl std::fmt::Display for DotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DotError::NotADigraph => write!(f, "input is not a digraph"),
            DotError::BadStatement(l) => write!(f, "cannot parse statement: {l}"),
            DotError::BadWeight { owner, attr, value } => {
                write!(f, "{owner}: {attr}={value} is not finite and non-negative")
            }
        }
    }
}

impl std::error::Error for DotError {}

/// Parses a DOT digraph.
///
/// * Node statements: `name [attr=value, ...];` — `work` and `memory`
///   (alias `mem`) attributes are read, defaults 1.0.
/// * Edge statements: `a -> b [volume=x];` — `volume` (aliases `weight`,
///   `size`) defaults to 1.0. Undeclared endpoint names are created with
///   default weights.
/// * `label` attributes are preserved (`label=""` clears a task's
///   label); other attributes are ignored.
/// * A weight that reads as NaN, infinite or negative is refused
///   ([`DotError::BadWeight`]); one that does not read as a number at
///   all is ignored, like an unknown attribute.
/// * A quoted string may hold any character, `;`, `,`, `[` and `]`
///   included; `\"` and `\\` inside one stand for `"` and `\`.
pub fn from_dot(input: &str) -> Result<Dag, DotError> {
    let mut g = Dag::new();
    let mut ids: HashMap<String, NodeId> = HashMap::new();

    let body_start = unquoted(input, '{').next().ok_or(DotError::NotADigraph)?;
    let header = &input[..body_start];
    if !header.contains("digraph") {
        return Err(DotError::NotADigraph);
    }
    let body_end = unquoted(input, '}').last().ok_or(DotError::NotADigraph)?;
    let body = &input[body_start + 1..body_end];

    let mut intern = |g: &mut Dag, name: &str| -> NodeId {
        if let Some(&id) = ids.get(name) {
            return id;
        }
        let id = g.add_node(1.0, 1.0);
        g.set_label(id, Some(name));
        ids.insert(name.to_string(), id);
        id
    };

    for raw in split_unquoted(body, ';') {
        let stmt = raw.trim();
        if stmt.is_empty() || stmt.starts_with("//") || stmt.starts_with('#') {
            continue;
        }
        let open = unquoted(stmt, '[').next();
        // Skip graph-level attribute statements.
        if let (None, Some(eq)) = (open, unquoted(stmt, '=').next()) {
            if !stmt[..eq].contains("->") {
                continue;
            }
        }
        let (head, attrs) = match open {
            Some(i) => {
                let close = unquoted(stmt, ']')
                    .last()
                    .ok_or_else(|| DotError::BadStatement(stmt.into()))?;
                (stmt[..i].trim(), parse_attrs(&stmt[i + 1..close]))
            }
            None => (stmt, HashMap::new()),
        };
        if head.contains("->") {
            // Possibly a chain a -> b -> c
            let names: Vec<&str> = head.split("->").map(str::trim).collect();
            let owner = || {
                let ends: Vec<String> = names.iter().map(|n| format!("{:?}", unquote(n))).collect();
                format!("edge {}", ends.join(" -> "))
            };
            let volume = weight(&attrs, &["volume", "weight", "size"], owner)?.unwrap_or(1.0);
            for w in names.windows(2) {
                let a = intern(&mut g, &unquote(w[0]));
                let b = intern(&mut g, &unquote(w[1]));
                g.add_edge(a, b, volume);
            }
        } else {
            let name = unquote(head);
            if name.is_empty() || name == "graph" || name == "node" || name == "edge" {
                continue;
            }
            let id = intern(&mut g, &name);
            let owner = || format!("task {name:?}");
            if let Some(w) = weight(&attrs, &["work"], owner)? {
                g.node_mut(id).work = w;
            }
            if let Some(m) = weight(&attrs, &["memory", "mem"], owner)? {
                g.node_mut(id).memory = m;
            }
            if let Some(l) = attrs.get("label") {
                g.set_label(id, Some(l.as_str()).filter(|l| !l.is_empty()));
            }
        }
    }
    Ok(g)
}

/// The first of `keys` present in `attrs`, read as a weight: `None` if
/// absent or not a number, an error naming `owner()` if NaN, infinite
/// or negative.
fn weight(
    attrs: &HashMap<String, String>,
    keys: &[&str],
    owner: impl Fn() -> String,
) -> Result<Option<f64>, DotError> {
    let Some((attr, value)) = keys.iter().find_map(|&k| attrs.get_key_value(k)) else {
        return Ok(None);
    };
    match value.parse::<f64>() {
        Ok(x) if !x.is_finite() || x < 0.0 => Err(DotError::BadWeight {
            owner: owner(),
            attr: attr.clone(),
            value: value.clone(),
        }),
        parsed => Ok(parsed.ok()),
    }
}

/// `s` as the body of a quoted DOT string: `"` and `\` escaped.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Byte offsets of `c` in `s` outside quoted strings. Inside one, a
/// backslash escapes the character after it, so `\"` does not close it.
fn unquoted(s: &str, c: char) -> impl Iterator<Item = usize> + '_ {
    let (mut quoted, mut escaped) = (false, false);
    s.char_indices().filter_map(move |(i, ch)| {
        if escaped {
            escaped = false;
        } else if quoted && ch == '\\' {
            escaped = true;
        } else if ch == '"' {
            quoted = !quoted;
        } else if !quoted && ch == c {
            return Some(i);
        }
        None
    })
}

/// `s` split at every `sep` outside quoted strings.
fn split_unquoted(s: &str, sep: char) -> impl Iterator<Item = &str> + '_ {
    let mut start = 0;
    unquoted(s, sep).chain([s.len()]).map(move |end| {
        let part = &s[start..end];
        start = end + sep.len_utf8();
        part
    })
}

/// A name or attribute value: a quoted string's contents with its
/// escapes undone (a backslash before anything but `"` or `\` is kept,
/// as in DOT's `\n`), or the bare word trimmed.
fn unquote(s: &str) -> String {
    let s = s.trim();
    let Some(inner) = s.strip_prefix('"').and_then(|s| s.strip_suffix('"')) else {
        return s.trim_matches('"').to_string();
    };
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars().peekable();
    while let Some(ch) = chars.next() {
        let escape = ch == '\\' && matches!(chars.peek(), Some('"' | '\\'));
        out.extend(if escape { chars.next() } else { Some(ch) });
    }
    out
}

fn parse_attrs(s: &str) -> HashMap<String, String> {
    let mut out = HashMap::new();
    for part in split_unquoted(s, ',') {
        if let Some((k, v)) = part.split_once('=') {
            out.insert(k.trim().to_string(), unquote(v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeId;

    #[test]
    fn roundtrip() {
        let mut g = Dag::new();
        let a = g.add_node(2.0, 3.0);
        let b = g.add_node(4.0, 5.0);
        g.set_label(a, Some("prep"));
        g.add_edge(a, b, 7.0);
        let dot = to_dot(&g, "wf");
        let h = from_dot(&dot).unwrap();
        assert_eq!(h.node_count(), 2);
        assert_eq!(h.edge_count(), 1);
        assert_eq!(h.node(NodeId(0)).work, 2.0);
        assert_eq!(h.node(NodeId(0)).memory, 3.0);
        assert_eq!(h.label(NodeId(0)), Some("prep"));
        assert_eq!(h.edge(EdgeId(0)).volume, 7.0);
    }

    #[test]
    fn labels_with_dot_syntax_in_them_round_trip() {
        let labels = [
            Some("align; sort"),
            Some(r#"say "hi""#),
            Some(r"back\slash\"),
            Some("a, b=c [x] {y}"),
            Some(r"\n stays two characters"),
            None,
        ];
        let mut g = Dag::new();
        for (i, &label) in labels.iter().enumerate() {
            let u = g.add_node(1.0 + i as f64, 2.0);
            g.set_label(u, label);
        }
        g.add_edge(NodeId(0), NodeId(5), 3.0);
        let h = from_dot(&to_dot(&g, r#"wf "quoted"; {name}"#)).unwrap();
        assert_eq!(h.node_count(), labels.len());
        for (i, &label) in labels.iter().enumerate() {
            let u = NodeId(i as u32);
            assert_eq!(h.label(u), label, "task {i}");
            assert_eq!(h.node(u).work, 1.0 + i as f64);
        }
        assert_eq!(h.edge(EdgeId(0)).volume, 3.0);
        assert_eq!(h.edge_between(NodeId(0), NodeId(5)), Some(EdgeId(0)));
    }

    #[test]
    fn parses_plain_edges_and_chains() {
        let g = from_dot("digraph g { a -> b -> c; b -> d [weight=3]; }").unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        let d = g.node_ids().find(|&u| g.label(u) == Some("d")).unwrap();
        let b = g.node_ids().find(|&u| g.label(u) == Some("b")).unwrap();
        let e = g.edge_between(b, d).unwrap();
        assert_eq!(g.edge(e).volume, 3.0);
    }

    #[test]
    fn rejects_non_digraph() {
        assert_eq!(
            from_dot("graph g { a -- b; }").err(),
            Some(DotError::NotADigraph)
        );
        assert_eq!(from_dot("nonsense").err(), Some(DotError::NotADigraph));
    }

    #[test]
    fn refuses_a_non_finite_or_negative_weight_naming_its_owner() {
        for bad in ["NaN", "inf", "-inf", "-3", "1e400"] {
            let cases = [
                (format!("a [work={bad}]; a -> b"), r#"task "a""#, "work"),
                (format!("a [memory={bad}]; a -> b"), r#"task "a""#, "memory"),
                (format!(r#""x y" [mem="{bad}"]"#), r#"task "x y""#, "mem"),
                (
                    format!("a -> b [volume={bad}]"),
                    r#"edge "a" -> "b""#,
                    "volume",
                ),
                (
                    format!("a -> b -> c [weight={bad}]"),
                    r#"edge "a" -> "b" -> "c""#,
                    "weight",
                ),
            ];
            for (body, owner, attr) in cases {
                let err = from_dot(&format!("digraph g {{ {body}; }}")).unwrap_err();
                let want = DotError::BadWeight {
                    owner: owner.into(),
                    attr: attr.into(),
                    value: bad.into(),
                };
                assert_eq!(err, want, "{body}");
                let text = err.to_string();
                assert!(text.contains(owner) && text.contains(bad), "{text}");
            }
        }
        // Zero, negative zero and a word that is no number still read.
        let g = from_dot("digraph g { a [work=0, memory=-0]; a -> b [volume=abc]; }").unwrap();
        assert_eq!(g.node(NodeId(0)).work, 0.0);
        assert_eq!(g.edge(EdgeId(0)).volume, 1.0);
    }

    #[test]
    fn ignores_keywords_and_graph_attrs() {
        let g =
            from_dot("digraph g { rankdir=LR; node [shape=box]; a [work=5]; a -> b; }").unwrap();
        assert_eq!(g.node_count(), 2);
        let a = g.node_ids().find(|&u| g.label(u) == Some("a")).unwrap();
        assert_eq!(g.node(a).work, 5.0);
    }
}
