//! WfCommons JSON interchange (import/export).
//!
//! The paper's simulated workflows come from the WfCommons **WfGen**
//! generator \[9\], which emits instances in the WfCommons JSON format
//! (`wfformat`). This module reads and writes that format so the
//! scheduler can consume *published* WfCommons instances directly and so
//! generated instances can be inspected with WfCommons tooling.
//!
//! The schema has evolved; we accept both common generations:
//!
//! * the flat layout — `workflow.tasks[*]` with `runtimeInSeconds` /
//!   `runtime` and `memoryInBytes` / `memory` inline, `files[*]` with
//!   `link: "input" | "output"`;
//! * `parents` / `children` given either as task-name arrays (old) or as
//!   id arrays (new) — we resolve names first and fall back to ids.
//!
//! Unit policy (documented in DESIGN.md): on import, `runtime` seconds
//! become `work`, and byte quantities are divided by
//! [`ImportConfig::bytes_per_unit`] (default 2³⁰, i.e. model units are
//! GB) — matching the paper's normalisation of trace values into the
//! 1–192 GB processor-memory scale. Export reverses the conversion.

use crate::{SizeClass, WorkflowInstance};
use dhp_dag::{Dag, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One gibibyte: the default scale between bytes and model units.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Import settings.
#[derive(Clone, Debug)]
pub struct ImportConfig {
    /// Bytes per model memory/volume unit (default [`GIB`]).
    pub bytes_per_unit: f64,
    /// Volume assigned to a dependency edge with no matching file
    /// (some instances record precedence but not data), in model units.
    pub default_volume: f64,
    /// Work assigned to a task with no runtime record (the paper gives
    /// weight 1 to tasks without historical data, §5.1.1).
    pub default_work: f64,
}

impl Default for ImportConfig {
    fn default() -> Self {
        Self {
            bytes_per_unit: GIB,
            default_volume: 0.0,
            default_work: 1.0,
        }
    }
}

/// Import errors.
#[derive(Debug)]
pub enum WfError {
    /// The JSON failed to parse.
    Json(serde_json::Error),
    /// A parent/child reference does not resolve to any task.
    UnknownTask(String),
    /// The precedence relation contains a cycle.
    Cyclic,
    /// A task appears twice (by name and id).
    DuplicateTask(String),
    /// A task's work or memory, or an edge's volume, is NaN, infinite
    /// or negative in model units.
    BadWeight {
        /// The task or edge (`task "a"`, `edge "a" -> "b"`).
        owner: String,
        /// `"work"`, `"memory"` or `"volume"`.
        quantity: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for WfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WfError::Json(e) => write!(f, "invalid WfCommons JSON: {e}"),
            WfError::UnknownTask(t) => write!(f, "reference to unknown task {t:?}"),
            WfError::Cyclic => write!(f, "workflow precedence graph is cyclic"),
            WfError::DuplicateTask(t) => write!(f, "duplicate task {t:?}"),
            WfError::BadWeight {
                owner,
                quantity,
                value,
            } => write!(
                f,
                "{owner}: {quantity} {value} is not finite and non-negative"
            ),
        }
    }
}

impl std::error::Error for WfError {}

impl From<serde_json::Error> for WfError {
    fn from(e: serde_json::Error) -> Self {
        WfError::Json(e)
    }
}

// ---------------------------------------------------------------- schema

/// Top-level WfCommons instance document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WfInstance {
    /// Instance name.
    pub name: String,
    /// Format version (`"1.5"` on export).
    #[serde(
        default,
        rename = "schemaVersion",
        skip_serializing_if = "Option::is_none"
    )]
    pub schema_version: Option<String>,
    /// The workflow body.
    pub workflow: WfWorkflow,
}

/// `workflow` object: the task list.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WfWorkflow {
    /// Tasks with inline execution data (flat layout).
    pub tasks: Vec<WfTask>,
}

/// One task entry.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WfTask {
    /// Task name (primary key in old instances).
    pub name: String,
    /// Task id (primary key in new instances).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub id: Option<String>,
    /// Names (or ids) of predecessor tasks.
    #[serde(default)]
    pub parents: Vec<String>,
    /// Names (or ids) of successor tasks.
    #[serde(default)]
    pub children: Vec<String>,
    /// Runtime in seconds (new name).
    #[serde(
        default,
        rename = "runtimeInSeconds",
        alias = "runtime",
        skip_serializing_if = "Option::is_none"
    )]
    pub runtime_in_seconds: Option<f64>,
    /// Peak memory in bytes (new name).
    #[serde(
        default,
        rename = "memoryInBytes",
        alias = "memory",
        skip_serializing_if = "Option::is_none"
    )]
    pub memory_in_bytes: Option<f64>,
    /// Produced/consumed files.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub files: Vec<WfFile>,
}

/// One file entry of a task.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WfFile {
    /// `"input"` or `"output"` relative to the owning task.
    pub link: WfLink,
    /// File name; output files of one task match input files of another
    /// by name.
    pub name: String,
    /// Size in bytes.
    #[serde(rename = "sizeInBytes", alias = "size")]
    pub size_in_bytes: f64,
}

/// Direction of a file relative to its task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum WfLink {
    /// The task reads this file.
    Input,
    /// The task writes this file.
    Output,
}

// ---------------------------------------------------------------- import

/// Parses a WfCommons JSON document into a [`WorkflowInstance`].
pub fn from_json(json: &str, cfg: &ImportConfig) -> Result<WorkflowInstance, WfError> {
    let doc: WfInstance = serde_json::from_str(json)?;
    from_instance(&doc, cfg)
}

/// Converts an already-parsed document.
pub fn from_instance(doc: &WfInstance, cfg: &ImportConfig) -> Result<WorkflowInstance, WfError> {
    let tasks = &doc.workflow.tasks;
    let mut g = Dag::with_capacity(tasks.len(), tasks.len() * 2);

    // Key tasks by name and (secondarily) by id.
    let mut index: HashMap<&str, NodeId> = HashMap::new();
    for t in tasks {
        let u = g.add_node(
            t.runtime_in_seconds.unwrap_or(cfg.default_work),
            t.memory_in_bytes.unwrap_or(0.0) / cfg.bytes_per_unit,
        );
        g.set_label(u, Some(&t.name));
        if index.insert(t.name.as_str(), u).is_some() {
            return Err(WfError::DuplicateTask(t.name.clone()));
        }
        if let Some(id) = &t.id {
            if id != &t.name && index.insert(id.as_str(), u).is_some() {
                return Err(WfError::DuplicateTask(id.clone()));
            }
        }
    }

    // Producer of every output file, for edge volumes.
    let mut produced: HashMap<&str, (NodeId, f64)> = HashMap::new();
    for t in tasks {
        let u = index[t.name.as_str()];
        for f in &t.files {
            if f.link == WfLink::Output {
                produced.insert(f.name.as_str(), (u, f.size_in_bytes));
            }
        }
    }

    // Edges: the union of the explicit parent/child lists, with volume
    // from matching files where available. Duplicate declarations (u
    // listed as parent of v *and* v as child of u) are inserted once.
    let mut seen: HashMap<(NodeId, NodeId), ()> = HashMap::new();
    let mut add_edge = |g: &mut Dag, u: NodeId, v: NodeId, vol: f64| {
        if seen.insert((u, v), ()).is_none() {
            g.add_edge(u, v, vol);
        }
    };
    for t in tasks {
        let v = index[t.name.as_str()];
        // Volume from input files whose producer is known.
        let mut vol_from: HashMap<NodeId, f64> = HashMap::new();
        for f in &t.files {
            if f.link == WfLink::Input {
                if let Some(&(u, size)) = produced.get(f.name.as_str()) {
                    *vol_from.entry(u).or_insert(0.0) += size;
                }
            }
        }
        for p in &t.parents {
            let u = *index
                .get(p.as_str())
                .ok_or_else(|| WfError::UnknownTask(p.clone()))?;
            let vol = vol_from
                .get(&u)
                .map_or(cfg.default_volume, |b| b / cfg.bytes_per_unit);
            add_edge(&mut g, u, v, vol);
        }
        for c in &t.children {
            let w = *index
                .get(c.as_str())
                .ok_or_else(|| WfError::UnknownTask(c.clone()))?;
            // Volume for (v, w) is resolved from w's perspective when w
            // is processed; default here covers children-only documents.
            add_edge(&mut g, v, w, cfg.default_volume);
        }
    }
    // Children-only documents got default volumes above; fix them up
    // from the file table in a second pass.
    for t in tasks {
        let v = index[t.name.as_str()];
        for f in &t.files {
            if f.link == WfLink::Input {
                if let Some(&(u, size)) = produced.get(f.name.as_str()) {
                    if let Some(e) = g.edge_between(u, v) {
                        let cur = g.edge(e).volume;
                        let vol = size / cfg.bytes_per_unit;
                        if cur == cfg.default_volume && vol > cur {
                            g.edge_mut(e).volume = vol;
                        }
                    }
                }
            }
        }
    }

    check_weights(&g, tasks)?;
    if g.check_acyclic().is_err() {
        return Err(WfError::Cyclic);
    }
    let n = g.node_count();
    Ok(WorkflowInstance {
        name: doc.name.clone(),
        family: None,
        size_class: if n < 200 {
            SizeClass::Real
        } else {
            SizeClass::of_size(n)
        },
        requested_size: n,
        graph: g.into(),
    })
}

/// Refuses the first NaN, infinite or negative weight of `g`, whose
/// nodes are `tasks` in order: a byte count past `f64::MAX` (`1e400`)
/// reads as infinity, and negative sizes would make negative volumes.
fn check_weights(g: &Dag, tasks: &[WfTask]) -> Result<(), WfError> {
    let ok = |x: f64| x.is_finite() && x >= 0.0;
    let name = |u: NodeId| format!("{:?}", tasks[u.idx()].name);
    let refuse = |owner, quantity, value| {
        Err(WfError::BadWeight {
            owner,
            quantity,
            value,
        })
    };
    for u in g.node_ids() {
        let node = g.node(u);
        for (quantity, value) in [("work", node.work), ("memory", node.memory)] {
            if !ok(value) {
                return refuse(format!("task {}", name(u)), quantity, value);
            }
        }
    }
    for e in g.edge_ids().map(|e| g.edge(e)) {
        if !ok(e.volume) {
            let owner = format!("edge {} -> {}", name(e.src), name(e.dst));
            return refuse(owner, "volume", e.volume);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- export

/// Serialises an instance into a WfCommons document. Edge volumes become
/// one file per edge, named `<src>_to_<dst>`, listed as an output of the
/// producer and an input of the consumer.
pub fn to_instance(inst: &WorkflowInstance, bytes_per_unit: f64) -> WfInstance {
    let g = &inst.graph;
    let task_name = |u: NodeId| {
        g.label(u)
            .map_or_else(|| format!("task{}", u.idx()), str::to_string)
    };
    let tasks = g
        .node_ids()
        .map(|u| {
            let mut files = Vec::new();
            for &e in g.out_edges(u) {
                files.push(WfFile {
                    link: WfLink::Output,
                    name: format!("{}_to_{}", u.idx(), g.edge(e).dst.idx()),
                    size_in_bytes: g.edge(e).volume * bytes_per_unit,
                });
            }
            for &e in g.in_edges(u) {
                files.push(WfFile {
                    link: WfLink::Input,
                    name: format!("{}_to_{}", g.edge(e).src.idx(), u.idx()),
                    size_in_bytes: g.edge(e).volume * bytes_per_unit,
                });
            }
            WfTask {
                name: task_name(u),
                id: Some(format!("{}", u.idx())),
                parents: g.parents(u).map(task_name).collect(),
                children: g.children(u).map(task_name).collect(),
                runtime_in_seconds: Some(g.node(u).work),
                memory_in_bytes: Some(g.node(u).memory * bytes_per_unit),
                files,
            }
        })
        .collect();
    WfInstance {
        name: inst.name.clone(),
        schema_version: Some("1.5".to_string()),
        workflow: WfWorkflow { tasks },
    }
}

/// Serialises an instance to a pretty-printed WfCommons JSON string.
pub fn to_json(inst: &WorkflowInstance, bytes_per_unit: f64) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(&to_instance(inst, bytes_per_unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Family;

    fn roundtrip(inst: &WorkflowInstance) -> WorkflowInstance {
        let json = to_json(inst, GIB).unwrap();
        from_json(&json, &ImportConfig::default()).expect("roundtrip import")
    }

    #[test]
    fn roundtrip_preserves_structure_and_weights() {
        let inst = WorkflowInstance::simulated(Family::Montage, 200, 5);
        let back = roundtrip(&inst);
        let (a, b) = (&inst.graph, &back.graph);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert!((a.total_work() - b.total_work()).abs() < 1e-6 * a.total_work());
        assert!((a.total_memory() - b.total_memory()).abs() < 1e-6 * a.total_memory());
        assert!((a.total_volume() - b.total_volume()).abs() < 1e-6 * a.total_volume());
        assert_eq!(back.name, inst.name);
    }

    #[test]
    fn roundtrip_every_family_small() {
        for family in Family::ALL {
            let inst = WorkflowInstance::simulated(family, 200, 11);
            let back = roundtrip(&inst);
            assert_eq!(
                back.graph.node_count(),
                inst.graph.node_count(),
                "{}",
                family.name()
            );
            assert_eq!(
                back.graph.edge_count(),
                inst.graph.edge_count(),
                "{}",
                family.name()
            );
        }
    }

    #[test]
    fn imports_old_style_parents_with_runtime_alias() {
        let json = r#"{
            "name": "mini",
            "workflow": { "tasks": [
                { "name": "a", "runtime": 3.0, "memory": 2147483648,
                  "files": [ { "link": "output", "name": "f1", "sizeInBytes": 1073741824 } ] },
                { "name": "b", "parents": ["a"], "runtimeInSeconds": 5.0,
                  "files": [ { "link": "input", "name": "f1", "sizeInBytes": 1073741824 } ] }
            ] }
        }"#;
        let inst = from_json(json, &ImportConfig::default()).unwrap();
        let g = &inst.graph;
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let a = g.node_ids().next().unwrap();
        assert_eq!(g.node(a).work, 3.0);
        assert_eq!(g.node(a).memory, 2.0); // 2 GiB
        let e = g.edge_ids().next().unwrap();
        assert_eq!(g.edge(e).volume, 1.0); // 1 GiB file
    }

    #[test]
    fn imports_children_only_documents() {
        let json = r#"{
            "name": "childonly",
            "workflow": { "tasks": [
                { "name": "src", "children": ["t1", "t2"], "runtimeInSeconds": 1.0,
                  "files": [ { "link": "output", "name": "o1", "sizeInBytes": 3221225472 } ] },
                { "name": "t1", "runtimeInSeconds": 2.0,
                  "files": [ { "link": "input", "name": "o1", "sizeInBytes": 3221225472 } ] },
                { "name": "t2", "runtimeInSeconds": 2.0 }
            ] }
        }"#;
        let inst = from_json(json, &ImportConfig::default()).unwrap();
        let g = &inst.graph;
        assert_eq!(g.edge_count(), 2);
        // t1's edge got its volume from the file table in the second pass.
        let vols: Vec<f64> = g.edge_ids().map(|e| g.edge(e).volume).collect();
        assert!(vols.contains(&3.0));
        assert!(vols.contains(&0.0)); // t2: precedence only
    }

    #[test]
    fn a_non_finite_or_negative_weight_is_refused_with_its_owner_named() {
        let doc = |runtime: &str, memory: &str, size: &str| {
            format!(
                r#"{{ "name": "hostile", "workflow": {{ "tasks": [
                    {{ "name": "a", "runtimeInSeconds": {runtime}, "memoryInBytes": {memory},
                       "files": [ {{ "link": "output", "name": "f", "sizeInBytes": {size} }} ] }},
                    {{ "name": "b", "parents": ["a"],
                       "files": [ {{ "link": "input", "name": "f", "sizeInBytes": {size} }} ] }}
                ] }} }}"#
            )
        };
        let cfg = ImportConfig::default();
        for bad in ["-3", "1e400", "-1e400"] {
            for (json, owner, quantity) in [
                (doc(bad, "1", "1"), r#"task "a""#, "work"),
                (doc("1", bad, "1"), r#"task "a""#, "memory"),
                (doc("1", "1", bad), r#"edge "a" -> "b""#, "volume"),
            ] {
                let err = from_json(&json, &cfg).unwrap_err();
                let text = err.to_string();
                let WfError::BadWeight {
                    owner: o,
                    quantity: q,
                    value,
                } = err
                else {
                    panic!("{bad} {quantity}: {text}");
                };
                assert_eq!((o.as_str(), q), (owner, quantity));
                assert!(!value.is_finite() || value < 0.0, "{value}");
                assert!(text.contains(owner) && text.contains(quantity), "{text}");
            }
        }
        // A zero bytes-per-unit makes a zero memory NaN.
        let zero = ImportConfig {
            bytes_per_unit: 0.0,
            ..ImportConfig::default()
        };
        let err = from_json(&doc("1", "0", "1"), &zero).unwrap_err();
        assert!(
            matches!(err, WfError::BadWeight { quantity: "memory", value, .. } if value.is_nan()),
            "{err}"
        );
        // Zero weights are weights.
        let inst = from_json(&doc("0", "0", "0"), &cfg).unwrap();
        assert_eq!(inst.graph.edge_count(), 1);
    }

    #[test]
    fn tasks_without_runtime_get_paper_weight_one() {
        let json = r#"{ "name": "x", "workflow": { "tasks": [ { "name": "only" } ] } }"#;
        let inst = from_json(json, &ImportConfig::default()).unwrap();
        let u = inst.graph.node_ids().next().unwrap();
        assert_eq!(inst.graph.node(u).work, 1.0);
        assert_eq!(inst.graph.node(u).memory, 0.0);
    }

    #[test]
    fn duplicate_edges_from_both_directions_inserted_once() {
        let json = r#"{
            "name": "dup",
            "workflow": { "tasks": [
                { "name": "a", "children": ["b"] },
                { "name": "b", "parents": ["a"] }
            ] }
        }"#;
        let inst = from_json(json, &ImportConfig::default()).unwrap();
        assert_eq!(inst.graph.edge_count(), 1);
    }

    #[test]
    fn unknown_reference_is_an_error() {
        let json = r#"{ "name": "bad", "workflow": { "tasks": [
            { "name": "a", "parents": ["ghost"] } ] } }"#;
        match from_json(json, &ImportConfig::default()) {
            Err(WfError::UnknownTask(t)) => assert_eq!(t, "ghost"),
            other => panic!("expected UnknownTask, got {other:?}"),
        }
    }

    #[test]
    fn cyclic_document_is_an_error() {
        let json = r#"{ "name": "cyc", "workflow": { "tasks": [
            { "name": "a", "parents": ["b"] },
            { "name": "b", "parents": ["a"] } ] } }"#;
        assert!(matches!(
            from_json(json, &ImportConfig::default()),
            Err(WfError::Cyclic)
        ));
    }

    #[test]
    fn duplicate_task_is_an_error() {
        let json = r#"{ "name": "dup", "workflow": { "tasks": [
            { "name": "a" }, { "name": "a" } ] } }"#;
        assert!(matches!(
            from_json(json, &ImportConfig::default()),
            Err(WfError::DuplicateTask(_))
        ));
    }

    #[test]
    fn size_class_of_imports_follows_task_count() {
        let inst = WorkflowInstance::simulated(Family::Seismology, 1000, 2);
        let back = roundtrip(&inst);
        assert_eq!(back.size_class, SizeClass::Small);
        let tiny = from_json(
            r#"{ "name": "t", "workflow": { "tasks": [ { "name": "a" } ] } }"#,
            &ImportConfig::default(),
        )
        .unwrap();
        assert_eq!(tiny.size_class, SizeClass::Real);
    }

    #[test]
    fn imported_instance_schedules() {
        // The full loop: generate, export, import, and make sure the
        // imported instance is structurally identical for the scheduler
        // (same quotient-relevant quantities).
        let inst = WorkflowInstance::simulated(Family::Bwa, 200, 3);
        let back = roundtrip(&inst);
        assert_eq!(inst.graph.sources().count(), back.graph.sources().count());
        assert_eq!(inst.graph.targets().count(), back.graph.targets().count());
    }
}
