//! Serialisable platform specifications: processor lines, whole
//! clusters, and federation member specs (the `Join` membership
//! event's payload).
//!
//! The JSON schema is deliberately tiny:
//!
//! ```json
//! {
//!   "bandwidth": 1.0,
//!   "processors": [
//!     { "name": "C2", "speed": 32, "memory": 192, "count": 6 },
//!     { "name": "N1", "speed": 12, "memory": 16 }
//!   ]
//! }
//! ```
//!
//! `count` (default 1) expands a line into that many identical
//! machines, mirroring the paper's "six of each kind" cluster
//! construction. A [`MemberSpec`] additionally accepts a paper
//! configuration name (`"name": "lesshet"`) instead of inline
//! processor lines, so membership plans can say "join another lesshet
//! member" without repeating the platform table.

use crate::{configs, Cluster, Processor};
use serde::{Deserialize, Serialize};

/// One processor line of a cluster file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProcSpec {
    /// Machine kind label.
    pub name: String,
    /// Speed `s_j`.
    pub speed: f64,
    /// Memory size `M_j`.
    pub memory: f64,
    /// Number of identical machines of this kind.
    #[serde(default = "one")]
    pub count: usize,
}

fn one() -> usize {
    1
}

/// A whole cluster file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Uniform bandwidth `β`.
    #[serde(default = "unit")]
    pub bandwidth: f64,
    /// Machine lines.
    pub processors: Vec<ProcSpec>,
}

fn unit() -> f64 {
    1.0
}

impl ClusterSpec {
    /// Expands the spec into a [`Cluster`].
    pub fn build(&self) -> Result<Cluster, String> {
        let mut procs = Vec::new();
        // `x > 0.0` is false for NaN; the vendored parser reads an
        // out-of-range literal such as `1e999` as infinity.
        let positive = |x: f64| x > 0.0 && x.is_finite();
        for p in &self.processors {
            if !positive(p.speed) || !positive(p.memory) {
                return Err(format!(
                    "processor {:?}: speed and memory must be positive and finite",
                    p.name
                ));
            }
            for _ in 0..p.count {
                procs.push(Processor::new(p.name.clone(), p.speed, p.memory));
            }
        }
        if procs.is_empty() {
            return Err("cluster file defines no processors".to_string());
        }
        if !positive(self.bandwidth) {
            return Err("bandwidth must be positive and finite".to_string());
        }
        Ok(Cluster::new(procs, self.bandwidth))
    }

    /// Captures an existing cluster (used to emit example files).
    pub fn from_cluster(cluster: &Cluster) -> ClusterSpec {
        let mut lines: Vec<ProcSpec> = Vec::new();
        for (_, p) in cluster.iter() {
            match lines
                .iter_mut()
                .find(|l| l.name == p.kind && l.speed == p.speed && l.memory == p.memory)
            {
                Some(l) => l.count += 1,
                None => lines.push(ProcSpec {
                    name: p.kind.clone(),
                    speed: p.speed,
                    memory: p.memory,
                    count: 1,
                }),
            }
        }
        ClusterSpec {
            bandwidth: cluster.bandwidth,
            processors: lines,
        }
    }
}

/// Resolves one of the paper's named platform configurations
/// (`default`, `small`, `large`, `morehet`, `lesshet`, `nohet`).
pub fn named_cluster(name: &str) -> Option<Cluster> {
    match name {
        "default" => Some(configs::default_cluster()),
        "small" => Some(configs::small_cluster()),
        "large" => Some(configs::large_cluster()),
        "morehet" => Some(configs::more_het_cluster()),
        "lesshet" => Some(configs::less_het_cluster()),
        "nohet" => Some(configs::no_het_cluster()),
        _ => None,
    }
}

/// A federation member specification — the payload of a `Join`
/// membership event. Exactly one of `name` (a paper configuration) or
/// inline `processors` must be given; `bandwidth` applies to the
/// inline form only.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MemberSpec {
    /// A paper configuration name (`default`, `small`, `large`,
    /// `morehet`, `lesshet`, `nohet`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub name: Option<String>,
    /// Uniform bandwidth `β` of the inline form.
    #[serde(default = "unit")]
    pub bandwidth: f64,
    /// Inline machine lines (the [`ClusterSpec`] schema).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub processors: Vec<ProcSpec>,
}

impl MemberSpec {
    /// Expands the spec into the joining member's [`Cluster`].
    pub fn build(&self) -> Result<Cluster, String> {
        match (&self.name, self.processors.is_empty()) {
            (Some(_), false) => {
                Err("member spec gives both a name and inline processors".to_string())
            }
            (Some(name), true) => named_cluster(name)
                .ok_or_else(|| format!("unknown platform configuration {name:?}")),
            (None, false) => ClusterSpec {
                bandwidth: self.bandwidth,
                processors: self.processors.clone(),
            }
            .build(),
            (None, true) => Err("member spec needs a name or inline processors".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_clusters_resolve() {
        for (name, procs) in [
            ("default", 36),
            ("small", 18),
            ("large", 60),
            ("morehet", 36),
            ("lesshet", 36),
            ("nohet", 36),
        ] {
            let c = named_cluster(name).unwrap();
            assert_eq!(c.len(), procs, "{name}");
        }
        assert!(named_cluster("nosuch").is_none());
    }

    #[test]
    fn member_spec_builds_both_forms() {
        let named: MemberSpec = serde_json::from_str(r#"{ "name": "small" }"#).unwrap();
        assert_eq!(named.build().unwrap().len(), 18);

        let inline: MemberSpec = serde_json::from_str(
            r#"{ "bandwidth": 2.0, "processors": [
                { "name": "a", "speed": 4, "memory": 16, "count": 3 } ] }"#,
        )
        .unwrap();
        let c = inline.build().unwrap();
        assert_eq!((c.len(), c.bandwidth), (3, 2.0));
    }

    #[test]
    fn member_spec_rejects_ambiguous_and_empty_forms() {
        let both = MemberSpec {
            name: Some("small".into()),
            bandwidth: 1.0,
            processors: vec![ProcSpec {
                name: "x".into(),
                speed: 1.0,
                memory: 1.0,
                count: 1,
            }],
        };
        assert!(both.build().is_err());
        let neither = MemberSpec {
            name: None,
            bandwidth: 1.0,
            processors: vec![],
        };
        assert!(neither.build().is_err());
        let unknown = MemberSpec {
            name: Some("nosuch".into()),
            bandwidth: 1.0,
            processors: vec![],
        };
        assert!(unknown.build().is_err());
        // Inline numbers go through `ClusterSpec::build`, which refuses
        // a non-finite speed, memory or bandwidth with the culprit named.
        let line = |speed: f64, memory: f64| ProcSpec {
            name: "x".into(),
            speed,
            memory,
            count: 1,
        };
        for (bandwidth, proc, named) in [
            (1.0, line(f64::NAN, 1.0), "\"x\""),
            (1.0, line(1.0, f64::INFINITY), "\"x\""),
            (f64::INFINITY, line(1.0, 1.0), "bandwidth"),
            (f64::NAN, line(1.0, 1.0), "bandwidth"),
        ] {
            let spec = MemberSpec {
                name: None,
                bandwidth,
                processors: vec![proc],
            };
            let err = spec.build().unwrap_err();
            assert!(err.contains(named) && err.contains("finite"), "{err}");
        }
    }
}
