//! Fleet membership events: the chaos layer of the federation.
//!
//! A [`MembershipPlan`] is a serialisable, time-ordered list of
//! membership events merged into the federated virtual clock alongside
//! completions and arrivals (`daghetpart queue --chaos events.json`):
//!
//! * **Drain** `{ member, at }` — the member stops accepting work:
//!   its queued workflows migrate to surviving members, in-service
//!   work runs to completion, and routing/spillover never target it
//!   again.
//! * **Fail** `{ member, at, mode }` — the member vanishes: queued
//!   workflows migrate like a drain, and in-service workflows are
//!   handled per the [`FailureMode`] — `requeue` rebuilds them as
//!   pending submissions (original arrival and id) on surviving
//!   members, `lost` records them in the disjoint `lost` terminal
//!   class with exact-sum accounting.
//! * **Join** `{ spec, at }` — a new member (a
//!   [`MemberSpec`]: a paper configuration name or inline processor
//!   lines) appears mid-serve; the spillover sweep rebalances blocked
//!   work onto it from the very next event.
//!
//! The JSON schema is flat — one object per event:
//!
//! ```json
//! { "events": [
//!   { "kind": "drain", "member": 1, "at": 50.0 },
//!   { "kind": "fail",  "member": 0, "at": 80.0, "mode": "requeue" },
//!   { "kind": "join",  "at": 120.0, "spec": { "name": "lesshet" } }
//! ] }
//! ```
//!
//! [`MembershipPlan::resolve`] validates the plan against the initial
//! member count (join events extend the index range in time order) and
//! produces the engine-facing [`MembershipEvent`] stream. An empty
//! plan leaves the federated run byte-identical to
//! [`serve_federation`](crate::federation::serve_federation).

use dhp_platform::{Cluster, ClusterSpec, MemberSpec};
use serde::{Deserialize, Serialize};

/// What happens to a failing member's in-service workflows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureMode {
    /// In-service workflows are rebuilt as pending submissions (their
    /// original arrival instant and id) and re-enter admission on the
    /// surviving members; the work already executed is discarded.
    Requeue,
    /// In-service workflows die with the member and become `lost`
    /// records — a third terminal class, disjoint from `completed` and
    /// `rejected`, with exact-sum fleet accounting.
    Lost,
}

impl FailureMode {
    /// Display/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FailureMode::Requeue => "requeue",
            FailureMode::Lost => "lost",
        }
    }

    /// Parses a CLI/JSON failure-mode name.
    pub fn parse(s: &str) -> Option<FailureMode> {
        match s {
            "requeue" => Some(FailureMode::Requeue),
            "lost" => Some(FailureMode::Lost),
            _ => None,
        }
    }
}

/// A resolved membership event, ready for the federated event loop.
/// Produced by [`MembershipPlan::resolve`]; ordered by instant (ties
/// keep plan order). At equal instants the engine processes
/// completions first, then membership events, then arrivals — a
/// workflow finishing the moment its member fails still completes, and
/// a member joining the moment a workflow arrives can receive it.
#[derive(Clone, Debug)]
pub enum MembershipEvent {
    /// Stop routing to `member`; migrate its queue, let in-service
    /// work finish.
    Drain {
        /// Member index (join events extend the range in time order).
        member: usize,
        /// Event instant on the merged virtual clock.
        at: f64,
    },
    /// Remove `member`; migrate its queue and apply `mode` to its
    /// in-service workflows.
    Fail {
        /// Member index.
        member: usize,
        /// Event instant.
        at: f64,
        /// In-service workflow disposition.
        mode: FailureMode,
    },
    /// Add a new member cluster at the next free index.
    Join {
        /// The joining member's platform.
        cluster: Cluster,
        /// Event instant.
        at: f64,
    },
}

impl MembershipEvent {
    /// The event's instant on the merged virtual clock.
    pub fn at(&self) -> f64 {
        match self {
            MembershipEvent::Drain { at, .. }
            | MembershipEvent::Fail { at, .. }
            | MembershipEvent::Join { at, .. } => *at,
        }
    }
}

/// One serialised membership event: a flat tagged record (`kind` is
/// `"drain"`, `"fail"` or `"join"`; the other fields apply per kind —
/// see the module docs for the schema).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MembershipEventSpec {
    /// `"drain"`, `"fail"` or `"join"`.
    pub kind: String,
    /// Event instant on the merged virtual clock.
    pub at: f64,
    /// Target member index (`drain` and `fail`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub member: Option<usize>,
    /// Failure mode name (`fail` only): `"requeue"` or `"lost"`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub mode: Option<String>,
    /// The joining member's platform (`join` only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub spec: Option<MemberSpec>,
}

/// A serialisable membership/chaos plan: the payload of
/// `daghetpart queue --chaos events.json`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MembershipPlan {
    /// The events, in any order; [`MembershipPlan::resolve`] sorts by
    /// instant (stable, so equal instants keep plan order).
    pub events: Vec<MembershipEventSpec>,
}

impl MembershipPlan {
    /// An empty plan (serving proceeds exactly as without chaos).
    pub fn new() -> MembershipPlan {
        MembershipPlan::default()
    }

    /// True when the plan holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends a drain event (builder style).
    pub fn drain(mut self, member: usize, at: f64) -> MembershipPlan {
        self.events.push(MembershipEventSpec {
            kind: "drain".into(),
            at,
            member: Some(member),
            mode: None,
            spec: None,
        });
        self
    }

    /// Appends a fail event (builder style).
    pub fn fail(mut self, member: usize, at: f64, mode: FailureMode) -> MembershipPlan {
        self.events.push(MembershipEventSpec {
            kind: "fail".into(),
            at,
            member: Some(member),
            mode: Some(mode.name().to_string()),
            spec: None,
        });
        self
    }

    /// Appends a join event (builder style).
    pub fn join(mut self, spec: MemberSpec, at: f64) -> MembershipPlan {
        self.events.push(MembershipEventSpec {
            kind: "join".into(),
            at,
            member: None,
            mode: None,
            spec: Some(spec),
        });
        self
    }

    /// Fills `mode` in on every `fail` event that omitted it — the
    /// semantics of the CLI's `--failure-mode` flag (an explicit
    /// per-event mode always wins over the flag).
    pub fn with_default_mode(mut self, mode: FailureMode) -> MembershipPlan {
        for e in &mut self.events {
            if e.kind == "fail" && e.mode.is_none() {
                e.mode = Some(mode.name().to_string());
            }
        }
        self
    }

    /// Rebuilds every join member's cluster through `f`, re-inlining
    /// the result as explicit processor lines. The CLI routes joiners
    /// through the same `fit_cluster` headroom scaling the initial
    /// `--clusters` members get — without it a named joiner keeps its
    /// raw paper memory profile and silently fails every placement
    /// probe against a workload fitted to the scaled members.
    pub fn map_join_clusters(
        mut self,
        f: impl Fn(Cluster) -> Cluster,
    ) -> Result<MembershipPlan, String> {
        for (i, e) in self.events.iter_mut().enumerate() {
            if e.kind != "join" {
                continue;
            }
            let spec = e
                .spec
                .as_ref()
                .ok_or_else(|| format!("event {i}: join needs `spec`"))?;
            let cluster = f(spec.build().map_err(|err| format!("event {i}: {err}"))?);
            let inline = ClusterSpec::from_cluster(&cluster);
            e.spec = Some(MemberSpec {
                name: None,
                bandwidth: inline.bandwidth,
                processors: inline.processors,
            });
        }
        Ok(self)
    }

    /// Pretty-printed JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| unreachable!("plan serialisation cannot fail: {e}"))
    }

    /// Parses a JSON plan.
    pub fn from_json(s: &str) -> Result<MembershipPlan, String> {
        serde_json::from_str(s).map_err(|e| format!("invalid membership plan: {e}"))
    }

    /// Validates the plan against a federation of `initial_members`
    /// and produces the time-ordered engine event stream. Join events
    /// take the next free member index *in time order*, so a later
    /// event may target a member an earlier join created. Instants
    /// must be finite and non-negative; `fail` needs a known mode;
    /// `join` needs a buildable member spec.
    pub fn resolve(&self, initial_members: usize) -> Result<Vec<MembershipEvent>, String> {
        if initial_members == 0 {
            return Err("the federation has no members to apply events to".to_string());
        }
        // Stable sort first: member-index validation must see joins in
        // the order they actually happen on the clock.
        let mut ordered: Vec<(usize, &MembershipEventSpec)> =
            self.events.iter().enumerate().collect();
        ordered.sort_by(|a, b| a.1.at.total_cmp(&b.1.at));
        let mut count = initial_members;
        let mut out = Vec::with_capacity(ordered.len());
        for (i, e) in ordered {
            if !e.at.is_finite() || e.at < 0.0 {
                return Err(format!(
                    "event {i}: `at` must be finite and non-negative, got {}",
                    e.at
                ));
            }
            match e.kind.as_str() {
                "drain" => {
                    let m = e
                        .member
                        .ok_or_else(|| format!("event {i}: drain needs `member`"))?;
                    if m >= count {
                        return Err(format!(
                            "event {i}: member {m} out of range ({count} members at t={})",
                            e.at
                        ));
                    }
                    out.push(MembershipEvent::Drain {
                        member: m,
                        at: e.at,
                    });
                }
                "fail" => {
                    let m = e
                        .member
                        .ok_or_else(|| format!("event {i}: fail needs `member`"))?;
                    if m >= count {
                        return Err(format!(
                            "event {i}: member {m} out of range ({count} members at t={})",
                            e.at
                        ));
                    }
                    let mode = e
                        .mode
                        .as_deref()
                        .ok_or_else(|| format!("event {i}: fail needs `mode` (requeue|lost)"))?;
                    let mode = FailureMode::parse(mode)
                        .ok_or_else(|| format!("event {i}: unknown failure mode {mode:?}"))?;
                    out.push(MembershipEvent::Fail {
                        member: m,
                        at: e.at,
                        mode,
                    });
                }
                "join" => {
                    let spec = e
                        .spec
                        .as_ref()
                        .ok_or_else(|| format!("event {i}: join needs `spec`"))?;
                    let cluster = spec.build().map_err(|err| format!("event {i}: {err}"))?;
                    count += 1;
                    out.push(MembershipEvent::Join { cluster, at: e.at });
                }
                other => {
                    return Err(format!(
                        "event {i}: unknown kind {other:?} (drain|fail|join)"
                    ));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_modes_roundtrip() {
        for m in [FailureMode::Requeue, FailureMode::Lost] {
            assert_eq!(FailureMode::parse(m.name()), Some(m));
        }
        assert_eq!(FailureMode::parse("nosuch"), None);
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = MembershipPlan::new()
            .drain(1, 50.0)
            .fail(0, 80.0, FailureMode::Requeue)
            .join(
                MemberSpec {
                    name: Some("lesshet".into()),
                    bandwidth: 1.0,
                    processors: vec![],
                },
                120.0,
            );
        // Each kind's unused fields stay out of its JSON.
        let event = |i: usize| serde_json::to_string(&plan.events[i]).unwrap();
        assert!(!event(0).contains("mode") && !event(0).contains("spec"));
        assert!(event(1).contains("mode") && !event(1).contains("spec"));
        assert!(!event(2).contains("member") && !event(2).contains("mode"));
        let back = MembershipPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back.events.len(), 3);
        assert_eq!(back.to_json(), plan.to_json());
        // A drain + fail plan's JSON with every `#[serde(default)]` key
        // removed still parses, to the defaults.
        let bare = MembershipPlan::from_json(
            r#"{"events": [{"kind": "drain", "at": 50}, {"kind": "fail", "at": 80}]}"#,
        )
        .unwrap();
        assert_eq!(bare.events.len(), 2);
        for e in &bare.events {
            assert!(e.member.is_none() && e.mode.is_none() && e.spec.is_none());
        }
        let events = back.resolve(2).unwrap();
        assert_eq!(events.len(), 3);
        assert!(matches!(
            events[0],
            MembershipEvent::Drain { member: 1, .. }
        ));
        assert!(matches!(
            events[1],
            MembershipEvent::Fail {
                member: 0,
                mode: FailureMode::Requeue,
                ..
            }
        ));
        assert!(matches!(events[2], MembershipEvent::Join { .. }));
    }

    #[test]
    fn resolve_orders_by_instant_and_tracks_joins() {
        // A later event may target the member an earlier join created
        // — indices are validated in time order, not plan order.
        let plan = MembershipPlan::new().drain(2, 90.0).join(
            MemberSpec {
                name: Some("small".into()),
                bandwidth: 1.0,
                processors: vec![],
            },
            10.0,
        );
        let events = plan.resolve(2).unwrap();
        assert!(matches!(events[0], MembershipEvent::Join { .. }));
        assert!(matches!(
            events[1],
            MembershipEvent::Drain { member: 2, .. }
        ));
        // Without the join the same drain is out of range.
        let bad = MembershipPlan::new().drain(2, 90.0);
        assert!(bad.resolve(2).is_err());
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(MembershipPlan::new().resolve(0).is_err());
        let nan = MembershipPlan {
            events: vec![MembershipEventSpec {
                kind: "drain".into(),
                at: f64::NAN,
                member: Some(0),
                mode: None,
                spec: None,
            }],
        };
        assert!(nan.resolve(1).is_err());
        let no_mode = MembershipPlan {
            events: vec![MembershipEventSpec {
                kind: "fail".into(),
                at: 1.0,
                member: Some(0),
                mode: None,
                spec: None,
            }],
        };
        assert!(no_mode.resolve(1).is_err());
        // `--failure-mode` repairs exactly that case — and never
        // overrides an explicit per-event mode.
        let repaired = no_mode.clone().with_default_mode(FailureMode::Lost);
        assert!(matches!(
            repaired.resolve(1).unwrap()[0],
            MembershipEvent::Fail {
                mode: FailureMode::Lost,
                ..
            }
        ));
        let explicit = MembershipPlan::new()
            .fail(0, 1.0, FailureMode::Requeue)
            .with_default_mode(FailureMode::Lost);
        assert!(matches!(
            explicit.resolve(1).unwrap()[0],
            MembershipEvent::Fail {
                mode: FailureMode::Requeue,
                ..
            }
        ));
        let bad_mode = MembershipPlan::new().fail(0, 1.0, FailureMode::Lost);
        assert!(bad_mode.resolve(1).is_ok());
        let unknown_kind = MembershipPlan {
            events: vec![MembershipEventSpec {
                kind: "explode".into(),
                at: 1.0,
                member: Some(0),
                mode: None,
                spec: None,
            }],
        };
        assert!(unknown_kind.resolve(1).is_err());
        let no_spec = MembershipPlan {
            events: vec![MembershipEventSpec {
                kind: "join".into(),
                at: 1.0,
                member: None,
                mode: None,
                spec: None,
            }],
        };
        assert!(no_spec.resolve(1).is_err());
    }
}
