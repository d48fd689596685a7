//! The workload table, the fixed data set, and the seed → issue order
//! step.
//!
//! Behaviour is never keyed on a workload's name: everything a run does
//! follows from the fields of its [`Kind`].

use dhp_core::fitting::scale_cluster_with_headroom;
use dhp_online::{AdmissionPolicy, RoutingPolicy, Submission};
use dhp_platform::configs::{cluster, default_cluster, ClusterKind, ClusterSize};
use dhp_platform::{Cluster, Federation};
use dhp_wfgen::arrivals::mixed_workload;
use dhp_wfgen::{Family, WorkflowInstance};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::time::Instant;

/// Memory headroom when a platform is fitted to its workflows (the
/// repository's experiment harness and CLI use the same 5 %).
pub const HEADROOM: f64 = 1.05;

/// Seed of the *data set*: every workflow instance, every recipe and
/// every submission trace is generated from it, like the tables of a
/// database benchmark. `--seed` decides the order in which a repetition
/// issues its calls (see [`issue_order`]); it does not redraw the data,
/// so the work of a run and its quality metrics are the same for every
/// seed and a regression bound can be as tight as the metric deserves.
pub const DATA_SEED: u64 = 17;

/// `count` simulated instances of `family` with about `tasks` tasks.
#[derive(Clone, Copy, Debug)]
pub struct InstanceSpec {
    pub family: Family,
    pub tasks: usize,
    pub count: usize,
}

const fn inst(family: Family, tasks: usize, count: usize) -> InstanceSpec {
    InstanceSpec {
        family,
        tasks,
        count,
    }
}

/// An online serving scenario.
#[derive(Clone, Copy, Debug)]
pub struct OnlineSpec {
    pub families: &'static [Family],
    /// Task-count range of a recipe (inclusive).
    pub tasks: (usize, usize),
    /// Distinct recipes in the catalogue.
    pub catalogue: usize,
    /// Independent traces per repetition, each served by its own call.
    pub traces: usize,
    pub traffic: Traffic,
    /// Uniform spacing of arrivals in virtual time.
    pub interval: f64,
    pub policy: AdmissionPolicy,
    /// `Some((members, routing))` serves through the federation tier.
    pub federation: Option<(usize, RoutingPolicy)>,
    /// One solve cache, filled by the warm-up repetition and shared by
    /// every timed call; otherwise every call starts a fresh cache.
    pub warm: bool,
}

/// How the traces are drawn from the catalogue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// The shuffled catalogue dealt evenly over the traces: every
    /// recipe is submitted exactly once per repetition.
    EachOnce,
    /// This many submissions per trace, each a uniform draw.
    Draws(usize),
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Map each instance alone onto an idle platform (the paper's
    /// setting): DagHetPart + DagHetMem + validation.
    Offline(&'static [InstanceSpec]),
    /// Serve submission traces on a virtual clock.
    Online(OnlineSpec),
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

const FANOUT_FAMILIES: [Family; 3] = [Family::Blast, Family::Seismology, Family::Genome];
const MIXED_FAMILIES: [Family; 5] = [
    Family::Blast,
    Family::Seismology,
    Family::Genome,
    Family::Epigenomics,
    Family::Montage,
];

/// The five workloads. Sizes are chosen so one repetition takes a
/// little over 3 s on the 2-core reference box (see the README's sizing
/// note).
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "offline_fanout",
        why: "paper regime on wide DAGs: dagp partitioning and Step 2 dominate, Step 3 idles, the k' sweep's threads show",
        kind: Kind::Offline(&[
            inst(Family::Blast, 1000, 1),
            inst(Family::Bwa, 1000, 1),
            inst(Family::Seismology, 1000, 1),
            inst(Family::Genome, 1000, 1),
            inst(Family::Blast, 4000, 1),
            inst(Family::Bwa, 4000, 1),
            inst(Family::Seismology, 4000, 1),
            inst(Family::Genome, 4000, 1),
            inst(Family::Blast, 10000, 1),
            inst(Family::Seismology, 10000, 1),
            inst(Family::Genome, 10000, 1),
        ]),
    },
    Workload {
        name: "offline_chain",
        why: "same solver on chain-shaped DAGs: many unassigned blocks, Step 3 merge dominates and most k' attempts fail after paying for it",
        kind: Kind::Offline(&[
            inst(Family::Epigenomics, 60, 38),
            inst(Family::Montage, 60, 38),
            inst(Family::Soykb, 60, 38),
        ]),
    },
    Workload {
        name: "online_cold",
        why: "all-unique submissions on fresh caches: lease solves, simulator, pre-solving and reservation scans; the warm machinery can do nothing",
        kind: Kind::Online(OnlineSpec {
            families: &MIXED_FAMILIES,
            tasks: (8, 48),
            catalogue: 1650,
            traces: 8,
            traffic: Traffic::EachOnce,
            interval: 300.0,
            policy: AdmissionPolicy::FifoBackfill,
            federation: None,
            warm: false,
        }),
    },
    Workload {
        name: "online_warm_backlog",
        why: "overloaded deep queue on a warm cache (0 misses): admission pass, reservation derive/replay and cache reads dominate, the solver idles",
        kind: Kind::Online(OnlineSpec {
            families: &FANOUT_FAMILIES,
            tasks: (8, 48),
            catalogue: 60,
            traces: 10,
            traffic: Traffic::Draws(5_600),
            interval: 25.0,
            policy: AdmissionPolicy::FifoBackfill,
            federation: None,
            warm: true,
        }),
    },
    Workload {
        name: "federation_16",
        why: "16 members, least-loaded routing, warm shared cache: routing, parallel member stepping, frozen-view seal/merge and spillover",
        kind: Kind::Online(OnlineSpec {
            families: &FANOUT_FAMILIES,
            tasks: (8, 48),
            catalogue: 60,
            traces: 8,
            traffic: Traffic::Draws(4_200),
            interval: 25.0,
            policy: AdmissionPolicy::Fifo,
            federation: Some((16, RoutingPolicy::LeastLoaded)),
            warm: true,
        }),
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One offline call: a workflow and the platform fitted to it.
#[derive(Clone, Debug)]
pub struct OfflineInstance {
    pub instance: WorkflowInstance,
    pub cluster: Cluster,
}

/// Everything an online repetition reads.
#[derive(Clone, Debug)]
pub struct OnlineInputs {
    pub spec: OnlineSpec,
    /// The member platform (the whole platform when not federated).
    pub cluster: Cluster,
    pub federation: Option<Federation>,
    /// The catalogue: the distinct workflows tenants submit.
    pub recipes: Vec<WorkflowInstance>,
    /// One trace per serve call of a repetition: which recipe arrives,
    /// in arrival order.
    pub traces: Vec<Vec<usize>>,
}

impl OnlineInputs {
    /// The submission stream of one call, built when the call is about
    /// to be made so that only one trace's workflows are resident at a
    /// time.
    pub fn submissions(&self, call: usize) -> Vec<Submission> {
        self.traces[call]
            .iter()
            .enumerate()
            .map(|(id, &pick)| Submission {
                id,
                arrival: id as f64 * self.spec.interval,
                instance: self.recipes[pick].clone(),
            })
            .collect()
    }
}

#[derive(Clone, Debug)]
pub enum Inputs {
    Offline(Vec<OfflineInstance>),
    Online(OnlineInputs),
}

impl Inputs {
    /// Calls into the program one repetition makes: one per instance
    /// offline, one per trace online.
    pub fn calls(&self) -> usize {
        match self {
            Inputs::Offline(v) => v.len(),
            Inputs::Online(o) => o.traces.len(),
        }
    }

    /// Operations one repetition attempts: instances or submissions.
    pub fn operations(&self) -> usize {
        match self {
            Inputs::Offline(v) => v.len(),
            Inputs::Online(o) => o.traces.iter().map(Vec::len).sum(),
        }
    }

    /// Workflow tasks one repetition maps or serves.
    pub fn tasks(&self) -> usize {
        match self {
            Inputs::Offline(v) => v.iter().map(|i| i.instance.graph.node_count()).sum(),
            Inputs::Online(o) => o
                .traces
                .iter()
                .flatten()
                .map(|&pick| o.recipes[pick].graph.node_count())
                .sum(),
        }
    }

    /// Structural fingerprints of what the program is handed, in the
    /// order `order` hands it over — what "the same seed gives the same
    /// inputs" is checked on.
    #[cfg(test)]
    pub fn fingerprints(&self, order: &[usize]) -> Vec<u64> {
        order
            .iter()
            .flat_map(|&call| match self {
                Inputs::Offline(v) => vec![v[call].instance.graph.fingerprint()],
                Inputs::Online(o) => o.traces[call]
                    .iter()
                    .map(|&pick| o.recipes[pick].graph.fingerprint())
                    .collect(),
            })
            .collect()
    }
}

/// The order in which a repetition makes its calls: a permutation of
/// `0..calls` drawn from `--seed`. Every repetition of a run uses the
/// same one.
pub fn issue_order(seed: u64, calls: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..calls).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

/// The data set of a workload plus what generating it cost.
#[derive(Clone, Debug)]
pub struct Generated {
    pub inputs: Inputs,
    /// Seconds inside `dhp-wfgen` (instances or catalogue).
    pub generate_s: f64,
}

/// Builds a workload's data set from [`DATA_SEED`]: instances and their
/// fitted platforms offline; catalogue, traces and the platform fitted
/// to the catalogue online. `divisor` shrinks every size (1 = as declared; the smoke run
/// and the unit tests use 20).
pub fn generate(kind: &Kind, divisor: usize) -> Generated {
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    match kind {
        Kind::Offline(specs) => {
            let platform = default_cluster();
            let mut generate_s = 0.0;
            let mut out = Vec::new();
            for spec in specs.iter() {
                for _ in 0..(spec.count / divisor).max(1) {
                    let tasks = (spec.tasks / divisor).max(30);
                    let started = Instant::now();
                    let instance = WorkflowInstance::simulated(spec.family, tasks, rng.next_u64());
                    generate_s += started.elapsed().as_secs_f64();
                    let cluster = scale_cluster_with_headroom(&instance.graph, &platform, HEADROOM);
                    out.push(OfflineInstance { instance, cluster });
                }
            }
            Generated {
                inputs: Inputs::Offline(out),
                generate_s,
            }
        }
        Kind::Online(spec) => {
            let traces = spec.traces;
            let catalogue = (spec.catalogue / divisor).max(traces);
            let started = Instant::now();
            let recipes = mixed_workload(catalogue, spec.families, spec.tasks, DATA_SEED);
            let generate_s = started.elapsed().as_secs_f64();
            let traces: Vec<Vec<usize>> = match spec.traffic {
                Traffic::EachOnce => {
                    let mut deck: Vec<usize> = (0..catalogue).collect();
                    deck.shuffle(&mut rng);
                    deck.chunks(catalogue.div_ceil(traces))
                        .map(<[usize]>::to_vec)
                        .collect()
                }
                Traffic::Draws(n) => (0..traces)
                    .map(|_| {
                        (0..(n / divisor).max(catalogue))
                            .map(|_| rng.random_range(0..catalogue))
                            .collect()
                    })
                    .collect(),
            };
            let base = cluster(ClusterKind::LessHet, ClusterSize::Small);
            let member = recipes.iter().fold(base, |fitted, recipe| {
                scale_cluster_with_headroom(&recipe.graph, &fitted, HEADROOM)
            });
            let federation = spec
                .federation
                .map(|(members, _)| Federation::homogeneous(member.clone(), members));
            Generated {
                inputs: Inputs::Online(OnlineInputs {
                    spec: *spec,
                    cluster: member,
                    federation,
                    recipes,
                    traces,
                }),
                generate_s,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_are_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("no_such_workload").is_none());
    }

    #[test]
    fn the_seed_decides_what_the_program_is_handed() {
        for w in WORKLOADS {
            let data = generate(&w.kind, 20).inputs;
            let again = generate(&w.kind, 20).inputs;
            let calls = data.calls();
            let handed = |inputs: &Inputs, seed| inputs.fingerprints(&issue_order(seed, calls));
            assert_eq!(handed(&data, 17), handed(&again, 17), "{}", w.name);
            assert_ne!(handed(&data, 17), handed(&data, 18), "{}", w.name);
            assert!(data.tasks() > 0 && data.operations() >= calls);
        }
    }

    #[test]
    fn an_issue_order_is_a_permutation() {
        for seed in 0..20 {
            let mut order = issue_order(seed, 9);
            order.sort_unstable();
            assert_eq!(order, (0..9).collect::<Vec<_>>());
        }
        assert_ne!(issue_order(1, 9), issue_order(2, 9));
    }

    #[test]
    fn each_once_traffic_submits_every_recipe_once() {
        let spec = WORKLOADS
            .iter()
            .find_map(|w| match w.kind {
                Kind::Online(spec) if spec.traffic == Traffic::EachOnce => Some(spec),
                _ => None,
            })
            .expect("one workload submits every recipe once");
        let data = generate(&Kind::Online(spec), 20).inputs;
        let mut seen = data.fingerprints(&issue_order(1, data.calls()));
        let submitted = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), submitted);
        assert_eq!(submitted, data.operations());
    }
}
