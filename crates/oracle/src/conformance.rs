//! Conformance scenarios: one config, two solvers, a table of errors.
//!
//! A [`Scenario`] is a tree of nodes joined by call edges, each node a
//! [`ServiceLaw`] behind a per-server thread pool on one or more servers,
//! with an optional steady-state cache on one edge. [`run_scenario`] builds
//! it twice: as a DES world driven by constant-think clients, and as the
//! closed product-form network it is, one MVA station per server. The
//! mapping stays inside the exact product-form class:
//!
//! * **DAG visit ratios.** Per-edge call counts give deterministic per-node
//!   visit ratios `V_m` (the forward pass over edges); the `Random`
//!   balancer splits them evenly, `V_m / servers` per server.
//! * **Steady-state cache.** A hit with probability `h` skips the
//!   downstream hop: Bernoulli (Markovian) routing, so the cached edge's
//!   visit contribution rescales by `1 − h`.
//! * **Heterogeneous VM capacity.** A server of capacity `c` runs every
//!   burst `c×` faster, so its station serves at `S / c`
//!   ([`Station::queueing_with_capacity`]) — exact, not approximate.
//!
//! [`Scenario::chain`] is the paper's three-tier chain as such a scenario.

use std::collections::BTreeMap;

use dcm_model::mva::{law_rate_table, ClosedNetwork, Station};
use dcm_ntier::balancer::BalancerPolicy;
use dcm_ntier::graph::TopologyGraph;
use dcm_ntier::ids::RequestId;
use dcm_ntier::law::ServiceLaw;
use dcm_ntier::server::VmType;
use dcm_ntier::spans::Span;
use dcm_ntier::system::VmPolicy;
use dcm_ntier::topology::MeshNode;
use dcm_sim::dist::Dist;
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::cache::CacheDynamics;
use dcm_workload::profile::{NodeDemand, ProfileFactory};
use dcm_workload::steady::SteadyRun;

/// A pool size that never queues at the populations the grid sweeps.
const AMPLE: u32 = 4096;

/// What kind of analytic truth a scenario is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// All laws frictionless: exact product-form network (delay and
    /// `M/M/c` stations). Tight tolerance applies.
    ZeroOverhead,
    /// Some node follows a real concurrency law `S*(N)`: exact
    /// load-dependent MVA with the ground-truth rate table. Looser
    /// tolerance applies.
    LoadDependent,
}

/// One node of a scenario.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Display name (`web`, `svc`, `cache`, …).
    pub name: &'static str,
    /// The node's service law; its `S⁰` is the mean per-visit demand
    /// (seconds of work at capacity 1).
    pub law: ServiceLaw,
    /// Exponential per-visit demand (required for queueing-station
    /// exactness); constant otherwise (fine for delay nodes).
    pub exponential: bool,
    /// Thread pool per server, the station's `c`; a frictionless node with
    /// an ample pool (4096) is a delay station.
    pub threads: u32,
    /// Per-server VM capacity multipliers, one entry per server.
    pub capacities: Vec<f64>,
}

impl NodeSpec {
    fn frictionless(&self) -> bool {
        self.law == ServiceLaw::frictionless(self.law.s0())
    }

    /// The MVA station of one of this node's servers.
    fn station(&self, visit_ratio: f64, capacity: f64) -> Station {
        let s0 = self.law.s0();
        if !self.frictionless() {
            // Past `threads` the table's last rate holds, so a table of
            // `threads` entries serves every population.
            let law = self.law;
            Station::LoadDependent {
                visit_ratio,
                service_time: s0 / capacity,
                rate: law_rate_table(s0, self.threads, |m| law.adjusted_service_time(m)),
            }
        } else if self.threads >= AMPLE {
            Station::Delay {
                visit_ratio,
                service_time: s0 / capacity,
            }
        } else {
            Station::queueing_with_capacity(visit_ratio, s0, self.threads, capacity)
        }
    }
}

/// A node on its own servers.
fn node(
    name: &'static str,
    law: ServiceLaw,
    exponential: bool,
    threads: u32,
    capacities: Vec<f64>,
) -> NodeSpec {
    NodeSpec {
        name,
        law,
        exponential,
        threads,
        capacities,
    }
}

/// A steady-state cache on one edge of the scenario graph.
#[derive(Debug, Clone, Copy)]
pub struct CacheSpec {
    /// The caching node.
    pub from: usize,
    /// The downstream node whose calls a hit skips.
    pub to: usize,
    /// Steady-state hit probability `h`.
    pub hit_ratio: f64,
}

/// One conformance configuration (populations are swept separately, so
/// each `(scenario, population)` pair is one run).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short name used in tables (`mm1`, `fanout`, …).
    pub name: &'static str,
    /// The nodes, in tier order (node 0 is the entry tier).
    pub nodes: Vec<NodeSpec>,
    /// Call edges `(from, to, calls)`; must form a tree rooted at node 0.
    pub edges: Vec<(usize, usize, u32)>,
    /// Optional steady-state cache edge.
    pub cache: Option<CacheSpec>,
    /// Constant think time `Z` (seconds).
    pub think: f64,
    /// Client populations to sweep.
    pub populations: &'static [u32],
    /// Warmup before the measurement window (seconds).
    pub warmup: f64,
    /// Measurement window length (seconds).
    pub measure: f64,
}

impl Scenario {
    /// The paper's chain `web → app → db` on `(web, app, db)` servers. Web
    /// and app are frictionless delay nodes with constant demands
    /// `web_demand` and `app_demand`; each request makes `db_visits`
    /// queries to the DB node, whose demands are exponential with mean
    /// `db_law.s0()` and which serves under `db_law` behind `db_threads`
    /// threads per server. The sweep is empty and the windows are 100 s of
    /// warmup and 4000 s of measurement; struct-update syntax sets others.
    pub fn chain(
        name: &'static str,
        (web, app, db): (u32, u32, u32),
        (web_demand, app_demand): (f64, f64),
        db_law: ServiceLaw,
        db_threads: u32,
        db_visits: u32,
        think: f64,
    ) -> Scenario {
        let zero = ServiceLaw::frictionless;
        let ones = |servers: u32| vec![1.0; servers as usize];
        Scenario {
            name,
            nodes: vec![
                node("web", zero(web_demand), false, AMPLE, ones(web)),
                node("app", zero(app_demand), false, AMPLE, ones(app)),
                node("db", db_law, true, db_threads, ones(db)),
            ],
            edges: vec![(0, 1, 1), (1, 2, db_visits)],
            cache: None,
            think,
            populations: &[],
            warmup: 100.0,
            measure: 4000.0,
        }
    }

    /// The oracle that applies: load-dependent when any node's law has
    /// contention or crosstalk.
    pub fn kind(&self) -> ScenarioKind {
        if self.nodes.iter().all(NodeSpec::frictionless) {
            ScenarioKind::ZeroOverhead
        } else {
            ScenarioKind::LoadDependent
        }
    }

    /// The scenario's call graph (the miss-path shape).
    ///
    /// # Panics
    ///
    /// Panics if the edges do not form a tree — per-request exclusive
    /// residence attribution needs a unique parent per node.
    pub fn graph(&self) -> TopologyGraph {
        let g = TopologyGraph::from_edges(self.nodes.len(), &self.edges);
        assert!(g.is_tree(), "{}: scenarios must be trees", self.name);
        g
    }

    /// Expected per-node visit ratios `V_m`, with the cached edge's
    /// contribution rescaled by `1 − h` (Bernoulli routing).
    pub fn expected_visit_ratios(&self) -> Vec<f64> {
        let mut v = vec![0.0f64; self.nodes.len()];
        v[0] = 1.0;
        for &(from, to, calls) in &self.edges {
            let scale = match self.cache {
                Some(c) if c.from == from && c.to == to => 1.0 - c.hit_ratio,
                _ => 1.0,
            };
            v[to] += v[from] * f64::from(calls) * scale;
        }
        v
    }

    /// The closed product-form network this scenario is, solved exactly.
    /// Each node contributes one station per server (visit `V_m / servers`,
    /// service `S⁰ / capacity_i`).
    pub fn network(&self) -> ClosedNetwork {
        let visits = self.expected_visit_ratios();
        let stations = self
            .nodes
            .iter()
            .zip(visits)
            .flat_map(|(node, v)| {
                let per_server = v / node.capacities.len() as f64;
                node.capacities
                    .iter()
                    .map(move |&cap| node.station(per_server, cap))
            })
            .collect();
        ClosedNetwork::new(stations, self.think)
    }

    /// The workload factory driving the DES side.
    fn factory(&self) -> ProfileFactory {
        let graph = self.graph();
        let mut demands = Vec::with_capacity(self.nodes.len());
        for (m, node) in self.nodes.iter().enumerate() {
            let base = if node.exponential {
                Dist::exponential_mean(node.law.s0())
            } else {
                Dist::constant(node.law.s0())
            };
            let mut d = if graph.total_calls(m) > 0 {
                NodeDemand::split(base)
            } else {
                NodeDemand::leaf(base)
            };
            if node.exponential {
                d = d.iid_visits();
            }
            demands.push(d);
        }
        let factory = ProfileFactory::new(graph, demands);
        match self.cache {
            Some(c) => factory.with_cache(c.from, c.to, CacheDynamics::steady(c.hit_ratio)),
            None => factory,
        }
    }

    /// The DES run of this scenario at `population` users in cohorts of
    /// `cohort_size`: its nodes on the `Random` balancer, constant think
    /// times, audited from time zero to the window's close.
    fn steady_run(&self, population: u32, seed: u64, cohort_size: u32) -> SteadyRun {
        let nodes = self
            .nodes
            .iter()
            .map(|node| {
                // The per-server thread pool IS the station's `c`; outbound
                // calls stay unpooled, so threads are the only concurrency
                // gate.
                let mut mesh_node = MeshNode::new(node.name, node.law, node.threads)
                    .count(node.capacities.len() as u32);
                if node.capacities.iter().any(|&c| (c - 1.0).abs() > 1e-12) {
                    let types: Vec<VmType> = node
                        .capacities
                        .iter()
                        .map(|&c| VmType {
                            name: "mesh-custom",
                            capacity: c,
                            price_per_hour: 0.10 * c,
                        })
                        .collect();
                    mesh_node = mesh_node.vm_policy(VmPolicy::cycle(types));
                }
                mesh_node
            })
            .collect();
        let warmup = SimDuration::from_secs_f64(self.warmup);
        // The window closes at `warmup + measure` converted once, not at
        // the sum of the two converted lengths.
        let end = SimTime::from_secs_f64(self.warmup + self.measure);
        SteadyRun {
            nodes,
            balancer: BalancerPolicy::Random,
            seed,
            users: population,
            cohort_size,
            think: Some(Dist::constant(self.think)),
            warmup,
            window: end.saturating_since(SimTime::ZERO + warmup),
            audit: true,
        }
    }
}

/// DES-vs-oracle comparison of one quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierComparison {
    /// The measured value.
    pub des: f64,
    /// The exact MVA value.
    pub mva: f64,
    /// `|des − mva| / mva`.
    pub rel_err: f64,
}

fn compare(des: f64, mva: f64) -> TierComparison {
    TierComparison {
        des,
        mva,
        rel_err: (des - mva).abs() / mva.abs().max(f64::MIN_POSITIVE),
    }
}

/// One `(scenario, population)` conformance measurement.
#[derive(Debug, Clone)]
pub struct ConformancePoint {
    /// Scenario name.
    pub scenario: &'static str,
    /// Which oracle applied.
    pub kind: ScenarioKind,
    /// Client population `N`.
    pub population: u32,
    /// Requests completed inside the measurement window.
    pub completions: u64,
    /// Measured vs exact system throughput (requests/sec).
    pub throughput: TierComparison,
    /// Per-node exclusive residence per client request (seconds; queueing
    /// and service at the node, downstream time excluded) against the
    /// exact `Σ V·R` over the node's stations, named, in node order.
    pub residence: Vec<(&'static str, TierComparison)>,
    /// The asymptotic throughput upper bound at this population.
    pub throughput_bound: f64,
    /// Whether measured throughput respects the bound (with 0.5%
    /// measurement slack).
    pub bound_ok: bool,
    /// Conservation-audit violations from time zero to the window's close
    /// (must be zero).
    pub audit_violations: usize,
}

impl ConformancePoint {
    /// The largest relative error across throughput and node residences.
    /// Nodes whose exact residence is negligible (< 0.1 ms — e.g. a fully
    /// cached-off DB) are skipped: their relative error is noise on an
    /// absolute quantity below measurement resolution.
    pub fn max_rel_err(&self) -> f64 {
        self.residence
            .iter()
            .filter(|(_, t)| t.mva > 1e-4)
            .map(|(_, t)| t.rel_err)
            .fold(self.throughput.rel_err, f64::max)
    }
}

/// A conformance run whose measurement window saw no request from
/// arrival to completion, so there is nothing to compare with MVA (a think
/// time far longer than the window, say).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmptyWindow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Client population `N`.
    pub population: u32,
    /// Requests completed inside the window.
    pub completions: u64,
}

impl std::fmt::Display for EmptyWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at N={}: no request both arrived and completed inside the measurement \
             window ({} completions in it), so there is nothing to compare with MVA",
            self.scenario, self.population, self.completions
        )
    }
}

/// Runs one scenario at one population of users in cohorts of
/// `cohort_size` ([`CohortPopulation`](dcm_workload::cohort::CohortPopulation);
/// 1 is the per-user run) and compares against the exact MVA oracle. With
/// the scenarios' constant think time a cohort reproduces the per-user
/// sample path; either way every point is gated against the same oracle.
///
/// # Errors
///
/// Returns [`EmptyWindow`] when no request arrived and completed inside
/// the measurement window (any population works, in the scenario's sweep
/// or not).
///
/// # Panics
///
/// Panics if `cohort_size` is zero.
pub fn run_scenario(
    scenario: &Scenario,
    population: u32,
    seed: u64,
    cohort_size: u32,
) -> Result<ConformancePoint, EmptyWindow> {
    let run = scenario
        .steady_run(population, seed, cohort_size)
        .run(scenario.factory());
    let completions = run.world.system.counters().completed - run.counters.completed;
    let empty = EmptyWindow {
        scenario: scenario.name,
        population,
        completions,
    };
    if completions == 0 {
        return Err(empty);
    }
    let window = run.end.saturating_since(run.start).as_secs_f64();
    let x_des = completions as f64 / window;
    let res_des = node_residences(&run.spans, run.start, &scenario.graph()).ok_or(empty)?;

    let net = scenario.network();
    let sol = net.solve(population);
    let bounds = net.asymptotic_bounds(population);
    let mut stations = sol.station_residence.iter();
    let residence = scenario
        .nodes
        .iter()
        .zip(res_des)
        .map(|(node, des)| {
            let mva: f64 = stations.by_ref().take(node.capacities.len()).sum();
            (node.name, compare(des, mva))
        })
        .collect();

    Ok(ConformancePoint {
        scenario: scenario.name,
        kind: scenario.kind(),
        population,
        completions,
        throughput: compare(x_des, sol.throughput),
        residence,
        throughput_bound: bounds.throughput_upper,
        bound_ok: x_des <= bounds.throughput_upper * 1.005,
        audit_violations: run.audit.map_or(0, |audit| audit.violations.len()),
    })
}

/// Mean per-request exclusive residence per node over the window, from
/// spans of requests fully inside it (`None` when there are none). A
/// span's `[arrived, finished]` covers downstream time; on a tree every
/// node has a unique parent, so the exclusive residence subtracts each
/// child's span time from its parent, request by request.
fn node_residences(spans: &[Span], t0: SimTime, graph: &TopologyGraph) -> Option<Vec<f64>> {
    let n = graph.tiers();
    let mut parent = vec![usize::MAX; n];
    graph.for_each_edge(|from, to, _calls| {
        parent[to] = from;
    });

    let mut per_request: BTreeMap<RequestId, Vec<f64>> = BTreeMap::new();
    let mut eligible: BTreeMap<RequestId, bool> = BTreeMap::new();
    for s in spans {
        if s.tier >= n {
            continue;
        }
        let dur = s.finished_at.saturating_since(s.arrived_at).as_secs_f64();
        per_request.entry(s.request).or_insert_with(|| vec![0.0; n])[s.tier] += dur;
        if s.tier == 0 {
            eligible.insert(s.request, s.is_completed() && s.arrived_at >= t0);
        }
    }
    let mut sums = vec![0.0f64; n];
    let mut count = 0u64;
    for (rid, totals) in &per_request {
        if !eligible.get(rid).copied().unwrap_or(false) {
            continue;
        }
        count += 1;
        for m in 0..n {
            sums[m] += totals[m];
        }
        for (c, &p) in parent.iter().enumerate() {
            if p != usize::MAX {
                sums[p] -= totals[c];
            }
        }
    }
    if count == 0 {
        return None;
    }
    let count = count as f64;
    for s in &mut sums {
        *s /= count;
    }
    Some(sums)
}

/// The committed grid in two families, which `repro validate` seeds on
/// separate streams:
///
/// * the chain: 14 zero-overhead points (delay tiers + `M/M/1`, `M/M/4`,
///   dual `M/M/2` DB stations, plus a pure delay network exercising
///   `V_db = 2`) and 6 load-dependent points driven by real concurrency
///   laws, spanning light load through saturation;
/// * the mesh: a fan-out DAG, a steady-state cache chain, and a
///   heterogeneous-capacity DB tier, all frictionless (9 zero-overhead
///   points).
pub fn default_grid() -> [Vec<Scenario>; 2] {
    let zero = ServiceLaw::frictionless;
    let chain = vec![
        Scenario {
            populations: &[4, 12, 20, 30],
            ..Scenario::chain("mm1", (1, 1, 1), (0.002, 0.008), zero(0.04), 1, 1, 1.0)
        },
        Scenario {
            populations: &[6, 18, 36, 54],
            ..Scenario::chain("mm4", (1, 1, 1), (0.002, 0.008), zero(0.12), 4, 1, 1.0)
        },
        Scenario {
            populations: &[10, 30, 60, 90],
            ..Scenario::chain("dual-db", (1, 2, 2), (0.002, 0.008), zero(0.08), 2, 1, 0.8)
        },
        Scenario {
            populations: &[5, 50],
            warmup: 60.0,
            measure: 1500.0,
            ..Scenario::chain("delay", (2, 2, 2), (0.004, 0.02), zero(0.04), AMPLE, 2, 0.5)
        },
        Scenario {
            populations: &[6, 16, 32],
            ..Scenario::chain(
                "law-mysql",
                (1, 1, 1),
                (0.002, 0.008),
                ServiceLaw::new(2.95501e-2, 4.53985e-3, 1.9298e-5),
                16,
                1,
                0.5,
            )
        },
        Scenario {
            populations: &[8, 20, 40],
            ..Scenario::chain(
                "law-knee",
                (1, 1, 1),
                (0.002, 0.008),
                ServiceLaw::new(2.84e-2, 1.6e-2, 7.0e-5),
                24,
                1,
                0.5,
            )
        },
    ];
    let one = || vec![1.0];
    let mesh = vec![
        Scenario {
            name: "fanout",
            nodes: vec![
                node("web", zero(0.002), false, AMPLE, one()),
                node("app", zero(0.008), false, AMPLE, one()),
                node("svc", zero(0.030), true, 2, one()),
                node("db", zero(0.040), true, 1, one()),
            ],
            edges: vec![(0, 1, 1), (1, 2, 1), (1, 3, 2)],
            cache: None,
            think: 1.0,
            populations: &[4, 10, 18],
            warmup: 100.0,
            measure: 8000.0,
        },
        Scenario {
            name: "cache-steady",
            nodes: vec![
                node("web", zero(0.002), false, AMPLE, one()),
                node("app", zero(0.010), false, AMPLE, one()),
                node("cache", zero(0.004), false, AMPLE, one()),
                node("db", zero(0.050), true, 2, one()),
            ],
            edges: vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)],
            cache: Some(CacheSpec {
                from: 2,
                to: 3,
                hit_ratio: 0.6,
            }),
            think: 0.8,
            populations: &[5, 20, 40],
            warmup: 100.0,
            measure: 8000.0,
        },
        Scenario {
            name: "hetero-db",
            nodes: vec![
                node("web", zero(0.002), false, AMPLE, one()),
                node("app", zero(0.008), false, AMPLE, one()),
                node("db", zero(0.060), true, 1, vec![1.0, 2.0]),
            ],
            edges: vec![(0, 1, 1), (1, 2, 1)],
            cache: None,
            think: 0.8,
            populations: &[4, 12, 24],
            warmup: 100.0,
            measure: 8000.0,
        },
    ];
    [chain, mesh]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_scenario(name: &str) -> Scenario {
        let grid = default_grid().concat();
        grid.into_iter()
            .find(|s| s.name == name)
            .expect("in the grid")
    }

    /// The named grid scenario on a short window.
    fn quick(name: &str) -> Scenario {
        Scenario {
            warmup: 30.0,
            measure: 400.0,
            ..grid_scenario(name)
        }
    }

    fn assert_conforms(point: &ConformancePoint) {
        assert_eq!(point.audit_violations, 0);
        assert!(point.bound_ok, "bound violated: {point:?}");
        assert!(point.max_rel_err() < 0.10, "errors too large: {point:?}");
    }

    #[test]
    fn grid_has_enough_points_and_coherent_laws() {
        let [chain, mesh] = default_grid();
        let points = |kind| -> usize {
            chain
                .iter()
                .filter(|s| s.kind() == kind)
                .map(|s| s.populations.len())
                .sum()
        };
        let zero = points(ScenarioKind::ZeroOverhead);
        let law = points(ScenarioKind::LoadDependent);
        assert!(zero >= 12, "need >= 12 zero-overhead points, have {zero}");
        assert!(law >= 6, "need >= 6 load-dependent points, have {law}");
        assert!(mesh.iter().all(|s| s.kind() == ScenarioKind::ZeroOverhead));
    }

    #[test]
    fn grid_shapes_are_coherent() {
        let [chain, mesh] = default_grid();
        assert_eq!(mesh.len(), 3);
        let points: usize = mesh.iter().map(|s| s.populations.len()).sum();
        assert!(points >= 9, "need >= 9 mesh points, have {points}");
        for s in chain.iter().chain(&mesh) {
            let g = s.graph();
            assert!(g.is_tree());
            assert_eq!(g.tiers(), s.nodes.len());
        }
    }

    #[test]
    fn network_station_count_tracks_db_servers() {
        // One station per server: dual-db runs 1 web, 2 app and 2 db.
        let dual = grid_scenario("dual-db").network();
        assert_eq!(dual.stations.len(), 1 + 2 + 2);
        assert_eq!(grid_scenario("mm1").network().stations.len(), 3);
    }

    #[test]
    fn fanout_visit_ratios_follow_edges() {
        let fanout = grid_scenario("fanout");
        let v = fanout.expected_visit_ratios();
        assert_eq!(v, vec![1.0, 1.0, 1.0, 2.0]);
        // 1 web + 1 app + 1 svc + 1 db station.
        assert_eq!(fanout.network().stations.len(), 4);
    }

    #[test]
    fn cache_rescales_downstream_visits() {
        let v = grid_scenario("cache-steady").expected_visit_ratios();
        assert!((v[3] - 0.4).abs() < 1e-12, "db visits {}", v[3]);
        assert!((v[2] - 1.0).abs() < 1e-12, "cache node still visited");
    }

    #[test]
    fn hetero_capacities_become_distinct_stations() {
        let net = grid_scenario("hetero-db").network();
        assert_eq!(net.stations.len(), 4, "web, app, and two db stations");
        let s_slow = net.stations[2].service_time();
        let s_fast = net.stations[3].service_time();
        assert!((s_slow - 0.060).abs() < 1e-12);
        assert!((s_fast - 0.030).abs() < 1e-12);
        assert!((net.stations[2].visit_ratio() - 0.5).abs() < 1e-12);
    }

    fn point(s: &Scenario, population: u32, seed: u64, cohort_size: u32) -> ConformancePoint {
        run_scenario(s, population, seed, cohort_size).expect("the window sees completions")
    }

    #[test]
    fn a_window_without_completions_is_an_error_naming_it() {
        // Every user submits at time zero and then thinks far past the
        // window, so nothing arrives and completes inside it.
        let s = Scenario {
            think: 1.0e6,
            ..quick("mm1")
        };
        let err = run_scenario(&s, 4, 1234, 1).expect_err("an empty window");
        assert_eq!(err.completions, 0);
        assert!(err.to_string().contains("mm1 at N=4"), "{err}");
    }

    #[test]
    fn quick_point_conforms_and_audits_clean() {
        // A cheap smoke point: mm1 at N=8 with a short window still lands
        // within a loose 10% of the oracle and audits clean.
        assert_conforms(&point(&quick("mm1"), 8, 1234, 1));
    }

    #[test]
    fn quick_cohort_point_conforms_and_audits_clean() {
        // The cohort-aggregated generator must land on the same oracle.
        assert_conforms(&point(&quick("mm1"), 8, 1234, 4));
    }

    #[test]
    fn quick_fanout_point_conforms_and_audits_clean() {
        assert_conforms(&point(&quick("fanout"), 6, 1234, 1));
    }

    #[test]
    fn quick_cache_point_conforms_and_audits_clean() {
        assert_conforms(&point(&quick("cache-steady"), 8, 77, 1));
    }

    #[test]
    fn quick_hetero_point_conforms_and_audits_clean() {
        assert_conforms(&point(&quick("hetero-db"), 6, 4321, 1));
    }

    /// Every number a point carries, as bits.
    fn bits(p: &ConformancePoint) -> Vec<u64> {
        let mut out = vec![p.completions, p.throughput_bound.to_bits()];
        for t in std::iter::once(&p.throughput).chain(p.residence.iter().map(|(_, t)| t)) {
            out.extend([t.des.to_bits(), t.mva.to_bits(), t.rel_err.to_bits()]);
        }
        out
    }

    #[test]
    fn constant_think_cohorts_reproduce_per_user_points() {
        // With a constant think time every member of a cohort wakes when
        // its own per-user timer would have, so cohorts of 16 replay the
        // per-user sample path: the same completions and the same numbers
        // to the bit, on the chain and on a cached mesh.
        for (s, n, seed) in [(quick("mm1"), 20, 5), (quick("cache-steady"), 20, 9)] {
            let per_user = point(&s, n, seed, 1);
            let cohort = point(&s, n, seed, 16);
            assert!(per_user.completions > 1000, "{}: sanity", s.name);
            assert_eq!(bits(&per_user), bits(&cohort), "{}", s.name);
            assert_eq!(per_user.audit_violations, cohort.audit_violations);
        }
    }

    /// Full-grid calibration sweep. Expensive (~minutes of simulated time
    /// per point), so ignored by default; `repro validate` is the shipping
    /// entry point. Run with `cargo test -p dcm-oracle -- --ignored`.
    #[test]
    #[ignore]
    fn full_grid_within_tolerance() {
        let mut worst_zero = 0.0f64;
        let mut worst_law = 0.0f64;
        for (family, seed_base) in default_grid().iter().zip([7, 11]) {
            for (i, s) in family.iter().enumerate() {
                for (j, &n) in s.populations.iter().enumerate() {
                    let seed = (i as u64) * 100 + j as u64 + seed_base;
                    let p = point(s, n, seed, 1);
                    let residence: Vec<String> = p
                        .residence
                        .iter()
                        .map(|(name, t)| format!("{name} {:+.3}%", 100.0 * t.rel_err))
                        .collect();
                    eprintln!(
                        "{:>12} N={:<3} X: {:.4}/{:.4} ({:+.3}%)  R: {}  audits={}",
                        p.scenario,
                        n,
                        p.throughput.des,
                        p.throughput.mva,
                        100.0 * p.throughput.rel_err,
                        residence.join(" "),
                        p.audit_violations,
                    );
                    assert_eq!(p.audit_violations, 0, "{p:?}");
                    assert!(p.bound_ok, "{p:?}");
                    let worst = match p.kind {
                        ScenarioKind::ZeroOverhead => &mut worst_zero,
                        ScenarioKind::LoadDependent => &mut worst_law,
                    };
                    *worst = worst.max(p.max_rel_err());
                }
            }
        }
        eprintln!("worst zero-overhead: {:.4}%", 100.0 * worst_zero);
        eprintln!("worst load-dependent: {:.4}%", 100.0 * worst_law);
        assert!(
            worst_zero < 0.02,
            "zero-overhead tolerance exceeded: {worst_zero}"
        );
        assert!(
            worst_law < 0.05,
            "load-dependent tolerance exceeded: {worst_law}"
        );
    }
}
