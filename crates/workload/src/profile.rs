//! Turning the servlet mix into per-request execution plans.

use dcm_ntier::graph::TopologyGraph;
use dcm_ntier::law::reference;
use dcm_ntier::request::{RequestProfile, StageDemand};
use dcm_sim::dist::{Dist, Sample};
use dcm_sim::rng::SimRng;

use crate::cache::CacheDynamics;
use crate::servlets::ServletMix;

/// Samples [`RequestProfile`]s for the three-tier RUBBoS deployment.
///
/// Per-tier demands are drawn from a base distribution scaled by the chosen
/// servlet's multiplier; the base means default to the reference laws' `S⁰`
/// so a server at the knee behaves exactly as the paper's model predicts.
///
/// # Examples
///
/// ```
/// use dcm_workload::profile::ProfileFactory;
/// use dcm_sim::rng::SimRng;
///
/// let factory = ProfileFactory::rubbos();
/// let mut rng = SimRng::seed_from(1);
/// let profile = factory.sample(&mut rng);
/// assert_eq!(profile.tiers(), 3);
/// assert!(profile.visits_to(2) >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct ProfileFactory {
    mix: ServletMix,
    web_base: Dist,
    app_base: Dist,
    db_base: Dist,
    /// Fraction of app demand executed before the DB calls (the rest runs
    /// after the last call returns).
    app_pre_fraction: f64,
    /// Insert the pass-through DB load-balancer tier (four-tier RUBBoS).
    four_tier: bool,
    /// Attach an explicit chain-shaped [`TopologyGraph`] to every sampled
    /// profile (metamorphic check: the chain is the degenerate DAG).
    attach_chain_graph: bool,
}

impl ProfileFactory {
    /// The paper-matching factory: browse-only mix, per-tier demand means
    /// equal to the reference laws' `S⁰`, moderate variability.
    pub fn rubbos() -> Self {
        ProfileFactory {
            mix: ServletMix::browse_only(),
            web_base: Dist::exponential_mean(reference::apache().s0()),
            app_base: Dist::exponential_mean(reference::tomcat().s0()),
            db_base: Dist::exponential_mean(reference::mysql().s0()),
            app_pre_fraction: 0.5,
            four_tier: false,
            attach_chain_graph: false,
        }
    }

    /// The paper's four-tier deployment: same demands, with each query
    /// routed through the DB load-balancer tier (use together with
    /// `ThreeTierBuilder::with_db_load_balancer`).
    pub fn rubbos_four_tier() -> Self {
        ProfileFactory {
            four_tier: true,
            ..Self::rubbos()
        }
    }

    /// A deterministic variant (constant demands at the law means) for
    /// noise-free unit tests and calibration runs.
    pub fn rubbos_deterministic() -> Self {
        ProfileFactory {
            mix: ServletMix::browse_only(),
            web_base: Dist::constant(reference::apache().s0()),
            app_base: Dist::constant(reference::tomcat().s0()),
            db_base: Dist::constant(reference::mysql().s0()),
            app_pre_fraction: 0.5,
            four_tier: false,
            attach_chain_graph: false,
        }
    }

    /// Attaches an explicit chain-shaped [`TopologyGraph`] to every sampled
    /// profile. Demands, visit counts, and the RNG stream are untouched —
    /// the chain is the degenerate DAG, so simulations driven by a
    /// chain-graph factory must be bit-identical to the plain factory
    /// (enforced by metamorphic tests).
    pub fn with_chain_graph(mut self) -> Self {
        self.attach_chain_graph = true;
        self
    }

    /// Overrides the servlet mix.
    pub fn with_mix(mut self, mix: ServletMix) -> Self {
        self.mix = mix;
        self
    }

    /// Overrides the per-tier base demand distributions
    /// (web, app, db-per-query).
    pub fn with_bases(mut self, web: Dist, app: Dist, db: Dist) -> Self {
        self.web_base = web;
        self.app_base = app;
        self.db_base = db;
        self
    }

    /// Sets the fraction of app-tier demand that runs before the DB calls.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn with_app_pre_fraction(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        self.app_pre_fraction = fraction;
        self
    }

    /// The servlet mix in use.
    pub fn mix(&self) -> &ServletMix {
        &self.mix
    }

    /// Samples one request's execution plan.
    pub fn sample(&self, rng: &mut SimRng) -> RequestProfile {
        self.sample_reusing(rng, None)
    }

    /// Like [`ProfileFactory::sample`], rebuilding `spare` in place when
    /// one is given (see [`RequestProfile::new_reusing`]): the same draws
    /// and the same profile, without allocating once `spare`'s buffers are
    /// large enough.
    pub fn sample_reusing(
        &self,
        rng: &mut SimRng,
        spare: Option<RequestProfile>,
    ) -> RequestProfile {
        let idx = self.mix.sample_index(rng);
        let servlet = self.mix.servlet(idx);
        let web = self.web_base.sample(rng) * servlet.web_mult;
        let app = self.app_base.sample(rng) * servlet.app_mult;
        let db = self.db_base.sample(rng) * servlet.db_mult;
        let app_demand = StageDemand {
            pre: app * self.app_pre_fraction,
            post: app * (1.0 - self.app_pre_fraction),
        };
        let queries = servlet.db_queries.max(1);
        let (mut profile, db_tier) = if self.four_tier {
            // web → app → lb (per query) → db (one forward each).
            let demands = [
                StageDemand::pre_only(web),
                app_demand,
                StageDemand::pre_only(1.0e-4),
                StageDemand::pre_only(db),
            ];
            let visits = [1, 1, queries, 1];
            let mut profile = RequestProfile::new_reusing(spare, demands, visits, idx as u16);
            if self.attach_chain_graph {
                profile.set_graph(&TopologyGraph::chain(&visits));
            }
            (profile, 3)
        } else {
            let demands = [
                StageDemand::pre_only(web),
                app_demand,
                StageDemand::pre_only(db),
            ];
            let visits = [1, 1, queries];
            let mut profile = RequestProfile::new_reusing(spare, demands, visits, idx as u16);
            if self.attach_chain_graph {
                profile.set_graph(&TopologyGraph::chain(&visits));
            }
            (profile, 2)
        };
        // Each query's demand is an independent draw: reusing one sample
        // across a request's queries correlates the DB station's service
        // times (long query ⇒ the next is long too), which inflates
        // queueing beyond the product-form model the MVA oracle solves.
        // The first query reuses `db` so single-query requests draw
        // exactly as before.
        if queries > 1 {
            profile.set_per_visit_demands(
                db_tier,
                std::iter::once(db)
                    .chain((1..queries).map(|_| self.db_base.sample(rng) * servlet.db_mult))
                    .map(StageDemand::pre_only),
            );
        }
        profile
    }
}

/// Any profile source a client population can drive: the chain factory or
/// the mesh factory. Generators accept `impl Into<WorkloadFactory>`, so
/// existing [`ProfileFactory`] call sites keep working unchanged.
#[derive(Debug, Clone)]
pub enum WorkloadFactory {
    /// The three-/four-tier chain factory.
    Chain(ProfileFactory),
    /// The microservice-DAG factory.
    Mesh(MeshProfileFactory),
}

impl WorkloadFactory {
    /// Samples one request's execution plan.
    pub fn sample(&self, rng: &mut SimRng) -> RequestProfile {
        self.sample_reusing(rng, None)
    }

    /// Samples one request's execution plan into `spare`'s buffers when
    /// one is given (see [`ProfileFactory::sample_reusing`]).
    pub fn sample_reusing(
        &self,
        rng: &mut SimRng,
        spare: Option<RequestProfile>,
    ) -> RequestProfile {
        match self {
            WorkloadFactory::Chain(f) => f.sample_reusing(rng, spare),
            WorkloadFactory::Mesh(f) => f.sample_reusing(rng, spare),
        }
    }
}

impl From<ProfileFactory> for WorkloadFactory {
    fn from(f: ProfileFactory) -> Self {
        WorkloadFactory::Chain(f)
    }
}

impl From<MeshProfileFactory> for WorkloadFactory {
    fn from(f: MeshProfileFactory) -> Self {
        WorkloadFactory::Mesh(f)
    }
}

/// Per-node demand specification for a [`MeshProfileFactory`].
#[derive(Debug, Clone)]
pub struct NodeDemand {
    /// Base per-visit demand distribution.
    pub base: Dist,
    /// Fraction of a visit's demand executed before its downstream calls
    /// (the rest runs after the last call returns).
    pub pre_fraction: f64,
    /// Draw an independent demand for every visit beyond the first
    /// (i.i.d. visits keep the DAG inside the product-form model the MVA
    /// oracle solves).
    pub per_visit_iid: bool,
}

impl NodeDemand {
    /// A leaf-style node: all demand before the (absent) downstream calls.
    pub fn leaf(base: Dist) -> Self {
        NodeDemand {
            base,
            pre_fraction: 1.0,
            per_visit_iid: false,
        }
    }

    /// An interior node splitting its demand evenly around downstream calls.
    pub fn split(base: Dist) -> Self {
        NodeDemand {
            base,
            pre_fraction: 0.5,
            per_visit_iid: false,
        }
    }

    /// Sets the pre-call demand fraction.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn pre_fraction(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        self.pre_fraction = fraction;
        self
    }

    /// Enables independent per-visit demand draws.
    pub fn iid_visits(mut self) -> Self {
        self.per_visit_iid = true;
        self
    }
}

/// A cache edge: requests deciding *hit* at `from` skip the calls along
/// `from → to` entirely.
#[derive(Debug, Clone)]
pub struct CacheEdge {
    /// The caching node.
    pub from: usize,
    /// The node whose calls a hit short-circuits (typically the DB).
    pub to: usize,
    /// Warm-up hit-ratio state, shared across the factory's samples.
    pub dynamics: CacheDynamics,
}

/// Samples [`RequestProfile`]s over an arbitrary microservice DAG: one
/// demand spec per node, calls routed by a [`TopologyGraph`], and an
/// optional cache edge whose hits drop the downstream hop.
///
/// The chain factories ([`ProfileFactory`]) stay the special case; this is
/// the general form driving the `repro mesh` scenarios.
///
/// # Examples
///
/// ```
/// use dcm_ntier::graph::TopologyGraph;
/// use dcm_sim::dist::Dist;
/// use dcm_sim::rng::SimRng;
/// use dcm_workload::profile::{MeshProfileFactory, NodeDemand};
///
/// // web fans out to two services; each calls the shared db.
/// let graph = TopologyGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]);
/// let factory = MeshProfileFactory::new(
///     graph,
///     vec![
///         NodeDemand::split(Dist::constant(0.001)),
///         NodeDemand::split(Dist::constant(0.010)),
///         NodeDemand::split(Dist::constant(0.012)),
///         NodeDemand::leaf(Dist::constant(0.007)),
///     ],
/// );
/// let mut rng = SimRng::seed_from(1);
/// let p = factory.sample(&mut rng);
/// assert_eq!(p.tiers(), 4);
/// assert_eq!(p.cumulative_visits(3), 2); // one query via each service
/// ```
#[derive(Debug, Clone)]
pub struct MeshProfileFactory {
    graph: TopologyGraph,
    demands: Vec<NodeDemand>,
    cache: Option<CacheEdge>,
    class: u16,
}

impl MeshProfileFactory {
    /// Creates a factory over `graph` with one demand spec per node.
    ///
    /// # Panics
    ///
    /// Panics if `demands` does not cover every graph node or a
    /// `pre_fraction` is outside `[0, 1]`.
    pub fn new(graph: TopologyGraph, demands: Vec<NodeDemand>) -> Self {
        assert_eq!(
            graph.tiers(),
            demands.len(),
            "one demand spec per graph node"
        );
        for d in &demands {
            assert!(
                (0.0..=1.0).contains(&d.pre_fraction),
                "fraction must be in [0,1]"
            );
        }
        MeshProfileFactory {
            graph,
            demands,
            cache: None,
            class: 0,
        }
    }

    /// Installs a cache on the `from → to` edge: each request draws a
    /// hit/miss decision from `dynamics`; hits zero out that edge's calls.
    ///
    /// # Panics
    ///
    /// Panics if the graph holds no `from → to` edge.
    pub fn with_cache(mut self, from: usize, to: usize, dynamics: CacheDynamics) -> Self {
        assert!(
            self.graph
                .out_edges(from)
                .iter()
                .any(|e| usize::from(e.to) == to),
            "cache edge {from} -> {to} not in the graph"
        );
        self.cache = Some(CacheEdge { from, to, dynamics });
        self
    }

    /// Sets the workload class stamped on sampled profiles.
    pub fn with_class(mut self, class: u16) -> Self {
        self.class = class;
        self
    }

    /// The factory's call graph (the miss-path shape; hits drop the cached
    /// edge per request).
    pub fn graph(&self) -> &TopologyGraph {
        &self.graph
    }

    /// The cache edge, if one is installed.
    pub fn cache(&self) -> Option<&CacheEdge> {
        self.cache.as_ref()
    }

    /// Samples one request's execution plan.
    ///
    /// Draw order is deterministic: one base demand per node in node
    /// order, then the cache hit/miss decision, then independent per-visit
    /// demands in node order (the first visit reuses the base draw).
    pub fn sample(&self, rng: &mut SimRng) -> RequestProfile {
        self.sample_reusing(rng, None)
    }

    /// Like [`MeshProfileFactory::sample`], rebuilding `spare` in place
    /// when one is given (see [`RequestProfile::new_reusing`]).
    pub fn sample_reusing(
        &self,
        rng: &mut SimRng,
        spare: Option<RequestProfile>,
    ) -> RequestProfile {
        let stage = self.demands.iter().map(|node| {
            let d = node.base.sample(rng);
            StageDemand {
                pre: d * node.pre_fraction,
                post: d * (1.0 - node.pre_fraction),
            }
        });
        let visits = std::iter::repeat_n(1, self.graph.tiers());
        let mut profile = RequestProfile::new_reusing(spare, stage, visits, self.class);
        let hit = self
            .cache
            .as_ref()
            .filter(|cache| cache.dynamics.decide(rng));
        profile.set_graph(&self.graph);
        if let Some(cache) = hit {
            profile.set_edge_calls(cache.from, cache.to, 0);
        }
        for (m, node) in self.demands.iter().enumerate() {
            if !node.per_visit_iid {
                continue;
            }
            let visits = usize::try_from(profile.cumulative_visits(m)).unwrap_or(usize::MAX);
            if visits <= 1 {
                continue;
            }
            let first = profile.demand(m);
            let rest = (1..visits).map(|_| {
                let d = node.base.sample(rng);
                StageDemand {
                    pre: d * node.pre_fraction,
                    post: d * (1.0 - node.pre_fraction),
                }
            });
            profile.set_per_visit_demands(m, std::iter::once(first).chain(rest));
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_profiles_have_three_tiers_and_queries() {
        let factory = ProfileFactory::rubbos();
        let mut rng = SimRng::seed_from(3);
        for _ in 0..100 {
            let p = factory.sample(&mut rng);
            assert_eq!(p.tiers(), 3);
            assert!((1..=3).contains(&p.visits_to(2)));
            assert!(p.demand(1).pre > 0.0);
        }
    }

    #[test]
    fn mean_db_demand_tracks_law_s0() {
        // Averaged over many samples, the per-query db demand should be
        // close to the MySQL law's S0 (multipliers average ≈ 1).
        let factory = ProfileFactory::rubbos();
        let mut rng = SimRng::seed_from(11);
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| factory.sample(&mut rng).demand(2).pre)
            .sum::<f64>()
            / n as f64;
        let s0 = reference::mysql().s0();
        assert!(
            (mean - s0).abs() / s0 < 0.15,
            "mean db demand {mean} vs s0 {s0}"
        );
    }

    #[test]
    fn deterministic_factory_is_noise_free() {
        let factory = ProfileFactory::rubbos_deterministic().with_mix(
            crate::servlets::ServletMix::from_servlets(vec![crate::servlets::Servlet {
                name: "Only",
                weight: 1.0,
                web_mult: 1.0,
                app_mult: 1.0,
                db_mult: 1.0,
                db_queries: 2,
            }])
            .unwrap(),
        );
        let mut rng = SimRng::seed_from(1);
        let a = factory.sample(&mut rng);
        let b = factory.sample(&mut rng);
        assert_eq!(a, b);
        assert_eq!(a.demand(1).total(), reference::tomcat().s0());
    }

    #[test]
    fn app_pre_fraction_splits_demand() {
        let factory = ProfileFactory::rubbos_deterministic().with_app_pre_fraction(0.25);
        let mut rng = SimRng::seed_from(1);
        let p = factory.sample(&mut rng);
        let d = p.demand(1);
        assert!((d.pre / d.total() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn four_tier_profiles_route_through_lb() {
        let factory = ProfileFactory::rubbos_four_tier();
        let mut rng = SimRng::seed_from(4);
        let p = factory.sample(&mut rng);
        assert_eq!(p.tiers(), 4);
        assert!((1..=3).contains(&p.visits_to(2)), "queries hit the lb tier");
        assert_eq!(p.visits_to(3), 1, "lb forwards each query once");
        // Cumulative visits to the db equal the query count.
        assert_eq!(p.cumulative_visits(3), u64::from(p.visits_to(2)));
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0,1]")]
    fn invalid_fraction_rejected() {
        let _ = ProfileFactory::rubbos().with_app_pre_fraction(1.5);
    }

    #[test]
    fn chain_graph_attachment_changes_nothing_but_the_graph() {
        // Metamorphic: the chain is the degenerate DAG. Same seed, same
        // demands, same visit counts, same RNG stream afterwards.
        let plain = ProfileFactory::rubbos();
        let chained = ProfileFactory::rubbos().with_chain_graph();
        let mut rng_a = SimRng::seed_from(17);
        let mut rng_b = SimRng::seed_from(17);
        for _ in 0..200 {
            let a = plain.sample(&mut rng_a);
            let b = chained.sample(&mut rng_b);
            assert!(b.graph().is_some());
            assert_eq!(a.tiers(), b.tiers());
            for m in 0..a.tiers() {
                assert_eq!(a.demand(m), b.demand(m));
                assert_eq!(a.visits_to(m), b.visits_to(m));
                assert_eq!(a.cumulative_visits(m), b.cumulative_visits(m));
                for k in 0..a.cumulative_visits(m) {
                    assert_eq!(a.demand_for_visit(m, k), b.demand_for_visit(m, k));
                }
                assert_eq!(a.total_calls_from(m), b.total_calls_from(m));
                for k in 0..a.total_calls_from(m) {
                    assert_eq!(a.call_target(m, k), b.call_target(m, k));
                }
            }
        }
        assert_eq!(rng_a.next_f64(), rng_b.next_f64());
    }

    fn diamond_factory() -> MeshProfileFactory {
        // web → {svc-a, svc-b} → db
        let graph = TopologyGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 2), (2, 3, 1)]);
        MeshProfileFactory::new(
            graph,
            vec![
                NodeDemand::split(Dist::constant(0.001)),
                NodeDemand::split(Dist::constant(0.010)),
                NodeDemand::split(Dist::constant(0.012)),
                NodeDemand::leaf(Dist::exponential_mean(0.007)).iid_visits(),
            ],
        )
    }

    #[test]
    fn mesh_factory_samples_dag_profiles() {
        let factory = diamond_factory();
        let mut rng = SimRng::seed_from(23);
        let p = factory.sample(&mut rng);
        assert_eq!(p.tiers(), 4);
        assert_eq!(p.visits_to(1), 1);
        assert_eq!(p.visits_to(2), 1);
        assert_eq!(p.visits_to(3), 3, "two queries via svc-a, one via svc-b");
        assert_eq!(p.total_calls_from(0), 2);
        assert_eq!(p.call_target(0, 0), 1);
        assert_eq!(p.call_target(0, 1), 2);
        // i.i.d. per-visit db demands: all three visits drawn independently.
        let d0 = p.demand_for_visit(3, 0);
        let d1 = p.demand_for_visit(3, 1);
        let d2 = p.demand_for_visit(3, 2);
        assert!(d0 != d1 || d1 != d2, "exponential draws should differ");
    }

    #[test]
    fn mesh_cache_hits_drop_the_cached_edge() {
        let graph = TopologyGraph::chain(&[1, 1, 1, 1]); // web → app → cache → db
        let factory = MeshProfileFactory::new(
            graph,
            vec![
                NodeDemand::split(Dist::constant(0.001)),
                NodeDemand::split(Dist::constant(0.010)),
                NodeDemand::split(Dist::constant(0.002)),
                NodeDemand::leaf(Dist::constant(0.007)),
            ],
        )
        .with_cache(2, 3, crate::cache::CacheDynamics::steady(0.5));
        let mut rng = SimRng::seed_from(3);
        let mut hits = 0u32;
        let mut misses = 0u32;
        for _ in 0..400 {
            let p = factory.sample(&mut rng);
            match p.cumulative_visits(3) {
                0 => {
                    hits += 1;
                    assert_eq!(p.total_calls_from(2), 0);
                }
                1 => {
                    misses += 1;
                    assert_eq!(p.call_target(2, 0), 3);
                }
                v => panic!("unexpected db visits {v}"),
            }
        }
        assert!(hits > 100 && misses > 100, "hits {hits} misses {misses}");
    }

    #[test]
    fn zero_ratio_mesh_cache_matches_no_cache_stream() {
        // Metamorphic: a h_max = 0 cache must be bit-identical to no cache.
        let graph = TopologyGraph::chain(&[1, 1, 1, 1]);
        let demands = || {
            vec![
                NodeDemand::split(Dist::exponential_mean(0.001)),
                NodeDemand::split(Dist::exponential_mean(0.010)),
                NodeDemand::split(Dist::exponential_mean(0.002)),
                NodeDemand::leaf(Dist::exponential_mean(0.007)),
            ]
        };
        let plain = MeshProfileFactory::new(graph.clone(), demands());
        let zeroed = MeshProfileFactory::new(graph, demands()).with_cache(
            2,
            3,
            crate::cache::CacheDynamics::new(0.0, 100.0),
        );
        let mut rng_a = SimRng::seed_from(31);
        let mut rng_b = SimRng::seed_from(31);
        for _ in 0..100 {
            assert_eq!(plain.sample(&mut rng_a), zeroed.sample(&mut rng_b));
        }
        assert_eq!(rng_a.next_f64(), rng_b.next_f64());
    }

    /// Refilling must overwrite every field: whatever spare a factory is
    /// handed — chain or graph, with or without per-visit demands — it
    /// builds exactly the profile a fresh sample gives, from the same draws.
    #[test]
    fn recycled_profiles_equal_fresh_ones() {
        let factories = || -> [WorkloadFactory; 3] {
            [
                ProfileFactory::rubbos().into(),
                ProfileFactory::rubbos_four_tier().with_chain_graph().into(),
                diamond_factory()
                    .with_cache(1, 3, crate::cache::CacheDynamics::steady(0.5))
                    .into(),
            ]
        };
        let (fresh, reusing) = (factories(), factories());
        let mut rng_a = SimRng::seed_from(41);
        let mut rng_b = SimRng::seed_from(41);
        let mut spares: Vec<RequestProfile> = Vec::new();
        for i in 0..600 {
            let a = fresh[i % 3].sample(&mut rng_a);
            // The spare was sampled two draws ago, by another factory.
            let spare = (spares.len() > 1).then(|| spares.remove(0));
            let b = reusing[i % 3].sample_reusing(&mut rng_b, spare);
            assert_eq!(a, b, "sample {i}");
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "sample {i}");
            spares.push(b);
        }
        assert_eq!(rng_a.next_f64(), rng_b.next_f64());
    }

    #[test]
    #[should_panic(expected = "not in the graph")]
    fn cache_on_missing_edge_rejected() {
        let graph = TopologyGraph::chain(&[1, 1, 1]);
        let _ = MeshProfileFactory::new(
            graph,
            vec![
                NodeDemand::split(Dist::constant(0.001)),
                NodeDemand::split(Dist::constant(0.010)),
                NodeDemand::leaf(Dist::constant(0.007)),
            ],
        )
        .with_cache(0, 2, crate::cache::CacheDynamics::steady(0.5));
    }
}
