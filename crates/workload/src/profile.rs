//! Per-request execution plans: one factory samples [`RequestProfile`]s
//! over any call graph, and the paper's RUBBoS deployment is its preset.

use std::cell::RefCell;
use std::rc::Rc;

use dcm_ntier::graph::TopologyGraph;
use dcm_ntier::law::reference;
use dcm_ntier::request::{RequestProfile, StageDemand};
use dcm_sim::dist::{Dist, Sample};
use dcm_sim::rng::SimRng;

use crate::cache::CacheDynamics;
use crate::servlets::{Servlet, ServletMix};

/// Per-node demand specification for a [`ProfileFactory`].
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

/// Samples [`RequestProfile`]s over a microservice DAG: one demand spec
/// per node, calls routed by a [`TopologyGraph`], an optional cache edge
/// whose hits drop the downstream hop, and an optional servlet mix.
///
/// The RUBBoS presets ([`ProfileFactory::rubbos`] and its variants) are
/// the web → app → db chain under the browse-only servlet mix: each
/// request draws a servlet, whose multipliers scale the web, app and db
/// demands, whose query count sets the app → db calls, and whose index is
/// the profile's class (0 without a mix). Base means default to the
/// reference laws' `S⁰`, so
/// a server at the knee behaves exactly as the paper's model predicts. The
/// `repro mesh` scenarios build fan-out and cache shapes with
/// [`ProfileFactory::new`].
///
/// # Examples
///
/// ```
/// use dcm_ntier::graph::TopologyGraph;
/// use dcm_sim::dist::Dist;
/// use dcm_sim::rng::SimRng;
/// use dcm_workload::profile::{NodeDemand, ProfileFactory};
///
/// let mut rng = SimRng::seed_from(1);
/// let profile = ProfileFactory::rubbos().sample(&mut rng);
/// assert_eq!(profile.tiers(), 3);
/// assert!(profile.visits_to(2) >= 1);
///
/// // web fans out to two services; each calls the shared db.
/// let graph = TopologyGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]);
/// let factory = ProfileFactory::new(
///     graph,
///     vec![
///         NodeDemand::split(Dist::constant(0.001)),
///         NodeDemand::split(Dist::constant(0.010)),
///         NodeDemand::split(Dist::constant(0.012)),
///         NodeDemand::leaf(Dist::constant(0.007)),
///     ],
/// );
/// let p = factory.sample(&mut rng);
/// assert_eq!(p.tiers(), 4);
/// assert_eq!(p.cumulative_visits(3), 2); // one query via each service
/// ```
#[derive(Debug, Clone)]
pub struct ProfileFactory {
    demands: Vec<NodeDemand>,
    cache: Option<CacheEdge>,
    /// The request shapes: one per servlet of the mix, in mix order, or
    /// the factory's one graph without a mix.
    shapes: Vec<Shape>,
    mix: Option<ServletMix>,
    /// The sample in progress's base draws, held until its cache decision
    /// picks the route they are installed with.
    base: RefCell<Vec<StageDemand>>,
}

const PRESET_ONLY: &str = "only the RUBBoS presets carry a servlet mix";

/// The RUBBoS chain's web and app nodes; db is the last node.
const WEB: usize = 0;
const APP: usize = 1;

/// One request shape: the routes its requests share, built once, and under
/// a servlet mix the servlet's demand multipliers.
#[derive(Debug, Clone)]
struct Shape {
    /// The route of a request without a cache hit.
    miss: Rc<TopologyGraph>,
    /// With a cache edge, the route of a hit: `miss` with the cached
    /// edge's calls set to 0.
    hit: Option<Rc<TopologyGraph>>,
    /// Under a servlet mix, the demand multiplier of each RUBBoS node (1
    /// on the lb node).
    mults: Option<[f64; 4]>,
}

impl Shape {
    /// The shape routed through `miss`, with its hit route under `cache`.
    fn new(miss: TopologyGraph, mults: Option<[f64; 4]>, cache: Option<&CacheEdge>) -> Self {
        let hit = cache.map(|cache| Rc::new(miss.skipping(cache.from, cache.to)));
        Shape {
            miss: Rc::new(miss),
            hit,
            mults,
        }
    }

    /// The shapes of `mix`'s servlets over the `tiers`-node RUBBoS chain.
    /// A servlet's multipliers scale the web, app and db nodes' draws, and
    /// its queries (at least 1) travel the app's out-edge (app → db, or
    /// app → lb on four tiers).
    fn servlets(mix: &ServletMix, tiers: usize, cache: Option<&CacheEdge>) -> Vec<Shape> {
        let shape = |servlet: &Servlet| {
            let mut visits = [1; 4];
            visits[2] = servlet.db_queries.max(1);
            let mut mults = [1.0; 4];
            mults[WEB] = servlet.web_mult;
            mults[APP] = servlet.app_mult;
            *mults[..tiers]
                .last_mut()
                .expect("a RUBBoS chain ends at its db node") = servlet.db_mult;
            Shape::new(TopologyGraph::chain(&visits[..tiers]), Some(mults), cache)
        };
        mix.servlets().iter().map(shape).collect()
    }
}

impl ProfileFactory {
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
        ProfileFactory {
            demands,
            cache: None,
            shapes: Vec::from([Shape::new(graph, None, None)]),
            mix: None,
            base: RefCell::default(),
        }
    }

    /// The paper-matching factory: browse-only mix, per-tier demand means
    /// equal to the reference laws' `S⁰`, moderate variability.
    pub fn rubbos() -> Self {
        Self::rubbos_chain(Dist::exponential_mean, false)
    }

    /// The paper's four-tier deployment: same demands, with each query
    /// routed through the DB load-balancer tier (use together with
    /// `ThreeTierBuilder::with_db_load_balancer`).
    pub fn rubbos_four_tier() -> Self {
        Self::rubbos_chain(Dist::exponential_mean, true)
    }

    /// A deterministic variant (constant demands at the law means) for
    /// noise-free unit tests and calibration runs.
    pub fn rubbos_deterministic() -> Self {
        Self::rubbos_chain(Dist::constant, false)
    }

    /// The RUBBoS chain web → app → db under the browse-only mix, each base
    /// demand `base(S⁰)` of its tier's reference law; `four_tier` puts the
    /// DB load balancer (a constant 100 µs pass-through per query) between
    /// app and db.
    fn rubbos_chain(base: fn(f64) -> Dist, four_tier: bool) -> Self {
        let mut demands = Vec::from([
            NodeDemand::leaf(base(reference::apache().s0())),
            NodeDemand::split(base(reference::tomcat().s0())),
        ]);
        if four_tier {
            demands.push(NodeDemand::leaf(Dist::constant(1.0e-4)));
        }
        // Each query's demand is an independent draw: reusing one sample
        // across a request's queries correlates the DB station's service
        // times (long query ⇒ the next is long too), which inflates
        // queueing beyond the product-form model the MVA oracle solves.
        demands.push(NodeDemand::leaf(base(reference::mysql().s0())).iid_visits());
        let graph = TopologyGraph::chain(&[1; 4][..demands.len()]);
        let mix = ServletMix::browse_only();
        ProfileFactory {
            shapes: Shape::servlets(&mix, demands.len(), None),
            mix: Some(mix),
            ..Self::new(graph, demands)
        }
    }

    /// Overrides a RUBBoS preset's servlet mix.
    ///
    /// # Panics
    ///
    /// Panics if the factory is not a RUBBoS preset.
    pub fn with_mix(mut self, mix: ServletMix) -> Self {
        assert!(self.mix.is_some(), "{PRESET_ONLY}");
        self.shapes = Shape::servlets(&mix, self.demands.len(), self.cache.as_ref());
        self.mix = Some(mix);
        self
    }

    /// Overrides a RUBBoS preset's base demand distributions (web, app,
    /// db per query).
    ///
    /// # Panics
    ///
    /// Panics if the factory is not a RUBBoS preset.
    pub fn with_bases(mut self, web: Dist, app: Dist, db: Dist) -> Self {
        assert!(self.mix.is_some(), "{PRESET_ONLY}");
        let last = self.demands.len() - 1;
        self.demands[WEB].base = web;
        self.demands[APP].base = app;
        self.demands[last].base = db;
        self
    }

    /// Installs a cache on the `from → to` edge: each request draws a
    /// hit/miss decision from `dynamics`; hits take a route whose edge
    /// carries no calls, built here once per request shape.
    ///
    /// # Panics
    ///
    /// Panics if the graph holds no `from → to` edge.
    pub fn with_cache(mut self, from: usize, to: usize, dynamics: CacheDynamics) -> Self {
        for shape in &mut self.shapes {
            shape.hit = Some(Rc::new(shape.miss.skipping(from, to)));
        }
        self.cache = Some(CacheEdge { from, to, dynamics });
        self
    }

    /// Samples one request's execution plan.
    ///
    /// Draw order is deterministic: the servlet index (with a mix), one
    /// base demand per node in node order (constant nodes draw nothing),
    /// then the cache hit/miss decision, which picks the route, then
    /// independent per-visit demands in node order (the first visit reuses
    /// the base draw).
    pub fn sample(&self, rng: &mut SimRng) -> RequestProfile {
        self.sample_reusing(rng, None)
    }

    /// Like [`ProfileFactory::sample`], rebuilding `spare` in place when
    /// one is given (see [`RequestProfile::on_route_reusing`]): the same
    /// draws and the same profile, without allocating once `spare`'s
    /// buffers are large enough. The profile shares the route its shape
    /// and cache decision pick.
    pub fn sample_reusing(
        &self,
        rng: &mut SimRng,
        spare: Option<RequestProfile>,
    ) -> RequestProfile {
        let (shape, class) = match &self.mix {
            Some(mix) => {
                let index = mix.sample_index(rng);
                (&self.shapes[index], index as u16)
            }
            None => (&self.shapes[0], 0),
        };
        let draw = |m: usize, node: &NodeDemand, rng: &mut SimRng| {
            let d = node.base.sample(rng) * shape.mults.map_or(1.0, |mults| mults[m]);
            StageDemand {
                pre: d * node.pre_fraction,
                post: d * (1.0 - node.pre_fraction),
            }
        };
        let mut base = self.base.borrow_mut();
        base.clear();
        base.extend(
            self.demands
                .iter()
                .enumerate()
                .map(|(m, node)| draw(m, node, rng)),
        );
        let hit = self
            .cache
            .as_ref()
            .is_some_and(|cache| cache.dynamics.decide(rng));
        let route = match &shape.hit {
            Some(hit_route) if hit => hit_route,
            _ => &shape.miss,
        };
        let mut profile =
            RequestProfile::on_route_reusing(spare, base.iter().copied(), route, class);
        let nodes = self.demands.iter().zip(route.visit_ratios());
        for (m, (node, &visits)) in nodes.enumerate() {
            if !node.per_visit_iid || visits <= 1 {
                continue;
            }
            let rest = (1..visits).map(|_| draw(m, node, rng));
            profile.set_per_visit_demands(m, std::iter::once(base[m]).chain(rest));
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

    fn diamond_factory() -> ProfileFactory {
        // web → {svc-a, svc-b} → db
        let graph = TopologyGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 2), (2, 3, 1)]);
        ProfileFactory::new(
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
        let factory = ProfileFactory::new(
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
        let plain = ProfileFactory::new(graph.clone(), demands());
        let zeroed = ProfileFactory::new(graph, demands()).with_cache(
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

    #[test]
    fn samples_of_one_servlet_share_its_route() {
        let mix = ServletMix::from_servlets(
            [("One", 1), ("Two", 2)]
                .into_iter()
                .map(|(name, db_queries)| Servlet {
                    name,
                    weight: 1.0,
                    web_mult: 1.0,
                    app_mult: 1.0,
                    db_mult: 1.0,
                    db_queries,
                })
                .collect(),
        )
        .unwrap();
        let factory = ProfileFactory::rubbos().with_mix(mix);
        let mut rng = SimRng::seed_from(5);
        let samples: Vec<RequestProfile> = (0..64).map(|_| factory.sample(&mut rng)).collect();
        let by_class = |class: u16| samples.iter().filter(move |p| p.class() == class);
        for class in [0, 1] {
            let first = by_class(class).next().expect("both servlets drawn");
            assert!(by_class(class).all(|p| std::ptr::eq(p.graph(), first.graph())));
        }
        let (one, two) = (by_class(0).next().unwrap(), by_class(1).next().unwrap());
        assert!(!std::ptr::eq(one.graph(), two.graph()));
        assert_eq!(two.cumulative_visits(2), 2);
    }

    #[test]
    fn cache_hits_share_one_route_and_misses_another() {
        let factory = diamond_factory().with_cache(1, 3, crate::cache::CacheDynamics::steady(0.5));
        let mut rng = SimRng::seed_from(9);
        let samples: Vec<RequestProfile> = (0..200).map(|_| factory.sample(&mut rng)).collect();
        // Two db visits through svc-a on a miss, none on a hit.
        let (hits, misses): (Vec<_>, Vec<_>) =
            samples.iter().partition(|p| p.cumulative_visits(3) == 1);
        assert!(hits.len() > 50 && misses.len() > 50);
        assert!(misses.iter().all(|p| p.cumulative_visits(3) == 3));
        for group in [&hits, &misses] {
            assert!(group
                .iter()
                .all(|p| std::ptr::eq(p.graph(), group[0].graph())));
        }
        assert!(!std::ptr::eq(hits[0].graph(), misses[0].graph()));
    }

    /// Refilling must overwrite every field: whatever spare a factory is
    /// handed — any shape, with or without per-visit demands — it builds
    /// exactly the profile a fresh sample gives, from the same draws.
    #[test]
    fn recycled_profiles_equal_fresh_ones() {
        let factories = || -> [ProfileFactory; 3] {
            [
                ProfileFactory::rubbos(),
                ProfileFactory::rubbos_four_tier(),
                diamond_factory().with_cache(1, 3, crate::cache::CacheDynamics::steady(0.5)),
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
        let _ = ProfileFactory::new(
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
