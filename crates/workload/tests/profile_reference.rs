//! The RUBBoS presets against the chain factory they replaced.
//!
//! `ChainReference::sample_reusing` is the chain `ProfileFactory`'s sampler
//! as it stood before the presets moved onto the graph factory, kept
//! verbatim (as `mva_reference.rs` keeps the old MVA solver). For every
//! preset the two must agree draw for draw: the same demand at every
//! visit, the same call routing, the same visit ratios and class, and the
//! same RNG state afterwards — for fresh profiles and for profiles rebuilt
//! in spares another preset left behind.

use dcm_ntier::law::reference;
use dcm_ntier::request::{RequestProfile, StageDemand};
use dcm_sim::dist::{Dist, Sample};
use dcm_sim::rng::SimRng;
use dcm_workload::profile::ProfileFactory;
use dcm_workload::servlets::{Servlet, ServletMix};

/// The chain factory's fields.
#[derive(Debug, Clone)]
struct ChainReference {
    mix: ServletMix,
    web_base: Dist,
    app_base: Dist,
    db_base: Dist,
    app_pre_fraction: f64,
    four_tier: bool,
}

impl ChainReference {
    fn rubbos() -> Self {
        ChainReference {
            mix: ServletMix::browse_only(),
            web_base: Dist::exponential_mean(reference::apache().s0()),
            app_base: Dist::exponential_mean(reference::tomcat().s0()),
            db_base: Dist::exponential_mean(reference::mysql().s0()),
            app_pre_fraction: 0.5,
            four_tier: false,
        }
    }

    fn rubbos_four_tier() -> Self {
        ChainReference {
            four_tier: true,
            ..Self::rubbos()
        }
    }

    fn rubbos_deterministic() -> Self {
        ChainReference {
            mix: ServletMix::browse_only(),
            web_base: Dist::constant(reference::apache().s0()),
            app_base: Dist::constant(reference::tomcat().s0()),
            db_base: Dist::constant(reference::mysql().s0()),
            app_pre_fraction: 0.5,
            four_tier: false,
        }
    }

    fn with_mix(mut self, mix: ServletMix) -> Self {
        self.mix = mix;
        self
    }

    fn with_bases(mut self, web: Dist, app: Dist, db: Dist) -> Self {
        self.web_base = web;
        self.app_base = app;
        self.db_base = db;
        self
    }

    /// The chain sampler, verbatim but for the dropped chain-graph flag and
    /// its constructor: it builds each profile fresh and drops the spare.
    fn sample_reusing(&self, rng: &mut SimRng, _spare: Option<RequestProfile>) -> RequestProfile {
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
            let profile = RequestProfile::new(demands.to_vec(), visits.to_vec(), idx as u16);
            (profile, 3)
        } else {
            let demands = [
                StageDemand::pre_only(web),
                app_demand,
                StageDemand::pre_only(db),
            ];
            let visits = [1, 1, queries];
            let profile = RequestProfile::new(demands.to_vec(), visits.to_vec(), idx as u16);
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

/// A one-servlet mix, as training builds.
fn single(name: &'static str, db_queries: u32) -> ServletMix {
    ServletMix::from_servlets(vec![Servlet {
        name,
        weight: 1.0,
        web_mult: 1.0,
        app_mult: 1.0,
        db_mult: 1.0,
        db_queries,
    }])
    .expect("single-servlet mix is valid")
}

/// Every preset under test, as (name, preset, reference).
fn cases() -> Vec<(&'static str, ProfileFactory, ChainReference)> {
    // A one-servlet deterministic preset with constant web and app
    // demands and three exponential queries.
    let conformance_bases = || {
        (
            Dist::constant(0.002),
            Dist::constant(0.008),
            Dist::exponential_mean(0.04),
        )
    };
    let (web, app, db) = conformance_bases();
    let conformance = ProfileFactory::rubbos_deterministic()
        .with_mix(single("conformance", 3))
        .with_bases(web, app, db);
    let (web, app, db) = conformance_bases();
    let conformance_ref = ChainReference::rubbos_deterministic()
        .with_mix(single("conformance", 3))
        .with_bases(web, app, db);
    // `training::db_stress_point`'s factory.
    let training_bases = || {
        (
            Dist::constant(1e-7),
            Dist::constant(1e-7),
            Dist::exponential_mean(reference::mysql().s0()),
        )
    };
    let (web, app, db) = training_bases();
    let training = ProfileFactory::rubbos()
        .with_mix(single("DbStress", 2))
        .with_bases(web, app, db);
    let (web, app, db) = training_bases();
    let training_ref = ChainReference::rubbos()
        .with_mix(single("DbStress", 2))
        .with_bases(web, app, db);
    vec![
        ("rubbos", ProfileFactory::rubbos(), ChainReference::rubbos()),
        (
            "rubbos_four_tier",
            ProfileFactory::rubbos_four_tier(),
            ChainReference::rubbos_four_tier(),
        ),
        (
            "rubbos_deterministic",
            ProfileFactory::rubbos_deterministic(),
            ChainReference::rubbos_deterministic(),
        ),
        ("conformance", conformance, conformance_ref),
        ("training", training, training_ref),
    ]
}

/// Asserts two profiles route and cost every visit identically.
fn assert_same(got: &RequestProfile, want: &RequestProfile, what: &str) {
    assert_eq!(got.tiers(), want.tiers(), "{what}: tiers");
    assert_eq!(got.class(), want.class(), "{what}: class");
    for m in 0..want.tiers() {
        let visits = want.cumulative_visits(m);
        assert_eq!(got.cumulative_visits(m), visits, "{what}: visits to {m}");
        for k in 0..visits {
            let (g, w) = (got.demand_for_visit(m, k), want.demand_for_visit(m, k));
            assert_eq!(
                (g.pre.to_bits(), g.post.to_bits()),
                (w.pre.to_bits(), w.post.to_bits()),
                "{what}: demand of visit {k} to tier {m}"
            );
        }
        let calls = want.total_calls_from(m);
        assert_eq!(got.total_calls_from(m), calls, "{what}: calls from {m}");
        for k in 0..calls {
            assert_eq!(
                got.call_target(m, k),
                want.call_target(m, k),
                "{what}: target of call {k} from {m}"
            );
        }
    }
}

const SAMPLES: usize = 10_000;
const SEEDS: [u64; 3] = [1, 17, 2026];

#[test]
fn presets_sample_fresh_profiles_as_the_chain_factory_did() {
    for (name, preset, chain) in cases() {
        for seed in SEEDS {
            let mut got_rng = SimRng::seed_from(seed);
            let mut want_rng = SimRng::seed_from(seed);
            for i in 0..SAMPLES {
                let got = preset.sample(&mut got_rng);
                let want = chain.sample_reusing(&mut want_rng, None);
                assert_same(&got, &want, &format!("{name}, seed {seed}, sample {i}"));
            }
            assert_eq!(
                got_rng.next_f64().to_bits(),
                want_rng.next_f64().to_bits(),
                "{name}, seed {seed}: RNG streams diverged"
            );
        }
    }
}

#[test]
fn presets_rebuild_other_presets_spares_as_the_chain_factory_did() {
    let cases = cases();
    let mut spare_rng = SimRng::seed_from(99);
    for (c, (name, preset, chain)) in cases.iter().enumerate() {
        for seed in SEEDS {
            let mut got_rng = SimRng::seed_from(seed);
            let mut want_rng = SimRng::seed_from(seed);
            for i in 0..SAMPLES {
                // Each side rebuilds a spare another preset sampled.
                let (_, other, other_chain) = &cases[(c + 1 + i % (cases.len() - 1)) % cases.len()];
                let got_spare = other.sample(&mut spare_rng);
                let want_spare = other_chain.sample_reusing(&mut spare_rng, None);
                let got = preset.sample_reusing(&mut got_rng, Some(got_spare));
                let want = chain.sample_reusing(&mut want_rng, Some(want_spare));
                assert_same(&got, &want, &format!("{name}, seed {seed}, sample {i}"));
            }
            assert_eq!(
                got_rng.next_f64().to_bits(),
                want_rng.next_f64().to_bits(),
                "{name}, seed {seed}: RNG streams diverged"
            );
        }
    }
}
