//! The reusable MVA planner behind the model-predictive controller.
//!
//! [`predict`] maps a proposed deployment — per-tier VM counts, per-VM
//! concurrency caps, and fitted per-tier demands — onto the same closed
//! product-form network the conformance harness solves, and returns the
//! exact MVA throughput / residence / response time at a given client
//! population. Each tier becomes one multi-server queueing station with
//! `servers × concurrency` service channels (a tier of `k` identical VMs
//! behind a random balancer, each admitting `N` concurrent requests, has
//! exactly that aggregate completion rate when demands are i.i.d.).
//!
//! A tier with at least as many channels as the planning population can
//! never queue: its rate `min(n, c)/S` is `n/S` for every `n ≤ N`, which
//! is the infinite-server rate, so it is built as a delay station, the
//! station the conformance harness builds for its ample pools. The
//! solver folds delay stations into the think-time factor, so a
//! prediction convolves only the tiers that can queue (the MPC's wide
//! web tier never does). The fold is exact in real arithmetic, and the
//! floats agree with the all-queueing solve to within `1e-12` relative
//! (proptested).
//!
//! The demands are *inputs*: contention effects (the paper's concurrency
//! law `S*(N)`) are folded in by the caller, which adjusts each
//! candidate's demand via the fitted [`dcm_model::concurrency`] model
//! before asking for a prediction. That keeps the planner itself a pure
//! product-form solver with the classic guarantees — predicted throughput
//! is monotone non-decreasing in every tier's server count and
//! concurrency, and never exceeds the asymptotic bound
//! `X ≤ min(N/(Z+ΣD), min_m c_m/D_m)` — properties the planner proptests
//! pin down.

use dcm_model::mva::{ClosedNetwork, ConvCache, Station};

/// One tier of a candidate deployment, as the planner sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedTier {
    /// VMs in the tier (`k ≥ 1`).
    pub servers: u32,
    /// Admitted concurrency per VM (`N ≥ 1`): thread- or connection-pool
    /// size, whichever gates this tier.
    pub concurrency: u32,
    /// Mean per-visit service demand at the offered concurrency (seconds,
    /// `> 0`). Contention-adjust before calling if the tier is lawful.
    pub demand: f64,
    /// Visits per client request (`≥ 0`; `0` drops the tier out).
    pub visits: f64,
}

impl PlannedTier {
    /// Aggregate service channels the tier offers.
    fn channels(self) -> u32 {
        self.servers.max(1).saturating_mul(self.concurrency.max(1))
    }

    /// Service demand `D = V·S` per client request.
    pub fn total_demand(self) -> f64 {
        self.visits * self.demand
    }
}

/// What [`predict`] returns: the exact MVA solution of the candidate
/// deployment at the given population, flattened to the quantities the
/// controller ranks plans by.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Client population the network was solved at.
    pub population: u32,
    /// Predicted system throughput `X(N)` (requests/sec).
    pub throughput: f64,
    /// Predicted end-to-end response time `R(N)` (seconds, excl. think).
    pub response_time: f64,
    /// Per-tier residence per client request, `V_m·R_m` (seconds), in the
    /// order the tiers were given.
    pub residence: Vec<f64>,
    /// Per-tier utilization (fraction of the tier's peak rate).
    pub utilization: Vec<f64>,
}

/// Builds the closed network for a candidate deployment. Tiers with zero
/// visits are kept as (unvisited) stations so residence indices line up.
/// A tier of at least `population` channels is a delay station: it never
/// queues at that population.
fn network(tiers: &[PlannedTier], think: f64, population: u32) -> ClosedNetwork {
    assert!(!tiers.is_empty(), "planner needs at least one tier");
    let stations = tiers
        .iter()
        .map(|t| {
            assert!(
                t.demand.is_finite() && t.demand > 0.0,
                "tier demand must be positive"
            );
            let (visit_ratio, service_time, servers) = (t.visits, t.demand, t.channels());
            if servers >= population {
                Station::Delay {
                    visit_ratio,
                    service_time,
                }
            } else {
                Station::Queueing {
                    visit_ratio,
                    service_time,
                    servers,
                }
            }
        })
        .collect();
    ClosedNetwork::new(stations, think)
}

/// Predicts throughput, per-tier residence, and response time for a
/// candidate deployment at client population `population` with mean think
/// time `think`, by exact load-dependent MVA.
///
/// # Panics
///
/// Panics on an empty tier list, a non-positive demand, or a negative /
/// non-finite think time (same contract as [`ClosedNetwork::new`]).
pub fn predict(tiers: &[PlannedTier], think: f64, population: u32) -> Prediction {
    predict_with(tiers, think, population, &mut ConvCache::default())
}

/// [`predict`], sharing partial convolutions through `cache` with the
/// other predictions of a batch, such as one control tick's candidate
/// grid, where candidates that share tiers reuse the convolutions built
/// from them. Bit-identical to [`predict`].
///
/// # Panics
///
/// Same contract as [`predict`].
pub fn predict_with(
    tiers: &[PlannedTier],
    think: f64,
    population: u32,
    cache: &mut ConvCache,
) -> Prediction {
    let sol = network(tiers, think, population).solve_with(population, cache);
    // A folded tier's utilization is still the fraction of its peak
    // rate `c/S`, in the queueing station's own float operations.
    let utilization = tiers
        .iter()
        .map(|t| sol.throughput * t.visits / (f64::from(t.channels()) / t.demand))
        .collect();
    Prediction {
        population,
        throughput: sol.throughput,
        response_time: sol.response_time,
        residence: sol.station_residence,
        utilization,
    }
}

/// The classic asymptotic throughput bound for a candidate deployment:
/// `X ≤ min(N/(Z+ΣD), min_m c_m/D_m)` where `c_m` is the tier's aggregate
/// channel count. A tier folded into a delay station drops out of the
/// second arm, where its `c_m/D_m ≥ N/D_m ≥ N/(Z+ΣD)` never binds. Every
/// [`predict`] result respects the bound (proptested).
pub fn throughput_bound(tiers: &[PlannedTier], think: f64, population: u32) -> f64 {
    network(tiers, think, population)
        .asymptotic_bounds(population)
        .throughput_upper
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_tier() -> Vec<PlannedTier> {
        vec![
            PlannedTier {
                servers: 1,
                concurrency: 100,
                demand: 0.005,
                visits: 1.0,
            },
            PlannedTier {
                servers: 2,
                concurrency: 20,
                demand: 0.02,
                visits: 1.0,
            },
            PlannedTier {
                servers: 1,
                concurrency: 4,
                demand: 0.04,
                visits: 2.0,
            },
        ]
    }

    #[test]
    fn population_one_sees_bare_demands() {
        let tiers = three_tier();
        let p = predict(&tiers, 1.0, 1);
        let d: f64 = tiers.iter().map(|t| t.total_demand()).sum();
        assert!((p.response_time - d).abs() < 1e-12);
        assert!((p.throughput - 1.0 / (1.0 + d)).abs() < 1e-12);
        assert_eq!(p.residence.len(), 3);
    }

    #[test]
    fn saturates_at_the_bottleneck_channel_rate() {
        let tiers = three_tier();
        // Bottleneck: DB with 1×4 channels, D = 2·0.04 ⇒ cap 4/(2·0.04) = 50/s.
        let p = predict(&tiers, 0.5, 400);
        assert!(
            (p.throughput - 50.0).abs() / 50.0 < 0.01,
            "{}",
            p.throughput
        );
        assert!(p.throughput <= throughput_bound(&tiers, 0.5, 400) + 1e-9);
    }

    #[test]
    fn more_servers_and_concurrency_never_hurt() {
        let base = three_tier();
        let p0 = predict(&base, 1.0, 120);
        let mut more_servers = base.clone();
        more_servers[2].servers += 1;
        let p1 = predict(&more_servers, 1.0, 120);
        assert!(p1.throughput >= p0.throughput - 1e-12);
        let mut more_conc = base;
        more_conc[2].concurrency += 4;
        let p2 = predict(&more_conc, 1.0, 120);
        assert!(p2.throughput >= p0.throughput - 1e-12);
    }

    /// The population and the bits of every float field.
    fn bits(p: &Prediction) -> (u32, Vec<u64>) {
        let fields = [p.throughput, p.response_time]
            .into_iter()
            .chain(p.residence.iter().copied())
            .chain(p.utilization.iter().copied());
        (p.population, fields.map(f64::to_bits).collect())
    }

    /// One MPC tick's 36-candidate grid at `N = 240` through one cache,
    /// with the web tier at `web_concurrency` channels; every prediction
    /// is bit-identical to an uncached one. Returns the distinct
    /// convolutions the cache ends with.
    fn mpc_grid_convolutions(web_concurrency: u32) -> usize {
        let tier = |servers, concurrency, demand, visits| PlannedTier {
            servers,
            concurrency,
            demand,
            visits,
        };
        let mut cache = ConvCache::default();
        for a in 1..=3 {
            for d in 1..=3 {
                for threads in [13, 15] {
                    for conns in [36, 40] {
                        // Pool-size contention stretches each demand.
                        let app_demand = 0.012 * (1.0 + 0.02 * f64::from(threads));
                        let db_demand = 0.004 * (1.0 + 0.01 * f64::from(conns));
                        let tiers = [
                            tier(1, web_concurrency, 0.002, 1.0),
                            tier(a, threads, app_demand, 1.0),
                            tier(d, conns, db_demand, 2.0),
                        ];
                        let shared = predict_with(&tiers, 3.0, 240, &mut cache);
                        assert_eq!(bits(&shared), bits(&predict(&tiers, 3.0, 240)));
                    }
                }
            }
        }
        cache.len()
    }

    /// The MPC's web tier (1 × 1024 channels) folds into the think-time
    /// factor, so the 36 candidates need only one IS⊛app per app
    /// configuration and one IS⊛db per db configuration: 6 + 6 distinct
    /// convolutions out of 72 lookups.
    #[test]
    fn shared_cache_is_bit_identical_on_an_mpc_grid() {
        assert_eq!(mpc_grid_convolutions(1024), 12);
    }

    /// A web tier of 1 × 128 channels can queue at `N = 240` and stays a
    /// station of its own: the grid's 85 distinct convolutions are
    /// IS⊛web, 6 (IS⊛web)⊛app prefixes, 36 app⊛db suffixes, 36
    /// IS⊛(app⊛db) and 6 (IS⊛web)⊛db complements, out of 180 lookups.
    #[test]
    fn shared_cache_is_bit_identical_on_a_grid_that_queues_everywhere() {
        assert_eq!(mpc_grid_convolutions(128), 85);
    }

    /// A tier folds exactly when its channels reach the population: with
    /// the web tier at `N` channels one prediction convolves two
    /// stations (IS⊛app and IS⊛db), at `N − 1` all three (`3k − 4 = 5`).
    #[test]
    fn a_tier_folds_at_exactly_the_population() {
        let mut tiers = three_tier();
        let cached = |tiers: &[PlannedTier]| {
            let mut cache = ConvCache::default();
            let _ = predict_with(tiers, 1.0, 100, &mut cache);
            cache.len()
        };
        assert_eq!(tiers[0].channels(), 100);
        assert_eq!(cached(&tiers), 2);
        tiers[0].concurrency = 99;
        assert_eq!(cached(&tiers), 5);
    }

    #[test]
    fn zero_population_is_degenerate() {
        let p = predict(&three_tier(), 1.0, 0);
        assert_eq!(p.throughput, 0.0);
        assert_eq!(p.response_time, 0.0);
    }

    #[test]
    #[should_panic(expected = "tier demand must be positive")]
    fn rejects_non_positive_demand() {
        let mut tiers = three_tier();
        tiers[0].demand = 0.0;
        let _ = predict(&tiers, 1.0, 10);
    }
}
