//! Conformance scenarios: one config, two solvers, a table of errors.

use std::collections::BTreeMap;

use dcm_model::mva::{law_rate_table, ClosedNetwork, Station};
use dcm_ntier::audit::ConservationAuditor;
use dcm_ntier::balancer::BalancerPolicy;
use dcm_ntier::ids::RequestId;
use dcm_ntier::law::ServiceLaw;
use dcm_ntier::spans::Span;
use dcm_ntier::topology::{SoftConfig, ThreeTierBuilder};
use dcm_sim::dist::Dist;
use dcm_sim::time::SimTime;
use dcm_workload::cohort::CohortPopulation;
use dcm_workload::profile::ProfileFactory;
use dcm_workload::servlets::{Servlet, ServletMix};
use serde::{Deserialize, Serialize};

/// A pool size that never queues at the populations the grid sweeps.
const AMPLE: u32 = 4096;

/// What kind of analytic truth a scenario is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// All laws frictionless: exact product-form network (delay tiers +
    /// `M/M/c` DB stations). Tight tolerance applies.
    ZeroOverhead,
    /// DB tier follows a real concurrency law `S*(N)`: exact load-dependent
    /// MVA with the ground-truth rate table. Looser tolerance applies.
    LoadDependent,
}

/// One conformance configuration (a topology; populations are swept
/// separately so each `(scenario, population)` pair is one run).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Short name used in tables (`mm1`, `law-mysql`, …).
    pub name: &'static str,
    /// Which oracle applies.
    pub kind: ScenarioKind,
    /// Hardware counts `(web, app, db)`.
    pub counts: (u32, u32, u32),
    /// DB thread pool per server (the queueing station's `c`); `AMPLE`
    /// turns the DB tier into a delay station too.
    pub db_threads: u32,
    /// Constant per-visit demands for the delay tiers `(web, app)`.
    pub web_demand: f64,
    /// App-tier constant demand.
    pub app_demand: f64,
    /// Mean exponential per-visit DB demand (must equal the DB law's `S⁰`
    /// for `LoadDependent` scenarios).
    pub db_demand: f64,
    /// DB queries per request (`V_db`).
    pub db_visits: u32,
    /// Constant think time `Z` (seconds).
    pub think: f64,
    /// DB-tier service law (frictionless for `ZeroOverhead`).
    pub db_law: ServiceLaw,
    /// Client populations to sweep.
    pub populations: &'static [u32],
    /// Warmup before the measurement window (seconds).
    pub warmup: f64,
    /// Measurement window length (seconds).
    pub measure: f64,
}

impl Scenario {
    /// The closed product-form network this topology is, solved exactly.
    pub fn network(&self) -> ClosedNetwork {
        let mut stations = vec![
            Station::Delay {
                visit_ratio: 1.0,
                service_time: self.web_demand,
            },
            Station::Delay {
                visit_ratio: 1.0,
                service_time: self.app_demand,
            },
        ];
        let db_servers = self.counts.2.max(1);
        let per_server_visits = f64::from(self.db_visits) / f64::from(db_servers);
        for _ in 0..db_servers {
            stations.push(self.db_station(per_server_visits));
        }
        ClosedNetwork::new(stations, self.think)
    }

    fn db_station(&self, visit_ratio: f64) -> Station {
        if self.db_threads >= AMPLE {
            return Station::Delay {
                visit_ratio,
                service_time: self.db_demand,
            };
        }
        match self.kind {
            ScenarioKind::ZeroOverhead => Station::Queueing {
                visit_ratio,
                service_time: self.db_demand,
                servers: self.db_threads,
            },
            ScenarioKind::LoadDependent => {
                let max_pop = self.populations.iter().copied().max().unwrap_or(1);
                let law = self.db_law;
                Station::LoadDependent {
                    visit_ratio,
                    service_time: self.db_demand,
                    rate: law_rate_table(law.s0(), self.db_threads, max_pop, |m| {
                        law.adjusted_service_time(m)
                    }),
                }
            }
        }
    }
}

/// DES-vs-oracle comparison for one tier's residence per client request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierComparison {
    /// Measured mean residence per client request (seconds; queueing +
    /// service at this tier, downstream time excluded).
    pub des: f64,
    /// The exact MVA residence `V_m·R_m`.
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// Per-tier residence comparisons `(web, app, db)`.
    pub residence: [TierComparison; 3],
    /// Mean DB-tier population: DES (via Little on measured X·R) vs MVA.
    pub db_queue: TierComparison,
    /// The asymptotic throughput upper bound at this population.
    pub throughput_bound: f64,
    /// Whether measured throughput respects the bound (with 0.5%
    /// measurement slack).
    pub bound_ok: bool,
    /// Conservation-audit violations over the measurement window (must be
    /// zero).
    pub audit_violations: usize,
}

impl ConformancePoint {
    /// The largest relative error across throughput and tier residences.
    pub fn max_rel_err(&self) -> f64 {
        self.residence
            .iter()
            .map(|t| t.rel_err)
            .fold(self.throughput.rel_err, f64::max)
    }
}

/// Runs one scenario at one population of users in cohorts of
/// `cohort_size` ([`CohortPopulation`]; 1 is the per-user run) and
/// compares against the oracle. Larger cohorts re-order RNG draws across
/// members, so the sample path differs from the per-user run — but the
/// stationary distribution must not: every point is gated against the
/// same exact-MVA oracle.
///
/// # Panics
///
/// Panics if `cohort_size` is zero or the DES produces no completions in
/// the window (any population works, in the scenario's sweep or not).
pub fn run_scenario(
    scenario: &Scenario,
    population: u32,
    seed: u64,
    cohort_size: u32,
) -> ConformancePoint {
    let (w, a, d) = scenario.counts;
    let horizon = scenario.warmup + scenario.measure + 60.0;
    let (mut world, mut engine) = ThreeTierBuilder::new()
        .counts(w, a, d)
        .soft(SoftConfig::new(AMPLE, AMPLE, AMPLE))
        .db_threads(scenario.db_threads)
        .balancer(BalancerPolicy::Random)
        .web_law(ServiceLaw::frictionless(scenario.web_demand))
        .app_law(ServiceLaw::frictionless(scenario.app_demand))
        .db_law(scenario.db_law)
        .seed(seed)
        .build();
    world.system.enable_tracing();

    let mix = ServletMix::from_servlets(vec![Servlet {
        name: "conformance",
        weight: 1.0,
        web_mult: 1.0,
        app_mult: 1.0,
        db_mult: 1.0,
        db_queries: scenario.db_visits,
    }])
    .expect("single-servlet mix is valid");
    let factory = ProfileFactory::rubbos_deterministic()
        .with_mix(mix)
        .with_bases(
            Dist::constant(scenario.web_demand),
            Dist::constant(scenario.app_demand),
            Dist::exponential_mean(scenario.db_demand),
        );
    let _pop = CohortPopulation::start_with_think_dist(
        &mut world,
        &mut engine,
        factory,
        population,
        cohort_size,
        Some(Dist::constant(scenario.think)),
        SimTime::from_secs_f64(horizon),
    );

    engine.run_until(&mut world, SimTime::from_secs_f64(scenario.warmup));
    let t0 = engine.now();
    let _ = world.system.take_spans();
    let auditor = ConservationAuditor::begin(&world.system, t0);
    let completed_mark = world.system.counters().completed;

    engine.run_until(
        &mut world,
        SimTime::from_secs_f64(scenario.warmup + scenario.measure),
    );
    let t1 = engine.now();
    let spans = world.system.take_spans();
    let audit = auditor.finish(&world.system, &spans, t1);
    let window = t1.saturating_since(t0).as_secs_f64();
    assert!(window > 0.0, "empty measurement window");

    let completions = world.system.counters().completed - completed_mark;
    assert!(
        completions > 0,
        "no completions in window for {}",
        scenario.name
    );
    let x_des = completions as f64 / window;

    let (r_web, r_app, r_db) = tier_residences(&spans, t0);

    let net = scenario.network();
    let sol = net.solve(population);
    let bounds = net.asymptotic_bounds(population);
    let mva_r_web = sol.station_residence[0];
    let mva_r_app = sol.station_residence[1];
    let mva_r_db: f64 = sol.station_residence[2..].iter().sum();
    let mva_q_db: f64 = sol.station_queue[2..].iter().sum();

    let throughput = compare(x_des, sol.throughput);
    ConformancePoint {
        scenario: scenario.name,
        kind: scenario.kind,
        population,
        completions,
        throughput,
        residence: [
            compare(r_web, mva_r_web),
            compare(r_app, mva_r_app),
            compare(r_db, mva_r_db),
        ],
        db_queue: compare(x_des * r_db, mva_q_db),
        throughput_bound: bounds.throughput_upper,
        bound_ok: x_des <= bounds.throughput_upper * 1.005,
        audit_violations: audit.violations.len(),
    }
}

/// Mean per-request exclusive residence per tier, from spans of requests
/// fully inside the window (submitted after `t0`, completed).
///
/// A span's `[arrived, finished]` covers downstream time too, so the
/// exclusive residence subtracts the child tier's spans request by request.
fn tier_residences(spans: &[Span], t0: SimTime) -> (f64, f64, f64) {
    let mut per_request: BTreeMap<RequestId, [f64; 3]> = BTreeMap::new();
    let mut eligible: BTreeMap<RequestId, bool> = BTreeMap::new();
    for s in spans {
        if s.tier >= 3 {
            continue;
        }
        let dur = s.finished_at.saturating_since(s.arrived_at).as_secs_f64();
        per_request.entry(s.request).or_insert([0.0; 3])[s.tier] += dur;
        if s.tier == 0 {
            eligible.insert(s.request, s.is_completed() && s.arrived_at >= t0);
        }
    }
    let mut sums = [0.0f64; 3];
    let mut n = 0u64;
    for (rid, totals) in &per_request {
        if !eligible.get(rid).copied().unwrap_or(false) {
            continue;
        }
        n += 1;
        sums[0] += totals[0] - totals[1];
        sums[1] += totals[1] - totals[2];
        sums[2] += totals[2];
    }
    assert!(n > 0, "no fully-observed requests in window");
    let n = n as f64;
    (sums[0] / n, sums[1] / n, sums[2] / n)
}

/// The committed conformance grid: 14 zero-overhead points (delay tiers +
/// `M/M/1`, `M/M/4`, dual `M/M/2` DB stations, plus a pure delay network
/// exercising `V_db = 2`) and 6 load-dependent points driven by real
/// concurrency laws, spanning light load through saturation.
pub fn default_grid() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "mm1",
            kind: ScenarioKind::ZeroOverhead,
            counts: (1, 1, 1),
            db_threads: 1,
            web_demand: 0.002,
            app_demand: 0.008,
            db_demand: 0.04,
            db_visits: 1,
            think: 1.0,
            db_law: ServiceLaw::frictionless(0.04),
            populations: &[4, 12, 20, 30],
            warmup: 100.0,
            measure: 4000.0,
        },
        Scenario {
            name: "mm4",
            kind: ScenarioKind::ZeroOverhead,
            counts: (1, 1, 1),
            db_threads: 4,
            web_demand: 0.002,
            app_demand: 0.008,
            db_demand: 0.12,
            db_visits: 1,
            think: 1.0,
            db_law: ServiceLaw::frictionless(0.12),
            populations: &[6, 18, 36, 54],
            warmup: 100.0,
            measure: 4000.0,
        },
        Scenario {
            name: "dual-db",
            kind: ScenarioKind::ZeroOverhead,
            counts: (1, 2, 2),
            db_threads: 2,
            web_demand: 0.002,
            app_demand: 0.008,
            db_demand: 0.08,
            db_visits: 1,
            think: 0.8,
            db_law: ServiceLaw::frictionless(0.08),
            populations: &[10, 30, 60, 90],
            warmup: 100.0,
            measure: 4000.0,
        },
        Scenario {
            name: "delay",
            kind: ScenarioKind::ZeroOverhead,
            counts: (2, 2, 2),
            db_threads: AMPLE,
            web_demand: 0.004,
            app_demand: 0.02,
            db_demand: 0.04,
            db_visits: 2,
            think: 0.5,
            db_law: ServiceLaw::frictionless(0.04),
            populations: &[5, 50],
            warmup: 60.0,
            measure: 1500.0,
        },
        Scenario {
            name: "law-mysql",
            kind: ScenarioKind::LoadDependent,
            counts: (1, 1, 1),
            db_threads: 16,
            web_demand: 0.002,
            app_demand: 0.008,
            db_demand: 2.95501e-2,
            db_visits: 1,
            think: 0.5,
            db_law: ServiceLaw::new(2.95501e-2, 4.53985e-3, 1.9298e-5),
            populations: &[6, 16, 32],
            warmup: 100.0,
            measure: 4000.0,
        },
        Scenario {
            name: "law-knee",
            kind: ScenarioKind::LoadDependent,
            counts: (1, 1, 1),
            db_threads: 24,
            web_demand: 0.002,
            app_demand: 0.008,
            db_demand: 2.84e-2,
            db_visits: 1,
            think: 0.5,
            db_law: ServiceLaw::new(2.84e-2, 1.6e-2, 7.0e-5),
            populations: &[8, 20, 40],
            warmup: 100.0,
            measure: 4000.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_enough_points_and_coherent_laws() {
        let grid = default_grid();
        let zero: usize = grid
            .iter()
            .filter(|s| s.kind == ScenarioKind::ZeroOverhead)
            .map(|s| s.populations.len())
            .sum();
        let law: usize = grid
            .iter()
            .filter(|s| s.kind == ScenarioKind::LoadDependent)
            .map(|s| s.populations.len())
            .sum();
        assert!(zero >= 12, "need >= 12 zero-overhead points, have {zero}");
        assert!(law >= 6, "need >= 6 load-dependent points, have {law}");
        for s in &grid {
            if s.kind == ScenarioKind::LoadDependent {
                assert!(
                    (s.db_demand - s.db_law.s0()).abs() < 1e-12,
                    "{}: demand mean must equal the law's S0",
                    s.name
                );
            }
        }
    }

    #[test]
    fn network_station_count_tracks_db_servers() {
        let grid = default_grid();
        let dual = grid.iter().find(|s| s.name == "dual-db").unwrap();
        assert_eq!(dual.network().stations.len(), 2 + 2);
        let mm1 = grid.iter().find(|s| s.name == "mm1").unwrap();
        assert_eq!(mm1.network().stations.len(), 3);
    }

    #[test]
    fn quick_point_conforms_and_audits_clean() {
        // A cheap smoke point: mm1 at N=8 with a short window still lands
        // within a loose 10% of the oracle and audits clean.
        let mut s = default_grid().into_iter().next().unwrap();
        s.warmup = 30.0;
        s.measure = 400.0;
        let point = run_scenario(&s, 8, 1234, 1);
        assert_eq!(point.audit_violations, 0);
        assert!(point.bound_ok, "bound violated: {point:?}");
        assert!(point.max_rel_err() < 0.10, "errors too large: {point:?}");
    }

    #[test]
    fn quick_cohort_point_conforms_and_audits_clean() {
        // The cohort-aggregated generator must land on the same oracle:
        // a different sample path, the same stationary distribution.
        let mut s = default_grid().into_iter().next().unwrap();
        s.warmup = 30.0;
        s.measure = 400.0;
        let point = run_scenario(&s, 8, 1234, 4);
        assert_eq!(point.audit_violations, 0);
        assert!(point.bound_ok, "bound violated: {point:?}");
        assert!(point.max_rel_err() < 0.10, "errors too large: {point:?}");
    }

    /// Full-grid calibration sweep. Expensive (~minutes of simulated time
    /// per point), so ignored by default; `repro validate` is the shipping
    /// entry point. Run with `cargo test -p dcm-oracle -- --ignored`.
    #[test]
    #[ignore]
    fn full_grid_within_tolerance() {
        let mut worst_zero = 0.0f64;
        let mut worst_law = 0.0f64;
        for (i, s) in default_grid().iter().enumerate() {
            for (j, &n) in s.populations.iter().enumerate() {
                let seed = (i as u64) * 100 + j as u64 + 7;
                let p = run_scenario(s, n, seed, 1);
                eprintln!(
                    "{:>9} N={:<3} X: {:.4}/{:.4} ({:+.3}%)  R: web {:+.3}% app {:+.3}% db {:+.3}%  Q_db {:+.3}%  audits={}",
                    p.scenario,
                    n,
                    p.throughput.des,
                    p.throughput.mva,
                    100.0 * p.throughput.rel_err,
                    100.0 * p.residence[0].rel_err,
                    100.0 * p.residence[1].rel_err,
                    100.0 * p.residence[2].rel_err,
                    100.0 * p.db_queue.rel_err,
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
