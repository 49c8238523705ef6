//! Model-predictive concurrency management: plan with the exact closed
//! network, act on the cheapest plan that meets the SLO.
//!
//! Every control period the controller maps the observed topology and the
//! work-rate-law demand estimates onto [`dcm_oracle::planner`]'s closed
//! product-form network, enumerates candidate actions — VMs per scalable
//! tier within caps and per-tick step limits, crossed with thread/
//! connection-pool sizes around each tier model's `N*` — predicts each
//! candidate's throughput and response time with exact MVA, and applies
//! the cheapest plan whose predicted latency meets the SLO (falling back
//! to the best-effort plan when none does). The web tier is not
//! pool-managed; whenever its channels reach the planning population
//! (always, at league populations) the planner solves it as a delay
//! station and convolves only the app and db tiers, so a tick's
//! candidates share one convolution per app and per db configuration.
//!
//! Demands are estimated online from the monitor stream by inverting the
//! CPU sensor's work-rate law — `S⁰_i = U_i·k_i·(n*/f(n*)) / X_i`, the
//! zero-contention per-visit demand (delivered work is `X·S⁰` no matter
//! the contention level) — then re-contended for each candidate's pool
//! size with the fitted concurrency law, so the planner's monotonicity
//! guarantees hold while the concurrency trade-off (paper Eq. 5) still
//! shapes the choice. Estimates are invalidated whenever the topology or
//! soft allocation changes shape — points measured under a different
//! configuration describe a different system.
//!
//! The controller runs on the [control core](crate::control): a wedged
//! tier gets one more server at once, and the plan the controller last
//! committed to is its remembered capacity, so a crashed VM is
//! re-provisioned on the next tick without waiting for load to re-trip
//! anything.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dcm_model::mva::ConvCache;
use dcm_ntier::world::{SimEngine, World};
use dcm_obs::journal::{DecisionJournal, PlanProvenance};
use dcm_oracle::planner::{predict_with, PlannedTier, Prediction};

use crate::agents::ActionRecord;
use crate::aggregate::TierWindow;
use crate::control::{capacity, ControlCore, TierClass};
use crate::controller::{Controller, DcmModels};
use crate::monitor::MetricsBus;

/// Effective concurrency ceiling for tiers the MPC does not pool-manage
/// (the web tier's 1000-thread default never binds at league populations).
const UNMANAGED_CONCURRENCY: u32 = 1024;

/// EMA weight for the demand/visit estimators.
const EMA_ALPHA: f64 = 0.3;

/// MPC configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MpcConfig {
    /// Mean response-time SLO the plan must meet (seconds).
    pub slo_secs: f64,
    /// Client think time `Z` for the interactive-law population estimate.
    pub think_time_secs: f64,
    /// Tiers the controller may scale.
    pub scalable_tiers: Vec<usize>,
    /// Never scale a tier below this many servers.
    pub min_servers: usize,
    /// Never scale a tier above this many servers.
    pub max_servers: usize,
    /// Largest net VM change per tier per tick the planner may propose.
    pub step_limit: usize,
    /// Plan for `population × headroom` users so the plan leads the ramp
    /// instead of chasing it (boot delays are long; predictions are for
    /// the steady state the system is heading into).
    pub population_headroom: f64,
    /// Index of the application tier (thread-pool actuated).
    pub app_tier: usize,
    /// Index of the database tier (connection-pool actuated via the app
    /// tier).
    pub db_tier: usize,
    /// Multiplier on `N*` for the realistic pool size (same rationale as
    /// [`crate::controller::DcmConfig::headroom`]).
    pub pool_headroom: f64,
    /// Hysteresis against capacity flapping: a plan that surrenders a VM
    /// relative to the current allocation only qualifies as SLO-meeting
    /// when its predicted response clears `slo_secs × scale_in_margin`.
    pub scale_in_margin: f64,
}

impl Default for MpcConfig {
    fn default() -> Self {
        MpcConfig {
            slo_secs: 1.0,
            think_time_secs: 3.0,
            scalable_tiers: vec![1, 2],
            min_servers: 1,
            max_servers: 8,
            step_limit: 2,
            population_headroom: 1.0,
            app_tier: 1,
            db_tier: 2,
            pool_headroom: 1.1,
            scale_in_margin: 0.9,
        }
    }
}

/// Per-tier online demand estimate (work-rate-law inversion,
/// EMA-smoothed).
#[derive(Debug, Clone, Copy)]
struct TierEstimate {
    /// Zero-contention per-visit demand (seconds): `U·k·(n*/f(n*)) / X`,
    /// already contention-free because delivered work is `X·S⁰`
    /// regardless of how contention slows individual requests.
    base_demand: f64,
    /// Visit ratio relative to the front tier.
    visits: f64,
}

/// The model-predictive controller.
pub struct ModelPredictive {
    core: ControlCore,
    models: DcmModels,
    config: MpcConfig,
    estimates: BTreeMap<usize, TierEstimate>,
    /// `(per-tier counts, threads, conns)` shape under which the current
    /// estimates were measured; a change invalidates them.
    last_shape: Option<(Vec<usize>, u32, u32)>,
    /// Soft allocation the last plan committed to.
    committed_pools: Option<(u32, u32)>,
    /// Predicted throughput of the last committed plan, for the
    /// predicted-vs-realized journal line.
    last_predicted_x: Option<f64>,
    planner_evals: u64,
}

impl std::fmt::Debug for ModelPredictive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelPredictive")
            .field("config", &self.config)
            .field("planner_evals", &self.planner_evals)
            .finish_non_exhaustive()
    }
}

/// One enumerated candidate plan.
#[derive(Debug)]
struct Candidate {
    app_servers: usize,
    db_servers: usize,
    app_threads: u32,
    db_conns_total: u32,
    prediction: Prediction,
}

impl Candidate {
    /// VM cost the league charges for (web tier is fixed).
    fn cost(&self) -> usize {
        self.app_servers + self.db_servers
    }
}

impl ModelPredictive {
    /// Creates the controller reading from `bus`, planning with the given
    /// fitted tier models.
    pub fn new(bus: MetricsBus, config: MpcConfig, models: DcmModels) -> Self {
        let servers = (config.min_servers, config.max_servers);
        ModelPredictive {
            core: ControlCore::new(bus, "MPC", &config.scalable_tiers, servers),
            models,
            config,
            estimates: BTreeMap::new(),
            last_shape: None,
            committed_pools: None,
            last_predicted_x: None,
            planner_evals: 0,
        }
    }

    /// Tiers with a current demand estimate (diagnostics/tests).
    pub fn estimated_tiers(&self) -> Vec<usize> {
        self.estimates.keys().copied().collect()
    }

    /// Contention factor `S*(n)/S⁰` of the tier's fitted law at
    /// concurrency `n` (1.0 for unmodeled tiers).
    fn contention(&self, tier: usize, n: f64) -> f64 {
        let model = if tier == self.config.app_tier {
            &self.models.app
        } else if tier == self.config.db_tier {
            &self.models.db
        } else {
            return 1.0;
        };
        model.adjusted_service_time(n) / model.s0
    }

    /// Peak deliverable work rate `n*/f(n*)` of the tier's fitted law —
    /// the denominator of the simulated CPU sensor (1.0 for unmodeled
    /// tiers, degrading to the plain utilization law there).
    fn peak_work_rate(&self, tier: usize) -> f64 {
        let model = if tier == self.config.app_tier {
            &self.models.app
        } else if tier == self.config.db_tier {
            &self.models.db
        } else {
            return 1.0;
        };
        let n_star = model.optimal_concurrency();
        if n_star == u32::MAX {
            return 1.0;
        }
        let n = f64::from(n_star.min(10_000));
        n / (model.adjusted_service_time(n) / model.s0)
    }

    fn update_estimates(&mut self, windows: &BTreeMap<usize, TierWindow>) {
        let Some(front) = windows.get(&0) else {
            return;
        };
        let x0 = front.total_throughput;
        if x0 <= 0.0 {
            return;
        }
        for (&tier, w) in windows {
            let x_i = w.total_throughput;
            if x_i <= 0.0 || w.mean_cpu_util <= 0.0 {
                continue;
            }
            // The CPU sensor reports delivered work over the peak
            // deliverable work rate `n*/f(n*)`, and delivered work is
            // `X·S⁰` (contention slows progress, it does not add work), so
            // `S⁰ = U·k·(n*/f(n*)) / X` recovers the zero-contention
            // per-visit demand directly: local to the tier (thread
            // occupancy would fold in downstream wait) and already
            // contention-free (candidates re-apply their own pool's
            // contention factor).
            let base = w.mean_cpu_util * w.servers as f64 * self.peak_work_rate(tier) / x_i;
            let visits = if tier == 0 { 1.0 } else { x_i / x0 };
            let entry = self.estimates.entry(tier).or_insert(TierEstimate {
                base_demand: base,
                visits,
            });
            entry.base_demand += EMA_ALPHA * (base - entry.base_demand);
            entry.visits += EMA_ALPHA * (visits - entry.visits);
        }
    }

    /// Interactive-law population estimate `N = X·(R+Z)`, with per-tier
    /// dwell standing in for residence (falling back to the demand
    /// estimate when a tier had no completions this window).
    fn estimate_population(&self, windows: &BTreeMap<usize, TierWindow>) -> Option<u32> {
        let x0 = windows.get(&0)?.total_throughput;
        if x0 <= 0.0 {
            return Some(1);
        }
        let mut response = 0.0;
        for (&tier, est) in &self.estimates {
            let dwell = windows
                .get(&tier)
                .and_then(|w| w.mean_dwell)
                .unwrap_or(est.base_demand);
            response += est.visits * dwell;
        }
        let n = x0 * (response + self.config.think_time_secs) * self.config.population_headroom;
        Some((n.ceil() as u32).max(1))
    }

    /// Enumerates and evaluates every candidate within caps and step
    /// limits; returns them in deterministic enumeration order. A tier's
    /// span is `cur ± step_limit` clamped into the server caps, so it is
    /// never empty, and a tier already beyond a cap plans back to it.
    ///
    /// The candidates share one tick-local convolution cache. While the
    /// web tier's [`UNMANAGED_CONCURRENCY`] channels per server reach the
    /// planning population, the planner folds the tier into the
    /// think-time factor; each candidate then needs one convolution with
    /// its app configuration and one with its db configuration, and every
    /// configuration recurs across the grid.
    fn enumerate(&mut self, world: &World, population: u32) -> Vec<Candidate> {
        let (lo, hi) = (self.config.min_servers, self.config.max_servers);
        let step = self.config.step_limit;
        let span = |cur: usize| cur.saturating_sub(step).clamp(lo, hi)..=(cur + step).clamp(lo, hi);
        let cur_app = capacity(world, self.config.app_tier);
        let cur_db = capacity(world, self.config.db_tier);
        let web_servers = world.system.running_count(0).max(1);

        let n_app = self.models.app.optimal_concurrency().min(10_000);
        let n_db = self.models.db.optimal_concurrency().min(10_000);
        let headroom = self.config.pool_headroom;
        let thread_options = [n_app, (f64::from(n_app) * headroom).ceil() as u32];
        let conn_options = [n_db, (f64::from(n_db) * headroom).ceil() as u32];

        let web = self.estimates[&0];
        let app = self.estimates[&self.config.app_tier];
        let db = self.estimates[&self.config.db_tier];

        let mut cache = ConvCache::default();
        let mut out = Vec::new();
        for a in span(cur_app.max(1)) {
            for d in span(cur_db.max(1)) {
                for &threads in &thread_options {
                    for &conns_per_db in &conn_options {
                        let tiers = vec![
                            PlannedTier {
                                servers: web_servers as u32,
                                concurrency: UNMANAGED_CONCURRENCY,
                                demand: web.base_demand.max(1e-6),
                                visits: web.visits.max(1e-6),
                            },
                            PlannedTier {
                                servers: a as u32,
                                concurrency: threads,
                                demand: (app.base_demand
                                    * self.contention(self.config.app_tier, f64::from(threads)))
                                .max(1e-6),
                                visits: app.visits.max(1e-6),
                            },
                            PlannedTier {
                                servers: d as u32,
                                concurrency: conns_per_db,
                                demand: (db.base_demand
                                    * self
                                        .contention(self.config.db_tier, f64::from(conns_per_db)))
                                .max(1e-6),
                                visits: db.visits.max(1e-6),
                            },
                        ];
                        let prediction = predict_with(
                            &tiers,
                            self.config.think_time_secs,
                            population,
                            &mut cache,
                        );
                        self.planner_evals += 1;
                        out.push(Candidate {
                            app_servers: a,
                            db_servers: d,
                            app_threads: threads,
                            db_conns_total: conns_per_db * d as u32,
                            prediction,
                        });
                    }
                }
            }
        }
        out
    }

    /// The cheapest SLO-meeting candidate, or the lowest-response
    /// best-effort one. Ties break toward fewer VMs, then lower predicted
    /// response, then enumeration order — all deterministic.
    fn choose<'a>(
        &self,
        candidates: &'a [Candidate],
        cur_app: usize,
        cur_db: usize,
    ) -> (&'a Candidate, &'static str) {
        let slo = self.config.slo_secs;
        let mut best_meeting: Option<&Candidate> = None;
        let mut best_effort: Option<&Candidate> = None;
        for c in candidates {
            // Giving capacity back needs margin, not a borderline pass.
            let shrinks = c.app_servers < cur_app || c.db_servers < cur_db;
            let bar = if shrinks {
                slo * self.config.scale_in_margin
            } else {
                slo
            };
            if c.prediction.response_time <= bar {
                let better = match best_meeting {
                    None => true,
                    Some(b) => {
                        c.cost() < b.cost()
                            || (c.cost() == b.cost()
                                && c.prediction.response_time < b.prediction.response_time - 1e-12)
                    }
                };
                if better {
                    best_meeting = Some(c);
                }
            }
            let better = match best_effort {
                None => true,
                Some(b) => c.prediction.response_time < b.prediction.response_time - 1e-12,
            };
            if better {
                best_effort = Some(c);
            }
        }
        match best_meeting {
            Some(c) => (c, "meets-slo-cheapest"),
            None => (
                best_effort.expect("candidate set is never empty"),
                "best-effort",
            ),
        }
    }
}

impl Controller for ModelPredictive {
    fn on_tick(&mut self, world: &mut World, engine: &mut SimEngine) {
        let windows = self.core.poll();

        // Estimates are only comparable within one configuration shape.
        let counts: Vec<usize> = (0..world.system.tier_count())
            .map(|t| capacity(world, t))
            .collect();
        let (threads_now, conns_now) = self.committed_pools.unwrap_or((0, 0));
        let shape = (counts, threads_now, conns_now);
        if self.last_shape.as_ref() != Some(&shape) {
            if self.last_shape.is_some() {
                self.estimates.clear();
            }
            self.last_shape = Some(shape);
        }
        self.update_estimates(&windows);

        // Predicted-vs-realized: compare last tick's committed prediction
        // against the throughput the system just delivered.
        let measured_x = windows.get(&0).map(|w| w.total_throughput);
        let prediction_error = match (self.last_predicted_x, measured_x) {
            (Some(pred), Some(meas)) if pred > 0.0 => Some((pred - meas).abs() / pred),
            _ => None,
        };

        let views = self.core.observe(world, &windows, |_, w| {
            (w.mean_cpu_util, "cpu-util".to_string())
        });
        let (lo, hi) = (self.config.min_servers, self.config.max_servers);
        // Blind spot 1: wedged tiers get capacity now, not after the
        // planner regains signal (it never will while the tier is down).
        let forced = Some("tier silent/dead under load: forced scale-out");
        for view in views.iter().filter(|v| v.class == TierClass::Wedged) {
            let target = (view.capacity() + 1).clamp(lo, hi);
            self.core.drive(world, engine, view.tier, target, forced);
        }
        // Blind spot 2: the last committed plan is remembered as desired
        // capacity; a crashed VM is replaced before re-planning (the shape
        // change just reset the estimates, so the planner sees at most this
        // one window, and none from a tier that died).
        let lost = Some("capacity below committed plan (VM loss); re-provisioning");
        for view in &views {
            if let Some((before, _, desired)) = self.core.restore(world, engine, view.tier, lost) {
                let reason = format!("capacity {before} below committed plan {desired}");
                let value = Some(desired as u32);
                self.core
                    .decide("replace-lost", view.tier, value, true, reason);
            }
        }

        // Plan only with a full set of demand estimates; until then the
        // forced-capacity paths above are the whole policy.
        let (app_tier, db_tier) = (self.config.app_tier, self.config.db_tier);
        let have_estimates = self.estimates.contains_key(&0)
            && self.estimates.contains_key(&app_tier)
            && self.estimates.contains_key(&db_tier);
        let mut plan = None;
        if have_estimates {
            if let Some(population) = self.estimate_population(&windows) {
                let (cur_app, cur_db) = (capacity(world, app_tier), capacity(world, db_tier));
                let candidates = self.enumerate(world, population);
                let (chosen, reason) = self.choose(&candidates, cur_app, cur_db);
                for (tier, servers) in
                    [(app_tier, chosen.app_servers), (db_tier, chosen.db_servers)]
                {
                    self.core.drive(world, engine, tier, servers, Some(reason));
                }
                self.core.remember(app_tier, chosen.app_servers);
                self.core.remember(db_tier, chosen.db_servers);

                let k_app = capacity(world, app_tier).max(1) as u32;
                let conns_per_app = chosen.db_conns_total.div_ceil(k_app).max(1);
                let threads = chosen.app_threads;
                self.core.set_threads(world, engine, app_tier, threads, || {
                    format!("plan pool size {threads}")
                });
                self.core
                    .set_conns(world, engine, app_tier, conns_per_app, || {
                        format!(
                            "plan db concurrency {} split across {k_app} app server(s)",
                            chosen.db_conns_total
                        )
                    });
                self.committed_pools = Some((threads, conns_per_app));
                self.last_predicted_x = Some(chosen.prediction.throughput);
                plan = Some(PlanProvenance {
                    candidates: candidates.len() as u32,
                    predicted_throughput: chosen.prediction.throughput,
                    predicted_response: chosen.prediction.response_time,
                    chosen: format!(
                        "app={}x{} db={}x{} N={}",
                        chosen.app_servers,
                        chosen.app_threads,
                        chosen.db_servers,
                        chosen.db_conns_total,
                        chosen.prediction.population,
                    ),
                    reason: reason.to_string(),
                    prediction_error,
                });
            }
        }
        if plan.is_none() {
            let reason = "demand estimates not yet seeded; planning deferred";
            self.core.decide("hold", app_tier, None, false, reason);
        }
        self.core.finish_tick(engine.now(), Vec::new(), plan);
    }

    fn actions(&self) -> Vec<ActionRecord> {
        self.core.actions()
    }

    fn name(&self) -> &'static str {
        self.core.name()
    }

    fn attach_journal(&mut self, journal: Rc<RefCell<DecisionJournal>>) {
        self.core.attach_journal(journal);
    }

    fn planner_evals(&self) -> u64 {
        self.planner_evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::tests::{check, Rule};
    use crate::monitor::{new_metrics_bus, METRICS_TOPIC};
    use dcm_ntier::flow;
    use dcm_ntier::metrics::ServerSample;
    use dcm_ntier::topology::ThreeTierBuilder;
    use dcm_sim::time::SimTime;

    fn sample(server: &str, tier: usize, cpu: f64, x: f64) -> ServerSample {
        ServerSample {
            server: server.into(),
            tier,
            window_start: SimTime::ZERO,
            window_end: SimTime::from_secs(1),
            cpu_util: cpu,
            busy_fraction: cpu,
            active_threads: 1.0,
            completed: x as u64,
            throughput: x,
            mean_dwell: Some(0.05),
            thread_pool_size: 100,
            thread_queue: 0,
            conn_queue: 0,
        }
    }

    fn produce(bus: &MetricsBus, ts_ms: u64, sample: ServerSample) {
        bus.borrow_mut()
            .produce(METRICS_TOPIC, ts_ms, sample)
            .expect("metrics topic exists");
    }

    fn feed_all(bus: &MetricsBus, ts_ms: u64, cpu: f64) {
        produce(bus, ts_ms, sample("web-1", 0, cpu, 50.0));
        produce(bus, ts_ms, sample("app-1", 1, cpu, 50.0));
        produce(bus, ts_ms, sample("db-1", 2, cpu, 50.0));
    }

    #[test]
    fn seeds_estimates_then_plans_and_journals_provenance() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut mpc = ModelPredictive::new(
            Rc::clone(&bus),
            MpcConfig::default(),
            DcmModels::reference(),
        );
        let journal = Rc::new(RefCell::new(DecisionJournal::new()));
        mpc.attach_journal(Rc::clone(&journal));

        // Tick 1 with metrics: estimates seed and a plan is produced.
        feed_all(&bus, 1_000, 0.5);
        mpc.on_tick(&mut world, &mut engine);
        assert_eq!(mpc.estimated_tiers(), vec![0, 1, 2]);
        assert!(mpc.planner_evals() > 0, "candidates must be evaluated");
        let entry = journal.borrow().entries()[0].clone();
        let plan = entry.plan.expect("plan provenance journaled");
        assert!(plan.candidates > 0);
        assert_eq!(
            mpc.planner_evals(),
            u64::from(plan.candidates),
            "one planner evaluation per candidate, cache hits included"
        );
        assert!(plan.predicted_throughput > 0.0);
        assert!(
            plan.prediction_error.is_none(),
            "first tick has nothing to compare against"
        );

        // Tick 2: the previous prediction is scored against measurement
        // (if the shape didn't change, estimates survive).
        feed_all(&bus, 2_000, 0.5);
        mpc.on_tick(&mut world, &mut engine);
        let entry = journal.borrow().entries()[1].clone();
        if let Some(plan) = entry.plan {
            assert!(plan.prediction_error.is_some());
        }
    }

    #[test]
    fn without_metrics_holds_everything() {
        check("MPC", Rule::MonitorSilent);
    }

    #[test]
    fn dead_silent_tier_is_reprovisioned_immediately() {
        check("MPC", Rule::DeadTier);
    }

    #[test]
    fn wedged_silent_tier_scales_out_after_streak() {
        check("MPC", Rule::SilentTier);
    }

    #[test]
    fn crashed_vm_is_replaced_from_committed_plan() {
        check("MPC", Rule::LostCapacity);
    }

    /// Blind spot 3: estimates measured under one shape must not leak
    /// into the next (a scale event changes the throughput curve).
    #[test]
    fn estimates_reset_on_shape_change() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut mpc = ModelPredictive::new(
            Rc::clone(&bus),
            MpcConfig::default(),
            DcmModels::reference(),
        );
        feed_all(&bus, 1_000, 0.5);
        mpc.on_tick(&mut world, &mut engine);
        assert!(!mpc.estimated_tiers().is_empty());
        // An operator-driven scale event changes the topology shape.
        flow::provision_server(&mut world, &mut engine, 1).unwrap();
        mpc.on_tick(&mut world, &mut engine);
        assert!(
            mpc.estimated_tiers().is_empty(),
            "estimates from the old shape must be dropped"
        );
    }
}
