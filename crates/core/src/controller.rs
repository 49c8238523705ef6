//! The Optimization Controller (paper §IV) and the EC2-AutoScale baseline
//! (paper §V-B).
//!
//! Both controllers wake every control period (15 s) on the shared
//! [control core](crate::control), which consumes the monitor stream,
//! aggregates it per tier and classifies each scalable tier; their plan is
//! the same quick-start/slow-stop threshold policy. **DCM additionally
//! runs the APP-agent**: after every (potential) topology change it pushes
//! the concurrency-aware model's optimal soft-resource allocation into the
//! live pools — Tomcat thread pools sized to the app model's `N*`, MySQL
//! concurrency capped via the Tomcat connection pools at the db model's
//! `N* × K_db`, split across app servers.

use std::cell::RefCell;
use std::rc::Rc;

use dcm_model::concurrency::ConcurrencyModel;
use dcm_ntier::law::{reference, ServiceLaw};
use dcm_ntier::world::{SimEngine, World};
use dcm_obs::journal::{DecisionJournal, FitSnapshot};

use crate::agents::ActionRecord;
use crate::aggregate::TierWindow;
use crate::control::{
    capacity, ControlCore, TierClass, TierView, MONITOR_SILENT, SILENT_TICKS_FOR_PRESSURE,
};
use crate::monitor::MetricsBus;
use crate::policy::{ScaleDecision, ScalingConfig, ThresholdPolicy, TriggerSignal};
use crate::predictor::{HoltConfig, TierTrends};

/// A scaling controller invoked once per control period.
pub trait Controller {
    /// One control period: consume metrics, decide, actuate.
    fn on_tick(&mut self, world: &mut World, engine: &mut SimEngine);

    /// The actuation timeline so far (VM and soft-resource actions merged,
    /// in time order).
    fn actions(&self) -> Vec<ActionRecord>;

    /// Short display name for reports.
    fn name(&self) -> &'static str;

    /// Attaches a decision journal: the controller appends one
    /// [`JournalEntry`](dcm_obs::journal::JournalEntry) per tick — inputs,
    /// model state, decisions, reasons.
    /// The default implementation journals nothing.
    fn attach_journal(&mut self, _journal: Rc<RefCell<DecisionJournal>>) {}

    /// Total candidate-plan evaluations the controller has performed — the
    /// deterministic proxy for decision latency the league ranks on (wall
    /// clocks are banned in Strict crates). Model-free controllers cost 0.
    fn planner_evals(&self) -> u64 {
        0
    }
}

/// A boxed controller forwards every method, the provided ones included,
/// so [`crate::experiment::ControllerSpec::build`]'s trait objects journal
/// and count planner evaluations like the controllers inside them.
impl<C: Controller + ?Sized> Controller for Box<C> {
    fn on_tick(&mut self, world: &mut World, engine: &mut SimEngine) {
        (**self).on_tick(world, engine);
    }

    fn actions(&self) -> Vec<ActionRecord> {
        (**self).actions()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn attach_journal(&mut self, journal: Rc<RefCell<DecisionJournal>>) {
        (**self).attach_journal(journal);
    }

    fn planner_evals(&self) -> u64 {
        (**self).planner_evals()
    }
}

/// A reporting tier's threshold pressure under `trigger`, and its label.
fn pressure(trigger: TriggerSignal, window: &TierWindow) -> (f64, String) {
    match trigger {
        TriggerSignal::CpuUtil => (window.mean_cpu_util, "cpu-util".to_string()),
        TriggerSignal::DwellPressure { sla_secs } => {
            let pressure = match window.mean_dwell {
                Some(dwell) => dwell / sla_secs.max(1e-9),
                // No completions: a wedged-but-loaded tier is maximal
                // pressure; a genuinely idle one is zero.
                None if window.mean_concurrency > 1.0 => f64::INFINITY,
                None => 0.0,
            };
            (pressure, format!("dwell-pressure(sla={sla_secs}s)"))
        }
    }
}

/// The threshold plan EC2-AutoScale and DCM share: a monitor-silent or
/// waiting tier holds, a reporting or wedged one goes through `policy` at
/// its pressure, and the VM-agent executes a scale-out or scale-in. Returns
/// the tiers whose scaling was executed; holds and actions the agent could
/// not execute (e.g. scale-in of the last server) are only journaled.
fn vm_decisions(
    core: &mut ControlCore,
    policy: &mut ThresholdPolicy,
    world: &mut World,
    engine: &mut SimEngine,
    views: &[TierView],
) -> Vec<(usize, ScaleDecision)> {
    let (up, down, down_consecutive) = {
        let c = policy.config();
        (c.up_threshold, c.down_threshold, c.down_consecutive)
    };
    let mut applied = Vec::new();
    for view in views {
        let (tier, have) = (view.tier, view.capacity());
        let pressure = match view.class {
            TierClass::MonitorSilent => {
                core.decide("hold", tier, None, false, MONITOR_SILENT);
                continue;
            }
            TierClass::Waiting(streak) => {
                let reason = format!(
                    "tier silent {streak}/{SILENT_TICKS_FOR_PRESSURE} period(s) \
                     but has capacity; waiting before treating as wedged"
                );
                core.decide("hold", tier, None, false, reason);
                continue;
            }
            TierClass::Reporting | TierClass::Wedged => view.pressure,
        };
        let decision = policy.decide(tier, pressure, view.running, view.booting);
        let (action, ok, reason) = match decision {
            ScaleDecision::Out => {
                let why = if pressure.is_finite() {
                    format!("pressure {pressure:.3} > up_threshold {up:.2}")
                } else {
                    "tier silent/dead under load: treated as maximal pressure".to_string()
                };
                let ok = core.drive(world, engine, tier, have + 1, None).1 > have;
                let reason = if ok {
                    why
                } else {
                    format!("{why}, but provisioning failed")
                };
                ("scale-out", ok, reason)
            }
            ScaleDecision::In => {
                let why = format!(
                    "pressure {pressure:.3} < down_threshold {down:.2} \
                     for {down_consecutive} consecutive periods"
                );
                let ok = core.drive(world, engine, tier, have - 1, None).1 < have;
                let reason = if ok {
                    why
                } else {
                    format!("{why}, but scale-in refused")
                };
                ("scale-in", ok, reason)
            }
            ScaleDecision::Hold => {
                let why = if pressure > up {
                    if view.booting > 0 {
                        format!("pressure {pressure:.3} above up_threshold {up:.2} but a boot is already pending")
                    } else {
                        format!("pressure {pressure:.3} above up_threshold {up:.2} but tier is at max_servers")
                    }
                } else if pressure < down {
                    let streak = policy.below_count(tier);
                    format!(
                        "pressure {pressure:.3} < down_threshold {down:.2}, \
                         cold streak {streak}/{down_consecutive} (slow stop)"
                    )
                } else {
                    format!("pressure {pressure:.3} within [{down:.2}, {up:.2}] band")
                };
                ("hold", false, why)
            }
        };
        if ok {
            applied.push((tier, decision));
        }
        core.decide(action, tier, None, ok, reason);
    }
    applied
}

/// The hardware-only baseline: Amazon EC2-AutoScale–style threshold scaling
/// with **no** soft-resource adaptation — new servers join with whatever
/// pool sizes the tier was configured with — and no capacity memory.
pub struct Ec2AutoScale {
    core: ControlCore,
    policy: ThresholdPolicy,
}

impl std::fmt::Debug for Ec2AutoScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ec2AutoScale")
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl Ec2AutoScale {
    /// Creates the baseline controller reading from `bus`.
    pub fn new(bus: MetricsBus, config: ScalingConfig) -> Self {
        let servers = (config.min_servers, config.max_servers);
        Ec2AutoScale {
            core: ControlCore::new(bus, "EC2-AutoScale", &config.scalable_tiers, servers),
            policy: ThresholdPolicy::new(config),
        }
    }
}

impl Controller for Ec2AutoScale {
    fn on_tick(&mut self, world: &mut World, engine: &mut SimEngine) {
        let windows = self.core.poll();
        let trigger = self.policy.config().trigger;
        let views = self
            .core
            .observe(world, &windows, |_, w| pressure(trigger, w));
        vm_decisions(&mut self.core, &mut self.policy, world, engine, &views);
        self.core.finish_tick(engine.now(), Vec::new(), None);
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
}

/// The fitted models DCM drives its soft-resource decisions with (trained
/// offline as in the paper's §V-A, or refined online).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcmModels {
    /// Application-tier model (per-server `N*` → thread pool size).
    pub app: ConcurrencyModel,
    /// Database-tier model (per-server `N*` → total connection budget).
    pub db: ConcurrencyModel,
}

impl DcmModels {
    /// The simulated servers' own Tomcat and MySQL laws
    /// ([`reference::tomcat`], [`reference::mysql`]) as one-server models
    /// with `γ = 1`: the stand-in for trained models where a run or test
    /// skips training.
    pub fn reference() -> Self {
        let model =
            |law: ServiceLaw| ConcurrencyModel::new(law.s0(), law.alpha(), law.beta(), 1.0, 1);
        DcmModels {
            app: model(reference::tomcat()),
            db: model(reference::mysql()),
        }
    }
}
/// DCM configuration on top of the shared scaling policy.
#[derive(Debug, Clone, PartialEq)]
pub struct DcmConfig {
    /// VM-level policy (same defaults as the baseline).
    pub scaling: ScalingConfig,
    /// Index of the application tier (thread-pool actuated).
    pub app_tier: usize,
    /// Index of the database tier (connection-pool actuated via the app
    /// tier).
    pub db_tier: usize,
    /// Multiplier on `N*` for the realistic pool size — the paper notes
    /// the configured `maxThreads` should exceed the theoretical optimum
    /// because not every pooled thread is active (its Fig. 5 run uses 40
    /// connections for `N* = 36`).
    pub headroom: f64,
    /// Actuate app-tier thread pools (ablation switch).
    pub adapt_threads: bool,
    /// Actuate DB connection pools (ablation switch).
    pub adapt_conns: bool,
    /// Optional predictive VM scaling: scale out on the utilization
    /// *forecast* one boot-delay ahead instead of the current reading (the
    /// related-work extension; `None` = reactive, as in the paper).
    pub predictive: Option<HoltConfig>,
}

impl Default for DcmConfig {
    fn default() -> Self {
        DcmConfig {
            scaling: ScalingConfig::default(),
            app_tier: 1,
            db_tier: 2,
            headroom: 1.1,
            adapt_threads: true,
            adapt_conns: true,
            predictive: None,
        }
    }
}

/// Cap on each online-refit point buffer. At one saturated window per 15 s
/// control period this is a bit over an hour of history — plenty for a
/// refit, while keeping memory flat on multi-hour runs and letting the fit
/// track drift instead of being anchored by ancient samples.
const MAX_FIT_POINTS: usize = 256;

/// Online-refit state: accumulate `(concurrency, throughput)` points from
/// saturated windows and refit the tier model periodically. The buffers
/// are sliding windows (oldest point evicted past [`MAX_FIT_POINTS`]) and
/// are cleared wholesale whenever the topology or soft allocation changes,
/// because points measured under a different configuration lie on a
/// different throughput curve.
#[derive(Debug, Clone)]
struct OnlineFit {
    app_points: std::collections::VecDeque<(f64, f64)>,
    db_points: std::collections::VecDeque<(f64, f64)>,
    refit_every_ticks: u32,
    min_points: usize,
    ticks: u32,
}

impl OnlineFit {
    fn push_capped(points: &mut std::collections::VecDeque<(f64, f64)>, point: (f64, f64)) {
        points.push_back(point);
        if points.len() > MAX_FIT_POINTS {
            points.pop_front();
        }
    }

    fn clear(&mut self) {
        self.app_points.clear();
        self.db_points.clear();
    }
}

/// Dynamic Concurrency Management: threshold VM scaling plus model-driven
/// runtime adaptation of thread and connection pools.
///
/// # Examples
///
/// ```
/// use dcm_core::controller::{Controller, Dcm, DcmConfig, DcmModels};
/// use dcm_core::monitor::new_metrics_bus;
/// use dcm_ntier::topology::ThreeTierBuilder;
///
/// let (mut world, mut engine) = ThreeTierBuilder::new().build();
/// let bus = new_metrics_bus();
/// let mut dcm = Dcm::new(bus, DcmConfig::default(), DcmModels::reference());
/// dcm.on_tick(&mut world, &mut engine); // applies the optimal pools
/// assert!(!dcm.actions().is_empty());
/// ```
pub struct Dcm {
    core: ControlCore,
    policy: ThresholdPolicy,
    models: DcmModels,
    config: DcmConfig,
    online: Option<OnlineFit>,
    /// The predictive extension's smoothers (`None` = reactive).
    trends: Option<TierTrends>,
    /// `(k_app, k_db, threads, conns)` of the last applied soft
    /// allocation; a change invalidates the online-refit buffers.
    last_shape: Option<(usize, usize, u32, u32)>,
    /// Provenance of the current app/db models for the journal:
    /// `("offline", None)` until an online refit is accepted, then
    /// `("online-refit", Some(r²))`.
    app_fit: (&'static str, Option<f64>),
    db_fit: (&'static str, Option<f64>),
}

impl std::fmt::Debug for Dcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dcm")
            .field("models", &self.models)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Dcm {
    /// Creates the DCM controller with offline-trained models.
    pub fn new(bus: MetricsBus, config: DcmConfig, models: DcmModels) -> Self {
        let scaling = &config.scaling;
        let servers = (scaling.min_servers, scaling.max_servers);
        Dcm {
            core: ControlCore::new(bus, "DCM", &scaling.scalable_tiers, servers),
            policy: ThresholdPolicy::new(config.scaling.clone()),
            models,
            trends: config.predictive.map(TierTrends::new),
            config,
            online: None,
            last_shape: None,
            app_fit: ("offline", None),
            db_fit: ("offline", None),
        }
    }

    /// Enables online model refinement: windows where a modeled tier looks
    /// saturated contribute `(concurrency, throughput)` samples; every
    /// `refit_every_ticks` control periods with at least `min_points`
    /// samples, the tier model is refitted.
    pub fn with_online_refit(mut self, min_points: usize, refit_every_ticks: u32) -> Self {
        self.online = Some(OnlineFit {
            app_points: std::collections::VecDeque::new(),
            db_points: std::collections::VecDeque::new(),
            refit_every_ticks: refit_every_ticks.max(1),
            min_points: min_points.max(8),
            ticks: 0,
        });
        self
    }

    /// The soft allocation DCM wants for the current topology:
    /// `(app threads per server, app→db conns per server)`. Booting
    /// servers count toward the split so they join correctly sized.
    pub fn desired_soft_allocation(&self, world: &World) -> (u32, u32) {
        let k_app = capacity(world, self.config.app_tier).max(1) as u32;
        let k_db = capacity(world, self.config.db_tier).max(1) as u32;
        let alloc = dcm_model::allocation::optimal_soft_allocation(
            &self.models.app,
            &self.models.db,
            k_app,
            k_db,
            self.config.headroom,
        );
        (alloc.app_threads, alloc.db_conns_per_app)
    }

    fn collect_online(&mut self, windows: &std::collections::BTreeMap<usize, TierWindow>) {
        let (app_tier, db_tier) = (self.config.app_tier, self.config.db_tier);
        let Some(online) = self.online.as_mut() else {
            return;
        };
        online.ticks += 1;
        for (&tier, w) in windows {
            // Only saturated windows lie on the X(N) curve the model fits.
            if w.mean_cpu_util < 0.7 || w.mean_concurrency < 1.0 {
                continue;
            }
            if tier == app_tier {
                OnlineFit::push_capped(
                    &mut online.app_points,
                    (w.mean_concurrency, w.total_throughput),
                );
            } else if tier == db_tier {
                OnlineFit::push_capped(
                    &mut online.db_points,
                    (w.mean_concurrency, w.total_throughput),
                );
            }
        }
        if online.ticks % online.refit_every_ticks == 0 {
            use dcm_model::concurrency::{fit_throughput_curve, FitOptions};
            if online.app_points.len() >= online.min_points {
                if let Ok(report) = fit_throughput_curve(
                    online.app_points.make_contiguous(),
                    1,
                    FitOptions::default(),
                ) {
                    if report.r_squared > 0.8 {
                        self.models.app = report.model;
                        self.app_fit = ("online-refit", Some(report.r_squared));
                    }
                }
            }
            if online.db_points.len() >= online.min_points {
                if let Ok(report) = fit_throughput_curve(
                    online.db_points.make_contiguous(),
                    1,
                    FitOptions::default(),
                ) {
                    if report.r_squared > 0.8 {
                        self.models.db = report.model;
                        self.db_fit = ("online-refit", Some(report.r_squared));
                    }
                }
            }
        }
    }

    /// Buffered online-refit point counts `(app, db)`; `None` when online
    /// refinement is disabled. Exposed for tests and diagnostics.
    pub fn online_point_counts(&self) -> Option<(usize, usize)> {
        self.online
            .as_ref()
            .map(|o| (o.app_points.len(), o.db_points.len()))
    }

    /// Observation count of a scalable tier's Holt smoother; `None` when
    /// predictive scaling is off or the tier has not reported since its
    /// last restart. Exposed for tests and diagnostics.
    pub fn trend_observations(&self, tier: usize) -> Option<u64> {
        self.trends.as_ref()?.observations(tier)
    }
}

/// Journal snapshot of one fitted model with its provenance.
fn fit_snapshot(
    name: &str,
    model: &ConcurrencyModel,
    (source, r_squared): (&'static str, Option<f64>),
) -> FitSnapshot {
    FitSnapshot {
        name: name.to_string(),
        s0: model.s0,
        alpha: model.alpha,
        beta: model.beta,
        gamma: model.gamma,
        n_star: model.optimal_concurrency(),
        r_squared,
        source: source.to_string(),
    }
}

impl Controller for Dcm {
    fn on_tick(&mut self, world: &mut World, engine: &mut SimEngine) {
        let mut windows = self.core.poll();
        self.collect_online(&windows);
        let scaling = &self.config.scaling;
        // Optional predictive extension: replace each tier's utilization
        // with its forecast so scale-out decisions lead the ramp by one
        // boot delay.
        if let Some(trends) = self.trends.as_mut() {
            trends.restart_changed(world, &scaling.scalable_tiers);
            for &tier in &scaling.scalable_tiers {
                if let Some(window) = windows.get_mut(&tier) {
                    window.mean_cpu_util = trends.forecast(tier, window.mean_cpu_util);
                }
            }
        }
        // First level: VM scaling, identical policy to the baseline. DCM
        // additionally remembers the capacity its own decisions aimed for,
        // starting from the capacity it first sees, so that lost VMs
        // (crashes) are re-detected and replaced on the very next tick
        // instead of waiting for thresholds to re-trip.
        let trigger = scaling.trigger;
        let (min_servers, max_servers) = (scaling.min_servers, scaling.max_servers);
        let views = self
            .core
            .observe(world, &windows, |_, w| pressure(trigger, w));
        for view in &views {
            if self.core.remembered(view.tier).is_none() {
                self.core.remember(view.tier, view.capacity());
            }
        }
        let applied = vm_decisions(&mut self.core, &mut self.policy, world, engine, &views);
        for (tier, decision) in applied {
            let desired = self.core.remembered(tier).unwrap_or(1);
            let desired = match decision {
                ScaleDecision::Out => (desired + 1).min(max_servers),
                _ => desired.saturating_sub(1).max(min_servers),
            };
            self.core.remember(tier, desired);
        }
        for view in &views {
            if let Some((before, after, desired)) =
                self.core.restore(world, engine, view.tier, None)
            {
                let reason = format!(
                    "capacity {before} below remembered desired {desired} \
                     (VM loss); re-provisioned {} VM(s)",
                    after - before
                );
                self.core.decide(
                    "replace-lost",
                    view.tier,
                    Some(desired as u32),
                    after > before,
                    reason,
                );
            }
        }
        // Second level: soft-resource re-allocation for the (possibly new)
        // topology. Idempotent; the APP-agent skips unchanged sizes.
        let (threads, conns) = self.desired_soft_allocation(world);
        let (app_tier, db_tier) = (self.config.app_tier, self.config.db_tier);
        let (k_app, k_db) = (capacity(world, app_tier), capacity(world, db_tier));
        let (models, headroom) = (&self.models, self.config.headroom);
        if self.config.adapt_threads {
            self.core.set_threads(world, engine, app_tier, threads, || {
                format!(
                    "app model N*={} with headroom {headroom:.2} -> {threads} threads/server",
                    models.app.optimal_concurrency(),
                )
            });
        }
        if self.config.adapt_conns {
            self.core.set_conns(world, engine, app_tier, conns, || {
                format!(
                    "db model N*={} x {} db server(s), headroom {headroom:.2}, \
                     split across {} app server(s) -> {conns} conns each",
                    models.db.optimal_concurrency(),
                    k_db.max(1),
                    k_app.max(1),
                )
            });
        }
        let fits = vec![
            fit_snapshot("app", &self.models.app, self.app_fit),
            fit_snapshot("db", &self.models.db, self.db_fit),
        ];
        self.core.finish_tick(engine.now(), fits, None);
        // Online-refit points are only comparable within one configuration:
        // if the topology or pool sizes changed, flush the buffers.
        let shape = (k_app, k_db, threads, conns);
        if self.last_shape != Some(shape) {
            if self.last_shape.is_some() {
                if let Some(online) = self.online.as_mut() {
                    online.clear();
                }
            }
            self.last_shape = Some(shape);
        }
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
    use std::rc::Rc;

    #[test]
    fn dcm_desired_allocation_tracks_topology() {
        let (world, _engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let dcm = Dcm::new(bus, DcmConfig::default(), DcmModels::reference());
        // 1/1/1 with headroom 1.1 over the tier-local laws: threads =
        // ceil(N*_app·1.1), conns = ceil(36·1·1.1/1) = 40 (the paper's
        // Fig. 5 initial 40). Production use passes *fitted* system-level
        // models, whose app knee lands near the paper's 20.
        let n_app = DcmModels::reference().app.optimal_concurrency() as f64;
        let expect_threads = (n_app * 1.1).ceil() as u32;
        let (threads, conns) = dcm.desired_soft_allocation(&world);
        assert_eq!(threads, expect_threads);
        assert_eq!(conns, 40);

        let (world2, _e2) = ThreeTierBuilder::new().counts(1, 2, 1).build();
        let (_t2, conns2) = dcm.desired_soft_allocation(&world2);
        assert_eq!(conns2, 20, "two app servers split the 40-conn budget");

        let (world3, _e3) = ThreeTierBuilder::new().counts(1, 2, 2).build();
        let (_t3, conns3) = dcm.desired_soft_allocation(&world3);
        assert_eq!(conns3, 40, "two db servers double the budget");
    }

    #[test]
    fn dcm_tick_applies_soft_allocation() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut dcm = Dcm::new(
            std::rc::Rc::clone(&bus),
            DcmConfig::default(),
            DcmModels::reference(),
        );
        dcm.on_tick(&mut world, &mut engine);
        let sid = world.system.tier(1).members()[0];
        let server = world.system.server(sid).unwrap();
        let expect_threads =
            (DcmModels::reference().app.optimal_concurrency() as f64 * 1.1).ceil() as u32;
        assert_eq!(server.thread_pool().capacity(), expect_threads);
        assert_eq!(server.conn_pool().unwrap().capacity(), 40);
        let actions = dcm.actions();
        assert_eq!(actions.len(), 2);
        assert_eq!(dcm.name(), "DCM");
    }

    #[test]
    fn ablation_switches_disable_actuation() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let config = DcmConfig {
            adapt_threads: false,
            adapt_conns: false,
            ..DcmConfig::default()
        };
        let mut dcm = Dcm::new(bus, config, DcmModels::reference());
        dcm.on_tick(&mut world, &mut engine);
        assert!(dcm.actions().is_empty());
    }

    #[test]
    fn ec2_tick_without_metrics_holds() {
        check("EC2-AutoScale", Rule::MonitorSilent);
    }

    fn sample(server: &str, tier: usize, cpu: f64) -> ServerSample {
        ServerSample {
            server: server.into(),
            tier,
            window_start: SimTime::ZERO,
            window_end: SimTime::from_secs(1),
            cpu_util: cpu,
            busy_fraction: cpu,
            active_threads: 10.0,
            completed: 50,
            throughput: 50.0,
            mean_dwell: None,
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

    #[test]
    fn silent_crashed_tier_triggers_scale_out() {
        check("EC2-AutoScale", Rule::DeadTier);
    }

    #[test]
    fn silent_wedged_tier_scales_out_after_streak() {
        check("EC2-AutoScale", Rule::SilentTier);
    }

    #[test]
    fn dcm_replaces_crashed_vm_within_one_period() {
        check("DCM", Rule::LostCapacity);
    }

    #[test]
    fn ec2_holds_after_partial_crash_below_threshold() {
        check("EC2-AutoScale", Rule::LostCapacity);
    }

    /// Regression: the online-refit point buffers used to grow without
    /// bound — a multi-hour saturated run accumulated one point per tier
    /// per tick forever.
    #[test]
    fn online_refit_buffers_stay_bounded() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let config = DcmConfig {
            scaling: ScalingConfig {
                max_servers: 1,
                ..ScalingConfig::default()
            },
            ..DcmConfig::default()
        };
        let mut dcm =
            Dcm::new(Rc::clone(&bus), config, DcmModels::reference()).with_online_refit(8, 100_000);
        for k in 0..600u64 {
            let ts = (k + 1) * 1_000;
            produce(&bus, ts, sample("app-1", 1, 0.9));
            produce(&bus, ts, sample("db-1", 2, 0.9));
            dcm.on_tick(&mut world, &mut engine);
        }
        let (app_pts, db_pts) = dcm.online_point_counts().unwrap();
        assert!(app_pts > 0 && db_pts > 0, "saturated windows must collect");
        assert!(app_pts <= MAX_FIT_POINTS, "app buffer unbounded: {app_pts}");
        assert!(db_pts <= MAX_FIT_POINTS, "db buffer unbounded: {db_pts}");
    }

    /// Regression: points measured under one topology used to survive into
    /// the next; they lie on a different throughput curve and poison fits.
    #[test]
    fn online_refit_buffers_reset_on_scale_event() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut dcm = Dcm::new(
            Rc::clone(&bus),
            DcmConfig::default(),
            DcmModels::reference(),
        )
        .with_online_refit(8, 100_000);
        for k in 0..3u64 {
            let ts = (k + 1) * 1_000;
            produce(&bus, ts, sample("app-1", 1, 0.75));
            produce(&bus, ts, sample("db-1", 2, 0.75));
            dcm.on_tick(&mut world, &mut engine);
        }
        assert_eq!(dcm.online_point_counts(), Some((3, 3)));
        // Saturate the app tier: DCM scales out, changing the topology.
        produce(&bus, 4_000, sample("app-1", 1, 0.9));
        produce(&bus, 4_000, sample("db-1", 2, 0.75));
        dcm.on_tick(&mut world, &mut engine);
        assert_eq!(world.system.booting_count(1), 1);
        assert_eq!(
            dcm.online_point_counts(),
            Some((0, 0)),
            "points from the old topology must be dropped"
        );
    }

    /// Regression: a tier's Holt smoother used to keep extrapolating the
    /// pre-scale trend across scale events, producing phantom forecasts
    /// from discontinuous per-server utilization.
    #[test]
    fn holt_trend_resets_on_scale_event() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let config = DcmConfig {
            predictive: Some(HoltConfig::default()),
            ..DcmConfig::default()
        };
        let mut dcm = Dcm::new(Rc::clone(&bus), config, DcmModels::reference());
        for k in 0..4u64 {
            let ts = (k + 1) * 1_000;
            produce(&bus, ts, sample("app-1", 1, 0.2 + 0.05 * k as f64));
            produce(&bus, ts, sample("db-1", 2, 0.5));
            dcm.on_tick(&mut world, &mut engine);
        }
        assert_eq!(dcm.trend_observations(1), Some(4));
        // A scale event (operator-driven here) changes the server count.
        flow::provision_server(&mut world, &mut engine, 1).unwrap();
        produce(&bus, 5_000, sample("app-1", 1, 0.2));
        produce(&bus, 5_000, sample("db-1", 2, 0.5));
        dcm.on_tick(&mut world, &mut engine);
        assert_eq!(
            dcm.trend_observations(1),
            Some(1),
            "stale trend must not survive a scale event"
        );
    }
}
