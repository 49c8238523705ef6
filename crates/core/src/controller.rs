//! The Optimization Controller (paper §IV) and the EC2-AutoScale baseline
//! (paper §V-B).
//!
//! Both controllers wake every control period (15 s), consume the monitor
//! stream from the bus, aggregate it per tier, and make VM-level decisions
//! with the same quick-start/slow-stop threshold policy. **DCM additionally
//! runs the APP-agent**: after every (potential) topology change it pushes
//! the concurrency-aware model's optimal soft-resource allocation into the
//! live pools — Tomcat thread pools sized to the app model's `N*`, MySQL
//! concurrency capped via the Tomcat connection pools at the db model's
//! `N* × K_db`, split across app servers.

use std::cell::RefCell;
use std::rc::Rc;

use dcm_model::concurrency::ConcurrencyModel;
use dcm_ntier::world::{SimEngine, World};
use dcm_obs::journal::{Decision, DecisionJournal, FitSnapshot, JournalEntry, TierObservation};

use crate::agents::{ActionRecord, AppAgent, VmAgent};
use crate::aggregate::TierWindow;
use crate::monitor::{MetricsBus, MetricsFeed};
use crate::policy::{ScaleDecision, ScalingConfig, ThresholdPolicy, TriggerSignal};
use crate::predictor::{HoltConfig, HoltTrend};

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
    /// [`JournalEntry`] per tick — inputs, model state, decisions, reasons.
    /// The default implementation journals nothing.
    fn attach_journal(&mut self, _journal: Rc<RefCell<DecisionJournal>>) {}

    /// Total candidate-plan evaluations the controller has performed — the
    /// deterministic proxy for decision latency the league ranks on (wall
    /// clocks are banned in Strict crates). Model-free controllers cost 0.
    fn planner_evals(&self) -> u64 {
        0
    }
}

/// Consecutive silent control periods before a tier that *has* capacity is
/// treated as wedged (a tier with no capacity at all is flagged on the
/// first silent period — there is nothing to wait for).
pub(crate) const SILENT_TICKS_FOR_PRESSURE: u32 = 2;

/// Per-tier outcome of the shared VM-scaling pass: the journal-ready
/// observation, the policy's decision, whether the agent executed it, and
/// the reason with the numbers that drove it.
pub(crate) struct TierTickReport {
    pub(crate) observation: TierObservation,
    pub(crate) decision: ScaleDecision,
    pub(crate) applied: bool,
    pub(crate) reason: String,
}

impl TierTickReport {
    pub(crate) fn to_decision(&self) -> Decision {
        let action = match self.decision {
            ScaleDecision::Out => "scale-out",
            ScaleDecision::In => "scale-in",
            ScaleDecision::Hold => "hold",
        };
        Decision {
            action: action.to_string(),
            tier: self.observation.tier,
            value: None,
            applied: self.applied,
            reason: self.reason.clone(),
        }
    }
}

/// Shared VM-scaling pass. Returns one report per scalable tier; the
/// applied flag is false for holds and for requested actions the agent
/// could not execute (e.g. scale-in of the last server).
///
/// A tier absent from `windows` is *silent*. When the whole map is empty
/// the monitoring pipeline itself produced nothing, so every tier holds
/// (no evidence of anything). But when other tiers are reporting and a
/// scalable tier is not, that silence is itself a signal: its servers
/// crashed or wedged so hard they stopped sampling. Such a tier used to be
/// skipped — held forever — and is now treated as maximal pressure,
/// mirroring the wedged-tier `mean_dwell: None` rule below.
pub(crate) fn vm_decisions(
    world: &mut World,
    engine: &mut SimEngine,
    policy: &mut ThresholdPolicy,
    vm: &mut VmAgent,
    windows: &std::collections::BTreeMap<usize, TierWindow>,
    silence: &mut std::collections::BTreeMap<usize, u32>,
) -> Vec<TierTickReport> {
    let tiers: Vec<usize> = policy.config().scalable_tiers.clone();
    let trigger = policy.config().trigger;
    let (up, down, down_consecutive) = {
        let c = policy.config();
        (c.up_threshold, c.down_threshold, c.down_consecutive)
    };
    let mut reports = Vec::new();
    for tier in tiers {
        let running = world.system.running_count(tier);
        let booting = world.system.booting_count(tier);
        let mut observation = TierObservation {
            tier,
            pressure: 0.0,
            signal: String::new(),
            utilization: None,
            throughput: None,
            concurrency: None,
            mean_dwell: None,
            queue: None,
            running,
            booting,
            silent_streak: 0,
        };
        let pressure = match windows.get(&tier) {
            Some(window) => {
                silence.insert(tier, 0);
                observation.utilization = Some(window.mean_cpu_util);
                observation.throughput = Some(window.total_throughput);
                observation.concurrency = Some(window.mean_concurrency);
                observation.mean_dwell = window.mean_dwell;
                observation.queue = Some(window.mean_thread_queue);
                match trigger {
                    TriggerSignal::CpuUtil => {
                        observation.signal = "cpu-util".to_string();
                        window.mean_cpu_util
                    }
                    TriggerSignal::DwellPressure { sla_secs } => {
                        observation.signal = format!("dwell-pressure(sla={sla_secs}s)");
                        match window.mean_dwell {
                            Some(dwell) => dwell / sla_secs.max(1e-9),
                            // No completions: a wedged-but-loaded tier is
                            // maximal pressure; a genuinely idle one is zero.
                            None if window.mean_concurrency > 1.0 => f64::INFINITY,
                            None => 0.0,
                        }
                    }
                }
            }
            None => {
                let streak = silence.entry(tier).or_insert(0);
                *streak += 1;
                observation.signal = "silent".to_string();
                observation.silent_streak = *streak;
                if windows.is_empty() {
                    // No metrics from anywhere: the monitor is not
                    // running. Hold rather than guess.
                    reports.push(TierTickReport {
                        observation,
                        decision: ScaleDecision::Hold,
                        applied: false,
                        reason: "no metrics from any tier: monitor silent, holding".to_string(),
                    });
                    continue;
                }
                let dead = running == 0 && booting == 0;
                if dead || *streak >= SILENT_TICKS_FOR_PRESSURE {
                    f64::INFINITY
                } else {
                    let reason = format!(
                        "tier silent {streak}/{SILENT_TICKS_FOR_PRESSURE} period(s) \
                         but has capacity; waiting before treating as wedged"
                    );
                    reports.push(TierTickReport {
                        observation,
                        decision: ScaleDecision::Hold,
                        applied: false,
                        reason,
                    });
                    continue;
                }
            }
        };
        observation.pressure = pressure;
        let decision = policy.decide(tier, pressure, running, booting);
        let streak = policy.below_count(tier);
        let (applied, reason) = match decision {
            ScaleDecision::Out => {
                let why = if pressure.is_finite() {
                    format!("pressure {pressure:.3} > up_threshold {up:.2}")
                } else {
                    "tier silent/dead under load: treated as maximal pressure".to_string()
                };
                let ok = vm.scale_out(world, engine, tier).is_some();
                let reason = if ok {
                    why
                } else {
                    format!("{why}, but provisioning failed")
                };
                (ok, reason)
            }
            ScaleDecision::In => {
                let why = format!(
                    "pressure {pressure:.3} < down_threshold {down:.2} \
                     for {down_consecutive} consecutive periods"
                );
                let ok = vm.scale_in(world, engine, tier).is_some();
                let reason = if ok {
                    why
                } else {
                    format!("{why}, but scale-in refused")
                };
                (ok, reason)
            }
            ScaleDecision::Hold => {
                let why = if pressure > up {
                    if booting > 0 {
                        format!("pressure {pressure:.3} above up_threshold {up:.2} but a boot is already pending")
                    } else {
                        format!("pressure {pressure:.3} above up_threshold {up:.2} but tier is at max_servers")
                    }
                } else if pressure < down {
                    format!(
                        "pressure {pressure:.3} < down_threshold {down:.2}, \
                         cold streak {streak}/{down_consecutive} (slow stop)"
                    )
                } else {
                    format!("pressure {pressure:.3} within [{down:.2}, {up:.2}] band")
                };
                (false, why)
            }
        };
        reports.push(TierTickReport {
            observation,
            decision,
            applied,
            reason,
        });
    }
    reports
}

/// The hardware-only baseline: Amazon EC2-AutoScale–style threshold scaling
/// with **no** soft-resource adaptation — new servers join with whatever
/// pool sizes the tier was configured with.
pub struct Ec2AutoScale {
    feed: MetricsFeed,
    policy: ThresholdPolicy,
    vm: VmAgent,
    silence: std::collections::BTreeMap<usize, u32>,
    journal: Option<Rc<RefCell<DecisionJournal>>>,
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
        Ec2AutoScale {
            feed: MetricsFeed::new(bus, "ec2-autoscale"),
            policy: ThresholdPolicy::new(config),
            vm: VmAgent::new(),
            silence: std::collections::BTreeMap::new(),
            journal: None,
        }
    }
}

impl Controller for Ec2AutoScale {
    fn on_tick(&mut self, world: &mut World, engine: &mut SimEngine) {
        let windows = self.feed.poll_windows();
        let reports = vm_decisions(
            world,
            engine,
            &mut self.policy,
            &mut self.vm,
            &windows,
            &mut self.silence,
        );
        if let Some(journal) = &self.journal {
            journal.borrow_mut().push(JournalEntry {
                at: engine.now(),
                controller: "EC2-AutoScale".to_string(),
                observations: reports.iter().map(|r| r.observation.clone()).collect(),
                fits: Vec::new(),
                decisions: reports.iter().map(TierTickReport::to_decision).collect(),
                plan: None,
            });
        }
    }

    fn actions(&self) -> Vec<ActionRecord> {
        self.vm.log().to_vec()
    }

    fn name(&self) -> &'static str {
        "EC2-AutoScale"
    }

    fn attach_journal(&mut self, journal: Rc<RefCell<DecisionJournal>>) {
        self.journal = Some(journal);
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
/// use dcm_model::concurrency::ConcurrencyModel;
/// use dcm_ntier::topology::ThreeTierBuilder;
///
/// let (mut world, mut engine) = ThreeTierBuilder::new().build();
/// let bus = new_metrics_bus();
/// let models = DcmModels {
///     app: ConcurrencyModel::new(0.0284, 0.016, 7.0e-5, 1.0, 1),
///     db: ConcurrencyModel::new(0.0296, 0.0045, 1.93e-5, 1.0, 1),
/// };
/// let mut dcm = Dcm::new(bus, DcmConfig::default(), models);
/// dcm.on_tick(&mut world, &mut engine); // applies the optimal pools
/// assert!(!dcm.actions().is_empty());
/// ```
pub struct Dcm {
    feed: MetricsFeed,
    policy: ThresholdPolicy,
    vm: VmAgent,
    app: AppAgent,
    models: DcmModels,
    config: DcmConfig,
    online: Option<OnlineFit>,
    trends: std::collections::BTreeMap<usize, HoltTrend>,
    silence: std::collections::BTreeMap<usize, u32>,
    /// Capacity DCM believes each scalable tier should have, updated by
    /// its own scaling decisions. When actual capacity falls below this
    /// (a VM crashed), the gap is re-provisioned on the next tick without
    /// waiting for thresholds to re-trip.
    desired: std::collections::BTreeMap<usize, usize>,
    /// Per-tier server count at the previous tick; a change resets that
    /// tier's Holt smoother (per-server utilization shifts discontinuously
    /// across scale events, so the old trend is meaningless).
    last_counts: std::collections::BTreeMap<usize, usize>,
    /// `(k_app, k_db, threads, conns)` of the last applied soft
    /// allocation; a change invalidates the online-refit buffers.
    last_shape: Option<(usize, usize, u32, u32)>,
    /// Provenance of the current app/db models for the journal:
    /// `("offline", None)` until an online refit is accepted, then
    /// `("online-refit", Some(r²))`.
    app_fit: (&'static str, Option<f64>),
    db_fit: (&'static str, Option<f64>),
    journal: Option<Rc<RefCell<DecisionJournal>>>,
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
        Dcm {
            feed: MetricsFeed::new(bus, "dcm"),
            policy: ThresholdPolicy::new(config.scaling.clone()),
            vm: VmAgent::new(),
            app: AppAgent::new(),
            models,
            config,
            online: None,
            trends: std::collections::BTreeMap::new(),
            silence: std::collections::BTreeMap::new(),
            desired: std::collections::BTreeMap::new(),
            last_counts: std::collections::BTreeMap::new(),
            last_shape: None,
            app_fit: ("offline", None),
            db_fit: ("offline", None),
            journal: None,
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

    /// The models currently in use.
    pub fn models(&self) -> DcmModels {
        self.models
    }

    /// The soft allocation DCM wants for the current topology:
    /// `(app threads per server, app→db conns per server)`. Booting
    /// servers count toward the split so they join correctly sized.
    pub fn desired_soft_allocation(&self, world: &World) -> (u32, u32) {
        let k_app = (world.system.running_count(self.config.app_tier)
            + world.system.booting_count(self.config.app_tier))
        .max(1) as u32;
        let k_db = (world.system.running_count(self.config.db_tier)
            + world.system.booting_count(self.config.db_tier))
        .max(1) as u32;
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

    /// Observation count of a tier's Holt smoother; `None` when predictive
    /// scaling is off or the tier has never reported. Exposed for tests
    /// and diagnostics.
    pub fn trend_observations(&self, tier: usize) -> Option<u64> {
        self.trends.get(&tier).map(|t| t.observations())
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
        let mut windows = self.feed.poll_windows();
        self.collect_online(&windows);
        // Optional predictive extension: replace each tier's utilization
        // with its forecast so scale-out decisions lead the ramp by one
        // boot delay. The forecast never *suppresses* a hot reading —
        // reacting to genuine saturation must stay instant.
        if let Some(holt) = self.config.predictive {
            for (tier, window) in windows.iter_mut() {
                // A scale event shifts per-server utilization
                // discontinuously; extrapolating the old trend across it
                // produces phantom forecasts, so restart the smoother.
                let count = world.system.running_count(*tier) + world.system.booting_count(*tier);
                if self.last_counts.insert(*tier, count) != Some(count) {
                    self.trends.remove(tier);
                }
                let trend = self
                    .trends
                    .entry(*tier)
                    .or_insert_with(|| HoltTrend::new(holt));
                trend.observe(window.mean_cpu_util);
                window.mean_cpu_util = window.mean_cpu_util.max(trend.forecast());
            }
        }
        // First level: VM scaling, identical policy to the baseline. DCM
        // additionally tracks the capacity its own decisions aimed for, so
        // that lost VMs (crashes) are re-detected and replaced on the very
        // next tick instead of waiting for thresholds to re-trip.
        let scalable: Vec<usize> = self.policy.config().scalable_tiers.clone();
        for &tier in &scalable {
            let have = world.system.running_count(tier) + world.system.booting_count(tier);
            self.desired.entry(tier).or_insert(have);
        }
        let reports = vm_decisions(
            world,
            engine,
            &mut self.policy,
            &mut self.vm,
            &windows,
            &mut self.silence,
        );
        let (min_servers, max_servers) = (
            self.config.scaling.min_servers,
            self.config.scaling.max_servers,
        );
        for report in &reports {
            if !report.applied {
                continue;
            }
            let desired = self.desired.entry(report.observation.tier).or_insert(1);
            match report.decision {
                ScaleDecision::Out => *desired = (*desired + 1).min(max_servers),
                ScaleDecision::In => *desired = desired.saturating_sub(1).max(min_servers),
                ScaleDecision::Hold => {}
            }
        }
        let mut extra_decisions: Vec<Decision> = Vec::new();
        for &tier in &scalable {
            let desired = self.desired[&tier].clamp(min_servers, max_servers);
            let before = world.system.running_count(tier) + world.system.booting_count(tier);
            let mut have = before;
            while have < desired {
                if self.vm.scale_out(world, engine, tier).is_none() {
                    break;
                }
                have += 1;
            }
            if before < desired {
                let booted = have - before;
                extra_decisions.push(Decision {
                    action: "replace-lost".to_string(),
                    tier,
                    value: Some(desired as u32),
                    applied: booted > 0,
                    reason: format!(
                        "capacity {before} below remembered desired {desired} \
                         (VM loss); re-provisioned {booted} VM(s)"
                    ),
                });
            }
        }
        // Second level: soft-resource re-allocation for the (possibly new)
        // topology. Idempotent; the APP-agent skips unchanged sizes.
        let (threads, conns) = self.desired_soft_allocation(world);
        if self.config.adapt_threads {
            let before = self.app.log().len();
            self.app
                .set_tier_threads(world, engine, self.config.app_tier, threads);
            if self.app.log().len() > before {
                extra_decisions.push(Decision {
                    action: "set-threads".to_string(),
                    tier: self.config.app_tier,
                    value: Some(threads),
                    applied: true,
                    reason: format!(
                        "app model N*={} with headroom {:.2} -> {threads} threads/server",
                        self.models.app.optimal_concurrency(),
                        self.config.headroom,
                    ),
                });
            }
        }
        if self.config.adapt_conns {
            let before = self.app.log().len();
            self.app
                .set_tier_conns(world, engine, self.config.app_tier, conns);
            if self.app.log().len() > before {
                let k_app = (world.system.running_count(self.config.app_tier)
                    + world.system.booting_count(self.config.app_tier))
                .max(1);
                let k_db = (world.system.running_count(self.config.db_tier)
                    + world.system.booting_count(self.config.db_tier))
                .max(1);
                extra_decisions.push(Decision {
                    action: "set-conns".to_string(),
                    tier: self.config.app_tier,
                    value: Some(conns),
                    applied: true,
                    reason: format!(
                        "db model N*={} x {k_db} db server(s), headroom {:.2}, \
                         split across {k_app} app server(s) -> {conns} conns each",
                        self.models.db.optimal_concurrency(),
                        self.config.headroom,
                    ),
                });
            }
        }
        if let Some(journal) = &self.journal {
            let mut decisions: Vec<Decision> =
                reports.iter().map(TierTickReport::to_decision).collect();
            decisions.extend(extra_decisions);
            journal.borrow_mut().push(JournalEntry {
                at: engine.now(),
                controller: "DCM".to_string(),
                observations: reports.iter().map(|r| r.observation.clone()).collect(),
                fits: vec![
                    fit_snapshot("app", &self.models.app, self.app_fit),
                    fit_snapshot("db", &self.models.db, self.db_fit),
                ],
                decisions,
                plan: None,
            });
        }
        // Online-refit points are only comparable within one configuration:
        // if the topology or pool sizes changed, flush the buffers.
        let k_app = world.system.running_count(self.config.app_tier)
            + world.system.booting_count(self.config.app_tier);
        let k_db = world.system.running_count(self.config.db_tier)
            + world.system.booting_count(self.config.db_tier);
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
        let mut all: Vec<ActionRecord> = self
            .vm
            .log()
            .iter()
            .chain(self.app.log().iter())
            .cloned()
            .collect();
        all.sort_by_key(|r| r.at);
        all
    }

    fn name(&self) -> &'static str {
        "DCM"
    }

    fn attach_journal(&mut self, journal: Rc<RefCell<DecisionJournal>>) {
        self.journal = Some(journal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{new_metrics_bus, METRICS_TOPIC};
    use dcm_ntier::flow;
    use dcm_ntier::law::reference;
    use dcm_ntier::metrics::ServerSample;
    use dcm_ntier::topology::ThreeTierBuilder;
    use dcm_sim::time::SimTime;
    use std::rc::Rc;

    fn models() -> DcmModels {
        let app = reference::tomcat();
        let db = reference::mysql();
        DcmModels {
            app: ConcurrencyModel::new(app.s0(), app.alpha(), app.beta(), 1.0, 1),
            db: ConcurrencyModel::new(db.s0(), db.alpha(), db.beta(), 1.0, 1),
        }
    }

    #[test]
    fn dcm_desired_allocation_tracks_topology() {
        let (world, _engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let dcm = Dcm::new(bus, DcmConfig::default(), models());
        // 1/1/1 with headroom 1.1 over the tier-local laws: threads =
        // ceil(N*_app·1.1), conns = ceil(36·1·1.1/1) = 40 (the paper's
        // Fig. 5 initial 40). Production use passes *fitted* system-level
        // models, whose app knee lands near the paper's 20.
        let n_app = models().app.optimal_concurrency() as f64;
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
        let mut dcm = Dcm::new(std::rc::Rc::clone(&bus), DcmConfig::default(), models());
        dcm.on_tick(&mut world, &mut engine);
        let sid = world.system.tier(1).members()[0];
        let server = world.system.server(sid).unwrap();
        let expect_threads = (models().app.optimal_concurrency() as f64 * 1.1).ceil() as u32;
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
        let mut dcm = Dcm::new(bus, config, models());
        dcm.on_tick(&mut world, &mut engine);
        assert!(dcm.actions().is_empty());
    }

    #[test]
    fn ec2_tick_without_metrics_holds() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut ec2 = Ec2AutoScale::new(bus, ScalingConfig::default());
        ec2.on_tick(&mut world, &mut engine);
        assert!(ec2.actions().is_empty());
        assert_eq!(world.system.running_count(1), 1);
        assert_eq!(ec2.name(), "EC2-AutoScale");
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

    /// Regression: a tier whose every server crashed goes silent; the
    /// controller used to skip it (`continue`) and hold it dead forever.
    #[test]
    fn silent_crashed_tier_triggers_scale_out() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut ec2 = Ec2AutoScale::new(Rc::clone(&bus), ScalingConfig::default());
        let victim = world.system.tier(1).members()[0];
        flow::crash_server(&mut world, &mut engine, victim);
        assert_eq!(world.system.running_count(1), 0);
        // The web tier keeps reporting, so the monitoring pipeline is
        // demonstrably alive — tier 1's silence is the signal.
        produce(&bus, 1_000, sample("web-1", 0, 0.3));
        ec2.on_tick(&mut world, &mut engine);
        assert_eq!(
            world.system.booting_count(1),
            1,
            "a dead-silent tier must be re-provisioned, not held forever"
        );
    }

    /// A silent tier that still has capacity needs a streak of silent
    /// periods before it is treated as wedged (one missed window can be a
    /// sampling hiccup), and an all-empty poll still holds everything.
    #[test]
    fn silent_wedged_tier_scales_out_after_streak() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut ec2 = Ec2AutoScale::new(Rc::clone(&bus), ScalingConfig::default());
        produce(&bus, 1_000, sample("web-1", 0, 0.3));
        ec2.on_tick(&mut world, &mut engine);
        assert_eq!(
            world.system.booting_count(1),
            0,
            "one silent period is not evidence of a wedge"
        );
        produce(&bus, 2_000, sample("web-1", 0, 0.3));
        ec2.on_tick(&mut world, &mut engine);
        assert_eq!(
            world.system.booting_count(1),
            1,
            "consecutive silence on a loaded system means wedged"
        );
    }

    /// Regression: DCM remembers the capacity its decisions aimed for and
    /// replaces a crashed VM on the next tick, even though the surviving
    /// servers' pressure is below every threshold.
    #[test]
    fn dcm_replaces_crashed_vm_within_one_period() {
        let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, 2, 1).build();
        let bus = new_metrics_bus();
        let mut dcm = Dcm::new(Rc::clone(&bus), DcmConfig::default(), models());
        for name_tier in [("web-1", 0), ("app-1", 1), ("app-2", 1), ("db-1", 2)] {
            produce(&bus, 1_000, sample(name_tier.0, name_tier.1, 0.5));
        }
        dcm.on_tick(&mut world, &mut engine);
        assert_eq!(world.system.running_count(1), 2);
        let victim = world.system.tier(1).members()[0];
        flow::crash_server(&mut world, &mut engine, victim);
        assert_eq!(world.system.running_count(1), 1);
        // The survivor reports mid-band load: threshold policy says hold.
        for name_tier in [("web-1", 0), ("app-2", 1), ("db-1", 2)] {
            produce(&bus, 2_000, sample(name_tier.0, name_tier.1, 0.5));
        }
        dcm.on_tick(&mut world, &mut engine);
        assert_eq!(
            world.system.booting_count(1),
            1,
            "lost capacity must be re-provisioned without a threshold re-trip"
        );
    }

    /// The baseline has no capacity memory: after a partial crash with
    /// mid-band survivor load it holds — the blind spot DCM closes above.
    #[test]
    fn ec2_holds_after_partial_crash_below_threshold() {
        let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, 2, 1).build();
        let bus = new_metrics_bus();
        let mut ec2 = Ec2AutoScale::new(Rc::clone(&bus), ScalingConfig::default());
        let victim = world.system.tier(1).members()[0];
        flow::crash_server(&mut world, &mut engine, victim);
        for name_tier in [("web-1", 0), ("app-2", 1), ("db-1", 2)] {
            produce(&bus, 1_000, sample(name_tier.0, name_tier.1, 0.5));
        }
        ec2.on_tick(&mut world, &mut engine);
        assert_eq!(world.system.booting_count(1), 0);
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
        let mut dcm = Dcm::new(Rc::clone(&bus), config, models()).with_online_refit(8, 100_000);
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
        let mut dcm =
            Dcm::new(Rc::clone(&bus), DcmConfig::default(), models()).with_online_refit(8, 100_000);
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
        let mut dcm = Dcm::new(Rc::clone(&bus), config, models());
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
