//! The Fig. 5 experiment harness: a trace-driven run of the full stack —
//! workload, monitor, broker, controller — producing every series the
//! paper's evaluation plots.
//!
//! Every trace run is one [`Experiment`] (the world, requests, trace,
//! faults, client behaviour and clock, as plain data) scaled by one
//! [`ControllerSpec`]. [`Experiment::check`] validates the description in
//! one place, returning a [`ConfigError`] that names the field, and
//! [`Experiment::run`] runs it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};

use dcm_ntier::audit::ConservationAuditor;
use dcm_ntier::graph::{GraphEdge, TopologyGraph};
use dcm_ntier::ids::ServerId;
use dcm_ntier::request::Completion;
use dcm_ntier::spans::Span;
use dcm_ntier::system::{InterTierRetry, SystemCounters};
use dcm_ntier::topology::{MeshBuilder, MeshNode, SoftConfig, ThreeTierBuilder};
use dcm_ntier::world::{SimEngine, World};
use dcm_obs::journal::DecisionJournal;
use dcm_obs::metrics::{Registry, SeriesTable};
use dcm_obs::recorder::{SamplerConfig, SpanRecorder};
use dcm_obs::trace::{ControlTick, TraceData};
use dcm_sim::dist::{Dist, Sample};
use dcm_sim::faults::FaultPlan;
use dcm_sim::stats::TimeSeries;
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::cohort::CohortPopulation;
use dcm_workload::generator::RetryPolicy;
use dcm_workload::profile::{CacheEdge, NodeDemand, ProfileFactory};
use dcm_workload::report::{windowed_series, LoadReport, WindowedSeries};
use dcm_workload::steady::SteadyRun;
use dcm_workload::traces::WorkloadTrace;

use crate::agents::ActionRecord;
use crate::controller::{Controller, Dcm, DcmConfig, DcmModels, Ec2AutoScale};
use crate::monitor::{
    install_monitor, new_metrics_bus, schedule_every, MetricsBus, MetricsFeed, MonitorConfig,
};
use crate::mpc::{ModelPredictive, MpcConfig};
use crate::policy::ScalingConfig;
use crate::predictor::HoltConfig;
use crate::zoo::{HoltWinters, StaffingConfig, ThresholdMmc};

/// Process-wide default for the conservation audit, consulted by the
/// presets ([`Experiment::figure5`], [`TraceExperimentConfig::figure5`],
/// [`think_time_run`] and the training sweeps). Set once at startup (e.g.
/// from a `--audit` CLI flag) before building them; each description can
/// still override its own `audit` field.
static GLOBAL_AUDIT: AtomicBool = AtomicBool::new(false);

/// Makes every subsequently-constructed experiment config carry a
/// [`ConservationAuditor`] across its run (`assert_clean` at the end).
pub fn set_global_audit(enabled: bool) {
    GLOBAL_AUDIT.store(enabled, Ordering::SeqCst);
}

/// The current process-wide conservation-audit default.
pub fn global_audit() -> bool {
    GLOBAL_AUDIT.load(Ordering::SeqCst)
}

/// Conservation audit of a trace run: a [`ConservationAuditor`] checks flow
/// balance, Little's law, the utilization law and work conservation across
/// the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Audit {
    /// No auditor.
    Off,
    /// Panic on any violated law.
    Enforce,
    /// Return the report in [`TraceRunResult::audit`] instead, so the fuzz
    /// harness can shrink and pin violations rather than abort.
    Collect,
}

/// The requests a trace run's users send. Kept as data and turned into a
/// [`ProfileFactory`] inside the run: the factory shares its routes
/// through `Rc`, so a description that holds one could not cross threads.
#[derive(Debug, Clone)]
pub enum WorkloadShape {
    /// The RUBBoS browse-only servlet mix over the web → app → db chain
    /// ([`ProfileFactory::rubbos`]).
    Rubbos,
    /// Requests over a microservice call graph.
    Dag {
        /// The per-request call graph, one tier per world node.
        graph: TopologyGraph,
        /// Per-node demand specs, aligned with the world's nodes.
        demands: Vec<NodeDemand>,
        /// Optional cache edge: hits skip the downstream hop, and the hit
        /// ratio warms over served requests ([`dcm_workload::CacheDynamics`]).
        cache: Option<CacheEdge>,
    },
}

impl WorkloadShape {
    fn factory(&self) -> ProfileFactory {
        match self {
            WorkloadShape::Rubbos => ProfileFactory::rubbos(),
            WorkloadShape::Dag {
                graph,
                demands,
                cache,
            } => {
                let factory = ProfileFactory::new(graph.clone(), demands.clone());
                match cache {
                    Some(c) => factory.with_cache(c.from, c.to, c.dynamics.clone()),
                    None => factory,
                }
            }
        }
    }
}

/// One trace-driven run, described as plain data: the world, the requests
/// and user trace, faults and client behaviour, and the control loop's
/// clock — everything but the controller, which [`Experiment::run`] takes
/// as a [`ControllerSpec`]. Every experiment preset (Fig. 5, chaos, the
/// league, the mesh bench, the fuzzer's scenarios) is a value of this type.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// One node per tier, in tier order (node 0 is the entry tier).
    pub nodes: Vec<MeshNode>,
    /// What each request does.
    pub workload: WorkloadShape,
    /// The user-count trace to follow.
    pub trace: WorkloadTrace,
    /// Mean client think time (the paper's RUBBoS clients average 3 s).
    pub think_time_secs: f64,
    /// Scheduled crashes, stragglers and transient failures.
    pub fault_plan: Option<FaultPlan>,
    /// Probability that a VM boot fails (0 in the paper's environment).
    pub boot_failure_prob: f64,
    /// Client-side retry; `None` gives up on the first failure.
    pub client_retry: Option<RetryPolicy>,
    /// Per-request client deadline in seconds; `None` waits forever.
    pub request_deadline_secs: Option<f64>,
    /// Inter-tier retry; `None` rejects when a tier has no routable server.
    pub inter_tier_retry: Option<InterTierRetry>,
    /// Controller invocation period (15 s in the paper).
    pub control_period: SimDuration,
    /// Run length.
    pub horizon: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// Conservation audit across the run.
    pub audit: Audit,
    /// Observability capture ([`dcm_obs`]); `None` costs nothing.
    pub obs: Option<ObsConfig>,
}

/// An invalid [`Experiment`]: the field at fault and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Path of the offending field, e.g. `nodes[2].threads` or `horizon`.
    pub field: String,
    /// Why its value is rejected.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

fn probability(p: f64) -> bool {
    (0.0..=1.0).contains(&p)
}

/// `Err` naming `field` unless `ok`.
fn ensure(ok: bool, field: impl Into<String>, why: impl Into<String>) -> Result<(), ConfigError> {
    if ok {
        return Ok(());
    }
    Err(ConfigError {
        field: field.into(),
        reason: why.into(),
    })
}

/// `Err` naming the first `(field, value)` that fails `ok`.
fn ensure_each(values: &[(&str, f64)], ok: fn(f64) -> bool, rule: &str) -> Result<(), ConfigError> {
    values
        .iter()
        .try_for_each(|&(field, v)| ensure(ok(v), field, format!("{rule}, got {v}")))
}

impl Experiment {
    /// The paper's Fig. 5 setup around the given trace: the RUBBoS chain at
    /// `1/1/1` with the `1000-200-40` soft allocation, 3 s think time, a
    /// 15 s control period, a 700 s horizon, seed 42, no faults, and the
    /// process-wide audit default.
    pub fn figure5(trace: WorkloadTrace) -> Self {
        Experiment::from(&TraceExperimentConfig::figure5(trace))
    }

    /// Checks every field a run depends on. [`Experiment::run`] and
    /// [`Experiment::run_with`] call this before they build anything, so
    /// an invalid description executes no event. A horizon given as a
    /// negative or NaN number of seconds converts to 0 and is rejected
    /// here.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first field out of its domain.
    pub fn check(&self) -> Result<(), ConfigError> {
        let tiers = self.nodes.len();
        ensure(tiers > 0, "nodes", "the world needs at least one node")?;
        for (i, node) in self.nodes.iter().enumerate() {
            let sizes = [("count", node.count), ("threads", node.threads)];
            for (name, size) in sizes.into_iter().chain(node.conns.map(|c| ("conns", c))) {
                ensure(size > 0, format!("nodes[{i}].{name}"), "must be at least 1")?;
            }
        }
        match &self.workload {
            WorkloadShape::Rubbos => {
                let nodes = format!("the RUBBoS mix runs on web, app and db nodes, not {tiers}");
                ensure(tiers == 3, "nodes", nodes)?;
            }
            WorkloadShape::Dag {
                graph,
                demands,
                cache,
            } => {
                let shape = format!("{} tiers for {tiers} nodes", graph.tiers());
                ensure(graph.tiers() == tiers, "workload.graph", shape)?;
                if let Some(m) = graph.visit_ratios().iter().position(|&v| v == 0) {
                    ensure(false, "workload.graph", format!("tier {m} is never called"))?;
                }
                let entries = format!("{} entries for {tiers} nodes", demands.len());
                ensure(demands.len() == tiers, "workload.demands", entries)?;
                for (i, demand) in demands.iter().enumerate() {
                    let mean = demand.base.mean().is_none_or(|m| m.is_finite() && m >= 0.0);
                    let rule = "needs a finite non-negative mean and a pre-call fraction in [0, 1]";
                    let ok = mean && probability(demand.pre_fraction);
                    ensure(ok, format!("workload.demands[{i}]"), rule)?;
                }
                if let Some(c) = cache {
                    let calls = |e: &GraphEdge| usize::from(e.to) == c.to;
                    let edge = c.from < tiers && graph.out_edges(c.from).iter().any(calls);
                    let missing = format!("{}->{} is not an edge of the graph", c.from, c.to);
                    ensure(edge, "workload.cache", missing)?;
                }
            }
        }
        let plan = self.fault_plan.clone().unwrap_or_default();
        for (i, event) in plan.events.iter().enumerate() {
            let field = format!("fault_plan.events[{i}].tier");
            let world = format!("tier {} of a {tiers}-tier world", event.tier);
            ensure(event.tier < tiers, field, world)?;
        }
        let transient = plan.transient_failure_prob;
        let probabilities = [
            ("fault_plan.transient_failure_prob", transient),
            ("boot_failure_prob", self.boot_failure_prob),
            ("obs.sample_rate", self.obs.map_or(0.0, |o| o.sample_rate)),
        ];
        ensure_each(&probabilities, probability, "must lie in [0, 1]")?;
        let deadline = self.request_deadline_secs.unwrap_or(1.0);
        let durations = [
            ("think_time_secs", self.think_time_secs),
            ("request_deadline_secs", deadline),
            ("control_period", self.control_period.as_secs_f64()),
            ("horizon", self.horizon.as_secs_f64()),
        ];
        let positive = |v: f64| v.is_finite() && v > 0.0;
        ensure_each(&durations, positive, "must be finite and positive")
    }

    /// Runs the experiment under the controller `controller` builds
    /// ([`ControllerSpec::build`]).
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] from [`ControllerSpec::check`] or
    /// [`Experiment::check`]; nothing runs then.
    pub fn run(&self, controller: &ControllerSpec) -> Result<TraceRunResult, ConfigError> {
        controller.check()?;
        self.run_with(|bus| controller.build(bus))
    }

    /// Runs the experiment under the controller produced by `make` (which
    /// receives the metrics bus the monitor publishes to): the path for
    /// controllers no [`ControllerSpec`] names.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] from [`Experiment::check`]; `make` is not called
    /// and nothing runs then.
    pub fn run_with<C, F>(&self, make: F) -> Result<TraceRunResult, ConfigError>
    where
        C: Controller + 'static,
        F: FnOnce(MetricsBus) -> C,
    {
        self.check()?;
        let mut mesh = MeshBuilder::new().seed(self.seed);
        for node in &self.nodes {
            mesh = mesh.node(node.clone());
        }
        let (world, engine) = mesh.build();
        Ok(run_trace_on_world(self, world, engine, make))
    }
}

/// The controller a trace run is scaled by, with its configuration and
/// models ([`ControllerSpec::build`] builds it).
#[derive(Debug, Clone)]
pub enum ControllerSpec {
    /// The hardware-only threshold baseline ([`Ec2AutoScale`]).
    Ec2(ScalingConfig),
    /// The paper's two-level controller ([`Dcm`]).
    Dcm {
        /// Scaling policy, actuated tiers and pool headroom.
        config: DcmConfig,
        /// The offline-trained models.
        models: DcmModels,
        /// Online refit as `(min_points, refit_every_ticks)`
        /// ([`Dcm::with_online_refit`]); `None` keeps the offline models.
        refit: Option<(usize, u32)>,
    },
    /// The MVA-predictive planner ([`ModelPredictive`]).
    Mpc {
        /// Planner configuration.
        config: MpcConfig,
        /// The models it plans with.
        models: DcmModels,
    },
    /// M/M/c-style utilization-law staffing ([`ThresholdMmc`]).
    Mmc(StaffingConfig),
    /// Holt-trend predictive staffing ([`HoltWinters`]).
    HoltWinters {
        /// Staffing rule.
        staffing: StaffingConfig,
        /// Trend smoothing.
        holt: HoltConfig,
    },
}

impl ControllerSpec {
    /// EC2-AutoScale with the default thresholds.
    pub fn ec2() -> Self {
        ControllerSpec::Ec2(ScalingConfig::default())
    }

    /// DCM with the default configuration and no online refit.
    pub fn dcm(models: DcmModels) -> Self {
        ControllerSpec::Dcm {
            config: DcmConfig::default(),
            models,
            refit: None,
        }
    }

    /// MPC with the default configuration.
    pub fn mpc(models: DcmModels) -> Self {
        let config = MpcConfig::default();
        ControllerSpec::Mpc { config, models }
    }

    /// Checks the server caps every controller scales its tiers within:
    /// `min_servers ≤ max_servers`, or no server count is allowed.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming `controller.max_servers`.
    pub fn check(&self) -> Result<(), ConfigError> {
        let (lo, hi) = match self {
            ControllerSpec::Ec2(s)
            | ControllerSpec::Dcm {
                config: DcmConfig { scaling: s, .. },
                ..
            } => (s.min_servers, s.max_servers),
            ControllerSpec::Mpc { config, .. } => (config.min_servers, config.max_servers),
            ControllerSpec::Mmc(s) | ControllerSpec::HoltWinters { staffing: s, .. } => {
                (s.min_servers, s.max_servers)
            }
        };
        let why = format!("must be at least controller.min_servers ({lo}), got {hi}");
        ensure(lo <= hi, "controller.max_servers", why)
    }

    /// The controller reading `bus`: the one place a spec becomes a
    /// controller.
    pub fn build(&self, bus: MetricsBus) -> Box<dyn Controller> {
        match self.clone() {
            ControllerSpec::Ec2(scaling) => Box::new(Ec2AutoScale::new(bus, scaling)),
            ControllerSpec::Dcm {
                config,
                models,
                refit,
            } => {
                let dcm = Dcm::new(bus, config, models);
                Box::new(match refit {
                    Some((min_points, every)) => dcm.with_online_refit(min_points, every),
                    None => dcm,
                })
            }
            ControllerSpec::Mpc { config, models } => {
                Box::new(ModelPredictive::new(bus, config, models))
            }
            ControllerSpec::Mmc(staffing) => Box::new(ThresholdMmc::new(bus, staffing)),
            ControllerSpec::HoltWinters { staffing, holt } => {
                Box::new(HoltWinters::new(bus, staffing, holt))
            }
        }
    }

    /// The display name of the controller this spec builds (its
    /// [`Controller::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            ControllerSpec::Ec2(_) => "EC2-AutoScale",
            ControllerSpec::Dcm { .. } => "DCM",
            ControllerSpec::Mpc { .. } => "MPC",
            ControllerSpec::Mmc(_) => "MMC-Threshold",
            ControllerSpec::HoltWinters { .. } => "Holt-Winters",
        }
    }
}

/// The run description perfbench builds: the RUBBoS chain under a user
/// trace. It converts into an [`Experiment`] (`audit` and `audit_tolerant`
/// become [`Audit`]); [`run_trace_experiment`] runs it that way.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceExperimentConfig {
    /// The user-count trace to follow.
    pub trace: WorkloadTrace,
    /// Run length.
    pub horizon: SimTime,
    /// Client think time (the paper's RUBBoS clients average 3 s).
    pub think_time_secs: f64,
    /// Initial `#W_T/#A_T/#A_C` soft allocation.
    pub initial_soft: SoftConfig,
    /// Initial `#W/#A/#D` hardware configuration.
    pub initial_counts: (u32, u32, u32),
    /// Controller invocation period (15 s in the paper).
    pub control_period: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Probability that a VM boot fails.
    pub boot_failure_prob: f64,
    /// Scheduled fault injection.
    pub fault_plan: Option<FaultPlan>,
    /// Client-side retry.
    pub client_retry: Option<RetryPolicy>,
    /// Per-request client deadline in seconds.
    pub request_deadline_secs: Option<f64>,
    /// Inter-tier retry.
    pub inter_tier_retry: Option<InterTierRetry>,
    /// Audit the run ([`Audit::Enforce`]).
    pub audit: bool,
    /// With `audit`, collect the report instead ([`Audit::Collect`]).
    pub audit_tolerant: bool,
    /// Observability capture.
    pub obs: Option<ObsConfig>,
}

/// Observability capture settings for a trace run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsConfig {
    /// Per-request head-sampling probability in `[0, 1]` (the coin is
    /// seeded from the experiment seed, so the sampled set is identical
    /// across `--jobs`).
    pub sample_rate: f64,
    /// Hard span ring-buffer capacity (oldest evicted, with counters).
    pub span_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            sample_rate: 1.0,
            span_capacity: 65_536,
        }
    }
}

impl TraceExperimentConfig {
    /// The paper's Fig. 5 setup around the given trace.
    pub fn figure5(trace: WorkloadTrace) -> Self {
        TraceExperimentConfig {
            trace,
            horizon: SimTime::from_secs(700),
            think_time_secs: 3.0,
            initial_soft: SoftConfig::new(1000, 200, 40),
            initial_counts: (1, 1, 1),
            control_period: SimDuration::from_secs(15),
            seed: 42,
            boot_failure_prob: 0.0,
            fault_plan: None,
            client_retry: None,
            request_deadline_secs: None,
            inter_tier_retry: None,
            audit: global_audit(),
            audit_tolerant: false,
            obs: None,
        }
    }
}

impl From<&TraceExperimentConfig> for Experiment {
    fn from(config: &TraceExperimentConfig) -> Self {
        let (web, app, db) = config.initial_counts;
        Experiment {
            nodes: ThreeTierBuilder::new()
                .counts(web, app, db)
                .soft(config.initial_soft)
                .nodes(),
            workload: WorkloadShape::Rubbos,
            trace: config.trace.clone(),
            think_time_secs: config.think_time_secs,
            fault_plan: config.fault_plan.clone(),
            boot_failure_prob: config.boot_failure_prob,
            client_retry: config.client_retry,
            request_deadline_secs: config.request_deadline_secs,
            inter_tier_retry: config.inter_tier_retry,
            control_period: config.control_period,
            horizon: config.horizon,
            seed: config.seed,
            audit: match (config.audit, config.audit_tolerant) {
                (false, _) => Audit::Off,
                (true, false) => Audit::Enforce,
                (true, true) => Audit::Collect,
            },
            obs: config.obs,
        }
    }
}

/// Everything a Fig. 5 style run produces.
#[derive(Debug, Clone)]
pub struct TraceRunResult {
    /// Controller display name.
    pub controller: &'static str,
    /// Every request completion (successes and rejections).
    pub completions: Vec<Completion>,
    /// Offered user-count series.
    pub offered: TimeSeries,
    /// Per-tier routable-server counts — one series per tier, one point
    /// per second.
    pub tier_vm_counts: Vec<TimeSeries>,
    /// Per-tier mean CPU utilization, one point per second.
    pub tier_cpu_util: Vec<TimeSeries>,
    /// The controller's actuation timeline.
    pub actions: Vec<ActionRecord>,
    /// Candidate-plan evaluations the controller performed over the run —
    /// the deterministic decision-latency proxy (0 for model-free
    /// controllers).
    pub planner_evals: u64,
    /// Per-tier VM-seconds consumed (the resource-cost metric).
    pub vm_seconds: Vec<f64>,
    /// Per-tier dollars consumed. With a homogeneous fleet this is
    /// VM-seconds times a constant; with mixed VM types it is the metric
    /// that actually ranks controllers on spend.
    pub vm_cost: Vec<f64>,
    /// System conservation counters at the end of the run.
    pub counters: SystemCounters,
    /// The configured horizon.
    pub horizon: SimTime,
    /// Observability artifacts, present when the experiment asked for them.
    pub obs: Option<ObsArtifacts>,
    /// The conservation-audit report, present unless the audit was
    /// [`Audit::Off`]. Clean unless [`Audit::Collect`] let violations
    /// through.
    pub audit: Option<dcm_ntier::audit::AuditReport>,
}

/// Everything [`dcm_obs`] captured from one run.
#[derive(Debug, Clone)]
pub struct ObsArtifacts {
    /// Exporter input: sampled spans, lifecycle events, control ticks,
    /// server names, recorder keep/drop accounting.
    pub trace: TraceData,
    /// The controller's per-tick decision journal.
    pub journal: DecisionJournal,
    /// Per-control-period metric snapshots (queue depth, occupancy,
    /// utilization, goodput, timeout/retry rates per tier).
    pub series: SeriesTable,
}

impl TraceRunResult {
    /// Per-window throughput/response-time series over the full horizon.
    pub fn series(&self, window: SimDuration) -> WindowedSeries {
        windowed_series(&self.completions, SimTime::ZERO, self.horizon, window)
    }

    /// Summary over `[start, end)`.
    pub fn report(&self, start: SimTime, end: SimTime) -> LoadReport {
        LoadReport::from_completions(&self.completions, start, end)
    }

    /// Whole-run summary (excluding nothing).
    pub fn overall(&self) -> LoadReport {
        self.report(SimTime::ZERO, self.horizon)
    }

    /// Total VM-seconds across tiers.
    pub fn total_vm_seconds(&self) -> f64 {
        self.vm_seconds.iter().sum()
    }

    /// Total dollars across tiers.
    pub fn total_vm_cost(&self) -> f64 {
        self.vm_cost.iter().sum()
    }
}

/// Result of one steady-state measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStateReport {
    /// Concurrent users offered.
    pub users: u32,
    /// Completions per second over the measurement window.
    pub throughput: f64,
    /// Mean response time (seconds).
    pub mean_rt: f64,
    /// 95th-percentile response time (seconds).
    pub p95_rt: f64,
}

/// The RUBBoS think-time client's run (the validation workload of
/// Fig. 2(b) and Fig. 4): `users` clients with exponential think times of
/// mean 3 s on the `counts` chain under `soft`, warmed up for `warmup` and
/// measured over `window`, the users stopping when it closes. The world
/// seed is derived from `seed` and the user count, and the audit follows
/// [`global_audit`].
pub fn think_time_run(
    counts: (u32, u32, u32),
    soft: SoftConfig,
    users: u32,
    seed: u64,
    warmup: SimDuration,
    window: SimDuration,
) -> SteadyRun {
    let nodes = ThreeTierBuilder::new()
        .counts(counts.0, counts.1, counts.2)
        .soft(soft)
        .nodes();
    SteadyRun {
        seed: dcm_sim::rng::derive_seed(seed, u64::from(users)),
        think: Some(Dist::exponential_mean(3.0)),
        audit: global_audit(),
        ..SteadyRun::new(nodes, users, warmup, window)
    }
}

/// Measures the steady-state throughput and response time of RUBBoS
/// requests over `run`'s window (no controllers; the paper's validation
/// methodology for Fig. 2(b) and Fig. 4).
///
/// # Panics
///
/// Panics if the run is audited and a conservation law is violated.
pub fn steady_state_throughput(run: &SteadyRun) -> SteadyStateReport {
    let window = run.run(ProfileFactory::rubbos());
    if let Some(audit) = &window.audit {
        audit.assert_clean();
    }
    window.population.with_completions(|log| {
        let mut report = LoadReport::from_completions(log, window.start, window.end);
        SteadyStateReport {
            users: run.users,
            throughput: report.throughput(),
            mean_rt: report.mean_response_time(),
            p95_rt: report.response_time_quantile(0.95).unwrap_or(0.0),
        }
    })
}

#[derive(Debug, Default)]
struct RecorderState {
    tier_vm_counts: Vec<TimeSeries>,
    tier_cpu_util: Vec<TimeSeries>,
}

/// Stream index for the span-sampling coin, derived from the experiment
/// seed so the sampled set is a pure function of the config.
const OBS_SEED_STREAM: u64 = 0x6f62_735f_7370_616e; // "obs_span"

/// Live observability capture state, driven once per control period.
#[derive(Debug)]
struct ObsState {
    recorder: SpanRecorder,
    registry: Registry,
    series: SeriesTable,
    feed: MetricsFeed,
    ticks: Vec<ControlTick>,
    /// Spans drained from the system en route to the recorder, kept whole
    /// for the conservation auditor when one is running.
    audit_spans: Vec<Span>,
    /// Per-tier span histogram names: tier `m`'s queue-time histogram at
    /// `2m`, its service-time histogram at `2m + 1`.
    span_histograms: Vec<String>,
    last_counters: SystemCounters,
    last_actions: usize,
    auditing: bool,
}

impl ObsState {
    /// One control-period capture: drain spans, set per-tier gauges from
    /// this period's monitor windows, convert system-counter deltas into
    /// rates, mark the controller tick, snapshot a series row.
    fn capture<C: Controller>(
        &mut self,
        world: &mut World,
        controller: &Rc<RefCell<C>>,
        now: SimTime,
        period: SimDuration,
    ) {
        let mut spans = world.system.take_spans();
        // Fetch the per-tier histograms once per period rather than paying a
        // name lookup per span (span volume scales with throughput), then
        // record every span into its tier's two in one pass, in span order.
        let mut histograms = self
            .registry
            .histogram_entries(&self.span_histograms, 0.0, 30.0, 300);
        for s in &spans {
            histograms[2 * s.tier].record(s.queue_time().as_secs_f64());
            histograms[2 * s.tier + 1].record(s.service_time().as_secs_f64());
        }
        self.recorder.record_all(&spans);
        if self.auditing {
            self.audit_spans.append(&mut spans);
        }
        world.system.recycle_spans(spans);

        for (tier, w) in self.feed.poll_windows() {
            let gauges = [
                ("utilization", w.mean_cpu_util),
                ("goodput", w.total_throughput),
                ("concurrency", w.mean_concurrency),
                ("thread_queue", w.mean_thread_queue),
                ("conn_queue", w.mean_conn_queue),
                ("occupancy", w.mean_occupancy),
            ];
            for (name, value) in gauges {
                self.registry
                    .gauge_set(&format!("tier{tier}.{name}"), value);
            }
        }
        for tier in 0..world.system.tier_count() {
            self.registry.gauge_set(
                &format!("tier{tier}.running"),
                world.system.running_count(tier) as f64,
            );
            self.registry.gauge_set(
                &format!("tier{tier}.booting"),
                world.system.booting_count(tier) as f64,
            );
        }

        let counters = world.system.counters();
        let secs = period.as_secs_f64().max(1e-9);
        let deltas = [
            (
                "sys.completed",
                counters.completed,
                self.last_counters.completed,
            ),
            (
                "sys.rejected",
                counters.rejected,
                self.last_counters.rejected,
            ),
            (
                "sys.timed_out",
                counters.timed_out,
                self.last_counters.timed_out,
            ),
            ("sys.failed", counters.failed, self.last_counters.failed),
            ("sys.retried", counters.retried, self.last_counters.retried),
        ];
        for (name, cur, prev) in deltas {
            let delta = cur.saturating_sub(prev);
            self.registry.counter_add(name, delta);
            self.registry
                .gauge_set(&format!("{name}_per_sec"), delta as f64 / secs);
        }
        self.last_counters = counters;

        let (name, total_actions) = {
            let c = controller.borrow();
            (c.name().to_string(), c.actions().len())
        };
        self.ticks.push(ControlTick {
            at: now,
            controller: name,
            actions: total_actions - self.last_actions,
        });
        self.last_actions = total_actions;

        self.series.snapshot(now.as_secs_f64(), &self.registry);
    }
}

/// Runs a [`TraceExperimentConfig`] with the controller produced by `make`
/// (which receives the metrics bus the monitor publishes to), as the
/// [`Experiment`] it converts into.
///
/// # Panics
///
/// Panics, naming the field, if the config is invalid
/// ([`Experiment::check`]).
pub fn run_trace_experiment<C, F>(config: &TraceExperimentConfig, make: F) -> TraceRunResult
where
    C: Controller + 'static,
    F: FnOnce(MetricsBus) -> C,
{
    Experiment::from(config)
        .run_with(make)
        .unwrap_or_else(|e| panic!("invalid trace experiment: {e}"))
}

/// The shared experiment core: full monitoring/control/obs stack over a
/// world built from `config`'s nodes and a factory built from its workload.
fn run_trace_on_world<C, F>(
    config: &Experiment,
    mut world: World,
    mut engine: SimEngine,
    make: F,
) -> TraceRunResult
where
    C: Controller + 'static,
    F: FnOnce(MetricsBus) -> C,
{
    world.system.boot_failure_prob = config.boot_failure_prob;
    world.system.inter_tier_retry = config.inter_tier_retry;
    if let Some(plan) = &config.fault_plan {
        dcm_ntier::faults::install_fault_plan(&mut world, &mut engine, plan);
    }
    let auditor = (config.audit != Audit::Off).then(|| {
        world.system.enable_tracing();
        ConservationAuditor::begin(&world.system, engine.now())
    });
    if config.obs.is_some() {
        world.system.enable_tracing();
        world.system.enable_event_log();
    }
    let tier_count = world.system.tier_count();

    // Monitoring pipeline.
    let bus = new_metrics_bus();
    install_monitor(
        &mut engine,
        Rc::clone(&bus),
        MonitorConfig::every_second_until(config.horizon),
    );

    // Per-second recorder for the Fig. 5(c)–(f) series.
    let recorder = Rc::new(RefCell::new(RecorderState {
        tier_vm_counts: vec![TimeSeries::new(); tier_count],
        tier_cpu_util: vec![TimeSeries::new(); tier_count],
    }));
    let mut rec_feed = MetricsFeed::new(Rc::clone(&bus), "recorder");
    let rec = Rc::clone(&recorder);
    let second = SimDuration::from_secs(1);
    schedule_every(&mut engine, second, config.horizon, move |world, engine| {
        let now = engine.now();
        let mut rec = rec.borrow_mut();
        for tier in 0..world.system.tier_count() {
            rec.tier_vm_counts[tier].push(now, world.system.running_count(tier) as f64);
        }
        let windows = rec_feed.poll_windows();
        for tier in 0..world.system.tier_count() {
            let util = windows.get(&tier).map_or(0.0, |w| w.mean_cpu_util);
            rec.tier_cpu_util[tier].push(now, util);
        }
    });

    // Workload.
    let population = CohortPopulation::start_trace_driven(
        &mut world,
        &mut engine,
        config.workload.factory(),
        &config.trace,
        config.think_time_secs,
        config.horizon,
    );
    if let Some(policy) = config.client_retry {
        population.set_client_retry(policy);
    }
    if let Some(secs) = config.request_deadline_secs {
        population.set_request_deadline(SimDuration::from_secs_f64(secs));
    }

    // Controller loop. The controller is scheduled before the obs tick so
    // that at every shared period boundary the engine (FIFO at equal
    // times) runs the controller first and the obs capture sees the
    // decisions of the tick it stamps.
    let controller = Rc::new(RefCell::new(make(Rc::clone(&bus))));
    let (period, ticking) = (config.control_period, Rc::clone(&controller));
    schedule_every(&mut engine, period, config.horizon, move |world, engine| {
        ticking.borrow_mut().on_tick(world, engine);
    });

    // Observability capture (spans, metrics, journal), one event per
    // control period.
    let journal = Rc::new(RefCell::new(DecisionJournal::new()));
    let obs_state = config.obs.map(|obs_config| {
        controller.borrow_mut().attach_journal(Rc::clone(&journal));
        let state = Rc::new(RefCell::new(ObsState {
            recorder: SpanRecorder::new(SamplerConfig {
                rate: obs_config.sample_rate,
                seed: dcm_sim::rng::derive_seed(config.seed, OBS_SEED_STREAM),
                capacity: obs_config.span_capacity,
            }),
            registry: Registry::new(),
            series: SeriesTable::new(),
            feed: MetricsFeed::new(Rc::clone(&bus), "obs"),
            ticks: Vec::new(),
            audit_spans: Vec::new(),
            span_histograms: (0..tier_count)
                .flat_map(|tier| {
                    [
                        format!("tier{tier}.queue_s"),
                        format!("tier{tier}.service_s"),
                    ]
                })
                .collect(),
            last_counters: world.system.counters(),
            last_actions: 0,
            auditing: config.audit != Audit::Off,
        }));
        let (capture, observed) = (Rc::clone(&state), Rc::clone(&controller));
        schedule_every(&mut engine, period, config.horizon, move |world, engine| {
            let now = engine.now();
            capture.borrow_mut().capture(world, &observed, now, period);
        });
        state
    });

    // Run to the horizon, then drain in-flight work.
    engine.run_until(&mut world, config.horizon);
    let vm_seconds: Vec<f64> = (0..tier_count)
        .map(|t| world.system.vm_seconds(t, config.horizon))
        .collect();
    let vm_cost: Vec<f64> = (0..tier_count)
        .map(|t| world.system.vm_cost(t, config.horizon))
        .collect();
    engine.run(&mut world);

    let mut obs_final = obs_state.map(|state| {
        Rc::try_unwrap(state)
            .expect("obs events finished")
            .into_inner()
    });
    // Tail spans finished after the last periodic drain (or, with obs off,
    // every span of the run).
    let tail = world.system.take_spans();
    if let Some(state) = obs_final.as_mut() {
        state.recorder.record_all(&tail);
    }
    let audit_report = auditor.map(|auditor| {
        let mut spans = obs_final
            .as_mut()
            .map_or_else(Vec::new, |state| std::mem::take(&mut state.audit_spans));
        spans.extend(tail);
        let report = auditor.finish(&world.system, &spans, engine.now());
        if config.audit == Audit::Enforce {
            report.assert_clean();
        }
        report
    });
    let obs = obs_final.map(|state| {
        let server_names: BTreeMap<ServerId, (String, usize)> = world
            .system
            .servers()
            .map(|s| (s.id(), (s.name().to_string(), s.tier())))
            .collect();
        let events = world.system.take_server_events();
        let (spans, stats) = state.recorder.finish();
        ObsArtifacts {
            trace: TraceData {
                spans,
                events,
                ticks: state.ticks,
                server_names,
                stats,
            },
            journal: journal.borrow().clone(),
            series: state.series,
        }
    });

    let recorder = Rc::try_unwrap(recorder)
        .expect("recorder events finished")
        .into_inner();
    let controller = controller.borrow();
    TraceRunResult {
        controller: controller.name(),
        completions: population.take_completions(),
        offered: population.offered_series(),
        tier_vm_counts: recorder.tier_vm_counts,
        tier_cpu_util: recorder.tier_cpu_util,
        actions: controller.actions(),
        planner_evals: controller.planner_evals(),
        vm_seconds,
        vm_cost,
        counters: world.system.counters(),
        horizon: config.horizon,
        obs,
        audit: audit_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Ec2AutoScale;
    use dcm_ntier::law::reference;
    use dcm_sim::dist::Dist;
    use dcm_workload::traces;

    fn quick(trace: WorkloadTrace) -> Experiment {
        Experiment {
            horizon: SimTime::from_secs(120),
            think_time_secs: 1.0,
            seed: 5,
            audit: Audit::Enforce,
            ..Experiment::figure5(trace)
        }
    }

    /// Fan-out mesh: web -> app -> {svc, db×2}, a warming cache on the
    /// app -> db edge, and a mixed small/large DB fleet.
    fn mesh(trace: WorkloadTrace) -> Experiment {
        use dcm_ntier::server::VmType;
        use dcm_ntier::system::VmPolicy;
        use dcm_workload::cache::CacheDynamics;
        Experiment {
            nodes: vec![
                MeshNode::new("web", reference::apache(), 1000),
                MeshNode::new("app", reference::tomcat(), 100).conns(80),
                MeshNode::new("svc", reference::tomcat(), 50),
                MeshNode::new("db", reference::mysql(), 800)
                    .count(2)
                    .vm_policy(VmPolicy::cycle(vec![VmType::SMALL, VmType::LARGE])),
            ],
            workload: WorkloadShape::Dag {
                graph: TopologyGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (1, 3, 2)]),
                demands: vec![
                    NodeDemand::split(Dist::constant(0.002)),
                    NodeDemand::split(Dist::constant(0.008)),
                    NodeDemand::leaf(Dist::exponential_mean(0.01)).iid_visits(),
                    NodeDemand::leaf(Dist::exponential_mean(0.02)).iid_visits(),
                ],
                cache: Some(CacheEdge {
                    from: 1,
                    to: 3,
                    dynamics: CacheDynamics::new(0.5, 200.0),
                }),
            },
            ..quick(trace)
        }
    }

    #[test]
    fn ec2_run_scales_out_under_step_load() {
        let result = quick(traces::step(20, 320, 30.0))
            .run(&ControllerSpec::ec2())
            .expect("valid");
        assert_eq!(result.controller, "EC2-AutoScale");
        assert!(
            result
                .actions
                .iter()
                .any(|a| matches!(a.action, crate::agents::Action::ScaleOut { .. })),
            "step load should trigger a scale-out: {:?}",
            result.actions
        );
        // Series recorded every second.
        assert_eq!(result.tier_vm_counts.len(), 3);
        assert!(result.tier_vm_counts[1].len() >= 118);
        assert!(result.counters.in_flight() == 0);
        assert!(result.overall().completed() > 500);
        // VM-seconds: tier 1 grew beyond one server at some point.
        assert!(result.vm_seconds[1] > 120.0 - 1e-9);
    }

    #[test]
    fn dcm_run_applies_soft_allocations() {
        let result = quick(traces::step(20, 320, 30.0))
            .run(&ControllerSpec::dcm(DcmModels::reference()))
            .expect("valid");
        assert_eq!(result.controller, "DCM");
        assert!(
            result
                .actions
                .iter()
                .any(|a| matches!(a.action, crate::agents::Action::SetThreadPools { .. })),
            "DCM must actuate thread pools: {:?}",
            result.actions
        );
        assert!(result.counters.in_flight() == 0);
    }

    #[test]
    fn trace_config_runs_as_the_experiment_it_converts_into() {
        // The legacy description and its conversion are one run.
        let mut config = TraceExperimentConfig::figure5(traces::step(20, 200, 30.0));
        config.horizon = SimTime::from_secs(90);
        config.seed = 9;
        let legacy = run_trace_experiment(&config, |bus| {
            Ec2AutoScale::new(bus, ScalingConfig::default())
        });
        let converted = Experiment::from(&config)
            .run(&ControllerSpec::ec2())
            .expect("valid");
        assert_eq!(legacy.completions, converted.completions);
        assert_eq!(legacy.counters, converted.counters);
        assert_eq!(legacy.actions.len(), converted.actions.len());
    }

    #[test]
    fn controller_spec_names_match_the_controllers() {
        let staffing = StaffingConfig::default();
        let specs = [
            ControllerSpec::ec2(),
            ControllerSpec::Dcm {
                config: DcmConfig::default(),
                models: DcmModels::reference(),
                refit: Some((16, 4)),
            },
            ControllerSpec::mpc(DcmModels::reference()),
            ControllerSpec::Mmc(staffing.clone()),
            ControllerSpec::HoltWinters {
                staffing,
                holt: HoltConfig::default(),
            },
        ];
        let experiment = Experiment {
            horizon: SimTime::from_secs(20),
            ..quick(traces::step(10, 20, 5.0))
        };
        for spec in &specs {
            let run = experiment.run(spec).expect("valid");
            assert_eq!(run.controller, spec.name());
        }
    }

    #[test]
    fn invalid_descriptions_are_config_errors_naming_the_field() {
        type Edit = fn(&mut Experiment);
        let rubbos = || quick(traces::step(20, 100, 30.0));
        let dag = || mesh(traces::step(20, 100, 30.0));
        let set_graph = |e: &mut Experiment, g: TopologyGraph| {
            if let WorkloadShape::Dag { graph, .. } = &mut e.workload {
                *graph = g;
            }
        };
        // Each row edits one field of a valid description through the
        // public API; the run must refuse it, naming the field, before it
        // builds the controller (so before any event executes).
        let rows: [(&str, Experiment, Edit); 13] = [
            ("nodes[0].count", rubbos(), |e| e.nodes[0].count = 0),
            ("nodes[2].threads", rubbos(), |e| e.nodes[2].threads = 0),
            ("workload.demands[3]", dag(), |e| {
                if let WorkloadShape::Dag { demands, .. } = &mut e.workload {
                    demands[3].base = Dist::Exponential { lambda: -1.0 }; // mean −1 s
                }
            }),
            ("workload.graph", rubbos(), |e| {
                // The db edge of a chain carries 0 calls: a cache-hit route,
                // which no request may take as its only one.
                e.workload = WorkloadShape::Dag {
                    graph: TopologyGraph::chain(&[1, 1, 1]).skipping(1, 2),
                    demands: vec![NodeDemand::leaf(Dist::constant(0.01)); 3],
                    cache: None,
                };
            }),
            ("workload.graph", dag(), |e| {
                let three = TopologyGraph::from_edges(3, &[(0, 1, 1), (1, 2, 2)]);
                if let WorkloadShape::Dag { graph, .. } = &mut e.workload {
                    *graph = three;
                }
            }),
            ("workload.graph", rubbos(), |e| {
                // One node under a two-tier chain.
                e.nodes.truncate(1);
                e.workload = WorkloadShape::Dag {
                    graph: TopologyGraph::chain(&[1, 1]),
                    demands: vec![NodeDemand::leaf(Dist::constant(0.01))],
                    cache: None,
                };
            }),
            ("horizon", rubbos(), |e| {
                e.horizon = SimTime::from_secs_f64(-5.0)
            }),
            ("horizon", rubbos(), |e| {
                e.horizon = SimTime::from_secs_f64(f64::NAN)
            }),
            ("think_time_secs", rubbos(), |e| e.think_time_secs = -1.0),
            ("fault_plan.transient_failure_prob", rubbos(), |e| {
                let mut plan = FaultPlan::none();
                plan.transient_failure_prob = 2.0;
                e.fault_plan = Some(plan);
            }),
            ("fault_plan.events[0].tier", rubbos(), |e| {
                e.fault_plan = Some(FaultPlan::none().with_crash(30.0, 7, 0));
            }),
            ("request_deadline_secs", rubbos(), |e| {
                e.request_deadline_secs = Some(0.0);
            }),
            ("request_deadline_secs", rubbos(), |e| {
                e.request_deadline_secs = Some(-2.0);
            }),
        ];
        for (field, mut experiment, edit) in rows {
            edit(&mut experiment);
            let built = std::cell::Cell::new(false);
            let err = experiment
                .run_with(|bus| {
                    built.set(true);
                    Ec2AutoScale::new(bus, ScalingConfig::default())
                })
                .expect_err(field);
            assert_eq!(err.field, field, "{err}");
            assert!(!built.get(), "{field}: the run started");
        }
        // The shapes the rows break are valid as built, and a chain graph
        // whose tiers match the nodes is accepted.
        assert_eq!(rubbos().check(), Ok(()));
        assert_eq!(dag().check(), Ok(()));
        let mut chain = dag();
        chain.nodes.truncate(3);
        set_graph(&mut chain, TopologyGraph::chain(&[1, 1, 2]));
        if let WorkloadShape::Dag { demands, cache, .. } = &mut chain.workload {
            demands.truncate(3);
            *cache = None;
        }
        assert_eq!(chain.check(), Ok(()));
    }

    /// Server caps that allow no count are refused for every controller,
    /// naming the field, before the run starts: under them the MPC would
    /// have no candidate plan to choose from.
    #[test]
    fn inverted_server_caps_are_config_errors() {
        let models = DcmModels::reference;
        let scaling = ScalingConfig {
            min_servers: 3,
            max_servers: 2,
            ..ScalingConfig::default()
        };
        let staffing = StaffingConfig {
            min_servers: 3,
            max_servers: 2,
            ..StaffingConfig::default()
        };
        let mpc = MpcConfig {
            min_servers: 3,
            max_servers: 2,
            ..MpcConfig::default()
        };
        let dcm = DcmConfig {
            scaling: scaling.clone(),
            ..DcmConfig::default()
        };
        let specs = [
            ControllerSpec::Mpc {
                config: mpc,
                models: models(),
            },
            ControllerSpec::Ec2(scaling),
            ControllerSpec::Dcm {
                config: dcm,
                models: models(),
                refit: None,
            },
            ControllerSpec::Mmc(staffing.clone()),
            ControllerSpec::HoltWinters {
                staffing,
                holt: HoltConfig::default(),
            },
        ];
        let experiment = quick(traces::step(20, 100, 30.0));
        for spec in specs {
            let err = experiment.run(&spec).expect_err(spec.name());
            assert_eq!(err.field, "controller.max_servers", "{err}");
        }
        assert_eq!(ControllerSpec::mpc(models()).check(), Ok(()));
    }

    /// A world that starts above the MPC's cap (12 app servers against
    /// `max_servers` 8) plans back within it: the app tier's span
    /// `12 ± 2` clamps to `8..=8`, where capping only its top would leave
    /// `10..=8`, which holds no candidate.
    #[test]
    fn mpc_plans_an_over_cap_world_within_max_servers() {
        let mut experiment = quick(traces::step(20, 100, 30.0));
        experiment.nodes[1].count = 12;
        let result = experiment
            .run(&ControllerSpec::mpc(DcmModels::reference()))
            .expect("valid");
        assert!(result.planner_evals > 0, "the MPC planned");
        let (_, app_vms) = result.tier_vm_counts[1].iter().last().expect("sampled");
        assert!(app_vms <= 8.0, "{app_vms} app VMs after planning");
    }

    #[test]
    fn obs_capture_journals_every_action_with_reasons() {
        let mut experiment = quick(traces::step(20, 320, 30.0));
        experiment.obs = Some(ObsConfig::default());
        let result = experiment
            .run(&ControllerSpec::dcm(DcmModels::reference()))
            .expect("valid");
        let obs = result.obs.as_ref().expect("obs requested");
        // One journal entry, control tick, and series row per control
        // period (120 s horizon / 15 s period).
        assert_eq!(obs.journal.len(), 8);
        assert_eq!(obs.trace.ticks.len(), 8);
        assert_eq!(obs.series.len(), 8);
        // Every actuation in the timeline is reconstructable from the
        // journal: same tick, same tier, marked applied.
        assert!(!result.actions.is_empty());
        for action in &result.actions {
            let entry = obs
                .journal
                .entries()
                .iter()
                .find(|e| e.at == action.at)
                .unwrap_or_else(|| panic!("no journal entry at {:?}", action.at));
            let (kinds, tier): (&[&str], usize) = match &action.action {
                crate::agents::Action::ScaleOut { tier } => (&["scale-out", "replace-lost"], *tier),
                crate::agents::Action::ScaleIn { tier } => (&["scale-in"], *tier),
                crate::agents::Action::SetThreadPools { tier, .. } => (&["set-threads"], *tier),
                crate::agents::Action::SetConnPools { tier, .. } => (&["set-conns"], *tier),
            };
            assert!(
                entry.decisions.iter().any(|d| d.applied
                    && d.tier == tier
                    && kinds.contains(&d.action.as_str())
                    && !d.reason.is_empty()),
                "action {action:?} has no applied journal decision: {:?}",
                entry.decisions
            );
        }
        // DCM journals its model state with provenance every tick.
        let entry = &obs.journal.entries()[0];
        assert_eq!(entry.fits.len(), 2);
        assert!(entry.fits.iter().all(|f| f.source == "offline"));
        // Recorder accounting is conserved and spans were captured.
        let stats = obs.trace.stats;
        assert_eq!(stats.seen, stats.recorded + stats.unsampled);
        assert!(stats.seen > 0, "spans must flow into the recorder");
        assert!(!obs.trace.spans.is_empty());
        assert!(!obs.trace.server_names.is_empty());
        // Per-tier gauges landed in the series.
        assert!(obs.series.column("tier1.utilization").is_some());
        assert!(obs.series.column("tier1.occupancy").is_some());
        assert!(obs.series.column("sys.completed").is_some());
        // The audit ran alongside obs (`quick` enforces it), so
        // the periodic span drain fed both consumers without conflict.
    }

    #[test]
    fn audit_report_is_surfaced_in_the_result() {
        let mut experiment = quick(traces::step(20, 120, 30.0));
        experiment.audit = Audit::Collect;
        let run = experiment.run(&ControllerSpec::ec2()).expect("valid");
        let report = run.audit.as_ref().expect("audit requested");
        assert!(report.is_clean(), "clean run: {:?}", report.violations);
        assert!(report.spans_audited > 0, "audit must have seen spans");
    }

    #[test]
    fn obs_disabled_run_carries_no_artifacts() {
        let result = quick(traces::step(20, 320, 30.0))
            .run(&ControllerSpec::ec2())
            .expect("valid");
        assert!(result.obs.is_none());
    }

    /// The recorder, the obs capture and the controller each commit what
    /// they read, so after a run the metrics topic holds at most the
    /// samples published since the last control tick, not the whole run.
    #[test]
    fn metrics_topic_holds_about_one_control_period() {
        use crate::monitor::METRICS_TOPIC;
        use dcm_bus::GroupConsumer;

        let mut experiment = quick(traces::step(20, 320, 30.0));
        experiment.obs = Some(ObsConfig::default());
        let mut kept: Option<MetricsBus> = None;
        let result = experiment
            .run_with(|bus| {
                kept = Some(Rc::clone(&bus));
                Ec2AutoScale::new(bus, ScalingConfig::default())
            })
            .expect("valid");
        let bus = kept.expect("the controller was built");
        let broker = bus.borrow();
        let mut probe = GroupConsumer::new("probe", METRICS_TOPIC, &broker).expect("topic");
        let held = probe.poll(&broker, 1_000_000).expect("topic").len();
        let servers = result.obs.expect("obs on").trace.server_names.len();
        let period_secs = experiment.control_period.as_secs_f64() as usize;
        assert!(
            held > 0,
            "the last samples are still unread by the controller"
        );
        assert!(
            held <= servers * (period_secs + 1),
            "{held} samples held for {servers} servers"
        );
    }

    #[test]
    fn mesh_run_with_cache_and_mixed_vms_conserves_requests() {
        use dcm_ntier::server::VmType;

        // The full monitoring/control/audit stack must hold on the mesh.
        let result = mesh(traces::step(20, 200, 30.0))
            .run(&ControllerSpec::ec2())
            .expect("valid");
        assert_eq!(result.counters.in_flight(), 0, "mesh conservation");
        assert!(result.overall().completed() > 200);
        assert_eq!(result.vm_seconds.len(), 4);
        assert_eq!(result.vm_cost.len(), 4);
        // Two DB servers for the whole horizon, one small + one large:
        // the dollar metric must price the pair above two smalls.
        let horizon_h = result.horizon.as_secs_f64() / 3600.0;
        let two_smalls = 2.0 * VmType::SMALL.price_per_hour * horizon_h;
        assert!(
            result.vm_cost[3] > two_smalls * 1.2,
            "mixed fleet must cost more than homogeneous small: {} vs {}",
            result.vm_cost[3],
            two_smalls
        );
        assert!(result.total_vm_cost() > result.vm_cost[3]);
    }

    #[test]
    fn faulted_run_conserves_requests() {
        let mut experiment = quick(traces::step(20, 200, 30.0));
        experiment.fault_plan = Some(
            FaultPlan::none()
                .with_crash(40.0, 1, 0)
                .with_straggler(60.0, 2, 0, 4.0, 20.0)
                .with_transient_failures(0.005),
        );
        experiment.client_retry = Some(RetryPolicy::default());
        experiment.request_deadline_secs = Some(10.0);
        experiment.inter_tier_retry = Some(InterTierRetry::default());
        let result = experiment.run(&ControllerSpec::ec2()).expect("valid");
        assert_eq!(result.counters.in_flight(), 0, "conservation under faults");
        assert!(
            result.counters.failed > 0,
            "the crash must fail in-flight work: {:?}",
            result.counters
        );
        // The app tier lost its only server at t=40; the controller must
        // have booted a replacement rather than holding a dead tier.
        assert!(
            result
                .actions
                .iter()
                .any(|a| matches!(a.action, crate::agents::Action::ScaleOut { tier: 1, .. })),
            "crashed tier must be re-provisioned: {:?}",
            result.actions
        );
    }
}
