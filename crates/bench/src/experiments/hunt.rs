//! Adversarial scenario fuzzing: `repro hunt`.
//!
//! A seed-deterministic campaign harness that generates random full-stack
//! scenarios — topology, workload shape, fault schedule, controller
//! configuration — runs each through the simulator, and checks the result
//! against invariant oracles. A quarter of the trace-driven scenarios
//! (those whose [`mesh_active`] coin lands) swap the three-tier chain for
//! a fan-out microservice mesh with a warming cache and, optionally, a
//! mixed small/large VM fleet, so the conservation, replay, and league
//! oracles continuously fuzz the DAG dispatch path too:
//!
//! * **conservation** — a faulted, controller-driven trace run must end
//!   with a clean
//!   [`ConservationAuditor`](dcm_ntier::audit::ConservationAuditor) report
//!   and zero in-flight requests (every submitted request is accounted
//!   for).
//! * **replay** — running the identical scenario twice must be
//!   bit-identical: same completion log, same counters, same VM-seconds.
//!   This is the campaign's permutation oracle: tier servers are
//!   symmetric, so any observable difference between two runs of the same
//!   seed is a nondeterminism bug of exactly the kind a true
//!   server-permutation would expose.
//! * **cohort** — the cohort-aggregated generator at size `C` must
//!   conserve users and stay within a stationary-throughput band of the
//!   per-user run (`cohort_size = 1`).
//! * **doubling** — at moderate (think-limited) utilization, doubling
//!   every tier's server count must leave steady-state throughput
//!   invariant within measurement tolerance.
//! * **mva** — where the product-form model applies (zero-overhead laws),
//!   the DES must conform to exact MVA within tolerance and respect the
//!   asymptotic throughput bound.
//! * **league** — no controller in the zoo (EC2-AutoScale, DCM, MPC,
//!   M/M/c threshold, Holt-Winters) may exceed its configured VM cap or
//!   per-tick step limit in any sampled scenario, and no controller may
//!   drain a tier to zero servers.
//!
//! Campaigns are bit-identical across `--jobs`: every scenario is derived
//! from the campaign seed via [`derive_seed`] streams, runs fan out
//! through [`dcm_sim::runner::run_ordered`], and the results are folded
//! into a digest in campaign-index order. On a violation, a greedy
//! delta-debugging shrinker minimizes the scenario while preserving the
//! violation, and the minimized case is written as a self-contained
//! key-value file under `tests/regressions/` (replayed by the
//! `regressions` integration test forever after).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dcm_core::agents::Action;
use dcm_core::controller::{DcmConfig, DcmModels};
use dcm_core::experiment::{
    steady_state_throughput, think_time_run, Audit, ControllerSpec, Experiment, TraceRunResult,
    WorkloadShape,
};
use dcm_core::mpc::MpcConfig;
use dcm_core::policy::ScalingConfig;
use dcm_core::predictor::HoltConfig;
use dcm_core::zoo::StaffingConfig;
use dcm_ntier::graph::TopologyGraph;
use dcm_ntier::law::{reference, ServiceLaw};
use dcm_ntier::server::VmType;
use dcm_ntier::system::{InterTierRetry, VmPolicy};
use dcm_ntier::topology::{MeshNode, SoftConfig, ThreeTierBuilder};
use dcm_obs::FailureLog;
use dcm_oracle::{run_scenario, Scenario};
use dcm_sim::dist::Dist;
use dcm_sim::faults::FaultPlan;
use dcm_sim::rng::{derive_seed, SimRng};
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::cache::CacheDynamics;
use dcm_workload::generator::RetryPolicy;
use dcm_workload::profile::CacheEdge;
use dcm_workload::profile::ProfileFactory;
use dcm_workload::steady::SteadyRun;
use dcm_workload::traces;

use crate::format::TextTable;

/// Default campaign seed (the date this harness landed).
pub const SEED: u64 = 2026_0808;

/// RNG stream tag for scenario generation (any fixed constant works; this
/// keeps generation draws disjoint from the run's own seed).
const GEN_STREAM: u64 = 0x6875_6e74;

/// Upper bound on oracle re-runs the shrinker may spend per violation.
const SHRINK_BUDGET: u32 = 48;

/// Tolerance for the server-doubling invariance check. Doubling runs are
/// think-limited (utilization well under 50 %), where the residual
/// throughput shift from shorter queues is a couple of percent; the rest
/// of the band absorbs sampling noise over the measurement window.
const DOUBLING_TOLERANCE: f64 = 0.12;

/// Tolerance for DES-vs-MVA conformance (max relative error across
/// throughput and per-tier residences). Looser than `repro validate`'s
/// full-fidelity 2 % because hunt campaigns use short windows.
const MVA_TOLERANCE: f64 = 0.15;

/// Band for the cohort-C stationary-throughput agreement check.
const COHORT_BAND: f64 = 0.25;

/// The invariant an individual scenario is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OracleKind {
    /// Conservation audit + in-flight accounting on a faulted trace run.
    Conservation,
    /// Same-seed replay bit-identity (the permutation oracle).
    Replay,
    /// Cohort-aggregation equivalence to the per-user generator.
    Cohort,
    /// Server-doubling throughput invariance at moderate utilization.
    Doubling,
    /// Exact-MVA conformance where product-form applies.
    Mva,
    /// Controller-zoo actuation discipline: VM caps, per-tick step
    /// limits, and never draining a tier to zero.
    League,
}

impl OracleKind {
    /// Stable lowercase label (used in JSON, filenames, and kv files).
    pub fn label(self) -> &'static str {
        match self {
            OracleKind::Conservation => "conservation",
            OracleKind::Replay => "replay",
            OracleKind::Cohort => "cohort",
            OracleKind::Doubling => "doubling",
            OracleKind::Mva => "mva",
            OracleKind::League => "league",
        }
    }

    /// Inverse of [`OracleKind::label`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "conservation" => Ok(OracleKind::Conservation),
            "replay" => Ok(OracleKind::Replay),
            "cohort" => Ok(OracleKind::Cohort),
            "doubling" => Ok(OracleKind::Doubling),
            "mva" => Ok(OracleKind::Mva),
            "league" => Ok(OracleKind::League),
            other => Err(format!("unknown oracle {other:?}")),
        }
    }

    /// All oracles, in campaign rotation order. `League` is appended at
    /// the end so indices 0–4 keep generating the same scenarios as
    /// before the zoo landed.
    pub fn all() -> [OracleKind; 6] {
        [
            OracleKind::Conservation,
            OracleKind::Replay,
            OracleKind::Cohort,
            OracleKind::Doubling,
            OracleKind::Mva,
            OracleKind::League,
        ]
    }
}

/// Workload trace shape for the trace-driven oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceShape {
    /// One step from `users_low` to `users_high`.
    Step,
    /// A flash crowd: base load with a temporary peak.
    Flash,
    /// A sampled sine oscillation between the two levels.
    Sine,
}

impl TraceShape {
    fn label(self) -> &'static str {
        match self {
            TraceShape::Step => "step",
            TraceShape::Flash => "flash",
            TraceShape::Sine => "sine",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "step" => Ok(TraceShape::Step),
            "flash" => Ok(TraceShape::Flash),
            "sine" => Ok(TraceShape::Sine),
            other => Err(format!("unknown trace shape {other:?}")),
        }
    }
}

/// Which controller drives the trace-driven oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerKind {
    /// The utilization-threshold baseline.
    Ec2,
    /// The paper's dynamic concurrency manager.
    Dcm,
    /// The MVA-planning model-predictive controller.
    Mpc,
    /// The M/M/c threshold-staffing baseline.
    Mmc,
    /// Holt-Winters forecast staffing.
    Hw,
}

impl ControllerKind {
    fn label(self) -> &'static str {
        match self {
            ControllerKind::Ec2 => "ec2",
            ControllerKind::Dcm => "dcm",
            ControllerKind::Mpc => "mpc",
            ControllerKind::Mmc => "mmc",
            ControllerKind::Hw => "hw",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "ec2" => Ok(ControllerKind::Ec2),
            "dcm" => Ok(ControllerKind::Dcm),
            "mpc" => Ok(ControllerKind::Mpc),
            "mmc" => Ok(ControllerKind::Mmc),
            "hw" => Ok(ControllerKind::Hw),
            other => Err(format!("unknown controller {other:?}")),
        }
    }
}

/// One generated scenario: everything a run needs, flat so the shrinker
/// and the kv serialization treat every knob uniformly. Fields not used by
/// a scenario's oracle are still generated (the draw order is fixed) and
/// simply ignored by [`check`].
#[derive(Debug, Clone, PartialEq)]
pub struct HuntScenario {
    /// The invariant this scenario is checked against.
    pub oracle: OracleKind,
    /// The run seed (derived from the campaign seed and index).
    pub seed: u64,
    /// Web-tier server count.
    pub web: u32,
    /// App-tier server count.
    pub app: u32,
    /// DB-tier server count.
    pub db: u32,
    /// Web thread-pool size (`#W_T`).
    pub web_threads: u32,
    /// App thread-pool size per server (`#A_T`).
    pub app_threads: u32,
    /// DB connection-pool size per app server (`#A_C`).
    pub db_conns: u32,
    /// Trace shape for trace-driven runs.
    pub shape: TraceShape,
    /// Low user level of the trace.
    pub users_low: u32,
    /// High user level of the trace.
    pub users_high: u32,
    /// Mean client think time for trace-driven runs (seconds).
    pub think_secs: f64,
    /// Trace-run horizon (seconds).
    pub horizon_secs: f64,
    /// App-tier VM crash time (seconds; 0 disables).
    pub crash_at_secs: f64,
    /// Tier index the crash strikes (1 = app, 2 = db).
    pub crash_tier: u32,
    /// Straggler episode start (seconds; 0 disables).
    pub straggler_at_secs: f64,
    /// Tier index the straggler strikes.
    pub straggler_tier: u32,
    /// Straggler service-time multiplier.
    pub straggler_factor: f64,
    /// Straggler episode length (seconds).
    pub straggler_secs: f64,
    /// Transient per-request failure probability (0 disables).
    pub transient_prob: f64,
    /// Install the default client retry policy.
    pub client_retry: bool,
    /// Per-request client deadline (seconds; 0 disables).
    pub deadline_secs: f64,
    /// Install the default inter-tier retry layer.
    pub inter_tier_retry: bool,
    /// Controller for trace-driven runs.
    pub controller: ControllerKind,
    /// Scale-out utilization threshold.
    pub up_threshold: f64,
    /// Scale-in utilization threshold.
    pub down_threshold: f64,
    /// Consecutive low periods before scale-in.
    pub down_consecutive: u32,
    /// Per-tier server cap.
    pub max_servers: u32,
    /// DCM pool-size headroom multiplier.
    pub headroom: f64,
    /// Steady-state population for the cohort and doubling oracles.
    pub users: u32,
    /// Cohort size for the cohort oracle.
    pub cohort_size: u32,
    /// Think time for the steady-state oracles (seconds).
    pub think_z: f64,
    /// DB thread pool per server for the MVA oracle (station `c`).
    pub db_threads: u32,
    /// Constant web demand for the MVA oracle (seconds).
    pub web_demand: f64,
    /// Constant app demand for the MVA oracle (seconds).
    pub app_demand: f64,
    /// Mean exponential per-visit DB demand for the MVA oracle (seconds).
    pub db_demand: f64,
    /// DB queries per request for the MVA oracle.
    pub db_visits: u32,
    /// Target DB utilization the MVA population is sized for.
    pub mva_util: f64,
    /// Mean response-time SLO the MPC plans against (seconds).
    pub mpc_slo_secs: f64,
    /// MPC scale-in hysteresis margin.
    pub mpc_scale_in_margin: f64,
    /// Per-server utilization target for the staffing controllers.
    pub rho_target: f64,
    /// Holt-Winters level smoothing factor.
    pub hw_level_alpha: f64,
    /// Holt-Winters trend smoothing factor.
    pub hw_trend_beta: f64,
    /// Per-tick VM step limit for the MPC and staffing controllers.
    pub step_limit: u32,
    /// Mesh activation draw: below [`MESH_PROB`] the trace-driven oracles
    /// run the fan-out mesh world instead of the three-tier chain.
    pub mesh_coin: f64,
    /// Calls per request on the fan-out app→db edge of the mesh.
    pub fanout_calls: u32,
    /// Steady-state maximum hit ratio of the mesh's app→db cache
    /// (0 disables the cache).
    pub cache_hit: f64,
    /// Requests over which the mesh cache warms to `1 − 1/e` of its max.
    pub cache_warmup: f64,
    /// CPU-capacity multiplier of the large VM flavor in mixed fleets.
    pub vm_large_capacity: f64,
    /// Launch the mesh DB tier as an alternating small/large fleet.
    pub vm_mix: bool,
}

/// Fraction of trace-driven scenarios that run the mesh world. The draw
/// sits at the end of the generation stream, so pre-mesh campaigns keep
/// every earlier knob bit-identical.
pub const MESH_PROB: f64 = 0.25;

/// True when this scenario's trace-driven oracles run the mesh world.
pub fn mesh_active(s: &HuntScenario) -> bool {
    s.mesh_coin < MESH_PROB
}

fn uni(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

fn uni_u32(rng: &mut SimRng, lo: u32, hi: u32) -> u32 {
    debug_assert!(hi >= lo);
    let span = f64::from(hi - lo) + 1.0;
    (lo + (rng.next_f64() * span) as u32).min(hi)
}

fn coin(rng: &mut SimRng, p: f64) -> bool {
    rng.next_f64() < p
}

/// Generates the scenario at `index` of the campaign rooted at
/// `campaign_seed`. Pure function of its arguments: every knob is drawn
/// from a dedicated `derive_seed` stream in a fixed order, so campaigns
/// are identical regardless of how runs are scheduled across workers.
pub fn generate(campaign_seed: u64, index: u64) -> HuntScenario {
    let seed = derive_seed(campaign_seed, index);
    let mut rng = SimRng::seed_from(derive_seed(seed, GEN_STREAM));
    let oracle = OracleKind::all()[(index % 6) as usize];

    let web = uni_u32(&mut rng, 1, 2);
    let app = uni_u32(&mut rng, 1, 3);
    let db = uni_u32(&mut rng, 1, 2);
    let web_threads = uni_u32(&mut rng, 200, 1200);
    let app_threads = uni_u32(&mut rng, 50, 300);
    let db_conns = uni_u32(&mut rng, 10, 80);

    let shape = match uni_u32(&mut rng, 0, 2) {
        0 => TraceShape::Step,
        1 => TraceShape::Flash,
        _ => TraceShape::Sine,
    };
    let users_low = uni_u32(&mut rng, 5, 60);
    let users_high = users_low + uni_u32(&mut rng, 20, 180);
    let think_secs = uni(&mut rng, 0.5, 3.0);
    let horizon_secs = uni(&mut rng, 60.0, 120.0).round();

    let (crash_at_secs, crash_tier) = if coin(&mut rng, 0.5) {
        (
            uni(&mut rng, 15.0, 0.6 * horizon_secs).round(),
            uni_u32(&mut rng, 1, 2),
        )
    } else {
        // Draw anyway to keep the stream aligned, then disable.
        let _ = uni(&mut rng, 15.0, 0.6 * horizon_secs);
        let _ = uni_u32(&mut rng, 1, 2);
        (0.0, 1)
    };
    let (straggler_at_secs, straggler_tier, straggler_factor, straggler_secs) =
        if coin(&mut rng, 0.5) {
            (
                uni(&mut rng, 15.0, 0.7 * horizon_secs).round(),
                uni_u32(&mut rng, 1, 2),
                uni(&mut rng, 2.0, 6.0),
                uni(&mut rng, 10.0, 40.0).round(),
            )
        } else {
            let _ = uni(&mut rng, 15.0, 0.7 * horizon_secs);
            let _ = uni_u32(&mut rng, 1, 2);
            let _ = uni(&mut rng, 2.0, 6.0);
            let _ = uni(&mut rng, 10.0, 40.0);
            (0.0, 1, 2.0, 10.0)
        };
    let transient_prob = if coin(&mut rng, 0.4) {
        uni(&mut rng, 0.001, 0.008)
    } else {
        let _ = uni(&mut rng, 0.001, 0.008);
        0.0
    };
    let client_retry = coin(&mut rng, 0.5);
    let deadline_secs = if coin(&mut rng, 0.5) {
        uni(&mut rng, 5.0, 15.0).round()
    } else {
        let _ = uni(&mut rng, 5.0, 15.0);
        0.0
    };
    let inter_tier_retry = coin(&mut rng, 0.5);

    // One draw, like the old ec2/dcm coin, so every later field keeps its
    // position in the stream.
    let controller = match (rng.next_f64() * 5.0) as usize {
        0 => ControllerKind::Ec2,
        1 => ControllerKind::Dcm,
        2 => ControllerKind::Mpc,
        3 => ControllerKind::Mmc,
        _ => ControllerKind::Hw,
    };
    let up_threshold = uni(&mut rng, 0.6, 0.9);
    let down_threshold = uni(&mut rng, 0.15, up_threshold - 0.25);
    let down_consecutive = uni_u32(&mut rng, 2, 4);
    let max_servers = uni_u32(&mut rng, 4, 8);
    let headroom = uni(&mut rng, 1.0, 1.5);

    let users = uni_u32(&mut rng, 8, 24);
    let cohort_size = uni_u32(&mut rng, 2, 32);
    let think_z = uni(&mut rng, 0.5, 2.0);

    let db_threads = uni_u32(&mut rng, 1, 4);
    let web_demand = uni(&mut rng, 0.002, 0.01);
    let app_demand = uni(&mut rng, 0.005, 0.02);
    let db_demand = uni(&mut rng, 0.02, 0.08);
    let db_visits = uni_u32(&mut rng, 1, 2);
    let mva_util = uni(&mut rng, 0.25, 0.55);

    // Zoo knobs, appended after every pre-existing draw so older fields
    // keep their values for a given (seed, index).
    let mpc_slo_secs = uni(&mut rng, 0.7, 2.0);
    let mpc_scale_in_margin = uni(&mut rng, 0.6, 0.95);
    let rho_target = uni(&mut rng, 0.45, 0.85);
    let hw_level_alpha = uni(&mut rng, 0.2, 0.8);
    let hw_trend_beta = uni(&mut rng, 0.05, 0.45);
    let step_limit = uni_u32(&mut rng, 1, 3);

    // Mesh knobs, appended after every pre-existing draw (including the
    // zoo's) so older fields keep their values for a given (seed, index).
    let mesh_coin = rng.next_f64();
    let fanout_calls = uni_u32(&mut rng, 1, 3);
    let cache_hit = if coin(&mut rng, 0.6) {
        uni(&mut rng, 0.2, 0.7)
    } else {
        let _ = uni(&mut rng, 0.2, 0.7);
        0.0
    };
    let cache_warmup = uni(&mut rng, 100.0, 2000.0).round();
    let vm_large_capacity = uni(&mut rng, 1.5, 4.0);
    let vm_mix = coin(&mut rng, 0.5);

    HuntScenario {
        oracle,
        seed,
        web,
        app,
        db,
        web_threads,
        app_threads,
        db_conns,
        shape,
        users_low,
        users_high,
        think_secs,
        horizon_secs,
        crash_at_secs,
        crash_tier,
        straggler_at_secs,
        straggler_tier,
        straggler_factor,
        straggler_secs,
        transient_prob,
        client_retry,
        deadline_secs,
        inter_tier_retry,
        controller,
        up_threshold,
        down_threshold,
        down_consecutive,
        max_servers,
        headroom,
        users,
        cohort_size,
        think_z,
        db_threads,
        web_demand,
        app_demand,
        db_demand,
        db_visits,
        mva_util,
        mpc_slo_secs,
        mpc_scale_in_margin,
        rho_target,
        hw_level_alpha,
        hw_trend_beta,
        step_limit,
        mesh_coin,
        fanout_calls,
        cache_hit,
        cache_warmup,
        vm_large_capacity,
        vm_mix,
    }
}

/// What one scenario check produced: a deterministic fingerprint of the
/// run (folded into the campaign digest) and the violation, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// FNV-1a fingerprint over the run's virtual quantities.
    pub fingerprint: u64,
    /// `Some(detail)` when the oracle rejected the run.
    pub violation: Option<String>,
}

impl CheckOutcome {
    /// The outcome of a run fingerprinted by `fnv` that broke `problems`.
    fn new(fnv: Fnv, problems: &[String]) -> Self {
        CheckOutcome {
            fingerprint: fnv.0,
            violation: (!problems.is_empty()).then(|| problems.join("; ")),
        }
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn trace_for(s: &HuntScenario) -> dcm_workload::WorkloadTrace {
    let step_at = (0.2 * s.horizon_secs).max(10.0);
    match s.shape {
        TraceShape::Step => traces::step(s.users_low, s.users_high, step_at),
        TraceShape::Flash => traces::flash_crowd(
            s.users_low,
            s.users_high,
            step_at,
            (0.4 * s.horizon_secs).max(20.0),
        ),
        TraceShape::Sine => traces::sine(
            s.users_low,
            s.users_high,
            0.5 * s.horizon_secs,
            s.horizon_secs,
            5.0,
        ),
    }
}

fn fault_plan_for(s: &HuntScenario) -> Option<FaultPlan> {
    let mut plan = FaultPlan::none();
    if s.crash_at_secs > 0.0 {
        plan = plan.with_crash(s.crash_at_secs, s.crash_tier as usize, 0);
    }
    if s.straggler_at_secs > 0.0 {
        plan = plan.with_straggler(
            s.straggler_at_secs,
            s.straggler_tier as usize,
            0,
            s.straggler_factor,
            s.straggler_secs,
        );
    }
    plan.transient_failure_prob = s.transient_prob;
    (plan != FaultPlan::none()).then_some(plan)
}

/// The trace run a scenario's conservation, replay and league oracles
/// check, and the controller that scales it. A mesh-active scenario runs
/// `web → app → {db×fanout, svc}`: the scenario's pool sizes and tier
/// counts on the first three nodes, an optional warming cache on the
/// app→db edge, and (when `vm_mix`) an alternating small/large DB fleet
/// whose large flavor has the scenario's capacity multiplier. The audit
/// collects violations so the campaign can shrink and pin them.
fn experiment_for(s: &HuntScenario) -> (Experiment, ControllerSpec) {
    let scaling = ScalingConfig {
        up_threshold: s.up_threshold,
        down_threshold: s.down_threshold,
        down_consecutive: s.down_consecutive,
        max_servers: s.max_servers as usize,
        ..ScalingConfig::default()
    };
    let staffing = StaffingConfig {
        rho_target: s.rho_target,
        max_servers: s.max_servers as usize,
        step_limit: s.step_limit as usize,
        ..StaffingConfig::default()
    };
    let controller = match s.controller {
        ControllerKind::Ec2 => ControllerSpec::Ec2(scaling),
        ControllerKind::Dcm => ControllerSpec::Dcm {
            config: DcmConfig {
                scaling,
                headroom: s.headroom,
                ..DcmConfig::default()
            },
            models: DcmModels::reference(),
            refit: None,
        },
        ControllerKind::Mpc => ControllerSpec::Mpc {
            config: MpcConfig {
                slo_secs: s.mpc_slo_secs,
                think_time_secs: s.think_secs,
                max_servers: s.max_servers as usize,
                step_limit: s.step_limit as usize,
                scale_in_margin: s.mpc_scale_in_margin,
                ..MpcConfig::default()
            },
            models: DcmModels::reference(),
        },
        ControllerKind::Mmc => ControllerSpec::Mmc(staffing),
        ControllerKind::Hw => ControllerSpec::HoltWinters {
            staffing,
            holt: HoltConfig {
                level_alpha: s.hw_level_alpha,
                trend_beta: s.hw_trend_beta,
                ..HoltConfig::default()
            },
        },
    };

    let mut nodes = ThreeTierBuilder::new()
        .counts(s.web, s.app, s.db)
        .soft(SoftConfig::new(s.web_threads, s.app_threads, s.db_conns))
        .nodes();
    let workload = if mesh_active(s) {
        if s.vm_mix {
            let large = VmType {
                name: "hunt-large",
                capacity: s.vm_large_capacity,
                price_per_hour: VmType::SMALL.price_per_hour * s.vm_large_capacity * 1.2,
            };
            nodes[2].vm_policy = VmPolicy::cycle(vec![VmType::SMALL, large]);
        }
        nodes.push(MeshNode::new("svc", reference::tomcat(), 50));
        WorkloadShape::Dag {
            graph: TopologyGraph::from_edges(4, &[(0, 1, 1), (1, 2, s.fanout_calls), (1, 3, 1)]),
            demands: super::mesh::demands(),
            cache: (s.cache_hit > 0.0).then(|| CacheEdge {
                from: 1,
                to: 2,
                dynamics: CacheDynamics::new(s.cache_hit, s.cache_warmup),
            }),
        }
    } else {
        WorkloadShape::Rubbos
    };
    let experiment = Experiment {
        nodes,
        workload,
        trace: trace_for(s),
        think_time_secs: s.think_secs,
        fault_plan: fault_plan_for(s),
        boot_failure_prob: 0.0,
        client_retry: s.client_retry.then(RetryPolicy::default),
        request_deadline_secs: (s.deadline_secs > 0.0).then_some(s.deadline_secs),
        inter_tier_retry: s.inter_tier_retry.then(InterTierRetry::default),
        control_period: SimDuration::from_secs(15),
        horizon: SimTime::from_secs_f64(s.horizon_secs),
        seed: s.seed,
        audit: Audit::Collect,
        obs: None,
    };
    (experiment, controller)
}

fn fingerprint_run(fnv: &mut Fnv, run: &TraceRunResult) {
    let c = run.counters;
    fnv.u64(c.submitted);
    fnv.u64(c.completed);
    fnv.u64(c.rejected);
    fnv.u64(c.timed_out);
    fnv.u64(c.failed);
    fnv.u64(c.retried);
    fnv.u64(run.completions.len() as u64);
    fnv.u64(run.actions.len() as u64);
    for vs in &run.vm_seconds {
        fnv.f64(*vs);
    }
    for vc in &run.vm_cost {
        fnv.f64(*vc);
    }
}

fn check_conservation(run: &TraceRunResult) -> CheckOutcome {
    let mut fnv = Fnv::new();
    fingerprint_run(&mut fnv, run);
    let mut problems = Vec::new();
    let in_flight = run.counters.in_flight();
    if in_flight != 0 {
        problems.push(format!(
            "{in_flight} requests unaccounted for at drain ({:?})",
            run.counters
        ));
    }
    let report = run.audit.as_ref().expect("audit was requested");
    if !report.is_clean() {
        problems.push(format!("audit: {}", report.summary()));
    }
    CheckOutcome::new(fnv, &problems)
}

fn check_replay(a: &TraceRunResult, b: &TraceRunResult) -> CheckOutcome {
    let mut fnv = Fnv::new();
    fingerprint_run(&mut fnv, a);
    let mut problems = Vec::new();
    if a.counters != b.counters {
        problems.push(format!(
            "counters diverged: {:?} vs {:?}",
            a.counters, b.counters
        ));
    }
    if a.completions != b.completions {
        problems.push(format!(
            "completion logs diverged ({} vs {} entries)",
            a.completions.len(),
            b.completions.len()
        ));
    }
    if a.actions.len() != b.actions.len() {
        problems.push(format!(
            "actuation timelines diverged ({} vs {} actions)",
            a.actions.len(),
            b.actions.len()
        ));
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let costs = [
        ("vm-seconds", &a.vm_seconds, &b.vm_seconds),
        ("vm-dollars", &a.vm_cost, &b.vm_cost),
    ];
    for (what, x, y) in costs {
        if bits(x) != bits(y) {
            problems.push(format!("{what} diverged: {x:?} vs {y:?}"));
        }
    }
    CheckOutcome::new(fnv, &problems)
}

fn check_cohort(s: &HuntScenario) -> CheckOutcome {
    let nodes = ThreeTierBuilder::new()
        .counts(s.web, s.app, s.db)
        .soft(hunt_soft(s))
        .nodes();
    // Measured over the whole 20 s the users run, then drained.
    let base = SteadyRun {
        seed: s.seed,
        think: Some(Dist::exponential_mean(s.think_z.clamp(0.2, 1.0))),
        ..SteadyRun::new(
            nodes,
            s.users,
            SimDuration::ZERO,
            SimDuration::from_secs(20),
        )
    };
    let run = |cohort_size: u32| {
        let mut w = SteadyRun {
            cohort_size,
            ..base.clone()
        }
        .run(ProfileFactory::rubbos());
        w.engine.run(&mut w.world);
        (
            w.population.completion_count(),
            w.engine.executed(),
            w.world.system.counters(),
        )
    };

    let (per_user, per_user_events, _) = run(1);
    let (batched, _, batched_counters) = run(s.cohort_size);

    let mut fnv = Fnv::new();
    fnv.u64(per_user as u64);
    fnv.u64(per_user_events);
    fnv.u64(batched as u64);
    fnv.u64(batched_counters.submitted);

    let mut problems = Vec::new();
    if batched_counters.in_flight() != 0 {
        problems.push(format!(
            "cohort_size={} leaked {} in-flight requests",
            s.cohort_size,
            batched_counters.in_flight()
        ));
    }
    let a = per_user as f64;
    let b = batched as f64;
    if a > 0.0 && ((a - b).abs() / a) > COHORT_BAND {
        problems.push(format!(
            "cohort_size={} moved throughput beyond {:.0}%: {batched} vs {per_user} completions",
            s.cohort_size,
            COHORT_BAND * 100.0,
        ));
    }
    CheckOutcome::new(fnv, &problems)
}

/// The soft allocation of the steady oracles: the scenario's pools,
/// raised to floors at which every tier can serve their users.
fn hunt_soft(s: &HuntScenario) -> SoftConfig {
    SoftConfig::new(
        s.web_threads.max(200),
        s.app_threads.max(100),
        s.db_conns.max(30),
    )
}

fn check_doubling(s: &HuntScenario) -> CheckOutcome {
    // Think-limited by construction: <= 24 users at >= 1.5 s think offer
    // <= 16 req/s against >= 56 req/s of single-server app capacity.
    let users = s.users.clamp(8, 24);
    let measure = |counts: (u32, u32, u32)| {
        let run = think_time_run(
            counts,
            hunt_soft(s),
            users,
            s.seed,
            SimDuration::from_secs(30),
            SimDuration::from_secs(120),
        );
        steady_state_throughput(&SteadyRun {
            think: Some(Dist::exponential_mean(s.think_z.max(1.5))),
            audit: false,
            ..run
        })
    };
    let base = measure((s.web, s.app, s.db));
    let doubled = measure((2 * s.web, 2 * s.app, 2 * s.db));

    let mut fnv = Fnv::new();
    fnv.f64(base.throughput);
    fnv.f64(doubled.throughput);
    fnv.f64(base.mean_rt);
    fnv.f64(doubled.mean_rt);

    let violation = if base.throughput <= 0.0 {
        Some(format!(
            "no completions in the base run (users={users}, counts=({},{},{}))",
            s.web, s.app, s.db
        ))
    } else {
        let ratio = doubled.throughput / base.throughput;
        ((ratio - 1.0).abs() > DOUBLING_TOLERANCE).then(|| {
            format!(
                "doubling ({},{},{}) -> ({},{},{}) moved throughput {:.2} -> {:.2} req/s \
                 (ratio {ratio:.3}, tolerance {DOUBLING_TOLERANCE})",
                s.web,
                s.app,
                s.db,
                2 * s.web,
                2 * s.app,
                2 * s.db,
                base.throughput,
                doubled.throughput,
            )
        })
    };
    CheckOutcome {
        fingerprint: fnv.0,
        violation,
    }
}

/// The MVA oracle's population: sized so each DB station sits at the
/// scenario's target utilization (clamped to a small, fast sweep).
fn mva_population(s: &HuntScenario) -> u32 {
    let x_sat = f64::from(s.db_threads * s.db) / (s.db_demand * f64::from(s.db_visits));
    let demand_total = s.web_demand + s.app_demand + s.db_demand * f64::from(s.db_visits);
    let n = s.mva_util * x_sat * (s.think_z + demand_total);
    (n as u32).clamp(2, 48)
}

fn check_mva(s: &HuntScenario) -> CheckOutcome {
    let scenario = Scenario {
        warmup: 40.0,
        measure: 300.0,
        ..Scenario::chain(
            "hunt",
            (s.web, s.app, s.db),
            (s.web_demand, s.app_demand),
            ServiceLaw::frictionless(s.db_demand),
            s.db_threads,
            s.db_visits,
            s.think_z,
        )
    };
    let population = mva_population(s);
    let mut fnv = Fnv::new();
    fnv.u64(u64::from(population));
    let point = match run_scenario(&scenario, population, s.seed, 1) {
        Ok(point) => point,
        Err(empty) => return CheckOutcome::new(fnv, &[empty.to_string()]),
    };
    fnv.u64(point.completions);
    fnv.f64(point.throughput.des);
    // The DB's mean queue, X·R_db by Little's law.
    fnv.f64(point.throughput.des * point.residence[2].1.des);

    let mut problems = Vec::new();
    let err = point.max_rel_err();
    if err > MVA_TOLERANCE {
        problems.push(format!(
            "max relative error {err:.4} exceeds {MVA_TOLERANCE} at N={population} \
             (throughput {:.3} vs MVA {:.3})",
            point.throughput.des, point.throughput.mva
        ));
    }
    if !point.bound_ok {
        problems.push(format!(
            "throughput {:.3} violates the asymptotic bound {:.3}",
            point.throughput.des, point.throughput_bound
        ));
    }
    if point.audit_violations > 0 {
        problems.push(format!(
            "{} conservation-audit violations in the measurement window",
            point.audit_violations
        ));
    }
    CheckOutcome::new(fnv, &problems)
}

/// Per-tick net-VM-change allowance for the league oracle. The threshold
/// policies move one VM per decision; the MPC and staffing controllers
/// are configured with the scenario's step limit. A crash frees a slot
/// that the desired-capacity memory legitimately refills in the same tick
/// as a regular step, so crash scenarios get one extra.
fn league_step_allowance(s: &HuntScenario) -> i64 {
    let base = match s.controller {
        ControllerKind::Ec2 | ControllerKind::Dcm => 1,
        ControllerKind::Mpc | ControllerKind::Mmc | ControllerKind::Hw => i64::from(s.step_limit),
    };
    base + i64::from(s.crash_at_secs > 0.0)
}

fn check_league(s: &HuntScenario, run: &TraceRunResult) -> CheckOutcome {
    let mut fnv = Fnv::new();
    fingerprint_run(&mut fnv, run);
    let mut problems = Vec::new();

    // Fold the actuation log into per-tier VM counts. Crashes are not in
    // the log, so the folded count is an upper bound on live servers; a
    // crash scenario may exceed the cap by the one replacement it boots.
    let cap = i64::from(s.max_servers) + i64::from(s.crash_at_secs > 0.0);
    let allowance = league_step_allowance(s);
    let mut counts = [i64::from(s.web), i64::from(s.app), i64::from(s.db)];
    let mut tick: Option<SimTime> = None;
    let mut deltas = [0i64; 3];
    let flush = |at: Option<SimTime>, deltas: &mut [i64; 3], problems: &mut Vec<String>| {
        for (tier, d) in deltas.iter().enumerate() {
            if d.abs() > allowance {
                problems.push(format!(
                    "tier {tier} moved {d:+} VMs in one tick at t={:.0}s (allowance {allowance})",
                    at.map_or(0.0, SimTime::as_secs_f64)
                ));
            }
        }
        *deltas = [0; 3];
    };
    for rec in &run.actions {
        if tick != Some(rec.at) {
            flush(tick, &mut deltas, &mut problems);
            tick = Some(rec.at);
        }
        let moved = match rec.action {
            Action::ScaleOut { tier } if tier < 3 => Some((tier, 1)),
            Action::ScaleIn { tier } if tier < 3 => Some((tier, -1)),
            _ => None,
        };
        if let Some((tier, delta)) = moved {
            counts[tier] += delta;
            deltas[tier] += delta;
            if counts[tier] > cap {
                problems.push(format!(
                    "tier {tier} reached {} VMs (cap {cap}) at t={:.0}s",
                    counts[tier],
                    rec.at.as_secs_f64()
                ));
            }
            if counts[tier] < 1 {
                problems.push(format!(
                    "tier {tier} drained to {} servers at t={:.0}s",
                    counts[tier],
                    rec.at.as_secs_f64()
                ));
            }
        }
    }
    flush(tick, &mut deltas, &mut problems);

    CheckOutcome::new(fnv, &problems)
}

/// Runs one scenario through its oracle. A scenario whose trace run is
/// not a valid [`Experiment`] (only a hand-edited kv file can hold one)
/// is a violation naming the field.
pub fn check(s: &HuntScenario) -> CheckOutcome {
    let trace_run = || {
        let (experiment, controller) = experiment_for(s);
        experiment.run(&controller)
    };
    let outcome = match s.oracle {
        OracleKind::Conservation => trace_run().map(|run| check_conservation(&run)),
        OracleKind::Replay => trace_run().and_then(|a| Ok(check_replay(&a, &trace_run()?))),
        OracleKind::Cohort => Ok(check_cohort(s)),
        OracleKind::Doubling => Ok(check_doubling(s)),
        OracleKind::Mva => Ok(check_mva(s)),
        OracleKind::League => trace_run().map(|run| check_league(s, &run)),
    };
    outcome.unwrap_or_else(|err| CheckOutcome {
        fingerprint: 0,
        violation: Some(format!("invalid scenario: {err}")),
    })
}

/// Result of shrinking one violating scenario.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimized scenario (still violating its oracle).
    pub scenario: HuntScenario,
    /// Accepted reduction steps.
    pub steps: u32,
    /// The minimized scenario's violation detail.
    pub detail: String,
}

/// The ordered reduction candidates: disable faults and client machinery
/// first (the usual irrelevancies), then walk sizes and knobs toward their
/// floors. Each returns `None` when it would not change the scenario.
fn reductions(s: &HuntScenario) -> Vec<HuntScenario> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut HuntScenario)| {
        let mut c = s.clone();
        f(&mut c);
        if c != *s {
            out.push(c);
        }
    };
    // Mesh knobs first: a violation that survives the walk back to the
    // chain (or with the cache, mixed fleet, and fan-out stripped) is not
    // a mesh bug, and the pinned case should say so.
    push(&|c| c.mesh_coin = 1.0);
    push(&|c| c.cache_hit = 0.0);
    push(&|c| c.vm_mix = false);
    push(&|c| c.fanout_calls = 1);
    push(&|c| c.vm_large_capacity = 2.0);
    push(&|c| c.cache_warmup = 1000.0);
    push(&|c| c.transient_prob = 0.0);
    push(&|c| c.straggler_at_secs = 0.0);
    push(&|c| c.crash_at_secs = 0.0);
    push(&|c| c.client_retry = false);
    push(&|c| c.deadline_secs = 0.0);
    push(&|c| c.inter_tier_retry = false);
    push(&|c| {
        c.users_high = c.users_low + ((c.users_high - c.users_low) / 2).max(20);
    });
    push(&|c| c.users_low = (c.users_low / 2).max(5));
    push(&|c| c.horizon_secs = (c.horizon_secs / 2.0).max(60.0).round());
    push(&|c| {
        c.shape = match c.shape {
            TraceShape::Sine => TraceShape::Flash,
            TraceShape::Flash | TraceShape::Step => TraceShape::Step,
        };
    });
    push(&|c| c.controller = ControllerKind::Ec2);
    push(&|c| c.mpc_slo_secs = 1.0);
    push(&|c| c.mpc_scale_in_margin = 0.8);
    push(&|c| c.rho_target = 0.6);
    push(&|c| c.hw_level_alpha = 0.5);
    push(&|c| c.hw_trend_beta = 0.3);
    push(&|c| c.step_limit = c.step_limit.min(2));
    push(&|c| c.web = (c.web - 1).max(1));
    push(&|c| c.app = (c.app - 1).max(1));
    push(&|c| c.db = (c.db - 1).max(1));
    push(&|c| c.web_threads = (c.web_threads / 2).max(200));
    push(&|c| c.app_threads = (c.app_threads / 2).max(50));
    push(&|c| c.db_conns = (c.db_conns / 2).max(10));
    push(&|c| c.up_threshold = 0.8);
    push(&|c| c.down_threshold = 0.4);
    push(&|c| c.down_consecutive = 3);
    push(&|c| c.max_servers = (c.max_servers - 1).max(4));
    push(&|c| c.headroom = 1.0);
    push(&|c| c.users = (c.users / 2).max(8));
    push(&|c| c.cohort_size = (c.cohort_size / 2).max(2));
    push(&|c| c.think_secs = 1.0);
    push(&|c| c.think_z = 1.0);
    push(&|c| c.db_threads = (c.db_threads - 1).max(1));
    push(&|c| c.db_visits = 1);
    push(&|c| c.mva_util = 0.3);
    out
}

/// Greedy delta-debugging: repeatedly tries each reduction in order,
/// keeping any candidate that still violates the oracle, until a full
/// pass accepts nothing (or the re-run budget is exhausted).
pub fn shrink(original: &HuntScenario, detail: &str) -> ShrinkResult {
    let mut current = original.clone();
    let mut current_detail = detail.to_string();
    let mut steps = 0u32;
    let mut spent = 0u32;
    loop {
        let mut improved = false;
        for candidate in reductions(&current) {
            if spent >= SHRINK_BUDGET {
                return ShrinkResult {
                    scenario: current,
                    steps,
                    detail: current_detail,
                };
            }
            spent += 1;
            let outcome = check(&candidate);
            if let Some(d) = outcome.violation {
                current = candidate;
                current_detail = d;
                steps += 1;
                improved = true;
                break;
            }
        }
        if !improved {
            return ShrinkResult {
                scenario: current,
                steps,
                detail: current_detail,
            };
        }
    }
}

/// Fixed kv field order for [`HuntScenario::to_kv`] / [`from_kv`]. The
/// zoo and mesh fields sit at the end and default when absent, so
/// regression files pinned before either landed still parse.
const KV_FIELDS: [&str; 50] = [
    "oracle",
    "seed",
    "web",
    "app",
    "db",
    "web_threads",
    "app_threads",
    "db_conns",
    "shape",
    "users_low",
    "users_high",
    "think_secs",
    "horizon_secs",
    "crash_at_secs",
    "crash_tier",
    "straggler_at_secs",
    "straggler_tier",
    "straggler_factor",
    "straggler_secs",
    "transient_prob",
    "client_retry",
    "deadline_secs",
    "inter_tier_retry",
    "controller",
    "up_threshold",
    "down_threshold",
    "down_consecutive",
    "max_servers",
    "headroom",
    "users",
    "cohort_size",
    "think_z",
    "db_threads",
    "web_demand",
    "app_demand",
    "db_demand",
    "db_visits",
    "mva_util",
    "mpc_slo_secs",
    "mpc_scale_in_margin",
    "rho_target",
    "hw_level_alpha",
    "hw_trend_beta",
    "step_limit",
    "mesh_coin",
    "fanout_calls",
    "cache_hit",
    "cache_warmup",
    "vm_large_capacity",
    "vm_mix",
];

/// Defaults for the zoo fields when parsing pre-zoo regression files.
const KV_ZOO_DEFAULTS: (f64, f64, f64, f64, f64, u32) = (1.0, 0.8, 0.6, 0.5, 0.3, 2);

/// Defaults for the mesh fields when parsing pre-mesh regression files.
/// `mesh_coin = 1.0` keeps every pinned chain scenario on the chain.
const KV_MESH_DEFAULTS: (f64, u32, f64, f64, f64, bool) = (1.0, 2, 0.0, 1000.0, 2.0, false);

impl HuntScenario {
    /// Serializes the scenario as `key value` lines in a fixed order.
    /// Floats use Rust's shortest round-trip formatting, so
    /// [`HuntScenario::from_kv`] reconstructs bit-identical values.
    pub fn to_kv(&self) -> String {
        let mut out = String::new();
        for key in KV_FIELDS {
            let value = match key {
                "oracle" => self.oracle.label().to_string(),
                "seed" => self.seed.to_string(),
                "web" => self.web.to_string(),
                "app" => self.app.to_string(),
                "db" => self.db.to_string(),
                "web_threads" => self.web_threads.to_string(),
                "app_threads" => self.app_threads.to_string(),
                "db_conns" => self.db_conns.to_string(),
                "shape" => self.shape.label().to_string(),
                "users_low" => self.users_low.to_string(),
                "users_high" => self.users_high.to_string(),
                "think_secs" => self.think_secs.to_string(),
                "horizon_secs" => self.horizon_secs.to_string(),
                "crash_at_secs" => self.crash_at_secs.to_string(),
                "crash_tier" => self.crash_tier.to_string(),
                "straggler_at_secs" => self.straggler_at_secs.to_string(),
                "straggler_tier" => self.straggler_tier.to_string(),
                "straggler_factor" => self.straggler_factor.to_string(),
                "straggler_secs" => self.straggler_secs.to_string(),
                "transient_prob" => self.transient_prob.to_string(),
                "client_retry" => self.client_retry.to_string(),
                "deadline_secs" => self.deadline_secs.to_string(),
                "inter_tier_retry" => self.inter_tier_retry.to_string(),
                "controller" => self.controller.label().to_string(),
                "up_threshold" => self.up_threshold.to_string(),
                "down_threshold" => self.down_threshold.to_string(),
                "down_consecutive" => self.down_consecutive.to_string(),
                "max_servers" => self.max_servers.to_string(),
                "headroom" => self.headroom.to_string(),
                "users" => self.users.to_string(),
                "cohort_size" => self.cohort_size.to_string(),
                "think_z" => self.think_z.to_string(),
                "db_threads" => self.db_threads.to_string(),
                "web_demand" => self.web_demand.to_string(),
                "app_demand" => self.app_demand.to_string(),
                "db_demand" => self.db_demand.to_string(),
                "db_visits" => self.db_visits.to_string(),
                "mva_util" => self.mva_util.to_string(),
                "mpc_slo_secs" => self.mpc_slo_secs.to_string(),
                "mpc_scale_in_margin" => self.mpc_scale_in_margin.to_string(),
                "rho_target" => self.rho_target.to_string(),
                "hw_level_alpha" => self.hw_level_alpha.to_string(),
                "hw_trend_beta" => self.hw_trend_beta.to_string(),
                "step_limit" => self.step_limit.to_string(),
                "mesh_coin" => self.mesh_coin.to_string(),
                "fanout_calls" => self.fanout_calls.to_string(),
                "cache_hit" => self.cache_hit.to_string(),
                "cache_warmup" => self.cache_warmup.to_string(),
                "vm_large_capacity" => self.vm_large_capacity.to_string(),
                "vm_mix" => self.vm_mix.to_string(),
                _ => unreachable!("field list is exhaustive"),
            };
            let _ = writeln!(out, "{key} {value}");
        }
        out
    }

    /// Parses the kv format written by [`HuntScenario::to_kv`]. Lines
    /// starting with `#` and blank lines are ignored; every field must be
    /// present exactly once.
    pub fn from_kv(text: &str) -> Result<HuntScenario, String> {
        let mut map: BTreeMap<&str, &str> = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed line {line:?}"))?;
            if map.insert(key, value.trim()).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
        }
        let get = |key: &str| -> Result<&str, String> {
            map.get(key)
                .copied()
                .ok_or_else(|| format!("missing key {key:?}"))
        };
        let get_u32 = |key: &str| -> Result<u32, String> {
            get(key)?
                .parse::<u32>()
                .map_err(|e| format!("bad u32 for {key:?}: {e}"))
        };
        let get_u64 = |key: &str| -> Result<u64, String> {
            get(key)?
                .parse::<u64>()
                .map_err(|e| format!("bad u64 for {key:?}: {e}"))
        };
        let get_f64 = |key: &str| -> Result<f64, String> {
            get(key)?
                .parse::<f64>()
                .map_err(|e| format!("bad f64 for {key:?}: {e}"))
        };
        let get_bool = |key: &str| -> Result<bool, String> {
            get(key)?
                .parse::<bool>()
                .map_err(|e| format!("bad bool for {key:?}: {e}"))
        };
        let get_f64_or = |key: &str, default: f64| -> Result<f64, String> {
            match map.get(key) {
                None => Ok(default),
                Some(v) => v
                    .parse::<f64>()
                    .map_err(|e| format!("bad f64 for {key:?}: {e}")),
            }
        };
        let get_u32_or = |key: &str, default: u32| -> Result<u32, String> {
            match map.get(key) {
                None => Ok(default),
                Some(v) => v
                    .parse::<u32>()
                    .map_err(|e| format!("bad u32 for {key:?}: {e}")),
            }
        };
        let get_bool_or = |key: &str, default: bool| -> Result<bool, String> {
            match map.get(key) {
                None => Ok(default),
                Some(v) => v
                    .parse::<bool>()
                    .map_err(|e| format!("bad bool for {key:?}: {e}")),
            }
        };
        let (d_slo, d_margin, d_rho, d_alpha, d_beta, d_step) = KV_ZOO_DEFAULTS;
        let (d_coin, d_fanout, d_hit, d_warm, d_cap, d_mix) = KV_MESH_DEFAULTS;
        let scenario = HuntScenario {
            oracle: OracleKind::parse(get("oracle")?)?,
            seed: get_u64("seed")?,
            web: get_u32("web")?,
            app: get_u32("app")?,
            db: get_u32("db")?,
            web_threads: get_u32("web_threads")?,
            app_threads: get_u32("app_threads")?,
            db_conns: get_u32("db_conns")?,
            shape: TraceShape::parse(get("shape")?)?,
            users_low: get_u32("users_low")?,
            users_high: get_u32("users_high")?,
            think_secs: get_f64("think_secs")?,
            horizon_secs: get_f64("horizon_secs")?,
            crash_at_secs: get_f64("crash_at_secs")?,
            crash_tier: get_u32("crash_tier")?,
            straggler_at_secs: get_f64("straggler_at_secs")?,
            straggler_tier: get_u32("straggler_tier")?,
            straggler_factor: get_f64("straggler_factor")?,
            straggler_secs: get_f64("straggler_secs")?,
            transient_prob: get_f64("transient_prob")?,
            client_retry: get_bool("client_retry")?,
            deadline_secs: get_f64("deadline_secs")?,
            inter_tier_retry: get_bool("inter_tier_retry")?,
            controller: ControllerKind::parse(get("controller")?)?,
            up_threshold: get_f64("up_threshold")?,
            down_threshold: get_f64("down_threshold")?,
            down_consecutive: get_u32("down_consecutive")?,
            max_servers: get_u32("max_servers")?,
            headroom: get_f64("headroom")?,
            users: get_u32("users")?,
            cohort_size: get_u32("cohort_size")?,
            think_z: get_f64("think_z")?,
            db_threads: get_u32("db_threads")?,
            web_demand: get_f64("web_demand")?,
            app_demand: get_f64("app_demand")?,
            db_demand: get_f64("db_demand")?,
            db_visits: get_u32("db_visits")?,
            mva_util: get_f64("mva_util")?,
            mpc_slo_secs: get_f64_or("mpc_slo_secs", d_slo)?,
            mpc_scale_in_margin: get_f64_or("mpc_scale_in_margin", d_margin)?,
            rho_target: get_f64_or("rho_target", d_rho)?,
            hw_level_alpha: get_f64_or("hw_level_alpha", d_alpha)?,
            hw_trend_beta: get_f64_or("hw_trend_beta", d_beta)?,
            step_limit: get_u32_or("step_limit", d_step)?,
            mesh_coin: get_f64_or("mesh_coin", d_coin)?,
            fanout_calls: get_u32_or("fanout_calls", d_fanout)?,
            cache_hit: get_f64_or("cache_hit", d_hit)?,
            cache_warmup: get_f64_or("cache_warmup", d_warm)?,
            vm_large_capacity: get_f64_or("vm_large_capacity", d_cap)?,
            vm_mix: get_bool_or("vm_mix", d_mix)?,
        };
        scenario.check_domain()?;
        Ok(scenario)
    }

    /// Rejects, naming the key, a value outside the domain the oracles run
    /// in: a zero count or pool size; a horizon, think time, demand or
    /// multiplier that is not finite and positive; a probability outside
    /// `[0, 1]`; or a smoothing factor outside `(0, 1]`.
    fn check_domain(&self) -> Result<(), String> {
        let counts = [
            ("web", self.web),
            ("app", self.app),
            ("db", self.db),
            ("web_threads", self.web_threads),
            ("app_threads", self.app_threads),
            ("db_conns", self.db_conns),
            ("db_threads", self.db_threads),
            ("db_visits", self.db_visits),
            ("users", self.users),
            ("cohort_size", self.cohort_size),
            ("max_servers", self.max_servers),
            ("fanout_calls", self.fanout_calls),
        ];
        if let Some((key, _)) = counts.iter().find(|(_, v)| *v == 0) {
            return Err(format!("{key:?} must be positive, got 0"));
        }
        let positive = [
            ("horizon_secs", self.horizon_secs),
            ("think_secs", self.think_secs),
            ("think_z", self.think_z),
            ("web_demand", self.web_demand),
            ("app_demand", self.app_demand),
            ("db_demand", self.db_demand),
            ("straggler_factor", self.straggler_factor),
            ("headroom", self.headroom),
            ("vm_large_capacity", self.vm_large_capacity),
        ];
        if let Some((key, v)) = positive.iter().find(|(_, v)| !(v.is_finite() && *v > 0.0)) {
            return Err(format!("{key:?} must be finite and positive, got {v}"));
        }
        let probabilities = [
            ("transient_prob", self.transient_prob),
            ("cache_hit", self.cache_hit),
            ("mesh_coin", self.mesh_coin),
            ("mva_util", self.mva_util),
        ];
        if let Some((key, v)) = probabilities.iter().find(|(_, v)| !(0.0..=1.0).contains(v)) {
            return Err(format!("{key:?} must lie in [0, 1], got {v}"));
        }
        let smoothing = [
            ("hw_level_alpha", self.hw_level_alpha),
            ("hw_trend_beta", self.hw_trend_beta),
        ];
        if let Some((key, v)) = smoothing.iter().find(|(_, v)| !(*v > 0.0 && *v <= 1.0)) {
            return Err(format!("{key:?} must lie in (0, 1], got {v}"));
        }
        Ok(())
    }

    /// The canonical regression filename for this scenario.
    pub fn regression_filename(&self) -> String {
        format!("hunt_{}_{}.txt", self.oracle.label(), self.seed)
    }
}

/// One confirmed violation, with its minimized form.
#[derive(Debug, Clone)]
pub struct HuntFinding {
    /// Campaign index of the violating scenario.
    pub index: u64,
    /// The oracle that rejected it.
    pub oracle: OracleKind,
    /// The minimized scenario's violation detail.
    pub detail: String,
    /// The scenario as generated.
    pub original: HuntScenario,
    /// The shrunk scenario (still violating).
    pub minimized: HuntScenario,
    /// Accepted shrink steps.
    pub shrink_steps: u32,
}

/// A whole campaign's results.
#[derive(Debug, Clone)]
pub struct Hunt {
    /// Scenarios checked.
    pub budget: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Order-sensitive FNV digest over every run's fingerprint; CI
    /// byte-compares it (inside `results/hunt.json`) across `--jobs`.
    pub digest: u64,
    /// Scenarios checked per oracle.
    pub oracle_counts: BTreeMap<&'static str, u64>,
    /// Confirmed violations, shrunk and ready to pin.
    pub violations: Vec<HuntFinding>,
    /// The failure journal (why each violating run failed).
    pub log: FailureLog,
}

/// Runs a `budget`-scenario campaign rooted at `seed`. Checks fan out
/// through the deterministic runner; everything order-sensitive (digest,
/// shrinking, the failure journal) happens sequentially in campaign-index
/// order afterwards, so results are identical for every `--jobs` value.
pub fn run_hunt(budget: u64, seed: u64) -> Hunt {
    let scenarios: Vec<(u64, HuntScenario)> = (0..budget).map(|i| (i, generate(seed, i))).collect();
    let outcomes = dcm_sim::runner::run_ordered(scenarios.clone(), |(_, s)| check(&s));

    let mut digest = Fnv::new();
    let mut oracle_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for kind in OracleKind::all() {
        oracle_counts.insert(kind.label(), 0);
    }
    let mut log = FailureLog::new();
    let mut violations = Vec::new();
    for ((index, scenario), outcome) in scenarios.into_iter().zip(outcomes) {
        digest.u64(index);
        digest.u64(outcome.fingerprint);
        *oracle_counts.entry(scenario.oracle.label()).or_insert(0) += 1;
        if let Some(detail) = outcome.violation {
            log.record(index, scenario.oracle.label(), &detail);
            let shrunk = shrink(&scenario, &detail);
            violations.push(HuntFinding {
                index,
                oracle: scenario.oracle,
                detail: shrunk.detail,
                original: scenario,
                minimized: shrunk.scenario,
                shrink_steps: shrunk.steps,
            });
        }
    }
    Hunt {
        budget,
        seed,
        digest: digest.0,
        oracle_counts,
        violations,
        log,
    }
}

impl Hunt {
    /// True when no oracle rejected any scenario.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Per-oracle campaign summary.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["oracle", "scenarios", "violations"]);
        for (oracle, count) in &self.oracle_counts {
            let bad = self
                .violations
                .iter()
                .filter(|v| v.oracle.label() == *oracle)
                .count();
            t.row([(*oracle).to_string(), count.to_string(), bad.to_string()]);
        }
        t
    }

    /// Human-readable campaign findings.
    pub fn findings(&self) -> Vec<String> {
        let mut out = vec![format!(
            "campaign: {} scenarios from seed {} across {} oracles, digest {:016x}",
            self.budget,
            self.seed,
            self.oracle_counts.len(),
            self.digest
        )];
        if self.passed() {
            out.push("no oracle rejected any scenario".to_string());
        } else {
            for v in &self.violations {
                out.push(format!(
                    "scenario {} violated {} (shrunk {} steps): {}",
                    v.index,
                    v.oracle.label(),
                    v.shrink_steps,
                    v.detail
                ));
            }
        }
        out
    }

    /// Stable JSON for `results/hunt.json`. Virtual quantities only — CI
    /// byte-compares this file across `--jobs 1` and `--jobs 4`.
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"budget\": {},", self.budget);
        let _ = writeln!(json, "  \"seed\": {},", self.seed);
        let _ = writeln!(json, "  \"digest\": \"{:016x}\",", self.digest);
        json.push_str("  \"oracles\": {\n");
        for (i, (oracle, count)) in self.oracle_counts.iter().enumerate() {
            let comma = if i + 1 < self.oracle_counts.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(json, "    \"{oracle}\": {count}{comma}");
        }
        json.push_str("  },\n");
        json.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str("\n    {\n");
            let _ = writeln!(json, "      \"index\": {},", v.index);
            let _ = writeln!(json, "      \"oracle\": \"{}\",", v.oracle.label());
            let _ = writeln!(json, "      \"shrink_steps\": {},", v.shrink_steps);
            let _ = writeln!(json, "      \"detail\": \"{}\",", json_escape(&v.detail));
            let _ = writeln!(
                json,
                "      \"minimized\": \"{}\"",
                json_escape(&v.minimized.to_kv())
            );
            json.push_str("    }");
        }
        if !self.violations.is_empty() {
            json.push_str("\n  ");
        }
        json.push_str("],\n");
        let _ = writeln!(json, "  \"failures\": {},", self.log.to_json_array());
        let _ = writeln!(json, "  \"passed\": {}", self.passed());
        json.push_str("}\n");
        json
    }

    /// Writes each minimized violation as a self-contained regression
    /// case under `dir` (created if missing). Returns the paths written.
    pub fn write_regressions(
        &self,
        dir: &std::path::Path,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        let mut written = Vec::new();
        if self.violations.is_empty() {
            return Ok(written);
        }
        std::fs::create_dir_all(dir)?;
        for v in &self.violations {
            let path = dir.join(v.minimized.regression_filename());
            let mut body = String::new();
            let _ = writeln!(
                body,
                "# pinned by `repro hunt` (campaign seed {})",
                self.seed
            );
            let _ = writeln!(body, "# campaign index {}", v.index);
            let _ = writeln!(body, "# violated {}: {}", v.oracle.label(), v.detail);
            body.push_str(&v.minimized.to_kv());
            std::fs::write(&path, body)?;
            written.push(path);
        }
        Ok(written)
    }
}

/// Minimal JSON string escaping for campaign details and kv payloads.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_seed_and_index() {
        for i in 0..40 {
            let a = generate(SEED, i);
            let b = generate(SEED, i);
            assert_eq!(a, b, "index {i} not deterministic");
            assert!(a.users_high > a.users_low);
            assert!(a.down_threshold < a.up_threshold);
            assert!(a.horizon_secs >= 60.0 && a.horizon_secs <= 120.0);
        }
        // Different indices actually explore the space.
        assert_ne!(generate(SEED, 0).seed, generate(SEED, 1).seed);
    }

    #[test]
    fn kv_round_trips_bit_identically() {
        for i in 0..10 {
            let s = generate(SEED, i);
            let parsed = HuntScenario::from_kv(&s.to_kv()).expect("round trip");
            assert_eq!(s, parsed, "kv round trip diverged at index {i}");
        }
        assert!(HuntScenario::from_kv("oracle mva\n").is_err());
        assert!(HuntScenario::from_kv("garbage").is_err());
    }

    #[test]
    fn mva_oracle_reports_an_empty_window_as_a_violation() {
        // A think time of 10^6 s is finite and positive, so the kv parser
        // accepts it; every user then submits once at time zero and thinks
        // past the whole run, leaving the measurement window empty. The
        // oracle must say so instead of panicking.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/regressions/hunt_mva_7165920320026392122.txt"
        );
        let pinned = std::fs::read_to_string(path).expect("pinned regression readable");
        let text = pinned.replace("\nthink_z 1\n", "\nthink_z 1000000\n");
        assert_ne!(text, pinned, "the probe sets think_z");
        let scenario = HuntScenario::from_kv(&text).expect("the kv file parses");
        assert_eq!(scenario.oracle, OracleKind::Mva);
        let violation = check(&scenario)
            .violation
            .expect("an empty window is a violation");
        assert!(
            violation
                .contains("no request both arrived and completed inside the measurement window"),
            "{violation}"
        );
    }

    #[test]
    fn out_of_domain_kv_values_are_errors_naming_the_key() {
        // Each probe replaces one line of a pinned regression with an
        // out-of-domain value, which must fail to parse, naming its key.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/regressions/hunt_mva_7165920320026392122.txt"
        );
        let pinned = std::fs::read_to_string(path).expect("pinned regression readable");
        assert!(HuntScenario::from_kv(&pinned).is_ok());
        let probes = [
            ("web", "0"),
            ("db", "0"),
            ("db_threads", "0"),
            ("db_demand", "-1"),
            ("horizon_secs", "-5"),
            ("horizon_secs", "NaN"),
            ("think_secs", "-1"),
            ("transient_prob", "2"),
            ("db_visits", "0"),
        ];
        for (key, value) in probes {
            let probe: String = pinned
                .lines()
                .map(|line| match line.split_once(' ') {
                    Some((k, _)) if k == key => format!("{key} {value}\n"),
                    _ => format!("{line}\n"),
                })
                .collect();
            let err = HuntScenario::from_kv(&probe)
                .expect_err(&format!("{key} {value} must be rejected"));
            assert!(err.contains(&format!("{key:?}")), "{key} {value}: {err}");
        }
    }

    #[test]
    fn small_campaign_is_deterministic_and_clean() {
        let a = run_hunt(6, SEED);
        let b = run_hunt(6, SEED);
        assert_eq!(a.to_json(), b.to_json(), "campaign is not deterministic");
        assert!(
            a.passed(),
            "campaign found violations:\n{}",
            a.log.render_text()
        );
        assert_eq!(a.oracle_counts.values().sum::<u64>(), 6);
        assert_eq!(a.table().len(), 6);
        // The sixth scenario is the first league check.
        assert_eq!(generate(SEED, 5).oracle, OracleKind::League);
    }

    #[test]
    fn zoo_fields_default_when_absent_from_kv() {
        // A pre-zoo kv payload: serialize a scenario, drop the zoo lines,
        // and parse — the zoo knobs must come back as the documented
        // defaults while everything else round-trips.
        let s = generate(SEED, 7);
        let pre_zoo: String = s
            .to_kv()
            .lines()
            .filter(|l| {
                let key = l.split(' ').next().unwrap_or("");
                !matches!(
                    key,
                    "mpc_slo_secs"
                        | "mpc_scale_in_margin"
                        | "rho_target"
                        | "hw_level_alpha"
                        | "hw_trend_beta"
                        | "step_limit"
                )
            })
            .map(|l| format!("{l}\n"))
            .collect();
        let parsed = HuntScenario::from_kv(&pre_zoo).expect("pre-zoo kv parses");
        let (d_slo, d_margin, d_rho, d_alpha, d_beta, d_step) = KV_ZOO_DEFAULTS;
        assert_eq!(parsed.mpc_slo_secs, d_slo);
        assert_eq!(parsed.mpc_scale_in_margin, d_margin);
        assert_eq!(parsed.rho_target, d_rho);
        assert_eq!(parsed.hw_level_alpha, d_alpha);
        assert_eq!(parsed.hw_trend_beta, d_beta);
        assert_eq!(parsed.step_limit, d_step);
        assert_eq!(parsed.seed, s.seed);
        assert_eq!(parsed.controller, s.controller);
    }

    #[test]
    fn mesh_fields_default_when_absent_from_kv() {
        // A pre-mesh kv payload must parse with the mesh coin inactive, so
        // every pinned chain regression keeps replaying on the chain.
        let s = generate(SEED, 11);
        let pre_mesh: String = s
            .to_kv()
            .lines()
            .filter(|l| {
                let key = l.split(' ').next().unwrap_or("");
                !matches!(
                    key,
                    "mesh_coin"
                        | "fanout_calls"
                        | "cache_hit"
                        | "cache_warmup"
                        | "vm_large_capacity"
                        | "vm_mix"
                )
            })
            .map(|l| format!("{l}\n"))
            .collect();
        let parsed = HuntScenario::from_kv(&pre_mesh).expect("pre-mesh kv parses");
        let (d_coin, d_fanout, d_hit, d_warm, d_cap, d_mix) = KV_MESH_DEFAULTS;
        assert_eq!(parsed.mesh_coin, d_coin);
        assert!(!mesh_active(&parsed));
        assert_eq!(parsed.fanout_calls, d_fanout);
        assert_eq!(parsed.cache_hit, d_hit);
        assert_eq!(parsed.cache_warmup, d_warm);
        assert_eq!(parsed.vm_large_capacity, d_cap);
        assert_eq!(parsed.vm_mix, d_mix);
        assert_eq!(parsed.seed, s.seed);
    }

    #[test]
    fn mesh_active_scenario_drives_the_dag_world_cleanly() {
        // Force a conservation-oracle scenario onto the mesh with the
        // cache and the mixed fleet both on: the audit (per-edge flow
        // balance included) and the in-flight accounting must stay clean,
        // and replaying it must be bit-identical.
        let mut s = generate(SEED, 0);
        assert_eq!(s.oracle, OracleKind::Conservation);
        s.mesh_coin = 0.0;
        s.fanout_calls = 2;
        s.cache_hit = 0.5;
        s.cache_warmup = 300.0;
        s.vm_mix = true;
        s.vm_large_capacity = 2.0;
        s.horizon_secs = 60.0;
        assert!(mesh_active(&s));
        let outcome = check(&s);
        assert!(
            outcome.violation.is_none(),
            "mesh conservation flagged: {:?}",
            outcome.violation
        );
        s.oracle = OracleKind::Replay;
        let outcome = check(&s);
        assert!(
            outcome.violation.is_none(),
            "mesh replay flagged: {:?}",
            outcome.violation
        );
    }

    #[test]
    fn league_oracle_rejects_cap_and_step_breaches() {
        // Drive the checker's folding logic through a scenario whose
        // controller is known to respect its limits (a clean pass), then
        // assert the allowance arithmetic flags the crash headroom.
        let mut s = generate(SEED, 5);
        assert_eq!(s.oracle, OracleKind::League);
        let outcome = check(&s);
        assert!(
            outcome.violation.is_none(),
            "clean controller flagged: {:?}",
            outcome.violation
        );
        // Crash scenarios get exactly one extra step and one cap slot.
        let without_crash = {
            s.crash_at_secs = 0.0;
            league_step_allowance(&s)
        };
        s.crash_at_secs = 30.0;
        assert_eq!(league_step_allowance(&s), without_crash + 1);
    }

    #[test]
    fn shrinker_reaches_a_violating_fixed_point() {
        // A synthetic violation: doubling tolerance can't hold if the base
        // run produces nothing, which a zero-user clamp can't trigger, so
        // instead pin a scenario class we can force — the MVA oracle with
        // an absurd tolerance is not forceable either, so exercise the
        // machinery directly: shrink a clean scenario's *reductions* list.
        let s = generate(SEED, 3); // index 3 -> doubling oracle
        assert_eq!(s.oracle, OracleKind::Doubling);
        let candidates = reductions(&s);
        assert!(!candidates.is_empty());
        for c in &candidates {
            assert_ne!(c, &s, "reductions must change the scenario");
            assert_eq!(c.oracle, s.oracle, "reductions must preserve the oracle");
        }
    }
}
