//! The baseline-controller zoo for the league: queueing-theoretic
//! threshold staffing and Holt-trend predictive staffing, both behind the
//! same [`Controller`] trait as DCM, EC2-AutoScale, and the MPC.
//!
//! * [`ThresholdMmc`] — an M/M/c-style sizer: the utilization law gives
//!   each tier's offered work `λ·S = U·k` (busy-server equivalents); the
//!   tier is staffed to `c = ⌈U·k / ρ_target⌉` so per-server utilization
//!   settles at the target. This is the "compute the right size directly"
//!   school of threshold scaling (cf. arXiv:1702.01443) as opposed to the
//!   increment/decrement school of EC2-AutoScale.
//! * [`HoltWinters`] — the same staffing rule driven by a Holt linear
//!   trend *forecast* of each tier's utilization (one boot delay ahead),
//!   reusing [`HoltTrend`](crate::predictor::HoltTrend); the smoother
//!   restarts on any server-count change because per-server utilization
//!   shifts discontinuously across scale events.
//!
//! Both run on the [control core](crate::control): a wedged tier is staffed
//! one server up, and the rule's last target is remembered, so a tier that
//! lost a VM is re-staffed to it on the next tick.

use std::cell::RefCell;
use std::rc::Rc;

use dcm_ntier::world::{SimEngine, World};
use dcm_obs::journal::DecisionJournal;

use crate::agents::ActionRecord;
use crate::control::{ControlCore, TierClass, TierView, MONITOR_SILENT, SILENT_TICKS_FOR_PRESSURE};
use crate::controller::Controller;
use crate::monitor::MetricsBus;
use crate::predictor::{HoltConfig, TierTrends};

/// Shared configuration for the staffing-rule controllers.
#[derive(Debug, Clone, PartialEq)]
pub struct StaffingConfig {
    /// Per-server utilization the staffing rule aims for (the M/M/c
    /// `ρ = λ/(c·μ)` operating point).
    pub rho_target: f64,
    /// Tiers the controller may scale.
    pub scalable_tiers: Vec<usize>,
    /// Never scale a tier below this many servers.
    pub min_servers: usize,
    /// Never scale a tier above this many servers.
    pub max_servers: usize,
    /// Largest net VM change per tier per tick.
    pub step_limit: usize,
}

impl Default for StaffingConfig {
    fn default() -> Self {
        StaffingConfig {
            rho_target: 0.6,
            scalable_tiers: vec![1, 2],
            min_servers: 1,
            max_servers: 8,
            step_limit: 2,
        }
    }
}

impl StaffingConfig {
    fn core(&self, bus: MetricsBus, name: &'static str) -> ControlCore {
        let servers = (self.min_servers, self.max_servers);
        ControlCore::new(bus, name, &self.scalable_tiers, servers)
    }
}

/// The staffing rule both controllers plan with. A reporting tier is
/// staffed to `⌈pressure·k / ρ_target⌉` servers and a wedged one to one
/// more than it has; when the tier lost capacity since the last target, the
/// larger of the two wins. The move is step-limited and its target
/// remembered. Monitor-silent and waiting tiers hold.
fn staff(
    core: &mut ControlCore,
    config: &StaffingConfig,
    world: &mut World,
    engine: &mut SimEngine,
    views: &[TierView],
) {
    let (lo, hi) = (config.min_servers, config.max_servers);
    for view in views {
        let (tier, have) = (view.tier, view.capacity());
        let staffing = match view.class {
            TierClass::MonitorSilent => {
                core.decide("hold", tier, None, false, MONITOR_SILENT);
                continue;
            }
            TierClass::Waiting(streak) => {
                let reason = format!(
                    "tier silent {streak}/{SILENT_TICKS_FOR_PRESSURE} period(s); \
                     waiting before treating as wedged"
                );
                core.decide("hold", tier, None, false, reason);
                continue;
            }
            TierClass::Wedged => (have + 1).clamp(lo, hi),
            TierClass::Reporting => {
                // Busy-server equivalents over the target operating point.
                let busy = view.pressure * view.running.max(1) as f64;
                ((busy / config.rho_target.max(1e-6)).ceil() as usize).clamp(lo, hi)
            }
        };
        let remembered = core.remembered(tier).unwrap_or(have);
        let target = if have < remembered {
            staffing.max(remembered)
        } else {
            staffing
        };
        let step = config.step_limit;
        let bounded = target.clamp(have.saturating_sub(step), have + step);
        core.remember(tier, bounded);
        let reason = format!(
            "staffing rule wants {target} server(s) (have {have}, rho_target {:.2})",
            config.rho_target
        );
        let (_, now) = core.drive(world, engine, tier, bounded, Some(&reason));
        if now == have && have == bounded {
            let reason = format!("staffing rule satisfied at {bounded} server(s)");
            core.decide("hold", tier, Some(bounded as u32), false, reason);
        }
    }
}

/// Queueing-theoretic threshold scaler: staffs each tier to
/// `⌈U·k / ρ_target⌉` servers from the measured utilization.
pub struct ThresholdMmc {
    core: ControlCore,
    config: StaffingConfig,
}

impl std::fmt::Debug for ThresholdMmc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThresholdMmc")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ThresholdMmc {
    /// Creates the staffing controller reading from `bus`.
    pub fn new(bus: MetricsBus, config: StaffingConfig) -> Self {
        ThresholdMmc {
            core: config.core(bus, "MMC-Threshold"),
            config,
        }
    }
}

impl Controller for ThresholdMmc {
    fn on_tick(&mut self, world: &mut World, engine: &mut SimEngine) {
        let windows = self.core.poll();
        let views = self.core.observe(world, &windows, |_, w| {
            (w.mean_cpu_util, "cpu-util".to_string())
        });
        staff(&mut self.core, &self.config, world, engine, &views);
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

/// Predictive staffing: the M/M/c rule driven by a Holt-trend utilization
/// forecast one boot delay ahead, so capacity is ready when a steady ramp
/// arrives instead of 15 s late.
pub struct HoltWinters {
    core: ControlCore,
    config: StaffingConfig,
    trends: TierTrends,
}

impl std::fmt::Debug for HoltWinters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HoltWinters")
            .field("config", &self.config)
            .field("trends", &self.trends)
            .finish_non_exhaustive()
    }
}

impl HoltWinters {
    /// Creates the predictive controller reading from `bus`.
    pub fn new(bus: MetricsBus, config: StaffingConfig, holt: HoltConfig) -> Self {
        HoltWinters {
            core: config.core(bus, "Holt-Winters"),
            config,
            trends: TierTrends::new(holt),
        }
    }

    /// Observation count of a tier's smoother (tests/diagnostics).
    pub fn trend_observations(&self, tier: usize) -> Option<u64> {
        self.trends.observations(tier)
    }
}

impl Controller for HoltWinters {
    fn on_tick(&mut self, world: &mut World, engine: &mut SimEngine) {
        let windows = self.core.poll();
        self.trends
            .restart_changed(world, &self.config.scalable_tiers);
        let trends = &mut self.trends;
        let views = self.core.observe(world, &windows, |tier, w| {
            (
                trends.forecast(tier, w.mean_cpu_util),
                "holt-forecast".to_string(),
            )
        });
        staff(&mut self.core, &self.config, world, engine, &views);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::tests::{check, Rule};
    use crate::monitor::{new_metrics_bus, METRICS_TOPIC};
    use dcm_ntier::flow;
    use dcm_ntier::metrics::ServerSample;
    use dcm_ntier::topology::ThreeTierBuilder;
    use dcm_sim::time::SimTime;

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

    #[test]
    fn mmc_staffs_to_the_utilization_law() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut mmc = ThresholdMmc::new(Rc::clone(&bus), StaffingConfig::default());
        // One app server at 95 %: the rule wants ceil(0.95/0.6) = 2.
        produce(&bus, 1_000, sample("web-1", 0, 0.3));
        produce(&bus, 1_000, sample("app-1", 1, 0.95));
        produce(&bus, 1_000, sample("db-1", 2, 0.3));
        mmc.on_tick(&mut world, &mut engine);
        assert_eq!(world.system.booting_count(1), 1);
        assert_eq!(mmc.name(), "MMC-Threshold");
    }

    #[test]
    fn mmc_respects_step_limit() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut mmc = ThresholdMmc::new(
            Rc::clone(&bus),
            StaffingConfig {
                rho_target: 0.1,
                step_limit: 2,
                ..StaffingConfig::default()
            },
        );
        // The rule wants ceil(0.9/0.1) = 9 → capped at max 8, step-limited
        // to +2 this tick.
        produce(&bus, 1_000, sample("app-1", 1, 0.9));
        mmc.on_tick(&mut world, &mut engine);
        assert_eq!(
            world.system.booting_count(1),
            2,
            "net change per tick is step-limited"
        );
    }

    #[test]
    fn mmc_reprovisions_dead_silent_tier() {
        check("MMC-Threshold", Rule::DeadTier);
    }

    #[test]
    fn mmc_replaces_crashed_vm_from_memory() {
        check("MMC-Threshold", Rule::LostCapacity);
    }

    #[test]
    fn holt_forecast_leads_a_ramp() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut hw = HoltWinters::new(
            Rc::clone(&bus),
            StaffingConfig::default(),
            HoltConfig {
                level_alpha: 0.8,
                trend_beta: 0.5,
                horizon_periods: 3.0,
            },
        );
        // Steady ramp 0.30 → 0.54; the forecast crosses the staffing
        // boundary before the measurement does.
        for k in 0..7u64 {
            let cpu = 0.30 + 0.04 * k as f64;
            produce(&bus, (k + 1) * 1_000, sample("web-1", 0, 0.3));
            produce(&bus, (k + 1) * 1_000, sample("app-1", 1, cpu));
            produce(&bus, (k + 1) * 1_000, sample("db-1", 2, 0.3));
            hw.on_tick(&mut world, &mut engine);
            if world.system.booting_count(1) > 0 {
                break;
            }
        }
        assert_eq!(
            world.system.booting_count(1),
            1,
            "the forecast must trigger before util 0.6·2 = 1.2 servers of work"
        );
        // Measured utilization never reached the boundary on its own:
        // 0.54/0.6 = 0.9 busy-server equivalents staffs just 1 server.
    }

    /// The Holt smoother restarts on scale events (PR-2 blind spot: a
    /// stale trend across a capacity change forecasts phantoms).
    #[test]
    fn holt_trend_resets_on_scale_event() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut hw = HoltWinters::new(
            Rc::clone(&bus),
            StaffingConfig::default(),
            HoltConfig::default(),
        );
        for k in 0..3u64 {
            produce(&bus, (k + 1) * 1_000, sample("app-1", 1, 0.4));
            hw.on_tick(&mut world, &mut engine);
        }
        assert_eq!(hw.trend_observations(1), Some(3));
        flow::provision_server(&mut world, &mut engine, 1).unwrap();
        produce(&bus, 5_000, sample("app-1", 1, 0.4));
        hw.on_tick(&mut world, &mut engine);
        assert_eq!(
            hw.trend_observations(1),
            Some(1),
            "stale trend must not survive a scale event"
        );
    }

    #[test]
    fn empty_poll_holds_everything() {
        check("MMC-Threshold", Rule::MonitorSilent);
        check("Holt-Winters", Rule::MonitorSilent);
    }
}
