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
//!   reusing [`HoltTrend`]; the smoother restarts on any server-count
//!   change because per-server utilization shifts discontinuously across
//!   scale events.
//!
//! Both close the PR-2 failure blind spots: a tier gone silent while the
//! system reports is wedged after [`SILENT_TICKS_FOR_PRESSURE`] ticks (a
//! dead tier immediately), and each controller remembers the capacity its
//! last decision targeted, re-provisioning crashed VMs on the next tick.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dcm_ntier::world::{SimEngine, World};
use dcm_obs::journal::{Decision, DecisionJournal, JournalEntry, TierObservation};

use crate::agents::{ActionRecord, VmAgent};
use crate::aggregate::TierWindow;
use crate::controller::{Controller, SILENT_TICKS_FOR_PRESSURE};
use crate::monitor::{MetricsBus, MetricsFeed};
use crate::predictor::{HoltConfig, HoltTrend};

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

/// Shared staffing-controller state: the feed, the actuator, the blind-
/// spot bookkeeping, and the journal.
struct StaffingCore {
    feed: MetricsFeed,
    vm: VmAgent,
    config: StaffingConfig,
    silence: BTreeMap<usize, u32>,
    desired: BTreeMap<usize, usize>,
    journal: Option<Rc<RefCell<DecisionJournal>>>,
}

impl StaffingCore {
    fn new(bus: MetricsBus, group: &str, config: StaffingConfig) -> Self {
        StaffingCore {
            feed: MetricsFeed::new(bus, group),
            vm: VmAgent::new(),
            config,
            silence: BTreeMap::new(),
            desired: BTreeMap::new(),
            journal: None,
        }
    }

    /// One tick of the shared staffing pass. `signal` maps a tier's
    /// window to the utilization the staffing rule runs on (measured for
    /// [`ThresholdMmc`], forecast for [`HoltWinters`]) plus the signal
    /// label for the journal.
    fn tick(
        &mut self,
        world: &mut World,
        engine: &mut SimEngine,
        controller: &'static str,
        mut signal: impl FnMut(usize, &TierWindow) -> (f64, String),
    ) {
        let windows = self.feed.poll_windows();
        let tiers = self.config.scalable_tiers.clone();
        let (lo, hi) = (self.config.min_servers, self.config.max_servers);
        let mut observations = Vec::new();
        let mut decisions = Vec::new();
        for tier in tiers {
            let running = world.system.running_count(tier);
            let booting = world.system.booting_count(tier);
            let have = running + booting;
            let mut obs = TierObservation {
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
            let target = match windows.get(&tier) {
                Some(w) => {
                    self.silence.insert(tier, 0);
                    let (util, label) = signal(tier, w);
                    obs.signal = label;
                    obs.pressure = util;
                    obs.utilization = Some(w.mean_cpu_util);
                    obs.throughput = Some(w.total_throughput);
                    obs.concurrency = Some(w.mean_concurrency);
                    obs.mean_dwell = w.mean_dwell;
                    obs.queue = Some(w.mean_thread_queue);
                    // Busy-server equivalents over the target operating
                    // point; never park below what a crash left us with
                    // *relative to memory* (handled below).
                    let needed =
                        (util * running.max(1) as f64 / self.config.rho_target.max(1e-6)).ceil();
                    Some((needed as usize).clamp(lo, hi))
                }
                None => {
                    let streak = self.silence.entry(tier).or_insert(0);
                    *streak += 1;
                    obs.signal = "silent".to_string();
                    obs.silent_streak = *streak;
                    if windows.is_empty() {
                        observations.push(obs);
                        decisions.push(Decision {
                            action: "hold".to_string(),
                            tier,
                            value: None,
                            applied: false,
                            reason: "no metrics from any tier: monitor silent, holding".to_string(),
                        });
                        continue;
                    }
                    let dead = running == 0 && booting == 0;
                    if dead || *streak >= SILENT_TICKS_FOR_PRESSURE {
                        obs.pressure = f64::INFINITY;
                        Some((have + 1).clamp(lo, hi))
                    } else {
                        observations.push(obs);
                        decisions.push(Decision {
                            action: "hold".to_string(),
                            tier,
                            value: None,
                            applied: false,
                            reason: format!(
                                "tier silent {streak}/{SILENT_TICKS_FOR_PRESSURE} period(s); \
                                 waiting before treating as wedged"
                            ),
                        });
                        continue;
                    }
                }
            };
            observations.push(obs);
            let Some(staffing) = target else { continue };
            // Capacity memory: a crashed VM pulls `have` below the last
            // target; the staffing rule may also *raise* the target. Act
            // toward whichever is larger of the fresh rule and the
            // remembered desire when capacity was lost.
            let remembered = self.desired.get(&tier).copied().unwrap_or(have);
            let target = if have < remembered {
                staffing.max(remembered)
            } else {
                staffing
            };
            // Step limit, applied to the net move from current capacity.
            let step = self.config.step_limit;
            let bounded = target.clamp(have.saturating_sub(step), have + step);
            self.desired.insert(tier, bounded);
            let mut now = have;
            while now < bounded {
                if self.vm.scale_out(world, engine, tier).is_none() {
                    break;
                }
                now += 1;
                decisions.push(Decision {
                    action: "scale-out".to_string(),
                    tier,
                    value: Some(now as u32),
                    applied: true,
                    reason: format!(
                        "staffing rule wants {target} server(s) (have {have}, \
                         rho_target {:.2})",
                        self.config.rho_target
                    ),
                });
            }
            while now > bounded {
                if self.vm.scale_in(world, engine, tier).is_none() {
                    break;
                }
                now -= 1;
                decisions.push(Decision {
                    action: "scale-in".to_string(),
                    tier,
                    value: Some(now as u32),
                    applied: true,
                    reason: format!(
                        "staffing rule wants {target} server(s) (have {have}, \
                         rho_target {:.2})",
                        self.config.rho_target
                    ),
                });
            }
            if now == have && have == bounded {
                decisions.push(Decision {
                    action: "hold".to_string(),
                    tier,
                    value: Some(bounded as u32),
                    applied: false,
                    reason: format!("staffing rule satisfied at {bounded} server(s)"),
                });
            }
        }
        if let Some(journal) = &self.journal {
            journal.borrow_mut().push(JournalEntry {
                at: engine.now(),
                controller: controller.to_string(),
                observations,
                fits: Vec::new(),
                decisions,
                plan: None,
            });
        }
    }
}

/// Queueing-theoretic threshold scaler: staffs each tier to
/// `⌈U·k / ρ_target⌉` servers from the measured utilization.
pub struct ThresholdMmc {
    core: StaffingCore,
}

impl std::fmt::Debug for ThresholdMmc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThresholdMmc")
            .field("config", &self.core.config)
            .finish_non_exhaustive()
    }
}

impl ThresholdMmc {
    /// Creates the staffing controller reading from `bus`.
    pub fn new(bus: MetricsBus, config: StaffingConfig) -> Self {
        ThresholdMmc {
            core: StaffingCore::new(bus, "mmc-threshold", config),
        }
    }
}

impl Controller for ThresholdMmc {
    fn on_tick(&mut self, world: &mut World, engine: &mut SimEngine) {
        self.core.tick(world, engine, "MMC-Threshold", |_, w| {
            (w.mean_cpu_util, "cpu-util".to_string())
        });
    }

    fn actions(&self) -> Vec<ActionRecord> {
        self.core.vm.log().to_vec()
    }

    fn name(&self) -> &'static str {
        "MMC-Threshold"
    }

    fn attach_journal(&mut self, journal: Rc<RefCell<DecisionJournal>>) {
        self.core.journal = Some(journal);
    }
}

/// Predictive staffing: the M/M/c rule driven by a Holt-trend utilization
/// forecast one boot delay ahead, so capacity is ready when a steady ramp
/// arrives instead of 15 s late.
pub struct HoltWinters {
    core: StaffingCore,
    holt: HoltConfig,
    trends: BTreeMap<usize, HoltTrend>,
    last_counts: BTreeMap<usize, usize>,
}

impl std::fmt::Debug for HoltWinters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HoltWinters")
            .field("config", &self.core.config)
            .field("holt", &self.holt)
            .finish_non_exhaustive()
    }
}

impl HoltWinters {
    /// Creates the predictive controller reading from `bus`.
    pub fn new(bus: MetricsBus, config: StaffingConfig, holt: HoltConfig) -> Self {
        HoltWinters {
            core: StaffingCore::new(bus, "holt-winters", config),
            holt,
            trends: BTreeMap::new(),
            last_counts: BTreeMap::new(),
        }
    }

    /// Observation count of a tier's smoother (tests/diagnostics).
    pub fn trend_observations(&self, tier: usize) -> Option<u64> {
        self.trends.get(&tier).map(|t| t.observations())
    }
}

impl Controller for HoltWinters {
    fn on_tick(&mut self, world: &mut World, engine: &mut SimEngine) {
        // Feed/reset the smoothers before the staffing pass so the
        // closure below only reads them.
        let tiers = self.core.config.scalable_tiers.clone();
        for &tier in &tiers {
            let count = world.system.running_count(tier) + world.system.booting_count(tier);
            // A scale event shifts per-server utilization
            // discontinuously; the old trend would forecast phantoms.
            if self.last_counts.insert(tier, count) != Some(count) {
                self.trends.remove(&tier);
            }
        }
        let holt = self.holt;
        let trends = &mut self.trends;
        self.core.tick(world, engine, "Holt-Winters", |tier, w| {
            let trend = trends.entry(tier).or_insert_with(|| HoltTrend::new(holt));
            trend.observe(w.mean_cpu_util);
            // Never forecast *below* a hot reading: reacting to genuine
            // saturation must stay instant.
            let util = w.mean_cpu_util.max(trend.forecast());
            (util, "holt-forecast".to_string())
        });
    }

    fn actions(&self) -> Vec<ActionRecord> {
        self.core.vm.log().to_vec()
    }

    fn name(&self) -> &'static str {
        "Holt-Winters"
    }

    fn attach_journal(&mut self, journal: Rc<RefCell<DecisionJournal>>) {
        self.core.journal = Some(journal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The PR-2 blind spot: a dead-silent tier is re-provisioned even
    /// though the staffing rule has no utilization to run on.
    #[test]
    fn mmc_reprovisions_dead_silent_tier() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut mmc = ThresholdMmc::new(Rc::clone(&bus), StaffingConfig::default());
        let victim = world.system.tier(1).members()[0];
        flow::crash_server(&mut world, &mut engine, victim);
        produce(&bus, 1_000, sample("web-1", 0, 0.3));
        mmc.on_tick(&mut world, &mut engine);
        assert_eq!(
            world.system.booting_count(1),
            1,
            "a dead tier must not be held forever"
        );
    }

    /// Capacity memory: a crash below the last staffing target is healed
    /// next tick even when the survivor reads mid-band.
    #[test]
    fn mmc_replaces_crashed_vm_from_memory() {
        let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, 2, 1).build();
        let bus = new_metrics_bus();
        let mut mmc = ThresholdMmc::new(Rc::clone(&bus), StaffingConfig::default());
        // Two app servers at 55 %: rule wants ceil(1.1/0.6) = 2 → hold.
        for (name, tier) in [("web-1", 0), ("app-1", 1), ("app-2", 1), ("db-1", 2)] {
            produce(&bus, 1_000, sample(name, tier, 0.55));
        }
        mmc.on_tick(&mut world, &mut engine);
        assert_eq!(world.system.running_count(1), 2);
        let victim = world.system.tier(1).members()[0];
        flow::crash_server(&mut world, &mut engine, victim);
        // The survivor reports 0.55: fresh rule says ceil(0.55/0.6) = 1,
        // but memory says 2.
        for (name, tier) in [("web-1", 0), ("app-2", 1), ("db-1", 2)] {
            produce(&bus, 2_000, sample(name, tier, 0.55));
        }
        mmc.on_tick(&mut world, &mut engine);
        assert_eq!(
            world.system.running_count(1) + world.system.booting_count(1),
            2,
            "lost capacity must be re-provisioned from the remembered target"
        );
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
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut mmc = ThresholdMmc::new(Rc::clone(&bus), StaffingConfig::default());
        let mut hw = HoltWinters::new(bus, StaffingConfig::default(), HoltConfig::default());
        mmc.on_tick(&mut world, &mut engine);
        hw.on_tick(&mut world, &mut engine);
        assert!(mmc.actions().is_empty());
        assert!(hw.actions().is_empty());
        assert_eq!(world.system.booting_count(1), 0);
    }
}
