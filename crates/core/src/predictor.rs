//! Short-horizon utilization forecasting (Holt's linear exponential
//! smoothing).
//!
//! The paper's related work contrasts its reactive controller with
//! *predictive* approaches that "avoid the long setup time … when the
//! workload has intrinsic patterns". This module implements that
//! extension: a per-tier trend smoother whose forecast one VM-preparation
//! period ahead can drive the scale-out decision, hiding the boot delay
//! when load ramps steadily (and degrading gracefully to reactive
//! behaviour when it doesn't — see the `predictive` ablation).

use std::collections::BTreeMap;

use dcm_ntier::world::World;

use crate::control::capacity;

/// Holt's linear smoothing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltConfig {
    /// Level smoothing factor `α ∈ (0, 1]`.
    pub level_alpha: f64,
    /// Trend smoothing factor `β ∈ (0, 1]`.
    pub trend_beta: f64,
    /// Forecast horizon in control periods (e.g. 2 ≈ boot delay + one
    /// period at the paper's 15 s timings).
    pub horizon_periods: f64,
}

impl Default for HoltConfig {
    fn default() -> Self {
        HoltConfig {
            level_alpha: 0.5,
            trend_beta: 0.3,
            horizon_periods: 2.0,
        }
    }
}

/// A per-signal Holt smoother.
///
/// # Examples
///
/// ```
/// use dcm_core::predictor::{HoltConfig, HoltTrend};
///
/// let mut trend = HoltTrend::new(HoltConfig::default());
/// for step in 0..10 {
///     trend.observe(0.1 * step as f64); // steady ramp
/// }
/// // The forecast runs ahead of the last observation.
/// assert!(trend.forecast() > 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltTrend {
    config: HoltConfig,
    level: f64,
    trend: f64,
    observations: u64,
}

impl HoltTrend {
    /// Creates an empty smoother.
    ///
    /// # Panics
    ///
    /// Panics if the smoothing factors are outside `(0, 1]` or the horizon
    /// is negative.
    pub fn new(config: HoltConfig) -> Self {
        assert!(
            config.level_alpha > 0.0 && config.level_alpha <= 1.0,
            "level_alpha must be in (0,1]"
        );
        assert!(
            config.trend_beta > 0.0 && config.trend_beta <= 1.0,
            "trend_beta must be in (0,1]"
        );
        assert!(config.horizon_periods >= 0.0, "horizon must be >= 0");
        HoltTrend {
            config,
            level: 0.0,
            trend: 0.0,
            observations: 0,
        }
    }

    /// Feeds one observation (one control period's measurement).
    pub fn observe(&mut self, value: f64) {
        if self.observations == 0 {
            self.level = value;
            self.trend = 0.0;
        } else {
            let previous_level = self.level;
            self.level = self.config.level_alpha * value
                + (1.0 - self.config.level_alpha) * (self.level + self.trend);
            self.trend = self.config.trend_beta * (self.level - previous_level)
                + (1.0 - self.config.trend_beta) * self.trend;
        }
        self.observations += 1;
    }

    /// The smoothed current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// The smoothed per-period trend.
    pub fn trend(&self) -> f64 {
        self.trend
    }

    /// Observations seen so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Forecast `horizon_periods` ahead; equals the last level until two
    /// observations have been seen (no trend to extrapolate).
    pub fn forecast(&self) -> f64 {
        if self.observations < 2 {
            self.level
        } else {
            self.level + self.trend * self.config.horizon_periods
        }
    }
}

/// One Holt smoother per scalable tier, over per-server utilization.
///
/// A scale event shifts per-server utilization discontinuously, so a trend
/// extrapolated across it forecasts phantoms: a tier's smoother restarts
/// whenever its provisioned server count differs from the previous tick's,
/// whether or not the tier reported in between.
#[derive(Debug, Clone)]
pub(crate) struct TierTrends {
    config: HoltConfig,
    trends: BTreeMap<usize, HoltTrend>,
    counts: BTreeMap<usize, usize>,
}

impl TierTrends {
    pub(crate) fn new(config: HoltConfig) -> Self {
        TierTrends {
            config,
            trends: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Starts a tick: restarts the smoother of each of `tiers` whose server
    /// count changed since the last tick.
    pub(crate) fn restart_changed(&mut self, world: &World, tiers: &[usize]) {
        for &tier in tiers {
            let count = capacity(world, tier);
            if self.counts.insert(tier, count) != Some(count) {
                self.trends.remove(&tier);
            }
        }
    }

    /// Feeds `tier`'s utilization reading and returns its forecast, never
    /// below the reading: reacting to genuine saturation must stay instant.
    pub(crate) fn forecast(&mut self, tier: usize, utilization: f64) -> f64 {
        let config = self.config;
        let trend = self
            .trends
            .entry(tier)
            .or_insert_with(|| HoltTrend::new(config));
        trend.observe(utilization);
        utilization.max(trend.forecast())
    }

    /// Observation count of `tier`'s smoother; `None` before its first
    /// reading since the last restart.
    pub(crate) fn observations(&self, tier: usize) -> Option<u64> {
        self.trends.get(&tier).map(HoltTrend::observations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, Dcm, DcmConfig, DcmModels};
    use crate::monitor::{new_metrics_bus, MetricsBus, METRICS_TOPIC};
    use crate::policy::ScalingConfig;
    use crate::zoo::{HoltWinters, StaffingConfig};
    use dcm_ntier::flow;
    use dcm_ntier::metrics::ServerSample;
    use dcm_ntier::topology::ThreeTierBuilder;
    use dcm_ntier::world::SimEngine;
    use dcm_sim::time::SimTime;
    use std::rc::Rc;

    /// Tick `k`: every tier of `tiers` reports, then `controller` runs.
    fn tick(
        controller: &mut impl Controller,
        bus: &MetricsBus,
        (world, engine): (&mut World, &mut SimEngine),
        k: u64,
        tiers: &[usize],
    ) {
        for &tier in tiers {
            let sample = ServerSample {
                server: format!("tier{tier}"),
                tier,
                window_start: SimTime::ZERO,
                window_end: SimTime::from_secs(1),
                cpu_util: 0.3 + 0.05 * k as f64,
                busy_fraction: 0.5,
                active_threads: 1.0,
                completed: 50,
                throughput: 50.0,
                mean_dwell: Some(0.05),
                thread_pool_size: 100,
                thread_queue: 0,
                conn_queue: 0,
            };
            let mut broker = bus.borrow_mut();
            broker.produce(METRICS_TOPIC, k * 1_000, sample).unwrap();
        }
        controller.on_tick(world, engine);
    }

    /// Drives `controller` through three reporting ticks, a crash of the
    /// one app server that it re-provisions on the next, silent, tick, and
    /// a reporting tick at the pre-crash server count. Returns the app
    /// tier's trend observations before the crash and after.
    fn trend_across_silent_crash<C: Controller>(
        bus: &MetricsBus,
        mut controller: C,
        trend: fn(&C) -> Option<u64>,
    ) -> (Option<u64>, Option<u64>) {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        for k in 1..=3 {
            tick(
                &mut controller,
                bus,
                (&mut world, &mut engine),
                k,
                &[0, 1, 2],
            );
        }
        let before = trend(&controller);
        let victim = world.system.tier(1).members()[0];
        flow::crash_server(&mut world, &mut engine, victim);
        tick(&mut controller, bus, (&mut world, &mut engine), 4, &[0, 2]);
        assert_eq!(capacity(&world, 1), 1, "the dead tier is re-provisioned");
        tick(
            &mut controller,
            bus,
            (&mut world, &mut engine),
            5,
            &[0, 1, 2],
        );
        (before, trend(&controller))
    }

    /// The restart rule counts servers every tick, reported or not: a tier
    /// seen at 0 servers while silent restarts its trend even when it is
    /// back at its old count by its next report.
    #[test]
    fn crash_and_reprovision_while_silent_restarts_the_trend() {
        let (holt, max_servers) = (HoltConfig::default(), 1);
        let scaling = ScalingConfig {
            max_servers,
            ..ScalingConfig::default()
        };
        let config = DcmConfig {
            scaling,
            predictive: Some(holt),
            ..DcmConfig::default()
        };
        let bus = new_metrics_bus();
        let dcm = Dcm::new(Rc::clone(&bus), config, DcmModels::reference());
        let seen = trend_across_silent_crash(&bus, dcm, |c| c.trend_observations(1));
        assert_eq!(seen, (Some(3), Some(1)), "DCM");

        let staffing = StaffingConfig {
            max_servers,
            ..StaffingConfig::default()
        };
        let bus = new_metrics_bus();
        let hw = HoltWinters::new(Rc::clone(&bus), staffing, holt);
        let seen = trend_across_silent_crash(&bus, hw, |c| c.trend_observations(1));
        assert_eq!(seen, (Some(3), Some(1)), "Holt-Winters");
    }

    #[test]
    fn constant_signal_forecasts_itself() {
        let mut t = HoltTrend::new(HoltConfig::default());
        for _ in 0..20 {
            t.observe(0.6);
        }
        assert!((t.forecast() - 0.6).abs() < 1e-9);
        assert!(t.trend().abs() < 1e-9);
    }

    #[test]
    fn ramp_is_extrapolated_ahead() {
        let mut t = HoltTrend::new(HoltConfig {
            level_alpha: 0.8,
            trend_beta: 0.5,
            horizon_periods: 2.0,
        });
        let mut last = 0.0;
        for step in 0..30 {
            last = 0.02 * f64::from(step);
            t.observe(last);
        }
        let forecast = t.forecast();
        assert!(
            forecast > last + 0.02,
            "forecast {forecast} should lead the ramp ({last})"
        );
        assert!(forecast < last + 0.1, "but not wildly: {forecast}");
    }

    #[test]
    fn single_observation_has_no_trend() {
        let mut t = HoltTrend::new(HoltConfig::default());
        t.observe(0.9);
        assert_eq!(t.forecast(), 0.9);
        assert_eq!(t.observations(), 1);
    }

    #[test]
    fn falling_signal_forecasts_lower() {
        let mut t = HoltTrend::new(HoltConfig::default());
        for step in 0..20 {
            t.observe(1.0 - 0.03 * f64::from(step));
        }
        assert!(t.forecast() < t.level());
    }

    #[test]
    #[should_panic(expected = "level_alpha")]
    fn rejects_invalid_alpha() {
        let _ = HoltTrend::new(HoltConfig {
            level_alpha: 0.0,
            ..HoltConfig::default()
        });
    }
}
