//! Threshold-based VM scaling policy: "quick start but slow turn off"
//! (paper §V-B, following Gandhi et al.'s AutoScale).
//!
//! One control period above the upper threshold triggers a scale-out;
//! scale-in requires the utilization to stay below the lower threshold for
//! several *consecutive* periods, avoiding flapping under bursty load.

use std::collections::BTreeMap;

/// What the policy wants done to a tier this period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Add one server.
    Out,
    /// Remove one server.
    In,
    /// Do nothing.
    Hold,
}

/// Which measurement drives the threshold comparison.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TriggerSignal {
    /// The simulated CPU-utilization counter (the paper's CloudWatch-style
    /// trigger).
    #[default]
    CpuUtil,
    /// Response-time pressure: the tier's mean per-completion dwell divided
    /// by an SLA budget (an SLA-driven extension; pressure 1.0 = at
    /// budget). The same up/down thresholds apply to the pressure value.
    DwellPressure {
        /// Per-tier dwell budget in seconds.
        sla_secs: f64,
    },
}

/// Shared scaling-policy configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingConfig {
    /// Scale out when tier utilization exceeds this in one period (0.8).
    pub up_threshold: f64,
    /// Scale in when utilization stays under this (0.4).
    pub down_threshold: f64,
    /// Consecutive low periods required before scale-in (3).
    pub down_consecutive: u32,
    /// Tiers the controller may scale.
    pub scalable_tiers: Vec<usize>,
    /// Never scale a tier below this many servers.
    pub min_servers: usize,
    /// Never scale a tier above this many servers.
    pub max_servers: usize,
    /// The measurement compared against the thresholds.
    pub trigger: TriggerSignal,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            up_threshold: 0.8,
            down_threshold: 0.4,
            down_consecutive: 3,
            scalable_tiers: vec![1, 2],
            min_servers: 1,
            max_servers: 8,
            trigger: TriggerSignal::CpuUtil,
        }
    }
}

/// Per-tier threshold state machine.
///
/// # Examples
///
/// ```
/// use dcm_core::policy::{ScaleDecision, ScalingConfig, ThresholdPolicy};
///
/// let mut policy = ThresholdPolicy::new(ScalingConfig::default());
/// // One hot period → scale out immediately ("quick start").
/// assert_eq!(policy.decide(1, 0.95, 1, 0), ScaleDecision::Out);
/// // Cold periods only pay off after three in a row ("slow turn off").
/// assert_eq!(policy.decide(1, 0.2, 2, 0), ScaleDecision::Hold);
/// assert_eq!(policy.decide(1, 0.2, 2, 0), ScaleDecision::Hold);
/// assert_eq!(policy.decide(1, 0.2, 2, 0), ScaleDecision::In);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdPolicy {
    config: ScalingConfig,
    below_counts: BTreeMap<usize, u32>,
}

impl ThresholdPolicy {
    /// Creates the policy from a config.
    pub fn new(config: ScalingConfig) -> Self {
        ThresholdPolicy {
            config,
            below_counts: BTreeMap::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ScalingConfig {
        &self.config
    }

    /// Decides for one tier given this period's utilization, the number of
    /// running servers, and the number still booting.
    ///
    /// A tier with a server already booting never scales out again (the
    /// new capacity has not had a chance to absorb load), and a tier at
    /// `max_servers` holds. Scale-in is suppressed at `min_servers` and
    /// while a boot is pending.
    pub fn decide(
        &mut self,
        tier: usize,
        utilization: f64,
        running: usize,
        booting: usize,
    ) -> ScaleDecision {
        if !self.config.scalable_tiers.contains(&tier) {
            return ScaleDecision::Hold;
        }
        if utilization > self.config.up_threshold {
            self.below_counts.insert(tier, 0);
            if booting == 0 && running + booting < self.config.max_servers {
                return ScaleDecision::Out;
            }
            return ScaleDecision::Hold;
        }
        if utilization < self.config.down_threshold {
            let count = self.below_counts.entry(tier).or_insert(0);
            *count += 1;
            if *count >= self.config.down_consecutive
                && booting == 0
                && running > self.config.min_servers
            {
                *count = 0;
                return ScaleDecision::In;
            }
            return ScaleDecision::Hold;
        }
        // Mid-band: reset the slow-stop counter.
        self.below_counts.insert(tier, 0);
        ScaleDecision::Hold
    }

    /// The slow-stop streak currently accumulated for `tier`: consecutive
    /// periods spent below `down_threshold` (zero after a scale-in fires or
    /// any warmer period resets it). Exposed so controllers can journal
    /// *why* a cold tier is still held.
    pub fn below_count(&self, tier: usize) -> u32 {
        self.below_counts.get(&tier).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ThresholdPolicy {
        ThresholdPolicy::new(ScalingConfig::default())
    }

    #[test]
    fn hot_period_scales_out_once_boot_pending() {
        let mut p = policy();
        assert_eq!(p.decide(1, 0.9, 1, 0), ScaleDecision::Out);
        // While the new VM boots, a hot period does not add another.
        assert_eq!(p.decide(1, 0.95, 1, 1), ScaleDecision::Hold);
        // Once it joined, further heat may scale again.
        assert_eq!(p.decide(1, 0.95, 2, 0), ScaleDecision::Out);
    }

    #[test]
    fn scale_in_needs_consecutive_cold_periods() {
        let mut p = policy();
        assert_eq!(p.decide(2, 0.1, 2, 0), ScaleDecision::Hold);
        assert_eq!(p.decide(2, 0.1, 2, 0), ScaleDecision::Hold);
        // A warm period resets the streak.
        assert_eq!(p.decide(2, 0.6, 2, 0), ScaleDecision::Hold);
        assert_eq!(p.decide(2, 0.1, 2, 0), ScaleDecision::Hold);
        assert_eq!(p.decide(2, 0.1, 2, 0), ScaleDecision::Hold);
        assert_eq!(p.decide(2, 0.1, 2, 0), ScaleDecision::In);
        // Counter reset after firing.
        assert_eq!(p.decide(2, 0.1, 2, 0), ScaleDecision::Hold);
    }

    #[test]
    fn hot_period_resets_cold_streak() {
        let mut p = policy();
        p.decide(1, 0.1, 2, 0);
        p.decide(1, 0.1, 2, 0);
        assert_eq!(p.decide(1, 0.9, 2, 0), ScaleDecision::Out);
        // Streak restarted: three more cold periods needed.
        assert_eq!(p.decide(1, 0.1, 2, 0), ScaleDecision::Hold);
        assert_eq!(p.decide(1, 0.1, 2, 0), ScaleDecision::Hold);
        assert_eq!(p.decide(1, 0.1, 2, 0), ScaleDecision::In);
    }

    #[test]
    fn respects_min_max_and_scalable_set() {
        let mut p = policy();
        // Tier 0 is not scalable by default.
        assert_eq!(p.decide(0, 0.99, 1, 0), ScaleDecision::Hold);
        // Min servers: never empties a tier.
        for _ in 0..5 {
            assert_eq!(p.decide(1, 0.0, 1, 0), ScaleDecision::Hold);
        }
        // Max servers: stop growing.
        let mut p = ThresholdPolicy::new(ScalingConfig {
            max_servers: 2,
            ..ScalingConfig::default()
        });
        assert_eq!(p.decide(1, 0.9, 2, 0), ScaleDecision::Hold);
    }

    #[test]
    fn below_count_tracks_the_cold_streak() {
        let mut p = policy();
        assert_eq!(p.below_count(1), 0);
        p.decide(1, 0.1, 2, 0);
        p.decide(1, 0.1, 2, 0);
        assert_eq!(p.below_count(1), 2);
        p.decide(1, 0.6, 2, 0);
        assert_eq!(p.below_count(1), 0, "warm period resets");
        for _ in 0..3 {
            p.decide(1, 0.1, 2, 0);
        }
        assert_eq!(p.below_count(1), 0, "firing a scale-in resets");
    }
}
