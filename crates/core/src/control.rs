//! The control core every controller runs on.
//!
//! The paper's controller (§IV) is a monitor feeding an optimization step
//! that drives a VM-agent and an APP-agent; every autoscaler here is that
//! monitor–analyze–plan–execute loop with only the plan step its own. The
//! core owns the rest:
//!
//! * **observe** — it reads the controller's feed of the metrics topic,
//!   reduces it per tier, and sorts each scalable tier into one of four
//!   classes (below), journaling what it saw;
//! * **execute** — it owns the VM- and APP-agents with their merged action
//!   log, the capacity each controller's plan last aimed a tier at, the one
//!   loop that drives a tier toward a target, the pool-setting decisions,
//!   and the optional decision journal.
//!
//! Each controller's plan maps every class to its own action and reason.
//! The classes carry the rules that close the controllers' failure blind
//! spots:
//!
//! * **reporting** — the tier sent samples this period;
//! * **monitor-silent** — no tier reported at all, so the monitoring
//!   pipeline itself produced nothing: there is no evidence of anything,
//!   and every controller holds;
//! * **waiting** — the tier is silent while others report but still has
//!   capacity, for fewer than [`SILENT_TICKS_FOR_PRESSURE`] consecutive
//!   periods: one missed window can be a sampling hiccup;
//! * **wedged** — the tier is silent while others report and is dead (no
//!   server running or booting), or has been silent for the full streak:
//!   its servers crashed or wedged so hard they stopped sampling, which is
//!   maximal pressure rather than a reason to hold forever.
//!
//! A controller that remembers capacity (all but EC2-AutoScale) re-provisions
//! a tier that fell below it — a crashed VM — on the next tick, without
//! waiting for load to re-trip a threshold.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dcm_ntier::world::{SimEngine, World};
use dcm_obs::journal::{
    Decision, DecisionJournal, FitSnapshot, JournalEntry, PlanProvenance, TierObservation,
};
use dcm_sim::time::SimTime;

use crate::agents::{ActionRecord, AppAgent, VmAgent};
use crate::aggregate::TierWindow;
use crate::monitor::{MetricsBus, MetricsFeed};

/// Consecutive silent control periods before a tier that *has* capacity is
/// treated as wedged (a tier with no capacity at all is wedged on the first
/// silent period — there is nothing to wait for).
pub const SILENT_TICKS_FOR_PRESSURE: u32 = 2;

/// The hold reason the threshold and staffing plans journal for a
/// monitor-silent tier.
pub(crate) const MONITOR_SILENT: &str = "no metrics from any tier: monitor silent, holding";

/// Servers a tier has provisioned: running plus booting.
pub(crate) fn capacity(world: &World, tier: usize) -> usize {
    world.system.running_count(tier) + world.system.booting_count(tier)
}

/// What the observe step makes of one scalable tier this period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TierClass {
    /// The tier reported.
    Reporting,
    /// No tier reported.
    MonitorSilent,
    /// Silent with capacity for this many periods, fewer than
    /// [`SILENT_TICKS_FOR_PRESSURE`].
    Waiting(u32),
    /// Silent and dead, or silent for the full streak.
    Wedged,
}

/// One scalable tier as the observe step saw it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TierView {
    pub(crate) tier: usize,
    pub(crate) running: usize,
    pub(crate) booting: usize,
    pub(crate) class: TierClass,
    /// The plan's signal for a reporting tier, infinite for a wedged one,
    /// 0 otherwise.
    pub(crate) pressure: f64,
}

impl TierView {
    pub(crate) fn capacity(&self) -> usize {
        self.running + self.booting
    }
}

/// The observe and execute halves of a controller (see the module doc).
#[derive(Debug)]
pub(crate) struct ControlCore {
    name: &'static str,
    feed: MetricsFeed,
    vm: VmAgent,
    app: AppAgent,
    tiers: Vec<usize>,
    min_servers: usize,
    max_servers: usize,
    /// Consecutive silent periods per scalable tier.
    silence: BTreeMap<usize, u32>,
    /// Capacity the plan last aimed each tier at.
    desired: BTreeMap<usize, usize>,
    /// This period's observations and decisions, for the journal.
    observations: Vec<TierObservation>,
    decisions: Vec<Decision>,
    journal: Option<Rc<RefCell<DecisionJournal>>>,
}

impl ControlCore {
    /// A core for the controller `name`, reading `bus` as the consumer
    /// group named by its lowercase and scaling `tiers` within
    /// `[min_servers, max_servers]`.
    pub(crate) fn new(
        bus: MetricsBus,
        name: &'static str,
        tiers: &[usize],
        (min_servers, max_servers): (usize, usize),
    ) -> Self {
        ControlCore {
            name,
            feed: MetricsFeed::new(bus, &name.to_lowercase()),
            vm: VmAgent::new(),
            app: AppAgent::new(),
            tiers: tiers.to_vec(),
            min_servers,
            max_servers,
            silence: BTreeMap::new(),
            desired: BTreeMap::new(),
            observations: Vec::new(),
            decisions: Vec::new(),
            journal: None,
        }
    }

    /// The controller's display name.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// Every sample published since the last poll, reduced per tier.
    pub(crate) fn poll(&mut self) -> BTreeMap<usize, TierWindow> {
        self.feed.poll_windows()
    }

    /// Classifies each scalable tier and records its journal observation.
    /// `signal` maps a reporting tier's window to the plan's pressure and
    /// the label that names it.
    pub(crate) fn observe(
        &mut self,
        world: &World,
        windows: &BTreeMap<usize, TierWindow>,
        mut signal: impl FnMut(usize, &TierWindow) -> (f64, String),
    ) -> Vec<TierView> {
        let mut views = Vec::with_capacity(self.tiers.len());
        for &tier in &self.tiers {
            let running = world.system.running_count(tier);
            let booting = world.system.booting_count(tier);
            let mut obs = TierObservation {
                tier,
                pressure: 0.0,
                signal: "silent".to_string(),
                utilization: None,
                throughput: None,
                concurrency: None,
                mean_dwell: None,
                queue: None,
                running,
                booting,
                silent_streak: 0,
            };
            let streak = self.silence.entry(tier).or_insert(0);
            let class = match windows.get(&tier) {
                Some(w) => {
                    *streak = 0;
                    (obs.pressure, obs.signal) = signal(tier, w);
                    obs.utilization = Some(w.mean_cpu_util);
                    obs.throughput = Some(w.total_throughput);
                    obs.concurrency = Some(w.mean_concurrency);
                    obs.mean_dwell = w.mean_dwell;
                    obs.queue = Some(w.mean_thread_queue);
                    TierClass::Reporting
                }
                None => {
                    *streak += 1;
                    obs.silent_streak = *streak;
                    if windows.is_empty() {
                        TierClass::MonitorSilent
                    } else if running + booting == 0 || *streak >= SILENT_TICKS_FOR_PRESSURE {
                        obs.pressure = f64::INFINITY;
                        TierClass::Wedged
                    } else {
                        TierClass::Waiting(*streak)
                    }
                }
            };
            views.push(TierView {
                tier,
                running,
                booting,
                class,
                pressure: obs.pressure,
            });
            self.observations.push(obs);
        }
        views
    }

    /// The capacity the plan last aimed `tier` at, if it has.
    pub(crate) fn remembered(&self, tier: usize) -> Option<usize> {
        self.desired.get(&tier).copied()
    }

    /// Remembers `servers` as the capacity `tier` should have.
    pub(crate) fn remember(&mut self, tier: usize, servers: usize) {
        self.desired.insert(tier, servers);
    }

    /// Scales `tier` toward `target` servers one VM at a time, stopping at
    /// the first the VM-agent cannot boot or drain, and returns the tier's
    /// capacity before and after. With `steps`, journals one applied
    /// scale-out or scale-in per VM, valued at the capacity it left, with
    /// that reason.
    pub(crate) fn drive(
        &mut self,
        world: &mut World,
        engine: &mut SimEngine,
        tier: usize,
        target: usize,
        steps: Option<&str>,
    ) -> (usize, usize) {
        let before = capacity(world, tier);
        let mut have = before;
        while have < target && self.vm.scale_out(world, engine, tier).is_some() {
            have += 1;
            if let Some(reason) = steps {
                self.decide("scale-out", tier, Some(have as u32), true, reason);
            }
        }
        while have > target && self.vm.scale_in(world, engine, tier).is_some() {
            have -= 1;
            if let Some(reason) = steps {
                self.decide("scale-in", tier, Some(have as u32), true, reason);
            }
        }
        (before, have)
    }

    /// Re-provisions `tier` when it fell below its remembered capacity
    /// (clamped to the server limits): a lost VM. Returns the capacity
    /// before and after and the remembered target, or `None` when nothing
    /// was lost. `steps` is as in [`ControlCore::drive`].
    pub(crate) fn restore(
        &mut self,
        world: &mut World,
        engine: &mut SimEngine,
        tier: usize,
        steps: Option<&str>,
    ) -> Option<(usize, usize, usize)> {
        let desired = self
            .remembered(tier)?
            .clamp(self.min_servers, self.max_servers);
        if capacity(world, tier) >= desired {
            return None;
        }
        let (before, after) = self.drive(world, engine, tier, desired, steps);
        Some((before, after, desired))
    }

    /// Sets `tier`'s thread pools to `size` through the APP-agent; an
    /// applied change journals a "set-threads" decision with `reason`.
    pub(crate) fn set_threads(
        &mut self,
        world: &mut World,
        engine: &mut SimEngine,
        tier: usize,
        size: u32,
        reason: impl FnOnce() -> String,
    ) {
        if self.app.set_tier_threads(world, engine, tier, size) {
            self.decide("set-threads", tier, Some(size), true, reason());
        }
    }

    /// Sets `tier`'s downstream connection pools to `size` through the
    /// APP-agent; an applied change journals a "set-conns" decision with
    /// `reason`.
    pub(crate) fn set_conns(
        &mut self,
        world: &mut World,
        engine: &mut SimEngine,
        tier: usize,
        size: u32,
        reason: impl FnOnce() -> String,
    ) {
        if self.app.set_tier_conns(world, engine, tier, size) {
            self.decide("set-conns", tier, Some(size), true, reason());
        }
    }

    /// Adds one decision to this period's journal entry.
    pub(crate) fn decide(
        &mut self,
        action: &str,
        tier: usize,
        value: Option<u32>,
        applied: bool,
        reason: impl Into<String>,
    ) {
        self.decisions.push(Decision {
            action: action.to_string(),
            tier,
            value,
            applied,
            reason: reason.into(),
        });
    }

    /// Ends the period: journals its observations and decisions with the
    /// plan's model `fits` and `plan` provenance, when a journal is
    /// attached.
    pub(crate) fn finish_tick(
        &mut self,
        at: SimTime,
        fits: Vec<FitSnapshot>,
        plan: Option<PlanProvenance>,
    ) {
        let mut observations = std::mem::take(&mut self.observations);
        let mut decisions = std::mem::take(&mut self.decisions);
        if let Some(journal) = &self.journal {
            // The journal keeps every entry for the whole run.
            observations.shrink_to_fit();
            decisions.shrink_to_fit();
            journal.borrow_mut().push(JournalEntry {
                at,
                controller: self.name.to_string(),
                observations,
                fits,
                decisions,
                plan,
            });
        }
    }

    /// The VM- and APP-agents' actions merged in time order.
    pub(crate) fn actions(&self) -> Vec<ActionRecord> {
        let mut all: Vec<ActionRecord> = self
            .vm
            .log()
            .iter()
            .chain(self.app.log())
            .cloned()
            .collect();
        all.sort_by_key(|r| r.at);
        all
    }

    /// Journals every following period into `journal`.
    pub(crate) fn attach_journal(&mut self, journal: Rc<RefCell<DecisionJournal>>) {
        self.journal = Some(journal);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::controller::DcmModels;
    use crate::experiment::ControllerSpec;
    use crate::monitor::{new_metrics_bus, METRICS_TOPIC};
    use crate::predictor::HoltConfig;
    use crate::zoo::StaffingConfig;
    use dcm_ntier::flow;
    use dcm_ntier::metrics::ServerSample;
    use dcm_ntier::topology::ThreeTierBuilder;

    /// The blind-spot rules every controller shares.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Rule {
        /// A tick with no metrics from any tier changes no VM count.
        MonitorSilent,
        /// A tier whose every server crashed boots a server on that tick,
        /// while the other tiers keep reporting.
        DeadTier,
        /// A silent tier that still has capacity holds for one tick and
        /// scales out on the second.
        SilentTier,
        /// After a crash drops a tier below its remembered capacity, the
        /// controllers that remember re-provision on the next tick; the
        /// others hold.
        LostCapacity,
    }

    /// What a controller does when a crash drops a tier below the capacity
    /// it had.
    #[derive(Debug, Clone, Copy)]
    enum Memory {
        /// Holds: it remembers no capacity.
        Forgets,
        /// Re-provisions exactly the lost VM.
        Restores,
        /// Re-provisions at least up to its committed plan, then may plan
        /// more.
        Replans,
    }

    /// One controller under the rules: its spec, the `(cpu, throughput)`
    /// each reporting server of a tier sends, and what it does with lost
    /// capacity.
    struct Row {
        spec: ControllerSpec,
        load: fn(usize) -> (f64, f64),
        memory: Memory,
    }

    fn mid_band(_tier: usize) -> (f64, f64) {
        (0.5, 50.0)
    }

    /// A saturated app tier at low throughput reads as a heavy per-visit
    /// demand, so MPC's first plan grows the tier and commits to it: MPC
    /// remembers no capacity before it has planned.
    fn saturated_app(tier: usize) -> (f64, f64) {
        if tier == 1 {
            (0.95, 5.0)
        } else {
            (0.3, 10.0)
        }
    }

    fn rows() -> Vec<Row> {
        let staffing = StaffingConfig::default();
        let holt = HoltConfig::default();
        let row = |spec, load, memory| Row { spec, load, memory };
        vec![
            row(ControllerSpec::ec2(), mid_band, Memory::Forgets),
            row(
                ControllerSpec::dcm(DcmModels::reference()),
                mid_band,
                Memory::Restores,
            ),
            row(
                ControllerSpec::Mmc(staffing.clone()),
                mid_band,
                Memory::Restores,
            ),
            row(
                ControllerSpec::HoltWinters { staffing, holt },
                mid_band,
                Memory::Restores,
            ),
            row(
                ControllerSpec::mpc(DcmModels::reference()),
                saturated_app,
                Memory::Replans,
            ),
        ]
    }

    fn sample(server: &str, tier: usize, (cpu, x): (f64, f64)) -> ServerSample {
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

    fn capacities(world: &World) -> Vec<usize> {
        (0..world.system.tier_count())
            .map(|tier| capacity(world, tier))
            .collect()
    }

    impl Row {
        /// One window from every running server of `tiers`.
        fn report(&self, bus: &MetricsBus, world: &World, ts_ms: u64, tiers: &[usize]) {
            for &tier in tiers {
                for &id in world.system.tier(tier).routable_members() {
                    let name = world.system.server(id).expect("member").name();
                    let sample = sample(name, tier, (self.load)(tier));
                    bus.borrow_mut()
                        .produce(METRICS_TOPIC, ts_ms, sample)
                        .expect("metrics topic exists");
                }
            }
        }

        fn check(&self, rule: Rule) {
            let name = self.spec.name();
            let app = if matches!(rule, Rule::LostCapacity) {
                2
            } else {
                1
            };
            let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, app, 1).build();
            let bus = new_metrics_bus();
            let mut controller = self.spec.build(Rc::clone(&bus));
            assert_eq!(controller.name(), name);
            let mut tick = |world: &mut World, engine: &mut SimEngine, ts_ms, tiers: &[usize]| {
                self.report(&bus, world, ts_ms, tiers);
                controller.on_tick(world, engine);
            };
            match rule {
                Rule::MonitorSilent => {
                    let before = capacities(&world);
                    tick(&mut world, &mut engine, 1_000, &[]);
                    assert_eq!(capacities(&world), before, "{name} acted on no metrics");
                    // DCM sizes its pools for the topology it sees, metrics
                    // or not; every other controller does nothing at all.
                    if !matches!(self.spec, ControllerSpec::Dcm { .. }) {
                        let actions = controller.actions();
                        assert!(
                            actions.is_empty(),
                            "{name} acted on no metrics: {actions:?}"
                        );
                    }
                }
                Rule::DeadTier => {
                    let victim = world.system.tier(1).routable_members()[0];
                    flow::crash_server(&mut world, &mut engine, victim);
                    tick(&mut world, &mut engine, 1_000, &[0, 2]);
                    let booting = world.system.booting_count(1);
                    assert_eq!(booting, 1, "{name} must re-provision a dead tier at once");
                }
                Rule::SilentTier => {
                    tick(&mut world, &mut engine, 1_000, &[0, 2]);
                    let booting = world.system.booting_count(1);
                    assert_eq!(booting, 0, "{name}: one silent period is not a wedge");
                    tick(&mut world, &mut engine, 2_000, &[0, 2]);
                    let booting = world.system.booting_count(1);
                    assert_eq!(booting, 1, "{name}: consecutive silence means wedged");
                }
                Rule::LostCapacity => {
                    tick(&mut world, &mut engine, 1_000, &[0, 1, 2]);
                    let kept = capacity(&world, 1);
                    if let Memory::Replans = self.memory {
                        assert!(
                            kept > app as usize,
                            "{name}'s plan must grow a saturated tier"
                        );
                    } else {
                        assert_eq!(kept, app as usize, "{name} must hold a mid-band tier");
                    }
                    let victim = world.system.tier(1).routable_members()[0];
                    flow::crash_server(&mut world, &mut engine, victim);
                    tick(&mut world, &mut engine, 2_000, &[0, 1, 2]);
                    let now = capacity(&world, 1);
                    match self.memory {
                        Memory::Forgets => {
                            assert_eq!(now, kept - 1, "{name} keeps no capacity memory")
                        }
                        Memory::Restores => {
                            assert_eq!(now, kept, "{name} must replace exactly the lost VM")
                        }
                        Memory::Replans => {
                            assert!(now >= kept, "{name} left {now} of its planned {kept}")
                        }
                    }
                }
            }
        }
    }

    /// Checks `rule` for the controller named `name`.
    pub(crate) fn check(name: &str, rule: Rule) {
        let rows = rows();
        let row = rows.iter().find(|r| r.spec.name() == name);
        row.expect("a row per controller").check(rule);
    }

    /// The cells no per-controller test covers: DCM's (a)–(c),
    /// MMC-Threshold's (c) and Holt-Winters' (b)–(d). The other thirteen
    /// run once each as named tests in `controller`, `zoo` and `mpc`.
    #[test]
    fn blind_spot_rules_hold_in_the_remaining_cells() {
        for (name, rule) in [
            ("DCM", Rule::MonitorSilent),
            ("DCM", Rule::DeadTier),
            ("DCM", Rule::SilentTier),
            ("MMC-Threshold", Rule::SilentTier),
            ("Holt-Winters", Rule::DeadTier),
            ("Holt-Winters", Rule::SilentTier),
            ("Holt-Winters", Rule::LostCapacity),
        ] {
            check(name, rule);
        }
    }
}
