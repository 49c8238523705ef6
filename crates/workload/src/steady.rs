//! One steady-state run: a fixed world under a fixed population, warmed
//! up and measured over one window.
//!
//! The paper's model rests on two fixed-world measurement protocols:
//! Jmeter closed-loop sweeps train it and think-time clients validate it.
//! Both are a [`SteadyRun`]: plain data naming the world's nodes and
//! balancer, the seed, the users and their think time, the warm-up, the
//! window and the audit. [`SteadyRun::run`] builds
//! the world, starts the [`CohortPopulation`], warms up, marks the window
//! and hands everything back at the window's close in a [`SteadyWindow`],
//! so each measurement reads its own numbers (completions, per-server
//! samples, counters, spans) and may keep running the engine.

use dcm_ntier::audit::{AuditReport, ConservationAuditor};
use dcm_ntier::balancer::BalancerPolicy;
use dcm_ntier::spans::Span;
use dcm_ntier::system::SystemCounters;
use dcm_ntier::topology::{MeshBuilder, MeshNode};
use dcm_ntier::world::{SimEngine, World};
use dcm_sim::dist::Dist;
use dcm_sim::time::{SimDuration, SimTime};

use crate::cohort::CohortPopulation;
use crate::profile::ProfileFactory;

/// One steady-state run, described as plain data.
///
/// # Examples
///
/// ```
/// use dcm_ntier::topology::ThreeTierBuilder;
/// use dcm_sim::time::SimDuration;
/// use dcm_workload::profile::ProfileFactory;
/// use dcm_workload::steady::SteadyRun;
///
/// // 20 closed-loop users on 1/1/1: 5 s of warm-up, a 10 s window.
/// let run = SteadyRun::new(
///     ThreeTierBuilder::new().nodes(),
///     20,
///     SimDuration::from_secs(5),
///     SimDuration::from_secs(10),
/// );
/// let window = run.run(ProfileFactory::rubbos());
/// let completed = window.world.system.counters().completed - window.counters.completed;
/// assert!(completed > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SteadyRun {
    /// The world's tiers, in order (node 0 is the entry tier).
    pub nodes: Vec<MeshNode>,
    /// The balancing policy of every tier.
    pub balancer: BalancerPolicy,
    /// The world RNG seed.
    pub seed: u64,
    /// Virtual users, each submitting its first request at time zero.
    pub users: u32,
    /// Users per cohort timer (1 is the per-user population).
    pub cohort_size: u32,
    /// The think time between a user's requests; `None` is a closed loop
    /// with zero think time.
    pub think: Option<Dist>,
    /// Settling time before the window opens.
    pub warmup: SimDuration,
    /// The measurement window's length.
    pub window: SimDuration,
    /// Run a [`ConservationAuditor`] from time zero to the window's close.
    pub audit: bool,
}

/// A [`SteadyRun`] at its window's close: the world, engine and population
/// as the run left them, and the marks taken when the window opened.
#[derive(Debug)]
pub struct SteadyWindow {
    /// The world, with every server's sample window opened at `start`
    /// (read it with `world.system.sample_all(end)`).
    pub world: World,
    /// The engine, stopped at `end`; running it further drains the users.
    pub engine: SimEngine,
    /// The users.
    pub population: CohortPopulation,
    /// When the window opened.
    pub start: SimTime,
    /// When the window closed.
    pub end: SimTime,
    /// The system counters when the window opened.
    pub counters: SystemCounters,
    /// The conservation audit from time zero to `end`, when the run asked
    /// for one.
    pub audit: Option<AuditReport>,
    /// Every span recorded from time zero to `end`; empty without audit.
    pub spans: Vec<Span>,
}

impl SteadyRun {
    /// `users` closed-loop users, one per cohort, on `nodes` with
    /// round-robin balancing and seed 1, measured over `window` after
    /// `warmup`, and nothing audited. Struct-update syntax sets the other
    /// fields.
    pub fn new(
        nodes: Vec<MeshNode>,
        users: u32,
        warmup: SimDuration,
        window: SimDuration,
    ) -> SteadyRun {
        SteadyRun {
            nodes,
            balancer: BalancerPolicy::RoundRobin,
            seed: 1,
            users,
            cohort_size: 1,
            think: None,
            warmup,
            window,
            audit: false,
        }
    }

    /// Builds the world, starts the users sending `factory`'s requests,
    /// runs the warm-up, opens the window (every server's sample window
    /// restarts, the counters are marked) and runs to the window's close,
    /// where the users stop submitting.
    ///
    /// # Panics
    ///
    /// Panics if there are no nodes or `cohort_size` is zero.
    pub fn run(&self, factory: ProfileFactory) -> SteadyWindow {
        let (mut world, mut engine) = self
            .nodes
            .iter()
            .cloned()
            .fold(MeshBuilder::new(), MeshBuilder::node)
            .balancer(self.balancer)
            .seed(self.seed)
            .build();
        let auditor = self.audit.then(|| {
            world.system.enable_tracing();
            ConservationAuditor::begin(&world.system, engine.now())
        });
        let start = SimTime::ZERO + self.warmup;
        let end = start + self.window;
        let population = CohortPopulation::start_with_think_dist(
            &mut world,
            &mut engine,
            factory,
            self.users,
            self.cohort_size,
            self.think.clone(),
            end,
        );
        engine.run_until(&mut world, start);
        let _ = world.system.sample_all(start);
        let counters = world.system.counters();
        engine.run_until(&mut world, end);
        let spans = if auditor.is_some() {
            world.system.take_spans()
        } else {
            Vec::new()
        };
        let audit = auditor.map(|auditor| auditor.finish(&world.system, &spans, end));
        SteadyWindow {
            world,
            engine,
            population,
            start,
            end,
            counters,
            audit,
            spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use dcm_ntier::topology::ThreeTierBuilder;

    fn closed_loop(users: u32) -> SteadyRun {
        SteadyRun::new(
            ThreeTierBuilder::new().nodes(),
            users,
            SimDuration::from_secs(5),
            SimDuration::from_secs(20),
        )
    }

    #[test]
    fn window_marks_open_at_the_warmup_and_close_at_the_window() {
        let mut w = SteadyRun {
            audit: true,
            ..closed_loop(10)
        }
        .run(ProfileFactory::rubbos());
        assert_eq!(w.start, SimTime::from_secs(5));
        assert_eq!(w.end, SimTime::from_secs(25));
        assert_eq!(w.engine.now(), w.end);
        assert!(w.counters.completed > 0, "the warm-up completed requests");
        // The servers' sample windows opened with the measurement window.
        let samples = w.world.system.sample_all(w.end);
        assert!(samples.iter().all(|s| s.window_start == w.start));
        // The audit covers the whole run and read every span.
        let audit = w.audit.expect("the run was audited");
        assert!(audit.is_clean(), "{}", audit.summary());
        assert_eq!(audit.window_start, SimTime::ZERO);
        assert_eq!(audit.spans_audited, w.spans.len());
        assert!(!w.spans.is_empty());
    }

    #[test]
    fn unaudited_runs_record_no_spans() {
        let w = closed_loop(4).run(ProfileFactory::rubbos());
        assert!(w.audit.is_none());
        assert!(w.spans.is_empty());
    }
}
