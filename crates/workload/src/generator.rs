//! Client emulators driving the n-tier system.
//!
//! Three generators reproduce the paper's three workload tools:
//!
//! * **Closed-loop, zero think time** (`Jmeter`): a fixed number of virtual
//!   users each keep exactly one request in flight, so offered concurrency
//!   equals the user count — the training-phase workload.
//! * **Think-time clients** (original RUBBoS generator): users wait an
//!   exponential think time (mean 3 s) between requests — the validation
//!   workload.
//! * **Trace-driven clients** (revised RUBBoS emulator): the active user
//!   population follows a [`WorkloadTrace`]
//!   —
//!   the bursty Fig. 5 workload.
//!
//! All three are presets of one mechanism: a [`CohortPopulation`] with
//! cohort size 1, whose virtual users each run submit → (complete → think)
//! cycles on their own timer and lazily retire when the population target
//! drops. The first two run on a fixed world, as a
//! [`SteadyRun`](crate::steady::SteadyRun) with no think time or an
//! exponential one; [`UserPopulation`] names the population type.

use dcm_ntier::request::Completion;
use dcm_ntier::world::{SimEngine, World};
use dcm_sim::dist::Dist;
use dcm_sim::stats::TimeSeries;
use dcm_sim::time::SimTime;

use crate::cohort::CohortPopulation;
use crate::profile::ProfileFactory;
use crate::traces::WorkloadTrace;

/// Client-side retry policy: a failed request (rejected, timed out, or
/// lost to a fault) is resubmitted after an exponential backoff, up to a
/// per-request attempt cap and a population-wide retry-token budget. The
/// budget bounds retry amplification: once the tokens run out, failures
/// surface to the virtual user instead of multiplying load on an already
/// degraded system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per logical request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in seconds.
    pub base_backoff_secs: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_multiplier: f64,
    /// Population-wide retry-token budget (each retry consumes one).
    pub budget: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_secs: 0.5,
            backoff_multiplier: 2.0,
            budget: 10_000,
        }
    }
}

/// The per-user population: [`CohortPopulation`] under the name the
/// per-user presets were first published with.
///
/// # Examples
///
/// ```
/// use dcm_ntier::topology::ThreeTierBuilder;
/// use dcm_workload::cohort::CohortPopulation;
/// use dcm_workload::profile::ProfileFactory;
/// use dcm_sim::time::SimTime;
///
/// let (mut world, mut engine) = ThreeTierBuilder::new().build();
/// let pop = CohortPopulation::start_with_think_dist(
///     &mut world,
///     &mut engine,
///     ProfileFactory::rubbos(),
///     10,                       // 10 users ...
///     1,                        // ... one per cohort
///     None,                     // zero think time
///     SimTime::from_secs(5),    // stop submitting at t=5s
/// );
/// engine.run(&mut world);
/// assert!(pop.completion_count() > 0);
/// ```
pub type UserPopulation = CohortPopulation;

/// The per-user presets (cohort size 1) and the end-of-run copies.
impl CohortPopulation {
    /// Starts a trace-driven population, one user per cohort: the user
    /// target follows `trace` (exponential think time with the given
    /// mean), stopping at `stop_at`.
    ///
    /// # Panics
    ///
    /// Panics if `mean_think_secs <= 0`.
    pub fn start_trace_driven(
        world: &mut World,
        engine: &mut SimEngine,
        factory: ProfileFactory,
        trace: &WorkloadTrace,
        mean_think_secs: f64,
        stop_at: SimTime,
    ) -> Self {
        let initial = trace.users_at(SimTime::ZERO);
        let think = Some(Dist::exponential_mean(mean_think_secs));
        let pop = Self::start_with_think_dist(world, engine, factory, initial, 1, think, stop_at);
        for &(at, users) in trace.points().iter().skip(1) {
            if at >= stop_at {
                break;
            }
            let handle = pop.clone();
            engine.schedule_at(at, move |w: &mut World, e: &mut SimEngine| {
                handle.set_target(w, e, users);
            });
        }
        pop
    }

    /// A copy of the completion log.
    pub fn completions(&self) -> Vec<Completion> {
        self.with_completions(<[Completion]>::to_vec)
    }

    /// The offered-load (target users) series, one point per change.
    pub fn offered_series(&self) -> TimeSeries {
        self.inner.borrow().offered.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::profile::ProfileFactory;
    use crate::traces;
    use dcm_ntier::topology::ThreeTierBuilder;

    #[test]
    fn closed_loop_keeps_concurrency_at_user_count() {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(2).build();
        let pop = CohortPopulation::start_with_think_dist(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos_deterministic(),
            5,
            1,
            None,
            SimTime::from_secs(30),
        );
        engine.run(&mut world);
        assert_eq!(pop.active_users(), 0, "users retired at stop");
        // In-flight never exceeded 5 => submitted == completed and the
        // system never queued more than 5 at the web tier.
        let c = world.system.counters();
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.completed as usize, pop.completion_count());
        assert!(c.completed > 100, "5 users for 30 s complete many requests");
    }

    #[test]
    fn think_time_population_offers_less_load() {
        let run = |think: Option<f64>| {
            let (mut world, mut engine) = ThreeTierBuilder::new().seed(3).build();
            let pop = CohortPopulation::start_with_think_dist(
                &mut world,
                &mut engine,
                ProfileFactory::rubbos(),
                20,
                1,
                think.map(Dist::exponential_mean),
                SimTime::from_secs(60),
            );
            engine.run(&mut world);
            pop.completion_count()
        };
        let with_think = run(Some(3.0));
        let without = run(None);
        assert!(
            without > with_think * 3,
            "zero think {without} vs 3s think {with_think}"
        );
    }

    #[test]
    fn trace_driven_population_follows_target() {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(4).build();
        let trace = traces::step(5, 25, 10.0);
        let pop = CohortPopulation::start_trace_driven(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            &trace,
            1.0,
            SimTime::from_secs(30),
        );
        engine.run_until(&mut world, SimTime::from_secs(5));
        assert_eq!(pop.target_users(), 5);
        assert!(pop.active_users() <= 5);
        engine.run_until(&mut world, SimTime::from_secs(12));
        assert_eq!(pop.target_users(), 25);
        assert_eq!(pop.active_users(), 25);
        engine.run(&mut world);
        assert_eq!(pop.active_users(), 0);
        assert!(pop.total_spawned() >= 25);
    }

    #[test]
    fn shrinking_target_retires_users_lazily() {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(5).build();
        let trace = traces::WorkloadTrace::from_points(vec![(0.0, 20), (5.0, 2)]).unwrap();
        let pop = CohortPopulation::start_trace_driven(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            &trace,
            0.5,
            SimTime::from_secs(40),
        );
        engine.run_until(&mut world, SimTime::from_secs(20));
        assert_eq!(pop.target_users(), 2);
        assert!(
            pop.active_users() <= 2,
            "population drained to target, still {}",
            pop.active_users()
        );
    }

    #[test]
    fn offered_series_tracks_changes() {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(6).build();
        let trace = traces::step(3, 9, 4.0);
        let pop = CohortPopulation::start_trace_driven(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            &trace,
            1.0,
            SimTime::from_secs(10),
        );
        engine.run(&mut world);
        let series = pop.offered_series();
        let values: Vec<f64> = series.iter().map(|(_, v)| v).collect();
        assert_eq!(values, vec![3.0, 9.0]);
    }
}
