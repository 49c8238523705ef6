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
//! All three share one mechanism: a [`UserPopulation`] whose virtual users
//! run submit → (complete → think) cycles and lazily retire when the
//! population target drops.
//!
//! A population registers its state in the world's
//! [`ClientTable`](dcm_ntier::world::ClientTable). Think timers and
//! first-attempt completion callbacks are plain functions whose payload is
//! that table index, and each profile is sampled into a finished request's
//! recycled buffers, so a user cycle allocates nothing. Only client retries
//! (their backoff timer and the retried attempt's callback) use boxed
//! closures.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dcm_ntier::flow;
use dcm_ntier::request::{Completion, RequestProfile};
use dcm_ntier::world::{SimEngine, World};
use dcm_sim::dist::{Dist, Sample};
use dcm_sim::stats::TimeSeries;
use dcm_sim::time::{SimDuration, SimTime};

use crate::profile::WorkloadFactory;
use crate::traces::WorkloadTrace;

/// Client-side retry policy: a failed request (rejected, timed out, or
/// lost to a fault) is resubmitted after an exponential backoff, up to a
/// per-request attempt cap and a population-wide retry-token budget. The
/// budget bounds retry amplification: once the tokens run out, failures
/// surface to the virtual user instead of multiplying load on an already
/// degraded system.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
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

/// Shared state behind a [`UserPopulation`].
#[derive(Debug)]
struct PopState {
    factory: WorkloadFactory,
    think: Option<Dist>,
    think_multiplier: Option<Rc<Cell<f64>>>,
    stop_at: SimTime,
    target: u32,
    active: u32,
    log: Vec<Completion>,
    offered: TimeSeries,
    total_spawned: u64,
    retry: Option<RetryPolicy>,
    retry_budget_left: u64,
    retries_issued: u64,
    deadline: Option<SimDuration>,
}

/// A population of virtual users driving the system.
///
/// Cloning the handle shares the same population. Methods taking a world
/// must be given the world the population was started in.
///
/// # Examples
///
/// ```
/// use dcm_ntier::topology::ThreeTierBuilder;
/// use dcm_workload::generator::UserPopulation;
/// use dcm_workload::profile::ProfileFactory;
/// use dcm_sim::time::SimTime;
///
/// let (mut world, mut engine) = ThreeTierBuilder::new().build();
/// let pop = UserPopulation::start_closed_loop(
///     &mut world,
///     &mut engine,
///     ProfileFactory::rubbos(),
///     10,                       // 10 users, zero think time
///     SimTime::from_secs(5),    // stop submitting at t=5s
/// );
/// engine.run(&mut world);
/// assert!(pop.completion_count() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct UserPopulation {
    inner: Rc<RefCell<PopState>>,
    /// The population's index in its world's client table.
    client: u32,
}

impl UserPopulation {
    /// Starts a closed-loop (zero think time) population of `users`
    /// clients; no new requests are issued at or after `stop_at`.
    pub fn start_closed_loop(
        world: &mut World,
        engine: &mut SimEngine,
        factory: impl Into<WorkloadFactory>,
        users: u32,
        stop_at: SimTime,
    ) -> Self {
        Self::start(world, engine, factory, None, users, stop_at)
    }

    /// Starts a think-time population (the RUBBoS client): users pause for
    /// an exponential think time with the given mean between requests.
    ///
    /// # Panics
    ///
    /// Panics if `mean_think_secs <= 0`.
    pub fn start_think_time(
        world: &mut World,
        engine: &mut SimEngine,
        factory: impl Into<WorkloadFactory>,
        users: u32,
        mean_think_secs: f64,
        stop_at: SimTime,
    ) -> Self {
        Self::start(
            world,
            engine,
            factory,
            Some(Dist::exponential_mean(mean_think_secs)),
            users,
            stop_at,
        )
    }

    /// Starts a population with an explicit think-time distribution
    /// (`None` = closed loop). Delay terminals are insensitive to the think
    /// distribution in product-form networks, so the conformance harness
    /// uses a constant think time here to cut measurement variance without
    /// leaving the model class.
    pub fn start_with_think_dist(
        world: &mut World,
        engine: &mut SimEngine,
        factory: impl Into<WorkloadFactory>,
        users: u32,
        think: Option<Dist>,
        stop_at: SimTime,
    ) -> Self {
        Self::start(world, engine, factory, think, users, stop_at)
    }

    /// Like [`UserPopulation::start_think_time`], with an optional shared
    /// think-time multiplier cell (see
    /// [`crate::burstiness::MmppModulator`]) applied to every sampled
    /// think time — the burstiness-injection hook.
    ///
    /// # Panics
    ///
    /// Panics if `mean_think_secs <= 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn start_think_time_modulated(
        world: &mut World,
        engine: &mut SimEngine,
        factory: impl Into<WorkloadFactory>,
        users: u32,
        mean_think_secs: f64,
        think_multiplier: Option<Rc<Cell<f64>>>,
        stop_at: SimTime,
    ) -> Self {
        let pop = Self::start(
            world,
            engine,
            factory,
            Some(Dist::exponential_mean(mean_think_secs)),
            users,
            stop_at,
        );
        pop.inner.borrow_mut().think_multiplier = think_multiplier;
        pop
    }

    /// Starts a trace-driven population: the user target follows `trace`
    /// (think time as given), stopping at `stop_at`.
    pub fn start_trace_driven(
        world: &mut World,
        engine: &mut SimEngine,
        factory: impl Into<WorkloadFactory>,
        trace: &WorkloadTrace,
        mean_think_secs: f64,
        stop_at: SimTime,
    ) -> Self {
        let initial = trace.users_at(SimTime::ZERO);
        let pop = Self::start(
            world,
            engine,
            factory,
            Some(Dist::exponential_mean(mean_think_secs)),
            initial,
            stop_at,
        );
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

    fn start(
        world: &mut World,
        engine: &mut SimEngine,
        factory: impl Into<WorkloadFactory>,
        think: Option<Dist>,
        users: u32,
        stop_at: SimTime,
    ) -> Self {
        let mut offered = TimeSeries::new();
        offered.push(engine.now(), f64::from(users));
        let inner = Rc::new(RefCell::new(PopState {
            factory: factory.into(),
            think,
            think_multiplier: None,
            stop_at,
            target: users,
            active: 0,
            log: Vec::new(),
            offered,
            total_spawned: 0,
            retry: None,
            retry_budget_left: 0,
            retries_issued: 0,
            deadline: None,
        }));
        let client = world.clients.register(Rc::clone(&inner));
        let pop = UserPopulation { inner, client };
        pop.spawn_to_target(world, engine);
        pop
    }

    /// Changes the user target; new users spawn immediately, surplus users
    /// retire lazily at the end of their current cycle (as real users
    /// leave after their in-flight page load).
    pub fn set_target(&self, world: &mut World, engine: &mut SimEngine, users: u32) {
        {
            let mut st = self.inner.borrow_mut();
            st.target = users;
            let now = engine.now();
            st.offered.push(now, f64::from(users));
        }
        self.spawn_to_target(world, engine);
    }

    fn spawn_to_target(&self, world: &mut World, engine: &mut SimEngine) {
        loop {
            {
                let mut st = self.inner.borrow_mut();
                if st.active >= st.target || engine.now() >= st.stop_at {
                    return;
                }
                st.active += 1;
                st.total_spawned += 1;
            }
            user_cycle(world, engine, u64::from(self.client));
        }
    }

    /// Currently active virtual users.
    pub fn active_users(&self) -> u32 {
        self.inner.borrow().active
    }

    /// The population target currently in effect.
    pub fn target_users(&self) -> u32 {
        self.inner.borrow().target
    }

    /// Total users ever spawned.
    pub fn total_spawned(&self) -> u64 {
        self.inner.borrow().total_spawned
    }

    /// Number of recorded completions (including rejections).
    pub fn completion_count(&self) -> usize {
        self.inner.borrow().log.len()
    }

    /// A copy of the completion log.
    pub fn completions(&self) -> Vec<Completion> {
        self.inner.borrow().log.clone()
    }

    /// Moves the completion log out, leaving it empty — for a caller done
    /// with the population, which need not pay for a copy.
    pub fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut self.inner.borrow_mut().log)
    }

    /// Runs `f` over the completion log without copying.
    pub fn with_completions<R>(&self, f: impl FnOnce(&[Completion]) -> R) -> R {
        f(&self.inner.borrow().log)
    }

    /// The offered-load (target users) series, one point per change.
    pub fn offered_series(&self) -> TimeSeries {
        self.inner.borrow().offered.clone()
    }

    /// Enables client-side retry for every user of this population.
    /// Applies to requests whose *completion* arrives after the call, so
    /// configure it right after `start_*`, before running the engine. The
    /// completion logged for a retried request carries the *first*
    /// attempt's submission time (client-perceived latency), and only the
    /// final attempt is logged.
    pub fn set_client_retry(&self, policy: RetryPolicy) {
        let mut st = self.inner.borrow_mut();
        st.retry_budget_left = policy.budget;
        st.retry = Some(policy);
    }

    /// Sets a per-request client deadline: requests not finished within
    /// `deadline` are abandoned (and, with a retry policy, retried).
    /// Applies to requests submitted after the call.
    pub fn set_request_deadline(&self, deadline: SimDuration) {
        self.inner.borrow_mut().deadline = Some(deadline);
    }

    /// Retries issued so far (each consumed one budget token).
    pub fn retries_issued(&self) -> u64 {
        self.inner.borrow().retries_issued
    }

    /// Retry-budget tokens remaining.
    pub fn retry_budget_left(&self) -> u64 {
        self.inner.borrow().retry_budget_left
    }
}

/// The population behind a client-table index.
fn population(world: &World, client: u64) -> Rc<RefCell<PopState>> {
    world
        .clients
        .get(u32::try_from(client).expect("client payloads hold a u32 index"))
}

/// One user's submit → complete → think loop: the think-timer event
/// (payload: the population's client index).
fn user_cycle(world: &mut World, engine: &mut SimEngine, client: u64) {
    let state = population(world, client);
    let (profile, deadline) = {
        let mut st = state.borrow_mut();
        if engine.now() >= st.stop_at || st.active > st.target {
            // Stop condition or population shrank: retire this user.
            st.active -= 1;
            return;
        }
        let spare = world.system.recycled_profile();
        let profile = st.factory.sample_reusing(&mut world.rng, spare);
        (profile, st.deadline)
    };
    flow::submit_fn(world, engine, profile, deadline, first_attempt_done, client);
}

/// Completion callback of a logical request's first attempt (payload: the
/// population's client index).
fn first_attempt_done(world: &mut World, engine: &mut SimEngine, done: Completion, client: u64) {
    attempt_done(world, engine, done, client, 1, None);
}

/// Submits a retry of a logical request: attempt `attempt` of `profile`,
/// first submitted at `first`. Retries are rare, so the callback carrying
/// the attempt number and first submission time is a boxed closure.
fn submit_retry(
    world: &mut World,
    engine: &mut SimEngine,
    client: u64,
    profile: RequestProfile,
    attempt: u32,
    first: SimTime,
) {
    let deadline = population(world, client).borrow().deadline;
    let callback: dcm_ntier::system::CompletionCallback =
        Box::new(move |w: &mut World, e: &mut SimEngine, done: Completion| {
            attempt_done(w, e, done, client, attempt, Some(first));
        });
    match deadline {
        Some(d) => {
            flow::submit_with_deadline(world, engine, profile, d, callback);
        }
        None => {
            flow::submit(world, engine, profile, callback);
        }
    }
}

/// One attempt of a logical request finished. On a non-success outcome
/// with retry attempts and budget remaining, the same profile (handed back
/// by the system) is resubmitted after an exponential backoff; otherwise
/// the (final) completion is logged — stamped with the first attempt's
/// submission time, so reports measure client-perceived latency — and the
/// user moves on to thinking.
fn attempt_done(
    w: &mut World,
    e: &mut SimEngine,
    completion: Completion,
    client: u64,
    attempt: u32,
    first_submitted: Option<SimTime>,
) {
    let state = population(w, client);
    let first = first_submitted.unwrap_or(completion.submitted);
    let backoff = {
        let mut st = state.borrow_mut();
        match st.retry {
            Some(policy)
                if !completion.is_success()
                    && attempt < policy.max_attempts
                    && st.retry_budget_left > 0
                    && e.now() < st.stop_at =>
            {
                st.retry_budget_left -= 1;
                st.retries_issued += 1;
                Some(policy.base_backoff_secs * policy.backoff_multiplier.powi(attempt as i32 - 1))
            }
            _ => None,
        }
    };
    if let Some(backoff_secs) = backoff {
        let profile = w
            .system
            .take_finished_profile()
            .expect("a completion callback is handed its request's profile");
        e.schedule_in(
            SimDuration::from_secs_f64(backoff_secs),
            move |w: &mut World, e: &mut SimEngine| {
                submit_retry(w, e, client, profile, attempt + 1, first);
            },
        );
        return;
    }
    let think_delay = {
        let mut st = state.borrow_mut();
        st.log.push(Completion {
            submitted: first,
            ..completion
        });
        let base = st
            .think
            .as_ref()
            .map(|d| d.sample(&mut w.rng))
            .unwrap_or(0.0);
        let multiplier = st.think_multiplier.as_ref().map_or(1.0, |cell| cell.get());
        base * multiplier
    };
    // Zero think time still goes through the queue (as the next same-time
    // event) instead of recursing, so long closed-loop runs keep a flat
    // stack.
    let wake = if think_delay > 0.0 {
        e.now() + SimDuration::from_secs_f64(think_delay)
    } else {
        e.now()
    };
    e.schedule_fn_at(wake, user_cycle, client);
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
        let pop = UserPopulation::start_closed_loop(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos_deterministic(),
            5,
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
            let pop = match think {
                Some(z) => UserPopulation::start_think_time(
                    &mut world,
                    &mut engine,
                    ProfileFactory::rubbos(),
                    20,
                    z,
                    SimTime::from_secs(60),
                ),
                None => UserPopulation::start_closed_loop(
                    &mut world,
                    &mut engine,
                    ProfileFactory::rubbos(),
                    20,
                    SimTime::from_secs(60),
                ),
            };
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
        let pop = UserPopulation::start_trace_driven(
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
        let pop = UserPopulation::start_trace_driven(
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
        let pop = UserPopulation::start_trace_driven(
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
