//! Closed-loop virtual users multiplexed onto per-cohort timers: the one
//! population state machine behind every workload generator.
//!
//! A [`CohortPopulation`] drives the submit → complete → think cycle of
//! its virtual users. Users are partitioned into cohorts of `cohort_size`:
//! member *k* (in spawn order) joins cohort *k / cohort_size*. Each cohort
//! keeps a private min-heap of member wake-up times and arms **one**
//! engine event for the earliest of them. When that event fires, every
//! member due at or before the firing time submits in wake-up order, and
//! the timer re-arms for the next due member. The event-queue footprint is
//! thus `O(users / cohort_size)` instead of `O(users)` — at a million users
//! with 256-user cohorts the event queue holds ~4 k population timers
//! instead of a million.
//!
//! ## A per-user population is a cohort of one
//!
//! With `cohort_size == 1` each cohort holds one member, and its timer is
//! that member's think-time event: every wake-up is one `schedule_fn_at`
//! at the member's due instant, with no cancels. The per-user generators
//! ([`crate::generator`]) are this case.
//!
//! For larger cohorts, members whose wake-ups share a firing batch submit
//! in due order rather than each from its own event, which permutes RNG
//! draw order across members: sample paths differ from the per-user run,
//! but the stationary distribution does not — `repro validate` checks the
//! aggregated DES against exact MVA under the same 2 % / 5 % gates as the
//! per-user DES.
//!
//! Every population, whatever its cohort size, supports the trace-driven
//! target ([`CohortPopulation::set_target`]: new members are appended,
//! surplus members retire lazily at the end of their cycle), client retry
//! with a shared token budget, a per-request deadline, the offered-load
//! series, the optional completion log and the aggregate [`CohortStats`].
//!
//! A population registers its state in the world's
//! [`ClientTable`](dcm_ntier::world::ClientTable): cohort timers and
//! completion callbacks are plain functions whose payload packs the table
//! index and the cohort index, and profiles are sampled into recycled
//! buffers, so a member's cycle allocates nothing. A client retry waits in
//! a reused slot of the population's retry table, and its backoff timer
//! and completion callback address that slot the same way, so retrying
//! allocates nothing either.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use dcm_ntier::flow;
use dcm_ntier::request::{Completion, RequestProfile};
use dcm_ntier::world::{SimEngine, World};
use dcm_sim::dist::{Dist, Sample};
use dcm_sim::engine::EventId;
use dcm_sim::stats::TimeSeries;
use dcm_sim::time::{SimDuration, SimTime};

use crate::generator::RetryPolicy;
use crate::profile::ProfileFactory;

/// One cohort: a min-heap of member wake-up times and the single engine
/// timer armed for the earliest of them. The heap holds
/// [`SimTime::key`]`(at, seq)`: the `seq` tie-breaker keeps members due at
/// the same instant in FIFO wake-up order, mirroring the engine's own
/// `(time, seq)` contract.
#[derive(Debug)]
struct Cohort {
    due: BinaryHeap<Reverse<u128>>,
    seq: u64,
    timer: Option<EventId>,
    timer_at: SimTime,
}

impl Cohort {
    fn new() -> Self {
        Cohort {
            due: BinaryHeap::new(),
            seq: 0,
            timer: None,
            timer_at: SimTime::ZERO,
        }
    }

    fn push(&mut self, at: SimTime) {
        let seq = self.seq;
        self.seq += 1;
        self.due.push(Reverse(at.key(seq)));
    }

    /// The earliest member wake-up time, if any member is thinking.
    fn next_due(&self) -> Option<SimTime> {
        self.due.peek().map(|&Reverse(key)| SimTime::from_key(key))
    }

    /// Ensures the timer (`payload` addresses this cohort) is armed for
    /// the earliest due member, re-arming only when a new wake-up undercuts
    /// the current timer, so the common completion path costs one heap
    /// push and a comparison.
    fn rearm(&mut self, engine: &mut SimEngine, payload: u64) {
        let Some(at) = self.next_due() else {
            return;
        };
        match self.timer {
            Some(_) if self.timer_at <= at => return,
            Some(stale) => {
                engine.cancel(stale);
            }
            None => {}
        }
        self.timer = Some(engine.schedule_fn_at(at, cohort_fire, payload));
        self.timer_at = at;
    }
}

/// Aggregate response-time statistics over the logical requests (a
/// retried request counts once, from its first submission), maintained
/// even when the full completion log is disabled (fleet runs keep memory
/// flat by skipping the log).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CohortStats {
    /// Completions observed (any outcome).
    pub completed: u64,
    /// Completions with a success outcome.
    pub succeeded: u64,
    /// Sum of response times over all completions (seconds).
    pub response_sum: f64,
    /// Largest single response time (seconds).
    pub response_max: f64,
}

impl CohortStats {
    /// Mean response time over all completions (0 when none).
    pub fn response_mean(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.response_sum / self.completed as f64
        }
    }
}

/// Shared state behind a [`CohortPopulation`].
#[derive(Debug)]
pub(crate) struct PopState {
    factory: ProfileFactory,
    think: Option<Dist>,
    stop_at: SimTime,
    cohort_size: u32,
    target: u32,
    active: u32,
    log: Vec<Completion>,
    log_enabled: bool,
    stats: CohortStats,
    pub(crate) offered: TimeSeries,
    total_spawned: u64,
    retry: Option<RetryPolicy>,
    retry_budget_left: u64,
    retries_issued: u64,
    deadline: Option<SimDuration>,
    cohorts: Vec<Cohort>,
    /// Client retries from their backoff to their completion, by slot.
    retries: Vec<Option<PendingRetry>>,
    /// The free slots of `retries`.
    free_retries: Vec<u32>,
}

/// A client retry between its backoff and its completion.
#[derive(Debug)]
struct PendingRetry {
    /// The request's profile, until the backoff ends and it is resubmitted.
    profile: Option<RequestProfile>,
    /// The retry's attempt number (2 for the first retry).
    attempt: u32,
    /// When the logical request's first attempt was submitted.
    first: SimTime,
    /// The cohort of the member whose request this is.
    cohort: u32,
}

impl PopState {
    /// The cohort the `member`-th spawned member joins, appended when it
    /// is new.
    fn join_cohort(&mut self, member: u64) -> u32 {
        let cohort = member / u64::from(self.cohort_size);
        let cohort = u32::try_from(cohort).expect("fewer than 2^32 cohorts");
        if cohort as usize == self.cohorts.len() {
            self.cohorts.push(Cohort::new());
        }
        cohort
    }

    /// Parks `retry` in a free slot of the retry table and returns the slot.
    fn park_retry(&mut self, retry: PendingRetry) -> u32 {
        match self.free_retries.pop() {
            Some(slot) => {
                self.retries[slot as usize] = Some(retry);
                slot
            }
            None => {
                let slot = u32::try_from(self.retries.len()).expect("fewer than 2^32 retries");
                self.retries.push(Some(retry));
                slot
            }
        }
    }
}

/// A population of virtual users multiplexed onto per-cohort timers.
///
/// Cloning the handle shares the same population. Methods taking a world
/// must be given the world the population was started in.
///
/// # Examples
///
/// ```
/// use dcm_ntier::topology::ThreeTierBuilder;
/// use dcm_workload::cohort::CohortPopulation;
/// use dcm_workload::profile::ProfileFactory;
/// use dcm_sim::dist::Dist;
/// use dcm_sim::time::SimTime;
///
/// let (mut world, mut engine) = ThreeTierBuilder::new().build();
/// let pop = CohortPopulation::start_with_think_dist(
///     &mut world,
///     &mut engine,
///     ProfileFactory::rubbos(),
///     40,                             // 40 users ...
///     8,                              // ... in cohorts of 8
///     Some(Dist::exponential_mean(0.5)),
///     SimTime::from_secs(5),
/// );
/// engine.run(&mut world);
/// assert!(pop.completion_count() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct CohortPopulation {
    pub(crate) inner: Rc<RefCell<PopState>>,
    /// The population's index in its world's client table.
    client: u32,
}

impl CohortPopulation {
    /// Starts `users` clients in cohorts of `cohort_size`, each submitting
    /// its first request immediately; `think = None` is a closed loop. No
    /// new requests are issued at or after `stop_at`.
    ///
    /// `cohort_size > users` collapses to a single cohort holding everyone
    /// and is bit-identical to `cohort_size == users`; a non-dividing
    /// `cohort_size` leaves the last cohort short by the remainder.
    ///
    /// Delay terminals are insensitive to the think distribution in
    /// product-form networks, so the conformance harness uses a constant
    /// think time here to cut measurement variance without leaving the
    /// model class.
    ///
    /// # Panics
    ///
    /// Panics if `cohort_size == 0`.
    pub fn start_with_think_dist(
        world: &mut World,
        engine: &mut SimEngine,
        factory: ProfileFactory,
        users: u32,
        cohort_size: u32,
        think: Option<Dist>,
        stop_at: SimTime,
    ) -> Self {
        let pop = Self::build(world, engine, factory, think, users, cohort_size, stop_at);
        pop.spawn_to_target(world, engine);
        pop
    }

    /// Starts `users` clients in cohorts of `cohort_size`, each beginning
    /// in its *think* phase: the first submission lands after one sampled
    /// think time instead of at the start instant. Fleet-scale runs use
    /// this to avoid a synchronized burst of a million requests at `t = 0`
    /// (the closed network reaches the same steady state either way).
    ///
    /// Edge cases follow [`Self::start_with_think_dist`]: oversized
    /// cohorts collapse to one, remainders shorten the last cohort.
    ///
    /// # Panics
    ///
    /// Panics if `cohort_size == 0`.
    pub fn start_staggered(
        world: &mut World,
        engine: &mut SimEngine,
        factory: ProfileFactory,
        users: u32,
        cohort_size: u32,
        think: Dist,
        stop_at: SimTime,
    ) -> Self {
        let pop = Self::build(
            world,
            engine,
            factory,
            Some(think),
            users,
            cohort_size,
            stop_at,
        );
        let now = engine.now();
        {
            let mut st = pop.inner.borrow_mut();
            st.active = users;
            st.total_spawned = u64::from(users);
            for member in 0..users {
                let delay = st
                    .think
                    .as_ref()
                    .expect("staggered start has a think dist")
                    .sample(&mut world.rng);
                let due = now + SimDuration::from_secs_f64(delay);
                let cohort = st.join_cohort(u64::from(member));
                st.cohorts[cohort as usize].push(due);
            }
            for (index, cohort) in (0..).zip(st.cohorts.iter_mut()) {
                cohort.rearm(engine, payload(pop.client, index));
            }
        }
        pop
    }

    fn build(
        world: &mut World,
        engine: &SimEngine,
        factory: ProfileFactory,
        think: Option<Dist>,
        users: u32,
        cohort_size: u32,
        stop_at: SimTime,
    ) -> Self {
        assert!(cohort_size > 0, "cohort size must be positive");
        let mut offered = TimeSeries::new();
        offered.push(engine.now(), f64::from(users));
        let inner = Rc::new(RefCell::new(PopState {
            factory,
            think,
            stop_at,
            cohort_size,
            target: users,
            active: 0,
            log: Vec::new(),
            log_enabled: true,
            stats: CohortStats::default(),
            offered,
            total_spawned: 0,
            retry: None,
            retry_budget_left: 0,
            retries_issued: 0,
            deadline: None,
            cohorts: Vec::new(),
            retries: Vec::new(),
            free_retries: Vec::new(),
        }));
        let client = world.clients.register(Rc::clone(&inner));
        CohortPopulation { inner, client }
    }

    /// Changes the user target; new members spawn immediately (joining
    /// cohorts by spawn order, new cohorts appended as needed), surplus
    /// members retire lazily at the end of their current cycle (as real
    /// users leave after their in-flight page load).
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
            let cohort = {
                let mut st = self.inner.borrow_mut();
                if st.active >= st.target || engine.now() >= st.stop_at {
                    return;
                }
                let member = st.total_spawned;
                st.active += 1;
                st.total_spawned += 1;
                st.join_cohort(member)
            };
            wake_member(&self.inner, world, engine, payload(self.client, cohort));
        }
    }

    /// Disables the per-completion log (aggregate [`CohortStats`] are
    /// still maintained). Fleet runs with millions of users call this
    /// right after `start_*` to keep memory flat.
    pub fn disable_log(&self) {
        self.inner.borrow_mut().log_enabled = false;
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

    /// Number of logical requests completed (any outcome; counted even
    /// after [`Self::disable_log`]).
    pub fn completion_count(&self) -> usize {
        self.inner.borrow().stats.completed as usize
    }

    /// Runs `f` over the completion log without copying (the log is empty
    /// after [`Self::disable_log`]).
    pub fn with_completions<R>(&self, f: impl FnOnce(&[Completion]) -> R) -> R {
        f(&self.inner.borrow().log)
    }

    /// Moves the completion log out, leaving it empty — for a caller done
    /// with the population, which need not pay for a copy.
    pub fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut self.inner.borrow_mut().log)
    }

    /// Aggregate response-time statistics.
    pub fn stats(&self) -> CohortStats {
        self.inner.borrow().stats
    }

    /// Retries issued so far (each consumed one budget token).
    pub fn retries_issued(&self) -> u64 {
        self.inner.borrow().retries_issued
    }
}

/// The fn-event payload addressing entry `index` (a cohort, or a pending
/// retry's slot) of the population registered at `client`.
fn payload(client: u32, index: u32) -> u64 {
    (u64::from(client) << 32) | u64::from(index)
}

/// The client-table index of the population a [`payload`] addresses.
fn client_of(payload: u64) -> u32 {
    (payload >> 32) as u32
}

/// The cohort or retry slot a [`payload`] addresses.
fn index_of(payload: u64) -> usize {
    payload as u32 as usize
}

/// The population a [`payload`] addresses.
fn population(world: &World, payload: u64) -> Rc<RefCell<PopState>> {
    world.clients.get(client_of(payload))
}

/// One member of the payload's cohort wakes up *now*: retire it if the run
/// is over or the population shrank, otherwise sample a profile and
/// submit.
fn wake_member(state: &RefCell<PopState>, world: &mut World, engine: &mut SimEngine, payload: u64) {
    let (profile, deadline) = {
        let mut st = state.borrow_mut();
        if engine.now() >= st.stop_at || st.active > st.target {
            st.active -= 1;
            return;
        }
        let spare = world.system.recycled_profile();
        let profile = st.factory.sample_reusing(&mut world.rng, spare);
        (profile, st.deadline)
    };
    flow::submit(world, engine, profile, deadline, member_done, payload);
}

/// Completion callback of a logical request's first attempt.
fn member_done(w: &mut World, e: &mut SimEngine, completion: Completion, payload: u64) {
    attempt_done(w, e, completion, payload, 1, None);
}

/// The backoff of the retry in the payload's slot ended: resubmit its
/// profile.
fn retry_fire(world: &mut World, engine: &mut SimEngine, payload: u64) {
    let (profile, deadline) = {
        let state = population(world, payload);
        let mut st = state.borrow_mut();
        let profile = st.retries[index_of(payload)]
            .as_mut()
            .and_then(|retry| retry.profile.take())
            .expect("a pending retry is resubmitted once");
        (profile, st.deadline)
    };
    flow::submit(world, engine, profile, deadline, retry_done, payload);
}

/// Completion callback of the retry in the payload's slot: frees the slot
/// and hands the completion on as its attempt's.
fn retry_done(w: &mut World, e: &mut SimEngine, completion: Completion, payload: u64) {
    let slot = index_of(payload);
    let retry = {
        let state = population(w, payload);
        let mut st = state.borrow_mut();
        let retry = st.retries[slot]
            .take()
            .expect("a retry's events address its pending slot");
        st.free_retries.push(slot as u32);
        retry
    };
    let member = self::payload(client_of(payload), retry.cohort);
    attempt_done(w, e, completion, member, retry.attempt, Some(retry.first));
}

/// One attempt of a logical request of the payload's cohort finished. On a
/// non-success outcome with retry attempts and budget remaining, the same
/// profile (handed back by the system) waits in the retry table and is
/// resubmitted after an exponential backoff; otherwise the (final)
/// completion is recorded — stamped with the first attempt's submission
/// time, so reports measure client-perceived latency — and the member
/// thinks: its wake-up is queued in its cohort.
fn attempt_done(
    w: &mut World,
    e: &mut SimEngine,
    completion: Completion,
    payload: u64,
    attempt: u32,
    first_submitted: Option<SimTime>,
) {
    let state = population(w, payload);
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
        let slot = state.borrow_mut().park_retry(PendingRetry {
            profile: Some(profile),
            attempt: attempt + 1,
            first,
            cohort: index_of(payload) as u32,
        });
        let at = e.now() + SimDuration::from_secs_f64(backoff_secs);
        e.schedule_fn_at(at, retry_fire, self::payload(client_of(payload), slot));
        return;
    }
    let mut st = state.borrow_mut();
    let completion = Completion {
        submitted: first,
        ..completion
    };
    st.stats.completed += 1;
    if completion.is_success() {
        st.stats.succeeded += 1;
    }
    let rt = completion.response_time().as_secs_f64();
    st.stats.response_sum += rt;
    st.stats.response_max = st.stats.response_max.max(rt);
    if st.log_enabled {
        st.log.push(completion);
    }
    let think = st
        .think
        .as_ref()
        .map(|d| d.sample(&mut w.rng))
        .unwrap_or(0.0);
    // Zero think time still goes through the queue (as the next
    // same-time event) instead of recursing, so long closed-loop runs
    // keep a flat stack.
    let due = e.now() + SimDuration::from_secs_f64(think);
    let cohort = &mut st.cohorts[index_of(payload)];
    cohort.push(due);
    cohort.rearm(e, payload);
}

/// The armed timer of the payload's cohort fired: wake every member due
/// at or before now (collected *before* any submission, so reentrant
/// completions — a rejected request completes synchronously — extend the
/// heap without extending this batch), then re-arm for the next due
/// member.
fn cohort_fire(world: &mut World, engine: &mut SimEngine, payload: u64) {
    let state = population(world, payload);
    let cohort = index_of(payload);
    let now = engine.now();
    let batch = {
        let mut st = state.borrow_mut();
        let c = &mut st.cohorts[cohort];
        c.timer = None;
        let mut batch = 0u32;
        while c.next_due().is_some_and(|at| at <= now) {
            c.due.pop();
            batch += 1;
        }
        batch
    };
    for _ in 0..batch {
        wake_member(&state, world, engine, payload);
    }
    state.borrow_mut().cohorts[cohort].rearm(engine, payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    use dcm_ntier::topology::ThreeTierBuilder;

    fn run_cohort(
        seed: u64,
        users: u32,
        cohort_size: u32,
        think: Option<Dist>,
    ) -> (Vec<Completion>, u64) {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(seed).build();
        let pop = CohortPopulation::start_with_think_dist(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            users,
            cohort_size,
            think,
            SimTime::from_secs(20),
        );
        engine.run(&mut world);
        (
            pop.with_completions(<[Completion]>::to_vec),
            engine.executed(),
        )
    }

    /// Aggregation preserves the workload's scale: same users, same think
    /// config, cohorts just multiplex the timers.
    #[test]
    fn larger_cohorts_keep_similar_throughput() {
        let think = Some(Dist::exponential_mean(0.3));
        let (per_user, _) = run_cohort(13, 60, 1, think.clone());
        let (batched, _) = run_cohort(13, 60, 15, think);
        let a = per_user.len() as f64;
        let b = batched.len() as f64;
        assert!(
            (a - b).abs() / a < 0.2,
            "throughput moved too much: {a} vs {b}"
        );
    }

    /// The fleet-scale property: thinking users cost one *pending* timer
    /// per cohort, not one per user — the event queue stays small no
    /// matter how large the population is.
    #[test]
    fn pending_timer_footprint_is_cohort_count_not_user_count() {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(23).build();
        let users = 10_000;
        let cohort_size = 100;
        let _pop = CohortPopulation::start_staggered(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            users,
            cohort_size,
            Dist::exponential_mean(1000.0),
            SimTime::from_secs(5),
        );
        // 10,000 users are all in think state, yet only 100 cohort timers
        // (plus a handful of infrastructure events) are pending.
        assert!(
            engine.pending() <= (users / cohort_size) as usize + 10,
            "pending events {} should be ~one per cohort",
            engine.pending()
        );
    }

    #[test]
    fn staggered_start_spreads_first_submissions() {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(17).build();
        let pop = CohortPopulation::start_staggered(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            50,
            10,
            Dist::exponential_mean(1.0),
            SimTime::from_secs(10),
        );
        // Nothing submitted at t=0; everyone is thinking.
        assert_eq!(world.system.counters().submitted, 0);
        engine.run(&mut world);
        assert!(pop.completion_count() > 0);
        assert_eq!(pop.active_users(), 0, "users retire at stop");
        assert_eq!(world.system.counters().in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "cohort size must be positive")]
    fn zero_cohort_size_is_rejected() {
        run_cohort(1, 10, 0, None);
    }

    #[test]
    #[should_panic(expected = "cohort size must be positive")]
    fn zero_cohort_size_is_rejected_for_staggered_start() {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(1).build();
        CohortPopulation::start_staggered(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            10,
            0,
            Dist::exponential_mean(1.0),
            SimTime::from_secs(5),
        );
    }

    /// `cohort_size > users` must collapse to one cohort holding everyone:
    /// `div_ceil` gives a single cohort and every `member / cohort_size`
    /// maps to it, so the schedule is bit-identical to `cohort_size ==
    /// users`.
    #[test]
    fn oversized_cohort_is_bit_identical_to_single_exact_cohort() {
        let think = Some(Dist::exponential_mean(0.4));
        let (exact, exact_events) = run_cohort(29, 8, 8, think.clone());
        let (oversized, oversized_events) = run_cohort(29, 8, 1_000, think);
        assert!(!exact.is_empty());
        assert_eq!(exact, oversized, "completion logs diverged");
        assert_eq!(exact_events, oversized_events, "event counts diverged");
    }

    /// A non-dividing `cohort_size` (13 users in cohorts of 5 → cohorts of
    /// 5, 5, and 3) must spawn every user exactly once and conserve
    /// requests through the ragged last cohort.
    #[test]
    fn non_dividing_remainder_conserves_users_and_requests() {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(31).build();
        let pop = CohortPopulation::start_with_think_dist(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            13,
            5,
            Some(Dist::exponential_mean(0.3)),
            SimTime::from_secs(15),
        );
        assert_eq!(pop.inner.borrow().cohorts.len(), 3);
        engine.run(&mut world);
        assert!(pop.completion_count() > 0);
        assert_eq!(pop.total_spawned(), 13);
        assert_eq!(pop.active_users(), 0, "every user retires at stop");
        assert_eq!(world.system.counters().in_flight(), 0);
    }

    /// Zero users is inert, not a panic: `div_ceil` yields zero cohorts
    /// and the run completes with nothing submitted.
    #[test]
    fn empty_population_is_inert() {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(3).build();
        let pop = CohortPopulation::start_with_think_dist(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            0,
            4,
            None,
            SimTime::from_secs(5),
        );
        engine.run(&mut world);
        assert_eq!(pop.completion_count(), 0);
        assert_eq!(pop.total_spawned(), 0);
        assert_eq!(world.system.counters().submitted, 0);
    }

    /// Cohorts carry the per-user extras: client retry, a deadline and
    /// faults drain cleanly, conserve every request, and log each logical
    /// request once however many attempts it took.
    #[test]
    fn cohorts_retry_and_time_out_through_faults() {
        use dcm_ntier::audit::ConservationAuditor;
        use dcm_ntier::faults::install_fault_plan;
        use dcm_sim::faults::FaultPlan;

        let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, 3, 1).seed(37).build();
        world.system.enable_tracing();
        let auditor = ConservationAuditor::begin(&world.system, engine.now());
        install_fault_plan(
            &mut world,
            &mut engine,
            &FaultPlan::none()
                .with_crash(30.0, 1, 0)
                .with_transient_failures(0.002),
        );
        let pop = CohortPopulation::start_with_think_dist(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            240,
            8,
            Some(Dist::exponential_mean(1.0)),
            SimTime::from_secs(90),
        );
        pop.set_client_retry(RetryPolicy::default());
        pop.set_request_deadline(SimDuration::from_secs(8));
        engine.run(&mut world);

        let c = world.system.counters();
        assert_eq!(c.in_flight(), 0, "the run drains");
        assert!(c.failed > 0, "the crash and transient faults strike");
        assert!(pop.retries_issued() > 0, "failed requests are retried");
        let spans = world.system.take_spans();
        auditor
            .finish(&world.system, &spans, engine.now())
            .assert_clean();
        let logged = pop.with_completions(<[Completion]>::len);
        assert_eq!(logged, pop.completion_count());
        assert_eq!(
            logged as u64,
            c.submitted - pop.retries_issued(),
            "one completion per logical request"
        );
        assert_eq!(pop.active_users(), 0, "every member retires at stop");
    }

    /// The trace-driven target works at any cohort size: a step up
    /// appends members (and cohorts), a step down retires the surplus as
    /// members finish their cycle.
    #[test]
    fn cohort_target_follows_steps_up_and_down() {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(41).build();
        let pop = CohortPopulation::start_with_think_dist(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            10,
            4,
            Some(Dist::exponential_mean(0.5)),
            SimTime::from_secs(60),
        );
        engine.run_until(&mut world, SimTime::from_secs(10));
        pop.set_target(&mut world, &mut engine, 30);
        assert_eq!(pop.target_users(), 30);
        assert_eq!(pop.active_users(), 30);
        assert_eq!(pop.total_spawned(), 30);
        assert_eq!(pop.inner.borrow().cohorts.len(), 8);

        engine.run_until(&mut world, SimTime::from_secs(20));
        pop.set_target(&mut world, &mut engine, 5);
        // Every member cycles many times in 20 s at a 0.5 s mean think.
        engine.run_until(&mut world, SimTime::from_secs(40));
        assert_eq!(pop.target_users(), 5);
        assert!(pop.active_users() <= 5, "still {}", pop.active_users());
        assert_eq!(pop.total_spawned(), 30, "a step down spawns no one");

        let remaining = pop.active_users();
        pop.set_target(&mut world, &mut engine, 12);
        assert_eq!(pop.total_spawned(), 30 + u64::from(12 - remaining));
        engine.run(&mut world);
        let offered: Vec<f64> = pop.offered_series().iter().map(|(_, v)| v).collect();
        assert_eq!(offered, vec![10.0, 30.0, 5.0, 12.0]);
        assert_eq!(pop.active_users(), 0);
        assert_eq!(world.system.counters().in_flight(), 0);
    }

    #[test]
    fn disable_log_keeps_aggregates() {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(19).build();
        let pop = CohortPopulation::start_with_think_dist(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            20,
            5,
            Some(Dist::exponential_mean(0.2)),
            SimTime::from_secs(10),
        );
        pop.disable_log();
        engine.run(&mut world);
        assert!(
            pop.with_completions(<[Completion]>::is_empty),
            "log disabled"
        );
        let stats = pop.stats();
        assert!(stats.completed > 0);
        assert_eq!(pop.completion_count(), stats.completed as usize);
        assert!(stats.response_mean() > 0.0);
        assert!(stats.response_max >= stats.response_mean());
        assert_eq!(stats.succeeded, stats.completed, "unsaturated run");
    }
}
