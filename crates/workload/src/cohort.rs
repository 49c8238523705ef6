//! Cohort-aggregated closed-loop users for fleet-scale simulation.
//!
//! A [`CohortPopulation`] drives the same submit → complete → think cycle
//! as [`crate::generator::UserPopulation`], but multiplexes many virtual
//! users onto a handful of engine timers. Users are partitioned into
//! cohorts of `cohort_size`; each cohort keeps a private min-heap of
//! member wake-up times and arms **one** engine event for the earliest of
//! them. When that event fires, every member due at or before the firing
//! time submits in wake-up order, and the timer re-arms for the next due
//! member. The event-queue footprint is thus `O(users / cohort_size)`
//! instead of `O(users)` — at a million users with 256-user cohorts the
//! event queue holds ~4 k population timers instead of a million.
//!
//! ## When aggregation is exact
//!
//! Cohort multiplexing is a *scheduling* change, not a modelling change:
//! every member still samples its own profile and think time from the
//! shared RNG and submits an individual request, so the stochastic process
//! is the same closed queueing network. With `cohort_size == 1` the
//! schedule is literally identical — each cohort holds one member, the
//! timer is that member's think-time event, and the RNG draw order matches
//! [`crate::generator::UserPopulation`] exactly, so runs are bit-identical
//! (asserted by a metamorphic test). For larger cohorts, members whose
//! wake-ups share a firing batch submit in due order rather than each from
//! its own event, which permutes RNG draw order across members: sample
//! paths differ run-to-run from the per-user generator, but the stationary
//! distribution does not — `repro validate` checks the aggregated DES
//! against exact MVA under the same 2 % / 5 % gates as the per-user DES.
//!
//! Cohort mode intentionally omits the per-user extras (client retry,
//! request deadlines, think-time modulation): the fleet experiments that
//! need millions of users use none of them, and the per-user generator
//! remains available when they matter.
//!
//! Like the per-user generator, a cohort population registers its state in
//! the world's [`ClientTable`](dcm_ntier::world::ClientTable): cohort
//! timers and completion callbacks are plain functions whose payload packs
//! the table index and the cohort index, and profiles are sampled into
//! recycled buffers, so a member's cycle allocates nothing.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use dcm_ntier::flow;
use dcm_ntier::request::Completion;
use dcm_ntier::world::{SimEngine, World};
use dcm_sim::dist::{Dist, Sample};
use dcm_sim::engine::EventId;
use dcm_sim::time::{SimDuration, SimTime};

use crate::profile::WorkloadFactory;

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
}

/// Aggregate response-time statistics, maintained even when the full
/// completion log is disabled (fleet runs keep memory flat by skipping
/// the log).
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
struct CohortState {
    factory: WorkloadFactory,
    think: Option<Dist>,
    stop_at: SimTime,
    target: u32,
    active: u32,
    log: Vec<Completion>,
    log_enabled: bool,
    stats: CohortStats,
    total_spawned: u64,
    cohorts: Vec<Cohort>,
}

/// A population of virtual users multiplexed onto per-cohort timers.
///
/// Cloning the handle shares the same population.
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
    inner: Rc<RefCell<CohortState>>,
    /// The population's index in its world's client table.
    client: u32,
}

impl CohortPopulation {
    /// Starts `users` clients in cohorts of `cohort_size`, each submitting
    /// its first request immediately (the spawn order and RNG draw order
    /// match [`crate::generator::UserPopulation`], so `cohort_size == 1`
    /// reproduces it bit-identically). `think = None` is a closed loop.
    ///
    /// `cohort_size > users` collapses to a single cohort holding everyone
    /// and is bit-identical to `cohort_size == users`; a non-dividing
    /// `cohort_size` leaves the last cohort short by the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `cohort_size == 0`.
    pub fn start_with_think_dist(
        world: &mut World,
        engine: &mut SimEngine,
        factory: impl Into<WorkloadFactory>,
        users: u32,
        cohort_size: u32,
        think: Option<Dist>,
        stop_at: SimTime,
    ) -> Self {
        let pop = Self::build(world, factory, think, users, cohort_size, stop_at);
        for member in 0..users {
            {
                let mut st = pop.inner.borrow_mut();
                st.active += 1;
                st.total_spawned += 1;
            }
            wake_member(
                &pop.inner,
                world,
                engine,
                payload(pop.client, member / cohort_size),
            );
        }
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
        factory: impl Into<WorkloadFactory>,
        users: u32,
        cohort_size: u32,
        think: Dist,
        stop_at: SimTime,
    ) -> Self {
        let pop = Self::build(world, factory, Some(think), users, cohort_size, stop_at);
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
                let cohort = (member / cohort_size) as usize;
                st.cohorts[cohort].push(now + SimDuration::from_secs_f64(delay));
            }
        }
        let cohorts = pop.inner.borrow().cohorts.len() as u32;
        for cohort in 0..cohorts {
            rearm(&pop.inner, engine, payload(pop.client, cohort));
        }
        pop
    }

    fn build(
        world: &mut World,
        factory: impl Into<WorkloadFactory>,
        think: Option<Dist>,
        users: u32,
        cohort_size: u32,
        stop_at: SimTime,
    ) -> Self {
        assert!(cohort_size > 0, "cohort size must be positive");
        let cohorts = users.div_ceil(cohort_size) as usize;
        let inner = Rc::new(RefCell::new(CohortState {
            factory: factory.into(),
            think,
            stop_at,
            target: users,
            active: 0,
            log: Vec::new(),
            log_enabled: true,
            stats: CohortStats::default(),
            total_spawned: 0,
            cohorts: (0..cohorts).map(|_| Cohort::new()).collect(),
        }));
        let client = world.clients.register(Rc::clone(&inner));
        CohortPopulation { inner, client }
    }

    /// Disables the per-completion log (aggregate [`CohortStats`] are
    /// still maintained). Fleet runs with millions of users call this
    /// right after `start_*` to keep memory flat.
    pub fn disable_log(&self) {
        self.inner.borrow_mut().log_enabled = false;
    }

    /// Currently active virtual users.
    pub fn active_users(&self) -> u32 {
        self.inner.borrow().active
    }

    /// The (fixed) population target.
    pub fn target_users(&self) -> u32 {
        self.inner.borrow().target
    }

    /// Total users ever spawned.
    pub fn total_spawned(&self) -> u64 {
        self.inner.borrow().total_spawned
    }

    /// Number of completions observed (log entries when the log is on;
    /// the aggregate count always).
    pub fn completion_count(&self) -> usize {
        self.inner.borrow().stats.completed as usize
    }

    /// Runs `f` over the completion log without copying (the log is empty
    /// after [`Self::disable_log`]). Callers that need an owned copy do
    /// `with_completions(<[Completion]>::to_vec)` at their own expense —
    /// there is deliberately no cloning accessor on the cohort hot path.
    pub fn with_completions<R>(&self, f: impl FnOnce(&[Completion]) -> R) -> R {
        f(&self.inner.borrow().log)
    }

    /// Aggregate response-time statistics.
    pub fn stats(&self) -> CohortStats {
        self.inner.borrow().stats
    }
}

/// The fn-event payload addressing `cohort` of the population registered
/// at `client`.
fn payload(client: u32, cohort: u32) -> u64 {
    (u64::from(client) << 32) | u64::from(cohort)
}

/// The cohort index a [`payload`] addresses.
fn cohort_of(payload: u64) -> usize {
    payload as u32 as usize
}

/// The population and cohort index a [`payload`] addresses.
fn unpack(world: &World, payload: u64) -> (Rc<RefCell<CohortState>>, usize) {
    (
        world.clients.get((payload >> 32) as u32),
        cohort_of(payload),
    )
}

/// One member of the payload's cohort wakes up *now*: retire it if the run
/// is over, otherwise sample a profile and submit. Mirrors the per-user
/// `user_cycle` check-sample-submit order exactly.
fn wake_member(
    state: &RefCell<CohortState>,
    world: &mut World,
    engine: &mut SimEngine,
    payload: u64,
) {
    let profile = {
        let mut st = state.borrow_mut();
        if engine.now() >= st.stop_at || st.active > st.target {
            st.active -= 1;
            return;
        }
        let spare = world.system.recycled_profile();
        st.factory.sample_reusing(&mut world.rng, spare)
    };
    flow::submit_fn(world, engine, profile, None, member_done, payload);
}

/// A member's request left the system: record it, sample the member's
/// think time and queue its wake-up in the cohort.
fn member_done(w: &mut World, e: &mut SimEngine, completion: Completion, payload: u64) {
    let (state, cohort) = unpack(w, payload);
    {
        let mut st = state.borrow_mut();
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
        let due = e.now() + SimDuration::from_secs_f64(think);
        st.cohorts[cohort].push(due);
    }
    rearm(&state, e, payload);
}

/// The armed timer of the payload's cohort fired: wake every member due
/// at or before now (collected *before* any submission, so reentrant
/// completions — a rejected request completes synchronously — extend the
/// heap without extending this batch), then re-arm for the next due
/// member.
fn cohort_fire(world: &mut World, engine: &mut SimEngine, payload: u64) {
    let (state, cohort) = unpack(world, payload);
    let now = engine.now();
    let batch = {
        let mut st = state.borrow_mut();
        st.cohorts[cohort].timer = None;
        let mut batch = 0u32;
        while st.cohorts[cohort].next_due().is_some_and(|at| at <= now) {
            st.cohorts[cohort].due.pop();
            batch += 1;
        }
        batch
    };
    for _ in 0..batch {
        wake_member(&state, world, engine, payload);
    }
    rearm(&state, engine, payload);
}

/// Ensures the payload's cohort timer is armed for its earliest due member
/// (re-arming only when a new wake-up undercuts the current timer, so the
/// common completion path costs one heap push and a comparison).
fn rearm(state: &RefCell<CohortState>, engine: &mut SimEngine, payload: u64) {
    let cohort = cohort_of(payload);
    let (arm_at, stale) = {
        let st = state.borrow();
        let c = &st.cohorts[cohort];
        match c.next_due() {
            Some(at) => match c.timer {
                None => (Some(at), None),
                Some(ev) if c.timer_at > at => (Some(at), Some(ev)),
                Some(_) => (None, None),
            },
            None => (None, None),
        }
    };
    if let Some(ev) = stale {
        engine.cancel(ev);
    }
    let Some(at) = arm_at else {
        return;
    };
    let ev = engine.schedule_fn_at(at, cohort_fire, payload);
    let mut st = state.borrow_mut();
    st.cohorts[cohort].timer = Some(ev);
    st.cohorts[cohort].timer_at = at;
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::generator::UserPopulation;
    use crate::profile::ProfileFactory;
    use dcm_ntier::topology::ThreeTierBuilder;

    fn run_per_user(seed: u64, users: u32, think: Option<Dist>) -> (Vec<Completion>, u64) {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(seed).build();
        let pop = UserPopulation::start_with_think_dist(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            users,
            think,
            SimTime::from_secs(20),
        );
        engine.run(&mut world);
        (pop.completions(), engine.executed())
    }

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

    /// The metamorphic anchor: cohorts of one ARE the per-user generator —
    /// same completions bit-for-bit, same event count.
    #[test]
    fn cohort_of_one_is_bit_identical_to_per_user() {
        for think in [Some(Dist::exponential_mean(0.4)), None] {
            let (per_user, per_user_events) = run_per_user(11, 12, think.clone());
            let (cohort, cohort_events) = run_cohort(11, 12, 1, think);
            assert!(!per_user.is_empty());
            assert_eq!(per_user, cohort, "completion logs diverged");
            assert_eq!(per_user_events, cohort_events, "event counts diverged");
        }
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
