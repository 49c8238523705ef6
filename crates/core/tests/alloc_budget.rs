//! Allocation budget of the per-request path.
//!
//! A counting global allocator tallies the heap allocations (and
//! reallocations) made on the test's own thread. Each case warms its
//! workload up — the request slab, the spare profiles and the engine's
//! tables reach their working size — then counts a measurement window and
//! divides by the requests completed in it. Sampling a profile, submitting
//! it, arming think and cohort timers, firing completion callbacks and
//! retrying a failed request on the client reuse storage, so what remains
//! per request is the amortised growth of logs plus the rare boxed events
//! (inter-tier retry backoff, faults, monitor ticks). One case divides by
//! the client retries instead, which must allocate nothing of their own.
//!
//! The allocator also keeps the thread's live and peak requested bytes, so
//! two cases bound the memory of a run's end: summarizing a completion log
//! into a [`LoadReport`] and handing the span ring over.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dcm_ntier::faults::install_fault_plan;
use dcm_ntier::graph::TopologyGraph;
use dcm_ntier::ids::{RequestId, ServerId};
use dcm_ntier::law::reference;
use dcm_ntier::request::{Completion, Outcome};
use dcm_ntier::spans::{Span, SpanStatus};
use dcm_ntier::system::InterTierRetry;
use dcm_ntier::topology::{MeshBuilder, MeshNode, ThreeTierBuilder};
use dcm_ntier::world::{SimEngine, World};
use dcm_obs::recorder::{SamplerConfig, SpanRecorder};
use dcm_sim::dist::Dist;
use dcm_sim::faults::FaultPlan;
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::cache::CacheDynamics;
use dcm_workload::cohort::CohortPopulation;
use dcm_workload::generator::RetryPolicy;
use dcm_workload::profile::{NodeDemand, ProfileFactory};
use dcm_workload::report::LoadReport;
use dcm_workload::traces;

/// Allocations per completed request each case must stay under. Boxing
/// the completion callback and the think timer alone would cost 2.
const BUDGET: f64 = 0.5;

/// Allocations per client retry. Boxing the backoff timer and the retried
/// attempt's completion callback would cost 2.
const RETRY_BUDGET: f64 = 0.1;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested and not yet freed by this thread (negative when it
    /// frees memory another thread allocated).
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Moves the live bytes by `to - from` requested bytes, raising the peak.
fn track(from: usize, to: usize) {
    let delta = i64::try_from(to).unwrap_or(i64::MAX) - i64::try_from(from).unwrap_or(i64::MAX);
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged, so the `GlobalAlloc` contract the caller upholds for
// this allocator is exactly the one `System` requires; the counters are
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        track(0, layout.size());
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(layout.size(), 0);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        track(layout.size(), new_size);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `f` and returns its result with the most its live bytes rose above
/// their level at the call (a realloc counts its new size only).
fn peak_rise<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let start = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(start));
    let result = f();
    (result, PEAK_BYTES.with(Cell::get) - start)
}

/// Runs `engine` from `warm` to `until` and returns the allocations per
/// request completed in that window (`completed` reads the running total).
fn per_request(
    world: &mut World,
    engine: &mut SimEngine,
    warm: SimTime,
    until: SimTime,
    completed: impl Fn(&World) -> u64,
) -> f64 {
    engine.run_until(world, warm);
    let (allocs_before, done_before) = (allocations(), completed(world));
    engine.run_until(world, until);
    let allocs = allocations() - allocs_before;
    let done = completed(world) - done_before;
    assert!(done > 1_000, "the window completes many requests ({done})");
    allocs as f64 / done as f64
}

fn completed(world: &World) -> u64 {
    let c = world.system.counters();
    c.completed + c.rejected + c.timed_out + c.failed
}

fn assert_within_budget(case: &str, per_request: f64) {
    assert!(
        per_request < BUDGET,
        "{case}: {per_request:.3} allocations per request, budget {BUDGET}"
    );
}

#[test]
fn trace_driven_users_with_retry_deadline_and_crash() {
    let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, 3, 1).seed(11).build();
    world.system.inter_tier_retry = Some(InterTierRetry::default());
    install_fault_plan(
        &mut world,
        &mut engine,
        &FaultPlan::none()
            .with_crash(120.0, 1, 0)
            .with_straggler(180.0, 2, 0, 4.0, 30.0)
            .with_transient_failures(0.002),
    );
    let pop = CohortPopulation::start_trace_driven(
        &mut world,
        &mut engine,
        ProfileFactory::rubbos(),
        &traces::step(60, 120, 40.0),
        3.0,
        SimTime::from_secs(300),
    );
    pop.set_client_retry(RetryPolicy::default());
    pop.set_request_deadline(SimDuration::from_secs(1));
    let cost = per_request(
        &mut world,
        &mut engine,
        SimTime::from_secs(60),
        SimTime::from_secs(300),
        completed,
    );
    let c = world.system.counters();
    assert!(pop.retries_issued() > 0, "the window retries requests");
    assert!(
        c.timed_out > 0,
        "the window abandons requests at the deadline"
    );
    assert!(c.failed > 0, "the crash fails requests");
    assert_within_budget("trace-driven users", cost);
}

#[test]
fn cohort_population() {
    let (mut world, mut engine) = ThreeTierBuilder::new().counts(2, 2, 2).seed(12).build();
    let pop = CohortPopulation::start_staggered(
        &mut world,
        &mut engine,
        ProfileFactory::rubbos(),
        600,
        64,
        Dist::exponential_mean(2.0),
        SimTime::from_secs(120),
    );
    pop.disable_log();
    let cost = per_request(
        &mut world,
        &mut engine,
        SimTime::from_secs(30),
        SimTime::from_secs(120),
        completed,
    );
    assert_within_budget("cohort population", cost);
}

#[test]
fn mesh_factory_with_cache_edge() {
    // web -> app -> {svc, db×2}, with a warming cache on app -> db: graph
    // profiles and per-visit demands run through the recycled profile
    // buffers, and hits and misses share the factory's two routes.
    let graph = TopologyGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (1, 3, 2)]);
    let (mut world, mut engine) = MeshBuilder::new()
        .node(MeshNode::new("web", reference::apache(), 1000))
        .node(MeshNode::new("app", reference::tomcat(), 100).conns(80))
        .node(MeshNode::new("svc", reference::tomcat(), 50))
        .node(MeshNode::new("db", reference::mysql(), 800).count(2))
        .seed(13)
        .build();
    let factory = ProfileFactory::new(
        graph,
        vec![
            NodeDemand::split(Dist::constant(0.002)),
            NodeDemand::split(Dist::constant(0.008)),
            NodeDemand::leaf(Dist::exponential_mean(0.01)).iid_visits(),
            NodeDemand::leaf(Dist::exponential_mean(0.02)).iid_visits(),
        ],
    )
    .with_cache(1, 3, CacheDynamics::new(0.5, 200.0));
    let _pop = CohortPopulation::start_with_think_dist(
        &mut world,
        &mut engine,
        factory,
        60,
        1,
        Some(Dist::exponential_mean(0.5)),
        SimTime::from_secs(200),
    );
    let cost = per_request(
        &mut world,
        &mut engine,
        SimTime::from_secs(30),
        SimTime::from_secs(200),
        completed,
    );
    assert_within_budget("mesh factory with a cache edge", cost);
}

#[test]
fn closed_loop_training_point() {
    // The shape of one `dcm_core::training` sweep level: 1/1/1, zero
    // think time, warm-up then measurement window.
    let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, 1, 1).seed(14).build();
    let _pop = CohortPopulation::start_with_think_dist(
        &mut world,
        &mut engine,
        ProfileFactory::rubbos(),
        60,
        1,
        None,
        SimTime::from_secs(50),
    );
    let cost = per_request(
        &mut world,
        &mut engine,
        SimTime::from_secs(10),
        SimTime::from_secs(50),
        completed,
    );
    assert_within_budget("closed-loop training point", cost);
}

#[test]
fn client_retry() {
    // Transient failures retried by the client, with no crash, deadline or
    // inter-tier retry: every failed attempt waits out its backoff and
    // resubmits its profile.
    let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, 2, 1).seed(15).build();
    install_fault_plan(
        &mut world,
        &mut engine,
        &FaultPlan::none().with_transient_failures(0.01),
    );
    let pop = CohortPopulation::start_with_think_dist(
        &mut world,
        &mut engine,
        ProfileFactory::rubbos(),
        120,
        1,
        Some(Dist::exponential_mean(2.0)),
        SimTime::from_secs(200),
    );
    pop.set_client_retry(RetryPolicy::default());
    pop.disable_log();
    engine.run_until(&mut world, SimTime::from_secs(30));
    let (allocs_before, retries_before) = (allocations(), pop.retries_issued());
    engine.run_until(&mut world, SimTime::from_secs(200));
    let allocs = allocations() - allocs_before;
    let retries = pop.retries_issued() - retries_before;
    assert!(
        retries >= 200,
        "the window retries many requests ({retries})"
    );
    let per_retry = allocs as f64 / retries as f64;
    assert!(
        per_retry < RETRY_BUDGET,
        "client retry: {per_retry:.3} allocations per retry ({allocs} in {retries} retries), \
         budget {RETRY_BUDGET}"
    );
}

#[test]
fn load_report_holds_one_exact_buffer() {
    // 160,000 completions over 100 s: every fifth a failure or a timeout,
    // and the window drops the first and last 5 s.
    let completions: Vec<Completion> = (0..160_000u64)
        .map(|i| Completion {
            id: RequestId::new(i),
            class: 0,
            submitted: SimTime::from_nanos(i * 625_000),
            finished: SimTime::from_nanos(i * 625_000 + 1_000_000 + (i % 977) * 1_000),
            outcome: match i % 10 {
                3 => Outcome::Failed { at_tier: 2 },
                7 => Outcome::TimedOut,
                _ => Outcome::Completed,
            },
        })
        .collect();
    let (start, end) = (SimTime::from_secs(5), SimTime::from_secs(95));
    let (mut report, rise) = peak_rise(|| LoadReport::from_completions(&completions, start, end));
    let successes = report.completed();
    assert!(successes >= 100_000, "{successes} successes in the window");
    let budget = 8 * successes as i64 + 1024;
    assert!(
        rise <= budget,
        "summarizing {successes} successes raised the peak by {rise} bytes, budget {budget}"
    );
    assert!(report.response_time_quantile(0.5).is_some());
}

#[test]
fn finishing_a_full_span_ring_allocates_nothing() {
    let capacity = 4096;
    let mut recorder = SpanRecorder::new(SamplerConfig {
        capacity,
        ..SamplerConfig::default()
    });
    // Past capacity, so the ring has wrapped and evicted.
    for i in 0..(capacity as u64 * 5 / 2) {
        recorder.record(&Span {
            request: RequestId::new(i),
            tier: 0,
            server: ServerId::new(0),
            arrived_at: SimTime::from_nanos(i),
            started_at: SimTime::from_nanos(i + 1),
            finished_at: SimTime::from_nanos(i + 2),
            status: SpanStatus::Completed,
        });
    }
    let before = allocations();
    let ((spans, stats), rise) = peak_rise(|| recorder.finish());
    let allocs = allocations() - before;
    assert_eq!(spans.len(), capacity);
    assert!(stats.evicted > 0, "the ring wrapped");
    assert!(
        spans.windows(2).all(|w| w[0].request < w[1].request),
        "spans come out in admission order"
    );
    assert_eq!(allocs, 0, "finish allocated {allocs} times");
    assert_eq!(rise, 0, "finish raised the peak by {rise} bytes");
}
