//! End-to-end behaviour of the n-tier request flow: conservation, pool
//! capping, scaling, runtime reconfiguration, and rejection unwinding.

use std::cell::RefCell;
use std::rc::Rc;

use dcm_ntier::flow;
use dcm_ntier::request::{Completion, RequestProfile, StageDemand};
use dcm_ntier::topology::{SoftConfig, ThreeTierBuilder};
use dcm_ntier::world::{SimEngine, World};
use dcm_ntier::ServerState;
use dcm_sim::time::{SimDuration, SimTime};

fn rubbos_profile() -> RequestProfile {
    RequestProfile::new(
        vec![
            StageDemand::pre_only(0.0006),
            StageDemand::split(0.0284),
            StageDemand::pre_only(0.02955),
        ],
        vec![1, 1, 2],
        0,
    )
}

type Log = RefCell<Vec<Completion>>;

/// Registers a completion log in the world's client table and returns it
/// with its index: a request submitted with [`log_completion`] and that
/// index as payload appends its completion to the log.
fn collect_completions(world: &mut World) -> (Rc<Log>, u64) {
    let log = Rc::new(RefCell::new(Vec::new()));
    let index = world.clients.register(Rc::clone(&log));
    (log, u64::from(index))
}

fn log_completion(world: &mut World, _: &mut SimEngine, done: Completion, log: u64) {
    world.clients.get::<Log>(log as u32).borrow_mut().push(done);
}

#[test]
fn single_request_traverses_all_tiers() {
    let (mut world, mut engine) = ThreeTierBuilder::new().build();
    let (log, cb) = collect_completions(&mut world);
    flow::submit(
        &mut world,
        &mut engine,
        rubbos_profile(),
        None,
        log_completion,
        cb,
    );
    engine.run(&mut world);

    let done = log.borrow();
    assert_eq!(done.len(), 1);
    assert!(done[0].is_success());
    // Response time at least the sum of raw demands (single request, no
    // queueing): 0.0006 + 0.0284 + 2*0.02955 ≈ 0.0881 s.
    let rt = done[0].response_time().as_secs_f64();
    assert!((0.088..0.12).contains(&rt), "rt {rt}");

    // Each tier's server saw the request; MySQL saw two queries.
    let by_name = |name: &str| {
        world
            .system
            .servers()
            .find(|s| s.name() == name)
            .unwrap()
            .completed_total()
    };
    assert_eq!(by_name("web-1"), 1);
    assert_eq!(by_name("app-1"), 1);
    assert_eq!(by_name("db-1"), 2);
    assert_eq!(world.system.counters().completed, 1);
    assert_eq!(world.system.counters().in_flight(), 0);
}

#[test]
fn conservation_under_concurrent_load() {
    let (mut world, mut engine) = ThreeTierBuilder::new().seed(7).build();
    let (log, cb) = collect_completions(&mut world);
    // 200 requests in a burst at t=0 plus stragglers.
    for i in 0..200 {
        let at = SimTime::from_secs_f64(i as f64 * 0.002);
        let profile = rubbos_profile();
        engine.schedule_at(at, move |w: &mut World, e: &mut SimEngine| {
            flow::submit(w, e, profile, None, log_completion, cb);
        });
    }
    engine.run(&mut world);
    assert_eq!(log.borrow().len(), 200);
    assert!(log.borrow().iter().all(Completion::is_success));
    let c = world.system.counters();
    assert_eq!(c.submitted, 200);
    assert_eq!(c.completed, 200);
    assert_eq!(c.rejected, 0);
    assert_eq!(c.in_flight(), 0);
    // No threads or connections leaked anywhere.
    for server in world.system.servers() {
        assert_eq!(
            server.threads_in_use(),
            0,
            "{} leaked threads",
            server.name()
        );
        if let Some(pool) = server.conn_pool() {
            assert_eq!(pool.in_use(), 0, "{} leaked conns", server.name());
        }
        assert_eq!(server.cpu().active_bursts(), 0);
    }
}

#[test]
fn db_concurrency_is_capped_by_upstream_conn_pool() {
    // One Tomcat with 4 DB connections: MySQL must never see more than 4
    // concurrent queries even with hundreds of concurrent requests.
    let (mut world, mut engine) = ThreeTierBuilder::new()
        .soft(SoftConfig::new(1000, 200, 4))
        .build();
    for _ in 0..100 {
        let profile = rubbos_profile();
        flow::submit(&mut world, &mut engine, profile, None, |_, _, _, _| {}, 0);
    }
    // Step the simulation, checking the invariant as we go.
    let db = world
        .system
        .servers()
        .find(|s| s.name() == "db-1")
        .unwrap()
        .id();
    let mut max_seen = 0;
    while engine.step(&mut world) {
        let in_use = world.system.server(db).unwrap().threads_in_use();
        max_seen = max_seen.max(in_use);
    }
    assert!(max_seen <= 4, "db concurrency {max_seen} exceeded conn cap");
    assert!(
        max_seen >= 3,
        "cap should actually be reached, saw {max_seen}"
    );
    assert_eq!(world.system.counters().completed, 100);
}

#[test]
fn scale_out_becomes_routable_after_boot_delay() {
    let (mut world, mut engine) = ThreeTierBuilder::new().build();
    let sid = flow::provision_server(&mut world, &mut engine, 1).unwrap();
    assert!(matches!(
        world.system.server(sid).unwrap().state(),
        ServerState::Starting { .. }
    ));
    assert_eq!(world.system.running_count(1), 1);
    engine.run_until(&mut world, SimTime::from_secs(14));
    assert_eq!(world.system.running_count(1), 1, "not ready before delay");
    engine.run_until(&mut world, SimTime::from_secs(16));
    assert_eq!(world.system.running_count(1), 2, "ready after 15 s");
}

#[test]
fn scale_in_drains_then_stops() {
    let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, 2, 1).build();
    // Hold a request in flight through app tier, then decommission.
    let (log, cb) = collect_completions(&mut world);
    for _ in 0..50 {
        flow::submit(
            &mut world,
            &mut engine,
            rubbos_profile(),
            None,
            log_completion,
            cb,
        );
    }
    // Run a few events so work lands on both app servers.
    for _ in 0..40 {
        engine.step(&mut world);
    }
    let victim = flow::decommission_one(&mut world, &mut engine, 1).unwrap();
    assert!(!world.system.server(victim).unwrap().is_routable());
    engine.run(&mut world);
    // All requests complete despite the drain; victim fully stopped.
    assert_eq!(log.borrow().len(), 50);
    assert!(log.borrow().iter().all(Completion::is_success));
    assert!(world.system.server(victim).unwrap().is_stopped());
    assert_eq!(world.system.running_count(1), 1);
}

#[test]
fn cannot_remove_last_server() {
    let (mut world, mut engine) = ThreeTierBuilder::new().build();
    let err = flow::decommission_one(&mut world, &mut engine, 1).unwrap_err();
    assert_eq!(err, flow::ScaleError::LastServer { tier: 1 });
    let err = flow::decommission_one(&mut world, &mut engine, 9).unwrap_err();
    assert_eq!(err, flow::ScaleError::NoSuchTier { tier: 9 });
}

#[test]
fn runtime_conn_pool_grow_admits_waiters() {
    let (mut world, mut engine) = ThreeTierBuilder::new()
        .soft(SoftConfig::new(1000, 200, 1))
        .build();
    let (log, cb) = collect_completions(&mut world);
    for _ in 0..20 {
        flow::submit(
            &mut world,
            &mut engine,
            rubbos_profile(),
            None,
            log_completion,
            cb,
        );
    }
    // Let the system make some progress with the tiny pool, then widen it.
    engine.run_until(&mut world, SimTime::from_secs_f64(0.05));
    flow::set_tier_conn_pools(&mut world, &mut engine, 1, 40).unwrap();
    engine.run(&mut world);
    assert_eq!(log.borrow().len(), 20);
    assert!(log.borrow().iter().all(Completion::is_success));
}

#[test]
fn runtime_thread_pool_shrink_drains_without_disruption() {
    let (mut world, mut engine) = ThreeTierBuilder::new()
        .soft(SoftConfig::new(1000, 50, 40))
        .build();
    let (log, cb) = collect_completions(&mut world);
    for _ in 0..100 {
        flow::submit(
            &mut world,
            &mut engine,
            rubbos_profile(),
            None,
            log_completion,
            cb,
        );
    }
    engine.run_until(&mut world, SimTime::from_secs_f64(0.05));
    // Shrink Tomcat pool hard mid-flight.
    flow::set_tier_thread_pools(&mut world, &mut engine, 1, 5).unwrap();
    engine.run(&mut world);
    assert_eq!(log.borrow().len(), 100);
    assert!(log.borrow().iter().all(Completion::is_success));
    let app = world
        .system
        .servers()
        .find(|s| s.name() == "app-1")
        .unwrap();
    assert_eq!(app.thread_pool().capacity(), 5);
    assert_eq!(app.thread_pool().in_use(), 0);
}

#[test]
fn faster_completion_with_optimal_concurrency_than_overload() {
    // Saturate a single MySQL at concurrency 150 vs 36 via the Tomcat conn
    // pool; the optimal allocation should finish the same batch sooner.
    let run = |conns: u32| -> f64 {
        let (mut world, mut engine) = ThreeTierBuilder::new()
            .soft(SoftConfig::new(1000, 400, conns))
            .seed(3)
            .build();
        for _ in 0..2000 {
            flow::submit(
                &mut world,
                &mut engine,
                RequestProfile::new(
                    vec![
                        StageDemand::pre_only(1e-6),
                        StageDemand::pre_only(1e-6), // negligible Tomcat work
                        StageDemand::pre_only(0.02955),
                    ],
                    vec![1, 1, 2],
                    0,
                ),
                None,
                |_, _, _, _| {},
                0,
            );
        }
        engine.run(&mut world);
        engine.now().as_secs_f64()
    };
    let t_optimal = run(36);
    let t_overload = run(150);
    assert!(
        t_optimal < t_overload * 0.65,
        "optimal {t_optimal} vs overload {t_overload}"
    );
}

#[test]
fn replace_server_then_refuse_emptying_tier() {
    // Provision a replacement app server, decommission the original once the
    // replacement is routable, and verify requests still complete and the
    // last server cannot be removed.
    let (mut world, mut engine) = ThreeTierBuilder::new().build();
    let replacement = flow::provision_server(&mut world, &mut engine, 1).unwrap();
    engine.run_until(&mut world, SimTime::from_secs(16));
    assert!(world.system.server(replacement).unwrap().is_routable());

    let original = flow::decommission_one(&mut world, &mut engine, 1).unwrap();
    engine.run_until(&mut world, engine.now() + SimDuration::from_secs(1));
    assert!(world.system.server(original).unwrap().is_stopped());
    assert!(flow::decommission_one(&mut world, &mut engine, 1).is_err());

    let (log, cb) = collect_completions(&mut world);
    flow::submit(
        &mut world,
        &mut engine,
        rubbos_profile(),
        None,
        log_completion,
        cb,
    );
    engine.run(&mut world);
    assert_eq!(log.borrow().len(), 1);
    assert!(log.borrow()[0].is_success(), "tier stayed routable");
    assert_eq!(world.system.counters().in_flight(), 0);
}

#[test]
fn vm_seconds_accumulate_per_tier() {
    let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, 2, 1).build();
    engine.run_until(&mut world, SimTime::from_secs(100));
    // Two app VMs for 100 s.
    assert!((world.system.vm_seconds(1, engine.now()) - 200.0).abs() < 1e-6);
    flow::decommission_one(&mut world, &mut engine, 1).unwrap();
    engine.run_until(&mut world, SimTime::from_secs(200));
    // One stopped at 100 s + one still running at 200 s.
    assert!((world.system.vm_seconds(1, engine.now()) - 300.0).abs() < 1e-6);
}

#[test]
fn boot_failure_injection_leaves_tier_short() {
    let (mut world, mut engine) = ThreeTierBuilder::new().seed(11).build();
    world.system.boot_failure_prob = 1.0;
    let sid = flow::provision_server(&mut world, &mut engine, 1).unwrap();
    engine.run_until(&mut world, SimTime::from_secs(20));
    assert!(world.system.server(sid).unwrap().is_stopped());
    assert_eq!(world.system.running_count(1), 1);
}

#[test]
fn deadline_abandons_stuck_requests_cleanly() {
    // A starved system: one DB connection, many requests; tight deadlines
    // force most clients to abandon mid-queue. Everything must unwind.
    let (mut world, mut engine) = ThreeTierBuilder::new()
        .soft(SoftConfig::new(1000, 200, 1))
        .build();
    let (log, cb) = collect_completions(&mut world);
    for _ in 0..50 {
        flow::submit(
            &mut world,
            &mut engine,
            rubbos_profile(),
            Some(SimDuration::from_millis(2500)),
            log_completion,
            cb,
        );
    }
    engine.run(&mut world);
    let done = log.borrow();
    assert_eq!(done.len(), 50);
    let timed_out = done
        .iter()
        .filter(|c| c.outcome == dcm_ntier::request::Outcome::TimedOut)
        .count();
    let completed = done.iter().filter(|c| c.is_success()).count();
    assert_eq!(timed_out + completed, 50);
    assert!(
        timed_out > 5,
        "starvation should force abandonment: {timed_out}"
    );
    assert!(completed > 0, "some requests still finish: {completed}");
    // Timed-out requests report exactly their deadline as response time.
    for c in done.iter().filter(|c| !c.is_success()) {
        assert_eq!(c.response_time(), SimDuration::from_millis(2500));
    }
    // Conservation and zero leaks.
    let counters = world.system.counters();
    assert_eq!(counters.timed_out, timed_out as u64);
    assert_eq!(counters.in_flight(), 0);
    for server in world.system.servers() {
        assert_eq!(
            server.threads_in_use(),
            0,
            "{} leaked threads",
            server.name()
        );
        assert_eq!(
            server.cpu().active_bursts(),
            0,
            "{} leaked bursts",
            server.name()
        );
        if let Some(pool) = server.conn_pool() {
            assert_eq!(pool.in_use(), 0, "{} leaked conns", server.name());
            assert_eq!(pool.queued(), 0, "{} leaked waiters", server.name());
        }
    }
}

#[test]
fn generous_deadline_never_fires() {
    let (mut world, mut engine) = ThreeTierBuilder::new().build();
    let (log, cb) = collect_completions(&mut world);
    for _ in 0..20 {
        flow::submit(
            &mut world,
            &mut engine,
            rubbos_profile(),
            Some(SimDuration::from_secs(60)),
            log_completion,
            cb,
        );
    }
    engine.run(&mut world);
    assert!(log.borrow().iter().all(Completion::is_success));
    assert_eq!(world.system.counters().timed_out, 0);
}

#[test]
fn span_tracing_records_tier_waterfalls() {
    use dcm_ntier::spans;

    let (mut world, mut engine) = ThreeTierBuilder::new().build();
    world.system.enable_tracing();
    assert!(world.system.tracing_enabled());
    let (log, cb) = collect_completions(&mut world);
    let rid = flow::submit(
        &mut world,
        &mut engine,
        rubbos_profile(),
        None,
        log_completion,
        cb,
    );
    engine.run(&mut world);
    assert!(log.borrow()[0].is_success());

    let spans = world.system.take_spans();
    // One request: 1 web + 1 app + 2 db visits.
    assert_eq!(spans.len(), 4);
    let w = spans::waterfall(&spans, rid);
    assert_eq!(w[0].tier, 0);
    assert_eq!(w[1].tier, 1);
    assert_eq!(w[2].tier, 2);
    assert_eq!(w[3].tier, 2);
    assert!(spans.iter().all(|s| s.is_completed()));
    // The app span encloses both db spans (thread held across queries).
    assert!(w[1].started_at <= w[2].arrived_at);
    assert!(w[1].finished_at >= w[3].finished_at);
    // Idle system: no queueing anywhere.
    assert!(spans.iter().all(|s| s.queue_time().as_nanos() == 0));
    // Breakdown has all three tiers; db service ≈ its demand.
    let breakdown = spans::tier_breakdown(&spans);
    assert_eq!(breakdown.len(), 3);
    assert_eq!(breakdown[&2].visits, 2);
    assert!((breakdown[&2].mean_service - 0.02955).abs() < 0.002);

    // take_spans drains but keeps recording.
    assert!(world.system.take_spans().is_empty());
    flow::submit(
        &mut world,
        &mut engine,
        rubbos_profile(),
        None,
        log_completion,
        cb,
    );
    engine.run(&mut world);
    assert_eq!(world.system.take_spans().len(), 4);
}

#[test]
fn spans_capture_queueing_under_contention() {
    use dcm_ntier::spans;

    // Tiny DB conn pool: queries must queue at the conn pool, which shows
    // up as service time in the APP span, while DB spans keep zero queue
    // (the conn pool is upstream of the DB thread pool).
    let (mut world, mut engine) = ThreeTierBuilder::new()
        .soft(SoftConfig::new(1000, 200, 1))
        .build();
    world.system.enable_tracing();
    let (_log, cb) = collect_completions(&mut world);
    for _ in 0..10 {
        flow::submit(
            &mut world,
            &mut engine,
            rubbos_profile(),
            None,
            log_completion,
            cb,
        );
    }
    engine.run(&mut world);
    let spans = world.system.take_spans();
    let breakdown = spans::tier_breakdown(&spans);
    // App dwell includes waiting for the single connection: far above the
    // raw app demand (0.0284 s × inflation).
    assert!(
        breakdown[&1].mean_service > 0.2,
        "app dwell should include conn-pool waits: {:?}",
        breakdown[&1]
    );
}

fn classed_profile(class: u16) -> RequestProfile {
    RequestProfile::new(
        vec![
            StageDemand::pre_only(0.0006),
            StageDemand::split(0.0284),
            StageDemand::pre_only(0.02955),
        ],
        vec![1, 1, 2],
        class,
    )
}

type Seen = RefCell<Vec<u16>>;

/// The outer request's callback: submits another request, whose rejection
/// completes inside this callback, then takes its own profile.
fn outer_done(w: &mut World, e: &mut SimEngine, done: Completion, seen: u64) {
    assert!(!done.is_success());
    flow::submit(w, e, classed_profile(2), None, inner_done, seen);
    let mine = w.system.take_finished_profile().expect("outer profile");
    w.clients
        .get::<Seen>(seen as u32)
        .borrow_mut()
        .push(mine.class());
}

fn inner_done(w: &mut World, _: &mut SimEngine, _: Completion, seen: u64) {
    let mine = w.system.take_finished_profile().expect("inner profile");
    w.clients
        .get::<Seen>(seen as u32)
        .borrow_mut()
        .push(mine.class());
}

#[test]
fn finished_profile_survives_a_reentrant_rejection() {
    // With the only web server crashed, every submission is rejected
    // synchronously: the outer callback's own submission completes inside
    // it, and each callback must still be handed its own request's profile.
    let (mut world, mut engine) = ThreeTierBuilder::new().build();
    let web = world.system.tier(0).members()[0];
    flow::crash_server(&mut world, &mut engine, web);
    let seen: Rc<Seen> = Rc::new(RefCell::new(Vec::new()));
    let index = u64::from(world.clients.register(Rc::clone(&seen)));
    flow::submit(
        &mut world,
        &mut engine,
        classed_profile(1),
        None,
        outer_done,
        index,
    );
    assert_eq!(*seen.borrow(), vec![2, 1]);
    assert!(
        world.system.take_finished_profile().is_none(),
        "no profile is handed out outside a callback"
    );
    assert_eq!(world.system.counters().rejected, 2);
}

#[test]
fn untaken_profiles_are_recycled_up_to_peak_in_flight() {
    let (mut world, mut engine) = ThreeTierBuilder::new().build();
    for _ in 0..3 {
        flow::submit(
            &mut world,
            &mut engine,
            rubbos_profile(),
            None,
            |_, _, _, _| {},
            0,
        );
    }
    engine.run(&mut world);
    // Three requests were in flight at once, so three spares come back.
    let mut spares = 0;
    while let Some(spare) = world.system.recycled_profile() {
        assert_eq!(spare, rubbos_profile());
        spares += 1;
    }
    assert_eq!(spares, 3);
    // One at a time: the spare list never outgrows the slab's peak.
    for _ in 0..5 {
        flow::submit(
            &mut world,
            &mut engine,
            rubbos_profile(),
            None,
            |_, _, _, _| {},
            0,
        );
        engine.run(&mut world);
    }
    let mut spares = 0;
    while world.system.recycled_profile().is_some() {
        spares += 1;
    }
    assert_eq!(spares, 3, "bounded by the three slots ever in flight");
}
