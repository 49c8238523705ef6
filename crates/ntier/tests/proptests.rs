//! Property-based tests for the n-tier simulator: pool accounting, the
//! concurrency law, the CPU scheduler, and whole-system conservation under
//! randomized workloads.

use proptest::prelude::*;

use dcm_ntier::cpu::CpuScheduler;
use dcm_ntier::flow;
use dcm_ntier::ids::RequestId;
use dcm_ntier::law::ServiceLaw;
use dcm_ntier::pool::Pool;
use dcm_ntier::request::{RequestProfile, StageDemand};
use dcm_ntier::topology::{SoftConfig, ThreeTierBuilder};
use dcm_sim::time::SimTime;

#[derive(Debug, Clone)]
enum PoolOp {
    Acquire,
    Release,
    Resize(u32),
    Cancel,
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        Just(PoolOp::Acquire),
        Just(PoolOp::Release),
        (1u32..32).prop_map(PoolOp::Resize),
        Just(PoolOp::Cancel),
    ]
}

proptest! {
    /// Pool accounting never goes negative, never exceeds capacity except
    /// transiently after a shrink, and each waiter is admitted at most
    /// once.
    #[test]
    fn pool_accounting_invariants(ops in prop::collection::vec(pool_op(), 1..300)) {
        let mut pool = Pool::new(8);
        let mut outstanding: u64 = 0; // permits we believe are held
        let mut queued: std::collections::HashSet<u64> = Default::default();
        let mut capacity = 8u32;
        let mut next_unique = 1000u64;
        for op in ops {
            match op {
                PoolOp::Acquire => {
                    // Use unique ids so waiter bookkeeping stays exact.
                    next_unique += 1;
                    let id = RequestId::new(next_unique);
                    if pool.try_acquire(id) {
                        outstanding += 1;
                    } else {
                        queued.insert(next_unique);
                    }
                }
                PoolOp::Release => {
                    if outstanding > 0 {
                        if let Some(handed) = pool.release() {
                            // A waiter got the permit: outstanding is
                            // unchanged (one out, one in).
                            prop_assert!(queued.remove(&handed.raw()), "unknown waiter");
                        } else {
                            outstanding -= 1;
                        }
                    }
                }
                PoolOp::Resize(c) => {
                    capacity = c;
                    for handed in pool.resize(c) {
                        prop_assert!(queued.remove(&handed.raw()), "unknown waiter admitted");
                        outstanding += 1;
                    }
                }
                PoolOp::Cancel => {
                    if let Some(&victim) = queued.iter().next() {
                        prop_assert!(pool.cancel_waiter(RequestId::new(victim)));
                        queued.remove(&victim);
                    }
                }
            }
            prop_assert_eq!(u64::from(pool.in_use()), outstanding);
            prop_assert_eq!(pool.queued(), queued.len());
            if !pool.is_overcommitted() {
                prop_assert!(pool.in_use() <= capacity);
            }
            // Queue is only non-empty when no permit is free.
            if pool.queued() > 0 {
                prop_assert_eq!(pool.available(), 0);
            }
        }
    }

    /// FIFO handoff order survives arbitrary interleavings of releases,
    /// resizes, and mid-queue cancellations; the lifetime counters only
    /// ever move forward and account for every admission exactly once; and
    /// a fully drained pool is always back within capacity.
    #[test]
    fn pool_fifo_handoff_and_monotone_counters(ops in prop::collection::vec(pool_op(), 1..300)) {
        let mut pool = Pool::new(4);
        let mut fifo: std::collections::VecDeque<u64> = Default::default();
        let mut next_unique = 0u64;
        let mut acquired_events = 0u64;
        let mut queued_events = 0u64;
        let (mut last_acq, mut last_q) = (0u64, 0u64);
        for op in ops {
            match op {
                PoolOp::Acquire => {
                    next_unique += 1;
                    if pool.try_acquire(RequestId::new(next_unique)) {
                        acquired_events += 1;
                    } else {
                        fifo.push_back(next_unique);
                        queued_events += 1;
                    }
                }
                PoolOp::Release => {
                    if pool.in_use() > 0 {
                        if let Some(handed) = pool.release() {
                            prop_assert_eq!(
                                Some(handed.raw()),
                                fifo.pop_front(),
                                "handoff must follow FIFO order"
                            );
                            acquired_events += 1;
                        }
                    }
                }
                PoolOp::Resize(c) => {
                    for handed in pool.resize(c) {
                        prop_assert_eq!(
                            Some(handed.raw()),
                            fifo.pop_front(),
                            "grow admissions must follow FIFO order"
                        );
                        acquired_events += 1;
                    }
                }
                PoolOp::Cancel => {
                    // Cancel from the middle of the queue to exercise
                    // non-head removal; the rest must keep their order.
                    if !fifo.is_empty() {
                        let victim = fifo.remove(fifo.len() / 2).unwrap();
                        prop_assert!(pool.cancel_waiter(RequestId::new(victim)));
                    }
                }
            }
            prop_assert!(pool.total_acquired() >= last_acq, "total_acquired went backwards");
            prop_assert!(pool.total_queued() >= last_q, "total_queued went backwards");
            last_acq = pool.total_acquired();
            last_q = pool.total_queued();
        }
        prop_assert_eq!(pool.total_acquired(), acquired_events);
        prop_assert_eq!(pool.total_queued(), queued_events);
        // Drain completely: remaining handoffs arrive in FIFO order, and a
        // drained pool is within capacity no matter what resizes happened.
        while pool.in_use() > 0 {
            if let Some(handed) = pool.release() {
                prop_assert_eq!(
                    Some(handed.raw()),
                    fifo.pop_front(),
                    "drain handoff must follow FIFO order"
                );
            }
        }
        prop_assert!(fifo.is_empty(), "every surviving waiter must be admitted");
        prop_assert_eq!(pool.queued(), 0);
        prop_assert!(pool.in_use() <= pool.capacity());
    }

    /// `optimal_concurrency` is a true argmax of the saturated-throughput
    /// curve for arbitrary valid laws (including thrash terms).
    #[test]
    fn law_optimum_is_argmax(
        s0 in 1e-4f64..0.1,
        alpha_frac in 0.0f64..0.95,
        beta in 1e-9f64..1e-3,
        thrash in prop::option::of((2.0f64..200.0, 1e-6f64..1e-2)),
    ) {
        let alpha = s0 * alpha_frac;
        let mut law = ServiceLaw::new(s0, alpha, beta);
        if let Some((thr, co)) = thrash {
            law = law.with_thrash(thr, co);
        }
        let n_star = law.optimal_concurrency();
        prop_assume!(n_star < 100_000);
        let x_star = law.saturated_throughput(n_star);
        for candidate in [
            1,
            n_star.saturating_sub(1).max(1),
            n_star + 1,
            n_star.saturating_mul(2),
            n_star / 2,
        ] {
            let candidate = candidate.max(1);
            prop_assert!(
                x_star >= law.saturated_throughput(candidate) - 1e-9,
                "X({n_star})={x_star} < X({candidate})={}",
                law.saturated_throughput(candidate)
            );
        }
    }

    /// The CPU scheduler conserves work: every added burst is eventually
    /// completed exactly once, in target order.
    #[test]
    fn cpu_conserves_bursts(works in prop::collection::vec(1e-6f64..0.1, 1..100)) {
        let law = ServiceLaw::new(0.01, 0.002, 1e-5);
        let mut cpu = CpuScheduler::new(law);
        let t0 = SimTime::ZERO;
        for (i, &w) in works.iter().enumerate() {
            cpu.add_burst(t0, RequestId::new(i as u64), w);
        }
        let mut completed = Vec::new();
        let mut now = t0;
        while let Some((at, _)) = cpu.next_completion(now) {
            prop_assert!(at >= now, "completion time went backwards");
            now = at;
            while let Some(req) = cpu.pop_completed(now) {
                completed.push(req.raw());
            }
        }
        prop_assert_eq!(completed.len(), works.len());
        let total_work: f64 = works.iter().sum();
        prop_assert!((cpu.completed_work() - total_work).abs() < 1e-9);
        prop_assert_eq!(cpu.active_bursts(), 0);
    }

    /// Full-system conservation: arbitrary request profiles through a
    /// randomly-sized topology all complete, and no soft resource leaks.
    #[test]
    fn system_conserves_requests(
        seed in any::<u64>(),
        n_requests in 1usize..120,
        app_servers in 1u32..3,
        threads in 2u32..40,
        conns in 1u32..40,
        queries in 1u32..4,
    ) {
        let (mut world, mut engine) = ThreeTierBuilder::new()
            .counts(1, app_servers, 1)
            .soft(SoftConfig::new(200, threads, conns))
            .seed(seed)
            .build();
        for i in 0..n_requests {
            let profile = RequestProfile::new(
                vec![
                    StageDemand::pre_only(0.0005),
                    StageDemand::split(0.004 + (i % 7) as f64 * 0.001),
                    StageDemand::pre_only(0.002),
                ],
                vec![1, 1, queries],
                0,
            );
            flow::submit(&mut world, &mut engine, profile, None, |_, _, _, _| {}, 0);
        }
        engine.run(&mut world);
        let c = world.system.counters();
        prop_assert_eq!(c.submitted, n_requests as u64);
        prop_assert_eq!(c.completed, n_requests as u64);
        prop_assert_eq!(c.in_flight(), 0);
        for server in world.system.servers() {
            prop_assert_eq!(server.threads_in_use(), 0);
            prop_assert_eq!(server.cpu().active_bursts(), 0);
            if let Some(pool) = server.conn_pool() {
                prop_assert_eq!(pool.in_use(), 0);
                prop_assert_eq!(pool.queued(), 0);
            }
        }
        // MySQL processed exactly queries-per-request × requests.
        let db_total: u64 = world
            .system
            .servers()
            .filter(|s| s.tier() == 2)
            .map(|s| s.completed_total())
            .sum();
        prop_assert_eq!(db_total, u64::from(queries) * n_requests as u64);
    }

    /// Mid-run pool resizing never breaks conservation.
    #[test]
    fn resizing_under_load_is_safe(
        seed in any::<u64>(),
        resize_to in 1u32..50,
        resize_conns in 1u32..50,
    ) {
        let (mut world, mut engine) = ThreeTierBuilder::new()
            .soft(SoftConfig::new(200, 10, 5))
            .seed(seed)
            .build();
        for _ in 0..60 {
            let profile = RequestProfile::new(
                vec![
                    StageDemand::pre_only(0.0005),
                    StageDemand::split(0.01),
                    StageDemand::pre_only(0.003),
                ],
                vec![1, 1, 2],
                0,
            );
            flow::submit(&mut world, &mut engine, profile, None, |_, _, _, _| {}, 0);
        }
        engine.run_until(&mut world, SimTime::from_secs_f64(0.05));
        flow::set_tier_thread_pools(&mut world, &mut engine, 1, resize_to).unwrap();
        flow::set_tier_conn_pools(&mut world, &mut engine, 1, resize_conns).unwrap();
        engine.run(&mut world);
        let c = world.system.counters();
        prop_assert_eq!(c.completed, 60);
        prop_assert_eq!(c.in_flight(), 0);
    }
}
