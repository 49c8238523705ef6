//! Concurrency-dependent CPU scheduling.
//!
//! All bursts active on a server progress at the *same* speed
//! `1/f(N)` (work-seconds per second), where `f(N)` is the inflation factor
//! of the server's [`ServiceLaw`] at its contention level `N`, the number
//! of bursts on the CPU. That uniformity admits an O(log n)
//! implementation: keep a **work clock** `W(t) = ∫ speed dt`; a burst with
//! `w` work-seconds remaining completes when the clock reaches `W_now + w`,
//! so completions are just a min-heap on target clock values. A burst
//! starting, finishing or being cancelled only changes the clock's slope,
//! so the speed is computed once per such change, not per use.
//!
//! With `N` saturated threads each carrying bursts of `S⁰` work, a burst
//! takes `S⁰·f(N) = S*(N)` wall seconds and completions occur at rate
//! `N/S*(N)` — exactly Eq. 6/7 of the paper.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dcm_sim::time::SimTime;

use crate::ids::RequestId;
use crate::law::ServiceLaw;

#[derive(Debug, Clone, Copy)]
struct Burst<R> {
    /// Work-clock value at which the burst completes; never negative or
    /// NaN, so its bit pattern orders like its value.
    target: f64,
    seq: u64,
    req: R,
    work: f64,
}

/// Packs a burst's `(target, seq)` into one integer that orders like the
/// tuple, the target's bits on top: the bit pattern of a non-negative
/// finite `f64` orders like its value.
#[inline]
fn burst_key(target: f64, seq: u64) -> u128 {
    (u128::from(target.to_bits()) << 64) | u128::from(seq)
}

impl<R> PartialEq for Burst<R> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<R> Eq for Burst<R> {}

impl<R> PartialOrd for Burst<R> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<R> Ord for Burst<R> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        burst_key(self.target, self.seq).cmp(&burst_key(other.target, other.seq))
    }
}

/// The CPU of one simulated server.
///
/// Generic over the burst owner token `R` (default [`RequestId`]); the flow
/// layer runs it over generation-checked `FlightId` slab handles.
///
/// # Examples
///
/// ```
/// use dcm_ntier::cpu::CpuScheduler;
/// use dcm_ntier::law::ServiceLaw;
/// use dcm_ntier::ids::RequestId;
/// use dcm_sim::time::SimTime;
///
/// let mut cpu = CpuScheduler::new(ServiceLaw::frictionless(0.01));
/// let t0 = SimTime::ZERO;
/// cpu.add_burst(t0, RequestId::new(1), 0.01);
/// let (at, req) = cpu.next_completion(t0).unwrap();
/// assert_eq!(req, RequestId::new(1));
/// assert!((at.as_secs_f64() - 0.01).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct CpuScheduler<R = RequestId> {
    law: ServiceLaw,
    work_clock: f64,
    last_update: SimTime,
    bursts: BinaryHeap<Reverse<Burst<R>>>,
    /// `law.progress_speed(bursts.len())`, refreshed whenever the burst
    /// count changes.
    speed: f64,
    seq: u64,
    busy_seconds: f64,
    completed_work: f64,
    /// Work-seconds cancelled bursts had executed when they were removed.
    cancelled_work: f64,
    max_active_bursts: usize,
}

/// Slack (in work-seconds) tolerated when deciding a burst is done, to
/// absorb floating-point drift between the scheduled completion event and
/// the work clock.
const WORK_EPSILON: f64 = 1e-9;

impl<R: Copy + Eq + std::fmt::Debug> CpuScheduler<R> {
    /// Creates an idle CPU governed by `law`.
    pub fn new(law: ServiceLaw) -> Self {
        CpuScheduler {
            law,
            work_clock: 0.0,
            last_update: SimTime::ZERO,
            bursts: BinaryHeap::new(),
            speed: law.progress_speed(0),
            seq: 0,
            busy_seconds: 0.0,
            completed_work: 0.0,
            cancelled_work: 0.0,
            max_active_bursts: 0,
        }
    }

    /// The governing law.
    pub fn law(&self) -> &ServiceLaw {
        &self.law
    }

    /// Number of bursts currently executing.
    pub fn active_bursts(&self) -> usize {
        self.bursts.len()
    }

    /// Cumulative seconds during which at least one burst was active.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_seconds
    }

    /// Cumulative work-seconds of completed bursts.
    pub fn completed_work(&self) -> f64 {
        self.completed_work
    }

    /// The largest number of bursts ever simultaneously active — the
    /// concurrency high-water mark bounding every speed the CPU has run at.
    pub fn max_active_bursts(&self) -> usize {
        self.max_active_bursts
    }

    /// [`CpuScheduler::busy_seconds`] projected through `now` without
    /// mutating the clock (read-only view for auditors).
    pub fn projected_busy_seconds(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if self.bursts.is_empty() {
            self.busy_seconds
        } else {
            self.busy_seconds + dt
        }
    }

    /// Total work-seconds *executed* through `now`: work credited to
    /// completed bursts, the progress cancelled bursts had made, and the
    /// progress already made on bursts still on the CPU. Read-only (the
    /// clock is projected, not advanced).
    pub fn projected_executed_work(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        let projected_clock = if self.bursts.is_empty() {
            self.work_clock
        } else {
            self.work_clock + dt * self.speed
        };
        let in_progress: f64 = self
            .bursts
            .iter()
            .map(|&Reverse(b)| {
                let remaining = (b.target - projected_clock).max(0.0);
                (b.work - remaining).max(0.0)
            })
            .sum();
        self.completed_work + self.cancelled_work + in_progress
    }

    /// Recomputes the speed after the burst count changed. The contention
    /// level is the burst count: threads parked in a pool or on a
    /// downstream call do not contend for the CPU.
    fn refresh_speed(&mut self) {
        self.speed = self.law.progress_speed(self.bursts.len() as u32);
    }

    /// Advances the work clock to `now`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` precedes the last update.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "cpu time ran backwards");
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            if !self.bursts.is_empty() {
                self.work_clock += dt * self.speed;
                self.busy_seconds += dt;
            }
            self.last_update = now;
        }
    }

    /// Starts a burst of `work` work-seconds for `req`.
    ///
    /// # Panics
    ///
    /// Panics if `work` is negative or not finite.
    pub fn add_burst(&mut self, now: SimTime, req: R, work: f64) {
        assert!(
            work.is_finite() && work >= 0.0,
            "burst work must be finite and >= 0"
        );
        self.advance(now);
        let target = self.work_clock + work;
        debug_assert!(
            target.is_sign_positive() && !target.is_nan(),
            "burst target {target} would not order by its bits"
        );
        let burst = Burst {
            target,
            seq: self.seq,
            req,
            work,
        };
        self.seq += 1;
        self.bursts.push(Reverse(burst));
        self.refresh_speed();
        self.max_active_bursts = self.max_active_bursts.max(self.bursts.len());
    }

    /// When and for which request the next completion occurs, given no
    /// further changes; `None` when idle.
    pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, R)> {
        let &Reverse(burst) = self.bursts.peek()?;
        // Project the clock forward from `now` (callers advance first).
        let pending_dt = now.saturating_since(self.last_update).as_secs_f64();
        let projected_clock = self.work_clock + pending_dt * self.speed;
        let remaining = (burst.target - projected_clock).max(0.0);
        let dt = remaining / self.speed;
        Some((
            now + dcm_sim::time::SimDuration::from_secs_f64(dt),
            burst.req,
        ))
    }

    /// Pops the frontmost burst if it has completed by `now` (within a
    /// small work-epsilon of the work clock).
    pub fn pop_completed(&mut self, now: SimTime) -> Option<R> {
        self.advance(now);
        let &Reverse(burst) = self.bursts.peek()?;
        if burst.target <= self.work_clock + WORK_EPSILON {
            self.bursts.pop();
            self.refresh_speed();
            self.completed_work += burst.work;
            Some(burst.req)
        } else {
            None
        }
    }

    /// Removes a specific request's burst (e.g. the request was aborted),
    /// keeping the work it had executed on the books of
    /// [`CpuScheduler::projected_executed_work`]. Returns `true` if a burst
    /// was removed. O(n) rebuild in the heap's own buffer — rare path.
    pub fn cancel_burst(&mut self, now: SimTime, req: R) -> bool {
        self.advance(now);
        let mut bursts = std::mem::take(&mut self.bursts).into_vec();
        let before = bursts.len();
        let clock = self.work_clock;
        let mut executed = 0.0;
        bursts.retain(|&Reverse(b)| {
            let cancelled = b.req == req;
            if cancelled {
                executed += (b.work - (b.target - clock).max(0.0)).max(0.0);
            }
            !cancelled
        });
        self.cancelled_work += executed;
        let removed = before != bursts.len();
        self.bursts = bursts.into();
        self.refresh_speed();
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::law::reference;
    use proptest::prelude::*;

    /// Burst targets of every kind a work clock can hold: zero, subnormal,
    /// small and large normal values, and any finite non-negative bit
    /// pattern up to the largest finite one.
    fn target() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            (1u64..1 << 52).prop_map(f64::from_bits),
            0.0..1e-3,
            0.0..1e6,
            (0u64..=f64::MAX.to_bits()).prop_map(f64::from_bits),
        ]
    }

    fn seq() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..4, any::<u64>()]
    }

    proptest! {
        /// The packed burst key orders `(target, seq)` exactly as the
        /// `(f64, u64)` tuple does, equal targets included.
        #[test]
        fn burst_key_orders_like_the_tuple(
            bursts in prop::collection::vec((target(), seq()), 2..40),
        ) {
            for &(t1, s1) in &bursts {
                for &(t2, s2) in &bursts {
                    for (a, b) in [((t1, s1), (t2, s2)), ((t1, s1), (t1, s2))] {
                        let tuple = a.partial_cmp(&b).expect("targets are not NaN");
                        prop_assert_eq!(
                            burst_key(a.0, a.1).cmp(&burst_key(b.0, b.1)),
                            tuple,
                            "{:?} vs {:?}",
                            a,
                            b
                        );
                    }
                }
            }
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn r(n: u64) -> RequestId {
        RequestId::new(n)
    }

    #[test]
    fn single_burst_completes_after_its_work() {
        let mut cpu = CpuScheduler::new(ServiceLaw::frictionless(1.0));
        cpu.add_burst(t(0.0), r(1), 0.5);
        let (at, req) = cpu.next_completion(t(0.0)).unwrap();
        assert_eq!(req, r(1));
        assert!((at.as_secs_f64() - 0.5).abs() < 1e-9);
        assert!(cpu.pop_completed(t(0.4)).is_none());
        assert_eq!(cpu.pop_completed(at), Some(r(1)));
        assert_eq!(cpu.active_bursts(), 0);
    }

    #[test]
    fn contention_inflates_wall_time_per_paper_law() {
        // Two saturated threads on the Tomcat law: each burst of S0 work
        // takes S*(2) wall seconds.
        let law = reference::tomcat();
        let s_star_2 = law.adjusted_service_time(2);
        let mut cpu = CpuScheduler::new(law);
        cpu.add_burst(t(0.0), r(1), law.s0());
        cpu.add_burst(t(0.0), r(2), law.s0());
        let (at, _) = cpu.next_completion(t(0.0)).unwrap();
        assert!(
            (at.as_secs_f64() - s_star_2).abs() < 1e-9,
            "expected {} got {}",
            s_star_2,
            at.as_secs_f64()
        );
    }

    #[test]
    fn saturated_throughput_matches_law() {
        // Keep N bursts active for a long stretch; completions per second
        // must approach N/S*(N).
        let law = reference::mysql();
        let n = 36u32;
        let mut cpu = CpuScheduler::new(law);
        let mut next_id = 0u64;
        for _ in 0..n {
            cpu.add_burst(t(0.0), r(next_id), law.s0());
            next_id += 1;
        }
        let horizon = 10.0;
        let mut now = t(0.0);
        let mut completions = 0u64;
        while let Some((at, _)) = cpu.next_completion(now) {
            if at.as_secs_f64() > horizon {
                break;
            }
            now = at;
            let done = cpu.pop_completed(now).expect("due burst pops");
            let _ = done;
            completions += 1;
            cpu.add_burst(now, r(next_id), law.s0());
            next_id += 1;
        }
        let measured = completions as f64 / horizon;
        let expected = law.saturated_throughput(n);
        assert!(
            (measured - expected).abs() / expected < 0.02,
            "measured {measured} expected {expected}"
        );
    }

    #[test]
    fn speed_change_settles_progress_first() {
        let law = ServiceLaw::new(1.0, 0.5, 0.0); // f(1)=1, f(2)=1.5
        let mut cpu = CpuScheduler::new(law);
        cpu.add_burst(t(0.0), r(1), 1.0);
        // Run half the burst alone at speed 1 (0.5 work done by t=0.5),
        // then a second burst joins and both run at speed 1/1.5.
        cpu.add_burst(t(0.5), r(2), 10.0);
        // Remaining 0.5 work at speed 1/1.5 → 0.75 s more.
        let (at, req) = cpu.next_completion(t(0.5)).unwrap();
        assert_eq!(req, r(1));
        assert!(
            (at.as_secs_f64() - 1.25).abs() < 1e-9,
            "{}",
            at.as_secs_f64()
        );
    }

    #[test]
    fn speed_follows_pops_and_cancels() {
        let law = ServiceLaw::new(1.0, 0.5, 0.0); // f(1)=1, f(2)=1.5
        let mut cpu = CpuScheduler::new(law);
        cpu.add_burst(t(0.0), r(1), 0.5);
        cpu.add_burst(t(0.0), r(2), 2.0);
        // Both run at speed 1/1.5: the short burst is done at 0.75 s.
        let (done, req) = cpu.next_completion(t(0.0)).unwrap();
        assert_eq!(req, r(1));
        assert!((done.as_secs_f64() - 0.75).abs() < 1e-9);
        assert_eq!(cpu.pop_completed(done), Some(r(1)));
        // Alone again at speed 1: 1.5 work left finishes 1.5 s later.
        let (at, _) = cpu.next_completion(done).unwrap();
        assert!((at.as_secs_f64() - 2.25).abs() < 1e-9, "{at:?}");

        let mut cpu = CpuScheduler::new(law);
        cpu.add_burst(t(0.0), r(1), 1.0);
        cpu.add_burst(t(0.0), r(2), 1.0);
        // 0.3 s at speed 1/1.5 does 0.2 work; the cancel restores speed 1.
        assert!(cpu.cancel_burst(t(0.3), r(2)));
        let (at, _) = cpu.next_completion(t(0.3)).unwrap();
        assert!((at.as_secs_f64() - 1.1).abs() < 1e-9, "{at:?}");
    }

    #[test]
    fn fifo_among_equal_targets() {
        let mut cpu = CpuScheduler::new(ServiceLaw::frictionless(1.0));
        cpu.add_burst(t(0.0), r(1), 0.3);
        cpu.add_burst(t(0.0), r(2), 0.3);
        let done_at = cpu.next_completion(t(0.0)).unwrap().0;
        assert_eq!(cpu.pop_completed(done_at), Some(r(1)));
        assert_eq!(cpu.pop_completed(done_at), Some(r(2)));
    }

    #[test]
    fn busy_time_only_accumulates_under_load() {
        let mut cpu = CpuScheduler::new(ServiceLaw::frictionless(1.0));
        cpu.advance(t(1.0)); // idle
        assert_eq!(cpu.busy_seconds(), 0.0);
        cpu.add_burst(t(1.0), r(1), 0.5);
        cpu.advance(t(1.5));
        assert!((cpu.busy_seconds() - 0.5).abs() < 1e-9);
        cpu.pop_completed(t(1.5));
        cpu.advance(t(3.0)); // idle again
        assert!((cpu.busy_seconds() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cancel_burst_removes_request() {
        let mut cpu = CpuScheduler::new(ServiceLaw::frictionless(1.0));
        cpu.add_burst(t(0.0), r(1), 0.5);
        cpu.add_burst(t(0.0), r(2), 0.2);
        let executed = cpu.projected_executed_work(t(0.1));
        assert!(executed > 0.0);
        assert!(cpu.cancel_burst(t(0.1), r(2)));
        assert!(!cpu.cancel_burst(t(0.1), r(2)));
        // The cancelled burst's progress stays executed work.
        assert!((cpu.projected_executed_work(t(0.1)) - executed).abs() < 1e-12);
        let (_, req) = cpu.next_completion(t(0.1)).unwrap();
        assert_eq!(req, r(1));
    }

    #[test]
    fn zero_work_burst_completes_immediately() {
        let mut cpu = CpuScheduler::new(ServiceLaw::frictionless(1.0));
        cpu.add_burst(t(0.0), r(1), 0.0);
        assert_eq!(cpu.pop_completed(t(0.0)), Some(r(1)));
    }

    #[test]
    fn contention_is_the_active_burst_count() {
        // 10 active bursts run at the law's speed for N = 10.
        let law = reference::tomcat();
        let mut cpu = CpuScheduler::new(law);
        for i in 0..10 {
            cpu.add_burst(t(0.0), r(i), law.s0());
        }
        let (at, _) = cpu.next_completion(t(0.0)).unwrap();
        assert!((at.as_secs_f64() - law.adjusted_service_time(10)).abs() < 1e-9);
    }
}
