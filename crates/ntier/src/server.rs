//! A component server: one Apache/Tomcat/MySQL instance inside one VM.
//!
//! A server couples a [`CpuScheduler`] (progress under the concurrency law)
//! with its soft resources — the thread [`Pool`] admitting requests and an
//! optional downstream connection [`Pool`] — plus lifecycle state (VM boot,
//! draining) and windowed measurement for the monitoring agents.

use dcm_sim::engine::EventId;
use dcm_sim::time::SimTime;

use crate::cpu::CpuScheduler;
use crate::ids::{FlightId, ServerId};
use crate::law::ServiceLaw;
use crate::metrics::{ServerSample, TimeWeighted};
use crate::pool::Pool;

/// A purchasable VM flavor: how fast it runs CPU bursts and what it costs.
///
/// `capacity` is a speed multiplier relative to the baseline instance the
/// concurrency laws were calibrated on: a capacity-2 VM finishes the same
/// nominal work in half the time (per-burst work is divided by capacity on
/// entry to the CPU, so the concurrency law itself — a property of the
/// software stack — is unchanged). `price_per_hour` feeds the resource-cost
/// comparison: heterogeneous controllers trade capacity against dollars,
/// not just VM counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmType {
    /// Display name, e.g. `m1.small`.
    pub name: &'static str,
    /// CPU-speed multiplier (baseline = 1.0).
    pub capacity: f64,
    /// Price in dollars per VM-hour.
    pub price_per_hour: f64,
}

impl VmType {
    /// The baseline flavor every pre-existing scenario runs on.
    pub const SMALL: VmType = VmType {
        name: "m1.small",
        capacity: 1.0,
        price_per_hour: 0.10,
    };

    /// Twice the CPU speed at slightly worse price per unit capacity.
    pub const LARGE: VmType = VmType {
        name: "m1.large",
        capacity: 2.0,
        price_per_hour: 0.24,
    };

    /// Four times the CPU speed, worse still per unit capacity.
    pub const XLARGE: VmType = VmType {
        name: "m1.xlarge",
        capacity: 4.0,
        price_per_hour: 0.56,
    };

    /// Dollars per hour per unit of capacity — the figure of merit a
    /// cost-aware selection policy minimizes.
    pub fn price_per_capacity(&self) -> f64 {
        self.price_per_hour / self.capacity
    }
}

impl Default for VmType {
    fn default() -> Self {
        VmType::SMALL
    }
}

/// Static configuration for launching a server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Display name, e.g. `tomcat-2`.
    pub name: String,
    /// Ground-truth concurrency law.
    pub law: ServiceLaw,
    /// Thread-pool capacity.
    pub threads: u32,
    /// Downstream connection-pool capacity (application servers have one
    /// toward the database; leaf tiers have `None`).
    pub conns: Option<u32>,
    /// The VM flavor this server runs on.
    pub vm: VmType,
}

/// Lifecycle of a server/VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerState {
    /// VM booting; becomes routable at the contained time.
    Starting {
        /// When the preparation period ends.
        ready_at: SimTime,
    },
    /// Routable and serving.
    Running,
    /// No new requests routed; finishes in-flight work then stops.
    Draining,
    /// Decommissioned.
    Stopped,
}

/// One simulated component server.
#[derive(Debug, Clone)]
pub struct Server {
    id: ServerId,
    tier: usize,
    name: String,
    state: ServerState,
    cpu: CpuScheduler<FlightId>,
    thread_pool: Pool<FlightId>,
    conn_pool: Option<Pool<FlightId>>,
    /// The engine event for this server's next CPU completion; the flow
    /// layer re-arms it whenever the CPU state changes.
    pub(crate) completion_event: Option<EventId>,
    /// True while a re-arm of `completion_event` awaits the flow layer's
    /// flush (the server is then listed in `System::rearm_dirty`).
    pub(crate) rearm_pending: bool,
    /// The engine `seq` reserved by the latest re-arm request that found
    /// the CPU busy — the key the flushed timer takes.
    pub(crate) rearm_seq: u64,
    threads_tw: TimeWeighted,
    completed_total: u64,
    dwell_sum_total: f64,
    // Window marks for sampling.
    window_start: SimTime,
    busy_mark: f64,
    work_mark: f64,
    completed_mark: u64,
    dwell_mark: f64,
    threads_integral_mark: f64,
    launched_at: SimTime,
    stopped_at: Option<SimTime>,
    /// Service-time multiplier for new CPU bursts (1.0 = healthy;
    /// > 1.0 while the server straggles under an injected slowdown).
    slowdown: f64,
    /// The VM flavor this server runs on (capacity divides burst work;
    /// price accrues with VM-seconds).
    vm: VmType,
}

impl Server {
    /// Creates a server in the given initial state.
    pub fn new(
        id: ServerId,
        tier: usize,
        spec: &ServerSpec,
        now: SimTime,
        state: ServerState,
    ) -> Self {
        Server {
            id,
            tier,
            name: spec.name.clone(),
            state,
            cpu: CpuScheduler::new(spec.law),
            thread_pool: Pool::new(spec.threads),
            conn_pool: spec.conns.map(Pool::new),
            completion_event: None,
            rearm_pending: false,
            rearm_seq: 0,
            threads_tw: TimeWeighted::new(now, 0.0),
            completed_total: 0,
            dwell_sum_total: 0.0,
            window_start: now,
            busy_mark: 0.0,
            work_mark: 0.0,
            completed_mark: 0,
            dwell_mark: 0.0,
            threads_integral_mark: 0.0,
            launched_at: now,
            stopped_at: None,
            slowdown: 1.0,
            vm: spec.vm,
        }
    }

    /// The server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The tier index this server belongs to.
    pub fn tier(&self) -> usize {
        self.tier
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lifecycle state.
    pub fn state(&self) -> ServerState {
        self.state
    }

    /// True if the balancer may route new requests here.
    pub fn is_routable(&self) -> bool {
        self.state == ServerState::Running
    }

    /// True once fully stopped.
    pub fn is_stopped(&self) -> bool {
        self.state == ServerState::Stopped
    }

    /// The CPU scheduler (read access for flow and tests).
    pub fn cpu(&self) -> &CpuScheduler<FlightId> {
        &self.cpu
    }

    /// Mutable CPU access for the flow layer.
    pub(crate) fn cpu_mut(&mut self) -> &mut CpuScheduler<FlightId> {
        &mut self.cpu
    }

    /// The thread pool.
    pub fn thread_pool(&self) -> &Pool<FlightId> {
        &self.thread_pool
    }

    /// The downstream connection pool, if any.
    pub fn conn_pool(&self) -> Option<&Pool<FlightId>> {
        self.conn_pool.as_ref()
    }

    /// Threads currently in use.
    pub fn threads_in_use(&self) -> u32 {
        self.thread_pool.in_use()
    }

    /// The time integral `∫ threads_in_use dt` since launch, projected
    /// through `now` (read-only; does not disturb sampling windows). This
    /// is the pool-accounting side of the Little's-law audit — the span log
    /// reconstructs the same integral independently.
    pub fn threads_time_integral(&self, now: SimTime) -> f64 {
        self.threads_tw.projected_integral(now)
    }

    /// Marks the server running (boot finished).
    pub fn mark_running(&mut self) {
        self.state = ServerState::Running;
    }

    /// Marks the server draining; it stops accepting new requests and will
    /// stop once idle.
    pub fn mark_draining(&mut self) {
        self.state = ServerState::Draining;
    }

    /// Marks the server stopped at `now`.
    pub fn mark_stopped(&mut self, now: SimTime) {
        self.state = ServerState::Stopped;
        self.stopped_at = Some(now);
    }

    /// True when draining and idle (safe to stop).
    pub fn drained(&self) -> bool {
        self.state == ServerState::Draining
            && self.thread_pool.in_use() == 0
            && self.thread_pool.queued() == 0
            && self.cpu.active_bursts() == 0
    }

    /// VM-seconds consumed from launch to `now` (or to stop time).
    pub fn vm_seconds(&self, now: SimTime) -> f64 {
        let end = self.stopped_at.unwrap_or(now);
        end.saturating_since(self.launched_at).as_secs_f64()
    }

    /// The VM flavor this server runs on.
    pub fn vm_type(&self) -> VmType {
        self.vm
    }

    /// Dollar cost accrued from launch to `now` (or to stop time).
    pub fn vm_cost(&self, now: SimTime) -> f64 {
        self.vm_seconds(now) / 3600.0 * self.vm.price_per_hour
    }

    fn sync_threads(&mut self, now: SimTime) {
        let n = self.thread_pool.in_use();
        // CPU contention tracks *running* bursts, not pooled threads: a
        // thread parked on a downstream call occupies a pool slot but does
        // not contend for the CPU (the CpuScheduler's contention level is
        // its live burst count). Settle the clock so the measurement
        // windows stay accurate.
        self.cpu.advance(now);
        self.threads_tw.set(now, f64::from(n));
    }

    /// Tries to take a thread for `req`; queues it on failure.
    pub fn acquire_thread(&mut self, now: SimTime, req: FlightId) -> bool {
        let granted = self.thread_pool.try_acquire(req);
        if granted {
            self.sync_threads(now);
        }
        granted
    }

    /// Releases a thread held for `dwell_secs`, handing it to the next
    /// waiter if any; the waiter (already accounted as in-use) is returned
    /// for resumption.
    ///
    /// # Panics
    ///
    /// Panics if no thread is in use (accounting bug).
    pub fn release_thread(&mut self, now: SimTime, dwell_secs: f64) -> Option<FlightId> {
        let next = self.thread_pool.release();
        self.sync_threads(now);
        self.completed_total += 1;
        self.dwell_sum_total += dwell_secs;
        next
    }

    /// Tries to take a downstream connection; queues on failure. Servers
    /// without a connection pool always grant.
    pub fn acquire_conn(&mut self, req: FlightId) -> bool {
        self.conn_pool
            .as_mut()
            .is_none_or(|pool| pool.try_acquire(req))
    }

    /// Releases a downstream connection; returns the next waiter if the
    /// permit transferred.
    ///
    /// # Panics
    ///
    /// Panics if the server has a pool and no connection is in use.
    pub fn release_conn(&mut self) -> Option<FlightId> {
        self.conn_pool.as_mut().and_then(Pool::release)
    }

    /// Resizes the thread pool; newly admitted waiters are returned for
    /// resumption (they already hold their permits).
    pub fn resize_thread_pool(&mut self, now: SimTime, capacity: u32) -> Vec<FlightId> {
        let admitted = self.thread_pool.resize(capacity);
        self.sync_threads(now);
        admitted
    }

    /// Resizes the connection pool (no-op returning empty when the server
    /// has none).
    pub fn resize_conn_pool(&mut self, capacity: u32) -> Vec<FlightId> {
        self.conn_pool
            .as_mut()
            .map_or_else(Vec::new, |pool| pool.resize(capacity))
    }

    /// Starts a CPU burst for `req`. While the server straggles, new
    /// bursts cost `slowdown ×` their nominal work; the VM flavor's
    /// capacity divides it (a faster box finishes the same nominal work
    /// sooner). At the baseline capacity of 1.0 the division is an exact
    /// bitwise no-op.
    pub fn start_burst(&mut self, now: SimTime, req: FlightId, work: f64) {
        self.cpu
            .add_burst(now, req, work * self.slowdown / self.vm.capacity);
    }

    /// The current straggler multiplier (1.0 = healthy).
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Sets the straggler multiplier applied to future bursts. Bursts
    /// already on the CPU keep their original work.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "slowdown must be finite and positive"
        );
        self.slowdown = factor;
    }

    /// Removes `req` from the thread-pool wait queue.
    pub fn cancel_thread_waiter(&mut self, req: FlightId) -> bool {
        self.thread_pool.cancel_waiter(req)
    }

    /// Removes `req` from the connection-pool wait queue.
    pub fn cancel_conn_waiter(&mut self, req: FlightId) -> bool {
        self.conn_pool
            .as_mut()
            .is_some_and(|pool| pool.cancel_waiter(req))
    }

    /// Total completions since launch.
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }

    /// The simulated CPU-utilization counter. Below the concurrency knee
    /// it reports delivered work over the peak deliverable work rate
    /// (`N*/f(N*)` work-seconds per second) — the analog of "cycles doing
    /// useful work / capacity". Past the knee the server burns its cycles
    /// on contention and coherency traffic while delivering *less*, which
    /// a hardware counter reports as a pegged CPU: whenever the mean
    /// concurrency substantially exceeds the knee, the raw busy fraction
    /// (≈ 1 under thrash) takes over.
    fn cpu_sensor(&self, busy_fraction: f64, mean_threads: f64, dt: f64) -> f64 {
        let law = self.cpu.law();
        let n_star = law.optimal_concurrency();
        // Peak deliverable work rate: n bursts each progressing at 1/f(n)
        // work-seconds per second, maximized at the knee.
        let peak_work_rate = if n_star == u32::MAX {
            f64::INFINITY
        } else {
            f64::from(n_star) / law.inflation(n_star)
        };
        let delivered = (self.cpu.completed_work() - self.work_mark) / dt;
        let base = if peak_work_rate.is_finite() && peak_work_rate > 0.0 {
            delivered / peak_work_rate
        } else {
            0.0
        };
        let thrashing = n_star != u32::MAX && mean_threads > 1.5 * f64::from(n_star);
        let util = if thrashing {
            base.max(busy_fraction)
        } else {
            base
        };
        util.clamp(0.0, 1.0)
    }

    /// Takes a monitoring sample covering `[window_start, now)` and opens a
    /// new window.
    pub fn sample(&mut self, now: SimTime) -> ServerSample {
        self.cpu.advance(now);
        self.threads_tw.settle(now);
        let dt = now.saturating_since(self.window_start).as_secs_f64();
        let safe_dt = if dt > 0.0 { dt } else { 1.0 };
        let completed = self.completed_total - self.completed_mark;
        let dwell = self.dwell_sum_total - self.dwell_mark;
        let busy_fraction = ((self.cpu.busy_seconds() - self.busy_mark) / safe_dt).clamp(0.0, 1.0);
        let mean_threads = (self.threads_tw.integral() - self.threads_integral_mark) / safe_dt;
        let cpu_util = self.cpu_sensor(busy_fraction, mean_threads, safe_dt);
        let sample = ServerSample {
            server: self.name.clone(),
            tier: self.tier,
            window_start: self.window_start,
            window_end: now,
            cpu_util,
            busy_fraction,
            active_threads: mean_threads,
            completed,
            throughput: completed as f64 / safe_dt,
            mean_dwell: (completed > 0).then(|| dwell / completed as f64),
            thread_pool_size: self.thread_pool.capacity(),
            thread_queue: self.thread_pool.queued(),
            conn_queue: self.conn_pool.as_ref().map_or(0, Pool::queued),
        };
        self.window_start = now;
        self.busy_mark = self.cpu.busy_seconds();
        self.work_mark = self.cpu.completed_work();
        self.completed_mark = self.completed_total;
        self.dwell_mark = self.dwell_sum_total;
        self.threads_integral_mark = self.threads_tw.integral();
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::law::reference;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn r(n: u64) -> FlightId {
        FlightId::pack(n as u32, 0)
    }

    fn spec() -> ServerSpec {
        ServerSpec {
            name: "tomcat-1".into(),
            law: reference::tomcat(),
            threads: 2,
            conns: Some(1),
            vm: VmType::SMALL,
        }
    }

    fn server() -> Server {
        Server::new(ServerId::new(0), 1, &spec(), t(0.0), ServerState::Running)
    }

    #[test]
    fn lifecycle_transitions() {
        let mut s = Server::new(
            ServerId::new(0),
            1,
            &spec(),
            t(0.0),
            ServerState::Starting { ready_at: t(15.0) },
        );
        assert!(!s.is_routable());
        s.mark_running();
        assert!(s.is_routable());
        s.mark_draining();
        assert!(!s.is_routable());
        assert!(s.drained());
        s.mark_stopped(t(20.0));
        assert!(s.is_stopped());
        assert_eq!(s.vm_seconds(t(100.0)), 20.0);
    }

    #[test]
    fn draining_waits_for_in_flight_work() {
        let mut s = server();
        assert!(s.acquire_thread(t(0.0), r(1)));
        s.mark_draining();
        assert!(!s.drained());
        s.release_thread(t(1.0), 1.0);
        assert!(s.drained());
    }

    #[test]
    fn thread_accounting_tracks_pool_not_cpu() {
        let mut s = server();
        assert!(s.acquire_thread(t(0.0), r(1)));
        assert!(s.acquire_thread(t(0.0), r(2)));
        // Pooled-but-idle threads do not contend for the CPU.
        assert_eq!(s.cpu().active_bursts(), 0);
        assert!(!s.acquire_thread(t(0.0), r(3)), "third queues");
        let next = s.release_thread(t(1.0), 1.0);
        assert_eq!(next, Some(r(3)));
        assert_eq!(s.threads_in_use(), 2, "handoff keeps two in use");
    }

    #[test]
    fn conn_pool_optional_semantics() {
        let mut s = server();
        assert!(s.acquire_conn(r(1)));
        assert!(!s.acquire_conn(r(2)), "capacity 1");
        assert_eq!(s.release_conn(), Some(r(2)));

        // A leaf server without a pool always grants.
        let leaf_spec = ServerSpec {
            conns: None,
            ..spec()
        };
        let mut leaf = Server::new(
            ServerId::new(1),
            2,
            &leaf_spec,
            t(0.0),
            ServerState::Running,
        );
        assert!(leaf.acquire_conn(r(9)));
        assert_eq!(leaf.release_conn(), None);
    }

    #[test]
    fn sample_reports_window_metrics() {
        let mut s = server();
        assert!(s.acquire_thread(t(0.0), r(1)));
        s.start_burst(t(0.0), r(1), 0.5);
        // Let the burst run its course: with contention 1, 0.5 work at
        // speed 1 completes at t=0.5.
        s.cpu_mut().pop_completed(t(0.5));
        s.release_thread(t(0.5), 0.5);
        let sample = s.sample(t(1.0));
        assert!((sample.busy_fraction - 0.5).abs() < 1e-9);
        // Sensor: 0.5 work-seconds delivered over a 1 s window, against the
        // Tomcat law's peak rate N*/f(N*).
        let law = crate::law::reference::tomcat();
        let n_star = law.optimal_concurrency();
        let peak = f64::from(n_star) / law.inflation(n_star);
        assert!(
            (sample.cpu_util - 0.5 / peak).abs() < 1e-9,
            "{}",
            sample.cpu_util
        );
        assert_eq!(sample.completed, 1);
        assert_eq!(sample.throughput, 1.0);
        assert_eq!(sample.mean_dwell, Some(0.5));
        assert!((sample.active_threads - 0.5).abs() < 1e-9);
        assert_eq!(sample.thread_pool_size, 2);

        // Second window is fresh.
        let sample2 = s.sample(t(2.0));
        assert_eq!(sample2.completed, 0);
        assert_eq!(sample2.cpu_util, 0.0);
        assert_eq!(sample2.mean_dwell, None);
    }

    #[test]
    fn resize_admits_and_reports() {
        let mut s = server();
        assert!(s.acquire_thread(t(0.0), r(1)));
        assert!(s.acquire_thread(t(0.0), r(2)));
        assert!(!s.acquire_thread(t(0.0), r(3)));
        let admitted = s.resize_thread_pool(t(1.0), 4);
        assert_eq!(admitted, vec![r(3)]);
        assert_eq!(s.threads_in_use(), 3);
        // Shrink below in-use: nothing admitted, pool over-committed.
        let none = s.resize_thread_pool(t(2.0), 1);
        assert!(none.is_empty());
        assert!(s.thread_pool().is_overcommitted());
    }

    #[test]
    fn vm_seconds_accrue_until_stop() {
        let s = server();
        assert_eq!(s.vm_seconds(t(30.0)), 30.0);
    }

    #[test]
    fn capacity_divides_burst_work_and_price_accrues() {
        let big_spec = ServerSpec {
            vm: VmType::LARGE,
            ..spec()
        };
        let mut s = Server::new(ServerId::new(2), 1, &big_spec, t(0.0), ServerState::Running);
        assert!(s.acquire_thread(t(0.0), r(1)));
        s.start_burst(t(0.0), r(1), 0.5);
        // Capacity 2 ⇒ 0.5 nominal work runs as 0.25 scaled work.
        assert_eq!(s.cpu_mut().pop_completed(t(0.25)), Some(r(1)));
        // One hour on an m1.large costs its hourly price.
        assert!((s.vm_cost(t(3600.0)) - VmType::LARGE.price_per_hour).abs() < 1e-12);
    }

    #[test]
    fn baseline_capacity_is_a_bitwise_noop() {
        let small = VmType::SMALL;
        let work = 0.123_456_789_f64;
        assert_eq!((work * 1.0 / small.capacity).to_bits(), work.to_bits());
        assert!(small.price_per_capacity() < VmType::LARGE.price_per_capacity());
        assert!(VmType::LARGE.price_per_capacity() < VmType::XLARGE.price_per_capacity());
    }
}
