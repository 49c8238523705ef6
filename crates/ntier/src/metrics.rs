//! Per-server measurement: the raw signals the paper's Fine-Grained
//! Resource Monitor collects every second.

use dcm_sim::time::SimTime;

/// Incremental time-weighted accumulator for a piecewise-constant value
/// (active threads, connections in use).
///
/// Unlike [`dcm_sim::stats::StepGauge`] it keeps no history — O(1) memory —
/// which matters for servers updated millions of times per run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    value: f64,
    integral: f64,
    last_update: SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `start` with value `initial`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            value: initial,
            integral: 0.0,
            last_update: start,
        }
    }

    /// Sets a new value at `now`, settling the integral first.
    pub fn set(&mut self, now: SimTime, value: f64) {
        self.settle(now);
        self.value = value;
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Accumulated `∫ value dt` so far, up to the last settle.
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// The integral `∫ value dt` projected through `now` without mutating
    /// the accumulator (read-only view for auditors).
    pub fn projected_integral(&self, now: SimTime) -> f64 {
        self.integral + self.value * now.saturating_since(self.last_update).as_secs_f64()
    }

    /// Settles the integral through `now`.
    pub fn settle(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            self.integral += self.value * dt;
            self.last_update = now;
        }
    }
}

/// One monitoring sample from one server over a window (the agent's 1-second
/// report in the paper's architecture).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSample {
    /// Server name, e.g. `tomcat-1`.
    pub server: String,
    /// Tier index.
    pub tier: usize,
    /// Window start.
    pub window_start: SimTime,
    /// Window end.
    pub window_end: SimTime,
    /// The simulated CPU-utilization counter (what CloudWatch would
    /// report): delivered work over peak deliverable work, overridden by
    /// the busy fraction when the server is thrashing past its concurrency
    /// knee. In `[0, 1]`.
    pub cpu_util: f64,
    /// Raw fraction of the window with at least one burst on the CPU.
    pub busy_fraction: f64,
    /// Time-weighted mean of threads in use (the "active threads number
    /// (concurrency)" metric).
    pub active_threads: f64,
    /// Requests completed in the window.
    pub completed: u64,
    /// Completions per second over the window.
    pub throughput: f64,
    /// Mean dwell time (thread-held seconds per completion) in the window,
    /// if any completions occurred.
    pub mean_dwell: Option<f64>,
    /// Current thread-pool capacity.
    pub thread_pool_size: u32,
    /// Requests queued for a thread at window end.
    pub thread_queue: usize,
    /// Requests queued for a connection at window end.
    pub conn_queue: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn time_weighted_integrates_steps() {
        let mut tw = TimeWeighted::new(t(0.0), 2.0);
        tw.set(t(1.0), 4.0); // 2.0 for 1s
        tw.set(t(3.0), 0.0); // 4.0 for 2s
        tw.settle(t(5.0)); // 0.0 for 2s
        assert!((tw.integral() - 10.0).abs() < 1e-12);
        assert_eq!(tw.value(), 0.0);
    }

    #[test]
    fn settle_is_idempotent_at_same_instant() {
        let mut tw = TimeWeighted::new(t(0.0), 1.0);
        tw.settle(t(2.0));
        tw.settle(t(2.0));
        assert!((tw.integral() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_settle_is_ignored() {
        let mut tw = TimeWeighted::new(t(5.0), 1.0);
        tw.settle(t(3.0)); // earlier than start: no-op
        assert_eq!(tw.integral(), 0.0);
    }
}
