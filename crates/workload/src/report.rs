//! Load-test result collection and summarization.
//!
//! A trace run's completion log holds one 32-byte record per logical
//! request, and a [`LoadReport`] over it keeps one response time per
//! success in its window (8 bytes each, in one buffer sized by a counting
//! pass), so summarizing a run adds at most a quarter of the size of the
//! records it reads.

use std::cell::RefCell;
use std::rc::Rc;

use dcm_ntier::request::{Completion, Outcome};
use dcm_sim::stats::{OnlineStats, SampleQuantiles, TimeSeries};
use dcm_sim::time::{SimDuration, SimTime};

/// Shared, append-only completion log a generator writes into from its
/// completion callbacks.
pub type SharedLog = Rc<RefCell<Vec<Completion>>>;

/// Creates an empty shared completion log.
pub fn shared_log() -> SharedLog {
    Rc::new(RefCell::new(Vec::new()))
}

/// Aggregated results of one load-generation run.
///
/// # Examples
///
/// ```
/// use dcm_workload::report::LoadReport;
/// use dcm_ntier::request::{Completion, Outcome};
/// use dcm_ntier::ids::RequestId;
/// use dcm_sim::time::SimTime;
///
/// let completions = vec![Completion {
///     id: RequestId::new(0),
///     class: 0,
///     submitted: SimTime::from_secs(1),
///     finished: SimTime::from_secs(2),
///     outcome: Outcome::Completed,
/// }];
/// let report = LoadReport::from_completions(&completions, SimTime::ZERO, SimTime::from_secs(10));
/// assert_eq!(report.completed(), 1);
/// assert!((report.mean_response_time() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct LoadReport {
    window_start: SimTime,
    window_end: SimTime,
    completed: u64,
    rejected: u64,
    timed_out: u64,
    failed: u64,
    rt_stats: OnlineStats,
    /// The response time of every success in the window.
    rt_quantiles: SampleQuantiles,
}

impl LoadReport {
    /// Summarizes completions whose finish time falls in
    /// `[window_start, window_end)` (use the window to exclude warm-up and
    /// drain phases).
    pub fn from_completions(
        completions: &[Completion],
        window_start: SimTime,
        window_end: SimTime,
    ) -> Self {
        let in_window = || {
            completions
                .iter()
                .filter(move |c| c.finished >= window_start && c.finished < window_end)
        };
        let successes = in_window().filter(|c| c.is_success()).count();
        let mut rejected = 0;
        let mut timed_out = 0;
        let mut failed = 0;
        let mut rt_stats = OnlineStats::new();
        let mut rt_quantiles = SampleQuantiles::with_capacity(successes);
        for c in in_window() {
            match c.outcome {
                Outcome::Completed => {
                    let rt = c.response_time().as_secs_f64();
                    rt_stats.record(rt);
                    rt_quantiles.record(rt);
                }
                Outcome::Rejected { .. } => rejected += 1,
                Outcome::TimedOut => timed_out += 1,
                Outcome::Failed { .. } => failed += 1,
            }
        }
        LoadReport {
            window_start,
            window_end,
            completed: successes as u64,
            rejected,
            timed_out,
            failed,
            rt_stats,
            rt_quantiles,
        }
    }

    /// Successful completions in the window.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Rejections in the window.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Client abandonments in the window.
    pub fn timed_out(&self) -> u64 {
        self.timed_out
    }

    /// Fault-induced losses (crashed server / transient failure) in the
    /// window.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Mean throughput over the window, completions/second.
    pub fn throughput(&self) -> f64 {
        let dt = self
            .window_end
            .saturating_since(self.window_start)
            .as_secs_f64();
        if dt > 0.0 {
            self.completed as f64 / dt
        } else {
            0.0
        }
    }

    /// Mean response time (seconds) of successful requests; 0 when none.
    pub fn mean_response_time(&self) -> f64 {
        self.rt_stats.mean()
    }

    /// Response-time quantile of successful requests.
    pub fn response_time_quantile(&mut self, q: f64) -> Option<f64> {
        self.rt_quantiles.quantile(q)
    }

    /// The measurement window.
    pub fn window(&self) -> (SimTime, SimTime) {
        (self.window_start, self.window_end)
    }

    /// SLA attainment: the fraction of *submitted* requests in the window
    /// that completed within `threshold_secs` (rejections and abandonments
    /// count as violations — the paper's SLAs are "bounded response time").
    /// Returns 1.0 for an empty window.
    pub fn sla_attainment(&self, threshold_secs: f64) -> f64 {
        let total = self.completed + self.rejected + self.timed_out + self.failed;
        if total == 0 {
            return 1.0;
        }
        let within = self.rt_quantiles.count_at_most(threshold_secs) as u64;
        within as f64 / total as f64
    }
}

/// Per-servlet-class latency summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// Servlet index (the profile's class id).
    pub class: u16,
    /// Servlet name from the mix, when known.
    pub name: String,
    /// Successful completions.
    pub completed: u64,
    /// Mean response time (seconds).
    pub mean_rt: f64,
    /// Maximum response time (seconds).
    pub max_rt: f64,
}

/// Per-servlet breakdown of a completion log, named via the mix that
/// generated the workload. Classes never observed are omitted; classes
/// beyond the mix are labelled `class-N`.
pub fn class_breakdown(
    completions: &[Completion],
    mix: &crate::servlets::ServletMix,
) -> Vec<ClassStats> {
    let mut acc: std::collections::BTreeMap<u16, (u64, f64, f64)> = Default::default();
    for c in completions.iter().filter(|c| c.is_success()) {
        let rt = c.response_time().as_secs_f64();
        let entry = acc.entry(c.class).or_default();
        entry.0 += 1;
        entry.1 += rt;
        entry.2 = entry.2.max(rt);
    }
    acc.into_iter()
        .map(|(class, (n, sum, max))| ClassStats {
            class,
            name: mix
                .servlets()
                .get(usize::from(class))
                .map_or_else(|| format!("class-{class}"), |s| s.name.to_string()),
            completed: n,
            mean_rt: sum / n as f64,
            max_rt: max,
        })
        .collect()
}

/// Per-window time series derived from a completion log (what Fig. 5 plots
/// each second).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSeries {
    /// Completions per second, one point per window.
    pub throughput: TimeSeries,
    /// Mean response time per window (seconds); windows with no completions
    /// carry the previous value of 0.
    pub mean_rt: TimeSeries,
    /// Maximum response time observed per window.
    pub max_rt: TimeSeries,
}

/// Builds per-window series from a completion log.
///
/// Windows are `[k·w, (k+1)·w)` from `start` to `end`; requests are binned
/// by finish time. Rejections are excluded from RT but not throughput.
pub fn windowed_series(
    completions: &[Completion],
    start: SimTime,
    end: SimTime,
    window: SimDuration,
) -> WindowedSeries {
    assert!(!window.is_zero(), "window must be positive");
    let w = window.as_secs_f64();
    let horizon = end.saturating_since(start).as_secs_f64();
    let n_windows = (horizon / w).ceil() as usize;
    let mut counts = vec![0u64; n_windows];
    let mut rt_sums = vec![0.0f64; n_windows];
    let mut rt_maxes = vec![0.0f64; n_windows];
    for c in completions
        .iter()
        .filter(|c| c.is_success() && c.finished >= start && c.finished < end)
    {
        let idx = ((c.finished.saturating_since(start)).as_secs_f64() / w) as usize;
        let idx = idx.min(n_windows.saturating_sub(1));
        counts[idx] += 1;
        let rt = c.response_time().as_secs_f64();
        rt_sums[idx] += rt;
        rt_maxes[idx] = rt_maxes[idx].max(rt);
    }
    let mut throughput = TimeSeries::new();
    let mut mean_rt = TimeSeries::new();
    let mut max_rt = TimeSeries::new();
    for k in 0..n_windows {
        let at = start + window * k as u64;
        throughput.push(at, counts[k] as f64 / w);
        mean_rt.push(
            at,
            if counts[k] > 0 {
                rt_sums[k] / counts[k] as f64
            } else {
                0.0
            },
        );
        max_rt.push(at, rt_maxes[k]);
    }
    WindowedSeries {
        throughput,
        mean_rt,
        max_rt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_ntier::ids::RequestId;

    fn completion(id: u64, submitted: f64, finished: f64, ok: bool) -> Completion {
        Completion {
            id: RequestId::new(id),
            class: 0,
            submitted: SimTime::from_secs_f64(submitted),
            finished: SimTime::from_secs_f64(finished),
            outcome: if ok {
                Outcome::Completed
            } else {
                Outcome::Rejected { at_tier: 1 }
            },
        }
    }

    #[test]
    fn report_windows_out_warmup() {
        let completions = vec![
            completion(0, 0.0, 1.0, true),  // in warm-up
            completion(1, 4.0, 5.0, true),  // measured
            completion(2, 5.0, 6.5, true),  // measured
            completion(3, 6.0, 11.0, true), // after window
        ];
        let report = LoadReport::from_completions(
            &completions,
            SimTime::from_secs(4),
            SimTime::from_secs(10),
        );
        assert_eq!(report.completed(), 2);
        assert!((report.throughput() - 2.0 / 6.0).abs() < 1e-9);
        assert!((report.mean_response_time() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn report_counts_rejections_separately() {
        let completions = vec![
            completion(0, 0.0, 1.0, true),
            completion(1, 0.0, 1.0, false),
        ];
        let mut report =
            LoadReport::from_completions(&completions, SimTime::ZERO, SimTime::from_secs(2));
        assert_eq!(report.completed(), 1);
        assert_eq!(report.rejected(), 1);
        assert_eq!(report.response_time_quantile(0.5), Some(1.0));
    }

    #[test]
    fn windowed_series_bins_by_finish_time() {
        let completions = vec![
            completion(0, 0.0, 0.5, true),
            completion(1, 0.0, 0.6, true),
            completion(2, 1.0, 2.5, true),
        ];
        let series = windowed_series(
            &completions,
            SimTime::ZERO,
            SimTime::from_secs(3),
            SimDuration::from_secs(1),
        );
        let tp: Vec<f64> = series.throughput.iter().map(|(_, v)| v).collect();
        assert_eq!(tp, vec![2.0, 0.0, 1.0]);
        let rt: Vec<f64> = series.mean_rt.iter().map(|(_, v)| v).collect();
        assert!((rt[0] - 0.55).abs() < 1e-9);
        assert_eq!(rt[1], 0.0);
        assert!((rt[2] - 1.5).abs() < 1e-9);
        assert!((series.max_rt.iter().map(|(_, v)| v).next().unwrap() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn sla_attainment_counts_failures_as_violations() {
        let completions = vec![
            completion(0, 0.0, 0.2, true),  // 0.2 s — within a 0.5 s SLA
            completion(1, 0.0, 0.9, true),  // 0.9 s — violation
            completion(2, 0.0, 1.0, false), // rejected — violation
        ];
        let report =
            LoadReport::from_completions(&completions, SimTime::ZERO, SimTime::from_secs(2));
        assert!((report.sla_attainment(0.5) - 1.0 / 3.0).abs() < 1e-12);
        assert!((report.sla_attainment(1.0) - 2.0 / 3.0).abs() < 1e-12);
        let empty = LoadReport::from_completions(&[], SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(empty.sla_attainment(0.5), 1.0);
    }

    #[test]
    fn class_breakdown_groups_and_names() {
        use crate::servlets::ServletMix;
        let mix = ServletMix::browse_only();
        let mut completions = vec![
            completion(0, 0.0, 1.0, true),
            completion(1, 0.0, 3.0, true),
            completion(2, 0.0, 2.0, false),
        ];
        completions[1].class = 1;
        let breakdown = class_breakdown(&completions, &mix);
        assert_eq!(breakdown.len(), 2);
        assert_eq!(breakdown[0].name, mix.servlet(0).name);
        assert_eq!(breakdown[0].completed, 1);
        assert!((breakdown[1].mean_rt - 3.0).abs() < 1e-12);
        // Unknown class labels gracefully.
        let mut odd = vec![completion(9, 0.0, 1.0, true)];
        odd[0].class = 999;
        let b = class_breakdown(&odd, &mix);
        assert_eq!(b[0].name, "class-999");
    }

    #[test]
    fn empty_log_is_safe() {
        let report = LoadReport::from_completions(&[], SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(report.completed(), 0);
        assert_eq!(report.throughput(), 0.0);
        assert_eq!(report.mean_response_time(), 0.0);
        let series = windowed_series(
            &[],
            SimTime::ZERO,
            SimTime::from_secs(2),
            SimDuration::from_secs(1),
        );
        assert_eq!(series.throughput.len(), 2);
    }
}
