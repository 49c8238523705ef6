//! Runtime conservation auditing: cross-checks the simulator's independent
//! accounting paths against the operational laws they must jointly satisfy.
//!
//! The DES keeps several *redundant* books: the [`SystemCounters`] outcome
//! tally vs the live request map, the thread-pool time-weighted occupancy
//! vs the span log, the CPU busy clock vs the work it delivered. In a
//! correct simulator these agree to floating-point precision; a bug in any
//! path (a leaked permit, a double-counted completion, a span emitted with
//! inverted timestamps, a CPU delivering more work than physically
//! possible) breaks one of the identities. The [`ConservationAuditor`]
//! measures a window `[begin, finish]` and reports every broken identity:
//!
//! * **flow balance** — every submitted request is in exactly one place:
//!   `submitted = completed + rejected + timed_out + failed + in-flight`,
//!   with "in-flight" counted from the live request map, not derived;
//! * **tier flow balance** — every frame pushed at a tier during the window
//!   either recorded a span there, was abandoned while still waiting for a
//!   thread, or sits on a live request's stack:
//!   `Δentries[m] = spans[m] + Δabandoned[m] + Δlive_frames[m]`. On a DAG
//!   topology this is the per-node generalization of request conservation —
//!   it catches a dispatch that routes a call without booking the entry, or
//!   an unwind that drops a frame without an exit record;
//! * **edge consistency** — the flow ledger's per-edge entry counts must
//!   re-sum to its per-tier totals (`Σ_parent edge[parent→m] =
//!   entries[m]`), so per-edge visit-ratio sensing can trust the ledger;
//! * **span ordering** — every span has
//!   `arrived_at ≤ started_at ≤ finished_at`;
//! * **span statuses** — a request unwinds at most once, so all its
//!   non-completed spans carry the same terminal status, and a request
//!   with any non-completed span cannot also have a *completed* entry-tier
//!   span (mixed books would mean a request both finished and unwound);
//! * **Little's law per server** — the pool-accounting occupancy integral
//!   `∫ threads_in_use dt` equals `X·R` reconstructed from the span log
//!   (dwell of spans finished in the window, clipped, plus the dwell of
//!   frames still holding threads);
//! * **utilization law per server** — with `n` bursts the CPU delivers
//!   `n/f(n)` work-seconds per second, so over any window
//!   `busy·min_rate ≤ executed work ≤ busy·peak_rate` and `busy ≤ elapsed`,
//!   where the rates range over the concurrency levels the CPU actually
//!   reached;
//! * **work conservation per server** — a burst can only run on a held
//!   thread, so `∫ threads dt ≥ busy seconds`.
//!
//! Servers that stopped (crashed or drained) during the window are skipped:
//! a crash tears pools down without releasing permits, so their books
//! freeze mid-sentence by design. Every check is a pure function over plain
//! numbers, so each one has a deliberately-broken-invariant test proving it
//! can fail.

use std::collections::BTreeMap;

use dcm_sim::time::SimTime;

use crate::ids::ServerId;
use crate::request::Phase;
use crate::spans::{Span, SpanStatus};
use crate::system::{System, SystemCounters};

/// One broken invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which check failed (`flow-balance`, `span-ordering`, `span-status`,
    /// `littles-law`, `utilization-law`, `work-conservation`).
    pub check: &'static str,
    /// What the check was looking at (a server name, `system`, a span).
    pub subject: String,
    /// Human-readable mismatch description with both sides of the identity.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.check, self.subject, self.detail)
    }
}

/// The outcome of one audited window.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Window start.
    pub window_start: SimTime,
    /// Window end.
    pub window_end: SimTime,
    /// Servers whose books were cross-checked (running at both ends).
    pub servers_audited: usize,
    /// Spans inspected.
    pub spans_audited: usize,
    /// Every broken identity found; empty means the window is clean.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with a readable list when any invariant was violated.
    ///
    /// # Panics
    ///
    /// Panics if the report holds at least one violation.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "conservation audit failed ({} violations over [{:.3}s, {:.3}s]):\n{}",
            self.violations.len(),
            self.window_start.as_secs_f64(),
            self.window_end.as_secs_f64(),
            self.violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// A compact one-line rendering of the violations (`clean` for a
    /// clean window), suitable for journals and regression-case files
    /// where the multi-line [`AuditReport::assert_clean`] dump is too
    /// wide. Violations are separated by `; ` in detection order.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "clean".to_string();
        }
        let rendered: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("[{}] {}", v.check, v.subject))
            .collect();
        format!(
            "{} violations: {}",
            self.violations.len(),
            rendered.join("; ")
        )
    }
}

/// Per-server accounting marks at window start.
#[derive(Debug, Clone, Copy, Default)]
struct ServerMark {
    busy_seconds: f64,
    executed_work: f64,
    threads_integral: f64,
}

/// Opt-in conservation auditor over a measurement window.
///
/// Usage: enable span tracing, call [`ConservationAuditor::begin`] at the
/// window start (after draining previously recorded spans), run the
/// simulation, then pass the spans recorded *since begin* to
/// [`ConservationAuditor::finish`].
#[derive(Debug)]
pub struct ConservationAuditor {
    begin: SimTime,
    marks: BTreeMap<ServerId, ServerMark>,
    tier_entries0: Vec<u64>,
    tier_abandoned0: Vec<u64>,
    live_frames0: Vec<u64>,
}

impl ConservationAuditor {
    /// Snapshots every live server's books at `now`.
    pub fn begin(system: &System, now: SimTime) -> Self {
        let marks = system
            .servers()
            .filter(|s| !s.is_stopped())
            .map(|s| {
                (
                    s.id(),
                    ServerMark {
                        busy_seconds: s.cpu().projected_busy_seconds(now),
                        executed_work: s.cpu().projected_executed_work(now),
                        threads_integral: s.threads_time_integral(now),
                    },
                )
            })
            .collect();
        let ledger = system.flow_ledger();
        ConservationAuditor {
            begin: now,
            marks,
            tier_entries0: ledger.tier_entries().to_vec(),
            tier_abandoned0: ledger.tier_abandoned().to_vec(),
            live_frames0: system.live_frames_per_tier(),
        }
    }

    /// Cross-checks the window `[begin, now]` and reports every broken
    /// identity. `spans` must be exactly the spans recorded since
    /// [`ConservationAuditor::begin`].
    pub fn finish(&self, system: &System, spans: &[Span], now: SimTime) -> AuditReport {
        let mut violations = Vec::new();

        if let Some(v) = check_flow_balance(&system.counters(), system.live_requests()) {
            violations.push(v);
        }
        violations.extend(check_span_ordering(spans));
        violations.extend(check_span_statuses(spans));

        // Per-tier frame conservation over the window, from the flow ledger.
        let tiers = system.tier_count();
        let ledger = system.flow_ledger();
        let live_now = system.live_frames_per_tier();
        let mut entries_delta = Vec::with_capacity(tiers);
        let mut abandoned_delta = Vec::with_capacity(tiers);
        let mut live_delta = Vec::with_capacity(tiers);
        let mut spans_at_tier = vec![0i128; tiers];
        // `live_now` has one count per tier.
        for (m, &live) in live_now.iter().enumerate() {
            let e0 = self.tier_entries0.get(m).copied().unwrap_or(0);
            let a0 = self.tier_abandoned0.get(m).copied().unwrap_or(0);
            let l0 = self.live_frames0.get(m).copied().unwrap_or(0);
            entries_delta.push(i128::from(ledger.tier_entries()[m]) - i128::from(e0));
            abandoned_delta.push(i128::from(ledger.tier_abandoned()[m]) - i128::from(a0));
            live_delta.push(i128::from(live) - i128::from(l0));
        }
        for span in spans {
            if span.tier < tiers {
                spans_at_tier[span.tier] += 1;
            }
        }
        violations.extend(check_tier_flow_balance(
            &entries_delta,
            &spans_at_tier,
            &abandoned_delta,
            &live_delta,
        ));
        violations.extend(check_edge_consistency(
            &ledger.edge_entry_sums(),
            ledger.tier_entries(),
        ));

        // Servers running at both window ends (stopped servers freeze their
        // books mid-crash by design — see module docs).
        let audited: BTreeMap<ServerId, &crate::server::Server> = system
            .servers()
            .filter(|s| !s.is_stopped())
            .map(|s| (s.id(), s))
            .collect();

        // Span-side occupancy per server: dwell of recorded spans clipped
        // to the window, plus the dwell of frames still holding threads.
        let mut span_occ: BTreeMap<ServerId, f64> = audited.keys().map(|&sid| (sid, 0.0)).collect();
        for span in spans {
            if let Some(acc) = span_occ.get_mut(&span.server) {
                *acc += clipped_overlap(span.started_at, span.finished_at, self.begin, now);
            }
        }
        for req in system.requests_by_id() {
            for frame in &req.frames {
                if frame.phase == Phase::AwaitThread {
                    continue;
                }
                if let Some(acc) = span_occ.get_mut(&frame.server) {
                    *acc += clipped_overlap(frame.thread_since, now, self.begin, now);
                }
            }
        }

        let elapsed = now.saturating_since(self.begin).as_secs_f64();
        for (&sid, server) in &audited {
            let mark = self.marks.get(&sid).copied().unwrap_or_default();
            let busy = server.cpu().projected_busy_seconds(now) - mark.busy_seconds;
            let executed = server.cpu().projected_executed_work(now) - mark.executed_work;
            let occupancy = server.threads_time_integral(now) - mark.threads_integral;
            let (peak_rate, min_rate) = work_rate_range(server);
            let name = server.name();

            if let Some(v) = check_littles_law(name, occupancy, span_occ[&sid]) {
                violations.push(v);
            }
            violations.extend(check_utilization_law(
                name, busy, elapsed, executed, peak_rate, min_rate,
            ));
            if let Some(v) = check_work_conservation(name, occupancy, busy) {
                violations.push(v);
            }
        }

        AuditReport {
            window_start: self.begin,
            window_end: now,
            servers_audited: audited.len(),
            spans_audited: spans.len(),
            violations,
        }
    }
}

/// Overlap of `[from, to]` with the window `[w0, w1]`, clamped at zero.
fn clipped_overlap(from: SimTime, to: SimTime, w0: SimTime, w1: SimTime) -> f64 {
    let lo = if from > w0 { from } else { w0 };
    let hi = if to < w1 { to } else { w1 };
    hi.saturating_since(lo).as_secs_f64()
}

/// The range of work-delivery rates `n·(1/f(n))` over every concurrency
/// level `n` this CPU has actually reached.
fn work_rate_range(server: &crate::server::Server) -> (f64, f64) {
    let law = server.cpu().law();
    let hwm = server.cpu().max_active_bursts().max(1) as u32;
    let mut peak = 0.0f64;
    let mut min = f64::INFINITY;
    for n in 1..=hwm {
        let rate = f64::from(n) * law.progress_speed(n);
        peak = peak.max(rate);
        min = min.min(rate);
    }
    (peak, min)
}

/// Flow balance: `submitted = completed + rejected + timed_out + failed +
/// live`, where `live` is counted from the request map (not derived).
pub fn check_flow_balance(counters: &SystemCounters, live_requests: usize) -> Option<Violation> {
    let resolved = i128::from(counters.completed)
        + i128::from(counters.rejected)
        + i128::from(counters.timed_out)
        + i128::from(counters.failed);
    let balance = i128::from(counters.submitted) - resolved - live_requests as i128;
    (balance != 0).then(|| Violation {
        check: "flow-balance",
        subject: "system".into(),
        detail: format!(
            "submitted {} != completed {} + rejected {} + timed_out {} + failed {} + live {} \
             (imbalance {balance})",
            counters.submitted,
            counters.completed,
            counters.rejected,
            counters.timed_out,
            counters.failed,
            live_requests,
        ),
    })
}

/// Per-tier frame conservation over a window: every frame pushed at tier
/// `m` either recorded a span there, was abandoned while still waiting for
/// a thread, or remains on a live request's stack, so
/// `Δentries[m] = spans[m] + Δabandoned[m] + Δlive_frames[m]`.
/// All inputs are per-tier window deltas (live frames may shrink, hence
/// signed); slices must share one length.
pub fn check_tier_flow_balance(
    entries_delta: &[i128],
    spans_at_tier: &[i128],
    abandoned_delta: &[i128],
    live_delta: &[i128],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (m, &entered) in entries_delta.iter().enumerate() {
        let spans = spans_at_tier.get(m).copied().unwrap_or(0);
        let abandoned = abandoned_delta.get(m).copied().unwrap_or(0);
        let live = live_delta.get(m).copied().unwrap_or(0);
        let imbalance = entered - spans - abandoned - live;
        if imbalance != 0 {
            out.push(Violation {
                check: "tier-flow-balance",
                subject: format!("tier {m}"),
                detail: format!(
                    "Δentries {entered} != spans {spans} + Δabandoned {abandoned} + \
                     Δlive_frames {live} (imbalance {imbalance})"
                ),
            });
        }
    }
    out
}

/// Edge consistency: the flow ledger's per-edge entry counts (summed over
/// every parent, including the client) must reproduce its per-tier entry
/// totals exactly.
pub fn check_edge_consistency(edge_sums: &[u64], tier_entries: &[u64]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (m, &total) in tier_entries.iter().enumerate() {
        let summed = edge_sums.get(m).copied().unwrap_or(0);
        if summed != total {
            out.push(Violation {
                check: "edge-consistency",
                subject: format!("tier {m}"),
                detail: format!(
                    "per-edge entries re-sum to {summed} but the tier total is {total}"
                ),
            });
        }
    }
    out
}

/// Span ordering: every span satisfies `arrived ≤ started ≤ finished`.
pub fn check_span_ordering(spans: &[Span]) -> Vec<Violation> {
    spans
        .iter()
        .filter(|s| !(s.arrived_at <= s.started_at && s.started_at <= s.finished_at))
        .map(|s| Violation {
            check: "span-ordering",
            subject: format!("request {} tier {}", s.request, s.tier),
            detail: format!(
                "arrived {:.6} / started {:.6} / finished {:.6} out of order",
                s.arrived_at.as_secs_f64(),
                s.started_at.as_secs_f64(),
                s.finished_at.as_secs_f64(),
            ),
        })
        .collect()
}

/// Span statuses: unwinding happens at most once per request, so every
/// non-completed span of a request must carry the *same* terminal status,
/// and a request holding any non-completed span cannot also own a
/// completed entry-tier (tier-0) span.
pub fn check_span_statuses(spans: &[Span]) -> Vec<Violation> {
    #[derive(Default)]
    struct PerRequest {
        terminal: Option<SpanStatus>,
        mixed: bool,
        completed_root: bool,
    }
    let mut book: BTreeMap<crate::ids::RequestId, PerRequest> = BTreeMap::new();
    for s in spans {
        let entry = book.entry(s.request).or_default();
        if s.is_completed() {
            if s.tier == 0 {
                entry.completed_root = true;
            }
        } else {
            match entry.terminal {
                None => entry.terminal = Some(s.status),
                Some(t) if t != s.status => entry.mixed = true,
                Some(_) => {}
            }
        }
    }
    let mut out = Vec::new();
    for (rid, entry) in book {
        if entry.mixed {
            out.push(Violation {
                check: "span-status",
                subject: format!("request {rid}"),
                detail: "non-completed spans carry differing terminal statuses \
                         (a request unwinds at most once)"
                    .into(),
            });
        }
        if entry.completed_root && entry.terminal.is_some() {
            out.push(Violation {
                check: "span-status",
                subject: format!("request {rid}"),
                detail: format!(
                    "completed entry-tier span coexists with {} spans \
                     (request both finished and unwound)",
                    entry.terminal.map_or("?", SpanStatus::label),
                ),
            });
        }
    }
    out
}

/// Little's law: the pool-accounting occupancy integral must equal the
/// span-reconstructed one (`X·R` over the window) to float precision.
pub fn check_littles_law(
    subject: &str,
    occupancy_integral: f64,
    span_occupancy_integral: f64,
) -> Option<Violation> {
    let diff = (occupancy_integral - span_occupancy_integral).abs();
    let tol = 1e-6 * occupancy_integral.abs().max(span_occupancy_integral.abs()) + 1e-4;
    (diff > tol).then(|| Violation {
        check: "littles-law",
        subject: subject.into(),
        detail: format!(
            "pool occupancy ∫n dt = {occupancy_integral:.6} thread-s but spans reconstruct \
             {span_occupancy_integral:.6} (diff {diff:.3e} > tol {tol:.3e})"
        ),
    })
}

/// Utilization law: `busy ≤ elapsed` and
/// `busy·min_rate ≤ executed ≤ busy·peak_rate` for the work-delivery rates
/// the CPU can actually run at.
pub fn check_utilization_law(
    subject: &str,
    busy_seconds: f64,
    elapsed: f64,
    executed_work: f64,
    peak_rate: f64,
    min_rate: f64,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let tol = |x: f64| 1e-9 * x.abs() + 1e-6;
    if busy_seconds > elapsed + tol(elapsed) {
        out.push(Violation {
            check: "utilization-law",
            subject: subject.into(),
            detail: format!("busy {busy_seconds:.6}s exceeds window {elapsed:.6}s"),
        });
    }
    let ceiling = busy_seconds * peak_rate;
    if executed_work > ceiling + tol(ceiling) {
        out.push(Violation {
            check: "utilization-law",
            subject: subject.into(),
            detail: format!(
                "executed {executed_work:.6} work-s exceeds busy·peak = {busy_seconds:.6}·\
                 {peak_rate:.6} = {ceiling:.6}"
            ),
        });
    }
    let floor = busy_seconds * min_rate;
    if executed_work < floor - tol(floor) {
        out.push(Violation {
            check: "utilization-law",
            subject: subject.into(),
            detail: format!(
                "executed {executed_work:.6} work-s below busy·min = {busy_seconds:.6}·\
                 {min_rate:.6} = {floor:.6}"
            ),
        });
    }
    out
}

/// Work conservation: a burst only runs on a held thread, so the thread
/// occupancy integral dominates the CPU busy time.
pub fn check_work_conservation(
    subject: &str,
    threads_integral: f64,
    busy_seconds: f64,
) -> Option<Violation> {
    let tol = 1e-9 * busy_seconds.abs() + 1e-6;
    (threads_integral < busy_seconds - tol).then(|| Violation {
        check: "work-conservation",
        subject: subject.into(),
        detail: format!(
            "∫threads dt = {threads_integral:.6} thread-s < cpu busy {busy_seconds:.6}s: \
             work ran without a thread"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(submitted: u64, completed: u64, failed: u64) -> SystemCounters {
        SystemCounters {
            submitted,
            completed,
            rejected: 0,
            timed_out: 0,
            failed,
            retried: 0,
        }
    }

    #[test]
    fn flow_balance_accepts_consistent_books() {
        assert!(check_flow_balance(&counters(10, 7, 1), 2).is_none());
    }

    #[test]
    fn flow_balance_flags_leaked_request() {
        // 10 submitted, 7+1 resolved, but only 1 live: one request vanished.
        let v = check_flow_balance(&counters(10, 7, 1), 1).expect("must flag");
        assert_eq!(v.check, "flow-balance");
        assert!(v.detail.contains("imbalance 1"), "{}", v.detail);
    }

    #[test]
    fn flow_balance_flags_double_count() {
        // More outcomes than submissions.
        assert!(check_flow_balance(&counters(5, 6, 0), 0).is_some());
    }

    #[test]
    fn tier_flow_balance_accepts_consistent_window() {
        // Tier 0: 10 entered, 8 left via spans, 1 abandoned, 1 still live.
        // Tier 1: drained two frames that were live at window start.
        assert!(check_tier_flow_balance(&[10, 0], &[8, 2], &[1, 0], &[1, -2]).is_empty());
    }

    #[test]
    fn tier_flow_balance_flags_dropped_frame() {
        // Tier 1 booked 5 entries but only 4 frames are accounted for.
        let v = check_tier_flow_balance(&[3, 5], &[3, 4], &[0, 0], &[0, 0]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "tier-flow-balance");
        assert_eq!(v[0].subject, "tier 1");
        assert!(v[0].detail.contains("imbalance 1"), "{}", v[0].detail);
    }

    #[test]
    fn edge_consistency_flags_unbooked_edge() {
        assert!(check_edge_consistency(&[4, 9], &[4, 9]).is_empty());
        let v = check_edge_consistency(&[4, 7], &[4, 9]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "edge-consistency");
        assert!(v[0].detail.contains("re-sum to 7"), "{}", v[0].detail);
    }

    #[test]
    fn span_ordering_flags_inverted_timestamps() {
        let t = SimTime::from_secs_f64;
        let good = Span {
            request: crate::ids::RequestId::new(1),
            tier: 0,
            server: ServerId::new(1),
            arrived_at: t(1.0),
            started_at: t(1.5),
            finished_at: t(2.0),
            status: SpanStatus::Completed,
        };
        let started_before_arrival = Span {
            started_at: t(0.5),
            ..good
        };
        let finished_before_start = Span {
            finished_at: t(1.2),
            ..good
        };
        assert!(check_span_ordering(&[good]).is_empty());
        assert_eq!(check_span_ordering(&[started_before_arrival]).len(), 1);
        assert_eq!(check_span_ordering(&[finished_before_start]).len(), 1);
        assert_eq!(
            check_span_ordering(&[good, started_before_arrival, finished_before_start]).len(),
            2
        );
    }

    fn status_span(req: u64, tier: usize, status: SpanStatus) -> Span {
        let t = SimTime::from_secs_f64;
        Span {
            request: crate::ids::RequestId::new(req),
            tier,
            server: ServerId::new(1),
            arrived_at: t(1.0),
            started_at: t(1.5),
            finished_at: t(2.0),
            status,
        }
    }

    #[test]
    fn span_statuses_accept_consistent_unwind() {
        // A crashed request: every released frame carries Crashed; a second
        // request completed normally at both tiers.
        let spans = [
            status_span(1, 1, SpanStatus::Crashed),
            status_span(1, 0, SpanStatus::Crashed),
            status_span(2, 1, SpanStatus::Completed),
            status_span(2, 0, SpanStatus::Completed),
        ];
        assert!(check_span_statuses(&spans).is_empty());
    }

    #[test]
    fn span_statuses_flag_mixed_terminals() {
        // One request cannot both crash and be abandoned.
        let spans = [
            status_span(1, 1, SpanStatus::Crashed),
            status_span(1, 0, SpanStatus::Abandoned),
        ];
        let v = check_span_statuses(&spans);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "span-status");
        assert!(v[0].detail.contains("differing"), "{}", v[0].detail);
    }

    #[test]
    fn span_statuses_flag_completed_root_with_unwound_frames() {
        // Books claim the request finished at the entry tier *and* unwound.
        let spans = [
            status_span(1, 0, SpanStatus::Completed),
            status_span(1, 1, SpanStatus::Rejected),
        ];
        let v = check_span_statuses(&spans);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("rejected"), "{}", v[0].detail);
    }

    #[test]
    fn littles_law_flags_occupancy_mismatch() {
        assert!(check_littles_law("s", 100.0, 100.0 + 5e-5).is_none());
        let v = check_littles_law("s", 100.0, 103.0).expect("must flag");
        assert_eq!(v.check, "littles-law");
    }

    #[test]
    fn utilization_law_flags_overdelivery_and_idle_gaps() {
        // Clean: 10 busy seconds at rates within [0.5, 2.0].
        assert!(check_utilization_law("s", 10.0, 60.0, 12.0, 2.0, 0.5).is_empty());
        // Busy exceeding the window (executed stays within its rate band).
        assert_eq!(
            check_utilization_law("s", 61.0, 60.0, 40.0, 2.0, 0.5).len(),
            1
        );
        // CPU claims more work than busy·peak allows.
        assert_eq!(
            check_utilization_law("s", 10.0, 60.0, 21.0, 2.0, 0.5).len(),
            1
        );
        // CPU claims less work than busy·min guarantees.
        assert_eq!(
            check_utilization_law("s", 10.0, 60.0, 4.0, 2.0, 0.5).len(),
            1
        );
    }

    #[test]
    fn work_conservation_flags_threadless_work() {
        assert!(check_work_conservation("s", 50.0, 49.0).is_none());
        let v = check_work_conservation("s", 40.0, 49.0).expect("must flag");
        assert_eq!(v.check, "work-conservation");
    }

    #[test]
    fn report_assert_clean_panics_with_details() {
        let report = AuditReport {
            window_start: SimTime::ZERO,
            window_end: SimTime::from_secs(1),
            servers_audited: 1,
            spans_audited: 0,
            violations: vec![Violation {
                check: "littles-law",
                subject: "tomcat-1".into(),
                detail: "mismatch".into(),
            }],
        };
        assert!(!report.is_clean());
        let err = std::panic::catch_unwind(|| report.assert_clean())
            .expect_err("assert_clean must panic");
        let msg = err.downcast_ref::<String>().expect("panic carries message");
        assert!(
            msg.contains("littles-law") && msg.contains("tomcat-1"),
            "{msg}"
        );
    }
}
