//! Request-span tracing: per-tier timing records for individual requests
//! (the simulator's analog of distributed tracing), plus server lifecycle
//! events (boots, drains, crashes) for the observability exporters.
//!
//! When enabled on the [`System`](crate::system::System), every tier visit
//! emits a [`Span`] with its queueing and service boundaries. Spans answer
//! the questions the paper's fine-grained analysis asks: *where* does a
//! request wait when a pool is undersized, and which tier's dwell explodes
//! when one floods.

use dcm_sim::time::{SimDuration, SimTime};

use crate::ids::{RequestId, ServerId};
use crate::request::Outcome;

/// How a tier visit ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanStatus {
    /// The visit ran to completion and replied upstream.
    Completed,
    /// The visit unwound because the request was rejected (no routable
    /// server at some tier).
    Rejected,
    /// The visit unwound because the client abandoned the request at its
    /// deadline.
    Abandoned,
    /// The visit was lost to a VM crash or an injected transient fault.
    Crashed,
}

impl SpanStatus {
    /// The span status that unwinding with `outcome` stamps on every
    /// released frame.
    pub fn from_outcome(outcome: &Outcome) -> SpanStatus {
        match outcome {
            Outcome::Completed => SpanStatus::Completed,
            Outcome::Rejected { .. } => SpanStatus::Rejected,
            Outcome::TimedOut => SpanStatus::Abandoned,
            Outcome::Failed { .. } => SpanStatus::Crashed,
        }
    }

    /// Stable lower-case label (used by the exporters).
    pub fn label(self) -> &'static str {
        match self {
            SpanStatus::Completed => "completed",
            SpanStatus::Rejected => "rejected",
            SpanStatus::Abandoned => "abandoned",
            SpanStatus::Crashed => "crashed",
        }
    }
}

/// One tier visit of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The request.
    pub request: RequestId,
    /// Tier index of the visit.
    pub tier: usize,
    /// Serving server.
    pub server: ServerId,
    /// When the request arrived at the tier (thread requested).
    pub arrived_at: SimTime,
    /// When a thread was granted.
    pub started_at: SimTime,
    /// When the thread was released.
    pub finished_at: SimTime,
    /// How the visit ended.
    pub status: SpanStatus,
}

impl Span {
    /// Time spent waiting for a thread.
    pub fn queue_time(&self) -> SimDuration {
        self.started_at.saturating_since(self.arrived_at)
    }

    /// Time holding the thread (service + downstream waits).
    pub fn service_time(&self) -> SimDuration {
        self.finished_at.saturating_since(self.started_at)
    }

    /// True when the visit ran to completion (not unwound by rejection,
    /// abandonment, or a fault).
    pub fn is_completed(&self) -> bool {
        self.status == SpanStatus::Completed
    }
}

/// What happened to a server (the VM-lifecycle / fault event stream the
/// trace exporter turns into instant events).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerEventKind {
    /// A VM boot was requested; the server becomes routable `ready_at`.
    BootRequested {
        /// When the preparation period ends.
        ready_at: SimTime,
    },
    /// The preparation period ended and the server joined its tier.
    BootCompleted,
    /// The boot failed (injected boot failure); the VM never joined.
    BootFailed,
    /// The server stopped accepting requests and began draining.
    DrainStarted,
    /// The server crashed mid-flight, failing its in-flight requests.
    Crashed,
    /// The server's straggler multiplier changed (1.0 = full speed).
    SlowdownSet {
        /// CPU-work multiplier now in effect.
        factor: f64,
    },
}

impl ServerEventKind {
    /// Stable kebab-case label (used by the exporters).
    pub fn label(self) -> &'static str {
        match self {
            ServerEventKind::BootRequested { .. } => "boot-requested",
            ServerEventKind::BootCompleted => "boot-completed",
            ServerEventKind::BootFailed => "boot-failed",
            ServerEventKind::DrainStarted => "drain-started",
            ServerEventKind::Crashed => "crashed",
            ServerEventKind::SlowdownSet { .. } => "slowdown-set",
        }
    }
}

/// One timestamped server lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerEvent {
    /// When it happened.
    pub at: SimTime,
    /// The server.
    pub server: ServerId,
    /// The server's tier.
    pub tier: usize,
    /// What happened.
    pub kind: ServerEventKind,
}

/// All spans of one request, in start order (the trace waterfall).
pub fn waterfall(spans: &[Span], request: RequestId) -> Vec<Span> {
    let mut out: Vec<Span> = spans
        .iter()
        .copied()
        .filter(|s| s.request == request)
        .collect();
    out.sort_by_key(|s| (s.arrived_at, s.tier));
    out
}

/// Per-tier aggregate of queue and service time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TierTiming {
    /// Visits observed.
    pub visits: u64,
    /// Mean seconds waiting for a thread.
    pub mean_queue: f64,
    /// Mean seconds holding a thread.
    pub mean_service: f64,
}

/// Aggregates spans into per-tier timing (completed visits only).
pub fn tier_breakdown(spans: &[Span]) -> std::collections::BTreeMap<usize, TierTiming> {
    let mut acc: std::collections::BTreeMap<usize, (u64, f64, f64)> = Default::default();
    for s in spans.iter().filter(|s| s.is_completed()) {
        let entry = acc.entry(s.tier).or_default();
        entry.0 += 1;
        entry.1 += s.queue_time().as_secs_f64();
        entry.2 += s.service_time().as_secs_f64();
    }
    acc.into_iter()
        .map(|(tier, (n, q, sv))| {
            (
                tier,
                TierTiming {
                    visits: n,
                    mean_queue: q / n as f64,
                    mean_service: sv / n as f64,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, tier: usize, arrive: f64, start: f64, finish: f64) -> Span {
        Span {
            request: RequestId::new(req),
            tier,
            server: ServerId::new(tier as u64),
            arrived_at: SimTime::from_secs_f64(arrive),
            started_at: SimTime::from_secs_f64(start),
            finished_at: SimTime::from_secs_f64(finish),
            status: SpanStatus::Completed,
        }
    }

    #[test]
    fn span_timing_accessors() {
        let s = span(1, 0, 1.0, 1.5, 3.0);
        assert_eq!(s.queue_time(), SimDuration::from_millis(500));
        assert_eq!(s.service_time(), SimDuration::from_millis(1500));
    }

    #[test]
    fn status_maps_from_outcome() {
        assert_eq!(
            SpanStatus::from_outcome(&Outcome::Completed),
            SpanStatus::Completed
        );
        assert_eq!(
            SpanStatus::from_outcome(&Outcome::Rejected { at_tier: 1 }),
            SpanStatus::Rejected
        );
        assert_eq!(
            SpanStatus::from_outcome(&Outcome::TimedOut),
            SpanStatus::Abandoned
        );
        assert_eq!(
            SpanStatus::from_outcome(&Outcome::Failed { at_tier: 2 }),
            SpanStatus::Crashed
        );
        assert_eq!(SpanStatus::Abandoned.label(), "abandoned");
    }

    #[test]
    fn waterfall_filters_and_orders() {
        let spans = vec![
            span(2, 0, 0.0, 0.0, 1.0),
            span(1, 1, 0.5, 0.6, 0.9),
            span(1, 0, 0.0, 0.1, 1.0),
        ];
        let w = waterfall(&spans, RequestId::new(1));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].tier, 0);
        assert_eq!(w[1].tier, 1);
    }

    #[test]
    fn breakdown_averages_per_tier() {
        let spans = vec![
            span(1, 0, 0.0, 0.2, 1.0),
            span(2, 0, 0.0, 0.0, 0.4),
            span(1, 1, 0.0, 0.0, 0.3),
        ];
        let b = tier_breakdown(&spans);
        assert_eq!(b[&0].visits, 2);
        assert!((b[&0].mean_queue - 0.1).abs() < 1e-12);
        assert!((b[&0].mean_service - 0.6).abs() < 1e-12);
        assert_eq!(b[&1].visits, 1);
    }

    #[test]
    fn incomplete_spans_excluded_from_breakdown() {
        let mut s = span(1, 0, 0.0, 0.1, 0.5);
        s.status = SpanStatus::Crashed;
        assert!(tier_breakdown(&[s]).is_empty());
    }
}
