//! Bounded, seed-deterministic span recording.
//!
//! The recorder sits between the simulator's span log and the exporters.
//! Two properties drive its design:
//!
//! * **Determinism** — the keep/drop decision for a request is a pure
//!   function of `(seed, request id)` via [`derive_seed`], so the recorded
//!   set is identical for every `--jobs` value and across machines. This is
//!   *head sampling*: one coin per request, flipped on its id, so a kept
//!   request keeps **all** of its tier visits and a trace waterfall is
//!   never half-recorded.
//! * **Boundedness without silence** — a hard ring-buffer capacity evicts
//!   the oldest span when full, and every evicted or unsampled span is
//!   counted in [`RecorderStats`], which the exporters embed in their
//!   output. Truncation is visible, never silent.
//!
//! Disabled recording is free: [`SpanRecorder::Off`] is a unit variant and
//! [`SpanRecorder::record`] on it is an inlined no-op match arm — no
//! allocation, no coin flip, no branch beyond the discriminant check.

use std::collections::VecDeque;

use dcm_ntier::spans::Span;
use dcm_sim::rng::derive_seed;

/// Sampling and retention configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Probability in `[0, 1]` that a request's spans are kept (1.0 keeps
    /// everything, 0.0 keeps nothing).
    pub rate: f64,
    /// Base seed for the per-request coin; the coin for request `r` is
    /// derived as `derive_seed(seed, r)`, independent of every other RNG
    /// stream in the simulation.
    pub seed: u64,
    /// Hard capacity of the span ring. When full, the *oldest* span is
    /// evicted (and counted) to admit the new one.
    pub capacity: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            rate: 1.0,
            seed: 0,
            capacity: 65_536,
        }
    }
}

/// Keep/drop accounting for one recording session.
///
/// Invariant: `seen = recorded + unsampled`; the ring currently holds
/// `recorded - evicted` spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Spans offered to the recorder.
    pub seen: u64,
    /// Spans admitted to the ring (some may have been evicted later).
    pub recorded: u64,
    /// Spans dropped by the sampling coin.
    pub unsampled: u64,
    /// Spans evicted from a full ring (oldest-first), plus spans refused
    /// outright when `capacity == 0`.
    pub evicted: u64,
}

/// A span recorder with enum-dispatched on/off state.
///
/// The hot path ([`record`](SpanRecorder::record)) is written so the `Off`
/// arm compiles to a discriminant check and nothing else — the cost of a
/// disabled recorder in the simulation loop is unmeasurable (CI enforces
/// ≤ 2 % against a recorder-free baseline).
#[derive(Debug)]
pub enum SpanRecorder {
    /// Recording disabled; `record` is a no-op.
    Off,
    /// Recording enabled; state is boxed so the `Off` variant stays one
    /// word and cheap to pass around.
    On(Box<ActiveRecorder>),
}

impl SpanRecorder {
    /// An enabled recorder with the given sampling config.
    pub fn new(config: SamplerConfig) -> SpanRecorder {
        SpanRecorder::On(Box::new(ActiveRecorder {
            config,
            ring: VecDeque::new(),
            stats: RecorderStats::default(),
        }))
    }

    /// A disabled recorder.
    pub fn off() -> SpanRecorder {
        SpanRecorder::Off
    }

    /// True when recording.
    pub fn is_on(&self) -> bool {
        matches!(self, SpanRecorder::On(_))
    }

    /// Offers one span. No-op when off.
    #[inline]
    pub fn record(&mut self, span: &Span) {
        match self {
            SpanRecorder::Off => {}
            SpanRecorder::On(active) => active.record(span),
        }
    }

    /// Offers a batch of spans. No-op when off.
    pub fn record_all(&mut self, spans: &[Span]) {
        match self {
            SpanRecorder::Off => {}
            SpanRecorder::On(active) => {
                for span in spans {
                    active.record(span);
                }
            }
        }
    }

    /// Current accounting (all zeros when off).
    pub fn stats(&self) -> RecorderStats {
        match self {
            SpanRecorder::Off => RecorderStats::default(),
            SpanRecorder::On(active) => active.stats,
        }
    }

    /// Consumes the recorder, returning the retained spans (in admission
    /// order) and the final accounting. The ring's buffer becomes the
    /// returned `Vec`, rotated in place, so finishing allocates nothing.
    pub fn finish(self) -> (Vec<Span>, RecorderStats) {
        match self {
            SpanRecorder::Off => (Vec::new(), RecorderStats::default()),
            SpanRecorder::On(active) => {
                let ActiveRecorder { ring, stats, .. } = *active;
                (Vec::from(ring), stats)
            }
        }
    }
}

/// Live recording state behind [`SpanRecorder::On`].
#[derive(Debug)]
pub struct ActiveRecorder {
    config: SamplerConfig,
    ring: VecDeque<Span>,
    stats: RecorderStats,
}

impl ActiveRecorder {
    fn record(&mut self, span: &Span) {
        self.stats.seen += 1;
        if !self.keeps(span.request.raw()) {
            self.stats.unsampled += 1;
            return;
        }
        if self.config.capacity == 0 {
            // Degenerate ring: nothing fits, but the drop is still counted.
            self.stats.recorded += 1;
            self.stats.evicted += 1;
            return;
        }
        if self.ring.len() == self.config.capacity {
            // Full ring: evict the oldest span to admit the new one. The
            // eviction is counted and surfaced by every exporter, so a
            // truncated trace announces itself.
            if self.ring.pop_front().is_some() {
                self.stats.evicted += 1;
            }
        }
        self.ring.push_back(*span);
        self.stats.recorded += 1;
    }

    /// The per-request head-sampling coin: pure in `(seed, request)`.
    fn keeps(&self, request: u64) -> bool {
        if self.config.rate >= 1.0 {
            return true;
        }
        if self.config.rate <= 0.0 {
            return false;
        }
        // Same bits→uniform mapping as Xoshiro's next_f64: top 53 bits.
        let coin = (derive_seed(self.config.seed, request) >> 11) as f64 / (1u64 << 53) as f64;
        coin < self.config.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_ntier::ids::{RequestId, ServerId};
    use dcm_ntier::spans::SpanStatus;
    use dcm_sim::time::SimTime;

    fn span(req: u64) -> Span {
        Span {
            request: RequestId::new(req),
            tier: 0,
            server: ServerId::new(0),
            arrived_at: SimTime::ZERO,
            started_at: SimTime::ZERO,
            finished_at: SimTime::from_secs(1),
            status: SpanStatus::Completed,
        }
    }

    #[test]
    fn off_recorder_keeps_nothing_and_counts_nothing() {
        let mut r = SpanRecorder::off();
        assert!(!r.is_on());
        r.record(&span(1));
        r.record_all(&[span(2), span(3)]);
        assert_eq!(r.stats(), RecorderStats::default());
        let (spans, stats) = r.finish();
        assert!(spans.is_empty());
        assert_eq!(stats, RecorderStats::default());
    }

    #[test]
    fn rate_one_keeps_everything_until_capacity() {
        let mut r = SpanRecorder::new(SamplerConfig {
            rate: 1.0,
            seed: 7,
            capacity: 3,
        });
        for i in 0..5 {
            r.record(&span(i));
        }
        let (spans, stats) = r.finish();
        assert_eq!(stats.seen, 5);
        assert_eq!(stats.recorded, 5);
        assert_eq!(stats.unsampled, 0);
        assert_eq!(stats.evicted, 2);
        // The ring keeps the newest three, oldest evicted first.
        let kept: Vec<u64> = spans.iter().map(|s| s.request.raw()).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn head_sampling_is_per_request_not_per_span() {
        let config = SamplerConfig {
            rate: 0.5,
            seed: 42,
            capacity: 1024,
        };
        let mut r = SpanRecorder::new(config);
        // Three spans per request: either all kept or all dropped.
        for req in 0..200 {
            for _ in 0..3 {
                r.record(&span(req));
            }
        }
        let (spans, stats) = r.finish();
        assert_eq!(stats.seen, 600);
        let mut per_req: std::collections::BTreeMap<u64, usize> = Default::default();
        for s in &spans {
            *per_req.entry(s.request.raw()).or_default() += 1;
        }
        assert!(per_req.values().all(|&n| n == 3), "partial waterfalls");
        // Rate 0.5 over 200 requests keeps a non-trivial fraction.
        assert!(
            per_req.len() > 50 && per_req.len() < 150,
            "{}",
            per_req.len()
        );
    }

    #[test]
    fn zero_capacity_counts_drops() {
        let mut r = SpanRecorder::new(SamplerConfig {
            rate: 1.0,
            seed: 0,
            capacity: 0,
        });
        r.record(&span(1));
        let (spans, stats) = r.finish();
        assert!(spans.is_empty());
        assert_eq!(stats.recorded, 1);
        assert_eq!(stats.evicted, 1);
    }
}
