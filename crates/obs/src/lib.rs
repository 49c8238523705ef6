//! # dcm-obs — deterministic observability for the DCM reproduction
//!
//! The paper's evaluation is observational: Figures 4–5 argue by showing
//! *where* requests wait (per-tier queue vs service time), how goodput
//! evolves per control period, and *why* DCM chose each hardware/soft
//! allocation. This crate exports exactly those three views from any
//! experiment run, deterministically (byte-identical across `--jobs`):
//!
//! * [`recorder`] — a bounded, seed-deterministic sampling
//!   [`SpanRecorder`] over the simulator's span stream: head sampling by a
//!   `derive_seed` per-request coin, a hard ring-buffer cap, and drop
//!   counters so truncation is never silent.
//!   Disabled recording is a no-op enum arm — zero cost on the hot path.
//! * [`trace`] — exporters for Chrome trace-event JSON (loadable in
//!   `chrome://tracing` / Perfetto: one track per server, queue vs service
//!   slices, instant events for boots/crashes/control ticks) and flat CSV.
//! * [`metrics`] — a typed counter/gauge/histogram [`Registry`]
//!   snapshotted once per control period into a columnar [`SeriesTable`];
//!   also the home of the `repro` binary's wall-clock bookkeeping
//!   ([`PerfLog`]).
//! * [`journal`] — the controller [`DecisionJournal`]: per tick, the
//!   measurements seen, the fitted S⁰/α/β/γ (+N*, residual, provenance),
//!   every decision and a human-readable reason. `repro explain` renders
//!   it as "at t=300s tier=2: scale-out because …".
//!
//! ## Example
//!
//! ```
//! use dcm_obs::recorder::{SamplerConfig, SpanRecorder};
//! use dcm_obs::trace::{chrome_trace_json, TraceData};
//! use dcm_ntier::ids::{RequestId, ServerId};
//! use dcm_ntier::spans::{Span, SpanStatus};
//! use dcm_sim::time::SimTime;
//!
//! let mut rec = SpanRecorder::new(SamplerConfig::default());
//! rec.record(&Span {
//!     request: RequestId::new(1),
//!     tier: 0,
//!     server: ServerId::new(0),
//!     arrived_at: SimTime::ZERO,
//!     started_at: SimTime::from_secs_f64(0.002),
//!     finished_at: SimTime::from_secs_f64(0.012),
//!     status: SpanStatus::Completed,
//! });
//! let (spans, stats) = rec.finish();
//! assert_eq!(stats.recorded, 1);
//! let json = chrome_trace_json(&TraceData { spans, stats, ..Default::default() });
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod json;

pub mod faillog;
pub mod journal;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use faillog::{FailureLog, FailureRecord};
pub use journal::{Decision, DecisionJournal, FitSnapshot, JournalEntry, TierObservation};
pub use metrics::{PerfLog, Registry, SeriesTable};
pub use recorder::{RecorderStats, SamplerConfig, SpanRecorder};
pub use trace::{chrome_trace_json, spans_csv, ControlTick, TraceData};
