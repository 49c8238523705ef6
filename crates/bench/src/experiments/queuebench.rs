//! Event-queue microbenchmarks: the engine under seeded operation streams.
//!
//! The engine keeps pending events in an indexed heap with eager
//! cancellation (see `dcm_sim::engine`). These microbenchmarks drive it
//! with seeded operation streams through profiles that bracket the
//! simulator's real access patterns:
//!
//! * **hold** — the classic hold model: a steady pending set where every
//!   pop schedules one replacement at `now + Exp(1)`. This is the pure
//!   schedule/pop path (no cancellations).
//! * **cancel** — cancel-heavy churn: every iteration schedules two
//!   events and immediately cancels one of them (~50 % of scheduled
//!   events never run).
//! * **churn** — timeout churn: every completion event carries a far
//!   timeout that is cancelled when the completion pops first — exactly
//!   the request-timeout pattern on the simulator's hot path, where
//!   almost every timeout is armed and then cancelled.
//! * **capture** — the hold stream again, but every event carries a
//!   16-byte payload (a tag and its own timestamp) that its action folds
//!   into the world. As a capturing closure (backend `engine`) it costs a
//!   `Box` per event, which the other profiles' empty closures never pay.
//!   Backend `fn` schedules the same stream with `Engine::schedule_fn_at`:
//!   the tag rides in the `u64` payload and the timestamp half is the
//!   engine's clock when the event runs, so it folds the same values with
//!   no allocation.
//! * **handler** — the hold stream once more, but each popped event's own
//!   handler schedules its successor, as every simulator timer does. The
//!   engine runs it as fn events and fuses each pop with that schedule.
//!
//! Timing uses wall clocks, so the results are machine-dependent and live
//! in `results/perf.json` (exempt from the bit-identity rule); the
//! *operation streams* are seeded, so every run does the same virtual
//! work.

use std::time::Instant;

use dcm_sim::engine::Engine;
use dcm_sim::rng::SimRng;
use dcm_sim::time::{SimDuration, SimTime};
use dcm_sim::Sample;

use crate::format::{num, TextTable};

use super::Fidelity;

/// Seed for the operation streams.
const SEED: u64 = 7_2026_0807;

/// Pending events held by the hold/churn profiles.
const HELD: usize = 65_536;

/// Operations per profile at each fidelity.
fn iterations(fidelity: Fidelity) -> u64 {
    match fidelity {
        Fidelity::Quick => 100_000,
        Fidelity::Full => 4_000_000,
    }
}

// ---------------------------------------------------------------------------
// Profiles: each drives the engine with one seeded operation stream.
// ---------------------------------------------------------------------------

fn exp_delay(rng: &mut SimRng) -> SimDuration {
    SimDuration::from_secs_f64(dcm_sim::dist::Dist::exponential(1.0).sample(rng))
}

/// The hold model: `HELD` pending events; every pop schedules one
/// replacement. Returns (operations, wall seconds) and the final clock.
fn hold_engine_clock(iters: u64) -> (u64, f64, SimTime) {
    let mut engine: Engine<()> = Engine::new();
    let mut rng = SimRng::seed_from(SEED);
    for _ in 0..HELD {
        let at = SimTime::ZERO + exp_delay(&mut rng);
        engine.schedule_at(at, |_, _| {});
    }
    let start = Instant::now();
    for _ in 0..iters {
        engine.step(&mut ());
        let at = engine.now() + exp_delay(&mut rng);
        engine.schedule_at(at, |_, _| {});
    }
    (2 * iters, start.elapsed().as_secs_f64(), engine.now())
}

fn hold_engine(iters: u64) -> (u64, f64) {
    let (ops, secs, _) = hold_engine_clock(iters);
    (ops, secs)
}

/// The hold stream with each successor scheduled by the popped fn event's
/// own handler, drawing from the world's RNG. Returns (operations, wall
/// seconds) and the final clock.
fn handler_engine_clock(iters: u64) -> (u64, f64, SimTime) {
    fn hold_next(rng: &mut SimRng, engine: &mut Engine<SimRng>, _: u64) {
        let at = engine.now() + exp_delay(rng);
        engine.schedule_fn_at(at, hold_next, 0);
    }
    let mut engine: Engine<SimRng> = Engine::new();
    let mut rng = SimRng::seed_from(SEED);
    for _ in 0..HELD {
        let at = SimTime::ZERO + exp_delay(&mut rng);
        engine.schedule_fn_at(at, hold_next, 0);
    }
    let start = Instant::now();
    for _ in 0..iters {
        engine.step(&mut rng);
    }
    (2 * iters, start.elapsed().as_secs_f64(), engine.now())
}

fn handler_engine(iters: u64) -> (u64, f64) {
    let (ops, secs, _) = handler_engine_clock(iters);
    (ops, secs)
}

/// Cancel-heavy churn: schedule two, cancel one, pop one.
fn cancel_engine(iters: u64) -> (u64, f64) {
    let mut engine: Engine<()> = Engine::new();
    let mut rng = SimRng::seed_from(SEED);
    let start = Instant::now();
    for _ in 0..iters {
        let keep = engine.now() + exp_delay(&mut rng);
        engine.schedule_at(keep, |_, _| {});
        let drop_at = engine.now() + exp_delay(&mut rng);
        let doomed = engine.schedule_at(drop_at, |_, _| {});
        engine.cancel(doomed);
        engine.step(&mut ());
    }
    (4 * iters, start.elapsed().as_secs_f64())
}

/// Timeout churn: a held set where every pop schedules a near completion
/// plus a far timeout, and cancels the previous far timeout (the
/// request-timeout pattern: armed, then cancelled on completion).
fn churn_engine(iters: u64) -> (u64, f64) {
    let mut engine: Engine<()> = Engine::new();
    let mut rng = SimRng::seed_from(SEED);
    let mut timeouts = Vec::with_capacity(HELD);
    for _ in 0..HELD {
        let at = SimTime::ZERO + exp_delay(&mut rng);
        engine.schedule_at(at, |_, _| {});
        let far = SimTime::ZERO + SimDuration::from_secs(1000) + exp_delay(&mut rng);
        timeouts.push(engine.schedule_at(far, |_, _| {}));
    }
    let start = Instant::now();
    for i in 0..iters {
        engine.step(&mut ());
        let slot = (i % HELD as u64) as usize;
        engine.cancel(timeouts[slot]);
        let at = engine.now() + exp_delay(&mut rng);
        engine.schedule_at(at, |_, _| {});
        let far = engine.now() + SimDuration::from_secs(1000) + exp_delay(&mut rng);
        timeouts[slot] = engine.schedule_at(far, |_, _| {});
    }
    (4 * iters, start.elapsed().as_secs_f64())
}

/// The 16-byte payload a capture-profile event folds into the world.
#[inline]
fn fold_payload(acc: u64, (tag, at_nanos): (u64, u64)) -> u64 {
    acc.rotate_left(5) ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ at_nanos
}

/// The hold stream with a capturing closure per event (one `Box` each).
/// Returns (operations, wall seconds) and the fold of every payload run.
fn capture_engine_fold(iters: u64) -> (u64, f64, u64) {
    let mut engine: Engine<u64> = Engine::new();
    let mut rng = SimRng::seed_from(SEED);
    let mut fold = 0u64;
    let schedule = |engine: &mut Engine<u64>, at: SimTime, tag: u64| {
        let payload = (tag, at.as_nanos());
        engine.schedule_at(at, move |w: &mut u64, _| *w = fold_payload(*w, payload));
    };
    for tag in 0..HELD as u64 {
        schedule(&mut engine, SimTime::ZERO + exp_delay(&mut rng), tag);
    }
    let start = Instant::now();
    for i in 0..iters {
        engine.step(&mut fold);
        let at = engine.now() + exp_delay(&mut rng);
        schedule(&mut engine, at, HELD as u64 + i);
    }
    (2 * iters, start.elapsed().as_secs_f64(), fold)
}

/// The capture stream as fn events: the tag is the payload, the
/// timestamp the clock at execution.
fn capture_fn_fold(iters: u64) -> (u64, f64, u64) {
    fn fold_event(w: &mut u64, engine: &mut Engine<u64>, tag: u64) {
        *w = fold_payload(*w, (tag, engine.now().as_nanos()));
    }
    let mut engine: Engine<u64> = Engine::new();
    let mut rng = SimRng::seed_from(SEED);
    let mut fold = 0u64;
    for tag in 0..HELD as u64 {
        let at = SimTime::ZERO + exp_delay(&mut rng);
        engine.schedule_fn_at(at, fold_event, tag);
    }
    let start = Instant::now();
    for i in 0..iters {
        engine.step(&mut fold);
        let at = engine.now() + exp_delay(&mut rng);
        engine.schedule_fn_at(at, fold_event, HELD as u64 + i);
    }
    (2 * iters, start.elapsed().as_secs_f64(), fold)
}

fn capture_engine(iters: u64) -> (u64, f64) {
    let (ops, secs, fold) = capture_engine_fold(iters);
    std::hint::black_box(fold);
    (ops, secs)
}

fn capture_fn(iters: u64) -> (u64, f64) {
    let (ops, secs, fold) = capture_fn_fold(iters);
    std::hint::black_box(fold);
    (ops, secs)
}

/// One (profile, backend) measurement.
#[derive(Debug, Clone)]
pub struct QueueBenchPoint {
    /// Profile name: `hold`, `cancel`, `churn`, `capture` or `handler`.
    pub profile: &'static str,
    /// Backend name: `engine`, or (capture only) `fn`.
    pub backend: &'static str,
    /// Queue operations performed (schedules + pops + cancels).
    pub ops: u64,
    /// Wall-clock seconds for the measured loop.
    pub wall_secs: f64,
}

impl QueueBenchPoint {
    /// Operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.ops as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// The microbenchmark results.
#[derive(Debug, Clone)]
pub struct QueueBench {
    /// Measurements in (profile, backend) order.
    pub points: Vec<QueueBenchPoint>,
}

/// A microbenchmark body: takes the iteration count, returns (ops, wall secs).
type ProfileFn = fn(u64) -> (u64, f64);

/// Runs every profile on its backends. Wall-clock timing: run on an
/// otherwise idle machine for stable numbers.
pub fn run_queuebench(fidelity: Fidelity) -> QueueBench {
    let iters = iterations(fidelity);
    let runs: [(&'static str, &'static str, ProfileFn); 6] = [
        ("hold", "engine", hold_engine),
        ("cancel", "engine", cancel_engine),
        ("churn", "engine", churn_engine),
        ("capture", "engine", capture_engine),
        ("capture", "fn", capture_fn),
        ("handler", "engine", handler_engine),
    ];
    let points = runs
        .into_iter()
        .map(|(profile, backend, run)| {
            let (ops, wall_secs) = run(iters);
            QueueBenchPoint {
                profile,
                backend,
                ops,
                wall_secs,
            }
        })
        .collect();
    QueueBench { points }
}

impl QueueBench {
    /// The rate of the (profile, backend) point `a` over that of `b`.
    fn ratio(&self, a: (&str, &str), b: (&str, &str)) -> Option<f64> {
        let rate = |(profile, backend): (&str, &str)| {
            self.points
                .iter()
                .find(|p| p.profile == profile && p.backend == backend)
                .map(QueueBenchPoint::ops_per_sec)
        };
        match (rate(a), rate(b)) {
            (Some(a), Some(b)) if b > 0.0 => Some(a / b),
            _ => None,
        }
    }

    /// One row per measurement.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["profile", "backend", "ops", "wall(s)", "Mops/s"]);
        for p in &self.points {
            t.row([
                p.profile.to_string(),
                p.backend.to_string(),
                p.ops.to_string(),
                num(p.wall_secs, 3),
                num(p.ops_per_sec() / 1e6, 2),
            ]);
        }
        t
    }

    /// The fn events against boxed closures, and the fused handler
    /// schedule against the hold stream it replays.
    pub fn findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(r) = self.ratio(("capture", "fn"), ("capture", "engine")) {
            out.push(format!(
                "capture: 16-byte payloads as fn events at {r:.2}x the rate \
                 of boxed closures"
            ));
        }
        if let Some(r) = self.ratio(("handler", "engine"), ("hold", "engine")) {
            out.push(format!(
                "handler: successors scheduled by the popped event's own \
                 handler (one fused pop and schedule each) at {r:.2}x the \
                 rate of the hold stream, which schedules them after the pop"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_backends_fold_the_same_payloads() {
        // The fn backend rebuilds each 16-byte payload from its tag and
        // the clock, so both engine backends must run the same events at
        // the same instants and fold identical values.
        let (ops_boxed, _, boxed) = capture_engine_fold(5_000);
        let (ops_fn, _, fns) = capture_fn_fold(5_000);
        assert_eq!(ops_boxed, ops_fn);
        assert_eq!(boxed, fns);
        assert_ne!(boxed, 0);
    }

    #[test]
    fn handler_profile_replays_the_hold_stream() {
        // Scheduling each successor from the popped event's handler must
        // draw the same delays at the same instants as scheduling it after
        // the pop, so both profiles end at the same clock.
        let (ops_hold, _, hold) = hold_engine_clock(5_000);
        let (ops_handler, _, handler) = handler_engine_clock(5_000);
        assert_eq!(ops_hold, ops_handler);
        assert_eq!(hold, handler);
        assert!(hold > SimTime::ZERO);
    }

    #[test]
    fn quick_bench_produces_all_points() {
        let bench = run_queuebench(Fidelity::Quick);
        assert_eq!(bench.points.len(), 6);
        for p in &bench.points {
            assert!(p.ops > 0);
            assert!(p.wall_secs >= 0.0);
        }
        assert_eq!(bench.findings().len(), 2);
        assert_eq!(bench.table().len(), 6);
    }
}
