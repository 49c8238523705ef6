//! The discrete-event simulation engine.
//!
//! [`Engine`] owns the virtual clock and a priority queue of scheduled
//! actions. Actions are closures (or plain functions with a `u64` payload)
//! over a user-supplied *world* type `W` (the mutable simulation state),
//! which keeps this crate independent of what is being simulated. Ties in
//! time are broken by schedule order, so a run is a pure function of
//! (initial world, seed, schedule), which the reproduction experiments rely
//! on.
//!
//! # The queue
//!
//! Pending events live in an indexed 4-ary min-heap of `(at, seq, slot)`
//! entries, ordered by `(at, seq)`; `seq` is a monotonic schedule counter,
//! so same-time events pop first in, first out. Each event owns a *slot*
//! in a side table holding its action, its heap position, and a generation.
//! An [`EventId`] packs the slot index and the generation the slot had when
//! the event was scheduled; cancelling or executing an event bumps the
//! generation, so a stale id is recognised by one array compare — no
//! hashing anywhere on the hot path.
//!
//! Because every slot knows where its entry sits in the heap:
//!
//! * [`Engine::cancel`] removes the entry at once — no tombstone waits in
//!   the queue for its time to come, and the action is dropped
//!   immediately;
//! * [`Engine::reschedule`] moves a pending event to a new time in place,
//!   keeping its action;
//! * [`Engine::schedule_fn_at`] stores a plain function pointer and payload
//!   in the slot, so the hottest timers need no `Box` at all;
//! * [`Engine::reserve_seq`] hands out the next `seq` without scheduling
//!   anything, and [`Engine::reschedule_reserved`] and
//!   [`Engine::schedule_fn_reserved`] later key an event with it, so a
//!   caller that would move one timer several times within a handler can
//!   reserve a key at each move and apply only the last.
//!
//! **Determinism argument.** Pop order is *exactly* global `(at, seq)`
//! order: the heap always yields its minimum key, and keys are unique
//! because `seq` is. `reschedule(id, at)` gives the entry a fresh `seq`,
//! just as the schedule call in "cancel, then schedule the same action"
//! would, and cancelling consumes no `seq`; it even returns the id that
//! pair would, since a cancelled slot is the next one reused. So a run
//! that moves events with `reschedule` pops the same events at the same
//! instants as one that cancels and re-schedules them. Slot reuse and heap
//! layout decide only *where* an entry waits, never *when* it pops.
//!
//! A reserved `seq` comes from the same counter, so it is unique too, and
//! an event keyed with it pops exactly where an event scheduled at the
//! moment of reservation would have: everything scheduled before the
//! reservation orders ahead of it at equal times, everything scheduled
//! after orders behind it. Because that key can be smaller than others
//! already queued, the reserved forms sift the entry in whichever direction
//! its key demands. A reserved `seq` that is never used leaves a gap in the
//! counter, which changes no relative order. Hence a caller that reserves
//! a `seq` at each of several moves of one event and applies only the last
//! reservation, before the engine pops anything, leaves the queue ordered
//! exactly as applying every move eagerly would.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::time::{SimDuration, SimTime};

/// Events executed across all engines in this process, accumulated when each
/// engine drops. Powers the events/second figures reported by `repro`.
static TOTAL_EXECUTED: AtomicU64 = AtomicU64::new(0);

/// Total events executed by all dropped engines since process start (or the
/// last [`reset_total_executed`]). Monotonic and thread-safe; an engine's
/// count is added when it is dropped, so long-lived engines are not included
/// until they finish.
pub fn total_executed() -> u64 {
    TOTAL_EXECUTED.load(AtomicOrdering::Relaxed)
}

/// Resets the process-wide executed-event counter and returns the value it
/// held, so callers can bracket a measurement window.
pub fn reset_total_executed() -> u64 {
    TOTAL_EXECUTED.swap(0, AtomicOrdering::Relaxed)
}

/// Opaque handle to a scheduled event, usable for cancellation (timeouts,
/// superseded retries) and rescheduling. Packs `(generation << 32) | slot`;
/// a handle is only valid while its slot still carries the same generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn new(slot: u32, gen: u32) -> Self {
        EventId(u64::from(gen) << 32 | u64::from(slot))
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A plain-function event: called with the world, the engine, and the
/// payload it was scheduled with.
pub type EventFn<W> = fn(&mut W, &mut Engine<W>, u64);

/// A closure event, boxed.
type BoxedFn<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// An action scheduled to run against the world at a point in virtual time.
enum Action<W> {
    Boxed(BoxedFn<W>),
    Fn(EventFn<W>, u64),
}

/// A heap entry: the pop key `(at, seq)` and the slot holding the action.
#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    /// Monotonic schedule order; FIFO tie-break among same-time events.
    seq: u64,
    slot: u32,
}

impl Entry {
    /// True when `self` pops before `other`.
    #[inline]
    fn before(&self, other: &Entry) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// Per-slot bookkeeping. A slot is live (its event pending) iff an
/// [`EventId`] carrying its current `gen` has been handed out; `pos` is
/// meaningful only then. Kept apart from the actions so the position
/// updates of every heap move touch a dense array.
#[derive(Clone, Copy)]
struct Slot {
    gen: u32,
    /// Index of the slot's entry in the heap.
    pos: u32,
}

/// Children per heap node: 4 halves a binary heap's depth, so a pop waits
/// on half as many dependent loads for a few more compares per level.
const ARITY: usize = 4;

/// Discrete-event engine over a world type `W`.
///
/// # Examples
///
/// ```
/// use dcm_sim::engine::Engine;
/// use dcm_sim::time::{SimDuration, SimTime};
///
/// let mut world = 0u32; // the "world" can be any state
/// let mut engine = Engine::new();
/// engine.schedule_in(SimDuration::from_secs(5), |w: &mut u32, _e| *w += 1);
/// engine.schedule_in(SimDuration::from_secs(1), |w: &mut u32, e| {
///     *w += 10;
///     // events may schedule further events
///     e.schedule_in(SimDuration::from_secs(1), |w: &mut u32, _e| *w += 100);
/// });
/// engine.run(&mut world);
/// assert_eq!(world, 111);
/// assert_eq!(engine.now(), SimTime::from_secs(5));
/// ```
pub struct Engine<W> {
    now: SimTime,
    /// Pending events; `heap[0]` pops next.
    heap: Vec<Entry>,
    slots: Vec<Slot>,
    /// Each live slot's action.
    actions: Vec<Option<Action<W>>>,
    /// Slots whose latest generation has been retired, ready for reuse.
    free: Vec<u32>,
    next_seq: u64,
    executed: u64,
}

impl<W> fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Drop for Engine<W> {
    fn drop(&mut self) {
        if self.executed > 0 {
            TOTAL_EXECUTED.fetch_add(self.executed, AtomicOrdering::Relaxed);
        }
    }
}

impl<W> Engine<W> {
    /// Creates an engine with the clock at [`SimTime::ZERO`] and no events.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            heap: Vec::new(),
            slots: Vec::new(),
            actions: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            executed: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of pending events (scheduled, not yet executed or cancelled).
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `action` at absolute time `at`.
    ///
    /// An event scheduled at or before the current time still executes (next,
    /// in FIFO order among same-time events); the clock never runs backwards.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> EventId {
        self.push(at, Action::Boxed(Box::new(action)))
    }

    /// Schedules the plain function `f` at absolute time `at`; it runs as
    /// `f(world, engine, arg)`. Orders exactly like [`Engine::schedule_at`]
    /// but allocates nothing, which suits timers armed once per request or
    /// per CPU-state change.
    pub fn schedule_fn_at(&mut self, at: SimTime, f: EventFn<W>, arg: u64) -> EventId {
        self.push(at, Action::Fn(f, arg))
    }

    /// Like [`Engine::schedule_fn_at`], keyed with `seq` from
    /// [`Engine::reserve_seq`] instead of a fresh one: the event orders as
    /// if it had been scheduled when `seq` was reserved. Each reserved
    /// `seq` may key at most one event.
    pub fn schedule_fn_reserved(
        &mut self,
        at: SimTime,
        f: EventFn<W>,
        arg: u64,
        seq: u64,
    ) -> EventId {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        self.push_keyed(at, seq, Action::Fn(f, arg))
    }

    /// Schedules `action` after a relative delay.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + delay, action)
    }

    /// Schedules `action` to run as the next same-time event.
    pub fn schedule_now(
        &mut self,
        action: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> EventId {
        self.schedule_at(self.now, action)
    }

    fn push(&mut self, at: SimTime, action: Action<W>) -> EventId {
        let seq = self.take_seq();
        self.push_keyed(at, seq, action)
    }

    fn push_keyed(&mut self, at: SimTime, seq: u64, action: Action<W>) -> EventId {
        let at = at.max(self.now);
        let pos = self.heap.len() as u32;
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("more than 2^32 live events");
                self.slots.push(Slot { gen: 0, pos });
                self.actions.push(None);
                slot
            }
        };
        self.actions[slot as usize] = Some(action);
        let gen = self.slots[slot as usize].gen;
        self.heap.push(Entry { at, seq, slot });
        self.sift_up(pos as usize);
        EventId::new(slot, gen)
    }

    #[inline]
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Takes the next schedule sequence number without scheduling
    /// anything, for a later [`Engine::reschedule_reserved`] or
    /// [`Engine::schedule_fn_reserved`]. Orders exactly as a schedule call
    /// made now would; an unused reservation changes no relative order.
    pub fn reserve_seq(&mut self) -> u64 {
        self.take_seq()
    }

    /// The heap position of `id`'s entry, or `None` if the event already
    /// ran or was cancelled.
    #[inline]
    fn live_pos(&self, id: EventId) -> Option<usize> {
        self.slots
            .get(id.slot() as usize)
            .filter(|s| s.gen == id.gen())
            .map(|s| s.pos as usize)
    }

    /// Cancels a pending event, removing it from the queue and dropping its
    /// action. Returns `true` if the event had not yet run or been
    /// cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(pos) = self.live_pos(id) else {
            return false;
        };
        self.remove_at(pos);
        self.actions[id.slot() as usize] = None;
        self.retire(id.slot());
        true
    }

    /// Moves a pending event to absolute time `at` (clamped to now), keeping
    /// its action, and returns its new id; `id` goes stale. The event orders
    /// as if it had been cancelled and its action scheduled afresh: it runs
    /// after every event already scheduled for the same instant. Returns
    /// `None`, and schedules nothing, if the event already ran or was
    /// cancelled.
    pub fn reschedule(&mut self, id: EventId, at: SimTime) -> Option<EventId> {
        let pos = self.live_pos(id)?;
        let seq = self.take_seq();
        Some(self.move_entry(id, pos, at, seq))
    }

    /// Like [`Engine::reschedule`], keyed with `seq` from
    /// [`Engine::reserve_seq`] instead of a fresh one: the event orders as
    /// if it had been cancelled and re-scheduled when `seq` was reserved.
    /// Returns `None`, and schedules nothing, if the event already ran or
    /// was cancelled.
    pub fn reschedule_reserved(&mut self, id: EventId, at: SimTime, seq: u64) -> Option<EventId> {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        let pos = self.live_pos(id)?;
        Some(self.move_entry(id, pos, at, seq))
    }

    /// Re-keys the live entry of `id` at heap index `pos` with `(at, seq)`,
    /// bumping its generation, and restores the heap order around it.
    fn move_entry(&mut self, id: EventId, pos: usize, at: SimTime, seq: u64) -> EventId {
        let at = at.max(self.now);
        let slot = &mut self.slots[id.slot() as usize];
        slot.gen = slot.gen.wrapping_add(1);
        let gen = slot.gen;
        let moved = Entry {
            at,
            seq,
            slot: id.slot(),
        };
        // A reserved `seq` can be smaller than keys already queued, so the
        // entry may have to move either way, whichever way its time went.
        let up = moved.before(&self.heap[pos]);
        self.heap[pos] = moved;
        if up {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
        EventId::new(id.slot(), gen)
    }

    /// Bumps a slot's generation (invalidating outstanding ids) and queues it
    /// for reuse.
    #[inline]
    fn retire(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
    }

    /// Executes the next event, advancing the clock. Returns `false` when no
    /// events remain.
    pub fn step(&mut self, world: &mut W) -> bool {
        let Some(ev) = self.pop_min() else {
            return false;
        };
        let action = self.actions[ev.slot as usize]
            .take()
            .expect("a queued slot holds its action");
        self.retire(ev.slot);
        // Release-mode guard for the queue's ordering contract: a heap bug
        // would surface here as a pop that travels backwards in time. One
        // u64 compare per event — cheap enough to keep on in release, where
        // a silent reorder would otherwise corrupt the simulation
        // undetected.
        assert!(
            ev.at >= self.now,
            "event queue ordering violated: popped t={:?} while clock at t={:?}",
            ev.at,
            self.now
        );
        self.now = ev.at;
        self.executed += 1;
        match action {
            Action::Boxed(f) => f(world, self),
            Action::Fn(f, arg) => f(world, self, arg),
        }
        true
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Runs until the clock would pass `deadline`; events at exactly
    /// `deadline` are executed. Pending later events remain queued and the
    /// clock is left at `deadline` (or at the last event if the queue
    /// drained early).
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        while self.peek_time().is_some_and(|t| t <= deadline) {
            self.step(world);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|ev| ev.at)
    }

    /// Removes and returns the minimum entry.
    fn pop_min(&mut self) -> Option<Entry> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            return Some(last);
        };
        // The last entry usually belongs near the leaves, so walk the root
        // hole all the way down along minimum children and sift `last` up
        // from there: fewer compares than sifting it down from the root.
        let len = self.heap.len();
        let mut pos = 0;
        loop {
            let first = pos * ARITY + 1;
            if first >= len {
                break;
            }
            let child_pos = self.min_child(first, len.min(first + ARITY));
            let child = self.heap[child_pos];
            self.place(pos, child);
            pos = child_pos;
        }
        self.heap[pos] = last;
        self.sift_up(pos);
        Some(top)
    }

    /// Heap index of the entry that pops first among `heap[first..end]`.
    #[inline]
    fn min_child(&self, first: usize, end: usize) -> usize {
        let mut best = first;
        for c in first + 1..end {
            if self.heap[c].before(&self.heap[best]) {
                best = c;
            }
        }
        best
    }

    /// Removes the entry at heap index `pos`, filling the hole with the last
    /// entry and restoring the heap order around it.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.pop().expect("a live slot has a heap entry");
        if pos == self.heap.len() {
            return;
        }
        let removed = std::mem::replace(&mut self.heap[pos], last);
        if last.before(&removed) {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
    }

    /// Records that the entry at heap index `pos` is `ev`.
    #[inline]
    fn place(&mut self, pos: usize, ev: Entry) {
        self.heap[pos] = ev;
        self.slots[ev.slot as usize].pos = pos as u32;
    }

    /// Moves the entry at `pos` toward the root until its parent pops first.
    fn sift_up(&mut self, mut pos: usize) {
        let ev = self.heap[pos];
        while pos > 0 {
            let parent_pos = (pos - 1) / ARITY;
            let parent = self.heap[parent_pos];
            if !ev.before(&parent) {
                break;
            }
            self.place(pos, parent);
            pos = parent_pos;
        }
        self.place(pos, ev);
    }

    /// Moves the entry at `pos` toward the leaves until it pops before all
    /// of its children.
    fn sift_down(&mut self, mut pos: usize) {
        let ev = self.heap[pos];
        let len = self.heap.len();
        loop {
            let first = pos * ARITY + 1;
            if first >= len {
                break;
            }
            let child_pos = self.min_child(first, len.min(first + ARITY));
            let child = self.heap[child_pos];
            if !child.before(&ev) {
                break;
            }
            self.place(pos, child);
            pos = child_pos;
        }
        self.place(pos, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    type W = Vec<u32>;

    fn push_at(engine: &mut Engine<W>, t: u64, tag: u32) -> EventId {
        engine.schedule_at(SimTime::from_secs(t), move |w: &mut W, _| w.push(tag))
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        push_at(&mut e, 3, 3);
        push_at(&mut e, 1, 1);
        push_at(&mut e, 2, 2);
        e.run(&mut w);
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(e.executed(), 3);
    }

    #[test]
    fn ties_break_in_schedule_order() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        for tag in 0..10 {
            push_at(&mut e, 5, tag);
        }
        e.run(&mut w);
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        e.schedule_in(SimDuration::from_secs(1), |w: &mut W, e| {
            w.push(1);
            e.schedule_in(SimDuration::from_secs(1), |w: &mut W, _| w.push(2));
        });
        e.run(&mut w);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(e.now(), SimTime::from_secs(2));
    }

    #[test]
    fn cancellation_suppresses_execution() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        let keep = push_at(&mut e, 1, 1);
        let drop_ = push_at(&mut e, 2, 2);
        push_at(&mut e, 3, 3);
        assert!(e.cancel(drop_));
        assert!(!e.cancel(drop_), "double-cancel reports false");
        assert!(!e.cancel(EventId(999)), "unknown id reports false");
        e.run(&mut w);
        assert_eq!(w, vec![1, 3]);
        let _ = keep;
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        push_at(&mut e, 1, 1);
        push_at(&mut e, 5, 5);
        push_at(&mut e, 10, 10);
        e.run_until(&mut w, SimTime::from_secs(5));
        assert_eq!(w, vec![1, 5]);
        assert_eq!(e.now(), SimTime::from_secs(5));
        assert_eq!(e.pending(), 1);
        // Idle gap: deadline beyond all events still advances the clock.
        e.run_until(&mut w, SimTime::from_secs(20));
        assert_eq!(w, vec![1, 5, 10]);
        assert_eq!(e.now(), SimTime::from_secs(20));
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(5), |w: &mut W, e| {
            w.push(1);
            // "Past" event executes at now, not before.
            e.schedule_at(SimTime::from_secs(1), |w: &mut W, _| w.push(2));
        });
        e.run(&mut w);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(e.now(), SimTime::from_secs(5));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut e: Engine<W> = Engine::new();
        let a = push_at(&mut e, 1, 1);
        push_at(&mut e, 2, 2);
        e.cancel(a);
        assert_eq!(e.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn empty_engine_steps_false() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        assert!(!e.step(&mut w));
        assert_eq!(e.peek_time(), None);
    }

    #[test]
    fn schedule_now_runs_before_later_events() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(1), |w: &mut W, e| {
            w.push(1);
            e.schedule_now(|w: &mut W, _| w.push(2));
            e.schedule_in(SimDuration::from_nanos(1), |w: &mut W, _| w.push(3));
        });
        push_at(&mut e, 2, 4);
        e.run(&mut w);
        assert_eq!(w, vec![1, 2, 3, 4]);
    }

    #[test]
    fn reused_slot_does_not_resurrect_old_handle() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        let a = push_at(&mut e, 1, 1);
        assert!(e.cancel(a));
        // The freed slot is reused with a bumped generation; the stale
        // handle must not cancel the new event.
        let b = push_at(&mut e, 2, 2);
        assert!(!e.cancel(a), "stale handle must stay dead");
        assert_eq!(e.pending(), 1);
        e.run(&mut w);
        assert_eq!(w, vec![2]);
        let _ = b;
    }

    #[test]
    fn cancel_after_execution_reports_false() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        let a = push_at(&mut e, 1, 1);
        e.run(&mut w);
        assert!(!e.cancel(a), "executed event cannot be cancelled");
    }

    #[test]
    fn reschedule_after_execution_returns_none() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        let a = push_at(&mut e, 1, 1);
        e.run(&mut w);
        assert_eq!(e.reschedule(a, SimTime::from_secs(2)), None);
        assert_eq!(e.pending(), 0, "a stale reschedule schedules nothing");
        e.run(&mut w);
        assert_eq!(w, vec![1]);
        assert_eq!(e.now(), SimTime::from_secs(1));
    }

    #[test]
    fn heavy_cancellation_keeps_counts_consistent() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        let ids: Vec<EventId> = (0..1000).map(|i| push_at(&mut e, i, i as u32)).collect();
        for id in ids.iter().skip(1).step_by(2) {
            assert!(e.cancel(*id));
        }
        assert_eq!(e.pending(), 500);
        e.run(&mut w);
        assert_eq!(w.len(), 500);
        assert!(w.iter().all(|tag| tag % 2 == 0));
        assert_eq!(e.executed(), 500);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn drop_accumulates_global_executed_counter() {
        let before = total_executed();
        let mut w: W = vec![];
        {
            let mut e = Engine::new();
            push_at(&mut e, 1, 1);
            push_at(&mut e, 2, 2);
            e.run(&mut w);
        }
        assert!(total_executed() >= before + 2);
    }

    #[test]
    fn wide_time_spread_pops_in_exact_order() {
        // Mix nanosecond-scale and hour-scale timestamps, scheduled out of
        // order: pops must still come out in exact (time, seq) order.
        let mut w: W = vec![];
        let mut e = Engine::new();
        let mut expect: Vec<(u64, u32)> = vec![];
        let mut sm = SplitMix64::new(7);
        for tag in 0..4000u32 {
            let at = match tag % 4 {
                0 => sm.next_u64() % 1_000,                     // ~ns
                1 => sm.next_u64() % 1_000_000_000,             // ~1s
                2 => 3_600_000_000_000 + sm.next_u64() % 1_000, // ~1h cluster
                _ => sm.next_u64() % 7_200_000_000_000,         // anywhere
            };
            e.schedule_at(SimTime::from_nanos(at), move |w: &mut W, _| w.push(tag));
            expect.push((at, tag));
        }
        expect.sort_by_key(|&(at, tag)| (at, tag)); // seq order == tag order here
        e.run(&mut w);
        assert_eq!(
            w,
            expect.iter().map(|&(_, tag)| tag).collect::<Vec<_>>(),
            "the queue must pop in exact (time, seq) order"
        );
    }

    /// Reference-model check: random schedule/cancel/reschedule/pop
    /// interleavings against a plain `BinaryHeap` + cancelled-set model
    /// must pop in identical `(time, seq)` order, across slot reuse and
    /// stale generations. The model treats a reschedule as a cancel plus a
    /// fresh-`seq` schedule of the same action, and keys an event scheduled
    /// or moved with a reserved `seq` by that `seq`: reservations are taken
    /// between other schedules and used later (so their keys undercut
    /// events already queued), and some are never used at all.
    #[test]
    fn random_interleavings_match_binary_heap_reference() {
        use std::cmp::Reverse;
        use std::collections::{BTreeSet, BinaryHeap};

        fn push_u64(w: &mut Vec<u64>, _: &mut Engine<Vec<u64>>, tag: u64) {
            w.push(tag);
        }

        for seed in 0..12u64 {
            let mut sm = SplitMix64::new(0xCA1E_0000 + seed);
            let mut e: Engine<Vec<u64>> = Engine::new();
            let mut w: Vec<u64> = vec![];
            // Model: (at_nanos, seq, tag) min-heap plus cancelled seq set.
            let mut model: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut cancelled: BTreeSet<u64> = BTreeSet::new();
            let mut live: Vec<(EventId, u64, u64)> = vec![]; // (handle, seq, tag)
            let mut dead: Vec<EventId> = vec![]; // executed, cancelled or moved
            let mut reserved: Vec<u64> = vec![]; // reserved, not yet used
            let mut next_seq = 0u64;
            let mut next_tag = 0u64;
            let mut expected: Vec<u64> = vec![];

            for _ in 0..4000 {
                // Delays mix zero, dense and sparse scales.
                let delay = match sm.next_u64() % 5 {
                    0 => 0,
                    1 => sm.next_u64() % 1_000,
                    2 => sm.next_u64() % 1_000_000,
                    3 => sm.next_u64() % 1_000_000_000,
                    _ => sm.next_u64() % 600_000_000_000,
                };
                let at = e.now() + SimDuration::from_nanos(delay);
                match sm.next_u64() % 100 {
                    // Schedule, half as boxed closures, half as fn events.
                    0..=39 => {
                        let (seq, tag) = (next_seq, next_tag);
                        next_seq += 1;
                        next_tag += 1;
                        let id = if tag % 2 == 0 {
                            e.schedule_at(at, move |w: &mut Vec<u64>, _| w.push(tag))
                        } else {
                            e.schedule_fn_at(at, push_u64, tag)
                        };
                        model.push(Reverse((at.as_nanos(), seq, tag)));
                        live.push((id, seq, tag));
                    }
                    // Cancel a random live event; both sides forget it.
                    40..=51 if !live.is_empty() => {
                        let i = (sm.next_u64() % live.len() as u64) as usize;
                        let (id, seq, _) = live.swap_remove(i);
                        assert!(e.cancel(id), "live handle must cancel");
                        cancelled.insert(seq);
                        dead.push(id);
                    }
                    // Move a random live event: cancel + fresh-seq schedule.
                    52..=63 if !live.is_empty() => {
                        let i = (sm.next_u64() % live.len() as u64) as usize;
                        let (id, seq, tag) = live[i];
                        let moved = e.reschedule(id, at).expect("live handle must move");
                        cancelled.insert(seq);
                        model.push(Reverse((at.as_nanos(), next_seq, tag)));
                        live[i] = (moved, next_seq, tag);
                        next_seq += 1;
                        dead.push(id);
                    }
                    // Stale handles (slot since reused or retired) stay dead:
                    // they neither cancel nor move, and schedule nothing (a
                    // reserved-seq move leaves its reservation unused).
                    64..=67 if !dead.is_empty() => {
                        let i = (sm.next_u64() % dead.len() as u64) as usize;
                        assert!(!e.cancel(dead[i]), "stale handle must stay dead");
                        assert_eq!(e.reschedule(dead[i], at), None, "stale handle moved");
                        if let Some(&seq) = reserved.last() {
                            assert_eq!(
                                e.reschedule_reserved(dead[i], at, seq),
                                None,
                                "stale handle moved with a reserved seq"
                            );
                        }
                    }
                    // Reserve a seq for later; some are never used.
                    68..=73 => {
                        assert_eq!(e.reserve_seq(), next_seq, "reservations share the counter");
                        reserved.push(next_seq);
                        next_seq += 1;
                    }
                    // Schedule a fn event keyed with an older reservation.
                    74..=78 if !reserved.is_empty() => {
                        let i = (sm.next_u64() % reserved.len() as u64) as usize;
                        let seq = reserved.swap_remove(i);
                        let tag = next_tag;
                        next_tag += 1;
                        let id = e.schedule_fn_reserved(at, push_u64, tag, seq);
                        model.push(Reverse((at.as_nanos(), seq, tag)));
                        live.push((id, seq, tag));
                    }
                    // Move a live event with an older reservation.
                    79..=83 if !reserved.is_empty() && !live.is_empty() => {
                        let r = (sm.next_u64() % reserved.len() as u64) as usize;
                        let new_seq = reserved.swap_remove(r);
                        let i = (sm.next_u64() % live.len() as u64) as usize;
                        let (id, seq, tag) = live[i];
                        let moved = e
                            .reschedule_reserved(id, at, new_seq)
                            .expect("live handle must move");
                        cancelled.insert(seq);
                        model.push(Reverse((at.as_nanos(), new_seq, tag)));
                        live[i] = (moved, new_seq, tag);
                        dead.push(id);
                    }
                    // Pop a few events; record what the model expects.
                    _ => {
                        for _ in 0..=(sm.next_u64() % 3) {
                            let due = loop {
                                match model.pop() {
                                    None => break None,
                                    Some(Reverse((_, seq, tag))) => {
                                        if cancelled.remove(&seq) {
                                            continue;
                                        }
                                        break Some((seq, tag));
                                    }
                                }
                            };
                            match due {
                                None => assert!(!e.step(&mut w)),
                                Some((seq, tag)) => {
                                    assert!(e.step(&mut w));
                                    expected.push(tag);
                                    let i = live.iter().position(|&(_, s, _)| s == seq).unwrap();
                                    let (id, _, _) = live.swap_remove(i);
                                    dead.push(id);
                                }
                            }
                        }
                    }
                }
                assert_eq!(e.pending(), live.len(), "live count must track the model");
                assert_eq!(
                    w, expected,
                    "seed {seed}: pop order diverged from reference"
                );
                for &(id, _, _) in &live {
                    assert!(e.live_pos(id).is_some(), "seed {seed}: a live handle died");
                }
                for &id in &dead {
                    assert!(
                        e.live_pos(id).is_none(),
                        "seed {seed}: a retired handle came back to life"
                    );
                }
            }

            // Drain both sides completely.
            while let Some(Reverse((_, seq, tag))) = model.pop() {
                if cancelled.remove(&seq) {
                    continue;
                }
                expected.push(tag);
            }
            e.run(&mut w);
            assert_eq!(
                w, expected,
                "seed {seed}: pop order diverged from reference"
            );
            assert_eq!(e.pending(), 0);
            for id in dead {
                assert!(
                    !e.cancel(id),
                    "seed {seed}: a retired handle came back to life"
                );
            }
        }
    }
}
