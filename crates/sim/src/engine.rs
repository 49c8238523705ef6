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
//! so same-time events pop first in, first out. Entries compare through
//! one packed integer, [`SimTime::key`], which orders exactly like the
//! tuple without a branch per field. Each event owns a *slot*
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
//!
//! **The fused pop.** Most handlers schedule at least one event, so
//! [`Engine::step`] does not remove the executing event's entry before
//! running it. The entry stays in `heap[0]` as a *hole* while the handler
//! runs, and the first event the handler schedules is written into the
//! hole and sifted down: one descent instead of a removal and a separate
//! insertion. Sifting down from the root restores heap order for any key,
//! and the events handlers schedule (same-instant and short timers) often
//! belong near the root, where the descent stops at once. If the handler
//! schedules nothing, `step` removes the hole afterwards. Until then the
//! heap stays valid with the hole at its root because every other entry
//! orders after the hole: entries queued before the pop did (the hole was
//! the minimum), and so does any key moved during the handler, except one
//! keyed with a `seq` reserved before the pop at a time equal to the
//! clock. Such a key would sift past the hole, so the hole is removed
//! before the move. The hole is thus overwritten or removed before anything
//! else can pop (a `step` nested in a handler removes it first), and pop
//! order stays global `(at, seq)` order; ids, slot reuse and `seq`
//! consumption happen exactly when they did with a plain pop.

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
    #[inline]
    fn key(&self) -> u128 {
        self.at.key(self.seq)
    }

    /// True when `self` pops before `other`.
    #[inline]
    fn before(&self, other: &Entry) -> bool {
        self.key() < other.key()
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
    /// True while `heap[0]` is the executing event's retired entry, kept
    /// for the handler's first schedule to overwrite (see the module doc).
    hole: bool,
}

impl<W> fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.pending())
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
            hole: false,
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
    /// Inside a handler the executing event is no longer pending.
    pub fn pending(&self) -> usize {
        self.heap.len() - usize::from(self.hole)
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
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("more than 2^32 live events");
                // `pos` is set when the entry is placed below.
                self.slots.push(Slot { gen: 0, pos: 0 });
                self.actions.push(None);
                slot
            }
        };
        self.actions[slot as usize] = Some(action);
        let gen = self.slots[slot as usize].gen;
        let ev = Entry { at, seq, slot };
        if self.hole {
            // The fused pop: the new entry takes the executing event's place.
            self.hole = false;
            self.heap[0] = ev;
            self.sift_down(0);
        } else {
            let pos = self.heap.len();
            self.heap.push(ev);
            self.sift_up(pos);
        }
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
        let moved = Entry {
            at: at.max(self.now),
            seq,
            slot: id.slot(),
        };
        // Only a key that orders after the open hole may sift past it.
        let pos = if self.hole && !self.heap[0].before(&moved) {
            // Removing the hole shifts entries, this one possibly included.
            self.close_hole();
            self.slots[id.slot() as usize].pos as usize
        } else {
            pos
        };
        let slot = &mut self.slots[id.slot() as usize];
        slot.gen = slot.gen.wrapping_add(1);
        let gen = slot.gen;
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

    /// Removes the hole, if one is open.
    #[inline]
    fn close_hole(&mut self) {
        if self.hole {
            self.hole = false;
            self.remove_root();
        }
    }

    /// Executes the next event, advancing the clock. Returns `false` when no
    /// events remain.
    pub fn step(&mut self, world: &mut W) -> bool {
        // Only a step nested in a handler finds a hole open.
        self.close_hole();
        let Some(&ev) = self.heap.first() else {
            return false;
        };
        let action = self.actions[ev.slot as usize]
            .take()
            .expect("a queued slot holds its action");
        self.retire(ev.slot);
        self.hole = true;
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
        self.close_hole();
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

    /// The timestamp of the next pending event, if any. Inside a handler
    /// the executing event is not pending: the next one is then the
    /// earliest child of the hole.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.hole {
            let len = self.heap.len();
            return (len > 1).then(|| self.min_child(1, len.min(1 + ARITY)).1.at);
        }
        self.heap.first().map(|ev| ev.at)
    }

    /// Removes the root entry; the heap must not be empty.
    fn remove_root(&mut self) {
        let last = self.heap.pop().expect("removing the root of an empty heap");
        let len = self.heap.len();
        if len == 0 {
            return;
        }
        // The last entry usually belongs near the leaves, so walk the root
        // hole all the way down along minimum children and sift `last` up
        // from there: fewer compares than sifting it down from the root.
        let mut pos = 0;
        loop {
            let first = pos * ARITY + 1;
            if first >= len {
                break;
            }
            let (child_pos, child) = self.min_child(first, len.min(first + ARITY));
            self.place(pos, child);
            pos = child_pos;
        }
        self.heap[pos] = last;
        self.sift_up(pos);
    }

    /// Heap index and entry of the entry that pops first among
    /// `heap[first..end]`. A full group of four is settled by a two-round
    /// tournament of branch-free selects; keys are unique, so it picks the
    /// same child as the linear scan. Forced inline: as a call per level
    /// it cost about a tenth of a fused step.
    #[inline(always)]
    fn min_child(&self, first: usize, end: usize) -> (usize, Entry) {
        if let Some(&[a, b, c, d]) = self.heap.get(first..end) {
            let (ka, kb, kc, kd) = (a.key(), b.key(), c.key(), d.key());
            let (left, left_key) = if kb < ka { (1, kb) } else { (0, ka) };
            let (right, right_key) = if kd < kc { (3, kd) } else { (2, kc) };
            let best = first + if right_key < left_key { right } else { left };
            return (best, self.heap[best]);
        }
        let mut best = first;
        for c in first + 1..end {
            if self.heap[c].before(&self.heap[best]) {
                best = c;
            }
        }
        (best, self.heap[best])
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
        debug_assert!(pos != 0 || !self.hole, "an entry moved into the open hole");
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
            let (child_pos, child) = self.min_child(first, len.min(first + ARITY));
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
    fn a_handler_sees_the_queue_without_itself() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(1), |w: &mut W, e| {
            assert_eq!(e.pending(), 3);
            assert_eq!(e.peek_time(), Some(SimTime::from_secs(2)));
            assert!(format!("{e:?}").contains("pending: 3"));
            w.push(1);
        });
        push_at(&mut e, 3, 3);
        push_at(&mut e, 2, 2);
        e.schedule_at(SimTime::from_secs(4), |_: &mut W, e| {
            assert_eq!(e.pending(), 0);
            assert_eq!(e.peek_time(), None);
        });
        e.run(&mut w);
        assert_eq!(w, vec![1, 2, 3]);
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

    #[test]
    fn all_tombstone_bucket_purge_never_reorders() {
        // Ordering regression, first written for a bucketed queue whose
        // purge of a cancelled-only bucket could slide past a far event
        // and replay it behind the clock. The shape stays a useful
        // ordering check: round after round, a jittered cluster of near
        // events, one live event well beyond them, then cancel the whole
        // cluster so only the far event may pop.
        let mut w: W = vec![];
        let mut e = Engine::new();
        let mut sm = SplitMix64::new(0x700B_570E);
        for round in 0..256u32 {
            let near = e.now() + SimDuration::from_millis(2);
            let cluster: Vec<EventId> = (0..1 + sm.next_u64() % 6)
                .map(|_| {
                    let at = near + SimDuration::from_nanos(sm.next_u64() % 1_000);
                    e.schedule_at(at, |w: &mut W, _| w.push(u32::MAX))
                })
                .collect();
            let far = e.now() + SimDuration::from_millis(80 + sm.next_u64() % 40);
            e.schedule_at(far, move |w: &mut W, _| w.push(round));
            for id in cluster {
                assert!(e.cancel(id), "round {round}: a near event must cancel");
            }
            assert!(e.step(&mut w), "round {round}: the far event must pop");
            assert_eq!(e.now(), far, "round {round}: the clock must land on it");
            assert_eq!(w.last(), Some(&round), "round {round}: only it may pop");
            assert_eq!(e.pending(), 0);
        }
        assert!(!e.step(&mut w));
        assert_eq!(w, (0..256).collect::<Vec<_>>());
        assert_eq!(e.executed(), 256);
    }

    /// Reference-model check: random schedule/cancel/reschedule/pop
    /// interleavings against a plain `BinaryHeap` + cancelled-set model
    /// must pop in identical `(time, seq)` order, at the model's instants
    /// and with the model's executed count, across slot reuse and stale
    /// generations. The model treats a reschedule as a cancel plus a
    /// fresh-`seq` schedule of the same action, and keys an event scheduled
    /// or moved with a reserved `seq` by that `seq`: reservations are taken
    /// between other schedules and used later (so their keys undercut
    /// events already queued), and some are never used at all. Every fn
    /// event's handler performs 0–3 further operations itself, while its
    /// own entry is the engine's open hole: reserved keys used there often
    /// land at the current instant, ordering before the executing event.
    #[test]
    fn random_interleavings_match_binary_heap_reference() {
        use std::cmp::Reverse;
        use std::collections::{BTreeSet, BinaryHeap};

        /// The model, kept in the world so that handlers can use it.
        struct Harness {
            sm: SplitMix64,
            /// Tags in the order the engine ran them.
            out: Vec<u64>,
            /// (at_nanos, seq, tag) min-heap plus cancelled seq set.
            model: BinaryHeap<Reverse<(u64, u64, u64)>>,
            cancelled: BTreeSet<u64>,
            live: Vec<(EventId, u64, u64)>, // (handle, seq, tag)
            dead: Vec<EventId>,             // executed, cancelled or moved
            reserved: Vec<u64>,             // reserved, not yet used
            next_seq: u64,
            next_tag: u64,
            /// Tags in the order the model pops them.
            expected: Vec<u64>,
        }

        /// A fn event: records its tag, then acts on the engine.
        fn act(h: &mut Harness, e: &mut Engine<Harness>, tag: u64) {
            h.out.push(tag);
            assert_eq!(e.pending(), h.live.len(), "a handler sees itself pending");
            for _ in 0..h.sm.next_u64() % 4 {
                let roll = h.sm.next_u64() % 84;
                operate(h, e, roll, true);
                assert_eq!(e.pending(), h.live.len(), "pending diverged in a handler");
            }
        }

        /// Applies operation `roll` to both sides; false if it did nothing.
        fn operate(h: &mut Harness, e: &mut Engine<Harness>, roll: u64, in_handler: bool) -> bool {
            // Delays mix zero, dense and sparse scales.
            let delay = match h.sm.next_u64() % 5 {
                0 => 0,
                1 => h.sm.next_u64() % 1_000,
                2 => h.sm.next_u64() % 1_000_000,
                3 => h.sm.next_u64() % 1_000_000_000,
                _ => h.sm.next_u64() % 600_000_000_000,
            };
            let at = e.now() + SimDuration::from_nanos(delay);
            // In a handler, half the reserved keys land at the current
            // instant, where a seq reserved before the pop undercuts the
            // executing event.
            let reserved_at = if in_handler && h.sm.next_u64().is_multiple_of(2) {
                e.now()
            } else {
                at
            };
            match roll {
                // Schedule, half as boxed closures, half as fn events.
                0..=39 => {
                    let (seq, tag) = (h.next_seq, h.next_tag);
                    h.next_seq += 1;
                    h.next_tag += 1;
                    let id = if tag % 2 == 0 {
                        e.schedule_at(at, move |h: &mut Harness, _| h.out.push(tag))
                    } else {
                        e.schedule_fn_at(at, act, tag)
                    };
                    h.model.push(Reverse((at.as_nanos(), seq, tag)));
                    h.live.push((id, seq, tag));
                }
                // Cancel a random live event; both sides forget it.
                40..=51 if !h.live.is_empty() => {
                    let i = (h.sm.next_u64() % h.live.len() as u64) as usize;
                    let (id, seq, _) = h.live.swap_remove(i);
                    assert!(e.cancel(id), "live handle must cancel");
                    h.cancelled.insert(seq);
                    h.dead.push(id);
                }
                // Move a random live event: cancel + fresh-seq schedule.
                52..=63 if !h.live.is_empty() => {
                    let i = (h.sm.next_u64() % h.live.len() as u64) as usize;
                    let (id, seq, tag) = h.live[i];
                    let moved = e.reschedule(id, at).expect("live handle must move");
                    h.cancelled.insert(seq);
                    h.model.push(Reverse((at.as_nanos(), h.next_seq, tag)));
                    h.live[i] = (moved, h.next_seq, tag);
                    h.next_seq += 1;
                    h.dead.push(id);
                }
                // Stale handles (slot since reused or retired, or the
                // executing event's own) stay dead: they neither cancel nor
                // move, and schedule nothing (a reserved-seq move leaves
                // its reservation unused).
                64..=67 if !h.dead.is_empty() => {
                    let i = (h.sm.next_u64() % h.dead.len() as u64) as usize;
                    let stale = h.dead[i];
                    assert!(!e.cancel(stale), "stale handle must stay dead");
                    assert_eq!(e.reschedule(stale, at), None, "stale handle moved");
                    if let Some(&seq) = h.reserved.last() {
                        assert_eq!(
                            e.reschedule_reserved(stale, reserved_at, seq),
                            None,
                            "stale handle moved with a reserved seq"
                        );
                    }
                }
                // Reserve a seq for later; some are never used.
                68..=73 => {
                    assert_eq!(
                        e.reserve_seq(),
                        h.next_seq,
                        "reservations share the counter"
                    );
                    h.reserved.push(h.next_seq);
                    h.next_seq += 1;
                }
                // Schedule a fn event keyed with an older reservation.
                74..=78 if !h.reserved.is_empty() => {
                    let i = (h.sm.next_u64() % h.reserved.len() as u64) as usize;
                    let seq = h.reserved.swap_remove(i);
                    let tag = h.next_tag;
                    h.next_tag += 1;
                    let id = e.schedule_fn_reserved(reserved_at, act, tag, seq);
                    h.model.push(Reverse((reserved_at.as_nanos(), seq, tag)));
                    h.live.push((id, seq, tag));
                }
                // Move a live event with an older reservation.
                79..=83 if !h.reserved.is_empty() && !h.live.is_empty() => {
                    let r = (h.sm.next_u64() % h.reserved.len() as u64) as usize;
                    let new_seq = h.reserved.swap_remove(r);
                    let i = (h.sm.next_u64() % h.live.len() as u64) as usize;
                    let (id, seq, tag) = h.live[i];
                    let moved = e
                        .reschedule_reserved(id, reserved_at, new_seq)
                        .expect("live handle must move");
                    h.cancelled.insert(seq);
                    h.model
                        .push(Reverse((reserved_at.as_nanos(), new_seq, tag)));
                    h.live[i] = (moved, new_seq, tag);
                    h.dead.push(id);
                }
                _ => return false,
            }
            true
        }

        /// Steps both sides once; false when both are drained.
        fn pop(h: &mut Harness, e: &mut Engine<Harness>) -> bool {
            let due = loop {
                match h.model.pop() {
                    None => break None,
                    Some(Reverse((at, seq, tag))) => {
                        if h.cancelled.remove(&seq) {
                            continue;
                        }
                        break Some((at, seq, tag));
                    }
                }
            };
            let Some((at, seq, tag)) = due else {
                assert!(!e.step(h), "the engine ran an event the model lacks");
                return false;
            };
            // The executing event is dead to its own handler.
            h.expected.push(tag);
            let i = h.live.iter().position(|&(_, s, _)| s == seq).unwrap();
            let (id, _, _) = h.live.swap_remove(i);
            h.dead.push(id);
            assert!(e.step(h), "the engine drained before the model");
            assert_eq!(e.now().as_nanos(), at, "the clock must land on the pop");
            true
        }

        fn check(h: &Harness, e: &Engine<Harness>, seed: u64) {
            assert_eq!(e.pending(), h.live.len(), "live count must track the model");
            assert_eq!(e.executed(), h.out.len() as u64, "executed must count runs");
            assert_eq!(
                h.out, h.expected,
                "seed {seed}: pop order diverged from reference"
            );
            for &(id, _, _) in &h.live {
                assert!(e.live_pos(id).is_some(), "seed {seed}: a live handle died");
            }
            for &id in &h.dead {
                assert!(
                    e.live_pos(id).is_none(),
                    "seed {seed}: a retired handle came back to life"
                );
            }
        }

        for seed in 0..12u64 {
            let mut h = Harness {
                sm: SplitMix64::new(0xCA1E_0000 + seed),
                out: vec![],
                model: BinaryHeap::new(),
                cancelled: BTreeSet::new(),
                live: vec![],
                dead: vec![],
                reserved: vec![],
                next_seq: 0,
                next_tag: 0,
                expected: vec![],
            };
            let mut e: Engine<Harness> = Engine::new();
            for _ in 0..4000 {
                let roll = h.sm.next_u64() % 100;
                if roll >= 84 || !operate(&mut h, &mut e, roll, false) {
                    // Pop a few events.
                    for _ in 0..=(h.sm.next_u64() % 3) {
                        pop(&mut h, &mut e);
                    }
                }
                check(&h, &e, seed);
            }
            // Drain both sides completely (handlers still act meanwhile).
            while pop(&mut h, &mut e) {}
            check(&h, &e, seed);
            assert_eq!(e.pending(), 0);
        }
    }
}
