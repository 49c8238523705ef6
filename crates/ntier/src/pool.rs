//! Soft-resource pools: bounded permit sets with FIFO wait queues.
//!
//! A [`Pool`] models both kinds of soft resource the paper manipulates — a
//! server's thread pool and an application server's database connection
//! pool. Capacity is **resizable at runtime without disruption**: growing a
//! pool immediately admits waiters; shrinking never revokes permits already
//! held, it just stops lending once holders drain below the new cap (this is
//! exactly how the paper's APP-agent adjusts `maxThreads` on the fly).

use std::collections::VecDeque;

use crate::ids::RequestId;

/// A bounded permit pool with a FIFO queue of waiting requests.
///
/// Generic over the waiter token `T` (any small `Copy` id): the flow layer
/// parks generation-checked [`FlightId`](crate::ids::FlightId) slab handles,
/// while standalone uses (benches, property tests) default to the public
/// [`RequestId`].
///
/// # Examples
///
/// ```
/// use dcm_ntier::pool::Pool;
/// use dcm_ntier::ids::RequestId;
///
/// let mut pool = Pool::new(1);
/// assert!(pool.try_acquire(RequestId::new(1)));
/// assert!(!pool.try_acquire(RequestId::new(2))); // queued
/// let next = pool.release();
/// assert_eq!(next, Some(RequestId::new(2)));     // handed off directly
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pool<T = RequestId> {
    capacity: u32,
    in_use: u32,
    waiters: VecDeque<T>,
    // Cumulative counters for monitoring.
    total_acquired: u64,
    total_queued: u64,
}

impl<T: Copy + PartialEq> Pool<T> {
    /// Creates a pool with `capacity` permits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a zero-capacity pool can never serve).
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "pool capacity must be positive");
        Pool {
            capacity,
            in_use: 0,
            waiters: VecDeque::new(),
            total_acquired: 0,
            total_queued: 0,
        }
    }

    /// Current capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Permits currently held.
    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    /// Requests waiting for a permit.
    pub fn queued(&self) -> usize {
        self.waiters.len()
    }

    /// Permits available right now (0 while over-committed after a shrink).
    pub fn available(&self) -> u32 {
        self.capacity.saturating_sub(self.in_use)
    }

    /// Lifetime count of successful acquisitions.
    pub fn total_acquired(&self) -> u64 {
        self.total_acquired
    }

    /// Lifetime count of requests that had to queue.
    pub fn total_queued(&self) -> u64 {
        self.total_queued
    }

    /// Attempts to take a permit for `req`. On failure the request is
    /// appended to the FIFO wait queue and `false` is returned; the caller
    /// parks the request until [`Pool::release`] hands it a permit.
    pub fn try_acquire(&mut self, req: T) -> bool {
        if self.in_use < self.capacity {
            self.in_use += 1;
            self.total_acquired += 1;
            true
        } else {
            self.waiters.push_back(req);
            self.total_queued += 1;
            false
        }
    }

    /// Returns a permit. If a request is waiting **and** the pool is not
    /// over-committed (capacity may have shrunk), the permit transfers to
    /// the longest-waiting request, which is returned so the caller can
    /// resume it.
    ///
    /// # Panics
    ///
    /// Panics if no permit is outstanding (release without acquire — a
    /// simulator accounting bug, never a recoverable condition).
    pub fn release(&mut self) -> Option<T> {
        assert!(self.in_use > 0, "pool release without matching acquire");
        self.in_use -= 1;
        if self.in_use < self.capacity {
            if let Some(next) = self.waiters.pop_front() {
                self.in_use += 1;
                self.total_acquired += 1;
                return Some(next);
            }
        }
        None
    }

    /// Removes a parked request from the wait queue (e.g. the client gave
    /// up). Returns `true` if it was queued.
    pub fn cancel_waiter(&mut self, req: T) -> bool {
        if let Some(pos) = self.waiters.iter().position(|&r| r == req) {
            self.waiters.remove(pos);
            true
        } else {
            false
        }
    }

    /// Changes the capacity. Growing admits as many waiters as fit and
    /// returns them for resumption (in FIFO order); shrinking never revokes
    /// held permits — the pool drains to the new cap naturally.
    ///
    /// # Panics
    ///
    /// Panics if `new_capacity == 0`.
    pub fn resize(&mut self, new_capacity: u32) -> Vec<T> {
        assert!(new_capacity > 0, "pool capacity must be positive");
        self.capacity = new_capacity;
        let mut admitted = Vec::new();
        while self.in_use < self.capacity {
            match self.waiters.pop_front() {
                Some(req) => {
                    self.in_use += 1;
                    self.total_acquired += 1;
                    admitted.push(req);
                }
                None => break,
            }
        }
        admitted
    }

    /// True when over-committed (held permits exceed capacity after a
    /// shrink).
    pub fn is_overcommitted(&self) -> bool {
        self.in_use > self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u64) -> RequestId {
        RequestId::new(n)
    }

    #[test]
    fn acquire_until_full_then_queue() {
        let mut p = Pool::new(2);
        assert!(p.try_acquire(r(1)));
        assert!(p.try_acquire(r(2)));
        assert!(!p.try_acquire(r(3)));
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.queued(), 1);
        assert_eq!(p.available(), 0);
        assert_eq!(p.total_acquired(), 2);
        assert_eq!(p.total_queued(), 1);
    }

    #[test]
    fn release_hands_off_fifo() {
        let mut p = Pool::new(1);
        assert!(p.try_acquire(r(1)));
        assert!(!p.try_acquire(r(2)));
        assert!(!p.try_acquire(r(3)));
        assert_eq!(p.release(), Some(r(2)));
        assert_eq!(p.release(), Some(r(3)));
        assert_eq!(p.release(), None);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "release without matching acquire")]
    fn release_without_acquire_panics() {
        let mut p: Pool = Pool::new(1);
        let _ = p.release();
    }

    #[test]
    fn grow_admits_waiters() {
        let mut p = Pool::new(1);
        assert!(p.try_acquire(r(1)));
        assert!(!p.try_acquire(r(2)));
        assert!(!p.try_acquire(r(3)));
        let admitted = p.resize(3);
        assert_eq!(admitted, vec![r(2), r(3)]);
        assert_eq!(p.in_use(), 3);
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn shrink_does_not_revoke() {
        let mut p = Pool::new(4);
        for i in 0..4 {
            assert!(p.try_acquire(r(i)));
        }
        let admitted = p.resize(2);
        assert!(admitted.is_empty());
        assert_eq!(p.in_use(), 4);
        assert!(p.is_overcommitted());
        assert_eq!(p.available(), 0);
        // Drain: releases do not hand off until under the new cap.
        assert!(!p.try_acquire(r(9)));
        assert_eq!(p.release(), None); // in_use 3, still over cap 2
        assert_eq!(p.release(), None); // in_use 2 -> at cap, no slot free
        assert_eq!(p.release(), Some(r(9))); // in_use 1 < 2: hand off
        assert_eq!(p.in_use(), 2);
        assert!(!p.is_overcommitted());
    }

    #[test]
    fn cancel_waiter_removes_from_queue() {
        let mut p = Pool::new(1);
        assert!(p.try_acquire(r(1)));
        assert!(!p.try_acquire(r(2)));
        assert!(!p.try_acquire(r(3)));
        assert!(p.cancel_waiter(r(2)));
        assert!(!p.cancel_waiter(r(2)));
        assert_eq!(p.release(), Some(r(3)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: Pool = Pool::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_resize_rejected() {
        let mut p: Pool = Pool::new(1);
        let _ = p.resize(0);
    }
}
