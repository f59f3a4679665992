//! The discrete-event scheduler.
//!
//! [`EventQueue`] is a priority queue over `(SimTime, sequence)` pairs:
//! events fire in time order, with FIFO tie-breaking for events scheduled
//! at the same instant. The queue is generic over the event payload so
//! each simulator layer defines its own event enum; the simulation driver
//! owns the pop loop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A payload scheduled to fire at a time.
#[derive(Clone, Debug)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotonic tie-breaker preserving schedule order at equal times.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event wins,
        // then break ties by schedule order (lower seq first).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event queue.
///
/// # Examples
///
/// ```
/// use simcore::{EventQueue, SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_at(SimTime::from_secs(2.0), "later");
/// q.schedule_at(SimTime::from_secs(1.0), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_secs(), e), (1.0, "sooner"));
/// assert_eq!(q.now().as_secs(), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// Current simulated time: the firing time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events fired so far.
    pub fn fired(&self) -> u64 {
        self.popped
    }

    /// Reserves heap capacity for at least `additional` more pending
    /// events, so a bounded-population steady state never reallocates.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now`: the event fires
    /// immediately after already-pending events at `now`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, event });
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ScheduledEvent { at, event, .. } = self.heap.pop()?;
        debug_assert!(at >= self.now, "event queue time went backwards");
        self.now = at;
        self.popped += 1;
        Some((at, event))
    }

    /// Peeks at the firing time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|ev| ev.at)
    }

    /// Pops the next event only if it fires at or before `horizon`.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3.0), 3);
        q.schedule_at(SimTime::from_secs(1.0), 1);
        q.schedule_at(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(SimTime::from_secs(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5.0), ());
        q.schedule_at(SimTime::from_secs(2.0), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.now(), SimTime::from_secs(5.0));
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10.0), "a");
        q.pop();
        q.schedule_at(SimTime::from_secs(1.0), "late");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "late");
        assert_eq!(t, SimTime::from_secs(10.0));
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1.0), 1);
        q.schedule_at(SimTime::from_secs(5.0), 5);
        assert_eq!(
            q.pop_until(SimTime::from_secs(2.0)).map(|(_, e)| e),
            Some(1)
        );
        assert_eq!(q.pop_until(SimTime::from_secs(2.0)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(4.0), "first");
        q.pop();
        q.schedule_in(SimDuration::from_secs(2.0), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(6.0));
    }

    #[test]
    fn fired_counts_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, ());
        q.schedule_at(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.fired(), 1);
        assert_eq!(q.len(), 1);
    }
}
