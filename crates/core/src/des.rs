//! The discrete-event kernel under every serving simulator.
//!
//! [`Kernel`] keeps the calendar, the clock and a pop counter. Events
//! pop in `(time, lane, key)` order: a lane is one event source, lane
//! order is the tie order between sources, and the key orders one
//! lane's same-time events. The lane count is a type parameter;
//! [`Kernel::new`] is one lane, and [`Kernel::schedule`] keys lane 0 by
//! scheduling order. Each lane is an [`EventQueue`] held inline, so a
//! lane whose pushes come almost in order (completions at
//! `now + service`, timers at `now + timeout`) appends to a sorted run
//! in O(1), and a pop scans the lanes' cached head times once. Each
//! simulator adds
//! [`Kernel::popped`] to [`crate::perfcount`] once, when it builds its
//! report, so a checkpoint clone that is thrown away counts nothing.
//!
//! ```
//! use mtia_core::des::Kernel;
//! use mtia_core::SimTime;
//!
//! let mut des: Kernel<_, 2> = Kernel::default();
//! let (t1, t5) = (SimTime::from_micros(1), SimTime::from_micros(5));
//! des.schedule_keyed(t5, 0, 0, "late");
//! des.schedule_keyed(t1, 1, 0, "second lane");
//! let id = des.schedule_keyed(t1, 0, 9, "first lane");
//! des.schedule_keyed(t1, 0, 3, "first lane, lower key");
//! assert_eq!(des.cancel(id), Some("first lane"));
//! let horizon = SimTime::from_micros(3);
//! assert_eq!(des.next_until(horizon), Some("first lane, lower key"));
//! assert_eq!(des.next_until(horizon), Some("second lane"));
//! assert_eq!(des.next_until(horizon), None); // "late" stays queued
//! assert_eq!((des.now(), des.popped()), (t1, 2));
//! ```

use crate::eventq::{self, EventQueue};
use crate::units::SimTime;

/// A handle to a pending event in a [`Kernel`], stale once the event
/// pops or is cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    lane: u32,
    id: eventq::EventId,
}

/// An event calendar with a clock: events of type `E` pop in ascending
/// `(time, lane, key)` order over `LANES` lanes. A clone is a full
/// checkpoint: it pops the same sequence as the original, and every
/// handle resolves alike in both.
#[derive(Clone)]
pub struct Kernel<E, const LANES: usize = 1> {
    lanes: [EventQueue<E>; LANES],
    /// Each lane's earliest pending time, [`SimTime::MAX`] when it is
    /// empty.
    heads: [SimTime; LANES],
    now: SimTime,
    seq: u64,
    popped: u64,
}

impl<E, const LANES: usize> Default for Kernel<E, LANES> {
    /// An empty kernel at time zero.
    fn default() -> Self {
        Kernel {
            lanes: std::array::from_fn(|_| EventQueue::new()),
            heads: [SimTime::MAX; LANES],
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
        }
    }
}

impl<E> Kernel<E> {
    /// An empty one-lane kernel at time zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<E, const LANES: usize> Kernel<E, LANES> {
    /// The time of the last popped event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `ev` at absolute time `at` on lane 0, after every
    /// event already scheduled there for the same time. Panics as
    /// [`schedule_keyed`](Self::schedule_keyed) does.
    pub fn schedule(&mut self, at: SimTime, ev: E) {
        self.seq += 1;
        self.schedule_keyed(at, 0, self.seq, ev);
    }

    /// Schedules `ev` at `at` on `lane`, ordered within the lane's
    /// same-time events by `key`, which must be unique among them.
    /// Panics if `at` is before [`now`](Self::now) or is
    /// [`SimTime::MAX`], the horizon that drains the calendar, or if
    /// `lane` is out of range.
    // Forced inline, as is the pop path, so that the payload reaches its
    // slot in registers (see `EventQueue::push`).
    #[inline(always)]
    pub fn schedule_keyed(&mut self, at: SimTime, lane: usize, key: u64, ev: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        assert!(at < SimTime::MAX, "cannot schedule at the end of time");
        let id = self.lanes[lane].push(at, key, ev);
        self.heads[lane] = self.heads[lane].min(at);
        EventId {
            lane: lane as u32,
            id,
        }
    }

    /// Cancels a pending event and returns it, or `None` if the handle
    /// is stale.
    pub fn cancel(&mut self, id: EventId) -> Option<E> {
        let lane = id.lane as usize;
        let ev = self.lanes.get_mut(lane)?.cancel(id.id)?;
        self.heads[lane] = self.lanes[lane]
            .peek_key()
            .map_or(SimTime::MAX, |(at, _)| at);
        Some(ev)
    }

    /// The `(time, key)` of a pending event, or `None` if the handle is
    /// stale.
    pub fn key_of(&self, id: EventId) -> Option<(SimTime, u64)> {
        self.lanes.get(id.lane as usize)?.key_of(id.id)
    }

    /// The earliest pending event's lane and time.
    #[inline(always)]
    fn head(&self) -> Option<(usize, SimTime)> {
        // The least `(time, lane)` is the earliest head, the lower lane on
        // a tie. Taking it as a minimum rather than branching per lane
        // keeps the scan free of mispredictions, since the lane that wins
        // changes from one event to the next.
        let (at, lane) = (0..LANES).map(|lane| (self.heads[lane], lane)).min()?;
        // Nothing is scheduled at the end of time, so that head is none.
        (at < SimTime::MAX).then_some((lane, at))
    }

    /// The time of the earliest pending event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.head().map(|(_, at)| at)
    }

    /// Pops the next event if it is due at or before `horizon`, advancing
    /// the clock to its time. Later events stay queued.
    #[inline(always)]
    pub fn next_until(&mut self, horizon: SimTime) -> Option<E> {
        let (lane, at) = self.head()?;
        if at > horizon {
            return None;
        }
        let queue = &mut self.lanes[lane];
        let (_, _, ev) = queue.pop().expect("a head time implies a pending event");
        self.heads[lane] = queue.peek_key().map_or(SimTime::MAX, |(at, _)| at);
        self.now = at;
        self.popped += 1;
        Some(ev)
    }

    /// Events popped so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut des = Kernel::new();
        des.schedule(SimTime::from_micros(10), ());
        des.next_until(SimTime::MAX);
        des.schedule(SimTime::from_micros(5), ());
    }

    #[test]
    fn next_until_leaves_later_events_queued() {
        let mut des = Kernel::new();
        for t in 1..=10u64 {
            des.schedule(SimTime::from_micros(t), t);
        }
        let horizon = SimTime::from_micros(5);
        let first: Vec<u64> = std::iter::from_fn(|| des.next_until(horizon)).collect();
        assert_eq!(first, vec![1, 2, 3, 4, 5]);
        assert_eq!(des.now(), horizon);
        let rest: Vec<u64> = std::iter::from_fn(|| des.next_until(SimTime::MAX)).collect();
        assert_eq!(rest, vec![6, 7, 8, 9, 10]);
        assert_eq!(des.popped(), 10);
    }

    #[test]
    #[should_panic(expected = "end of time")]
    fn scheduling_at_the_end_of_time_panics() {
        let mut des: Kernel<_, 3> = Kernel::default();
        des.schedule_keyed(SimTime::MAX, 2, 0, "never");
    }
}
