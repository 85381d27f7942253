//! The discrete-event kernel under the per-pod serving simulators.
//!
//! [`Kernel`] wraps an [`EventQueue`] with the four things every event
//! loop otherwise hand-rolls: the simulated clock, a unique sequence
//! number that breaks same-time ties in scheduling order, the "pop the
//! next event at or before the horizon" step, and a pop counter. The
//! counter is flushed to [`crate::perfcount`] once, when the kernel is
//! dropped, so every simulator built on it reports comparable events.
//!
//! ```
//! use mtia_core::des::Kernel;
//! use mtia_core::SimTime;
//!
//! let mut des = Kernel::new();
//! des.schedule(SimTime::from_micros(5), "late");
//! des.schedule(SimTime::from_micros(1), "early");
//! des.schedule(SimTime::from_micros(1), "early-tie");
//! let horizon = SimTime::from_micros(3);
//! assert_eq!(des.next_until(horizon), Some("early"));
//! assert_eq!(des.next_until(horizon), Some("early-tie"));
//! assert_eq!(des.next_until(horizon), None); // "late" stays queued
//! assert_eq!(des.now(), SimTime::from_micros(1));
//! assert_eq!(des.popped(), 2);
//! ```

use crate::eventq::EventQueue;
use crate::units::SimTime;

/// An event calendar with a clock: events of type `E` pop in ascending
/// time, same-time events in the order they were scheduled.
pub struct Kernel<E> {
    queue: EventQueue<E>,
    now: SimTime,
    seq: u64,
    popped: u64,
}

impl<E> Default for Kernel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Kernel<E> {
    /// An empty kernel at time zero.
    pub fn new() -> Self {
        Kernel {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
        }
    }

    /// The time of the last popped event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `ev` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before [`now`](Self::now).
    pub fn schedule(&mut self, at: SimTime, ev: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        self.seq += 1;
        self.queue.push(at, self.seq, ev);
    }

    /// Pops the next event if it is due at or before `horizon`, advancing
    /// the clock to its time. Later events stay queued.
    pub fn next_until(&mut self, horizon: SimTime) -> Option<E> {
        let (at, _) = self.queue.peek_key()?;
        if at > horizon {
            return None;
        }
        let (at, _, ev) = self.queue.pop()?;
        self.now = at;
        self.popped += 1;
        Some(ev)
    }

    /// Events popped so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

impl<E> Drop for Kernel<E> {
    fn drop(&mut self) {
        crate::perfcount::add_events(self.popped);
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
}
