//! Process-wide simulated-event accounting.
//!
//! An event is one popped discrete-event-simulation event. Every
//! serving simulator pops its events through the [`crate::des`] kernel
//! and adds the kernel's pop count here once, when it builds its
//! report, which is what `reproduce --bench-perf`'s events/sec column
//! reads. A kernel that is dropped unreported (a discarded rollback
//! checkpoint) adds nothing. The
//! one documented exception is `ChipSim`, which adds one per executed
//! graph node: that analytic model has no event queue, and the
//! benchmark's `chip.nodes` metric reads its count.
//!
//! The counter is a plain atomic: totals are deterministic (the same
//! experiments flush the same counts in any interleaving) even though
//! flush *order* is not, and nothing behavioural ever reads it — it is
//! measurement plumbing, not simulation state.
//!
//! The bench runner snapshots the counter around a timed run:
//!
//! ```
//! use mtia_core::perfcount;
//!
//! let before = perfcount::events();
//! perfcount::add_events(12_345); // a simulator drains...
//! let simulated = perfcount::events() - before;
//! assert_eq!(simulated, 12_345);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

static DES_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Adds `n` simulated events to the process-wide total.
pub fn add_events(n: u64) {
    DES_EVENTS.fetch_add(n, Ordering::Relaxed);
}

/// The process-wide total of simulated events flushed so far.
pub fn events() -> u64 {
    DES_EVENTS.load(Ordering::Relaxed)
}
