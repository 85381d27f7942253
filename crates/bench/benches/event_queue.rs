//! Microbenchmarks of the DES event queue: the slab queue
//! (`mtia_core::eventq::EventQueue`, a sorted run beside a 4-ary heap)
//! against the `BTreeMap<(SimTime, u64), T>` it replaced in the serving
//! DES hot path, across pending-set sizes from 10³ to 10⁶.
//!
//! Four access patterns:
//!
//! - **constant-delay churn**: pop the earliest event, schedule its
//!   successor a fixed delay after the popped time — the steady-state
//!   inner loop of a replay, whose completions are `now + service_time`
//!   and retry timers `now + attempt_timeout`. These pushes arrive in
//!   ascending key order, so the slab queue appends them to its run;
//! - **random-window churn**: the same pop/push loop with the new time
//!   drawn from a narrow LCG window around the popped one, so pushes
//!   interleave with the pending set and the heap depth matters — the
//!   out-of-order case (fault-scaled service times, hedges);
//! - **cancel**: revoke a pending event by handle — hedge timers and
//!   device wakes that a completion beats;
//! - **fill+drain**: bulk build-up then full drain — trace load and
//!   end-of-horizon.
//!
//! Both structures see the identical key sequence. The equivalence of
//! pop *order* is proved elsewhere (`tests/event_queue_model.rs`); this
//! file only measures speed.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use mtia_core::eventq::EventQueue;
use mtia_core::SimTime;

/// Deterministic time stream: a small offset window keeps pushed events
/// interleaved with the pending set instead of always landing last.
struct Lcg(u64);

impl Lcg {
    fn next_offset(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % 4096
    }
}

const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];
/// Pending-set sizes for constant-delay churn: a sharded cell's queues
/// hold well under 10⁵ events.
const DES_SIZES: [usize; 3] = [1_000, 10_000, 100_000];
/// Fixed delay of the constant-delay churn: every popped event is
/// replaced this many nanoseconds after its own time.
const DELAY_NS: u64 = 1_000_000;
/// Pop/push (or cancel/push) pairs measured per iteration.
const CHURN: u64 = 1_000;

fn prefill_queue(n: usize) -> (EventQueue<u64>, Lcg, u64) {
    let mut q = EventQueue::with_capacity(n);
    let mut lcg = Lcg(0x9e3779b97f4a7c15);
    for seq in 0..n as u64 {
        q.push(SimTime::from_nanos(lcg.next_offset()), seq, seq);
    }
    (q, lcg, n as u64)
}

fn prefill_map(n: usize) -> (BTreeMap<(SimTime, u64), u64>, Lcg, u64) {
    let mut m = BTreeMap::new();
    let mut lcg = Lcg(0x9e3779b97f4a7c15);
    for seq in 0..n as u64 {
        m.insert((SimTime::from_nanos(lcg.next_offset()), seq), seq);
    }
    (m, lcg, n as u64)
}

/// `n` events one nanosecond apart, each replaced `DELAY_NS` after its
/// own time when popped: the pending set stays at `n` and every push
/// lands after every pending key.
fn bench_constant_delay_churn(c: &mut Criterion) {
    let delay = SimTime::from_nanos(DELAY_NS);
    for n in DES_SIZES {
        c.bench_function(&format!("slab_queue_const_delay_churn_{n}"), |b| {
            let mut q = EventQueue::with_capacity(n);
            for seq in 0..n as u64 {
                q.push(SimTime::from_nanos(seq), seq, seq);
            }
            let mut seq = n as u64;
            b.iter(|| {
                for _ in 0..CHURN {
                    let (t, _, v) = q.pop().expect("pending set never drains");
                    black_box(v);
                    q.push(t + delay, seq, seq);
                    seq += 1;
                }
            });
        });
        c.bench_function(&format!("btreemap_const_delay_churn_{n}"), |b| {
            let mut m = BTreeMap::new();
            for seq in 0..n as u64 {
                m.insert((SimTime::from_nanos(seq), seq), seq);
            }
            let mut seq = n as u64;
            b.iter(|| {
                for _ in 0..CHURN {
                    let ((t, _), v) = m.pop_first().expect("pending set never drains");
                    black_box(v);
                    m.insert((t + delay, seq), seq);
                    seq += 1;
                }
            });
        });
    }
}

fn bench_churn(c: &mut Criterion) {
    for n in SIZES {
        c.bench_function(&format!("slab_queue_churn_{n}"), |b| {
            let (mut q, mut lcg, mut seq) = prefill_queue(n);
            b.iter(|| {
                for _ in 0..CHURN {
                    let (t, _, v) = q.pop().expect("pending set never drains");
                    black_box(v);
                    q.push(t + SimTime::from_nanos(lcg.next_offset()), seq, seq);
                    seq += 1;
                }
            });
        });
        c.bench_function(&format!("btreemap_churn_{n}"), |b| {
            let (mut m, mut lcg, mut seq) = prefill_map(n);
            b.iter(|| {
                for _ in 0..CHURN {
                    let ((t, _), v) = m.pop_first().expect("pending set never drains");
                    black_box(v);
                    m.insert((t + SimTime::from_nanos(lcg.next_offset()), seq), seq);
                    seq += 1;
                }
            });
        });
    }
}

fn bench_cancel(c: &mut Criterion) {
    for n in SIZES {
        c.bench_function(&format!("slab_queue_cancel_{n}"), |b| {
            let (mut q, mut lcg, mut seq) = prefill_queue(n);
            // Rolling window of live handles to revoke, oldest first —
            // the hedge-timer pattern.
            let mut handles = std::collections::VecDeque::with_capacity(CHURN as usize);
            b.iter(|| {
                for _ in 0..CHURN {
                    let id = q.push(SimTime::from_nanos(lcg.next_offset()), seq, seq);
                    handles.push_back(id);
                    seq += 1;
                    if handles.len() > CHURN as usize / 2 {
                        let victim = handles.pop_front().expect("window is non-empty");
                        black_box(q.cancel(victim));
                    }
                }
                while let Some(victim) = handles.pop_front() {
                    black_box(q.cancel(victim));
                }
            });
        });
        c.bench_function(&format!("btreemap_cancel_{n}"), |b| {
            let (mut m, mut lcg, mut seq) = prefill_map(n);
            // The BTreeMap "handle" is the key itself: cancel = remove.
            let mut keys = std::collections::VecDeque::with_capacity(CHURN as usize);
            b.iter(|| {
                for _ in 0..CHURN {
                    let key = (SimTime::from_nanos(lcg.next_offset()), seq);
                    m.insert(key, seq);
                    keys.push_back(key);
                    seq += 1;
                    if keys.len() > CHURN as usize / 2 {
                        let victim = keys.pop_front().expect("window is non-empty");
                        black_box(m.remove(&victim));
                    }
                }
                while let Some(victim) = keys.pop_front() {
                    black_box(m.remove(&victim));
                }
            });
        });
    }
}

fn bench_fill_drain(c: &mut Criterion) {
    // Full build-up + drain only at the two smaller sizes: per-iteration
    // cost is O(n log n), and the larger sizes are covered by churn.
    for n in [1_000usize, 10_000] {
        c.bench_function(&format!("slab_queue_fill_drain_{n}"), |b| {
            b.iter_batched(
                || EventQueue::with_capacity(n),
                |mut q| {
                    let mut lcg = Lcg(7);
                    for seq in 0..n as u64 {
                        q.push(SimTime::from_nanos(lcg.next_offset()), seq, seq);
                    }
                    while let Some(ev) = q.pop() {
                        black_box(ev);
                    }
                },
                BatchSize::SmallInput,
            );
        });
        c.bench_function(&format!("btreemap_fill_drain_{n}"), |b| {
            b.iter_batched(
                BTreeMap::new,
                |mut m| {
                    let mut lcg = Lcg(7);
                    for seq in 0..n as u64 {
                        m.insert((SimTime::from_nanos(lcg.next_offset()), seq), seq);
                    }
                    while let Some(ev) = m.pop_first() {
                        black_box(ev);
                    }
                },
                BatchSize::SmallInput,
            );
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_constant_delay_churn, bench_churn, bench_cancel, bench_fill_drain
}
criterion_main!(benches);
