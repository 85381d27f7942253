//! Property-based equivalence of the slab event queue against a
//! `BTreeMap` reference model.
//!
//! The serving DES replaced its `BTreeMap<(SimTime, u64), Event>` with
//! `mtia_core::eventq::EventQueue` for throughput; the byte-identity of
//! every golden trace rests on the two structures popping in exactly the
//! same order under any interleaving of insert, cancel, and pop. These
//! properties drive randomized scripts through both and require
//! lock-step agreement — lengths, pop order, cancel results, and stale
//! handles after slab reuse. One of them replays the DES push pattern
//! (`now + constant delay`), which fills the queue's sorted run rather
//! than its heap.

use std::collections::BTreeMap;

use mtia::core::eventq::{EventId, EventQueue};
use mtia::core::units::SimTime;
use proptest::prelude::*;

/// One step of a queue script. Cancels and pops pick their victim by
/// index into the live-handle list, so any decoded script is valid.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at this many nanoseconds. Times are drawn from a small
    /// range so same-time collisions (the seq tie-break path) are common.
    Push(u64),
    /// Cancel the live handle at `index % live.len()`.
    Cancel(usize),
    /// Cancel a handle that was already consumed (staleness path).
    CancelStale(usize),
    /// Pop the earliest event and compare with the model.
    Pop,
}

/// Decodes one raw word into an op: the low bits weight the op mix
/// (pushes 40%, cancels 20%, stale probes 10%, pops 30%), the high bits
/// carry the time or victim index.
fn decode(word: u64) -> Op {
    let arg = word >> 4;
    match word % 10 {
        0..=3 => Op::Push(arg % 48),
        4 | 5 => Op::Cancel(arg as usize),
        6 => Op::CancelStale(arg as usize),
        _ => Op::Pop,
    }
}

/// Runs one script against both structures, asserting agreement at
/// every step and on the drained tail.
fn run_script(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut q = EventQueue::new();
    let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
    // Live handles paired with their model key; consumed handles (popped
    // or cancelled) migrate to `dead` to probe generation checks.
    let mut live: Vec<(EventId, (SimTime, u64))> = Vec::new();
    let mut dead: Vec<EventId> = Vec::new();
    let mut seq = 0u64;

    for op in ops {
        match *op {
            Op::Push(nanos) => {
                let t = SimTime::from_nanos(nanos);
                let id = q.push(t, seq, seq);
                prop_assert_eq!(q.key_of(id), Some((t, seq)));
                model.insert((t, seq), seq);
                live.push((id, (t, seq)));
                seq += 1;
            }
            Op::Cancel(i) if !live.is_empty() => {
                let (id, key) = live.swap_remove(i % live.len());
                prop_assert_eq!(q.cancel(id), model.remove(&key));
                dead.push(id);
            }
            Op::Cancel(_) => {}
            Op::CancelStale(i) if !dead.is_empty() => {
                let id = dead[i % dead.len()];
                prop_assert_eq!(q.cancel(id), None, "stale handle must stay dead");
            }
            Op::CancelStale(_) => {}
            Op::Pop => {
                let expect = model.pop_first().map(|((t, s), v)| (t, s, v));
                prop_assert_eq!(q.pop(), expect);
                if let Some((_, s, _)) = expect {
                    if let Some(i) = live.iter().position(|(_, (_, ls))| *ls == s) {
                        dead.push(live.swap_remove(i).0);
                    }
                }
            }
        }
        prop_assert_eq!(q.len(), model.len());
        prop_assert_eq!(q.peek_key(), model.keys().next().copied());
    }

    // Drain: whatever survives the script must come out in exact
    // ascending (time, seq) order, matching BTreeMap iteration.
    while let Some(((t, s), v)) = model.pop_first() {
        prop_assert_eq!(q.pop(), Some((t, s, v)));
    }
    prop_assert_eq!(q.pop(), None);
    prop_assert!(q.is_empty());
    Ok(())
}

/// Where a DES-shaped cancel lands among the live events, in key order.
/// Most pushes in such a script extend the queue's sorted run, so these
/// hit the run's front, middle and tail.
#[derive(Debug, Clone, Copy)]
enum Rank {
    Front,
    Middle,
    Tail,
}

/// One step of a DES-shaped script: events are scheduled a constant
/// delay after the current clock, as completions (`now + service_time`)
/// and retry timers (`now + attempt_timeout`) are.
#[derive(Debug, Clone, Copy)]
enum DesOp {
    /// Schedule at `now + delay` with the next monotone seq. The raw
    /// word picks the delay, weighted toward the first one.
    After(u64),
    /// Schedule at the latest `After` push's time with a smaller, unused
    /// seq: the logical-id keyed retry/hedge pattern, which cannot
    /// extend the run.
    Logical(u64),
    /// Cancel the live event at this rank.
    Cancel(Rank),
    /// Cancel a handle that was already consumed.
    CancelStale(usize),
    /// Pop the earliest event and advance the clock to it.
    Pop,
}

/// Decodes one raw word into a DES op: pushes 55% (a fifth of them
/// logical), cancels 15%, stale probes 5%, pops 25%.
fn decode_des(word: u64) -> DesOp {
    let arg = word >> 5;
    match word % 20 {
        0..=8 => DesOp::After(arg),
        9 | 10 => DesOp::Logical(arg),
        11 => DesOp::Cancel(Rank::Front),
        12 => DesOp::Cancel(Rank::Middle),
        13 => DesOp::Cancel(Rank::Tail),
        14 => DesOp::CancelStale(arg as usize),
        _ => DesOp::Pop,
    }
}

/// Gap between consecutive monotone seqs; logical seqs fill the gaps.
const SEQ_STRIDE: u64 = 1000;

/// Runs a DES-shaped script against the queue and the `BTreeMap` model
/// in lock-step. At op `clone_at` the queue is cloned, and every later op
/// runs on the original and the clone alike: both must return the same
/// handles and results and drain the same tail.
fn run_des_script(delays: &[u64], ops: &[DesOp], clone_at: usize) -> Result<(), TestCaseError> {
    let mut queues: Vec<EventQueue<u64>> = vec![EventQueue::new()];
    let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
    let mut live: Vec<(EventId, (SimTime, u64))> = Vec::new();
    let mut dead: Vec<EventId> = Vec::new();
    let mut used = std::collections::BTreeSet::new();
    let mut now = SimTime::ZERO;
    let mut last: Option<(SimTime, u64)> = None;
    let mut next_seq = SEQ_STRIDE;

    for (step, op) in ops.iter().enumerate() {
        if step == clone_at {
            let copy = queues[0].clone();
            queues.push(copy);
        }
        let key = match *op {
            DesOp::After(word) => {
                // Weighted 6:1:1 over up to three delays, so most pushes
                // come out in ascending order.
                let pick = match word % 8 {
                    0..=5 => 0,
                    6 => 1,
                    _ => 2,
                };
                let d = delays[pick.min(delays.len() - 1)];
                let key = (now + SimTime::from_nanos(d), next_seq);
                next_seq += SEQ_STRIDE;
                last = Some(key);
                Some(key)
            }
            DesOp::Logical(word) => last
                .map(|(t, s)| (t, s - 1 - word % (SEQ_STRIDE - 1)))
                .filter(|&(_, s)| !used.contains(&s)),
            _ => None,
        };
        match *op {
            DesOp::After(_) | DesOp::Logical(_) => {
                if let Some((t, s)) = key {
                    used.insert(s);
                    let ids: Vec<EventId> = queues.iter_mut().map(|q| q.push(t, s, s)).collect();
                    prop_assert!(ids.iter().all(|&id| id == ids[0]), "clone allocates alike");
                    model.insert((t, s), s);
                    live.push((ids[0], (t, s)));
                }
            }
            DesOp::Cancel(_) if live.is_empty() => {}
            DesOp::Cancel(rank) => {
                let mut order: Vec<usize> = (0..live.len()).collect();
                order.sort_by_key(|&i| live[i].1);
                let pick = match rank {
                    Rank::Front => order[0],
                    Rank::Middle => order[order.len() / 2],
                    Rank::Tail => order[order.len() - 1],
                };
                let (id, key) = live.swap_remove(pick);
                let expect = model.remove(&key);
                for q in queues.iter_mut() {
                    prop_assert_eq!(q.cancel(id), expect);
                }
                dead.push(id);
            }
            DesOp::CancelStale(_) if dead.is_empty() => {}
            DesOp::CancelStale(i) => {
                let id = dead[i % dead.len()];
                for q in queues.iter_mut() {
                    prop_assert_eq!(q.cancel(id), None, "stale handle must stay dead");
                }
            }
            DesOp::Pop => {
                let expect = model.pop_first().map(|((t, s), v)| (t, s, v));
                for q in queues.iter_mut() {
                    prop_assert_eq!(q.pop(), expect);
                }
                if let Some((t, s, _)) = expect {
                    now = t;
                    let i = live.iter().position(|(_, (_, ls))| *ls == s);
                    dead.push(live.swap_remove(i.expect("popped event was live")).0);
                }
            }
        }
        for q in &queues {
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_key(), model.keys().next().copied());
        }
    }

    while let Some(((t, s), v)) = model.pop_first() {
        for q in queues.iter_mut() {
            prop_assert_eq!(q.pop(), Some((t, s, v)));
        }
    }
    for q in queues.iter_mut() {
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.is_empty());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary insert/cancel/pop interleavings agree with the
    /// `BTreeMap` reference at every step and drain identically.
    #[test]
    fn slab_queue_matches_btreemap_reference(
        words in proptest::collection::vec(any::<u64>(), 0..400),
    ) {
        let ops: Vec<Op> = words.into_iter().map(decode).collect();
        run_script(&ops)?;
    }

    /// Heavy same-time collision pressure: every event lands on one of
    /// two instants, so ordering is decided purely by the seq tie-break
    /// the DES depends on for determinism.
    #[test]
    fn seq_tiebreak_is_total_under_collisions(
        times in proptest::collection::vec(0u64..2, 1..200),
        cancels in proptest::collection::vec(any::<usize>(), 0..64),
    ) {
        let mut ops: Vec<Op> = times.into_iter().map(Op::Push).collect();
        ops.extend(cancels.into_iter().map(Op::Cancel));
        run_script(&ops)?;
    }

    /// Cancel-heavy churn forces aggressive slab reuse; generational
    /// handles must never resurrect, and reuse must not perturb order.
    #[test]
    fn slab_reuse_never_resurrects_handles(
        rounds in proptest::collection::vec(any::<u64>(), 0..150),
    ) {
        let mut ops = Vec::new();
        for word in rounds {
            ops.push(Op::Push(word % 16));
            ops.push(Op::Cancel((word >> 16) as usize));
            ops.push(Op::CancelStale((word >> 40) as usize));
        }
        run_script(&ops)?;
    }

    /// The DES push pattern: events land a constant delay after the
    /// clock, drawn from two or three delays, so most pushes extend the
    /// sorted run; same-time pushes with a smaller logical seq go to the
    /// heap. Cancels hit the run's front, middle and tail, and a clone
    /// taken mid-script must track the original to the end.
    #[test]
    fn constant_delay_pushes_match_btreemap_reference(
        delays in proptest::collection::vec(1u64..64, 2..4),
        words in proptest::collection::vec(any::<u64>(), 0..400),
        clone_at in 0usize..400,
    ) {
        let ops: Vec<DesOp> = words.into_iter().map(decode_des).collect();
        run_des_script(&delays, &ops, clone_at)?;
    }
}
