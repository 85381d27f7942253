//! Property tests of the discrete-event kernel.

use std::collections::BTreeMap;

use mtia_core::des::{EventId, Kernel};
use mtia_core::SimTime;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every event at or before the horizon pops exactly once, in time
    /// order, same-time events in scheduling order; `popped` counts them.
    #[test]
    fn engine_executes_in_order(
        times in proptest::collection::vec(0u64..1_000, 1..200),
        horizon in 0u64..1_000,
    ) {
        let mut des = Kernel::new();
        for (i, &t) in times.iter().enumerate() {
            des.schedule(SimTime::from_nanos(t), i);
        }
        let horizon = SimTime::from_nanos(horizon);
        let popped: Vec<usize> = std::iter::from_fn(|| des.next_until(horizon)).collect();
        let mut expected: Vec<usize> = (0..times.len())
            .filter(|&i| SimTime::from_nanos(times[i]) <= horizon)
            .collect();
        expected.sort_by_key(|&i| (times[i], i));
        prop_assert_eq!(des.popped(), expected.len() as u64);
        prop_assert_eq!(popped, expected);
    }

    /// Random lanes, keys, cancels, `key_of` lookups and bounded pops
    /// agree step by step with a `(time, lane, key)`-ordered model, and
    /// a clone taken mid-run pops exactly the sequence the original
    /// held at that point.
    #[test]
    fn lanes_match_a_time_lane_key_model(
        ops in proptest::collection::vec(op(), 1..300),
        clone_at in 0usize..300,
    ) {
        run_script(&ops, clone_at)?;
    }
}

const LANES: usize = 4;

/// One step of a kernel script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule `delay` ns after now on `lane` with `key`. Small ranges
    /// make same-time and same-key collisions common.
    Schedule { delay: u64, lane: usize, key: u64 },
    /// Cancel the handle at `index % handles.len()`, live or stale.
    Cancel(usize),
    /// Pop with the horizon `ahead` ns after now.
    Pop { ahead: u64 },
}

/// Decodes one raw word into an op: schedules 40 %, cancels 20 %, pops
/// 40 %, with the high bits as the op's arguments.
fn op() -> impl Strategy<Value = Op> {
    any::<u64>().prop_map(|word| {
        let arg = word >> 4;
        match word % 10 {
            0..=3 => Op::Schedule {
                delay: arg % 40,
                lane: (arg >> 8) as usize % LANES,
                key: (arg >> 16) % 6,
            },
            4 | 5 => Op::Cancel(arg as usize),
            _ => Op::Pop { ahead: arg % 30 },
        }
    })
}

type Model = BTreeMap<(SimTime, usize, u64), u32>;

/// Pops everything left and checks it against the model's order.
fn drain(des: &mut Kernel<u32, LANES>, model: Model) -> Result<(), TestCaseError> {
    for ((at, _, _), ev) in model {
        prop_assert_eq!(des.next_until(SimTime::MAX), Some(ev));
        prop_assert_eq!(des.now(), at);
    }
    prop_assert_eq!(des.next_until(SimTime::MAX), None);
    prop_assert_eq!(des.next_time(), None);
    Ok(())
}

fn run_script(ops: &[Op], clone_at: usize) -> Result<(), TestCaseError> {
    let mut des: Kernel<u32, LANES> = Kernel::default();
    let mut model = Model::new();
    let mut handles: Vec<(EventId, (SimTime, usize, u64))> = Vec::new();
    let mut twin = None;
    for (step, op) in ops.iter().enumerate() {
        if step == clone_at {
            let copy = des.clone();
            for &(id, _) in &handles {
                prop_assert_eq!(copy.key_of(id), des.key_of(id));
            }
            twin = Some((copy, model.clone()));
        }
        match *op {
            Op::Schedule { delay, lane, key } => {
                let at = des.now() + SimTime::from_nanos(delay);
                // A lane's same-time keys must be unique.
                if model.contains_key(&(at, lane, key)) {
                    continue;
                }
                let ev = handles.len() as u32;
                handles.push((des.schedule_keyed(at, lane, key, ev), (at, lane, key)));
                model.insert((at, lane, key), ev);
            }
            Op::Cancel(index) => {
                if handles.is_empty() {
                    continue;
                }
                let (id, k) = handles[index % handles.len()];
                let pending = model.contains_key(&k).then_some((k.0, k.2));
                prop_assert_eq!(des.key_of(id), pending);
                prop_assert_eq!(des.cancel(id), model.remove(&k));
                prop_assert_eq!(des.key_of(id), None);
            }
            Op::Pop { ahead } => {
                let horizon = des.now() + SimTime::from_nanos(ahead);
                let due = model.first_key_value().filter(|(k, _)| k.0 <= horizon);
                let due = due.map(|(&k, &ev)| (k, ev));
                prop_assert_eq!(des.next_until(horizon), due.map(|(_, ev)| ev));
                if let Some((k, _)) = due {
                    model.remove(&k);
                    prop_assert_eq!(des.now(), k.0);
                }
            }
        }
        prop_assert_eq!(des.next_time(), model.keys().next().map(|k| k.0));
    }
    drain(&mut des, model)?;
    if let Some((mut twin, model)) = twin {
        drain(&mut twin, model)?;
    }
    Ok(())
}
