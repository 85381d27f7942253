//! Property tests of the discrete-event kernel.

use mtia_core::des::Kernel;
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
}
