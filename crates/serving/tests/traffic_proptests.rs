//! Property tests for the arrival-process contracts: stochastic
//! processes never go backwards and never run dry.

use mtia_core::SimTime;
use mtia_serving::traffic::{ArrivalProcess, PoissonArrivals, RegionalArrivals};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Poisson and diurnal arrivals never go backwards and yield all `n`
    /// requested arrivals, whatever the rate, seed, or process family.
    #[test]
    fn arrivals_are_sorted_and_never_run_dry(
        rate in 1.0f64..500.0,
        seed in any::<u64>(),
        n in 0usize..200,
        diurnal in any::<bool>(),
    ) {
        let rng = StdRng::seed_from_u64(seed);
        let mut process: Box<dyn ArrivalProcess> = if diurnal {
            Box::new(RegionalArrivals::new(
                rate,
                0.5,
                SimTime::from_secs(60),
                SimTime::ZERO,
                Vec::new(),
                rng,
            ))
        } else {
            Box::new(PoissonArrivals::new(rate, rng))
        };
        let mut now = SimTime::ZERO;
        for i in 0..n {
            let t = process.next_arrival(now);
            prop_assert!(t.is_some(), "process ran dry at arrival {}", i);
            let t = t.unwrap();
            prop_assert!(t >= now, "arrival {} went backwards", i);
            now = t;
        }
    }
}
