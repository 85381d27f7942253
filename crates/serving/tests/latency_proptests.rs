//! Property tests for [`LatencyHistogram::merge`]: sharding samples
//! across any number of per-replica histograms and merging them must be
//! indistinguishable from recording every sample into one histogram —
//! the contract the parallel Monte-Carlo replicas rely on.
//!
//! [`LatencyHistogram::merge`]: mtia_core::telemetry::LatencyHistogram::merge

use mtia_core::telemetry::LatencyHistogram;
use mtia_core::SimTime;
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For arbitrary samples, shard counts, and shard assignments,
    /// sharded-then-merged quantiles (and count/mean/max) equal the
    /// single-run histogram's exactly.
    #[test]
    fn sharded_then_merged_equals_single_run(
        // Latencies from sub-floor (ns) to deep overload (minutes).
        samples in vec(1u64..200_000_000_000_000, 1..400),
        shards in 1usize..8,
        assignment_seed in any::<u64>(),
    ) {
        let mut single = LatencyHistogram::new();
        let mut parts: Vec<LatencyHistogram> =
            (0..shards).map(|_| LatencyHistogram::new()).collect();
        // Deterministic pseudo-random shard assignment from the seed.
        let mut state = assignment_seed | 1;
        for &picos in &samples {
            let t = SimTime::from_picos(picos);
            single.record(t);
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            parts[(state >> 33) as usize % shards].record(t);
        }
        let mut merged = LatencyHistogram::new();
        for part in &parts {
            merged.merge(part);
        }
        prop_assert_eq!(merged.count(), single.count());
        prop_assert_eq!(merged.mean(), single.mean());
        prop_assert_eq!(merged.max(), single.max());
        for q in [0.001, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(merged.quantile(q), single.quantile(q), "quantile {}", q);
        }
        prop_assert_eq!(merged.checked_quantile(0.99), single.checked_quantile(0.99));
    }

    /// Merging is associative and order-insensitive: folding shards in
    /// any order yields the same histogram summary.
    #[test]
    fn merge_order_does_not_matter(
        a in vec(1u64..1_000_000_000_000, 0..100),
        b in vec(1u64..1_000_000_000_000, 0..100),
        c in vec(1u64..1_000_000_000_000, 0..100),
    ) {
        let build = |samples: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &p in samples {
                h.record(SimTime::from_picos(p));
            }
            h
        };
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));
        let fold = |order: [&LatencyHistogram; 3]| {
            let mut m = LatencyHistogram::new();
            for h in order {
                m.merge(h);
            }
            m
        };
        let abc = fold([&ha, &hb, &hc]);
        let cba = fold([&hc, &hb, &ha]);
        prop_assert_eq!(abc.count(), cba.count());
        prop_assert_eq!(abc.mean(), cba.mean());
        prop_assert_eq!(abc.max(), cba.max());
        for q in [0.5, 0.99] {
            prop_assert_eq!(abc.quantile(q), cba.quantile(q));
        }
    }
}
