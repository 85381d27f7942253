//! Property-based invariants of the simulator substrates.

use mtia_core::units::{Bandwidth, Bytes, SimTime};
use mtia_sim::mem::cache::{zipf_hit_rate, SetAssocCache};
use mtia_sim::noc::LeakyBucket;
use mtia_sim::pe_pipeline::{simulate_pipeline, PipelineConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cache accounting: hits + misses equals accesses; immediate repeat
    /// access always hits.
    #[test]
    fn cache_accounting_holds(
        addrs in proptest::collection::vec(0u64..1_000_000, 1..500),
        ways in 1usize..8,
    ) {
        let mut cache = SetAssocCache::new(64 * 64 * ways as u64, ways, 64);
        for &a in &addrs {
            cache.access(a, false);
            // The same line must hit immediately after.
            prop_assert!(cache.access(a, false));
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, 2 * addrs.len() as u64);
        prop_assert!(stats.hits >= addrs.len() as u64);
    }

    /// A working set within capacity always converges to 100 % hits.
    #[test]
    fn small_working_set_always_converges(lines in 1u64..64, ways in 1usize..4) {
        let mut cache = SetAssocCache::new(64 * 128 * ways as u64, ways, 64);
        // Warm: consecutive lines spread across the 128 sets.
        for i in 0..lines {
            cache.access(i * 64, false);
        }
        cache.reset_stats();
        for _ in 0..4 {
            for i in 0..lines {
                cache.access(i * 64, false);
            }
        }
        prop_assert!(cache.stats().hit_rate() >= 0.99);
    }

    /// Zipf hit rate is within [0, 1] and monotone in skew for a fixed
    /// cache fraction (heavier skew → more cacheable).
    #[test]
    fn zipf_monotone_in_skew(catalog_exp in 5u32..9, frac in 1u64..100) {
        let catalog = 10u64.pow(catalog_exp);
        let cache = (catalog * frac / 1000).max(1);
        let mild = zipf_hit_rate(catalog, cache, 0.6);
        let heavy = zipf_hit_rate(catalog, cache, 1.2);
        prop_assert!((0.0..=1.0).contains(&mild));
        prop_assert!((0.0..=1.0).contains(&heavy));
        prop_assert!(heavy >= mild - 1e-6, "skew monotonicity: {mild} vs {heavy}");
    }

    /// Leaky bucket: the admission delay never exceeds the full-deficit
    /// drain time, and a drained bucket admits a burst instantly.
    #[test]
    fn leaky_bucket_bounds(burst_kib in 1u64..256, req_kib in 1u64..512) {
        let rate = Bandwidth::from_gb_per_s(10.0);
        let mut bucket = LeakyBucket::new(rate, Bytes::from_kib(burst_kib));
        let req = Bytes::from_kib(req_kib);
        let d1 = bucket.admit(req, SimTime::ZERO);
        let worst = rate.time_to_move(req);
        prop_assert!(d1 <= worst, "delay {d1} > drain bound {worst}");
        // After waiting long enough to refill the whole burst, a
        // burst-sized request is admitted immediately.
        let later = SimTime::from_secs(1);
        let d2 = bucket.admit(Bytes::from_kib(burst_kib), later);
        prop_assert_eq!(d2, SimTime::ZERO);
    }

    /// Pipeline makespan is bounded below by every stage's serial total and
    /// above by the fully-serialized sum.
    #[test]
    fn pipeline_makespan_bounds(
        tiles in 1u32..512,
        issue_ns in 1u64..100,
        dma_ns in 1u64..100,
        compute_ns in 1u64..100,
        simd_ns in 1u64..100,
        cb in 1u32..8,
    ) {
        let config = PipelineConfig {
            tiles,
            issue_time: SimTime::from_nanos(issue_ns),
            dma_time: SimTime::from_nanos(dma_ns),
            compute_time: SimTime::from_nanos(compute_ns),
            simd_time: SimTime::from_nanos(simd_ns),
            cb_slots: cb,
        };
        let stats = simulate_pipeline(config);
        let per_tile = issue_ns + dma_ns + compute_ns + simd_ns;
        let serial = SimTime::from_nanos(per_tile * tiles as u64);
        let stage_floor = SimTime::from_nanos(
            issue_ns.max(dma_ns).max(compute_ns).max(simd_ns) * tiles as u64,
        );
        prop_assert!(stats.makespan <= serial);
        prop_assert!(stats.makespan >= stage_floor);
        // More circular-buffer slots never hurt.
        if cb < 8 {
            let more = simulate_pipeline(PipelineConfig { cb_slots: cb + 1, ..config });
            prop_assert!(more.makespan <= stats.makespan);
        }
    }
}
