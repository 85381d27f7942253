//! Property-based invariants of the simulator substrates.

use mtia_core::units::{Bandwidth, Bytes, SimTime};
use mtia_sim::mem::cache::{zipf_hit_rate, SetAssocCache};
use mtia_sim::noc::LeakyBucket;
use mtia_sim::pe_pipeline::{simulate_pipeline, PipelineConfig};
use proptest::prelude::*;

/// The Che solver as it stood before its rank buckets were hoisted out
/// of the bisection, kept verbatim as the bit-exact reference: every
/// step recomputes each bucket's `exp`, `powf` and width.
fn per_bucket_zipf_hit_rate(catalog: u64, cache_size: u64, skew: f64) -> f64 {
    assert!(catalog > 0, "empty catalog");
    assert!(skew > 0.0 && skew < 2.0, "unsupported zipf skew {skew}");
    if cache_size == 0 {
        return 0.0;
    }
    if cache_size >= catalog {
        return 1.0;
    }
    let n = catalog as f64;
    let c = cache_size as f64;

    // Normalization: H = Σ x^-s approximated by the integral.
    let h = if (skew - 1.0).abs() < 1e-9 {
        n.ln() + 0.5772
    } else {
        (n.powf(1.0 - skew) - 1.0) / (1.0 - skew) + 1.0
    };
    let q = |x: f64| x.powf(-skew) / h;

    // Numeric integration over log-spaced rank buckets.
    let integrate = |t: f64, weighted: bool| -> f64 {
        const STEPS: usize = 400;
        let log_n = n.ln();
        let mut acc = 0.0;
        let mut prev_x = 1.0f64;
        for k in 1..=STEPS {
            let x = (log_n * k as f64 / STEPS as f64).exp();
            let dx = x - prev_x;
            let mid = 0.5 * (x + prev_x);
            let qi = q(mid);
            let p_in = 1.0 - (-qi * t).exp();
            acc += if weighted { qi * p_in * dx } else { p_in * dx };
            prev_x = x;
        }
        acc
    };

    // Solve for t_c with bisection on a wide bracket.
    let (mut lo, mut hi) = (1.0f64, 1e18f64);
    for _ in 0..200 {
        let mid = (lo * hi).sqrt();
        if integrate(mid, false) < c {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi / lo < 1.0 + 1e-9 {
            break;
        }
    }
    let t_c = (lo * hi).sqrt();
    integrate(t_c, true).clamp(0.0, 1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The hoisted solver returns exactly the reference's bits, for
    /// catalogs up to 10¹², caches on both sides of the catalog, and
    /// skews across `(0, 2)` (exactly 1.0 and its ±1e-9 branch included).
    #[test]
    fn hoisted_zipf_matches_per_bucket_solver_bit_for_bit(
        catalog_exp in 0.0f64..=12.0,
        cache_frac in 0.0f64..1.25,
        skew_kind in 0u8..4,
        skew_raw in 1e-6f64..2.0,
    ) {
        let catalog = (10f64.powf(catalog_exp) as u64).max(1);
        let cache = (catalog as f64 * cache_frac) as u64;
        let skew = match skew_kind {
            0 => 1.0,
            1 => 1.0 + (skew_raw - 1.0) * 1e-9,
            _ => skew_raw,
        };
        let hoisted = zipf_hit_rate(catalog, cache, skew);
        let reference = per_bucket_zipf_hit_rate(catalog, cache, skew);
        prop_assert_eq!(
            hoisted.to_bits(),
            reference.to_bits(),
            "catalog {} cache {} skew {}: {} vs {}",
            catalog, cache, skew, hoisted, reference
        );
    }
}

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
