//! Process-wide memoization of the Zipf/Che TBE hit-rate solver.
//!
//! [`ChipSim`] derives one TBE hit rate per run from
//! [`zipf_hit_rate`], and a design sweep repeats the same few
//! embedding-cache budgets over and over. [`zipf_hit_rate_cached`]
//! interns the solver's result keyed by its exact inputs `(catalog,
//! cache_size, skew.to_bits())` in a lock-sharded [`ShardedCache`].
//! Uncached, the bisection solver dominates a co-design evaluation: the
//! perfbench `codesign` workload runs about 4–5× slower without this
//! memo (0.44–0.53 s against 0.08–0.13 s per job, three alternating
//! runs on a shared 2-core x86 host).
//!
//! Per-node kernel costs are not memoized: `ChipSim` calls
//! [`cost_op`](crate::kernels::cost_op) directly, which costs less than
//! keying, hashing and probing a memo for it did.
//!
//! [`stats`], [`entries`] and [`reset`] report and clear the Zipf memo,
//! so a cold-cache benchmark job starts cold.
//!
//! **Determinism**: cached values equal freshly computed values by
//! purity, so the memo — shared across the [`mtia_core::pool`] workers
//! — never changes any reported number, only the time it takes to
//! produce it. Only the hit/miss *counters* are scheduling-dependent,
//! which is why they are reported separately (`BENCH_PERF.json`) and
//! excluded from byte-identity comparisons.
//!
//! [`ChipSim`]: crate::chip::ChipSim

use std::hash::Hash;
use std::sync::OnceLock;

use mtia_core::memo::{stable_key, CacheStats, ShardedCache};

use crate::mem::cache::zipf_hit_rate;

static ZIPF: OnceLock<ShardedCache<f64>> = OnceLock::new();

fn zipf_cache() -> &'static ShardedCache<f64> {
    ZIPF.get_or_init(ShardedCache::default)
}

/// [`zipf_hit_rate`] through the process-wide Zipf memo, keyed by its
/// exact inputs. Returns the same bits as a direct call.
///
/// # Panics
///
/// As [`zipf_hit_rate`], on a miss with invalid inputs.
pub fn zipf_hit_rate_cached(catalog: u64, cache_size: u64, skew: f64) -> f64 {
    let key = stable_key(|h| {
        catalog.hash(h);
        cache_size.hash(h);
        skew.to_bits().hash(h);
    });
    zipf_cache().get_or_insert_with(key, || zipf_hit_rate(catalog, cache_size, skew))
}

/// Snapshot of the Zipf memo's hit/miss counters.
pub fn stats() -> CacheStats {
    zipf_cache().stats()
}

/// Zipf hit rates currently interned.
pub fn entries() -> usize {
    zipf_cache().len()
}

/// Empties the Zipf memo and zeroes its counters (fair cold-start
/// timings when benchmarking thread counts or measuring per-experiment
/// rates).
pub fn reset() {
    zipf_cache().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipSim;
    use mtia_core::spec::chips;
    use mtia_model::models::dlrm::DlrmConfig;
    use mtia_model::models::zoo;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that count hits or call [`reset`]: the memo
    /// is process-wide and the harness runs tests in parallel.
    fn memo_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether `attempt` is observed to return true on some try. Other
    /// tests in this binary run `ChipSim` concurrently and may refill
    /// the memo between a [`reset`] and the check, so the check is
    /// retried; a defect that leaves entries or counters behind fails
    /// every attempt.
    fn observed(attempt: impl Fn() -> bool) -> bool {
        (0..1000).any(|_| attempt())
    }

    #[test]
    fn cached_zipf_returns_the_solver_bits() {
        for (catalog, cache, skew) in [
            (400_000_000u64, 600_000u64, 1.05f64),
            (1_000_000, 10_000, 1.0),
            (12_345, 678, 0.37),
            (100, 0, 0.9),
            (100, 200, 0.9),
        ] {
            let direct = zipf_hit_rate(catalog, cache, skew);
            for _ in 0..2 {
                assert_eq!(
                    zipf_hit_rate_cached(catalog, cache, skew).to_bits(),
                    direct.to_bits(),
                    "({catalog}, {cache}, {skew})"
                );
            }
        }
    }

    #[test]
    fn repeat_zipf_lookup_hits() {
        let _guard = memo_lock();
        let (catalog, cache, skew) = (987_654_321u64, 1_234_567u64, 0.8125f64);
        let first = zipf_hit_rate_cached(catalog, cache, skew);
        let before = stats();
        let second = zipf_hit_rate_cached(catalog, cache, skew);
        let after = stats();
        assert_eq!(first.to_bits(), second.to_bits());
        assert!(after.hits > before.hits, "repeat lookup must hit");
        // A different skew is a different key.
        let other = zipf_hit_rate_cached(catalog, cache, 0.8126);
        assert_ne!(first.to_bits(), other.to_bits());
    }

    #[test]
    fn reset_empties_the_zipf_memo() {
        let _guard = memo_lock();
        let _ = zipf_hit_rate_cached(55_555, 555, 0.55);
        assert!(entries() > 0);
        assert!(observed(|| {
            reset();
            entries() == 0 && stats() == CacheStats::default()
        }));
    }

    /// `ChipSim` interns one Zipf hit rate per distinct embedding-cache
    /// key and nothing per node: no op cost is memoized.
    #[test]
    fn chip_runs_intern_only_zipf_keys() {
        let _guard = memo_lock();
        let sim = ChipSim::new(chips::mtia2i());
        let graphs = [
            DlrmConfig::small(512).build(),
            zoo::fig6_models().remove(8).graph(), // HC4, big tables
        ];
        let reports: Vec<_> = graphs.iter().map(|g| sim.run_default(g)).collect();
        // Different budgets and hit rates, so the two runs key the memo
        // differently (equal keys would return equal bits).
        assert_ne!(
            reports[0].placement.embedding_cache_bytes,
            reports[1].placement.embedding_cache_bytes
        );
        assert_ne!(
            reports[0].tbe_hit_rate.to_bits(),
            reports[1].tbe_hit_rate.to_bits()
        );
        assert!(observed(|| {
            reset();
            for graph in &graphs {
                // Twice each: a repeated key hits and adds no entry.
                sim.run_default(graph);
                sim.run_default(graph);
            }
            entries() == 2 && stats() == CacheStats { hits: 2, misses: 2 }
        }));
    }
}
