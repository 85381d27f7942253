//! Cache models for the hardware-managed SRAM partition (LLC).
//!
//! Two complementary models back the §4.2 locality results:
//!
//! * [`SetAssocCache`] — an operational set-associative LRU cache simulator
//!   with hit/miss/writeback accounting, used when an access stream is
//!   available (unit tests, small traces).
//! * [`zipf_hit_rate`] — Che's approximation for an LRU cache under
//!   Zipf-distributed embedding-row popularity, used for the TBE hit-rate
//!   predictions over multi-billion-row tables where streaming every access
//!   is impractical. Its `t`-independent rank buckets are built once per
//!   call, outside the bisection; `ChipSim` calls it through the
//!   process-wide exact-key memo in [`crate::costcache`], so a repeated
//!   `(catalog, cache, skew)` is solved once per process, or twice when
//!   two workers race on its first lookup.

/// Statistics of a cache simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Hits.
    pub hits: u64,
    /// Misses (fills).
    pub misses: u64,
    /// Dirty evictions (writebacks to DRAM).
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 for an empty run.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU timestamp.
    stamp: u64,
}

/// A set-associative write-back LRU cache over 64-byte-line addresses.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    line_bytes: u64,
    sets: usize,
    ways: usize,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with the given associativity and
    /// line size.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of `ways ×
    /// line_bytes` or any parameter is zero.
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(
            capacity_bytes > 0 && ways > 0 && line_bytes > 0,
            "zero cache parameter"
        );
        let way_bytes = ways as u64 * line_bytes;
        assert!(
            capacity_bytes.is_multiple_of(way_bytes),
            "capacity {capacity_bytes} not a multiple of ways × line ({way_bytes})"
        );
        let sets = (capacity_bytes / way_bytes) as usize;
        SetAssocCache {
            line_bytes,
            sets,
            ways,
            lines: vec![
                Line {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    stamp: 0
                };
                sets * ways
            ],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (keeping contents) — e.g. after a warm-up pass.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accesses the line containing `addr`. Returns `true` on hit.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.clock += 1;
        let line_addr = addr / self.line_bytes;
        let set = (line_addr % self.sets as u64) as usize;
        let tag = line_addr / self.sets as u64;
        let base = set * self.ways;
        let set_lines = &mut self.lines[base..base + self.ways];

        if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.stamp = self.clock;
            line.dirty |= write;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Victim: invalid line if any, else LRU.
        let victim = set_lines
            .iter_mut()
            .min_by_key(|l| if l.valid { l.stamp + 1 } else { 0 })
            .expect("associativity is non-zero");
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            stamp: self.clock,
        };
        false
    }
}

/// Che's approximation of the LRU hit rate for a Zipf(`skew`) popularity
/// distribution over `catalog` objects with a cache of `cache_size` objects.
///
/// The characteristic time `t_c` solves `Σᵢ (1 − e^{−qᵢ t}) = C`; the hit
/// rate is `Σᵢ qᵢ (1 − e^{−qᵢ t_c})`. Both sums are evaluated by log-domain
/// numeric integration so catalogs of billions of rows are cheap.
///
/// The 400 log-spaced rank buckets do not depend on `t`, so their
/// popularity `q(mid)` and width `dx` are computed once per call; each
/// bisection step then costs one `exp` per bucket. Every float is formed
/// by the same operations in the same order as a per-step recomputation
/// would form it, so the result is bit-identical to that naive solver
/// (pinned by the `sim` property suite).
///
/// This is the single, uncached solver. `ChipSim` reaches it through
/// [`crate::costcache::zipf_hit_rate_cached`], which memoizes it on its
/// exact inputs.
///
/// # Panics
///
/// Panics if `skew` is not in `(0, 2)`, or `catalog == 0`.
pub fn zipf_hit_rate(catalog: u64, cache_size: u64, skew: f64) -> f64 {
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

    // Log-spaced rank buckets: (popularity at the midpoint, width).
    const STEPS: usize = 400;
    let log_n = n.ln();
    let mut prev_x = 1.0f64;
    let buckets: Vec<(f64, f64)> = (1..=STEPS)
        .map(|k| {
            let x = (log_n * k as f64 / STEPS as f64).exp();
            let dx = x - prev_x;
            let mid = 0.5 * (x + prev_x);
            prev_x = x;
            (mid.powf(-skew) / h, dx)
        })
        .collect();

    // Numeric integration over the buckets.
    let integrate = |t: f64, weighted: bool| -> f64 {
        let mut acc = 0.0;
        for &(qi, dx) in &buckets {
            let p_in = 1.0 - (-qi * t).exp();
            acc += if weighted { qi * p_in * dx } else { p_in * dx };
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hits_on_repeat_access() {
        let mut c = SetAssocCache::new(64 * 16, 4, 64);
        assert!(!c.access(0, false));
        assert!(c.access(0, false));
        assert!(c.access(32, false)); // same line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1 set × 2 ways.
        let mut c = SetAssocCache::new(128, 2, 64);
        c.access(0, false); // A
        c.access(64, false); // B (different tag, same set)
        c.access(0, false); // A hit, refresh
        c.access(128, false); // C evicts B (LRU)
        assert!(c.access(0, false), "A should survive");
        assert!(!c.access(64, false), "B was evicted");
    }

    #[test]
    fn writebacks_counted_for_dirty_victims() {
        let mut c = SetAssocCache::new(128, 2, 64);
        c.access(0, true); // dirty A
        c.access(64, false); // clean B
        c.access(128, false); // evicts A (dirty) → writeback
        assert_eq!(c.stats().writebacks, 1);
        c.access(192, false); // evicts B (clean) → no writeback
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = SetAssocCache::new(64 * 1024, 8, 64);
        let lines = 512; // 32 KiB working set in a 64 KiB cache
        for i in 0..lines {
            c.access(i * 64, false);
        }
        c.reset_stats();
        for _ in 0..10 {
            for i in 0..lines {
                c.access(i * 64, false);
            }
        }
        assert_eq!(c.stats().hit_rate(), 1.0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = SetAssocCache::new(64 * 64, 4, 64); // 4 KiB
        let lines = 256u64; // 16 KiB working set, sequential sweep
        for _ in 0..5 {
            for i in 0..lines {
                c.access(i * 64, false);
            }
        }
        // Sequential sweep over 4× capacity with LRU: ~0 hits.
        assert!(c.stats().hit_rate() < 0.05, "rate {}", c.stats().hit_rate());
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn misaligned_capacity_panics() {
        let _ = SetAssocCache::new(1000, 4, 64);
    }

    #[test]
    fn zipf_hit_rate_monotone_in_cache_size() {
        let n = 1_000_000_000u64;
        let small = zipf_hit_rate(n, n / 10_000, 0.9);
        let large = zipf_hit_rate(n, n / 100, 0.9);
        assert!(small > 0.0 && large < 1.0);
        assert!(large > small, "{large} vs {small}");
    }

    #[test]
    fn zipf_hit_rate_edges() {
        assert_eq!(zipf_hit_rate(100, 0, 0.9), 0.0);
        assert_eq!(zipf_hit_rate(100, 100, 0.9), 1.0);
        assert_eq!(zipf_hit_rate(100, 200, 0.9), 1.0);
    }

    #[test]
    fn zipf_hit_rate_below_top_mass_bound() {
        // Caching the top-f fraction of a Zipf(s<1) catalog captures
        // ≈ f^(1−s) of the mass — an *upper bound* for LRU, which keeps a
        // noisier set than the exact top. Che's approximation must stay
        // below the bound but within sight of it.
        let n = 100_000_000u64;
        for f in [1e-4f64, 1e-3, 1e-2] {
            let cache = (n as f64 * f) as u64;
            let che = zipf_hit_rate(n, cache, 0.9);
            let bound = f.powf(0.1);
            assert!(che < bound, "f={f}: che {che:.3} ≥ bound {bound:.3}");
            assert!(che > bound * 0.4, "f={f}: che {che:.3} ≪ bound {bound:.3}");
        }
    }

    #[test]
    fn paper_band_40_to_60_percent_for_production_ratios() {
        // §4.2: 40–60 % of TBE accesses hit SRAM. A ~150 MB embedding cache
        // over 20–100 GB of tables is a 0.15–0.75 % row fraction.
        let rows = 400_000_000u64; // 50 GB of 128-dim fp16 rows
        for cached_rows in [400_000u64, 600_000, 1_200_000] {
            let hit = zipf_hit_rate(rows, cached_rows, mtia_core::calib::EMBEDDING_ZIPF_SKEW);
            assert!(
                hit > 0.35 && hit < 0.65,
                "tbe hit rate {hit} at {cached_rows} rows"
            );
        }
    }
}
