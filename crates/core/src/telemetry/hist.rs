//! Streaming latency statistics with log-spaced buckets.
//!
//! Production serving is judged at the 99th percentile (§6: "the 99th
//! percentile (P99) latency SLO of 100 ms"), so every simulation here
//! tracks full latency distributions, not just means. The histogram
//! lives in `core::telemetry` so both the serving simulators and the
//! metrics registry can share one mergeable implementation.

use std::fmt;
use std::sync::OnceLock;

use crate::units::SimTime;

/// Number of buckets per decade of latency.
const BUCKETS_PER_DECADE: usize = 20;
/// Lowest representable latency (1 µs).
const FLOOR_PICOS: f64 = 1e6;
/// Decades covered (1 µs … 1000 s).
const DECADES: usize = 9;
/// An underflow bucket, `BUCKETS_PER_DECADE` per decade, an overflow.
const BUCKETS: usize = BUCKETS_PER_DECADE * DECADES + 2;

/// The bucket rule: `⌊20·log10(ps / 1 µs)⌋ + 1`, clamped to the
/// buckets, and 0 below 1 µs. [`bucket_tables`] tabulates it once so
/// recording a sample needs no `log10`.
fn bucket_by_log10(ps: u64) -> usize {
    let ps = ps as f64;
    if ps < FLOOR_PICOS {
        return 0;
    }
    let pos = (ps / FLOOR_PICOS).log10() * BUCKETS_PER_DECADE as f64;
    (pos as usize + 1).min(BUCKETS - 1)
}

/// Bits of a value below its top set bit that pick its [`Buckets::start`]
/// slot: 64 bit positions × 16 = 1,024 slots.
const SLOT_BITS: u32 = 4;

/// The slot of `ps`: its top set bit's position and the
/// [`SLOT_BITS`] bits below it. Slot `s` covers `[lo, hi)` with
/// `hi / lo ≤ 17/16` (values below 16 get a slot each), narrower than
/// the ≈1.122 ratio between consecutive edges, so at most one edge falls
/// inside a slot.
fn slot_of(ps: u64) -> usize {
    let top = 63 - (ps | 1).leading_zeros();
    let mantissa = (ps >> top.saturating_sub(SLOT_BITS)) & ((1 << SLOT_BITS) - 1);
    ((top << SLOT_BITS) as u64 | mantissa) as usize
}

/// The bucket rule tabulated.
struct Buckets {
    /// `edges[i]` is the smallest picosecond count [`bucket_by_log10`]
    /// puts in bucket `i + 1` or above, found by binary search: the rule
    /// is monotone in `ps`, so a value's bucket is the number of edges at
    /// or below it.
    edges: [u64; BUCKETS - 1],
    /// Per slot, the bucket of the slot's smallest value.
    start: [u8; 64 << SLOT_BITS],
}

/// The tables, built on first use.
fn bucket_tables() -> &'static Buckets {
    static TABLES: OnceLock<Buckets> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut edges = [0; BUCKETS - 1];
        for (i, edge) in edges.iter_mut().enumerate() {
            let (mut lo, mut hi) = (0, u64::MAX);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if bucket_by_log10(mid) > i {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            *edge = lo;
        }
        // Values below 16 lie under the first edge (1 µs): their slots
        // keep bucket 0.
        let mut start = [0; 64 << SLOT_BITS];
        let small = (SLOT_BITS as usize) << SLOT_BITS;
        for (slot, entry) in start.iter_mut().enumerate().skip(small) {
            let (top, mantissa) = (slot >> SLOT_BITS, slot as u64 & ((1 << SLOT_BITS) - 1));
            let lo = ((1 << SLOT_BITS) | mantissa) << (top - SLOT_BITS as usize);
            *entry = edges.partition_point(|&edge| edge <= lo) as u8;
        }
        Buckets { edges, start }
    })
}

/// A fixed-memory latency histogram with ~12 % relative bucket resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_picos: u128,
    max: SimTime,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_picos: 0,
            max: SimTime::ZERO,
        }
    }

    /// The bucket of `latency`: how many bucket lower edges it reaches.
    /// Its slot's first bucket, plus one if it reaches the one edge the
    /// slot may hold.
    #[inline]
    fn bucket_of(latency: SimTime) -> usize {
        let ps = latency.as_picos();
        let tables = bucket_tables();
        let start = tables.start[slot_of(ps)] as usize;
        start + tables.edges.get(start).is_some_and(|&edge| ps >= edge) as usize
    }

    fn bucket_upper(index: usize) -> SimTime {
        if index == 0 {
            return SimTime::from_picos(FLOOR_PICOS as u64);
        }
        let exp = index as f64 / BUCKETS_PER_DECADE as f64;
        SimTime::from_picos((FLOOR_PICOS * 10f64.powf(exp)) as u64)
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimTime) {
        self.counts[Self::bucket_of(latency)] += 1;
        self.total += 1;
        self.sum_picos += latency.as_picos() as u128;
        self.max = self.max.max(latency);
    }

    /// Folds another histogram's samples into this one.
    ///
    /// The merge is *exact*: both histograms share the same fixed bucket
    /// edges, so elementwise count addition yields the histogram that
    /// recording all samples into one instance would have produced —
    /// every quantile, the mean, the max, and the count are identical.
    /// This is what lets parallel Monte-Carlo replicas keep per-shard
    /// histograms and combine them after the fork-join, instead of
    /// serializing on one shared histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum_picos += other.sum_picos;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency; zero when empty.
    pub fn mean(&self) -> SimTime {
        if self.total == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_picos((self.sum_picos / self.total as u128) as u64)
    }

    /// Maximum recorded latency.
    pub fn max(&self) -> SimTime {
        self.max
    }

    /// The `q`-quantile (e.g. 0.99 for P99), as the upper edge of the
    /// containing bucket.
    ///
    /// **Empty-histogram contract:** with no recorded samples this
    /// returns [`SimTime::ZERO`] rather than panicking — convenient for
    /// reports that print before warmup has produced data, but easy to
    /// mistake for "the P99 is zero". Callers that need to distinguish
    /// "no data" from "zero latency" should use
    /// [`checked_quantile`](Self::checked_quantile).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> SimTime {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1], got {q}");
        if self.total == 0 {
            return SimTime::ZERO;
        }
        let rank = (q * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Like [`quantile`](Self::quantile), but `None` when the histogram
    /// is empty instead of the ambiguous `SimTime::ZERO`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    pub fn checked_quantile(&self, q: f64) -> Option<SimTime> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1], got {q}");
        if self.total == 0 {
            None
        } else {
            Some(self.quantile(q))
        }
    }

    /// P99 shorthand. Empty histograms report `SimTime::ZERO` (see
    /// [`quantile`](Self::quantile) for the contract).
    pub fn p99(&self) -> SimTime {
        self.quantile(0.99)
    }

    /// P50 shorthand.
    pub fn p50(&self) -> SimTime {
        self.quantile(0.50)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50={} p99={} max={}",
            self.total,
            self.p50(),
            self.p99(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The edges' binary search, which the slot table replaces.
    fn searched(ps: u64) -> usize {
        bucket_tables().edges.partition_point(|&edge| edge <= ps)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_000))]

        /// The slot table buckets any value as the edges' binary search
        /// and the `log10` rule do; the shift spreads values over every
        /// scale.
        #[test]
        fn edge_table_matches_the_log10_rule(raw in any::<u64>(), shift in 0u32..64) {
            let ps = raw >> shift;
            let bucket = LatencyHistogram::bucket_of(SimTime::from_picos(ps));
            prop_assert_eq!(bucket, searched(ps));
            prop_assert_eq!(bucket, bucket_by_log10(ps));
        }
    }

    #[test]
    fn edge_table_matches_the_log10_rule_at_every_edge() {
        let mut values = vec![0, 1, 15, 16, u64::MAX];
        for &edge in &bucket_tables().edges {
            values.extend([edge - 1, edge, edge + 1]);
        }
        for ps in values {
            let bucket = LatencyHistogram::bucket_of(SimTime::from_picos(ps));
            assert_eq!(bucket, searched(ps), "{ps} ps");
            assert_eq!(bucket, bucket_by_log10(ps), "{ps} ps");
        }
        assert_eq!(searched(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_tables().edges[0], FLOOR_PICOS as u64);
        assert!(bucket_tables().edges.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), SimTime::ZERO);
        assert_eq!(h.mean(), SimTime::ZERO);
    }

    #[test]
    fn checked_quantile_distinguishes_empty_from_zero() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.checked_quantile(0.99), None);
        h.record(SimTime::ZERO); // a genuine zero-latency sample
        assert_eq!(h.checked_quantile(0.99), Some(SimTime::ZERO));
        h.record(SimTime::from_millis(3));
        assert_eq!(h.checked_quantile(0.99), Some(h.p99()));
    }

    #[test]
    fn single_sample_quantiles() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_millis(5));
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), SimTime::from_millis(5)); // clamped to max
        assert_eq!(h.p99(), SimTime::from_millis(5));
    }

    #[test]
    fn uniform_distribution_quantiles() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(SimTime::from_micros(i * 100)); // 0.1 .. 100 ms
        }
        let p50 = h.p50().as_millis_f64();
        let p99 = h.p99().as_millis_f64();
        assert!((p50 - 50.0).abs() / 50.0 < 0.15, "p50 {p50}");
        assert!((p99 - 99.0).abs() / 99.0 < 0.15, "p99 {p99}");
        assert!(h.p99() >= h.p50());
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_millis(10));
        h.record(SimTime::from_millis(30));
        assert_eq!(h.mean(), SimTime::from_millis(20));
    }

    #[test]
    fn sub_floor_latencies_land_in_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_nanos(10));
        assert_eq!(h.count(), 1);
        assert!(h.p99() <= SimTime::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        let _ = LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn merge_equals_single_run() {
        let samples: Vec<SimTime> = (1..=500u64)
            .map(|i| SimTime::from_micros(i * i % 90_000 + 1))
            .collect();
        let mut single = LatencyHistogram::new();
        for s in &samples {
            single.record(*s);
        }
        // Shard round-robin into 3, then merge.
        let mut shards = [
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        ];
        for (i, s) in samples.iter().enumerate() {
            shards[i % 3].record(*s);
        }
        let mut merged = LatencyHistogram::new();
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged.count(), single.count());
        assert_eq!(merged.mean(), single.mean());
        assert_eq!(merged.max(), single.max());
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), single.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merging_an_empty_histogram_is_identity() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_millis(5));
        let before = (h.count(), h.p99(), h.mean(), h.max());
        h.merge(&LatencyHistogram::new());
        assert_eq!(before, (h.count(), h.p99(), h.mean(), h.max()));
    }

    #[test]
    fn bucket_resolution_is_within_12_percent() {
        // Adjacent bucket edges differ by 10^(1/20) ≈ 1.122.
        let a = LatencyHistogram::bucket_upper(40);
        let b = LatencyHistogram::bucket_upper(41);
        let ratio = b.as_picos() as f64 / a.as_picos() as f64;
        assert!((ratio - 1.122).abs() < 0.01);
    }
}
