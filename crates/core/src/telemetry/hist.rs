//! Streaming latency statistics with log-spaced buckets.
//!
//! Production serving is judged at the 99th percentile (§6: "the 99th
//! percentile (P99) latency SLO of 100 ms"), so every simulation here
//! tracks full latency distributions, not just means. The histogram
//! lives in `core::telemetry` so both the serving simulators and the
//! metrics registry can share one mergeable implementation.

use std::fmt;

use crate::units::SimTime;

/// Number of buckets per decade of latency.
const BUCKETS_PER_DECADE: usize = 20;
/// Lowest representable latency (1 µs).
const FLOOR_PICOS: f64 = 1e6;
/// Decades covered (1 µs … 1000 s).
const DECADES: usize = 9;

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
            counts: vec![0; BUCKETS_PER_DECADE * DECADES + 2],
            total: 0,
            sum_picos: 0,
            max: SimTime::ZERO,
        }
    }

    fn bucket_of(latency: SimTime) -> usize {
        let ps = latency.as_picos() as f64;
        if ps < FLOOR_PICOS {
            return 0;
        }
        let pos = (ps / FLOOR_PICOS).log10() * BUCKETS_PER_DECADE as f64;
        (pos as usize + 1).min(BUCKETS_PER_DECADE * DECADES + 1)
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
