//! A mergeable metrics registry: counters, gauges, and latency
//! histograms keyed by dotted names.
//!
//! Registries are plain values, not globals. A simulation owns one,
//! records into it, and — when work was sharded across
//! [`crate::pool`] workers — merges the per-shard registries after the
//! fork-join. Merging is **associative and commutative** (a property
//! test pins this): counters add, gauges take the max, and histograms
//! use [`LatencyHistogram::merge`], which is exact. Any shard/merge
//! tree therefore produces the same registry as serial recording.
//!
//! # Naming convention
//!
//! Dotted lowercase paths, subsystem first: `chip.occupancy.dpe_ps`,
//! `serving.shed`, `fleet.rollout.impacted`. Names prefixed with
//! `nondet.` are *excluded from canonical trace exports*: they carry
//! useful-but-scheduling-dependent values (e.g. wall-clock timings or
//! process-global memo hit counts, which depend on what else ran in the
//! same process) and must not participate in golden-trace comparisons.

use std::collections::BTreeMap;

use super::hist::LatencyHistogram;
use super::json::Json;
use crate::units::SimTime;

/// Prefix marking metrics that are real but not schedule-independent;
/// canonical exports skip them.
pub const NONDET_PREFIX: &str = "nondet.";

/// A set of named counters, gauges, and histograms.
///
/// Backed by `BTreeMap` so iteration (and therefore every export) is
/// name-ordered and deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LatencyHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge to `value` if it exceeds the current value
    /// (creating it otherwise). Max semantics keep the merge
    /// commutative: a gauge records the high-water mark, not the last
    /// write.
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        let slot = self.gauges.entry(name.to_string()).or_insert(f64::MIN);
        if value > *slot {
            *slot = value;
        }
    }

    /// Records one sample into the named histogram (creating it empty).
    pub fn hist_record(&mut self, name: &str, sample: SimTime) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(sample);
    }

    /// Reads a counter; zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge; `None` when absent.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Reads a histogram; `None` when absent.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms.get(name)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one: counters add, gauges take
    /// the max, histograms merge exactly. Associative and commutative.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(f64::MIN);
            if *value > *slot {
                *slot = *value;
            }
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LatencyHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the registry as ordered JSON records, skipping
    /// `nondet.`-prefixed names when `canonical` is set.
    pub(crate) fn to_json_records(&self, canonical: bool) -> (Vec<Json>, Vec<Json>, Vec<Json>) {
        let keep = |name: &str| !canonical || !name.starts_with(NONDET_PREFIX);
        let counters = self
            .counters
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, v)| {
                Json::obj(vec![
                    ("name".into(), Json::Str(k.clone())),
                    ("value".into(), Json::UInt(*v)),
                ])
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, v)| {
                Json::obj(vec![
                    ("name".into(), Json::Str(k.clone())),
                    ("value".into(), Json::Num(*v)),
                ])
            })
            .collect();
        let hists = self
            .histograms
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, h)| {
                Json::obj(vec![
                    ("name".into(), Json::Str(k.clone())),
                    ("count".into(), Json::UInt(h.count())),
                    ("mean_ps".into(), Json::UInt(h.mean().as_picos())),
                    ("p50_ps".into(), Json::UInt(h.p50().as_picos())),
                    ("p99_ps".into(), Json::UInt(h.p99().as_picos())),
                    ("max_ps".into(), Json::UInt(h.max().as_picos())),
                ])
            })
            .collect();
        (counters, gauges, hists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("a"), 0);
        m.counter_add("a", 2);
        m.counter_add("a", 3);
        assert_eq!(m.counter("a"), 5);
    }

    #[test]
    fn gauges_keep_the_high_water_mark() {
        let mut m = MetricsRegistry::new();
        m.gauge_max("depth", 4.0);
        m.gauge_max("depth", 2.0);
        assert_eq!(m.gauge("depth"), Some(4.0));
        m.gauge_max("depth", 9.5);
        assert_eq!(m.gauge("depth"), Some(9.5));
    }

    #[test]
    fn merge_matches_serial_recording() {
        let mut serial = MetricsRegistry::new();
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        for i in 0..100u64 {
            let shard = if i % 2 == 0 { &mut a } else { &mut b };
            serial.counter_add("n", 1);
            shard.counter_add("n", 1);
            serial.gauge_max("g", i as f64);
            shard.gauge_max("g", i as f64);
            serial.hist_record("h", SimTime::from_micros(i * 37 + 1));
            shard.hist_record("h", SimTime::from_micros(i * 37 + 1));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, serial);
        assert_eq!(ba, serial); // commutative
    }

    #[test]
    fn canonical_records_skip_nondet_names() {
        let mut m = MetricsRegistry::new();
        m.counter_add("nondet.profile.wall_ns", 7);
        m.counter_add("chip.nodes", 3);
        let (canon, _, _) = m.to_json_records(true);
        assert_eq!(canon.len(), 1);
        assert_eq!(canon[0].get("name"), Some(&Json::Str("chip.nodes".into())));
        let (all, _, _) = m.to_json_records(false);
        assert_eq!(all.len(), 2);
    }
}
