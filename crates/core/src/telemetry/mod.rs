//! Deterministic observability: sim-time tracing + mergeable metrics.
//!
//! The paper's productionization loop (§5–§6) depends on being able to
//! *see* the system — per-request latency breakdowns, device-health
//! transitions, rollout progress. This module is that substrate for
//! the reproduction, built around one rule:
//!
//! > **Determinism contract.** Telemetry never reads the wall clock.
//! > Every timestamp is a [`SimTime`] supplied by the instrumented
//! > simulation, every container iterates in a fixed order, and every
//! > exporter is a pure function of the recorded data. Two runs of the
//! > same `(config, seed)` therefore produce byte-identical traces —
//! > which turns observability into a regression oracle (the
//! > golden-trace harness in `tests/golden_traces.rs`).
//!
//! The one escape hatch: metric names prefixed `nondet.` (see
//! [`NONDET_PREFIX`]) may carry scheduling-dependent values such as
//! wall-clock timings. They appear in human-facing
//! exports but are excluded from [`Telemetry::to_canonical_json`], the
//! representation golden tests compare.
//!
//! # Shape
//!
//! - [`MetricsRegistry`] — counters / gauges / [`LatencyHistogram`]s
//!   with an associative, commutative [`MetricsRegistry::merge`] so
//!   per-shard registries from [`crate::pool`] fan-ins combine exactly.
//! - [`Tracer`] — hierarchical spans (stack API) plus flat completed
//!   spans and instant events, all on the simulated clock.
//! - [`Telemetry`] — the handle instrumented code takes. Created
//!   [`Telemetry::disabled`], every call is a cheap no-op, so hot
//!   paths stay untraced by default; [`Telemetry::new_enabled`] turns
//!   recording on.
//! - Exporters: [`Telemetry::to_canonical_json`] (line-oriented, for
//!   golden diffs) and [`Telemetry::to_chrome_json`]
//!   (`chrome://tracing` / Perfetto).

pub mod chrome;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod trace;

pub use hist::LatencyHistogram;
pub use json::Json;
pub use metrics::{MetricsRegistry, NONDET_PREFIX};
pub use trace::{InstantEvent, Span, Tracer};

use crate::units::SimTime;

/// The observability handle instrumented simulations accept.
///
/// Disabled handles make every recording call a no-op (one branch), so
/// `run(...)` and `run_traced(...)` can share one code path without
/// measurable overhead in the untraced case.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    enabled: bool,
    /// Recorded spans and instant events.
    pub tracer: Tracer,
    /// Recorded counters, gauges, and histograms.
    pub metrics: MetricsRegistry,
}

impl Telemetry {
    /// A recording handle.
    pub fn new_enabled() -> Self {
        Telemetry {
            enabled: true,
            ..Default::default()
        }
    }

    /// A no-op handle: all recording calls return immediately.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span (no-op when disabled). See [`Tracer::begin`].
    pub fn begin_span(&mut self, name: impl Into<String>, cat: impl Into<String>, start: SimTime) {
        if self.enabled {
            self.tracer.begin(name, cat, start);
        }
    }

    /// Closes the innermost span (no-op when disabled).
    ///
    /// # Panics
    ///
    /// Panics if enabled and no span is open.
    pub fn end_span(&mut self, end: SimTime) {
        if self.enabled {
            self.tracer.end(end);
        }
    }

    /// Attributes the innermost open span (no-op when disabled).
    ///
    /// # Panics
    ///
    /// Panics if enabled and no span is open.
    pub fn span_attr(&mut self, key: impl Into<String>, value: Json) {
        if self.enabled {
            self.tracer.attr(key, value);
        }
    }

    /// Attaches a finished span built with [`Span::complete`] (no-op
    /// when disabled).
    pub fn complete_span(
        &mut self,
        name: impl Into<String>,
        cat: impl Into<String>,
        start: SimTime,
        end: SimTime,
        attrs: Vec<(String, Json)>,
    ) {
        if self.enabled {
            self.tracer
                .complete(Span::complete(name, cat, start, end, attrs));
        }
    }

    /// Records an instant event (no-op when disabled).
    pub fn instant(
        &mut self,
        name: impl Into<String>,
        cat: impl Into<String>,
        ts: SimTime,
        attrs: Vec<(String, Json)>,
    ) {
        if self.enabled {
            self.tracer.instant(name, cat, ts, attrs);
        }
    }

    /// Adds to a counter (no-op when disabled).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if self.enabled {
            self.metrics.counter_add(name, delta);
        }
    }

    /// Raises a high-water-mark gauge (no-op when disabled).
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.metrics.gauge_max(name, value);
        }
    }

    /// Records a histogram sample (no-op when disabled).
    pub fn hist_record(&mut self, name: &str, sample: SimTime) {
        if self.enabled {
            self.metrics.hist_record(name, sample);
        }
    }

    /// Folds a shard's capture into this one: spans/events append,
    /// metrics merge exactly. A disabled `other` contributes nothing.
    pub fn merge(&mut self, other: Telemetry) {
        self.tracer.merge(other.tracer);
        self.metrics.merge(&other.metrics);
    }

    /// Renders the canonical, golden-diffable representation.
    ///
    /// Line-oriented valid JSON: one record per line (spans flattened
    /// to `path` strings, then instant events, then name-ordered
    /// metrics), so a plain line diff localizes drift to a span path.
    /// `nondet.`-prefixed metrics are excluded — they are real but not
    /// schedule-independent, and must not fail golden comparisons.
    pub fn to_canonical_json(&self) -> String {
        let mut spans = Vec::new();
        for (path, span) in self.tracer.flatten() {
            spans.push(Json::obj(vec![
                ("path".into(), Json::Str(path)),
                ("cat".into(), Json::Str(span.cat.clone())),
                ("start_ps".into(), Json::UInt(span.start.as_picos())),
                ("end_ps".into(), Json::UInt(span.end.as_picos())),
                ("attrs".into(), Json::Obj(span.attrs.clone())),
            ]));
        }
        let events: Vec<Json> = self
            .tracer
            .events()
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("name".into(), Json::Str(e.name.clone())),
                    ("cat".into(), Json::Str(e.cat.clone())),
                    ("ts_ps".into(), Json::UInt(e.ts.as_picos())),
                    ("attrs".into(), Json::Obj(e.attrs.clone())),
                ])
            })
            .collect();
        let (counters, gauges, hists) = self.metrics.to_json_records(true);

        fn section(out: &mut String, name: &str, records: Vec<Json>, last: bool) {
            out.push('"');
            out.push_str(name);
            out.push_str("\":[");
            if !records.is_empty() {
                out.push('\n');
                let lines: Vec<String> = records.iter().map(Json::render).collect();
                out.push_str(&lines.join(",\n"));
                out.push('\n');
            }
            out.push(']');
            if !last {
                out.push(',');
            }
            out.push('\n');
        }

        let mut out = String::from("{\"version\":1,\n");
        section(&mut out, "spans", spans, false);
        section(&mut out, "events", events, false);
        section(&mut out, "counters", counters, false);
        section(&mut out, "gauges", gauges, false);
        section(&mut out, "histograms", hists, true);
        out.push_str("}\n");
        out
    }

    /// Renders a Chrome `trace_event` document for `chrome://tracing`
    /// or Perfetto. Includes `nondet.` metrics (human-facing export).
    pub fn to_chrome_json(&self) -> String {
        chrome::chrome_document(self).render()
    }
}

/// Compares two canonical traces line-by-line; `None` when identical.
///
/// On mismatch, returns a readable report naming the line number, the
/// nearest span path (the `"path"`/`"name"` on or before the differing
/// line), and the expected/actual lines — what the golden-trace
/// harness prints when behavior drifts.
pub fn diff_canonical(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let exp_lines: Vec<&str> = expected.lines().collect();
    let act_lines: Vec<&str> = actual.lines().collect();
    let mut i = 0;
    while i < exp_lines.len() && i < act_lines.len() && exp_lines[i] == act_lines[i] {
        i += 1;
    }

    fn context_path(lines: &[&str], upto: usize) -> Option<String> {
        for line in lines[..=upto.min(lines.len().saturating_sub(1))]
            .iter()
            .rev()
        {
            for key in ["\"path\":\"", "\"name\":\""] {
                if let Some(start) = line.find(key) {
                    let rest = &line[start + key.len()..];
                    if let Some(end) = rest.find('"') {
                        return Some(rest[..end].to_string());
                    }
                }
            }
        }
        None
    }

    let path = context_path(&exp_lines, i)
        .or_else(|| context_path(&act_lines, i))
        .unwrap_or_else(|| "<document>".to_string());
    let mut report = format!("trace diverges at line {} (near span `{}`)\n", i + 1, path);
    let window = 3usize;
    for j in i..(i + window) {
        match (exp_lines.get(j), act_lines.get(j)) {
            (Some(e), Some(a)) if e == a => break,
            (e, a) => {
                report.push_str(&format!(
                    "- expected: {}\n+ actual:   {}\n",
                    e.copied().unwrap_or("<end of trace>"),
                    a.copied().unwrap_or("<end of trace>")
                ));
            }
        }
    }
    if exp_lines.len() != act_lines.len() {
        report.push_str(&format!(
            "(expected {} lines, got {})\n",
            exp_lines.len(),
            act_lines.len()
        ));
    }
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn sample() -> Telemetry {
        let mut tel = Telemetry::new_enabled();
        tel.begin_span("run", "sim", t(0));
        tel.span_attr("nodes", Json::UInt(1));
        tel.begin_span("gemm0", "sim", t(0));
        tel.end_span(t(4));
        tel.end_span(t(5));
        tel.instant("halt", "fleet", t(3), vec![("stage".into(), Json::UInt(1))]);
        tel.counter_add("chip.nodes", 1);
        tel.counter_add("nondet.profile.wall_ns", 9);
        tel.gauge_max("queue.depth", 4.0);
        tel.hist_record("req.latency", t(1000));
        tel
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let mut tel = Telemetry::disabled();
        tel.begin_span("x", "y", t(0));
        tel.end_span(t(1)); // no panic: no-op
        tel.counter_add("c", 5);
        tel.hist_record("h", t(9));
        assert!(tel.tracer.is_empty());
        assert!(tel.metrics.is_empty());
        assert!(!tel.is_enabled());
    }

    #[test]
    fn canonical_export_is_deterministic_and_line_oriented() {
        let a = sample().to_canonical_json();
        let b = sample().to_canonical_json();
        assert_eq!(a, b);
        assert!(a.contains("\"path\":\"run/gemm0\""));
        // nondet metrics are excluded from the canonical form...
        assert!(!a.contains("nondet.profile.wall_ns"));
        // ...but present in the chrome export.
        assert!(sample().to_chrome_json().contains("nondet.profile.wall_ns"));
        // The document is valid JSON despite being line-oriented.
        json::parse(&a).expect("canonical trace parses");
    }

    #[test]
    fn diff_reports_span_path_context() {
        let golden = sample().to_canonical_json();
        let mut drifted = sample();
        drifted.tracer = {
            let mut tr = Tracer::new();
            tr.begin("run", "sim", t(0));
            tr.attr("nodes", Json::UInt(1));
            tr.begin("gemm0", "sim", t(0));
            tr.end(t(6)); // perturbed duration
            tr.end(t(7));
            tr
        };
        drifted.instant("halt", "fleet", t(3), vec![("stage".into(), Json::UInt(1))]);
        let report = diff_canonical(&golden, &drifted.to_canonical_json()).expect("drift detected");
        assert!(report.contains("run/gemm0"), "{report}");
        assert!(report.contains("- expected"), "{report}");
        assert!(diff_canonical(&golden, &golden).is_none());
    }

    #[test]
    fn merge_combines_shards() {
        let mut a = sample();
        let b = sample();
        a.merge(b);
        assert_eq!(a.metrics.counter("chip.nodes"), 2);
        assert_eq!(a.tracer.roots().len(), 2);
        assert_eq!(a.tracer.events().len(), 2);
    }
}
