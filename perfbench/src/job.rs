//! One job: a workload run once, from building its inputs to its checked
//! result, with the context it reports through.
//!
//! A job reports four kinds of facts through its [`Ctx`]:
//! - **layer spans** ([`Ctx::span`]): host time around a call into one
//!   layer's public API. Only a traced job records them. A layer's self
//!   time is its span minus the spans nested inside it, so the self times
//!   of one job add up to the job's wall time, less the glue between
//!   calls;
//! - **host timings** ([`Ctx::timed`]): wall time of one named call,
//!   recorded in every job because an end-to-end or shard metric needs it;
//! - **counts** ([`Ctx::count`]): deterministic work counts (requests,
//!   evaluations), reported as per-layer metrics;
//! - **checks and the digest** ([`Ctx::check`], [`Ctx::fold`]): output
//!   checks that feed `failed_check_share`, and a hash of the simulated
//!   statistics that must not change with threads, tracing or repetition.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::Mutex;
use std::time::Instant;

use mtia_core::perfcount;

/// What one layer spent outside its child layers, summed over its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Host seconds of self time.
    pub self_s: f64,
    /// `core::perfcount` events flushed during self time.
    pub events: u64,
}

impl LayerTotals {
    fn add(&mut self, other: &LayerTotals) {
        self.self_s += other.self_s;
        self.events += other.events;
    }
}

/// Adds every layer of `from` into `into`.
pub fn merge_layers(
    into: &mut BTreeMap<&'static str, LayerTotals>,
    from: &BTreeMap<&'static str, LayerTotals>,
) {
    for (layer, totals) in from {
        into.entry(layer).or_default().add(totals);
    }
}

struct Frame {
    layer: &'static str,
    start: Instant,
    events_at_start: u64,
    child_s: f64,
    child_events: u64,
}

/// FNV-1a offset basis: the digest of an empty job.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct State {
    stack: Vec<Frame>,
    layers: BTreeMap<&'static str, LayerTotals>,
    host: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
    attempted: u64,
    failures: Vec<String>,
    digest: u64,
    setup_s: Option<f64>,
}

/// The reporting context of one job. Methods take `&self` so that calls
/// made inside a library's worker closures (the co-design objective) can
/// report too.
pub struct Ctx {
    traced: bool,
    start: Instant,
    state: Mutex<State>,
}

/// Everything one job reported, plus its measured wall and CPU time.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job wall time: inputs built, simulated and checked.
    pub wall_s: f64,
    /// The input-building part of `wall_s`.
    pub setup_s: f64,
    /// Process user+sys CPU seconds over the job.
    pub cpu_s: f64,
    /// Layer self times (empty unless traced).
    pub layers: BTreeMap<&'static str, LayerTotals>,
    /// Host timings of named calls.
    pub host: BTreeMap<&'static str, f64>,
    /// Deterministic work counts.
    pub counts: BTreeMap<&'static str, f64>,
    /// Output checks attempted.
    pub attempted: u64,
    /// The checks that failed, by name.
    pub failures: Vec<String>,
    /// Hash of the simulated statistics.
    pub digest: u64,
}

impl Ctx {
    /// A context for a job starting now. A traced job must run on one
    /// pool thread: its spans form one stack.
    pub fn new(traced: bool) -> Self {
        Ctx {
            traced,
            start: Instant::now(),
            state: Mutex::new(State {
                stack: Vec::new(),
                layers: BTreeMap::new(),
                host: BTreeMap::new(),
                counts: BTreeMap::new(),
                attempted: 0,
                failures: Vec::new(),
                digest: FNV_OFFSET,
                setup_s: None,
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a job's context is only poisoned by a panicking job")
    }

    /// Runs `f` as a span of `layer` (recorded only in a traced job).
    pub fn span<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        self.state().stack.push(Frame {
            layer,
            start: Instant::now(),
            events_at_start: perfcount::events(),
            child_s: 0.0,
            child_events: 0,
        });
        let out = f();
        let end = Instant::now();
        let events_now = perfcount::events();
        let mut st = self.state();
        let frame = st
            .stack
            .pop()
            .expect("span frames are pushed and popped in pairs");
        debug_assert_eq!(frame.layer, layer, "spans must nest");
        let span_s = (end - frame.start).as_secs_f64();
        let span_events = events_now - frame.events_at_start;
        let totals = st.layers.entry(layer).or_default();
        totals.self_s += span_s - frame.child_s;
        totals.events += span_events - frame.child_events;
        if let Some(parent) = st.stack.last_mut() {
            parent.child_s += span_s;
            parent.child_events += span_events;
        }
        out
    }

    /// Runs `f` and adds its wall time to the host timing `name`.
    pub fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        *self.state().host.entry(name).or_insert(0.0) += secs;
        out
    }

    /// Adds `value` to the count `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        *self.state().counts.entry(name).or_insert(0.0) += value;
    }

    /// Records one output check.
    pub fn check(&self, name: &str, ok: bool) {
        let mut st = self.state();
        st.attempted += 1;
        if !ok {
            st.failures.push(name.to_string());
        }
    }

    /// Folds one simulated statistic into the digest. Floats print in
    /// shortest round-trip form, so any change to a value shows.
    pub fn fold(&self, key: &str, value: impl Display) {
        let text = format!("{key}={value};");
        let mut st = self.state();
        for b in text.bytes() {
            st.digest = (st.digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Marks the end of input building: everything before this call is
    /// the job's set-up time.
    pub fn end_setup(&self) {
        let elapsed = self.start.elapsed().as_secs_f64();
        self.state().setup_s.get_or_insert(elapsed);
    }

    /// Closes the job, given its measured wall and CPU time.
    pub fn finish(self, wall_s: f64, cpu_s: f64) -> JobOutcome {
        let st = self
            .state
            .into_inner()
            .expect("a job's context is only poisoned by a panicking job");
        JobOutcome {
            wall_s,
            setup_s: st.setup_s.unwrap_or(wall_s),
            cpu_s,
            layers: st.layers,
            host: st.host,
            counts: st.counts,
            attempted: st.attempted,
            failures: st.failures,
            digest: st.digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        let ctx = Ctx::new(true);
        ctx.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            ctx.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let out = ctx.finish(0.0, 0.0);
        let outer = out.layers["outer"].self_s;
        let inner = out.layers["inner"].self_s;
        assert!(inner >= 0.02, "inner {inner}");
        assert!((0.005..0.02).contains(&outer), "outer {outer}");
    }

    #[test]
    fn untraced_jobs_record_no_spans_but_keep_checks() {
        let ctx = Ctx::new(false);
        ctx.span("layer", || ());
        ctx.check("ok", true);
        ctx.check("bad", false);
        let out = ctx.finish(1.0, 0.5);
        assert!(out.layers.is_empty());
        assert_eq!(out.attempted, 2);
        assert_eq!(out.failures, vec!["bad".to_string()]);
        assert_eq!(out.setup_s, 1.0, "no end_setup: all of the job is set-up");
    }

    #[test]
    fn digest_depends_on_every_folded_value() {
        let digest = |v: f64| {
            let ctx = Ctx::new(false);
            ctx.fold("x", v);
            ctx.finish(0.0, 0.0).digest
        };
        assert_eq!(digest(0.1), digest(0.1));
        assert_ne!(digest(0.1), digest(0.1 + f64::EPSILON));
    }
}
