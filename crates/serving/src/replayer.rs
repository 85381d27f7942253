//! Offline traffic replay (§4.1, §5.2, §6).
//!
//! The paper validates batch-size snapshots with "traffic-replay tests" and
//! measures overclocking gains "in offline replayer tests": a recorded
//! arrival trace is driven through a candidate deployment and throughput /
//! P99 are compared across configurations on identical traffic. This
//! module replays a trace through the coalescer + a single-queue device
//! model and reports the §5.4-relevant contrast between replay (steady
//! peak) and production (diurnal) conditions.

use mtia_core::telemetry::LatencyHistogram;
use mtia_core::SimTime;

use crate::coalescer::{simulate_coalescer, CoalescerConfig};
use crate::traffic::{ArrivalProcess, ReplayTrace};

/// A deployment candidate under replay: batch formation plus a batch
/// service-time model.
#[derive(Debug, Clone, Copy)]
pub struct ReplayDeployment {
    /// Coalescer configuration.
    pub coalescer: CoalescerConfig,
    /// Devices serving batches.
    pub devices: u32,
    /// Fixed per-batch service cost (launch + host staging).
    pub fixed_service: SimTime,
    /// Per-sample service cost.
    pub per_sample_service: SimTime,
}

impl ReplayDeployment {
    /// Service time for a batch of `n` samples.
    pub fn service(&self, n: u64) -> SimTime {
        self.fixed_service + self.per_sample_service * n
    }
}

/// Replay results.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Requests completed.
    pub completed: u64,
    /// Sustained requests/second over the replay.
    pub throughput_per_s: f64,
    /// End-to-end request latency (arrival → batch completion).
    pub latency: LatencyHistogram,
    /// Mean batch fill.
    pub mean_fill: f64,
    /// Device utilization.
    pub utilization: f64,
}

/// Replays `trace` through `deployment`.
pub fn replay(deployment: ReplayDeployment, trace: &ReplayTrace) -> ReplayReport {
    // Phase 1: batch formation via the event-driven coalescer over a copy
    // of the trace; we then serve the batch stream FIFO on the devices.
    let mut formation = trace.clone();
    let horizon = SimTime::MAX;
    let stats = simulate_coalescer(deployment.coalescer, &mut formation, horizon);

    // Phase 2: serve batches in order. We reconstruct batch close times by
    // replaying again and tracking closes; the coalescer's wait histogram
    // already carries the formation delay, so here we process one batch
    // stream with mean size = fill × target.
    let mut events = trace.clone();
    let mut batch: Vec<SimTime> = Vec::new();
    let target = deployment.coalescer.target_batch;
    let window = deployment.coalescer.window;
    let mut device_free = vec![SimTime::ZERO; deployment.devices.max(1) as usize];
    let mut latency = LatencyHistogram::new();
    let mut completed = 0u64;
    let mut busy = SimTime::ZERO;
    let mut now = SimTime::ZERO;
    let mut first_arrival: Option<SimTime> = None;
    let mut window_open: Option<SimTime> = None;

    let flush = |members: &mut Vec<SimTime>,
                 close_at: SimTime,
                 device_free: &mut Vec<SimTime>,
                 latency: &mut LatencyHistogram,
                 completed: &mut u64,
                 busy: &mut SimTime| {
        if members.is_empty() {
            return;
        }
        let service = deployment.service(members.len() as u64);
        // Earliest-free device.
        let (idx, &free_at) = device_free
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("at least one device");
        let start = close_at.max(free_at);
        let done = start + service;
        device_free[idx] = done;
        *busy += service;
        for &arrived in members.iter() {
            latency.record(done.saturating_sub(arrived));
        }
        *completed += members.len() as u64;
        members.clear();
    };

    while let Some(t) = events.next_arrival(now) {
        now = t;
        first_arrival.get_or_insert(t);
        if let Some(open) = window_open {
            if open + window <= now {
                flush(
                    &mut batch,
                    open + window,
                    &mut device_free,
                    &mut latency,
                    &mut completed,
                    &mut busy,
                );
                window_open = None;
            }
        }
        if window_open.is_none() {
            window_open = Some(now);
        }
        batch.push(now);
        if batch.len() as u64 >= target {
            flush(
                &mut batch,
                now,
                &mut device_free,
                &mut latency,
                &mut completed,
                &mut busy,
            );
            window_open = None;
        }
    }
    let close = window_open.map(|o| o + window).unwrap_or(now);
    flush(
        &mut batch,
        close,
        &mut device_free,
        &mut latency,
        &mut completed,
        &mut busy,
    );

    let end = device_free.iter().copied().max().unwrap_or(now);
    let span = end.saturating_sub(first_arrival.unwrap_or(SimTime::ZERO));
    ReplayReport {
        completed,
        throughput_per_s: if span > SimTime::ZERO {
            completed as f64 / span.as_secs_f64()
        } else {
            0.0
        },
        latency,
        mean_fill: stats.mean_fill,
        utilization: if span > SimTime::ZERO {
            (busy.as_secs_f64() / (deployment.devices as f64 * span.as_secs_f64())).min(1.0)
        } else {
            0.0
        },
    }
}

/// The §5.2 replay comparison: the same trace against two service speeds
/// (e.g. 1.1 vs 1.35 GHz). Returns the throughput gain of the faster one.
pub fn overclock_gain_on_trace(base: ReplayDeployment, speedup: f64, trace: &ReplayTrace) -> f64 {
    assert!(speedup >= 1.0, "speedup must be ≥ 1");
    let fast = ReplayDeployment {
        fixed_service: base.fixed_service.scale(1.0 / speedup),
        per_sample_service: base.per_sample_service.scale(1.0 / speedup),
        ..base
    };
    let slow_p99 = replay(base, trace).latency.p99();
    let fast_p99 = replay(fast, trace).latency.p99();
    slow_p99.as_secs_f64() / fast_p99.as_secs_f64() - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::PoissonArrivals;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn deployment() -> ReplayDeployment {
        ReplayDeployment {
            coalescer: CoalescerConfig {
                window: SimTime::from_millis(10),
                parallel_windows: 1,
                target_batch: 256,
            },
            devices: 2,
            fixed_service: SimTime::from_millis(2),
            per_sample_service: SimTime::from_micros(20),
        }
    }

    fn trace(rate: f64, n: usize, seed: u64) -> ReplayTrace {
        let mut p = PoissonArrivals::new(rate, StdRng::seed_from_u64(seed));
        ReplayTrace::record(&mut p, n)
    }

    #[test]
    fn replay_completes_every_request() {
        let t = trace(20_000.0, 20_000, 1);
        let report = replay(deployment(), &t);
        assert_eq!(report.completed, 20_000);
        assert!(report.throughput_per_s > 0.0);
        assert!(report.latency.p99() > SimTime::ZERO);
    }

    #[test]
    fn replay_is_deterministic_for_a_fixed_trace() {
        let t = trace(10_000.0, 5_000, 2);
        let a = replay(deployment(), &t);
        let b = replay(deployment(), &t);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency.p99(), b.latency.p99());
    }

    #[test]
    fn higher_offered_load_fills_batches() {
        let low = replay(deployment(), &trace(3_000.0, 5_000, 3));
        let high = replay(deployment(), &trace(40_000.0, 20_000, 3));
        assert!(high.mean_fill > low.mean_fill);
        assert!(high.utilization > low.utilization);
    }

    #[test]
    fn overclock_gain_is_visible_under_load() {
        // §5.2: 5–20 % end-to-end gains in offline replayer tests. Near
        // saturation, a 23 % service speedup shows up in P99.
        let t = trace(34_000.0, 30_000, 4);
        let gain = overclock_gain_on_trace(deployment(), 1.23, &t);
        assert!(gain > 0.05, "replay overclock gain {gain:.3}");
    }

    #[test]
    fn light_load_sees_little_overclock_benefit() {
        // At low utilization the window dominates latency: frequency gains
        // barely register — the §5.4 point that replay-at-peak and
        // production-at-valley measure different things.
        let t = trace(1_000.0, 3_000, 5);
        let gain = overclock_gain_on_trace(deployment(), 1.23, &t);
        assert!(gain < 0.35, "light-load gain {gain:.3}");
    }
}
