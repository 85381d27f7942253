//! Request-coalescing autotuning (§4.1).
//!
//! "To autotune request coalescing, we run experiments to identify the
//! optimal time window for coalescing requests and the number of windows
//! that can be supported in parallel. We found that a model's throughput at
//! its P99 latency SLO is highly sensitive to these parameters. With
//! effective autotuning, we typically achieve >95 % requests per batch."
//!
//! The model here is analytic, and it is the only coalescing model in the
//! workspace: Poisson arrivals at rate λ are gathered for up to a window
//! `w` across `p` parallel windows; a batch closes early once it reaches
//! the snapshot's batch size. P99 ≈ gather wait + queueing-inflated
//! service time (M/D/1-style), where utilization is offered load over the
//! configuration's sustainable batch throughput.

use mtia_core::units::SimTime;

/// A coalescing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescingConfig {
    /// Gathering window (upper bound on batch-formation time).
    pub window: SimTime,
    /// Parallel windows (concurrent batches being formed).
    pub parallel_windows: u32,
}

/// Predicted behaviour of a configuration at a given arrival rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoalescingPrediction {
    /// Expected batch size per emitted batch.
    pub batch: f64,
    /// Fraction of the target batch actually filled (capped at 1).
    pub fill: f64,
    /// Predicted P99 latency.
    pub p99: SimTime,
    /// Device utilization (ρ = offered load / batch-serving capacity).
    pub utilization: f64,
}

/// Predicts P99 and fill for `config` at `rate_per_s` arrivals/second,
/// where `service` maps a batch size to its device time and `target_batch`
/// is the batch the model snapshot was built for.
///
/// # Panics
///
/// Panics if `rate_per_s` is not positive.
pub fn predict(
    config: CoalescingConfig,
    rate_per_s: f64,
    target_batch: u64,
    service: &impl Fn(u64) -> SimTime,
) -> CoalescingPrediction {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let p = config.parallel_windows.max(1) as f64;
    let per_window_rate = rate_per_s / p;
    let window_s = config.window.as_secs_f64().max(1e-9);

    // A batch closes at the window deadline or when it fills, whichever
    // comes first.
    let batch = (per_window_rate * window_s)
        .min(target_batch as f64)
        .max(1.0);
    // Gather time: fill time, bounded by the window deadline (the window
    // closes even if the minimum one-request batch took longer to appear).
    let gather_s = (batch / per_window_rate).min(window_s);
    let fill = batch / target_batch as f64;
    let executed = (batch.round() as u64).clamp(1, target_batch);
    let s = service(executed).as_secs_f64();

    // Sustainable request throughput of the p pipelines at this batch size.
    let capacity = batch * p / s;
    let rho = rate_per_s / capacity;
    let queue_inflation = if rho < 1.0 {
        1.0 + rho * rho / (1.0 - rho)
    } else {
        f64::INFINITY
    };
    let p99_s = gather_s + s * queue_inflation;
    CoalescingPrediction {
        batch,
        fill,
        p99: if p99_s.is_finite() {
            SimTime::from_secs_f64(p99_s)
        } else {
            SimTime::MAX
        },
        utilization: rho.min(1.0),
    }
}

/// Result of the coalescing sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoalescingChoice {
    /// The chosen configuration.
    pub config: CoalescingConfig,
    /// Its prediction at the tuned rate.
    pub prediction: CoalescingPrediction,
    /// The maximum sustainable arrival rate (requests/s) under the SLO.
    pub max_rate_per_s: f64,
}

/// Bisects the maximum rate meeting `slo` for one configuration.
pub fn max_rate(
    config: CoalescingConfig,
    target_batch: u64,
    slo: SimTime,
    service: &impl Fn(u64) -> SimTime,
) -> Option<f64> {
    if predict(config, 1.0, target_batch, service).p99 > slo {
        return None; // even trickle traffic misses the SLO
    }
    let (mut lo, mut hi) = (1.0f64, 1e12f64);
    for _ in 0..80 {
        let mid = (lo * hi).sqrt();
        if predict(config, mid, target_batch, service).p99 <= slo {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Sweeps windows × parallel-window counts, returning the configuration
/// that sustains the highest arrival rate with P99 ≤ `slo`.
///
/// # Panics
///
/// Panics if no configuration meets the SLO at any rate.
pub fn tune_coalescing(
    target_batch: u64,
    slo: SimTime,
    service: &impl Fn(u64) -> SimTime,
) -> CoalescingChoice {
    let windows = [1u64, 2, 5, 10, 20, 50, 100]
        .into_iter()
        .map(SimTime::from_millis);
    let mut candidates: Vec<CoalescingChoice> = Vec::new();
    for window in windows {
        for parallel_windows in [1u32, 2, 4] {
            let config = CoalescingConfig {
                window,
                parallel_windows,
            };
            let Some(rate) = max_rate(config, target_batch, slo, service) else {
                continue;
            };
            let prediction = predict(config, rate, target_batch, service);
            candidates.push(CoalescingChoice {
                config,
                prediction,
                max_rate_per_s: rate,
            });
        }
    }
    let best_rate = candidates
        .iter()
        .map(|c| c.max_rate_per_s)
        .fold(0.0, f64::max);
    // Among near-tied rates, prefer the fullest batches (the paper's
    // ">95% requests per batch" operating points).
    candidates
        .into_iter()
        .filter(|c| c.max_rate_per_s >= best_rate * 0.98)
        .max_by(|a, b| {
            a.prediction
                .fill
                .partial_cmp(&b.prediction.fill)
                .expect("finite fills")
        })
        .expect("at least one configuration must be feasible")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ranking-model service profile: 2 ms fixed + 20 µs per sample
    /// (s(512) ≈ 12.2 ms against the 100 ms SLO).
    fn service(batch: u64) -> SimTime {
        SimTime::from_micros(2000) + SimTime::from_micros(20) * batch
    }

    #[test]
    fn prediction_scales_with_rate() {
        let config = CoalescingConfig {
            window: SimTime::from_millis(10),
            parallel_windows: 1,
        };
        let slow = predict(config, 1_000.0, 512, &service);
        let fast = predict(config, 40_000.0, 512, &service);
        assert!(fast.batch > slow.batch);
        assert!(fast.fill > slow.fill);
        assert!((slow.batch - 10.0).abs() < 1e-9); // 1k/s × 10 ms
    }

    #[test]
    fn full_batches_close_early() {
        // 512 requests arrive in ~17 ms at 30k/s: the 50 ms window never
        // expires; gather time is the fill time (~17 ms), and P99 stays
        // well below window + inflated service.
        let config = CoalescingConfig {
            window: SimTime::from_millis(50),
            parallel_windows: 1,
        };
        let p = predict(config, 30_000.0, 512, &service);
        assert!((p.batch - 512.0).abs() < 1e-9);
        assert_eq!(p.fill, 1.0);
        assert!(p.p99 < SimTime::from_millis(60), "p99 {}", p.p99);
        assert!(p.utilization < 0.8);
    }

    #[test]
    fn overload_predicts_unbounded_p99() {
        // Capacity at batch 512 is 512/12.24 ms ≈ 41.8k/s; offer 2×.
        let config = CoalescingConfig {
            window: SimTime::from_millis(10),
            parallel_windows: 1,
        };
        let p = predict(config, 84_000.0, 512, &service);
        assert_eq!(p.p99, SimTime::MAX);
        assert_eq!(p.utilization, 1.0);
    }

    #[test]
    fn tuner_achieves_95_percent_fill() {
        // §4.1: ">95% requests per batch" at the tuned operating point.
        let choice = tune_coalescing(512, SimTime::from_millis(100), &service);
        assert!(
            choice.prediction.fill > 0.95,
            "fill {:.3} at window {}",
            choice.prediction.fill,
            choice.config.window
        );
        assert!(choice.prediction.p99 <= SimTime::from_millis(100));
        assert!(choice.max_rate_per_s > 0.0);
    }

    #[test]
    fn tight_slo_sustains_less_traffic() {
        let tight = tune_coalescing(512, SimTime::from_millis(25), &service);
        let loose = tune_coalescing(512, SimTime::from_millis(200), &service);
        assert!(loose.max_rate_per_s >= tight.max_rate_per_s);
    }

    #[test]
    fn throughput_is_sensitive_to_window() {
        // The §4.1 observation: P99-constrained throughput swings sharply
        // with the window choice. Tiny windows emit half-empty batches
        // whose fixed service cost caps capacity.
        let slo = SimTime::from_millis(100);
        let rate_at = |w_ms: u64| {
            max_rate(
                CoalescingConfig {
                    window: SimTime::from_millis(w_ms),
                    parallel_windows: 1,
                },
                512,
                slo,
                &service,
            )
            .unwrap_or(0.0)
        };
        let r1 = rate_at(1);
        let r20 = rate_at(20);
        assert!(
            r20 > 1.5 * r1,
            "window sensitivity too low: 1 ms → {r1:.0}/s, 20 ms → {r20:.0}/s"
        );
    }

    #[test]
    fn parallel_windows_help_small_windows() {
        // With a small window, more parallel windows raise fill-limited
        // capacity... but split the per-window arrival rate; the tuner must
        // weigh both.
        let slo = SimTime::from_millis(100);
        let choice = tune_coalescing(512, slo, &service);
        // Whatever the winner, it must beat the worst single configuration.
        let worst = max_rate(
            CoalescingConfig {
                window: SimTime::from_millis(1),
                parallel_windows: 1,
            },
            512,
            slo,
            &service,
        )
        .unwrap_or(0.0);
        assert!(choice.max_rate_per_s >= worst);
    }
}
