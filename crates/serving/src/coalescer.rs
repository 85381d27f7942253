//! Event-driven request coalescing.
//!
//! The operational counterpart of the analytic tuner in
//! `mtia-autotune::coalescing`: requests arrive one by one and are gathered
//! into batches that close when the window expires or the target batch
//! fills, across a configurable number of parallel windows.

use mtia_core::telemetry::LatencyHistogram;
use mtia_core::SimTime;

use crate::traffic::ArrivalProcess;

/// Coalescer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescerConfig {
    /// Window duration.
    pub window: SimTime,
    /// Parallel windows.
    pub parallel_windows: u32,
    /// Target batch size (the model snapshot's batch).
    pub target_batch: u64,
}

/// Measured coalescing behaviour.
#[derive(Debug, Clone)]
pub struct CoalescerStats {
    /// Batches emitted.
    pub batches: u64,
    /// Requests batched.
    pub requests: u64,
    /// Mean fill fraction (requests per batch / target).
    pub mean_fill: f64,
    /// Fraction of batches that closed full (vs window expiry).
    pub full_batches: f64,
    /// Per-request wait from arrival to batch close.
    pub wait: LatencyHistogram,
}

/// Runs the coalescer over `arrivals` until `horizon`.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero window, batch, or
/// windows).
pub fn simulate_coalescer(
    config: CoalescerConfig,
    arrivals: &mut dyn ArrivalProcess,
    horizon: SimTime,
) -> CoalescerStats {
    assert!(config.window > SimTime::ZERO, "zero coalescing window");
    assert!(config.target_batch > 0, "zero target batch");
    assert!(config.parallel_windows > 0, "zero parallel windows");

    // Each parallel window gathers independently; arrivals round-robin.
    #[derive(Clone)]
    struct Window {
        opened_at: Option<SimTime>,
        members: Vec<SimTime>,
    }
    let mut windows = vec![
        Window {
            opened_at: None,
            members: Vec::new()
        };
        config.parallel_windows as usize
    ];
    let mut stats = CoalescerStats {
        batches: 0,
        requests: 0,
        mean_fill: 0.0,
        full_batches: 0.0,
        wait: LatencyHistogram::new(),
    };
    let mut fill_sum = 0.0;
    let mut full = 0u64;
    let mut rr = 0usize;
    let mut now = SimTime::ZERO;

    let close = |w: &mut Window,
                 at: SimTime,
                 stats: &mut CoalescerStats,
                 fill_sum: &mut f64,
                 full: &mut u64| {
        if w.members.is_empty() {
            w.opened_at = None;
            return;
        }
        stats.batches += 1;
        stats.requests += w.members.len() as u64;
        *fill_sum += w.members.len() as f64 / config.target_batch as f64;
        if w.members.len() as u64 >= config.target_batch {
            *full += 1;
        }
        for &arrived in &w.members {
            stats.wait.record(at.saturating_sub(arrived));
        }
        w.members.clear();
        w.opened_at = None;
    };

    while let Some(t) = arrivals.next_arrival(now) {
        if t > horizon {
            break;
        }
        now = t;
        // Expire any windows whose deadline passed.
        for w in windows.iter_mut() {
            if let Some(opened) = w.opened_at {
                if opened + config.window <= now {
                    close(
                        w,
                        opened + config.window,
                        &mut stats,
                        &mut fill_sum,
                        &mut full,
                    );
                }
            }
        }
        // Assign to the next window round-robin.
        let n_windows = windows.len();
        let w = &mut windows[rr % n_windows];
        rr += 1;
        if w.opened_at.is_none() {
            w.opened_at = Some(now);
        }
        w.members.push(now);
        if w.members.len() as u64 >= config.target_batch {
            close(w, now, &mut stats, &mut fill_sum, &mut full);
        }
    }
    // Flush.
    for w in windows.iter_mut() {
        let at = w.opened_at.map(|o| o + config.window).unwrap_or(now);
        close(
            w,
            at.min(horizon.max(now)),
            &mut stats,
            &mut fill_sum,
            &mut full,
        );
    }

    if stats.batches > 0 {
        stats.mean_fill = fill_sum / stats.batches as f64;
        stats.full_batches = full as f64 / stats.batches as f64;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::PoissonArrivals;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(rate: f64, window_ms: u64, target: u64) -> CoalescerStats {
        let config = CoalescerConfig {
            window: SimTime::from_millis(window_ms),
            parallel_windows: 1,
            target_batch: target,
        };
        let mut arrivals = PoissonArrivals::new(rate, StdRng::seed_from_u64(11));
        simulate_coalescer(config, &mut arrivals, SimTime::from_secs(30))
    }

    #[test]
    fn high_rate_fills_batches() {
        // 100k req/s × 10 ms window ≫ 512 target → batches close full.
        let stats = run(100_000.0, 10, 512);
        assert!(stats.mean_fill > 0.95, "fill {}", stats.mean_fill);
        assert!(stats.full_batches > 0.95);
        // Full batches close early: waits well under the window.
        assert!(stats.wait.p99() < SimTime::from_millis(10));
    }

    #[test]
    fn low_rate_expires_windows() {
        // 1k req/s × 10 ms = 10 per window ≪ 512.
        let stats = run(1_000.0, 10, 512);
        assert!(stats.mean_fill < 0.1);
        assert!(stats.full_batches < 0.01);
        // Waits are bounded by the window.
        assert!(stats.wait.max() <= SimTime::from_millis(10));
    }

    #[test]
    fn wait_bounded_by_window() {
        for (rate, window) in [(5_000.0, 20u64), (50_000.0, 5)] {
            let stats = run(rate, window, 256);
            assert!(
                stats.wait.max() <= SimTime::from_millis(window),
                "wait {} exceeds window {window} ms",
                stats.wait.max()
            );
        }
    }

    #[test]
    fn matches_analytic_expectation() {
        // Expected batch = rate × window.
        let stats = run(20_000.0, 10, 512);
        let expected = 20_000.0 * 0.010 / 512.0; // ≈ 0.39 fill
        assert!(
            (stats.mean_fill - expected).abs() < 0.08,
            "fill {}",
            stats.mean_fill
        );
    }

    #[test]
    fn parallel_windows_split_traffic() {
        let config = CoalescerConfig {
            window: SimTime::from_millis(10),
            parallel_windows: 4,
            target_batch: 512,
        };
        let mut arrivals = PoissonArrivals::new(20_000.0, StdRng::seed_from_u64(12));
        let stats = simulate_coalescer(config, &mut arrivals, SimTime::from_secs(10));
        // Four windows each see a quarter of the traffic.
        assert!((stats.mean_fill - 20_000.0 * 0.010 / 4.0 / 512.0).abs() < 0.05);
    }
}
