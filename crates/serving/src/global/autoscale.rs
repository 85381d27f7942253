//! Forecast-driven capacity planning for the global serving fleet.
//!
//! The proactive arm of the metastable-failure defense: instead of
//! waiting for queues to grow and the reactive machinery (ladder,
//! budget, breaker) to fire, the planner *predicts* each region's
//! demand from its diurnal shape and sizes per-pod capacity ahead of
//! it. The model is deliberately tiny — the first Fourier harmonic of
//! the empirical arrival rate:
//!
//! ```text
//! rate_r(t) ≈ m_r + a_r·cos(2πt/P) + b_r·sin(2πt/P)
//! ```
//!
//! fitted once per run by direct projection of the trace's arrival
//! instants onto the harmonic basis (no iteration, no RNG — a pure
//! fold over each region's arrivals in order, so the fit is deterministic
//! and byte-identical at any thread count). One harmonic is exactly
//! the shape [`build_regional_trace`](super::build_regional_trace)
//! generates, so the residual the *reactive* defenses must absorb is
//! only what the forecast cannot see: flash crowds and capacity dips.
//!
//! The planner half converts a forecast rate into a device target via
//! Little's law (`erlangs = rate × service_time`), padded by the
//! configured headroom.

use mtia_core::error::ConfigError;
use mtia_core::SimTime;

use super::{AutoscaleConfig, RegionalTrace};

/// Per-region first-harmonic rate model fitted from an arrival trace.
#[derive(Debug, Clone)]
pub struct DiurnalForecast {
    period_s: f64,
    /// `(mean, cos, sin)` coefficients per region, in requests/s.
    coeffs: Vec<(f64, f64, f64)>,
}

impl DiurnalForecast {
    /// Fits the harmonic per region by projecting the empirical rate
    /// (a sum of Dirac arrivals over `[0, horizon]`) onto `{1, cos,
    /// sin}` at the configured period.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] if `horizon` or the period is zero:
    /// the rate is a count over the horizon, and the harmonic's
    /// frequency is one over the period.
    pub fn fit(
        trace: &RegionalTrace,
        regions: u32,
        horizon: SimTime,
        config: &AutoscaleConfig,
    ) -> Result<Self, ConfigError> {
        if horizon == SimTime::ZERO {
            return Err(ConfigError::OutOfRange {
                what: "forecast horizon",
                valid: "> 0",
            });
        }
        if config.period == SimTime::ZERO {
            return Err(ConfigError::OutOfRange {
                what: "diurnal period",
                valid: "> 0",
            });
        }
        let h = horizon.as_secs_f64();
        let period_s = config.period.as_secs_f64();
        let omega = 2.0 * std::f64::consts::PI / period_s;
        let mut sums = vec![(0.0f64, 0.0f64, 0.0f64); regions as usize];
        for column in trace.columns.iter() {
            let s = &mut sums[column.region as usize];
            for at in column.times() {
                let t = at.as_secs_f64();
                s.0 += 1.0;
                s.1 += (omega * t).cos();
                s.2 += (omega * t).sin();
            }
        }
        let coeffs = sums
            .into_iter()
            .map(|(n, c, s)| (n / h, 2.0 * c / h, 2.0 * s / h))
            .collect();
        Ok(DiurnalForecast { period_s, coeffs })
    }

    /// Forecast arrival rate (requests/s) for `region` at `t`, clamped
    /// at zero.
    pub fn rate_at(&self, region: u32, t: SimTime) -> f64 {
        let (m, a, b) = self.coeffs[region as usize];
        let phase = 2.0 * std::f64::consts::PI * t.as_secs_f64() / self.period_s;
        (m + a * phase.cos() + b * phase.sin()).max(0.0)
    }
}

/// Devices one pod must keep active to absorb `rate` requests/s at
/// `service_time` per request with the configured headroom, split
/// evenly over the region's `pods` (Little's law, rounded up).
pub fn target_devices_per_pod(rate: f64, service_time: SimTime, headroom: f64, pods: u32) -> u32 {
    let erlangs = rate * service_time.as_secs_f64() * (1.0 + headroom);
    (erlangs / pods.max(1) as f64).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{build_regional_trace, RegionalTrafficConfig};

    fn fit_config(period: SimTime) -> AutoscaleConfig {
        AutoscaleConfig::production(period)
    }

    #[test]
    fn fit_recovers_the_diurnal_shape() {
        let horizon = SimTime::from_secs(600);
        let mut traffic = RegionalTrafficConfig::production(200.0, horizon);
        traffic.crowds_per_region = 0; // pure sinusoid
        let trace = build_regional_trace(&traffic, 3, horizon, 5);
        let forecast = DiurnalForecast::fit(&trace, 3, horizon, &fit_config(horizon)).unwrap();
        for region in 0..3 {
            let crest = crate::global::diurnal_crest(horizon, region, 3);
            let trough =
                SimTime::from_picos((crest + horizon.scale(0.5)).as_picos() % horizon.as_picos());
            let peak = forecast.rate_at(region, crest);
            let low = forecast.rate_at(region, trough);
            // base 200, amplitude 0.4: true peak 280, trough 120.
            assert!(
                (peak - 280.0).abs() < 30.0,
                "region {region} peak {peak:.1}"
            );
            assert!(
                (low - 120.0).abs() < 30.0,
                "region {region} trough {low:.1}"
            );
        }
    }

    #[test]
    fn fit_is_deterministic() {
        let horizon = SimTime::from_secs(120);
        let traffic = RegionalTrafficConfig::production(50.0, horizon);
        let trace = build_regional_trace(&traffic, 2, horizon, 9);
        let a = DiurnalForecast::fit(&trace, 2, horizon, &fit_config(horizon)).unwrap();
        let b = DiurnalForecast::fit(&trace, 2, horizon, &fit_config(horizon)).unwrap();
        for r in 0..2 {
            for s in [0u64, 30, 60, 90] {
                let t = SimTime::from_secs(s);
                assert_eq!(a.rate_at(r, t).to_bits(), b.rate_at(r, t).to_bits());
            }
        }
    }

    /// The parameter a rejected fit names.
    fn rejected(horizon: SimTime, period: SimTime) -> &'static str {
        let trace = build_regional_trace(
            &RegionalTrafficConfig::production(5.0, SimTime::from_secs(10)),
            1,
            SimTime::from_secs(10),
            3,
        );
        match DiurnalForecast::fit(&trace, 1, horizon, &fit_config(period)) {
            Err(ConfigError::OutOfRange { what, .. }) => what,
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn a_zero_horizon_is_rejected() {
        let period = SimTime::from_secs(60);
        assert_eq!(rejected(SimTime::ZERO, period), "forecast horizon");
    }

    #[test]
    fn a_zero_period_is_rejected() {
        let horizon = SimTime::from_secs(10);
        assert_eq!(rejected(horizon, SimTime::ZERO), "diurnal period");
    }

    #[test]
    fn target_sizing_follows_littles_law() {
        // 100 req/s × 450 ms = 45 erlangs; +25 % headroom = 56.25,
        // over 2 pods = 28.125 → 29 devices each.
        let target = target_devices_per_pod(100.0, SimTime::from_millis(450), 0.25, 2);
        assert_eq!(target, 29);
        assert_eq!(
            target_devices_per_pod(0.0, SimTime::from_millis(450), 0.25, 2),
            0
        );
    }
}
