//! Request-arrival processes.
//!
//! Production traffic is Poisson at short horizons with a strong diurnal
//! envelope at long horizons; §5.3/§5.4 lean on that variability (peak
//! buffers, P90 budgeting).

use mtia_core::SimTime;
use rand::Rng;

/// A source of request arrival times.
pub trait ArrivalProcess {
    /// Returns the next arrival strictly after `now`, or `None` when the
    /// trace is exhausted.
    fn next_arrival(&mut self, now: SimTime) -> Option<SimTime>;
}

/// Poisson arrivals at a constant rate.
#[derive(Debug, Clone)]
pub struct PoissonArrivals<R: Rng> {
    rate_per_s: f64,
    rng: R,
}

impl<R: Rng> PoissonArrivals<R> {
    /// Creates a Poisson process.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_s` is not positive.
    pub fn new(rate_per_s: f64, rng: R) -> Self {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        PoissonArrivals { rate_per_s, rng }
    }
}

impl<R: Rng> ArrivalProcess for PoissonArrivals<R> {
    fn next_arrival(&mut self, now: SimTime) -> Option<SimTime> {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap = -u.ln() / self.rate_per_s;
        Some(now + SimTime::from_secs_f64(gap))
    }
}

/// Poisson arrivals whose rate follows a sinusoidal diurnal envelope:
/// `rate(t) = base × (1 + amplitude · sin(2πt/period))`.
#[derive(Debug, Clone)]
pub struct DiurnalArrivals<R: Rng> {
    base_rate_per_s: f64,
    amplitude: f64,
    period: SimTime,
    rng: R,
}

impl<R: Rng> DiurnalArrivals<R> {
    /// Creates a diurnal process.
    ///
    /// # Panics
    ///
    /// Panics if the base rate is not positive or `amplitude` is outside
    /// `[0, 1)`.
    pub fn new(base_rate_per_s: f64, amplitude: f64, period: SimTime, rng: R) -> Self {
        assert!(base_rate_per_s > 0.0, "arrival rate must be positive");
        assert!(
            (0.0..1.0).contains(&amplitude),
            "amplitude must be in [0, 1)"
        );
        DiurnalArrivals {
            base_rate_per_s,
            amplitude,
            period,
            rng,
        }
    }

    /// Instantaneous rate at `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t.as_secs_f64() / self.period.as_secs_f64();
        self.base_rate_per_s * (1.0 + self.amplitude * phase.sin())
    }

    /// Peak instantaneous rate.
    pub fn peak_rate(&self) -> f64 {
        self.base_rate_per_s * (1.0 + self.amplitude)
    }
}

impl<R: Rng> ArrivalProcess for DiurnalArrivals<R> {
    fn next_arrival(&mut self, now: SimTime) -> Option<SimTime> {
        // Thinning: sample at the peak rate, accept with rate(t)/peak.
        let peak = self.peak_rate();
        let mut t = now;
        loop {
            let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += SimTime::from_secs_f64(-u.ln() / peak);
            let accept: f64 = self.rng.gen();
            if accept < self.rate_at(t) / peak {
                return Some(t);
            }
        }
    }
}

/// A multiplicative traffic burst: between `start` and `start + duration`
/// the instantaneous rate is scaled by `multiplier` (≥ 1) — a flash
/// crowd layered on top of the diurnal envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// When the burst begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimTime,
    /// Rate multiplier inside the window (≥ 1).
    pub multiplier: f64,
}

impl FlashCrowd {
    fn active(&self, t: SimTime) -> bool {
        t >= self.start && t < self.start + self.duration
    }
}

/// Regional traffic: a diurnal envelope with a timezone *phase offset*
/// plus zero or more [`FlashCrowd`] bursts, sampled by thinning.
///
/// `rate(t) = base × (1 + amplitude · sin(2π(t + phase)/period)) × crowd(t)`
///
/// where `crowd(t)` is the product of every active burst's multiplier.
/// Each serving region gets one of these with its own phase — the peaks
/// of a three-region deployment land a third of a period apart, exactly
/// the follow-the-sun capacity picture the global router exploits.
#[derive(Debug, Clone)]
pub struct RegionalArrivals<R: Rng> {
    base_rate_per_s: f64,
    amplitude: f64,
    period: SimTime,
    phase: SimTime,
    crowds: Vec<FlashCrowd>,
    rng: R,
}

impl<R: Rng> RegionalArrivals<R> {
    /// Creates a regional process.
    ///
    /// # Panics
    ///
    /// Panics if the base rate is not positive, `amplitude` is outside
    /// `[0, 1)`, or any crowd multiplier is below 1.
    pub fn new(
        base_rate_per_s: f64,
        amplitude: f64,
        period: SimTime,
        phase: SimTime,
        crowds: Vec<FlashCrowd>,
        rng: R,
    ) -> Self {
        assert!(base_rate_per_s > 0.0, "arrival rate must be positive");
        assert!(
            (0.0..1.0).contains(&amplitude),
            "amplitude must be in [0, 1)"
        );
        assert!(
            crowds.iter().all(|c| c.multiplier >= 1.0),
            "flash crowds only add traffic"
        );
        RegionalArrivals {
            base_rate_per_s,
            amplitude,
            period,
            phase,
            crowds,
            rng,
        }
    }

    /// Instantaneous rate at `t`, bursts included.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let shifted = (t + self.phase).as_secs_f64();
        let angle = 2.0 * std::f64::consts::PI * shifted / self.period.as_secs_f64();
        let mut rate = self.base_rate_per_s * (1.0 + self.amplitude * angle.sin());
        for crowd in &self.crowds {
            if crowd.active(t) {
                rate *= crowd.multiplier;
            }
        }
        rate
    }

    /// Upper bound on the instantaneous rate (thinning majorant):
    /// diurnal peak times the product of every crowd multiplier.
    pub fn peak_rate(&self) -> f64 {
        self.crowds.iter().fold(
            self.base_rate_per_s * (1.0 + self.amplitude),
            |peak, crowd| peak * crowd.multiplier,
        )
    }
}

impl<R: Rng> ArrivalProcess for RegionalArrivals<R> {
    fn next_arrival(&mut self, now: SimTime) -> Option<SimTime> {
        // Thinning against the global majorant. Overlapping crowds make
        // the majorant loose, but acceptance stays exact.
        let peak = self.peak_rate();
        let mut t = now;
        loop {
            let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += SimTime::from_secs_f64(-u.ln() / peak);
            let accept: f64 = self.rng.gen();
            if accept < self.rate_at(t) / peak {
                return Some(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_rate_matches() {
        let mut p = PoissonArrivals::new(1000.0, StdRng::seed_from_u64(1));
        let mut now = SimTime::ZERO;
        let n = 20_000;
        for _ in 0..n {
            now = p.next_arrival(now).unwrap();
        }
        let measured = n as f64 / now.as_secs_f64();
        assert!((measured - 1000.0).abs() / 1000.0 < 0.05, "rate {measured}");
    }

    #[test]
    fn poisson_interarrival_cv_is_one() {
        let mut p = PoissonArrivals::new(100.0, StdRng::seed_from_u64(2));
        let mut now = SimTime::ZERO;
        let mut gaps = Vec::new();
        for _ in 0..10_000 {
            let next = p.next_arrival(now).unwrap();
            gaps.push((next - now).as_secs_f64());
            now = next;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn diurnal_rate_oscillates() {
        let d = DiurnalArrivals::new(
            100.0,
            0.5,
            SimTime::from_secs(86_400),
            StdRng::seed_from_u64(3),
        );
        assert_eq!(d.peak_rate(), 150.0);
        let quarter = SimTime::from_secs(86_400 / 4);
        assert!((d.rate_at(quarter) - 150.0).abs() < 1.0);
        let three_quarter = SimTime::from_secs(3 * 86_400 / 4);
        assert!((d.rate_at(three_quarter) - 50.0).abs() < 1.0);
    }

    #[test]
    fn diurnal_arrivals_follow_envelope() {
        let period = SimTime::from_secs(1000);
        let mut d = DiurnalArrivals::new(500.0, 0.8, period, StdRng::seed_from_u64(4));
        let mut now = SimTime::ZERO;
        let mut first_half = 0u32;
        let mut second_half = 0u32;
        while now < period {
            now = d.next_arrival(now).unwrap();
            if now < period.scale(0.5) {
                first_half += 1;
            } else if now < period {
                second_half += 1;
            }
        }
        // sin > 0 in the first half-period → more traffic.
        assert!(
            first_half as f64 > 1.5 * second_half as f64,
            "{first_half} vs {second_half}"
        );
    }

    #[test]
    fn regional_phase_shifts_the_peak() {
        let period = SimTime::from_secs(86_400);
        let base = RegionalArrivals::new(
            100.0,
            0.5,
            period,
            SimTime::ZERO,
            Vec::new(),
            StdRng::seed_from_u64(6),
        );
        // A quarter-period phase advance moves the crest to t = 0.
        let shifted = RegionalArrivals::new(
            100.0,
            0.5,
            period,
            period.scale(0.25),
            Vec::new(),
            StdRng::seed_from_u64(6),
        );
        assert!((base.rate_at(period.scale(0.25)) - 150.0).abs() < 1.0);
        assert!((shifted.rate_at(SimTime::ZERO) - 150.0).abs() < 1.0);
    }

    #[test]
    fn flash_crowd_multiplies_inside_its_window() {
        let crowd = FlashCrowd {
            start: SimTime::from_secs(100),
            duration: SimTime::from_secs(50),
            multiplier: 3.0,
        };
        let p = RegionalArrivals::new(
            100.0,
            0.0,
            SimTime::from_secs(86_400),
            SimTime::ZERO,
            vec![crowd],
            StdRng::seed_from_u64(7),
        );
        assert!((p.rate_at(SimTime::from_secs(120)) - 300.0).abs() < 1e-9);
        assert!((p.rate_at(SimTime::from_secs(200)) - 100.0).abs() < 1e-9);
        assert_eq!(p.peak_rate(), 300.0);
    }

    #[test]
    fn regional_arrivals_concentrate_in_the_crowd() {
        let horizon = SimTime::from_secs(1000);
        let crowd = FlashCrowd {
            start: SimTime::from_secs(400),
            duration: SimTime::from_secs(100),
            multiplier: 5.0,
        };
        let mut p = RegionalArrivals::new(
            50.0,
            0.0,
            horizon,
            SimTime::ZERO,
            vec![crowd],
            StdRng::seed_from_u64(8),
        );
        let mut inside = 0u32;
        let mut total = 0u32;
        let mut now = SimTime::ZERO;
        while now < horizon {
            now = p.next_arrival(now).unwrap();
            if now >= horizon {
                break;
            }
            total += 1;
            if crowd.active(now) {
                inside += 1;
            }
        }
        // The crowd window is 10 % of the horizon but 5× the rate:
        // expected share 500/(900 + 500) ≈ 36 %.
        let share = inside as f64 / total as f64;
        assert!(
            (0.25..0.5).contains(&share),
            "crowd share {share} ({inside}/{total})"
        );
    }
}
