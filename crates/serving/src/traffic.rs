//! Request-arrival processes.
//!
//! Production traffic is Poisson at short horizons with a strong diurnal
//! envelope at long horizons; §5.3/§5.4 lean on that variability (peak
//! buffers, P90 budgeting).

use mtia_core::error::ConfigError;
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

/// Squeeze segments per diurnal period (see [`RegionalArrivals`]).
const SEGMENTS_PER_PERIOD: u64 = 1024;

/// Absolute slack on `1 + amplitude·sin` in the squeeze bounds. It
/// covers libm's sub-ulp `sin` error and a crest the `cos` sign test
/// may miss within an ulp of a segment end, both under 1e-15; it is
/// far below the band that still calls `sin` (~1e-3 wide in
/// `production`).
const SQUEEZE_SLACK: f64 = 1e-9;

/// Regional traffic: a diurnal envelope with a timezone *phase offset*
/// plus zero or more [`FlashCrowd`] bursts, sampled by thinning.
///
/// `rate(t) = base × (1 + amplitude · sin(2π(t + phase)/period)) × crowd(t)`
///
/// where `crowd(t)` is the product of every active burst's multiplier;
/// a zero phase and no crowds give the plain diurnal envelope.
/// Each serving region gets one of these with its own phase — the peaks
/// of a three-region deployment land a third of a period apart, exactly
/// the follow-the-sun capacity picture the global router exploits.
///
/// # Thinning with a squeeze
///
/// Candidates are drawn against the majorant [`peak_rate`] and kept
/// when a uniform `accept < rate_at(t) / peak` (Lewis–Shedler). Most
/// candidates are decided without `sin`. The process caches a
/// *squeeze segment*: it runs from the candidate that opened it to the
/// next multiple of `period / 1024` picoseconds or crowd start or end,
/// whichever comes first, so the crowd product is constant inside it.
/// On the segment `lo ≤ rate_at(t) / peak ≤ hi`. The bounds take `sin`
/// of the segment's first and last angle (the float angle is monotone
/// in `t`), ±1 when a crest or trough lies between them (the sign of
/// `cos` flips), and an absolute slack of 1e-9 on
/// `1 + amplitude·sin`. A candidate with `accept < lo` is accepted,
/// one with `accept >= hi` rejected, and only the band between calls
/// [`rate_at`]; a candidate past the segment's end opens a new one.
/// Every float step from the bounded `sin` to the ratio is monotone, so
/// each decision is the one the exact test makes: the arrivals are
/// bit-for-bit those of plain thinning, and every candidate still
/// draws the same two values.
///
/// [`peak_rate`]: Self::peak_rate
/// [`rate_at`]: Self::rate_at
#[derive(Debug, Clone)]
pub struct RegionalArrivals<R: Rng> {
    base_rate_per_s: f64,
    amplitude: f64,
    period: SimTime,
    phase: SimTime,
    crowds: Vec<FlashCrowd>,
    /// The thinning majorant, [`Self::peak_rate`].
    peak: f64,
    /// The squeeze segment of the latest candidate.
    squeeze: Squeeze,
    rng: R,
}

/// Accept-threshold bounds on one squeeze segment: for every `t` from
/// the candidate that opened it up to `end` (exclusive),
/// `lo ≤ rate_at(t) / peak ≤ hi`.
#[derive(Debug, Clone, Copy)]
struct Squeeze {
    end: SimTime,
    lo: f64,
    hi: f64,
}

impl<R: Rng> RegionalArrivals<R> {
    /// Creates a regional process.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] if the base rate is not finite and
    /// positive, `amplitude` is outside `[0, 1)`, `period` is zero, or
    /// any crowd multiplier is below 1 or not finite. A zero period
    /// would make every rate NaN, and thinning would never accept.
    pub fn new(
        base_rate_per_s: f64,
        amplitude: f64,
        period: SimTime,
        phase: SimTime,
        crowds: Vec<FlashCrowd>,
        rng: R,
    ) -> Result<Self, ConfigError> {
        if !(base_rate_per_s.is_finite() && base_rate_per_s > 0.0) {
            return Err(ConfigError::OutOfRange {
                what: "arrival base rate",
                valid: "finite and > 0 requests/s",
            });
        }
        if !(0.0..1.0).contains(&amplitude) {
            return Err(ConfigError::OutOfRange {
                what: "diurnal amplitude",
                valid: "[0, 1)",
            });
        }
        if period == SimTime::ZERO {
            return Err(ConfigError::OutOfRange {
                what: "diurnal period",
                valid: "> 0 ps",
            });
        }
        if !crowds
            .iter()
            .all(|c| c.multiplier.is_finite() && c.multiplier >= 1.0)
        {
            return Err(ConfigError::OutOfRange {
                what: "flash-crowd multiplier",
                valid: "finite and >= 1 (crowds only add traffic)",
            });
        }
        let peak = crowds
            .iter()
            .fold(base_rate_per_s * (1.0 + amplitude), |peak, crowd| {
                peak * crowd.multiplier
            });
        Ok(RegionalArrivals {
            base_rate_per_s,
            amplitude,
            period,
            phase,
            crowds,
            peak,
            // An empty segment: the first candidate computes a real one.
            squeeze: Squeeze {
                end: SimTime::ZERO,
                lo: 0.0,
                hi: 0.0,
            },
            rng,
        })
    }

    /// The diurnal angle `2π(t + phase)/period` in float steps that are
    /// each monotone, so the angle never decreases as `t` grows.
    fn angle(&self, t: SimTime) -> f64 {
        let shifted = (t + self.phase).as_secs_f64();
        2.0 * std::f64::consts::PI * shifted / self.period.as_secs_f64()
    }

    /// `base × diurnal`, times every crowd active at `t`.
    fn scaled(&self, diurnal: f64, t: SimTime) -> f64 {
        let mut rate = self.base_rate_per_s * diurnal;
        for crowd in &self.crowds {
            if crowd.active(t) {
                rate *= crowd.multiplier;
            }
        }
        rate
    }

    /// Instantaneous rate at `t`, bursts included.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.scaled(1.0 + self.amplitude * self.angle(t).sin(), t)
    }

    /// Upper bound on the instantaneous rate (thinning majorant):
    /// diurnal peak times the product of every crowd multiplier.
    pub fn peak_rate(&self) -> f64 {
        self.peak
    }

    /// The squeeze segment opened by a candidate at `t`: it ends at the
    /// next multiple of `period / 1024` picoseconds or crowd start or end
    /// after `t`, whichever is first.
    fn segment(&self, t: SimTime) -> Squeeze {
        let width = (self.period.as_picos() / SEGMENTS_PER_PERIOD).max(1);
        let bucket_end = SimTime::from_picos((t.as_picos() / width + 1).saturating_mul(width));
        let end = self
            .crowds
            .iter()
            .flat_map(|c| [c.start, c.start + c.duration])
            .filter(|&edge| edge > t)
            .fold(bucket_end, SimTime::min);
        let (first, last) = (self.angle(t), self.angle(end - SimTime::from_picos(1)));
        let ((sin_first, cos_first), (sin_last, cos_last)) = (first.sin_cos(), last.sin_cos());
        let mut low = sin_first.min(sin_last);
        let mut high = sin_first.max(sin_last);
        if last - first >= 3.0 {
            // Might span a crest and a trough.
            (low, high) = (-1.0, 1.0);
        } else {
            // Crests and troughs are π apart, so at most one lies
            // between the ends, and `cos` changes sign across it.
            if cos_first >= 0.0 && cos_last <= 0.0 {
                high = 1.0;
            }
            if cos_first <= 0.0 && cos_last >= 0.0 {
                low = -1.0;
            }
        }
        let diurnal = |sin: f64| 1.0 + self.amplitude * sin;
        Squeeze {
            end,
            lo: self.scaled(diurnal(low) - SQUEEZE_SLACK, t) / self.peak,
            hi: self.scaled(diurnal(high) + SQUEEZE_SLACK, t) / self.peak,
        }
    }
}

impl<R: Rng> ArrivalProcess for RegionalArrivals<R> {
    fn next_arrival(&mut self, now: SimTime) -> Option<SimTime> {
        // Thinning against the global majorant. Overlapping crowds make
        // the majorant loose, but acceptance stays exact.
        let peak = self.peak;
        let mut t = now;
        loop {
            let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += SimTime::from_secs_f64(-u.ln() / peak);
            let accept: f64 = self.rng.gen();
            if t >= self.squeeze.end {
                self.squeeze = self.segment(t);
            }
            let accepted = if accept < self.squeeze.lo {
                true
            } else if accept >= self.squeeze.hi {
                false
            } else {
                accept < self.rate_at(t) / peak
            };
            debug_assert_eq!(accepted, accept < self.rate_at(t) / peak);
            if accepted {
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
        let d = RegionalArrivals::new(
            100.0,
            0.5,
            SimTime::from_secs(86_400),
            SimTime::ZERO,
            Vec::new(),
            StdRng::seed_from_u64(3),
        )
        .unwrap();
        assert_eq!(d.peak_rate(), 150.0);
        let quarter = SimTime::from_secs(86_400 / 4);
        assert!((d.rate_at(quarter) - 150.0).abs() < 1.0);
        let three_quarter = SimTime::from_secs(3 * 86_400 / 4);
        assert!((d.rate_at(three_quarter) - 50.0).abs() < 1.0);
    }

    #[test]
    fn diurnal_arrivals_follow_envelope() {
        let period = SimTime::from_secs(1000);
        let mut d = RegionalArrivals::new(
            500.0,
            0.8,
            period,
            SimTime::ZERO,
            Vec::new(),
            StdRng::seed_from_u64(4),
        )
        .unwrap();
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
        )
        .unwrap();
        // A quarter-period phase advance moves the crest to t = 0.
        let shifted = RegionalArrivals::new(
            100.0,
            0.5,
            period,
            period.scale(0.25),
            Vec::new(),
            StdRng::seed_from_u64(6),
        )
        .unwrap();
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
        )
        .unwrap();
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
        )
        .unwrap();
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

    /// Walks consecutive squeeze segments from `t = 0` and checks that
    /// each one's `[lo, hi]` holds `rate_at(t) / peak` at its first and
    /// last picosecond and at interior points.
    fn assert_segments_bound_the_rate(p: &RegionalArrivals<StdRng>, segments: usize) {
        let mut start = SimTime::ZERO;
        for _ in 0..segments {
            let s = p.segment(start);
            let last = s.end - SimTime::from_picos(1);
            let interior = (1..8).map(|k| start + (last - start).scale(k as f64 / 8.0));
            for t in [start, last].into_iter().chain(interior) {
                let ratio = p.rate_at(t) / p.peak_rate();
                assert!(
                    s.lo <= ratio && ratio <= s.hi,
                    "{ratio} outside [{}, {}] at {t:?} in [{start:?}, {:?})",
                    s.lo,
                    s.hi,
                    s.end
                );
            }
            start = s.end;
        }
    }

    #[test]
    fn every_segment_bounds_the_rate() {
        let rng = || StdRng::seed_from_u64(9);
        let crowd = |start, duration, multiplier| FlashCrowd {
            start: SimTime::from_secs(start),
            duration: SimTime::from_secs(duration),
            multiplier,
        };
        // The production shape: one crowd on a 600 s period.
        let period = SimTime::from_secs(600);
        let production = RegionalArrivals::new(
            600.0,
            0.4,
            period,
            period.scale(1.0 / 3.0),
            vec![crowd(200, 30, 1.6)],
            rng(),
        )
        .unwrap();
        assert_segments_bound_the_rate(&production, 2_100);
        // Near-full amplitude under three overlapping crowds, one a no-op.
        let steep = RegionalArrivals::new(
            5.0,
            0.9999,
            SimTime::from_secs(3_600),
            SimTime::from_secs(7_000),
            vec![
                crowd(100, 900, 8.0),
                crowd(500, 100, 1.0),
                crowd(550, 2_000, 3.5),
            ],
            rng(),
        )
        .unwrap();
        assert_segments_bound_the_rate(&steep, 3_100);
        // Periods shorter than 1,024 ps: one-picosecond segments, each
        // spanning a large arc of the curve.
        for period in [1, 7, 1_000] {
            let tiny = RegionalArrivals::new(
                100.0,
                0.7,
                SimTime::from_picos(period),
                SimTime::from_picos(period / 2),
                Vec::new(),
                rng(),
            )
            .unwrap();
            assert_segments_bound_the_rate(&tiny, 2_000);
        }
    }

    #[test]
    fn new_rejects_each_invalid_shape() {
        let new = |base, amplitude, period, multiplier| {
            let crowd = FlashCrowd {
                start: SimTime::ZERO,
                duration: SimTime::from_secs(1),
                multiplier,
            };
            RegionalArrivals::new(
                base,
                amplitude,
                period,
                SimTime::ZERO,
                vec![crowd],
                StdRng::seed_from_u64(10),
            )
            .map(|_| ())
        };
        let minute = SimTime::from_secs(60);
        assert_eq!(new(100.0, 0.5, minute, 2.0), Ok(()));
        assert_eq!(new(100.0, 0.0, SimTime::from_picos(1), 1.0), Ok(()));
        let rejects = |r: Result<(), ConfigError>, field: &str| matches!(r, Err(ConfigError::OutOfRange { what, .. }) if what == field);
        for base in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(rejects(new(base, 0.5, minute, 2.0), "arrival base rate"));
        }
        for amplitude in [-0.1, 1.0, 1.5, f64::NAN] {
            assert!(rejects(
                new(100.0, amplitude, minute, 2.0),
                "diurnal amplitude"
            ));
        }
        assert!(rejects(
            new(100.0, 0.5, SimTime::ZERO, 2.0),
            "diurnal period"
        ));
        for multiplier in [0.99, 0.0, f64::NAN, f64::INFINITY] {
            assert!(rejects(
                new(100.0, 0.5, minute, multiplier),
                "flash-crowd multiplier"
            ));
        }
    }
}
