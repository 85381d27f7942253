//! Property tests for the arrival-process contracts: stochastic
//! processes never go backwards and never run dry, squeezed thinning
//! yields exactly the arrivals of plain thinning, and a
//! `RegionalTrace` replays exactly the arrivals it was built from.

use mtia_core::SimTime;
use mtia_serving::global::{GlobalArrival, Priority, RegionalTrace};
use mtia_serving::traffic::{ArrivalProcess, FlashCrowd, PoissonArrivals, RegionalArrivals};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Plain Lewis–Shedler thinning as `RegionalArrivals` did it before
/// squeeze segments: every candidate evaluates the rate, `sin`
/// included. The reference the squeezed process must match bit for
/// bit.
struct PlainThinning {
    base_rate_per_s: f64,
    amplitude: f64,
    period: SimTime,
    phase: SimTime,
    crowds: Vec<FlashCrowd>,
    rng: StdRng,
}

impl PlainThinning {
    fn rate_at(&self, t: SimTime) -> f64 {
        let shifted = (t + self.phase).as_secs_f64();
        let angle = 2.0 * std::f64::consts::PI * shifted / self.period.as_secs_f64();
        let mut rate = self.base_rate_per_s * (1.0 + self.amplitude * angle.sin());
        for crowd in &self.crowds {
            if t >= crowd.start && t < crowd.start + crowd.duration {
                rate *= crowd.multiplier;
            }
        }
        rate
    }

    fn peak_rate(&self) -> f64 {
        self.crowds.iter().fold(
            self.base_rate_per_s * (1.0 + self.amplitude),
            |peak, crowd| peak * crowd.multiplier,
        )
    }

    fn next_arrival(&mut self, now: SimTime) -> SimTime {
        let peak = self.peak_rate();
        let mut t = now;
        loop {
            let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += SimTime::from_secs_f64(-u.ln() / peak);
            let accept: f64 = self.rng.gen();
            if accept < self.rate_at(t) / peak {
                return t;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Poisson and diurnal arrivals never go backwards and yield all `n`
    /// requested arrivals, whatever the rate, seed, or process family.
    #[test]
    fn arrivals_are_sorted_and_never_run_dry(
        rate in 1.0f64..500.0,
        seed in any::<u64>(),
        n in 0usize..200,
        diurnal in any::<bool>(),
    ) {
        let rng = StdRng::seed_from_u64(seed);
        let mut process: Box<dyn ArrivalProcess> = if diurnal {
            Box::new(RegionalArrivals::new(
                rate,
                0.5,
                SimTime::from_secs(60),
                SimTime::ZERO,
                Vec::new(),
                rng,
            ).unwrap())
        } else {
            Box::new(PoissonArrivals::new(rate, rng))
        };
        let mut now = SimTime::ZERO;
        for i in 0..n {
            let t = process.next_arrival(now);
            prop_assert!(t.is_some(), "process ran dry at arrival {}", i);
            let t = t.unwrap();
            prop_assert!(t >= now, "arrival {} went backwards", i);
            now = t;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The squeeze only skips `sin` where it cannot change a decision:
    /// the first 2,000 arrivals equal plain thinning's on every shape —
    /// periods from 1 ps to 1 h, phases up to three periods, and up to
    /// three overlapping crowds placed over the arrivals' span.
    #[test]
    fn squeezed_thinning_matches_plain_thinning(
        base_rate_per_s in 0.5f64..5_000.0,
        // 0: exactly 0, 1: anywhere in (0, 0.9999], 2: exactly 0.9999.
        amplitude_kind in 0u8..3,
        amplitude in 1e-9f64..=0.9999,
        period_log10 in 0.0f64..15.556,
        phase_periods in 0.0f64..3.0,
        crowd_count in 0usize..4,
        crowd_starts in vec(0.0f64..1.2, 3),
        crowd_durations in vec(0.0f64..0.5, 3),
        // A zero draw pins the multiplier to exactly 1, a no-op crowd.
        crowd_multipliers in vec(1.0f64..=8.0, 3),
        crowd_no_ops in vec(0u8..4, 3),
        seed in any::<u64>(),
    ) {
        let amplitude = match amplitude_kind {
            0 => 0.0,
            1 => amplitude,
            _ => 0.9999,
        };
        let period = SimTime::from_picos((10f64.powf(period_log10) as u64).max(1));
        let phase = period.scale(phase_periods);
        // Crowds sit on the ~2,000 / base seconds the arrivals cover.
        let span = SimTime::from_secs_f64(2_000.0 / base_rate_per_s);
        let crowds: Vec<FlashCrowd> = (0..crowd_count)
            .map(|i| FlashCrowd {
                start: span.scale(crowd_starts[i]),
                duration: span.scale(crowd_durations[i]),
                multiplier: if crowd_no_ops[i] == 0 { 1.0 } else { crowd_multipliers[i] },
            })
            .collect();
        let mut plain = PlainThinning {
            base_rate_per_s,
            amplitude,
            period,
            phase,
            crowds: crowds.clone(),
            rng: StdRng::seed_from_u64(seed),
        };
        let mut squeezed = RegionalArrivals::new(
            base_rate_per_s,
            amplitude,
            period,
            phase,
            crowds,
            StdRng::seed_from_u64(seed),
        ).unwrap();
        prop_assert_eq!(squeezed.peak_rate(), plain.peak_rate());
        let (mut now_plain, mut now_squeezed) = (SimTime::ZERO, SimTime::ZERO);
        for i in 0..2_000 {
            now_plain = plain.next_arrival(now_plain);
            now_squeezed = squeezed.next_arrival(now_squeezed).unwrap();
            prop_assert_eq!(now_squeezed, now_plain, "arrival {} differs", i);
        }
    }
}

/// Smallest gap a region column stores in full beside its 5-byte
/// entry: `127 × 2³²` ps.
const ESCAPED_GAP: u64 = 127 << 32;

/// FNV-1a over `(at, region, priority)` words, as
/// `RegionalTrace::fingerprint` defines it.
fn reference_fingerprint(arrivals: &[GlobalArrival]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for a in arrivals {
        mix(a.at.as_picos());
        mix(a.region as u64);
        mix(match a.priority {
            Priority::High => 0,
            Priority::Low => 1,
        });
    }
    hash
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A trace replays its arrivals exactly, and its length and
    /// fingerprint are those of the input, whatever the gaps: zero
    /// gaps, an arrival at t = 0, gaps one picosecond either side of
    /// the escape threshold, gaps above 2⁴⁰ ps, and regions with no
    /// arrival or a single one.
    #[test]
    fn regional_trace_replays_its_arrivals_exactly(
        // Per region: 0 empty, 1 a single arrival, else `counts[r]`.
        count_kinds in vec(0u8..4, 4),
        counts in vec(0usize..48, 4),
        // Per arrival: 0 zero, 1 below 2³², 2 below the threshold,
        // 3/4/5 the threshold − 1 / exactly / + 1, 6 above 2⁴⁰.
        gap_kinds in vec(0u8..7, 192),
        gap_lows in vec(any::<u32>(), 192),
        gap_highs in vec(any::<u64>(), 192),
        lows in vec(any::<bool>(), 192),
    ) {
        let mut arrivals = Vec::new();
        let mut draw = 0;
        for region in 0..4u32 {
            let r = region as usize;
            let n = match count_kinds[r] {
                0 => 0,
                1 => 1,
                _ => counts[r],
            };
            let mut at = 0u64;
            for _ in 0..n {
                let (low, high) = (gap_lows[draw] as u64, gap_highs[draw]);
                at += match gap_kinds[draw] {
                    0 => 0,
                    1 => low,
                    2 => (high % 127) << 32 | low,
                    3 => ESCAPED_GAP - 1,
                    4 => ESCAPED_GAP,
                    5 => ESCAPED_GAP + 1,
                    _ => (1 << 40) + high % (1 << 50),
                };
                arrivals.push(GlobalArrival {
                    at: SimTime::from_picos(at),
                    region,
                    priority: if lows[draw] { Priority::Low } else { Priority::High },
                });
                draw += 1;
            }
        }
        // Stable, so each region keeps its own order among equal times.
        arrivals.sort_by_key(|a| (a.at, a.region));
        let trace = RegionalTrace::new(arrivals.clone()).unwrap();
        prop_assert_eq!(trace.len(), arrivals.len());
        prop_assert_eq!(trace.is_empty(), arrivals.is_empty());
        prop_assert_eq!(trace.fingerprint(), reference_fingerprint(&arrivals));
        let replayed: Vec<GlobalArrival> = trace.arrivals().collect();
        prop_assert_eq!(replayed, arrivals);
    }
}
