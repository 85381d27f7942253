//! The off-chip LPDDR5 controller (§3.6, §5.1).
//!
//! Models effective bandwidth under the ECC decision of §5.1 (controller-
//! computed ECC costs 10–15 % of throughput; LPDDR has no inline ECC) and
//! the fleet-scale memory-error process that drove that decision.

use mtia_core::spec::{DramSpec, EccMode};
use mtia_core::units::{Bandwidth, Bytes, SimTime};
use rand::Rng;

/// Traffic pattern efficiency on LPDDR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Long sequential streams (weight tiles with prefetch): near-peak.
    Sequential,
    /// Row-granular gathers (TBE embedding rows): page-miss limited.
    Gather,
}

/// The LPDDR controller model.
#[derive(Debug, Clone, PartialEq)]
pub struct LpddrController {
    spec: DramSpec,
    ecc: EccMode,
}

impl LpddrController {
    /// Creates a controller for `spec` under `ecc`.
    pub fn new(spec: DramSpec, ecc: EccMode) -> Self {
        LpddrController { spec, ecc }
    }

    /// The ECC mode in force.
    pub fn ecc(&self) -> EccMode {
        self.ecc
    }

    /// DRAM capacity.
    pub fn capacity(&self) -> Bytes {
        self.spec.capacity
    }

    /// Effective bandwidth for `pattern` under the configured ECC mode.
    pub fn effective_bandwidth(&self, pattern: AccessPattern) -> Bandwidth {
        let ecc_factor = self.ecc.bandwidth_factor(self.spec.inline_ecc);
        let pattern_factor = match pattern {
            AccessPattern::Sequential => 0.95,
            AccessPattern::Gather => mtia_core::calib::MTIA_GATHER_BW_EFFICIENCY,
        };
        self.spec.bandwidth.scale(ecc_factor * pattern_factor)
    }

    /// Time to transfer `bytes` with `pattern`.
    pub fn transfer_time(&self, bytes: Bytes, pattern: AccessPattern) -> SimTime {
        if bytes == Bytes::ZERO {
            return SimTime::ZERO;
        }
        self.effective_bandwidth(pattern).time_to_move(bytes)
    }
}

/// Fleet-scale memory-error process (§5.1).
///
/// The paper's survey: out of 1,700 servers (24 MTIA cards each), 24 %
/// exhibited ECC errors, "typically on a single MTIA card per server". We
/// model each card as having a small independent probability of being
/// error-prone over the observation window; the per-card rate is backed out
/// of the published 24 % server rate: `1 − (1−p)²⁴ = 0.24 → p ≈ 0.0114`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryErrorModel {
    /// Probability that a given card exhibits errors in the window.
    pub per_card_rate: f64,
    /// Mean detectable bit flips per error-prone card per day.
    pub flips_per_day: f64,
}

impl MemoryErrorModel {
    /// The calibrated production model.
    pub fn production() -> Self {
        MemoryErrorModel {
            per_card_rate: 0.0114,
            flips_per_day: 3.0,
        }
    }

    /// Samples whether one card is error-prone.
    pub fn card_is_error_prone<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen_bool(self.per_card_rate)
    }

    /// Samples how many cards out of `cards` are error-prone.
    pub fn sample_error_cards<R: Rng + ?Sized>(&self, cards: u32, rng: &mut R) -> u32 {
        (0..cards).filter(|_| self.card_is_error_prone(rng)).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtia_core::spec::chips;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn controller(ecc: EccMode) -> LpddrController {
        LpddrController::new(chips::mtia2i().dram, ecc)
    }

    #[test]
    fn ecc_costs_10_to_15_percent() {
        let raw = controller(EccMode::Disabled)
            .effective_bandwidth(AccessPattern::Sequential)
            .as_bytes_per_s();
        let ecc = controller(EccMode::ControllerEcc)
            .effective_bandwidth(AccessPattern::Sequential)
            .as_bytes_per_s();
        let penalty = 1.0 - ecc / raw;
        assert!((0.10..=0.15).contains(&penalty), "penalty {penalty}");
    }

    #[test]
    fn gather_is_slower_than_sequential() {
        let c = controller(EccMode::ControllerEcc);
        assert!(
            c.effective_bandwidth(AccessPattern::Gather)
                .as_bytes_per_s()
                < c.effective_bandwidth(AccessPattern::Sequential)
                    .as_bytes_per_s()
        );
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let c = controller(EccMode::Disabled);
        let t1 = c.transfer_time(Bytes::from_gib(1), AccessPattern::Sequential);
        let t2 = c.transfer_time(Bytes::from_gib(2), AccessPattern::Sequential);
        let diff = (t2.as_picos() as i128 - 2 * t1.as_picos() as i128).abs();
        assert!(diff <= 2, "non-linear: {t1} vs {t2}"); // ±1 ps rounding
        assert_eq!(
            c.transfer_time(Bytes::ZERO, AccessPattern::Gather),
            SimTime::ZERO
        );
    }

    #[test]
    fn decode_of_weights_takes_tens_of_ms() {
        // Sanity anchor for the §8 LLM finding: 13.5 GiB of weights at
        // ~170 GB/s effective ≈ 85 ms ≫ the 60 ms/token SLO.
        let c = controller(EccMode::ControllerEcc);
        let t = c.transfer_time(Bytes::from_gib(13), AccessPattern::Sequential);
        assert!(t > SimTime::from_millis(60), "weight sweep {t}");
    }

    #[test]
    fn server_error_rate_matches_survey() {
        // §5.1: 24 % of servers with 24 cards showed errors, the rate
        // the per-card calibration is backed out of.
        let m = MemoryErrorModel::production();
        let p = 1.0 - (1.0 - m.per_card_rate).powi(24);
        assert!((p - 0.24).abs() < 0.01, "server rate {p}");
    }

    #[test]
    fn sampled_fleet_matches_analytic_rate() {
        let m = MemoryErrorModel::production();
        let mut rng = StdRng::seed_from_u64(17);
        let servers = 1700;
        let mut affected = 0;
        let mut multi_card = 0;
        for _ in 0..servers {
            let bad = m.sample_error_cards(24, &mut rng);
            if bad > 0 {
                affected += 1;
            }
            if bad > 1 {
                multi_card += 1;
            }
        }
        let rate = affected as f64 / servers as f64;
        assert!((rate - 0.24).abs() < 0.04, "sampled rate {rate}");
        // "typically on a single MTIA card per server".
        assert!(
            (multi_card as f64) < 0.25 * affected as f64,
            "multi-card servers {multi_card} of {affected}"
        );
    }
}
