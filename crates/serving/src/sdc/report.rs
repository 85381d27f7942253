//! Outcome accounting for one SDC-defense simulation run.

use std::collections::BTreeMap;
use std::fmt;

use mtia_core::{DetectionMethod, SdcIncident, SimTime};

use super::policy::GUARD_COST_FRACTION;

/// Everything one [`run_sdc_sim`](super::run_sdc_sim) run measured:
/// serving outcomes against the corruption oracle, per-flip detection
/// ground truth, incident and quarantine accounting, and the redundant
/// work performed — enough to score a policy on recall, false positives,
/// detection latency, and throughput overhead.
#[derive(Debug, Clone, Default)]
pub struct SdcReport {
    /// Policy name (bench table row).
    pub policy: String,
    /// Root seed of the run.
    pub seed: u64,
    /// Fingerprint of the fault plan the run consumed (byte-identical
    /// traces across policies show the same fingerprint).
    pub fault_fingerprint: u64,

    /// Requests offered by the workload.
    pub offered: u32,
    /// Responses actually served to the caller.
    pub served: u32,
    /// Served responses the oracle scored as corrupted — the number the
    /// defended stack must hold at **zero**.
    pub served_corrupted: u32,
    /// Requests dropped (guards rejected them everywhere, or no device
    /// was in service).
    pub dropped: u32,
    /// Requests whose final served response came from a retry, replay,
    /// or shadow vote rather than the first device that tried.
    pub rescued: u32,

    /// Bit flips the fault plan injected.
    pub flips_injected: u32,
    /// Injected flips that corrupted at least one model execution.
    pub flips_corrupting: u32,
    /// Output-corrupting flips the defense detected.
    pub flips_detected_corrupting: u32,

    /// Incidents per detection method.
    pub incidents_by_method: BTreeMap<DetectionMethod, u32>,
    /// Every incident, in firing order.
    pub incidents: Vec<SdcIncident>,
    /// Incidents on devices that carried no active corruption.
    pub false_positives: u32,
    /// Guarded executions on clean devices (false-positive denominator).
    pub clean_guarded_executions: u64,
    /// Per-flip time from injection to first detection.
    pub detection_latencies: Vec<SimTime>,

    /// Quarantines entered / repairs completed / devices retired.
    pub quarantines: u32,
    /// Successful repair-and-return cycles.
    pub repairs: u32,
    /// Devices permanently retired.
    pub retirements: u32,

    /// Model executions serving user requests (first attempts).
    pub execs_user: u64,
    /// Canary executions.
    pub execs_canary: u64,
    /// Shadow/vote executions.
    pub execs_shadow: u64,
    /// Pending-window replay executions after a canary failure or
    /// quarantine.
    pub execs_replay: u64,
    /// Retry executions after an inline guard rejected a request.
    pub execs_retry: u64,
    /// How many of all executions ran the guarded path.
    pub execs_guarded: u64,

    /// Human-readable event timeline (time, device, what happened).
    pub timeline: Vec<(SimTime, u32, String)>,
}

impl SdcReport {
    /// Detection recall over output-corrupting flips.
    pub fn recall(&self) -> f64 {
        if self.flips_corrupting == 0 {
            1.0
        } else {
            self.flips_detected_corrupting as f64 / self.flips_corrupting as f64
        }
    }

    /// False-positive rate: spurious incidents per guarded execution on
    /// a clean device.
    pub fn false_positive_rate(&self) -> f64 {
        if self.clean_guarded_executions == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.clean_guarded_executions as f64
        }
    }

    /// Total model executions the run performed.
    pub fn total_executions(&self) -> u64 {
        self.execs_user
            + self.execs_canary
            + self.execs_shadow
            + self.execs_replay
            + self.execs_retry
    }

    /// Throughput overhead versus the naive baseline (one unguarded
    /// execution per served response): redundant executions plus the
    /// inline-guard cost on guarded ones.
    pub fn overhead(&self) -> f64 {
        if self.served == 0 {
            return 0.0;
        }
        let total = self.total_executions() as f64;
        let weighted = total + self.execs_guarded as f64 * GUARD_COST_FRACTION;
        weighted / self.served as f64 - 1.0
    }

    /// Mean injection-to-detection latency, if anything was detected.
    pub fn mean_detection_latency(&self) -> Option<SimTime> {
        if self.detection_latencies.is_empty() {
            return None;
        }
        let sum: SimTime = self.detection_latencies.iter().copied().sum();
        Some(sum / self.detection_latencies.len() as u64)
    }

    /// Incident count for one method.
    pub fn incidents_for(&self, method: DetectionMethod) -> u32 {
        self.incidents_by_method.get(&method).copied().unwrap_or(0)
    }
}

impl fmt::Display for SdcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: served {}/{} ({} corrupted, {} dropped, {} rescued)",
            self.policy,
            self.served,
            self.offered,
            self.served_corrupted,
            self.dropped,
            self.rescued
        )?;
        writeln!(
            f,
            "  flips: {} injected, {} corrupting, {} detected (recall {:.0}%)",
            self.flips_injected,
            self.flips_corrupting,
            self.flips_detected_corrupting,
            self.recall() * 100.0
        )?;
        writeln!(
            f,
            "  incidents: {} ({} false positive), overhead {:+.1}%",
            self.incidents.len(),
            self.false_positives,
            self.overhead() * 100.0
        )?;
        write!(
            f,
            "  fleet: {} quarantines, {} repairs, {} retirements",
            self.quarantines, self.repairs, self.retirements
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty(policy: &str) -> SdcReport {
        SdcReport {
            policy: policy.to_string(),
            seed: 1,
            fault_fingerprint: 0,
            offered: 0,
            served: 0,
            served_corrupted: 0,
            dropped: 0,
            rescued: 0,
            flips_injected: 0,
            flips_corrupting: 0,
            flips_detected_corrupting: 0,
            incidents_by_method: BTreeMap::new(),
            incidents: Vec::new(),
            false_positives: 0,
            clean_guarded_executions: 0,
            detection_latencies: Vec::new(),
            quarantines: 0,
            repairs: 0,
            retirements: 0,
            execs_user: 0,
            execs_canary: 0,
            execs_shadow: 0,
            execs_replay: 0,
            execs_retry: 0,
            execs_guarded: 0,
            timeline: Vec::new(),
        }
    }

    #[test]
    fn rates_are_well_defined_on_empty_runs() {
        let r = empty("x");
        assert_eq!(r.recall(), 1.0);
        assert_eq!(r.false_positive_rate(), 0.0);
        assert_eq!(r.overhead(), 0.0);
        assert_eq!(r.mean_detection_latency(), None);
    }

    #[test]
    fn overhead_counts_redundant_and_guarded_work() {
        let mut r = empty("x");
        r.served = 100;
        r.execs_user = 100;
        // Pure naive serving: zero overhead.
        assert!(r.overhead().abs() < 1e-12);
        // Guarded serving plus 10 canaries: 10% redundancy + guard tax.
        r.execs_canary = 10;
        r.execs_guarded = 110;
        let expected = (110.0 + 110.0 * GUARD_COST_FRACTION) / 100.0 - 1.0;
        assert!((r.overhead() - expected).abs() < 1e-12);
        assert!(r.overhead() > 0.10 && r.overhead() < 0.15);
    }

    #[test]
    fn latency_stats_use_the_recorded_samples() {
        let mut r = empty("x");
        r.detection_latencies = vec![
            SimTime::from_millis(10),
            SimTime::from_millis(30),
            SimTime::from_millis(20),
        ];
        assert_eq!(r.mean_detection_latency(), Some(SimTime::from_millis(20)));
    }
}
