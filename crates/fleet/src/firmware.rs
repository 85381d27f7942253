//! Firmware-bundle releases and rollout (§5.5).
//!
//! Firmware, drivers, and runtime libraries deploy atomically as a
//! *firmware bundle*. Builds happen three times daily and are stress-tested
//! pre-production (where the §5.5 deadlock was caught: ~1 % of servers
//! under 100 % PE-utilization stress lost PCIe connectivity). A standard
//! rollout takes 18 days through staged populations; emergencies deploy
//! fleet-wide in 3 hours (1 hour with safety overrides). 23 bundles shipped
//! fleet-wide in 2024, versus 1–2 firmware updates for third-party GPUs.

use mtia_core::telemetry::{Json, Telemetry};
use mtia_core::SimTime;
use mtia_sim::noc::deadlock::{
    deadlock_possible, DeadlockConfig, PRODUCTION_TRIGGER_PROBABILITY, STRESS_TRIGGER_PROBABILITY,
};
use rand::Rng;

/// A firmware bundle version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirmwareBundle {
    /// Version string.
    pub version: String,
    /// Whether the Control-Core working memory lives in device SRAM (the
    /// deadlock mitigation) or host memory (the original design).
    pub control_memory_in_sram: bool,
}

impl FirmwareBundle {
    /// The bundle as originally shipped (deadlock-prone under load).
    pub fn original() -> Self {
        FirmwareBundle {
            version: "fw-2024.01".to_string(),
            control_memory_in_sram: false,
        }
    }

    /// The mitigated bundle.
    pub fn mitigated() -> Self {
        FirmwareBundle {
            version: "fw-2024.02".to_string(),
            control_memory_in_sram: true,
        }
    }

    /// The NoC deadlock configuration this bundle produces under load.
    pub fn deadlock_config_under_load(&self) -> DeadlockConfig {
        if self.control_memory_in_sram {
            DeadlockConfig::post_mitigation_under_load()
        } else {
            DeadlockConfig::pre_mitigation_under_load()
        }
    }

    /// Whether one stress-test run (PE utilization at 100 %) hangs a
    /// server running this bundle.
    pub fn stress_run_hangs<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        deadlock_possible(self.deadlock_config_under_load())
            && rng.gen_bool(STRESS_TRIGGER_PROBABILITY)
    }
}

/// One rollout stage: a fleet fraction and a soak duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RolloutStage {
    /// Cumulative fleet fraction after this stage.
    pub fleet_fraction: f64,
    /// Soak time at this stage.
    pub soak: SimTime,
}

/// A rollout schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollout {
    /// Ordered stages.
    pub stages: Vec<RolloutStage>,
}

impl Rollout {
    /// The standard 18-day staged rollout.
    pub fn standard() -> Self {
        let day = SimTime::from_secs(86_400);
        Rollout {
            stages: vec![
                RolloutStage {
                    fleet_fraction: 0.01,
                    soak: day * 2,
                }, // staging
                RolloutStage {
                    fleet_fraction: 0.05,
                    soak: day * 3,
                },
                RolloutStage {
                    fleet_fraction: 0.25,
                    soak: day * 5,
                },
                RolloutStage {
                    fleet_fraction: 1.00,
                    soak: day * 8,
                },
            ],
        }
    }

    /// The 3-hour emergency rollout (safety policies still limit
    /// simultaneous restarts).
    pub fn emergency() -> Self {
        let hour = SimTime::from_secs(3600);
        Rollout {
            stages: vec![
                RolloutStage {
                    fleet_fraction: 0.1,
                    soak: hour,
                },
                RolloutStage {
                    fleet_fraction: 0.5,
                    soak: hour,
                },
                RolloutStage {
                    fleet_fraction: 1.0,
                    soak: hour,
                },
            ],
        }
    }

    /// The 1-hour extreme rollout (restart policies overridden).
    pub fn extreme() -> Self {
        Rollout {
            stages: vec![RolloutStage {
                fleet_fraction: 1.0,
                soak: SimTime::from_secs(3600),
            }],
        }
    }

    /// Total duration.
    pub fn duration(&self) -> SimTime {
        self.stages.iter().map(|s| s.soak).sum()
    }
}

/// Result of simulating a rollout of a *defective* bundle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RolloutOutcome {
    /// Stage index at which the defect was detected (None = never).
    pub detected_at_stage: Option<usize>,
    /// Servers that hit the defect before detection halted the rollout.
    pub servers_impacted: u32,
    /// Time until detection.
    pub time_to_detection: Option<SimTime>,
}

/// Simulates rolling out `bundle` across a fleet of `fleet_servers`,
/// halting as soon as a hung server is detected during a stage's soak.
/// `per_server_hang_probability` is evaluated once per server per stage.
pub fn simulate_rollout<R: Rng + ?Sized>(
    rollout: &Rollout,
    bundle: &FirmwareBundle,
    fleet_servers: u32,
    rng: &mut R,
) -> RolloutOutcome {
    simulate_rollout_traced(
        rollout,
        bundle,
        fleet_servers,
        rng,
        &mut Telemetry::disabled(),
    )
}

/// [`simulate_rollout`] with observability: when `tel` is enabled,
/// records a `fleet.rollout` root span with one child span per staged
/// soak (sim-time placed on the cumulative rollout clock), a
/// `rollout.halted` instant event when detection stops the rollout,
/// and coverage/impact counters. The returned outcome is byte-identical
/// to the untraced run (the RNG is consumed identically).
pub fn simulate_rollout_traced<R: Rng + ?Sized>(
    rollout: &Rollout,
    bundle: &FirmwareBundle,
    fleet_servers: u32,
    rng: &mut R,
    tel: &mut Telemetry,
) -> RolloutOutcome {
    let mut covered = 0u32;
    let mut impacted = 0u32;
    let mut elapsed = SimTime::ZERO;
    // The deadlock predicate is a property of the bundle, not of a server:
    // evaluate the wait-for graph once.
    let hazardous = deadlock_possible(bundle.deadlock_config_under_load());
    tel.begin_span("fleet.rollout", "fleet", SimTime::ZERO);
    tel.span_attr("bundle", Json::Str(bundle.version.clone()));
    tel.span_attr("fleet_servers", Json::UInt(fleet_servers as u64));
    tel.span_attr("stages", Json::UInt(rollout.stages.len() as u64));
    for (i, stage) in rollout.stages.iter().enumerate() {
        let target = ((fleet_servers as f64) * stage.fleet_fraction).round() as u32;
        let newly = target.saturating_sub(covered);
        covered = target;
        let stage_start = elapsed;
        elapsed += stage.soak;
        let mut detected = false;
        let impacted_before = impacted;
        if hazardous {
            for _ in 0..newly {
                if rng.gen_bool(PRODUCTION_TRIGGER_PROBABILITY) {
                    impacted += 1;
                    detected = true;
                }
            }
        }
        tel.complete_span(
            format!("stage{i}"),
            "fleet",
            stage_start,
            elapsed,
            vec![
                ("fleet_fraction".into(), Json::Num(stage.fleet_fraction)),
                ("servers_added".into(), Json::UInt(newly as u64)),
                (
                    "servers_impacted".into(),
                    Json::UInt((impacted - impacted_before) as u64),
                ),
            ],
        );
        tel.counter_add("fleet.rollout.servers_covered", newly as u64);
        tel.counter_add(
            "fleet.rollout.servers_impacted",
            (impacted - impacted_before) as u64,
        );
        if detected {
            tel.instant(
                "rollout.halted",
                "fleet",
                elapsed,
                vec![
                    ("stage".into(), Json::UInt(i as u64)),
                    ("servers_impacted".into(), Json::UInt(impacted as u64)),
                ],
            );
            tel.end_span(elapsed);
            return RolloutOutcome {
                detected_at_stage: Some(i),
                servers_impacted: impacted,
                time_to_detection: Some(elapsed),
            };
        }
    }
    tel.end_span(elapsed);
    RolloutOutcome {
        detected_at_stage: None,
        servers_impacted: impacted,
        time_to_detection: None,
    }
}

/// Runs `trials` independent rollout simulations on the
/// [`mtia_core::pool`] workers, returning outcomes in trial order.
///
/// Trial `i` draws from its own RNG stream,
/// `derive_indexed(root_seed, "firmware/rollout-trial", i)` — a pure
/// function of the trial index rather than a position in one shared
/// sequential stream — so the outcome vector is byte-identical at any
/// thread count and any scheduling order.
pub fn simulate_rollout_replicas(
    rollout: &Rollout,
    bundle: &FirmwareBundle,
    fleet_servers: u32,
    root_seed: u64,
    trials: u32,
) -> Vec<RolloutOutcome> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    mtia_core::pool::parallel_map((0..trials).collect(), |i, _| {
        let seed = mtia_core::seed::derive_indexed(root_seed, "firmware/rollout-trial", i as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        simulate_rollout(rollout, bundle, fleet_servers, &mut rng)
    })
}

/// Continuous-deployment cadence facts (§5.5).
pub mod cadence {
    /// Fleet-wide bundle releases shipped in 2024.
    pub const RELEASES_2024: u32 = 23;
    /// Third-party GPU firmware updates achievable per year.
    pub const GPU_RELEASES_PER_YEAR: u32 = 2;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn original_bundle_hangs_under_stress_at_one_percent() {
        let bundle = FirmwareBundle::original();
        let mut rng = StdRng::seed_from_u64(71);
        let hangs = (0..20_000)
            .filter(|_| bundle.stress_run_hangs(&mut rng))
            .count();
        let rate = hangs as f64 / 20_000.0;
        assert!((rate - 0.01).abs() < 0.004, "stress hang rate {rate}");
    }

    #[test]
    fn mitigated_bundle_never_hangs() {
        let bundle = FirmwareBundle::mitigated();
        let mut rng = StdRng::seed_from_u64(72);
        assert!((0..50_000).all(|_| !bundle.stress_run_hangs(&mut rng)));
        assert!(!deadlock_possible(bundle.deadlock_config_under_load()));
    }

    #[test]
    fn standard_rollout_is_18_days() {
        let r = Rollout::standard();
        let days = r.duration().as_secs_f64() / 86_400.0;
        assert_eq!(days, 18.0);
        // Fractions are monotone and end at 1.0.
        assert!(r
            .stages
            .windows(2)
            .all(|w| w[1].fleet_fraction > w[0].fleet_fraction));
        assert_eq!(r.stages.last().unwrap().fleet_fraction, 1.0);
    }

    #[test]
    fn emergency_rollouts_are_fast() {
        assert_eq!(
            Rollout::emergency().duration(),
            SimTime::from_secs(3 * 3600)
        );
        assert_eq!(Rollout::extreme().duration(), SimTime::from_secs(3600));
    }

    #[test]
    fn rollout_replicas_are_thread_count_invariant() {
        let rollout = Rollout::standard();
        let bundle = FirmwareBundle::original();
        let run = |threads: usize| {
            mtia_core::pool::set_threads(threads);
            let outcomes = simulate_rollout_replicas(&rollout, &bundle, 50_000, 73, 12);
            mtia_core::pool::set_threads(0);
            outcomes
        };
        let serial = run(1);
        let threaded = run(4);
        assert_eq!(serial, threaded);
        assert_eq!(serial.len(), 12);
        // The defective bundle is caught in most trials.
        let caught = serial
            .iter()
            .filter(|o| o.detected_at_stage.is_some())
            .count();
        assert!(caught >= 10, "caught {caught}/12");
    }

    #[test]
    fn staged_rollout_catches_the_defect_early() {
        // §5.5: the 0.1 %-of-servers defect is caught by incremental
        // rollout before reaching the whole fleet.
        let rollout = Rollout::standard();
        let bundle = FirmwareBundle::original();
        let fleet = 50_000u32;
        let mut rng = StdRng::seed_from_u64(73);
        let mut detections_before_full = 0;
        let mut total_impacted = 0u32;
        for _ in 0..50 {
            let outcome = simulate_rollout(&rollout, &bundle, fleet, &mut rng);
            if let Some(stage) = outcome.detected_at_stage {
                if stage < rollout.stages.len() - 1 {
                    detections_before_full += 1;
                }
            }
            total_impacted += outcome.servers_impacted;
        }
        // With 0.1 % incidence, the 5 % stage (2500 servers) almost always
        // surfaces it.
        assert!(
            detections_before_full >= 45,
            "only {detections_before_full}/50 caught before full fleet"
        );
        // Blast radius stays far below fleet-wide exposure.
        assert!((total_impacted as f64) / 50.0 < 0.001 * fleet as f64 * 0.3);
    }

    #[test]
    fn traced_rollout_matches_untraced() {
        let rollout = Rollout::standard();
        let bundle = FirmwareBundle::original();
        let untraced = simulate_rollout(&rollout, &bundle, 50_000, &mut StdRng::seed_from_u64(75));
        let mut tel = Telemetry::new_enabled();
        let traced = simulate_rollout_traced(
            &rollout,
            &bundle,
            50_000,
            &mut StdRng::seed_from_u64(75),
            &mut tel,
        );
        assert_eq!(untraced, traced);
        tel.tracer
            .validate_nesting()
            .expect("stage spans contained");
        let root = &tel.tracer.roots()[0];
        // Halted rollouts record exactly the stages that ran, plus the
        // halt marker at the detection time.
        let stage = traced.detected_at_stage.expect("defective bundle caught");
        assert_eq!(root.children.len(), stage + 1);
        assert_eq!(root.end, traced.time_to_detection.unwrap());
        let halt = tel
            .tracer
            .events()
            .iter()
            .find(|e| e.name == "rollout.halted")
            .expect("halt event");
        assert_eq!(halt.ts, traced.time_to_detection.unwrap());
        assert_eq!(
            tel.metrics.counter("fleet.rollout.servers_impacted"),
            traced.servers_impacted as u64
        );
    }

    #[test]
    fn mitigated_rollout_completes_cleanly() {
        let rollout = Rollout::standard();
        let bundle = FirmwareBundle::mitigated();
        let mut rng = StdRng::seed_from_u64(74);
        let outcome = simulate_rollout(&rollout, &bundle, 50_000, &mut rng);
        assert_eq!(outcome.detected_at_stage, None);
        assert_eq!(outcome.servers_impacted, 0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn release_cadence_dwarfs_gpus() {
        assert!(cadence::RELEASES_2024 > 10 * cadence::GPU_RELEASES_PER_YEAR);
    }
}
