//! The firmware continuous-deployment pipeline (§5.5).
//!
//! "We use Meta's continuous deployment tool to regularly test and deploy
//! firmware across the fleet. The tool builds firmware three times daily
//! and subjects each build to stress testing on Meta's testing platform,
//! where the issue described above was automatically detected. Not all
//! builds are deployed to production. A typical rollout takes 18 days ...
//! In 2024, we deployed 23 firmware-bundle releases fleet-wide."

use rand::Rng;

use crate::firmware::{simulate_rollout, FirmwareBundle, Rollout};

/// Pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdConfig {
    /// Builds per day.
    pub builds_per_day: u32,
    /// Probability a build carries a production-relevant defect.
    pub defect_rate: f64,
    /// Probability pre-production stress testing catches a defect.
    pub stress_catch_rate: f64,
    /// Fleet size in servers.
    pub fleet_servers: u32,
}

impl CdConfig {
    /// The calibrated production pipeline.
    pub fn production() -> Self {
        CdConfig {
            builds_per_day: 3,
            defect_rate: 0.04,
            stress_catch_rate: 0.95,
            fleet_servers: 50_000,
        }
    }
}

/// One year of pipeline operation.
#[derive(Debug, Clone, PartialEq)]
pub struct YearReport {
    /// Builds produced.
    pub builds: u32,
    /// Builds rejected by pre-production stress testing.
    pub rejected_by_stress: u32,
    /// Fleet-wide releases shipped.
    pub releases: u32,
    /// Defective builds that escaped stress testing into a rollout.
    pub escaped_defects: u32,
    /// Escaped defects halted by the staged rollout before full fleet.
    pub contained_by_staging: u32,
    /// Total servers that hit an escaped defect before containment.
    pub servers_impacted: u32,
}

impl YearReport {
    /// Fraction of escaped defects the staged rollout contained.
    pub fn containment_rate(&self) -> f64 {
        if self.escaped_defects == 0 {
            1.0
        } else {
            self.contained_by_staging as f64 / self.escaped_defects as f64
        }
    }
}

/// Simulates one year: builds accumulate; whenever the rollout pipeline is
/// idle, the latest stress-green build ships through the standard staged
/// rollout. A rollout halted by a detected defect restarts the pipeline
/// immediately with the next green build.
pub fn simulate_year<R: Rng + ?Sized>(config: CdConfig, rng: &mut R) -> YearReport {
    let rollout = Rollout::standard();
    let rollout_days = rollout.duration().as_secs_f64() / 86_400.0;

    let mut report = YearReport {
        builds: 0,
        rejected_by_stress: 0,
        releases: 0,
        escaped_defects: 0,
        contained_by_staging: 0,
        servers_impacted: 0,
    };

    let mut day = 0.0f64;
    while day < 365.0 {
        // Builds since the last rollout slot: take the newest green one.
        let builds_in_window = ((rollout_days * config.builds_per_day as f64) as u32).max(1);
        report.builds += builds_in_window;

        // Walk candidates newest-first until one passes stress testing.
        let mut candidate_defective = false;
        let mut found = false;
        for _ in 0..builds_in_window {
            let defective = rng.gen_bool(config.defect_rate);
            if defective {
                if rng.gen_bool(config.stress_catch_rate) {
                    report.rejected_by_stress += 1;
                    continue; // try an older build
                }
                // Defect escaped stress testing.
                candidate_defective = true;
            }
            found = true;
            break;
        }
        if !found {
            // Every build in the window was rejected; wait for the next.
            day += 1.0 / config.builds_per_day as f64;
            continue;
        }

        let bundle = if candidate_defective {
            report.escaped_defects += 1;
            FirmwareBundle::original() // carries the §5.5-class defect
        } else {
            FirmwareBundle::mitigated()
        };
        let outcome = simulate_rollout(&rollout, &bundle, config.fleet_servers, rng);
        if candidate_defective {
            report.servers_impacted += outcome.servers_impacted;
            if outcome
                .detected_at_stage
                .map(|s| s < rollout.stages.len() - 1)
                .unwrap_or(false)
            {
                report.contained_by_staging += 1;
                // Halted: the slot is spent on the partial rollout + a
                // replacement release.
                report.releases += 1;
            }
        } else {
            report.releases += 1;
        }
        day += rollout_days;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtia_core::SimTime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn a_year_ships_about_23_releases() {
        // §5.5: "In 2024, we deployed 23 firmware-bundle releases
        // fleet-wide" — i.e. roughly one per 18-day rollout slot.
        let mut rng = StdRng::seed_from_u64(101);
        let report = simulate_year(CdConfig::production(), &mut rng);
        assert!(
            (18..=26).contains(&report.releases),
            "releases {} (paper: 23)",
            report.releases
        );
        assert!(report.builds > 1000, "3/day × 365 ≈ 1095 builds");
    }

    #[test]
    fn stress_testing_rejects_most_defects() {
        let mut rng = StdRng::seed_from_u64(102);
        let mut rejected = 0;
        let mut escaped = 0;
        for seed in 0..20 {
            let _ = seed;
            let r = simulate_year(CdConfig::production(), &mut rng);
            rejected += r.rejected_by_stress;
            escaped += r.escaped_defects;
        }
        assert!(
            rejected as f64 > 5.0 * escaped as f64,
            "stress testing must catch most defects: {rejected} vs {escaped}"
        );
    }

    #[test]
    fn escaped_defects_are_contained_by_staging() {
        let mut config = CdConfig::production();
        config.defect_rate = 0.5; // force escapes for the statistic
        config.stress_catch_rate = 0.5;
        let mut rng = StdRng::seed_from_u64(103);
        let mut escaped = 0;
        let mut contained = 0;
        let mut impacted = 0;
        for _ in 0..10 {
            let r = simulate_year(config, &mut rng);
            escaped += r.escaped_defects;
            contained += r.contained_by_staging;
            impacted += r.servers_impacted;
        }
        assert!(escaped > 0);
        assert!(
            contained as f64 >= 0.9 * escaped as f64,
            "containment {contained}/{escaped}"
        );
        // Blast radius far below fleet-wide exposure per escape.
        assert!(
            (impacted as f64) < 10.0 * escaped as f64,
            "impacted {impacted} over {escaped} escapes"
        );
    }

    #[test]
    fn emergency_paths_match_the_paper() {
        assert_eq!(
            Rollout::emergency().duration(),
            SimTime::from_secs(3 * 3600)
        );
        assert_eq!(Rollout::extreme().duration(), SimTime::from_secs(3600));
    }
}
