//! E23: gray-failure resilience — fail-slow devices under the global
//! router (§4.1, §5.2, §6).
//!
//! E22 showed the router surviving fail-*stop* disasters; E23 injects
//! the harder production failure mode: devices that keep answering
//! liveness probes while serving slowly. The planetary fleet replays a
//! ≥10⁶-request regional trace three times on byte-identical arrivals:
//!
//! - **fault-free**: the health-aware router with no faults — the P99
//!   yardstick the gates are measured against;
//! - **health-check-only**: the same router while a handful of devices
//!   per pod thermally throttle at the diurnal crest (floors seeded
//!   from the silicon frequency-margin distribution), one device per
//!   region drifts progressively slower, and one NIC flaps. Liveness
//!   probes see nothing, round-robin keeps feeding the stragglers, and
//!   P99 collapses;
//! - **outlier-hedge**: the gray-resilient arm — the peer-relative
//!   latency-outlier detector demotes sustained stragglers through the
//!   ordinary health machine, and requests outstanding past the pod's
//!   quantile deadline get one hedged duplicate, with exact
//!   duplicate-work accounting.
//!
//! The storm is the [`gray_failure`] chaos preset scaled to the
//! planetary fleet, so `--chaos-smoke`, the E23 rung, and the headline
//! all exercise the same fault shapes.
//!
//! [`gray_failure`]: GlobalChaosSchedule::gray_failure

use mtia_core::seed::{derive, DEFAULT_SEED};
use mtia_core::SimTime;
use mtia_fleet::topology::{GlobalTopology, GlobalTopologyConfig};
use mtia_serving::global::{GlobalConfig, GlobalReport, RegionalTrace, RoutingPolicy};
use mtia_sim::faults::FaultPlan;

use crate::chaos::{arm_cells, run_arms, GlobalChaosScenario, GlobalChaosSchedule};
use crate::{fx, ms, pct2, ExperimentReport, Table};

/// The E23 headline inputs, shared between the experiment table and the
/// paper-claims acceptance test: the planetary fleet, a ≥10⁶-request
/// regional trace, and a fail-slow storm pinned to the diurnal crest.
pub struct E23Scenario {
    /// The three-region planetary fleet.
    pub global: GlobalTopology,
    /// The fail-slow storm, as a chaos schedule (plan + traffic shape).
    pub schedule: GlobalChaosSchedule,
    /// The byte-identical multi-region arrival trace.
    pub trace: RegionalTrace,
    /// The fail-slow fault plan (both faulted arms replay this).
    pub plan: FaultPlan,
    /// The empty plan behind the fault-free yardstick arm.
    pub clean_plan: FaultPlan,
    /// Router/ladder/gray-resilience configuration.
    pub config: GlobalConfig,
}

impl E23Scenario {
    /// Builds the acceptance scenario. The throttle window opens at the
    /// quarter-period diurnal crest and holds for 300 s — long enough
    /// that the health-check-only arm's per-device queues saturate to
    /// the deadline while the storm stays a small fraction of the
    /// fleet (the "gray" in gray failure: nothing trips a liveness
    /// probe).
    pub fn production() -> Self {
        let global = GlobalTopologyConfig::planetary().build();
        let seed = derive(DEFAULT_SEED, "e23");
        let horizon = SimTime::from_secs(600);
        // Same offered load as E22: 600 req/s × 3 regions × 600 s ≈
        // 1.1M requests at ≈ 47 % mean utilization of the 1728 slots.
        let traffic = mtia_serving::global::RegionalTrafficConfig::production(600.0, horizon);
        let schedule = GlobalChaosSchedule {
            name: "gray-failure",
            scenario: GlobalChaosScenario::GrayFailure {
                throttled_per_pod: 24,
                window: SimTime::from_secs(300),
            },
            start: traffic.period.scale(0.25),
            traffic,
            horizon,
            seed,
        };
        let trace = schedule.trace(&global);
        let plan = schedule.plan(&global);
        let clean_plan = FaultPlan::empty(derive(seed, "e23.clean"));
        E23Scenario {
            global,
            schedule,
            trace,
            plan,
            clean_plan,
            config: GlobalConfig::production(seed),
        }
    }

    /// All three arms on the byte-identical trace, as cells of one
    /// call: the fault-free yardstick (health-aware routing, empty
    /// plan), the health-check-only arm (liveness probes and the
    /// ladder, no outlier detection, no hedging) under the storm, and
    /// the gray-resilient arm (detector + hedging) under the same storm.
    pub fn arms(&self) -> [GlobalReport; 3] {
        use RoutingPolicy::{GrayResilient, HealthAware};
        let (global, config, trace) = (&self.global, &self.config, &self.trace);
        let [clean] = arm_cells(global, config, trace, &self.clean_plan, [HealthAware]);
        let storm = [HealthAware, GrayResilient];
        let [checked, resilient] = arm_cells(global, config, trace, &self.plan, storm);
        run_arms(&[clean, checked, resilient])
            .try_into()
            .expect("one report per cell")
    }
}

/// P99 inflation of `r` over the fault-free yardstick.
fn p99_ratio(r: &GlobalReport, clean: &GlobalReport) -> f64 {
    let base = clean.request_latency.p99().as_secs_f64();
    if base == 0.0 {
        return 1.0;
    }
    r.request_latency.p99().as_secs_f64() / base
}

fn gray_row(arm: &str, r: &GlobalReport, clean: &GlobalReport) -> Vec<String> {
    vec![
        arm.to_string(),
        r.policy.to_string(),
        pct2(r.goodput()),
        format!(
            "{} ({}u/{}k/{}d)",
            r.lost, r.lost_unroutable, r.lost_killed, r.lost_deadline
        ),
        ms(r.request_latency.p99()),
        format!("{}x", fx(p99_ratio(r, clean), 2)),
        format!("{}/{}", r.hedges_issued, r.hedge_wins),
        format!("{}+{}", r.duplicates_suppressed, r.hedges_cancelled),
        r.outlier_demotions.to_string(),
        r.device_downs.to_string(),
        format!("{:016x}/{:016x}", r.trace_fingerprint, r.fault_fingerprint),
    ]
}

fn gray_table(title: &str, anchor: &str, clean: &GlobalReport) -> Table {
    let mut t = Table::new(
        title,
        anchor,
        &[
            "arm",
            "policy",
            "goodput",
            "lost (unroutable/killed/deadline)",
            "P99",
            "P99 vs fault-free",
            "hedges issued/won",
            "dup suppressed+cancelled",
            "demotions",
            "device downs",
            "trace/fault",
        ],
    );
    t.row(&gray_row("fault-free", clean, clean));
    t
}

/// E23: the full three-arm comparison on the 1728-device planetary
/// fleet.
pub fn e23_gray() -> ExperimentReport {
    let scenario = E23Scenario::production();
    let [clean, naive, resilient] = scenario.arms();
    let mut headline = gray_table(
        "E23: fail-slow storm at the diurnal crest — fault-free vs \
         health-check-only vs outlier-hedge (3 regions × 2 pods × 288 \
         devices, ≥10⁶ requests)",
        "§4.1/§5.2/§6: gray failures pass every liveness probe, so the \
         health-check-only router keeps round-robining into thermally \
         throttled silicon and P99 collapses; the peer-relative outlier \
         detector plus device-level hedging holds the SLO on the \
         byte-identical trace, with duplicate work accounted exactly",
        &clean,
    );
    headline.row(&gray_row("health-check-only", &naive, &clean));
    headline.row(&gray_row("outlier-hedge", &resilient, &clean));
    headline.row(&[
        "gates".to_string(),
        String::new(),
        format!("resilient {}", pct2(resilient.goodput())),
        String::new(),
        String::new(),
        format!(
            "naive {}x / resilient {}x",
            fx(p99_ratio(&naive, &clean), 2),
            fx(p99_ratio(&resilient, &clean), 2)
        ),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        if naive.trace_fingerprint == resilient.trace_fingerprint
            && naive.fault_fingerprint == resilient.fault_fingerprint
        {
            "identical".to_string()
        } else {
            "DIVERGED".to_string()
        },
    ]);
    ExperimentReport {
        id: "E23",
        tables: vec![headline],
    }
}

/// The rung's two faulted arms, health-check-only then outlier-hedge,
/// as cells of one call.
fn rung_arms(global: &GlobalTopology, seed: u64) -> [GlobalReport; 2] {
    let schedule = GlobalChaosSchedule::gray_failure(global, seed);
    let policies = [RoutingPolicy::HealthAware, RoutingPolicy::GrayResilient];
    run_arms(&schedule.cells(global, policies))
        .try_into()
        .expect("one report per cell")
}

/// One fast rung for `--filter quick` and the determinism gate: the
/// `gray_failure` chaos preset on the 64-device toy fleet, both faulted
/// arms.
pub fn e23_rung() -> ExperimentReport {
    let global = GlobalTopologyConfig::global_small().build();
    let seed = derive(DEFAULT_SEED, "e23.rung");
    let [naive, resilient] = rung_arms(&global, seed);
    let mut table = gray_table(
        "E23 (quick rung): gray_failure preset on the 64-device toy fleet",
        "§5.2 fail-slow storm, scaled down for the CI quick subset — \
         the fault-free column doubles as the health-check-only arm's \
         yardstick here",
        &naive,
    );
    // On the rung the "yardstick" row is the naive arm itself; what the
    // gate cares about is the resilient arm's ledger on the same trace.
    table.row(&gray_row("outlier-hedge", &resilient, &naive));
    table.row(&[
        "P99 delta".to_string(),
        String::new(),
        format!(
            "{} pp",
            fx((resilient.goodput() - naive.goodput()) * 100.0, 2)
        ),
        String::new(),
        String::new(),
        format!("{}x", fx(p99_ratio(&resilient, &naive), 2)),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        if naive.trace_fingerprint == resilient.trace_fingerprint
            && naive.fault_fingerprint == resilient.fault_fingerprint
        {
            "identical".to_string()
        } else {
            "DIVERGED".to_string()
        },
    ]);
    ExperimentReport {
        id: "E23q",
        tables: vec![table],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e23_rung_is_deterministic() {
        let a = format!("{}", e23_rung());
        let b = format!("{}", e23_rung());
        assert_eq!(a, b);
        assert!(a.contains("identical"), "arms must share the trace");
    }

    #[test]
    fn e23_rung_arms_conserve_and_detector_fires() {
        let global = GlobalTopologyConfig::global_small().build();
        let seed = derive(DEFAULT_SEED, "e23.rung");
        let [naive, resilient] = rung_arms(&global, seed);
        assert_eq!(naive.unaccounted(), 0);
        assert_eq!(resilient.unaccounted(), 0);
        // Fail-slow only: nothing ever goes down, in either arm.
        assert_eq!(naive.device_downs, 0);
        assert_eq!(resilient.device_downs, 0);
        assert_eq!(naive.lost_killed, 0);
        assert_eq!(resilient.lost_killed, 0);
        // The naive arm has no detector and issues no hedges.
        assert_eq!(naive.outlier_demotions, 0);
        assert_eq!(naive.hedges_issued, 0);
        // The resilient arm demotes at least one sustained straggler.
        assert!(
            resilient.outlier_demotions > 0,
            "detector must flag the throttled devices"
        );
    }
}
