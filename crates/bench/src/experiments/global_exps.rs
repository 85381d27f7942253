//! E22: region-scale disaster tolerance with the global router (§3.4,
//! §4.1, §6).
//!
//! The paper's serving story is a *fleet* of pods carrying production
//! recommendation traffic, so the disaster that matters above E21's
//! host crash is the loss of a whole pod or region. E22 builds the
//! planetary fleet (three regions × two `paper_server()` pods — 1728
//! devices), drives it with ≥10⁶ requests of per-region diurnal traffic
//! (timezone-staggered phases plus seeded flash crowds), and replays
//! the byte-identical trace through two arms while a full region goes
//! dark at its own diurnal crest:
//!
//! - **static-local**: each region round-robins over its own pods only
//!   — the victim region's traffic black-holes for the outage window;
//! - **global-router**: probe-driven pod health, latency/capacity
//!   scoring, cross-region spillover under admission control, and the
//!   three-tier degradation ladder — the outage browns out instead.
//!
//! E22b sweeps the four-scenario region chaos suite (single pod loss,
//! rolling pod loss, region outage at peak, WAN partition) over both
//! arms on the same fleet.

use mtia_core::seed::{derive, DEFAULT_SEED};
use mtia_core::SimTime;
use mtia_fleet::topology::{GlobalTopology, GlobalTopologyConfig};
use mtia_serving::global::{
    build_regional_trace, CellSpec, GlobalComparison, GlobalConfig, GlobalReport, RegionalTrace,
    RegionalTrafficConfig,
};
use mtia_sim::faults::FaultPlan;

use crate::chaos::{arm_cells, compare_arms, run_arms, GlobalChaosSchedule, COMPARED_ARMS};
use crate::{fx, ms, pct2, secs, ExperimentReport, Table};

/// The E22 headline inputs, shared between the experiment table and the
/// paper-claims acceptance test: the planetary fleet, a ≥10⁶-request
/// regional trace, and a region-0 outage pinned to region 0's diurnal
/// crest.
pub struct E22Scenario {
    /// The three-region planetary fleet.
    pub global: GlobalTopology,
    /// Per-region traffic shape behind `trace`.
    pub traffic: RegionalTrafficConfig,
    /// The byte-identical multi-region arrival trace.
    pub trace: RegionalTrace,
    /// The region-outage fault plan.
    pub plan: FaultPlan,
    /// Router/ladder configuration.
    pub config: GlobalConfig,
    /// Victim region.
    pub victim: u32,
    /// Outage window start.
    pub outage_start: SimTime,
    /// Outage window end.
    pub outage_end: SimTime,
}

impl E22Scenario {
    /// Builds the acceptance scenario. Region 0's sinusoid crests a
    /// quarter period into the run (zero phase offset), so the outage
    /// lands exactly on the victim's peak traffic.
    pub fn production() -> Self {
        let global = GlobalTopologyConfig::planetary().build();
        let seed = derive(DEFAULT_SEED, "e22");
        let horizon = SimTime::from_secs(600);
        // 600 req/s × 3 regions × 600 s ≈ 1.1M requests around a 47%
        // mean utilization of the 1728 slots — headroom for one
        // region's crest to spill into the survivors.
        let traffic = RegionalTrafficConfig::production(600.0, horizon);
        let trace = build_regional_trace(&traffic, global.region_count(), horizon, seed);
        let victim = 0u32;
        let outage_start = horizon.scale(0.25);
        let repair = SimTime::from_secs(120);
        let plan = global.correlated_event(
            FaultPlan::empty(derive(seed, "e22.plan")),
            mtia_fleet::topology::GlobalLevel::Region,
            victim,
            outage_start,
            mtia_sim::faults::FaultKind::RegionOutage,
            repair,
        );
        E22Scenario {
            global,
            traffic,
            trace,
            plan,
            config: GlobalConfig::production(seed),
            victim,
            outage_start,
            outage_end: outage_start + repair,
        }
    }

    /// Replays the trace through both arms, as two cells of one call.
    pub fn compare(&self) -> GlobalComparison {
        let (global, config, trace, plan) = (&self.global, &self.config, &self.trace, &self.plan);
        compare_arms(&arm_cells(global, config, trace, plan, COMPARED_ARMS))
    }

    /// Fraction of the whole trace that arrives at the victim region
    /// during the outage window — the share a static arm stands to
    /// lose.
    pub fn victim_share(&self) -> f64 {
        let during = self
            .trace
            .arrivals()
            .filter(|a| {
                a.region == self.victim && a.at >= self.outage_start && a.at < self.outage_end
            })
            .count();
        during as f64 / self.trace.len() as f64
    }
}

fn arm_row(r: &GlobalReport) -> Vec<String> {
    vec![
        r.policy.to_string(),
        pct2(r.goodput()),
        format!("{}+{}d/{}", r.served_full, r.served_degraded, r.offered),
        r.shed.to_string(),
        format!(
            "{} ({}u/{}k/{}d)",
            r.lost, r.lost_unroutable, r.lost_killed, r.lost_deadline
        ),
        r.spillover.to_string(),
        ms(r.spillover_latency.p99()),
        ms(r.request_latency.p99()),
        secs(r.recovery_time),
        pct2(r.capacity_headroom),
        format!("{:016x}/{:016x}", r.trace_fingerprint, r.fault_fingerprint),
    ]
}

fn comparison_table(title: &str, anchor: &str, cmp: &GlobalComparison) -> Table {
    let mut t = Table::new(
        title,
        anchor,
        &[
            "arm",
            "goodput",
            "served full+degraded",
            "shed",
            "lost (unroutable/killed/deadline)",
            "spillover",
            "spill P99",
            "P99",
            "recovery",
            "headroom",
            "trace/fault",
        ],
    );
    t.row(&arm_row(&cmp.naive));
    t.row(&arm_row(&cmp.router));
    t
}

/// E22: the full comparison on the 1728-device planetary fleet.
pub fn e22_global() -> ExperimentReport {
    let scenario = E22Scenario::production();
    let cmp = scenario.compare();
    let mut headline = comparison_table(
        "E22: full region outage at the victim's diurnal crest — \
         static-local vs global router (3 regions × 2 pods × 288 devices, \
         ≥10⁶ requests)",
        "§4.1/§6: a fleet of pods survives region-scale disasters by \
         routing traffic somewhere else, not by promoting standbys. The \
         victim's traffic share during the outage bounds what the static \
         arm loses; the router converts it into spillover, shed \
         low-priority work, and degraded-mode responses",
        &cmp,
    );
    headline.row(&[
        "victim share".to_string(),
        pct2(scenario.victim_share()),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        if cmp.same_trace() {
            "identical".to_string()
        } else {
            "DIVERGED".to_string()
        },
    ]);

    // E22b: the region chaos suite over both arms, every (schedule,
    // arm) pair one cell of a single call.
    let global = GlobalTopologyConfig::planetary().build();
    let seed = derive(DEFAULT_SEED, "e22.suite");
    let mut schedules = GlobalChaosSchedule::region_suite(&global, seed);
    // Scale the smoke traffic up to planetary size while keeping the
    // suite affordable next to the headline.
    for s in &mut schedules {
        s.traffic.base_rate_per_s = 300.0;
    }
    let cells: Vec<CellSpec> = schedules
        .iter()
        .flat_map(|s| s.cells(&global, COMPARED_ARMS))
        .collect();
    let reports = run_arms(&cells);
    let mut suite = Table::new(
        "E22b: region chaos suite (same trace per scenario, both arms)",
        "the region-scale blast-radius ladder: one pod, a region's pods \
         rolling, the whole region at its crest, and a WAN partition \
         that isolates capacity without destroying it",
        &[
            "scenario",
            "arm",
            "goodput",
            "shed",
            "lost",
            "spillover",
            "recovery",
            "headroom",
        ],
    );
    for (schedule, arms) in schedules.iter().zip(reports.chunks(COMPARED_ARMS.len())) {
        for r in arms {
            suite.row(&[
                schedule.name.to_string(),
                r.policy.to_string(),
                pct2(r.goodput()),
                r.shed.to_string(),
                r.lost.to_string(),
                r.spillover.to_string(),
                secs(r.recovery_time),
                pct2(r.capacity_headroom),
            ]);
        }
    }

    ExperimentReport {
        id: "E22",
        tables: vec![headline, suite],
    }
}

/// One fast rung for `--filter quick` and the determinism gate: the
/// region-outage comparison on the 64-device toy fleet.
pub fn e22_rung() -> ExperimentReport {
    let global = GlobalTopologyConfig::global_small().build();
    let seed = derive(DEFAULT_SEED, "e22.rung");
    let schedule = GlobalChaosSchedule::region_outage_at_peak(&global, seed);
    let cmp = schedule.compare(&global);
    let mut table = comparison_table(
        "E22 (quick rung): region outage at peak on the 64-device toy fleet",
        "§4.1 region-scale disaster, scaled down for the CI quick subset",
        &cmp,
    );
    table.row(&[
        "gain".to_string(),
        format!("+{} pp", fx(cmp.goodput_gain_pp(), 2)),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        if cmp.same_trace() {
            "identical".to_string()
        } else {
            "DIVERGED".to_string()
        },
    ]);
    ExperimentReport {
        id: "E22q",
        tables: vec![table],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e22_rung_is_deterministic() {
        let a = format!("{}", e22_rung());
        let b = format!("{}", e22_rung());
        assert_eq!(a, b);
        assert!(a.contains("identical"), "arms must share the trace");
    }

    #[test]
    fn e22_rung_router_beats_naive() {
        let global = GlobalTopologyConfig::global_small().build();
        let seed = derive(DEFAULT_SEED, "e22.rung");
        let cmp = GlobalChaosSchedule::region_outage_at_peak(&global, seed).compare(&global);
        assert!(cmp.same_trace());
        assert!(cmp.goodput_gain_pp() > 0.0);
        assert_eq!(cmp.naive.unaccounted(), 0);
        assert_eq!(cmp.router.unaccounted(), 0);
    }
}
