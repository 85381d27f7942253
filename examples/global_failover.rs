//! Region-scale disaster tolerance (§3.4, §4.1, §6): the planetary
//! fleet — three regions, two 288-device pods each — loses region 0 at
//! its own diurnal traffic crest. The same byte-identical multi-region
//! trace hits two arms: static-local routing (each region round-robins
//! over its own pods, the victim's traffic black-holes) and the
//! health-aware global router (probe-driven pod health, latency- and
//! capacity-scored spillover under admission control, and a three-tier
//! graceful-degradation ladder), so the outage browns out instead.
//!
//! ```text
//! cargo run --release --example global_failover
//! ```
//!
//! Everything derives from one documented seed (`mtia::core::seed`), so
//! two runs of this binary print identical reports.

use mtia::core::seed::{derive, DEFAULT_SEED};
use mtia::fleet::topology::{GlobalLevel, GlobalTopologyConfig};
use mtia::prelude::*;
use mtia::serving::global::{
    build_regional_trace, CellSpec, GlobalConfig, GlobalReport, RegionalTrafficConfig,
};
use mtia::sim::faults::{FaultKind, FaultPlan};
use mtia_bench::chaos::{arm_cells, compare_arms, run_arms, GlobalChaosSchedule, COMPARED_ARMS};

fn describe(arm: &str, r: &GlobalReport) {
    println!(
        "  {arm:<14} goodput {:6.2}%  full/degraded {:>6}/{:<5}  shed {:>5}  \
         lost {:>5}  spillover {:>6}  P99 {:7.1} ms  recovery {:6.2}s",
        r.goodput() * 100.0,
        r.served_full,
        r.served_degraded,
        r.shed,
        r.lost,
        r.spillover,
        r.request_latency.p99().as_secs_f64() * 1e3,
        r.recovery_time.as_secs_f64(),
    );
}

fn main() {
    // ---- the region─pod tree: §3.4's pod, multiplied out to a fleet.
    let global = GlobalTopologyConfig::planetary().build();
    println!(
        "global fleet: {} regions x {} pods x {} devices = {} devices, \
         inter-region WAN {:.0} ms",
        global.region_count(),
        global.pod_count() / global.region_count(),
        global.devices_per_pod(),
        global.device_count(),
        global.wan_latency(0, 1).as_secs_f64() * 1e3,
    );

    // ---- one replayable multi-region trace: per-region diurnal curves
    // a timezone apart, plus one seeded flash crowd per region.
    let seed = derive(DEFAULT_SEED, "example.global");
    let horizon = SimTime::from_secs(120);
    let traffic = RegionalTrafficConfig::production(200.0, horizon);
    let trace = build_regional_trace(&traffic, global.region_count(), horizon, seed);
    println!(
        "regional trace: {} requests over {:.0}s (fingerprint {:016x})",
        trace.len(),
        horizon.as_secs_f64(),
        trace.fingerprint(),
    );

    // ---- region 0 goes dark at its own crest (zero phase offset means
    // the sinusoid peaks a quarter period in) for a third of the run.
    let outage_start = horizon.scale(0.25);
    let plan = global.correlated_event(
        FaultPlan::empty(seed),
        GlobalLevel::Region,
        0,
        outage_start,
        FaultKind::RegionOutage,
        horizon.scale(1.0 / 3.0),
    );
    // Each arm is one cell; both run in one call, on the same trace.
    let config = GlobalConfig::production(seed);
    let cells = arm_cells(&global, &config, &trace, &plan, COMPARED_ARMS);
    let cmp = compare_arms(&cells);
    assert!(cmp.same_trace(), "arms must replay one trace");
    println!(
        "\nregion 0 outage at its diurnal crest ({:.0}s dark):",
        horizon.scale(1.0 / 3.0).as_secs_f64()
    );
    describe("static-local", &cmp.naive);
    describe("global-router", &cmp.router);
    println!(
        "  the router holds {:.2}% goodput (+{:.2} pp over static-local) by \
         spilling {} requests cross-region",
        cmp.router.goodput() * 100.0,
        cmp.goodput_gain_pp(),
        cmp.router.spillover,
    );
    assert!(cmp.router.goodput() > cmp.naive.goodput());
    assert_eq!(cmp.naive.unaccounted(), 0);
    assert_eq!(cmp.router.unaccounted(), 0);

    // ---- the region-scale chaos suite on the 64-device toy fleet:
    // single pod loss, rolling pod loss, region outage at peak, and a
    // WAN partition that isolates capacity without destroying it.
    let toy = GlobalTopologyConfig::global_small().build();
    println!("\nregion chaos suite (both arms, toy fleet):");
    let suite = GlobalChaosSchedule::region_suite(&toy, derive(seed, "suite"));
    let cells: Vec<CellSpec> = suite
        .iter()
        .flat_map(|s| s.cells(&toy, COMPARED_ARMS))
        .collect();
    let reports = run_arms(&cells);
    for (schedule, arms) in suite.iter().zip(reports.chunks(COMPARED_ARMS.len())) {
        println!("  {}:", schedule.name);
        for r in arms {
            describe(r.policy, r);
            assert_eq!(r.unaccounted(), 0);
        }
    }
}
