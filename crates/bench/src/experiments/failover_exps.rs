//! E21: correlated fault domains and serving-cell failover (§3.4, §5.5).
//!
//! The paper's serving pod concentrates 24 accelerators behind one
//! host's PCIe fabric (§3.4), so a single host crash is a *correlated*
//! loss of 24 devices — and §5.5's production experience is that such
//! host-scoped events dominate fleet incidents. E21 measures what that
//! blast radius costs a sharded serving cell under two designs run on
//! byte-identical fault + arrival traces:
//!
//! - **naive**: topology-blind contiguous placement (which packs every
//!   replica of a shard onto the same host) with fixed primaries and
//!   cold epoch-replay restores;
//! - **domain-aware**: anti-affinity placement across hosts/racks/power
//!   domains plus the full failover machinery — standby promotion,
//!   periodic checkpoints with warm restore, and re-replication onto
//!   spare devices.
//!
//! E21b sweeps the seeded chaos-schedule suite (single host loss,
//! rolling rack loss, NIC partition at the diurnal peak) over the same
//! two arms.

use mtia_core::seed::{derive, DEFAULT_SEED};
use mtia_core::SimTime;
use mtia_fleet::topology::{FleetTopology, TopologyConfig};
use mtia_serving::failover::{
    compare_failover, FailoverComparison, FailoverConfig, FailoverReport, PlacementPolicy,
};

use crate::chaos::ChaosSchedule;
use crate::{fx, ExperimentReport, Table};

/// The acceptance scenario: crash host 0 — the host that naive
/// contiguous packing concentrates the first shards on — for `repair`
/// seconds, `start` seconds into the run.
fn host0_crash(topo: &FleetTopology, seed: u64) -> ChaosSchedule {
    let mut schedule = ChaosSchedule::single_host_loss(topo, seed);
    schedule.scenario = crate::chaos::ChaosScenario::SingleHostLoss {
        host: 0,
        repair: SimTime::from_secs(20),
    };
    schedule
}

fn pct2(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

fn secs(t: SimTime) -> String {
    format!("{:.2} s", t.as_secs_f64())
}

fn ms(t: SimTime) -> String {
    format!("{:.1} ms", t.as_secs_f64() * 1e3)
}

fn arm_row(r: &FailoverReport) -> Vec<String> {
    vec![
        format!(
            "{}{}",
            r.placement,
            if r.failover_enabled {
                " + failover"
            } else {
                ""
            }
        ),
        pct2(r.goodput()),
        format!("{}/{}", r.completed, r.offered),
        r.lost.to_string(),
        r.shed.to_string(),
        secs(r.unavailable),
        secs(r.recovery_time),
        ms(r.request_latency.p99()),
        ms(r.incident_latency.p99()),
        format!("{}p/{}r/{}x", r.promotions, r.restores, r.rereplications),
        format!("{:016x}", r.fault_fingerprint),
    ]
}

fn comparison_table(title: &str, anchor: &str, cmp: &FailoverComparison) -> Table {
    let mut t = Table::new(
        title,
        anchor,
        &[
            "arm",
            "goodput",
            "completed",
            "lost",
            "shed",
            "unavailable",
            "recovery",
            "P99",
            "incident P99",
            "promo/restore/rerepl",
            "fault trace",
        ],
    );
    t.row(&arm_row(&cmp.naive));
    t.row(&arm_row(&cmp.domain_aware));
    t
}

/// E21: the full comparison on the paper-shape 288-device pod.
pub fn e21_failover() -> ExperimentReport {
    let topo = TopologyConfig::paper_server().build();
    let seed = derive(DEFAULT_SEED, "e21");
    let config = FailoverConfig::production(8, 2, seed);

    // Acceptance scenario: both arms replay one byte-identical
    // host-0-crash trace (identical "fault trace" fingerprints).
    let schedule = host0_crash(&topo, seed);
    let cmp = compare_failover(
        &config,
        &topo,
        &schedule.plan(&topo),
        schedule.rate_per_s,
        schedule.horizon,
        schedule.warmup,
    );
    let headline = comparison_table(
        "E21: single host crash — naive vs domain-aware placement + failover",
        "§3.4: 24 accelerators share one host's PCIe fabric, so a host \
         crash is a correlated 24-device loss; §5.5: host-scoped events \
         dominate production incidents. Naive packing co-locates shard \
         replicas on the crashed host and the shard goes dark for the \
         full repair window",
        &cmp,
    );

    // Chaos suite: each seeded scenario against both arms, fanned out
    // on the pool workers — pure (schedule, arm) cells.
    let runs: Vec<(ChaosSchedule, FailoverReport, FailoverReport)> =
        mtia_core::pool::parallel_map(ChaosSchedule::aimed_suite(&topo, seed), |_, schedule| {
            let naive = schedule.run(
                &topo,
                &config.clone().without_failover(),
                PlacementPolicy::Naive,
            );
            let aware = schedule.run(&topo, &config, PlacementPolicy::DomainAware);
            (schedule, naive, aware)
        });
    let mut suite = Table::new(
        "E21b: seeded chaos-schedule suite (same trace per scenario, both arms)",
        "§5.5 blast-radius ladder: host crash, rack-wide rolling power \
         loss, NIC partition at the diurnal traffic peak — availability \
         scored as goodput, unavailable-seconds, incident-window P99, \
         and measured recovery time",
        &[
            "scenario",
            "arm",
            "goodput",
            "lost",
            "unavailable",
            "recovery",
            "incident P99",
            "device avail",
        ],
    );
    for (schedule, naive, aware) in &runs {
        for r in [naive, aware] {
            suite.row(&[
                schedule.name.to_string(),
                format!(
                    "{}{}",
                    r.placement,
                    if r.failover_enabled {
                        " + failover"
                    } else {
                        ""
                    }
                ),
                pct2(r.goodput()),
                r.lost.to_string(),
                secs(r.unavailable),
                secs(r.recovery_time),
                ms(r.incident_latency.p99()),
                pct2(r.device_availability),
            ]);
        }
    }

    ExperimentReport {
        id: "E21",
        tables: vec![headline, suite],
    }
}

/// One fast rung for `--filter quick` and the determinism gate: the
/// host-0 crash comparison on the 16-device toy tree.
pub fn e21_rung() -> ExperimentReport {
    let topo = TopologyConfig::small().build();
    let seed = derive(DEFAULT_SEED, "e21.rung");
    let config = FailoverConfig::production(4, 2, seed);
    let mut schedule = host0_crash(&topo, seed);
    schedule.rate_per_s = 80.0;
    schedule.horizon = SimTime::from_secs(30);
    let cmp = compare_failover(
        &config,
        &topo,
        &schedule.plan(&topo),
        schedule.rate_per_s,
        schedule.horizon,
        schedule.warmup,
    );
    let mut table = comparison_table(
        "E21 (quick rung): host-0 crash on the 16-device toy tree",
        "§5.5 correlated host loss, scaled down for the CI quick subset",
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
        id: "E21q",
        tables: vec![table],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e21_meets_the_acceptance_bar() {
        let topo = TopologyConfig::paper_server().build();
        let seed = derive(DEFAULT_SEED, "e21");
        let config = FailoverConfig::production(8, 2, seed);
        let schedule = host0_crash(&topo, seed);
        let cmp = compare_failover(
            &config,
            &topo,
            &schedule.plan(&topo),
            schedule.rate_per_s,
            schedule.horizon,
            schedule.warmup,
        );
        assert!(cmp.same_trace(), "both arms must replay one trace");
        assert!(
            cmp.domain_aware.goodput() >= 0.99,
            "domain-aware goodput {} under a single host crash",
            cmp.domain_aware.goodput()
        );
        assert!(
            cmp.naive.lost > 0 && cmp.naive.unavailable > SimTime::ZERO,
            "naive packing must lose shard availability"
        );
        assert!(cmp.goodput_gain_pp() > 0.0);
        assert!(
            cmp.domain_aware.recovery_time < cmp.naive.recovery_time,
            "promotion must beat waiting out the host reboot"
        );
        assert_eq!(cmp.naive.unaccounted(), 0);
        assert_eq!(cmp.domain_aware.unaccounted(), 0);
    }

    #[test]
    fn e21_rung_is_deterministic() {
        let a = format!("{}", e21_rung());
        let b = format!("{}", e21_rung());
        assert_eq!(a, b);
        assert!(a.contains("identical"), "arms must share the fault trace");
    }
}
