//! E24: planetary replay throughput — the cell-sharded DES at
//! ≥10⁷ requests (§4.1 at fleet scale, plus the perf trajectory).
//!
//! E22/E23 established *what* the global router does under disasters;
//! E24 establishes *how fast* the simulator itself replays a planet so
//! perf regressions in the DES core are caught the same way behavioural
//! regressions are. Ten serving cells — each a full E23-scale planetary
//! fleet (3 regions × 2 pods × 288 devices) with its own ≥10⁶-request
//! diurnal trace — are advanced in parallel by
//! [`simulate_planet`] with fleet-wide ladder coupling at 1 s epoch
//! barriers, then merged deterministically.
//!
//! The table below is pure simulation output (counts and
//! fingerprints): byte-identical at any thread count, so the entry sits
//! in the determinism gate like every other experiment. The *rates* —
//! events/sec, wall time, peak RSS — are measured around the run by
//! `reproduce --bench-perf` via `mtia_core::perfcount`, and regressions
//! are gated by `--perf-baseline` in CI. Keeping time out of the report
//! is what lets one artifact serve both gates.
//!
//! [`simulate_planet`]: mtia_serving::global::simulate_planet

use mtia_core::seed::{derive, derive_indexed, DEFAULT_SEED};
use mtia_core::SimTime;
use mtia_fleet::topology::GlobalTopologyConfig;
use mtia_serving::global::{
    build_regional_trace, simulate_planet, CellSpec, GlobalConfig, PlanetConfig, PlanetReport,
    RegionalTrafficConfig, RoutingPolicy,
};
use mtia_sim::faults::FaultPlan;

use crate::{fx, ExperimentReport, Table};

/// The E24 inputs: a vector of self-contained serving cells plus the
/// epoch/coupling configuration, shared between the experiment table
/// and the acceptance tests.
pub struct E24Scenario {
    /// One complete global-DES input tuple per cell.
    pub cells: Vec<CellSpec>,
    /// Epoch cadence and ladder coupling.
    pub planet: PlanetConfig,
}

impl E24Scenario {
    /// Builds `cells` independent cells on the given fleet shape, each
    /// with its own trace seeded by cell index, fault-free under the
    /// health-aware router. Fault-free is deliberate: E24 is the
    /// throughput yardstick, so its event mix should be the steady
    /// state the fleet spends almost all wall-clock time in, not a
    /// disaster transient (E22/E23 own those).
    fn build(
        tag: &str,
        cells: u64,
        config: GlobalTopologyConfig,
        rate_per_region: f64,
        horizon: SimTime,
    ) -> Self {
        let spec = config.build().fleet_spec();
        let base = derive(DEFAULT_SEED, tag);
        let traffic = RegionalTrafficConfig::production(rate_per_region, horizon);
        let cells = (0..cells)
            .map(|i| {
                let seed = derive_indexed(base, "cell", i);
                CellSpec {
                    spec: spec.clone(),
                    config: GlobalConfig::production(seed),
                    trace: build_regional_trace(&traffic, spec.regions, horizon, seed),
                    plan: FaultPlan::empty(derive(seed, "plan")),
                    policy: RoutingPolicy::HealthAware,
                }
            })
            .collect();
        E24Scenario {
            cells,
            planet: PlanetConfig::production(),
        }
    }

    /// The headline scenario: 10 planetary cells × (600 req/s × 3
    /// regions × 600 s) ≈ 10.8M requests on 17 280 devices total.
    pub fn production() -> Self {
        Self::build(
            "e24",
            10,
            GlobalTopologyConfig::planetary(),
            600.0,
            SimTime::from_secs(600),
        )
    }

    /// The quick rung: 4 toy-fleet cells with enough traffic (~70k
    /// requests) that its events/sec row in `--bench-perf` is above
    /// timing noise, while staying cheap enough for the debug-mode
    /// determinism gate.
    pub fn rung() -> Self {
        Self::build(
            "e24.rung",
            4,
            GlobalTopologyConfig::global_small(),
            150.0,
            SimTime::from_secs(60),
        )
    }

    /// Requests offered across all cells (exact, from the traces).
    pub fn offered(&self) -> u64 {
        self.cells.iter().map(|c| c.trace.len() as u64).sum()
    }

    /// Replays every cell to drain and merges.
    pub fn run(&self) -> PlanetReport {
        simulate_planet(&self.cells, self.planet)
    }
}

fn planet_row(label: &str, r: &mtia_serving::global::GlobalReport) -> Vec<String> {
    vec![
        label.to_string(),
        r.offered.to_string(),
        format!("{:.2}%", r.goodput() * 100.0),
        r.shed.to_string(),
        r.lost.to_string(),
        r.events.to_string(),
        format!("{}", fx(r.events as f64 / r.offered.max(1) as f64, 2)),
        format!("{:016x}/{:016x}", r.trace_fingerprint, r.fault_fingerprint),
    ]
}

fn planet_table(title: &str, anchor: &str, report: &PlanetReport) -> Table {
    let mut t = Table::new(
        title,
        anchor,
        &[
            "cell",
            "offered",
            "goodput",
            "shed",
            "lost",
            "events",
            "events/request",
            "trace/fault",
        ],
    );
    for (i, cell) in report.cells.iter().enumerate() {
        t.row(&planet_row(&format!("cell {i}"), cell));
    }
    t.row(&planet_row("merged", &report.merged));
    t
}

fn e24_report(id: &'static str, title: &str, anchor: &str, floor: u64) -> ExperimentReport {
    let scenario = if id == "E24" {
        E24Scenario::production()
    } else {
        E24Scenario::rung()
    };
    let report = scenario.run();
    let mut table = planet_table(title, anchor, &report);
    table.row(&[
        "gates".to_string(),
        format!(
            "{} (≥{} {})",
            report.merged.offered,
            floor,
            if report.merged.offered >= floor {
                "ok"
            } else {
                "FAIL"
            }
        ),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        if report.merged.unaccounted() == 0 {
            "conserved".to_string()
        } else {
            "UNACCOUNTED".to_string()
        },
    ]);
    ExperimentReport {
        id,
        tables: vec![table],
    }
}

/// E24: the full ≥10⁷-request planetary replay, sharded by cell.
pub fn e24_planet() -> ExperimentReport {
    e24_report(
        "E24",
        "E24: planetary replay throughput — 10 serving cells × 1 728 \
         devices, ≥10⁷ requests, cell-sharded DES with ladder coupling \
         at 1 s epochs",
        "§4.1 fleet-of-pods at planetary scale: the replay whose \
         events/sec figure anchors the perf trajectory; wall-clock \
         rates are measured (and regression-gated) by --bench-perf, \
         never recorded here, so the table stays byte-identical at any \
         thread count",
        10_000_000,
    )
}

/// One fast rung for `--filter quick`: 4 toy-fleet cells, same driver,
/// same merge — the determinism gate and the perf gate's stable
/// events/sec row.
pub fn e24_rung() -> ExperimentReport {
    e24_report(
        "E24q",
        "E24 (quick rung): 4-cell toy-fleet planetary replay",
        "cell-sharded DES scaled down for the CI quick subset; doubles \
         as the regression-gated events/sec row in --bench-perf",
        50_000,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e24_rung_is_deterministic() {
        let a = format!("{}", e24_rung());
        let b = format!("{}", e24_rung());
        assert_eq!(a, b);
        assert!(a.contains("conserved"), "merge must conserve requests");
        assert!(a.contains("ok"), "rung must clear its offered floor");
    }

    #[test]
    fn e24_rung_never_rolls_back() {
        // The rung's fleet floor flips every one to four epochs, so
        // its windows never speculate far enough to mispredict.
        assert_eq!(E24Scenario::rung().run().rollbacks, 0);
    }

    #[test]
    fn e24_rung_cells_see_distinct_traffic() {
        let scenario = E24Scenario::rung();
        let fingerprints: std::collections::BTreeSet<u64> = scenario
            .cells
            .iter()
            .map(|c| c.trace.fingerprint())
            .collect();
        assert_eq!(fingerprints.len(), scenario.cells.len());
        assert!(scenario.offered() >= 50_000);
    }

    #[test]
    fn e24_production_shape_clears_the_request_floor() {
        // Sizing only — the full replay runs in release via reproduce.
        let scenario = E24Scenario::production();
        assert_eq!(scenario.cells.len(), 10);
        assert!(
            scenario.offered() >= 10_000_000,
            "E24 must offer ≥10⁷ requests, got {}",
            scenario.offered()
        );
    }
}
