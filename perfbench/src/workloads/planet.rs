//! `planet`: the E24 shape. Ten planetary cells of 1,728 devices, about
//! 1.1×10⁷ requests, fault-free under the health-aware router, advanced
//! by `simulate_planet` with the degradation ladder coupled at 1 s
//! epochs.
//!
//! Why it exists: it is the one workload dominated by trace generation,
//! the global DES and the shard barriers, with no chip work at all. A
//! faster event kernel, persistent shard workers, cost-based cell
//! assignment or lazily generated arrivals show here; chip, compile and
//! cost-cache changes should not move it.

use mtia_core::seed::{derive, derive_indexed};
use mtia_core::SimTime;
use mtia_fleet::topology::GlobalTopologyConfig;
use mtia_serving::global::{
    build_regional_trace, simulate_global, simulate_planet, CellSpec, GlobalConfig, GlobalReport,
    PlanetConfig, RegionalTrafficConfig, RoutingPolicy,
};
use mtia_sim::faults::FaultPlan;

use super::{fold_global, Scale};
use crate::job::Ctx;
use crate::procfs;

struct Shape {
    cells: u64,
    topology: GlobalTopologyConfig,
    rate_per_region: f64,
    horizon: SimTime,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            cells: 10,
            topology: GlobalTopologyConfig::planetary(),
            rate_per_region: 600.0,
            horizon: SimTime::from_secs(600),
        },
        Scale::Tiny => Shape {
            cells: 2,
            topology: GlobalTopologyConfig::global_small(),
            rate_per_region: 40.0,
            horizon: SimTime::from_secs(20),
        },
    }
}

/// Builds every cell's inputs: one fleet spec shared by all cells and
/// one seeded trace per cell.
fn build_cells(seed: u64, scale: Scale, ctx: &Ctx) -> Vec<CellSpec> {
    let s = shape(scale);
    let spec = s.topology.build().fleet_spec();
    let base = derive(seed, "planet");
    let traffic = RegionalTrafficConfig::production(s.rate_per_region, s.horizon);
    let rss_before = procfs::rss_mib();
    let cells: Vec<CellSpec> = (0..s.cells)
        .map(|i| {
            let cell_seed = derive_indexed(base, "cell", i);
            CellSpec {
                spec: spec.clone(),
                config: GlobalConfig::production(cell_seed),
                trace: ctx.span("trace", || {
                    build_regional_trace(&traffic, spec.regions, s.horizon, cell_seed)
                }),
                plan: FaultPlan::empty(derive(cell_seed, "plan")),
                policy: RoutingPolicy::HealthAware,
            }
        })
        .collect();
    ctx.count("trace.rss_mb", procfs::rss_mib() - rss_before);
    ctx.count(
        "trace.requests",
        cells.iter().map(|c| c.trace.len() as f64).sum(),
    );
    cells
}

/// One job: build the cells, replay the planet, check and digest it.
pub fn run(seed: u64, scale: Scale, ctx: &Ctx) {
    let cells = build_cells(seed, scale, ctx);
    ctx.end_setup();
    let report = ctx.timed("des_wall_s", || {
        ctx.span("des", || {
            simulate_planet(&cells, PlanetConfig::production())
        })
    });
    ctx.count("des.requests", report.merged.offered as f64);
    ctx.count("des.events", report.merged.events as f64);
    ctx.span("check", || {
        let offered: u64 = cells.iter().map(|c| c.trace.len() as u64).sum();
        ctx.check(
            "planet: merge offers every traced request",
            report.merged.offered == offered,
        );
        ctx.check(
            "planet: merged report conserves requests",
            report.merged.unaccounted() == 0,
        );
        for (i, (cell, r)) in cells.iter().zip(&report.cells).enumerate() {
            ctx.check(
                "planet: cell report conserves requests",
                r.unaccounted() == 0,
            );
            ctx.check(
                "planet: cell replays its own trace",
                r.trace_fingerprint == cell.trace.fingerprint(),
            );
            ctx.fold(&format!("cell{i}.offered"), r.offered);
            ctx.fold(&format!("cell{i}.served_full"), r.served_full);
            ctx.fold(&format!("cell{i}.events"), r.events);
        }
        fold_global(ctx, "merged", &report.merged);
    });
}

/// Host seconds of replaying every cell alone through `simulate_global`,
/// one after another: the serial work `simulate_planet` divides among
/// its threads. Inputs are built first and not timed.
pub fn serial_cell_seconds(seed: u64, scale: Scale) -> f64 {
    let cells = build_cells(seed, scale, &Ctx::new(false));
    let start = std::time::Instant::now();
    let reports: Vec<GlobalReport> = cells
        .iter()
        .map(|c| simulate_global(&c.spec, &c.config, &c.trace, &c.plan, c.policy))
        .collect();
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(reports);
    secs
}
