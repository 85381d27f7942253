//! `overload`: the E26 shape. One crested diurnal trace of about 1.27 M
//! requests meets a 36 % capacity dip at region 0's crest. Three arms run
//! on the same trace and fault plan, each as one uncoupled cell:
//! naive-retry, budget+breaker, and budget+breaker+autoscale.
//!
//! Why it exists: it drives the same global DES as `planet` with a
//! different event mix (retries, admission cancellations, breaker edges,
//! autoscaling) and no cell fan-out. A change that speeds up `planet`'s
//! fan-out but raises the cost per event shows as a loss here; running
//! the arms as parallel tasks, or a defenses refactor, shows as a gain.
//!
//! The arms are rebuilt from the public `serving::global` API with the
//! same inputs as the E26 experiment, whose arms are private.

use mtia_core::seed::derive;
use mtia_core::SimTime;
use mtia_fleet::topology::GlobalTopologyConfig;
use mtia_serving::global::{
    build_regional_trace_crested, diurnal_crest, simulate_planet, AutoscaleConfig, CellSpec,
    GlobalConfig, GlobalReport, OverloadConfig, PlanetConfig, RegionalTrafficConfig, RoutingPolicy,
};
use mtia_sim::faults::{FaultEvent, FaultKind, FaultPlan};

use super::{fold_global, Scale};
use crate::job::Ctx;
use crate::procfs;

/// The E26 scenario constants (production and quick-rung sizes).
struct Shape {
    topology: GlobalTopologyConfig,
    rate_per_region: f64,
    period: SimTime,
    crowd_frac: f64,
    reserve_per_pod: u32,
    dip_fraction: f64,
    dip_window: SimTime,
    warmup: SimTime,
    window: SimTime,
    collapse_pp: f64,
    autoscale_floor: f64,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            topology: GlobalTopologyConfig::planetary(),
            rate_per_region: 700.0,
            period: SimTime::from_secs(600),
            crowd_frac: 0.01,
            reserve_per_pod: 60,
            // E26 dips 40.2 % of nominal capacity. At that size the naive
            // arm's latch has two depths, chosen by the trace: about one
            // seed in five collapses to 0.2 % post-heal goodput with 21 %
            // more events and 35 % more memory than the others. At 36 %
            // every seed tried (65) latches at 36.6 %, so the workload's
            // cost does not depend on which seed the run draws.
            dip_fraction: 0.36,
            dip_window: SimTime::from_secs(60),
            warmup: SimTime::from_secs(30),
            window: SimTime::from_secs(10),
            collapse_pp: 20.0,
            autoscale_floor: 0.99,
        },
        Scale::Tiny => Shape {
            topology: GlobalTopologyConfig::global_small(),
            rate_per_region: 45.0,
            period: SimTime::from_secs(60),
            crowd_frac: 0.1,
            reserve_per_pod: 2,
            dip_fraction: 0.35,
            dip_window: SimTime::from_secs(20),
            warmup: SimTime::from_secs(5),
            window: SimTime::from_secs(5),
            collapse_pp: 10.0,
            autoscale_floor: 0.90,
        },
    }
}

/// The arm names, in run order, with the host-time metric each reports.
const ARMS: [(&str, &str); 3] = [
    ("naive-retry", "overload.naive_retry_s"),
    ("budget+breaker", "overload.budget_breaker_s"),
    ("budget+breaker+autoscale", "overload.autoscale_s"),
];

/// Builds the three arms' cells over one shared trace and dip.
fn build_arms(seed: u64, s: &Shape, ctx: &Ctx) -> Vec<CellSpec> {
    let spec = s.topology.build().fleet_spec();
    let seed = derive(seed, "overload");
    let mut traffic = RegionalTrafficConfig::production(s.rate_per_region, s.period);
    traffic.crowd_duration = s.period.scale(s.crowd_frac);
    traffic.crowd_multiplier = 1.4;
    traffic.low_priority_share = 0.05;
    let rss_before = procfs::rss_mib();
    let trace = ctx.span("trace", || {
        build_regional_trace_crested(&traffic, spec.regions, s.period, derive(seed, "trace"))
    });
    ctx.count("trace.rss_mb", procfs::rss_mib() - rss_before);
    ctx.count("trace.requests", trace.len() as f64);

    let mut base = GlobalConfig::production(seed);
    base.reserve_per_pod = s.reserve_per_pod;
    base.degraded_service_time = base.service_time;
    let trigger = diurnal_crest(s.period, 0, spec.regions);
    let nominal = spec.devices_per_pod - s.reserve_per_pod.min(spec.devices_per_pod - 1);
    let dip = ((nominal as f64) * s.dip_fraction).ceil() as u32;
    let mut plan = FaultPlan::empty(derive(seed, "plan"));
    for pod in 0..spec.pods() {
        for k in 0..dip.min(nominal) {
            plan = plan.with_event(FaultEvent {
                at: trigger,
                device: pod * spec.devices_per_pod + k,
                kind: FaultKind::PodLoss,
                duration: s.dip_window,
            });
        }
    }

    let naive = GlobalConfig {
        overload: OverloadConfig::naive(),
        ..base.clone()
    };
    let autoscaled = GlobalConfig {
        autoscale: Some(AutoscaleConfig {
            headroom: 0.5,
            ..AutoscaleConfig::production(s.period)
        }),
        ..base.clone()
    };
    [
        (naive, RoutingPolicy::NaiveRetry),
        (base, RoutingPolicy::OverloadResilient),
        (autoscaled, RoutingPolicy::OverloadResilient),
    ]
    .into_iter()
    .map(|(config, policy)| CellSpec {
        spec: spec.clone(),
        config,
        trace: trace.clone(),
        plan: plan.clone(),
        policy,
    })
    .collect()
}

/// One job: build the shared trace and dip, replay the three arms one
/// after another, check the E26 gates and digest the reports.
pub fn run(seed: u64, scale: Scale, ctx: &Ctx) {
    let s = shape(scale);
    let cells = build_arms(seed, &s, ctx);
    ctx.end_setup();
    let reports: Vec<GlobalReport> = cells
        .iter()
        .zip(ARMS)
        .map(|(cell, (_, metric))| {
            ctx.timed(metric, || {
                ctx.span("des", || {
                    simulate_planet(
                        std::slice::from_ref(cell),
                        PlanetConfig::uncoupled(SimTime::from_secs(1)),
                    )
                    .merged
                })
            })
        })
        .collect();
    for r in &reports {
        ctx.count("des.requests", r.offered as f64);
        ctx.count("des.events", r.events as f64);
        ctx.count("overload.retries_issued", r.retries_issued as f64);
        ctx.count(
            "overload.cancelled_at_admission",
            r.cancelled_at_admission as f64,
        );
        ctx.count("overload.breaker_opens", r.breaker_opens as f64);
    }

    ctx.span("check", || {
        let trigger = diurnal_crest(s.period, 0, cells[0].spec.regions);
        let heal = trigger + s.dip_window;
        let baseline = |r: &GlobalReport| r.windowed_goodput(s.warmup, trigger);
        let recovered = |r: &GlobalReport| r.recovered_at(heal, s.window, baseline(r), 5.0);
        let (naive, defended, scaled) = (&reports[0], &reports[1], &reports[2]);
        ctx.check(
            "overload: naive retries latch after the dip heals",
            naive.windowed_goodput(heal, s.period) <= baseline(naive) - s.collapse_pp / 100.0
                && recovered(naive).is_none(),
        );
        ctx.check(
            "overload: budget+breaker recovers",
            recovered(defended).is_some(),
        );
        ctx.check(
            "overload: autoscale holds its goodput floor",
            scaled.goodput() >= s.autoscale_floor,
        );
        for ((name, _), r) in ARMS.iter().zip(&reports) {
            ctx.check("overload: arm conserves requests", r.unaccounted() == 0);
            ctx.check(
                "overload: arms share one trace and fault plan",
                r.trace_fingerprint == naive.trace_fingerprint
                    && r.fault_fingerprint == naive.fault_fingerprint,
            );
            fold_global(ctx, name, r);
        }
    });
}
