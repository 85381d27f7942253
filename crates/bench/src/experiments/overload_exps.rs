//! E26: metastable-failure defense — naive retries latch into
//! collapse, the defended stack recovers (§5 production experience at
//! planetary scale).
//!
//! Three arms replay one byte-identical ≥10⁶-request crested diurnal
//! trace against one byte-identical capacity dip:
//!
//! * **naive-retry** — unconditional client retries (no budget, no
//!   breaker, deadline-oblivious servers). The transient overload
//!   triggers retry amplification that *sustains itself after the
//!   trigger heals*: goodput stays ≥ 20 pp below its pre-trigger level
//!   for the rest of the run. That latch — degraded equilibrium after
//!   the cause is gone — is the metastable-failure signature.
//! * **budget+breaker** — retry budgets cap duplicate work at a
//!   fraction of fresh traffic, per-(ingress, pod) circuit breakers
//!   shed edges that are demonstrably failing, and deadline
//!   propagation cancels work that cannot finish. Same trigger, but
//!   goodput returns to baseline once the dip heals.
//! * **budget+breaker+autoscale** — the proactive arm on top: a
//!   forecast fitted to the diurnal curve energizes per-pod reserve
//!   devices ahead of each crest, so the reactive defenses barely
//!   fire and whole-run goodput stays near-perfect.
//!
//! Every arm shares the fleet shape, the reserve tail (physically
//! present everywhere; only the autoscaler recruits it), and a config
//! with `degraded_service_time == service_time`: the latch question
//! is about retry amplification, and the ladder's cheaper tier-2
//! fallback would otherwise triple capacity under pressure and mask
//! it. Each arm runs through [`simulate_planet`] as a single
//! uncoupled cell, so the experiment also exercises the sharded
//! driver and its timeline merge.
//!
//! [`simulate_planet`]: mtia_serving::global::simulate_planet

use mtia_core::seed::{derive, DEFAULT_SEED};
use mtia_core::SimTime;
use mtia_fleet::topology::GlobalTopologyConfig;
use mtia_serving::global::{
    build_regional_trace_crested, diurnal_crest, simulate_planet, AutoscaleConfig, CellSpec,
    GlobalConfig, GlobalFleetSpec, GlobalReport, OverloadConfig, PlanetConfig, RegionalTrace,
    RegionalTrafficConfig, RoutingPolicy,
};
use mtia_sim::faults::{FaultEvent, FaultKind, FaultPlan};

use crate::{fx, ExperimentReport, Table};

/// The E26 inputs: one trace + one fault plan shared by all three
/// arms, plus the windows and thresholds the gates judge against.
pub struct E26Scenario {
    /// Fleet shape shared by every arm (reserve tail included).
    pub spec: GlobalFleetSpec,
    /// Shared base config: production defenses, autoscaler off,
    /// degraded tier priced at full cost (see module docs).
    base: GlobalConfig,
    /// The crested diurnal trace every arm replays byte-identically.
    trace: RegionalTrace,
    /// The capacity dip every arm suffers byte-identically.
    plan: FaultPlan,
    /// Diurnal period (= horizon; one full day per run).
    period: SimTime,
    /// When the dip lands: region 0's diurnal crest.
    pub trigger: SimTime,
    /// When the dip heals — everything after this is trigger-free.
    pub heal: SimTime,
    /// Last arrival instant.
    pub horizon: SimTime,
    /// Start of the pre-trigger baseline window (skips cold start).
    warmup: SimTime,
    /// Goodput assessment window for the recovery metric.
    window: SimTime,
    /// Naive arm must sit at least this many pp below its baseline
    /// over the whole post-heal tail.
    collapse_pp: f64,
    /// Autoscaled arm's whole-run goodput floor.
    autoscale_floor: f64,
}

/// One arm's label, report, and derived goodput levels.
struct ArmResult {
    label: &'static str,
    report: GlobalReport,
    /// Pre-trigger goodput over `[warmup, trigger)`.
    baseline: f64,
    /// Post-heal goodput over `[heal, horizon)`.
    post_heal: f64,
    /// Earliest sustained return to baseline at/after `heal`.
    recovered: Option<SimTime>,
}

impl E26Scenario {
    #[allow(clippy::too_many_arguments)]
    fn build(
        tag: &str,
        topo: GlobalTopologyConfig,
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
    ) -> Self {
        let spec = topo.build().fleet_spec();
        let seed = derive(DEFAULT_SEED, tag);
        let horizon = period;
        let mut traffic = RegionalTrafficConfig::production(rate_per_region, period);
        traffic.crowd_duration = period.scale(crowd_frac);
        // A moderate crowd: the crest-pinned spike is the *kick* that
        // builds the first seconds of queue; the dip sustains the
        // overload. A 1.6× crowd would also break the autoscaled arm's
        // 99 % gate at the two non-trigger crests.
        traffic.crowd_multiplier = 1.4;
        // Little sheddable traffic: the ladder's tier-1 relief valve
        // must not be able to shed the naive arm back under capacity
        // (the latch question), nor cost the autoscaled arm its
        // goodput floor while utilization rides above `shed_enter`.
        traffic.low_priority_share = 0.05;
        // Crest-pinned crowds: the worst demand spike lands exactly on
        // the worst instant of every region's curve.
        let trace =
            build_regional_trace_crested(&traffic, spec.regions, horizon, derive(seed, "trace"));
        let mut base = GlobalConfig::production(seed);
        base.reserve_per_pod = reserve_per_pod;
        // Full-cost degraded tier: the latch must stand or fall on
        // retry amplification alone (module docs).
        base.degraded_service_time = base.service_time;
        // The trigger: a fraction of every pod's *nominal* devices
        // (never the reserve tail the autoscaler owns) dips at region
        // 0's crest and heals after `dip_window`.
        let trigger = diurnal_crest(period, 0, spec.regions);
        let nominal = spec.devices_per_pod - reserve_per_pod.min(spec.devices_per_pod - 1);
        let dip = ((nominal as f64) * dip_fraction).ceil() as u32;
        let mut plan = FaultPlan::empty(derive(seed, "plan"));
        for pod in 0..spec.pods() {
            for k in 0..dip.min(nominal) {
                plan = plan.with_event(FaultEvent {
                    at: trigger,
                    device: pod * spec.devices_per_pod + k,
                    kind: FaultKind::PodLoss,
                    duration: dip_window,
                });
            }
        }
        E26Scenario {
            spec,
            base,
            trace,
            plan,
            period,
            trigger,
            heal: trigger + dip_window,
            horizon,
            warmup,
            window,
            collapse_pp,
            autoscale_floor,
        }
    }

    /// The headline scenario: the planetary fleet (3 regions × 2 pods
    /// × 288 devices, 36 of each pod's devices held in reserve) under
    /// 700 req/s/region for one 600 s diurnal day ≈ 1.26M requests.
    ///
    /// The trigger is sized just past the latch threshold: 40.2 % of
    /// nominal capacity (92 of 228 devices per pod; 60 held in
    /// reserve) dips for 60 s at region 0's crest, leaving 816 erlangs
    /// of nominal fleet capacity against ~898 erlangs of shed-adjusted
    /// demand (2 100 req/s × 450 ms, minus the 5 % sheddable share) —
    /// overloaded enough that queues cross the 2 s deadline and retry
    /// amplification takes over, while the autoscaled arm (which can
    /// energize the reserve tail up to its forecast target) rides out
    /// the same dip at ~88 % utilization.
    pub fn production() -> Self {
        Self::build(
            "e26",
            GlobalTopologyConfig::planetary(),
            700.0,
            SimTime::from_secs(600),
            0.01,
            60,
            0.402,
            SimTime::from_secs(60),
            SimTime::from_secs(30),
            SimTime::from_secs(10),
            20.0,
            0.99,
        )
    }

    /// The quick rung: the 64-device toy fleet, same storm shape, a
    /// few thousand requests — cheap enough for the debug-mode
    /// determinism gate while still showing the latch.
    pub fn rung() -> Self {
        Self::build(
            "e26.rung",
            GlobalTopologyConfig::global_small(),
            45.0,
            SimTime::from_secs(60),
            0.1,
            2,
            0.35,
            SimTime::from_secs(20),
            SimTime::from_secs(5),
            SimTime::from_secs(5),
            10.0,
            0.90,
        )
    }

    /// Requests offered per arm (exact, from the shared trace).
    pub fn offered(&self) -> u64 {
        self.trace.len() as u64
    }

    /// The three arms over the shared trace/plan: naive retries, the
    /// reactive defenses, and the defenses plus the proactive
    /// autoscaler.
    fn arms(&self) -> Vec<(&'static str, CellSpec)> {
        let cell = |config: GlobalConfig, policy: RoutingPolicy| CellSpec {
            spec: self.spec.clone(),
            config,
            trace: self.trace.clone(),
            plan: self.plan.clone(),
            policy,
        };
        let naive = GlobalConfig {
            overload: OverloadConfig::naive(),
            ..self.base.clone()
        };
        // The planner carries 50 % headroom over the forecast instead
        // of the stock 25 %: the proactive arm's capacity margin is a
        // *policy choice*, and this scenario's dip is engineered to sit
        // past the latch threshold — a 1.25× target sags below demand
        // mid-dip, while 1.5× pins the target at the full device pool
        // through the crest and rides the dip out at ~88 % utilization.
        let autoscaled = GlobalConfig {
            autoscale: Some(AutoscaleConfig {
                headroom: 0.5,
                ..AutoscaleConfig::production(self.period)
            }),
            ..self.base.clone()
        };
        vec![
            ("naive-retry", cell(naive, RoutingPolicy::NaiveRetry)),
            (
                "budget+breaker",
                cell(self.base.clone(), RoutingPolicy::OverloadResilient),
            ),
            (
                "budget+breaker+autoscale",
                cell(autoscaled, RoutingPolicy::OverloadResilient),
            ),
        ]
    }

    /// Runs every arm to drain through the sharded planetary driver
    /// (one uncoupled cell each) and derives its goodput levels. The
    /// arms are independent, so they run as parallel tasks; results
    /// come back in arm order.
    fn run(&self) -> Vec<ArmResult> {
        mtia_core::pool::parallel_map(self.arms(), |_, (label, cell)| {
            let report = simulate_planet(
                std::slice::from_ref(&cell),
                PlanetConfig::uncoupled(SimTime::from_secs(1)),
            )
            .merged;
            let baseline = report.windowed_goodput(self.warmup, self.trigger);
            let post_heal = report.windowed_goodput(self.heal, self.horizon);
            let recovered = report.recovered_at(self.heal, self.window, baseline, 5.0);
            ArmResult {
                label,
                report,
                baseline,
                post_heal,
                recovered,
            }
        })
    }
}

fn arm_row(a: &ArmResult) -> Vec<String> {
    let r = &a.report;
    vec![
        a.label.to_string(),
        r.offered.to_string(),
        format!("{:.2}%", r.goodput() * 100.0),
        format!("{:.2}%", a.baseline * 100.0),
        format!("{:.2}%", a.post_heal * 100.0),
        a.recovered.map_or_else(
            || "never".to_string(),
            |t| format!("{}s", fx(t.as_secs_f64(), 0)),
        ),
        format!("{}/{}", r.retries_issued, r.retries_shed),
        r.breaker_opens.to_string(),
        r.cancelled_at_admission.to_string(),
        r.scale_events.to_string(),
        format!("{}/{}", r.shed, r.lost),
        format!("{:016x}/{:016x}", r.trace_fingerprint, r.fault_fingerprint),
    ]
}

fn e26_report(id: &'static str, title: &str, anchor: &str, floor: u64) -> ExperimentReport {
    let scenario = if id == "E26" {
        E26Scenario::production()
    } else {
        E26Scenario::rung()
    };
    let arms = scenario.run();
    let mut table = Table::new(
        title,
        anchor,
        &[
            "arm",
            "offered",
            "goodput",
            "pre-trigger",
            "post-heal",
            "recovered@",
            "retries iss/shed",
            "brk opens",
            "cancelled",
            "scale ev",
            "shed/lost",
            "trace/fault",
        ],
    );
    for a in &arms {
        table.row(&arm_row(a));
    }
    let naive = &arms[0];
    let defended = &arms[1];
    let scaled = &arms[2];
    // The three headline gates plus the invariants every experiment
    // carries: request conservation and one shared trace/fault pair.
    let latched = naive.post_heal <= naive.baseline - scenario.collapse_pp / 100.0
        && naive.recovered.is_none();
    let recovers = defended.recovered.is_some();
    let holds = scaled.report.goodput() >= scenario.autoscale_floor;
    let conserved = arms.iter().all(|a| a.report.unaccounted() == 0);
    let same_trace = arms.iter().all(|a| {
        a.report.trace_fingerprint == naive.report.trace_fingerprint
            && a.report.fault_fingerprint == naive.report.fault_fingerprint
    });
    table.row(&[
        "gates".to_string(),
        format!("{} (≥{})", naive.report.offered, floor),
        if naive.report.offered >= floor {
            "ok".to_string()
        } else {
            "FLOOR MISS".to_string()
        },
        format!(
            "naive {} {:.0} pp",
            if latched {
                "latched ≥"
            } else {
                "NOT LATCHED <"
            },
            scenario.collapse_pp
        ),
        if recovers {
            "defended recovered".to_string()
        } else {
            "DEFENDED STUCK".to_string()
        },
        format!(
            "autoscale {} {:.0}%",
            if holds { "holds ≥" } else { "BELOW" },
            scenario.autoscale_floor * 100.0
        ),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        if conserved {
            "conserved".to_string()
        } else {
            "UNACCOUNTED".to_string()
        },
        if same_trace {
            "shared".to_string()
        } else {
            "TRACE DRIFT".to_string()
        },
    ]);
    ExperimentReport {
        id,
        tables: vec![table],
    }
}

/// E26: the full planetary metastable-failure storm, three arms on one
/// ≥10⁶-request byte-identical trace.
pub fn e26_overload() -> ExperimentReport {
    e26_report(
        "E26",
        "E26: metastable-failure defense — naive retries latch into \
         collapse after the trigger heals; retry budgets + breakers + \
         deadline propagation recover; forecast-driven autoscaling \
         holds goodput near-perfect throughout",
        "§5 productionization: overload resilience at planetary scale. \
         One 1.26M-request crested diurnal day; 40 % of nominal \
         capacity dips for 60 s at the crest. The naive arm's post-heal \
         goodput is the metastable signature — the trigger is gone, the \
         collapse is not",
        1_000_000,
    )
}

/// One fast rung for `--filter quick`: the toy fleet, same storm and
/// same three arms — the determinism gate's overload row.
pub fn e26_rung() -> ExperimentReport {
    e26_report(
        "E26q",
        "E26 (quick rung): toy-fleet metastable storm, three arms",
        "overload defense scaled down for the CI quick subset; the \
         latch, the recovery, and the autoscaler all visible at \
         64-device scale",
        4_000,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e26_rung_is_deterministic_and_clears_its_gates() {
        let a = format!("{}", e26_rung());
        let b = format!("{}", e26_rung());
        assert_eq!(a, b);
        assert!(a.contains("conserved"), "arms must conserve requests");
        assert!(a.contains("shared"), "arms must share one trace/plan");
        assert!(
            a.contains("naive latched"),
            "rung must show the latch:\n{a}"
        );
        assert!(a.contains("defended recovered"), "rung must recover:\n{a}");
        assert!(a.contains("autoscale holds"), "rung autoscale floor:\n{a}");
    }

    #[test]
    fn e26_arms_share_the_trace_but_diverge_in_behaviour() {
        let scenario = E26Scenario::rung();
        let arms = scenario.run();
        assert_eq!(arms.len(), 3);
        let fp = arms[0].report.trace_fingerprint;
        assert!(arms.iter().all(|a| a.report.trace_fingerprint == fp));
        // The defended arms actually exercise their machinery.
        assert!(arms[0].report.retries_issued > 0, "naive arm must retry");
        assert!(
            arms[2].report.scale_events > 0,
            "autoscaled arm must move capacity"
        );
    }

    #[test]
    fn e26_production_shape_clears_the_request_floor() {
        // Sizing only — the full storm runs in release via reproduce.
        let scenario = E26Scenario::production();
        assert!(
            scenario.offered() >= 1_000_000,
            "E26 must offer ≥10⁶ requests, got {}",
            scenario.offered()
        );
        assert!(scenario.heal < scenario.horizon);
    }
}
