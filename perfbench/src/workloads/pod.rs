//! `pod`: the three per-pod event loops on the paper's serving pod, in
//! one job:
//! - `compare_failover` on the 288-device pod, over the E21 host-0 crash
//!   and the aimed chaos suite (rolling rack loss, partition at peak);
//! - `compare_policies`, the naive-vs-resilient remote/merge loop, under
//!   a seeded fault trace;
//! - a `simulate_remote_merge_replicas` rate sweep over the Fig. 5
//!   deployment.
//!
//! Why it exists: these are the hand-rolled loops that a shared DES
//! kernel would replace, and no other workload runs them. Each is sized
//! to a comparable share of the job, so a port of any one of them shows.

use mtia_core::seed::derive;
use mtia_core::SimTime;
use mtia_fleet::topology::TopologyConfig;
use mtia_serving::failover::{compare_failover, FailoverComparison, FailoverConfig};
use mtia_serving::resilience::sim::compare_policies;
use mtia_serving::resilience::ResilienceConfig;
use mtia_serving::scheduler::{simulate_remote_merge_replicas, RemoteMergeConfig};
use mtia_sim::faults::{FaultPlan, FaultPlanConfig};

use mtia_bench::chaos::{ChaosScenario, ChaosSchedule};

use super::Scale;
use crate::job::Ctx;

struct Shape {
    topology: TopologyConfig,
    shards: u32,
    resilience_devices: u32,
    resilience_rate: f64,
    resilience_horizon: SimTime,
    scheduler_rates: &'static [f64],
    scheduler_horizon: SimTime,
    scheduler_replicas: u32,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            topology: TopologyConfig::paper_server(),
            shards: 8,
            resilience_devices: 8,
            resilience_rate: 120.0,
            resilience_horizon: SimTime::from_secs(600),
            scheduler_rates: &[60.0, 80.0, 100.0, 110.0],
            scheduler_horizon: SimTime::from_secs(300),
            scheduler_replicas: 4,
        },
        Scale::Tiny => Shape {
            topology: TopologyConfig::small(),
            shards: 4,
            resilience_devices: 4,
            resilience_rate: 60.0,
            resilience_horizon: SimTime::from_secs(20),
            scheduler_rates: &[60.0, 100.0],
            scheduler_horizon: SimTime::from_secs(20),
            scheduler_replicas: 2,
        },
    }
}

/// The §6 remote/merge deployment shape shared by the resilience loop
/// and the scheduler sweep.
fn remote_merge(devices: u32) -> RemoteMergeConfig {
    RemoteMergeConfig {
        devices,
        remote_jobs_per_request: 2,
        remote_total_time: SimTime::from_millis(8),
        merge_time: SimTime::from_millis(10),
        dispatch_overhead: SimTime::from_millis(1),
    }
}

/// One job: build the pod, the schedules and the fault traces, run the
/// three loops, check conservation and trace identity, digest the
/// reports.
pub fn run(seed: u64, scale: Scale, ctx: &Ctx) {
    let s = shape(scale);
    let seed = derive(seed, "pod");
    let topo = s.topology.build();
    let failover_seed = derive(seed, "failover");
    let config = FailoverConfig::production(s.shards, 2, failover_seed);
    let mut schedules = vec![ChaosSchedule::single_host_loss(&topo, failover_seed)];
    schedules[0].scenario = ChaosScenario::SingleHostLoss {
        host: 0,
        repair: SimTime::from_secs(20),
    };
    schedules.extend(ChaosSchedule::aimed_suite(&topo, failover_seed));
    let plans: Vec<FaultPlan> = schedules.iter().map(|sc| sc.plan(&topo)).collect();

    let workload = remote_merge(s.resilience_devices);
    let resilience_seed = derive(seed, "resilience");
    let faults = FaultPlanConfig {
        dbe_per_device: 8.0,
        pcie_loss_per_device: 1.0,
        pcie_min_utilization: 0.2,
        transient_failures_per_device: 15.0,
        noc_stalls_per_device: 2.0,
        ..FaultPlanConfig::production()
    };
    let resilience_plan = FaultPlan::generate(
        &faults,
        workload.devices,
        s.resilience_horizon,
        resilience_seed,
    );
    let resilience_config = ResilienceConfig::production(workload, resilience_seed);
    ctx.end_setup();

    let failovers: Vec<FailoverComparison> =
        mtia_core::pool::parallel_map(schedules.iter().zip(&plans).collect(), |_, (sc, plan)| {
            ctx.span("failover", || {
                compare_failover(&config, &topo, plan, sc.rate_per_s, sc.horizon, sc.warmup)
            })
        });
    let policies = ctx.span("resilience", || {
        compare_policies(
            &resilience_config,
            &resilience_plan,
            s.resilience_rate,
            s.resilience_horizon,
            SimTime::from_secs(10).min(s.resilience_horizon.scale(0.1)),
        )
    });
    let sweep: Vec<_> = s
        .scheduler_rates
        .iter()
        .map(|&rate| {
            ctx.span("scheduler", || {
                simulate_remote_merge_replicas(
                    remote_merge(2),
                    rate,
                    s.scheduler_horizon,
                    s.scheduler_horizon.scale(0.05),
                    derive(seed, "scheduler"),
                    s.scheduler_replicas,
                )
            })
        })
        .collect();

    for cmp in &failovers {
        for r in [&cmp.naive, &cmp.domain_aware] {
            ctx.count("failover.requests", r.offered as f64);
        }
    }
    for r in [&policies.naive, &policies.resilient] {
        ctx.count("resilience.requests", r.offered as f64);
    }
    for stats in &sweep {
        ctx.count("scheduler.requests", stats.completed as f64);
    }

    ctx.span("check", || {
        for (sc, cmp) in schedules.iter().zip(&failovers) {
            ctx.check("pod: failover arms share one fault trace", cmp.same_trace());
            for r in [&cmp.naive, &cmp.domain_aware] {
                ctx.check(
                    "pod: failover report conserves requests",
                    r.unaccounted() == 0,
                );
                let key = format!("{}.{}", sc.name, r.placement);
                ctx.fold(
                    &key,
                    format_args!(
                        "{} {} {} {} {} {} {}",
                        r.offered,
                        r.completed,
                        r.shed,
                        r.lost,
                        r.promotions,
                        r.checkpoint_fingerprint,
                        r.request_latency.p99().as_picos()
                    ),
                );
            }
        }
        ctx.check(
            "pod: resilience arms share one fault trace",
            policies.same_trace(),
        );
        for r in [&policies.naive, &policies.resilient] {
            ctx.check(
                "pod: resilience report conserves requests",
                r.offered == r.completed + r.shed + r.dropped + r.stuck,
            );
            ctx.fold(
                r.policy,
                format_args!(
                    "{} {} {} {} {} {} {}",
                    r.offered,
                    r.completed,
                    r.shed,
                    r.dropped,
                    r.retries,
                    r.hedges,
                    r.request_latency.p99().as_picos()
                ),
            );
        }
        for (rate, stats) in s.scheduler_rates.iter().zip(&sweep) {
            ctx.check("pod: scheduler completes requests", stats.completed > 0);
            ctx.fold(
                &format!("scheduler@{rate}"),
                format_args!(
                    "{} {} {}",
                    stats.completed,
                    stats.request_latency.p99().as_picos(),
                    stats.utilization
                ),
            );
        }
    });
}
