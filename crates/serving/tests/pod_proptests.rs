//! Property tests over both per-pod engines, the cell-failover loop and
//! the remote/merge resilience loop, under `FaultPlan::generate` stress
//! plans plus one correlated host-scoped fault, on small pools, random
//! seeds and random arrival rates:
//! - every failover arm accounts for every request (`unaccounted() == 0`);
//! - every resilience arm conserves requests
//!   (`offered == completed + shed + dropped + stuck`);
//! - a traced run returns exactly the untraced run's report.

use mtia_core::telemetry::Telemetry;
use mtia_core::SimTime;
use mtia_serving::failover::{
    simulate_cell_failover, simulate_cell_failover_traced, FailoverConfig, FaultDomains,
    PlacementPolicy,
};
use mtia_serving::resilience::sim::{
    simulate_resilient_remote_merge, simulate_resilient_remote_merge_traced, DispatchPolicy,
    MaintenanceWindow, ResilienceConfig,
};
use mtia_serving::scheduler::RemoteMergeConfig;
use mtia_serving::traffic::PoissonArrivals;
use mtia_sim::faults::{DeviceId, FaultKind, FaultPlan, FaultPlanConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const HORIZON: SimTime = SimTime::from_secs(20);
const WARMUP: SimTime = SimTime::from_secs(1);

/// `hosts` hosts of four devices, two hosts to a rack, one power domain.
struct Hosts(u32);

impl FaultDomains for Hosts {
    fn devices(&self) -> u32 {
        self.0 * 4
    }
    fn host_of(&self, d: DeviceId) -> u32 {
        d / 4
    }
    fn rack_of(&self, d: DeviceId) -> u32 {
        d / 8
    }
    fn power_domain_of(&self, _: DeviceId) -> u32 {
        0
    }
}

/// A stress plan over `devices` (with NIC flaps in two of three plans),
/// plus one correlated fault decoded from `word`: a host crash, rack
/// power loss or NIC partition on one aligned group of four devices.
fn stress_plan(devices: u32, seed: u64, word: u64) -> FaultPlan {
    let config = FaultPlanConfig {
        nic_flaps_per_device: (word % 3) as f64,
        ..FaultPlanConfig::stress()
    };
    let kind = match (word >> 2) % 3 {
        0 => FaultKind::HostCrash,
        1 => FaultKind::RackPowerLoss,
        _ => FaultKind::NicPartition,
    };
    let first = ((word >> 4) as u32 % devices) / 4 * 4;
    FaultPlan::generate(&config, devices, HORIZON, seed).with_correlated_event(
        first..(first + 4).min(devices),
        SimTime::from_millis(1_000 + (word >> 8) % 15_000),
        kind,
        SimTime::from_millis(200 + (word >> 24) % 8_000),
    )
}

fn arrivals(rate: f64, seed: u64) -> PoissonArrivals<StdRng> {
    PoissonArrivals::new(rate, StdRng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both failover arms account for every request under any stress
    /// plan, and tracing does not change the report.
    #[test]
    fn failover_arms_conserve_requests_traced_or_not(
        hosts in 2u32..5,
        shards in 1u32..5,
        rate in 5.0f64..150.0,
        seed in any::<u64>(),
        word in any::<u64>(),
    ) {
        let domains = Hosts(hosts);
        let plan = stress_plan(domains.devices(), seed, word);
        let config = FailoverConfig::production(shards, 2, seed);
        for (config, placement) in [
            (config.clone().without_failover(), PlacementPolicy::Naive),
            (config, PlacementPolicy::DomainAware),
        ] {
            let untraced = simulate_cell_failover(
                &config, placement, &domains, &mut arrivals(rate, seed), &plan, HORIZON, WARMUP,
            );
            prop_assert_eq!(untraced.unaccounted(), 0, "{:?}", untraced);
            let mut tel = Telemetry::new_enabled();
            let traced = simulate_cell_failover_traced(
                &config,
                placement,
                &domains,
                &mut arrivals(rate, seed),
                &plan,
                HORIZON,
                WARMUP,
                &mut tel,
            );
            prop_assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
        }
    }

    /// Both resilience arms conserve requests under any stress plan and
    /// maintenance window, and tracing does not change the report.
    #[test]
    fn resilience_arms_conserve_requests_traced_or_not(
        devices in 1u32..7,
        rate in 5.0f64..150.0,
        seed in any::<u64>(),
        word in any::<u64>(),
    ) {
        let workload = RemoteMergeConfig {
            devices,
            remote_jobs_per_request: 1 + (word % 3) as u32,
            remote_total_time: SimTime::from_millis(8),
            merge_time: SimTime::from_millis(10),
            dispatch_overhead: SimTime::from_millis(1),
        };
        let mut config = ResilienceConfig::production(workload, seed);
        config.maintenance = vec![MaintenanceWindow {
            device: (word >> 40) as u32 % devices,
            start: SimTime::from_millis(500 + (word >> 8) % 15_000),
            duration: SimTime::from_millis(100 + (word >> 24) % 4_000),
        }];
        let plan = stress_plan(devices, seed, word);
        for policy in [DispatchPolicy::Naive, DispatchPolicy::Resilient] {
            let untraced = simulate_resilient_remote_merge(
                &config, policy, &mut arrivals(rate, seed), &plan, HORIZON, WARMUP,
            );
            let r = &untraced;
            prop_assert_eq!(r.offered, r.completed + r.shed + r.dropped + r.stuck, "{:?}", r);
            let mut tel = Telemetry::new_enabled();
            let traced = simulate_resilient_remote_merge_traced(
                &config, policy, &mut arrivals(rate, seed), &plan, HORIZON, WARMUP, &mut tel,
            );
            prop_assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
        }
    }
}
