//! The serving-stack simulation: request arrivals, remote/merge job
//! scheduling on shared accelerators (Fig. 5), host-resource limits in
//! the 24-accelerator server (§3.4), latency-percentile tracking against
//! P99 SLOs, and the §5.6 live A/B testing harness.
//!
//! # Quick tour
//!
//! ```
//! use mtia_serving::scheduler::{simulate_remote_merge, RemoteMergeConfig};
//! use mtia_serving::traffic::PoissonArrivals;
//! use mtia_core::SimTime;
//! use rand::SeedableRng;
//!
//! let config = RemoteMergeConfig {
//!     devices: 2,
//!     remote_jobs_per_request: 4,
//!     remote_total_time: SimTime::from_millis(8),
//!     merge_time: SimTime::from_millis(10),
//!     dispatch_overhead: SimTime::from_millis(1),
//! };
//! let mut arrivals =
//!     PoissonArrivals::new(40.0, rand::rngs::StdRng::seed_from_u64(1));
//! let stats = simulate_remote_merge(
//!     config, &mut arrivals, SimTime::from_secs(20), SimTime::from_secs(2));
//! assert!(stats.request_latency.p99() > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod cluster;
pub mod failover;
pub mod global;
pub mod resilience;
pub mod scheduler;
pub mod sdc;
pub mod traffic;

pub use ab::{normalized_entropy, run_ab_test, AbReport, PlatformArm};
pub use failover::{
    compare_failover, place_replicas, simulate_cell_failover, simulate_cell_failover_traced,
    FailoverComparison, FailoverConfig, FailoverReport, FaultDomains, PlacementPolicy,
};
pub use global::{
    build_regional_trace, simulate_global, simulate_global_traced, GlobalArrival, GlobalComparison,
    GlobalConfig, GlobalFleetSpec, GlobalReport, GrayResilienceConfig, LadderConfig, Priority,
    RegionalTrace, RegionalTrafficConfig, RoutingPolicy,
};
pub use mtia_core::telemetry::LatencyHistogram;
pub use resilience::{
    compare_policies, simulate_resilient_remote_merge, simulate_resilient_remote_merge_traced,
    DeviceSet, DispatchPolicy, HealthConfig, HealthMachine, HealthState, HedgePolicy,
    MaintenanceWindow, OutlierConfig, OutlierDetector, PolicyComparison, ResilienceConfig,
    ResilienceReport, RetryPolicy,
};
pub use scheduler::{
    max_rate_under_slo, simulate_remote_merge, simulate_remote_merge_traced, RemoteMergeConfig,
    RemoteMergeStats,
};
pub use sdc::{
    run_sdc_sim, DetectionPolicy, DeviceImage, ImageSpec, InlineRepair, QuarantineDecision,
    QuarantineHandler, QuarantineRequest, SdcReport, SdcSimConfig,
};
pub use traffic::{ArrivalProcess, FlashCrowd, PoissonArrivals, RegionalArrivals};
