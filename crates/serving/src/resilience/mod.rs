//! Resilient serving under injected faults (§5.1, §5.5).
//!
//! The paper's productionization story is that the chip only pays off if
//! the *fleet* around it absorbs faults: LPDDR bit flips (§5.1), the
//! PCIe-connectivity deadlock that hit ~1 % of servers under sustained
//! 100 % PE utilization (§5.5), and the staged firmware rollouts that
//! contain escaped defects. This module is the serving half of that
//! story:
//!
//! * [`health`] — the per-device
//!   `Healthy → Degraded → Draining → Offline → Recovering` machine;
//!   `Offline` can never reach `Healthy` without probation.
//! * [`retry`] — bounded exponential backoff with deterministic jitter,
//!   plus optional merge-job hedging.
//! * [`budget`] — fleet-wide token-bucket retry budgets: duplicates are
//!   a resource earned by fresh admissions, capping retry-storm
//!   amplification at `1 + fraction`.
//! * [`breaker`] — a deterministic adaptive circuit breaker per
//!   (ingress, pod) edge, driven by windowed success-rate and
//!   queue-delay EWMAs with half-open probation.
//! * [`outlier`] — peer-relative fail-slow detection: per-device
//!   service-time EWMAs scored against the pod median, driving
//!   demotion of gray-failing devices that still pass liveness probes.
//! * [`device`] — the [`DeviceSet`] pool every dispatch goes through:
//!   health + injected fault state + the running job and its epoch +
//!   the trailing PE-utilization estimate that arms §5.5 faults.
//! * `pod` (crate-private) — the chassis both per-pod engines run on:
//!   the kernel, the pool, fault and arrival events, admission and the
//!   request ledger.
//! * [`controller`] — SLO-aware load shedding keyed off a rolling P99.
//! * [`sim`] — the remote/merge serving engine comparing a naive FIFO
//!   baseline against the resilient policy under byte-identical
//!   [`FaultPlan`](mtia_sim::faults::FaultPlan) traces; its naive arm on
//!   an empty plan is the Fig. 5 scheduler ([`crate::scheduler`]).
//! * [`report`] — availability / success / latency reports embedding the
//!   fault-trace fingerprint.

pub mod breaker;
pub mod budget;
pub mod controller;
pub mod device;
pub mod health;
pub mod outlier;
pub(crate) mod pod;
pub mod report;
pub mod retry;
pub mod sim;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use budget::{BudgetConfig, RetryBudget};
pub use controller::{DegradationConfig, DegradationController};
pub use device::{Device, DeviceSet, FaultImpact};
pub use health::{HealthConfig, HealthMachine, HealthState};
pub use outlier::{OutlierConfig, OutlierDetector};
pub use report::{PolicyComparison, ResilienceReport};
pub use retry::{HedgePolicy, RetryPolicy};
pub use sim::{
    compare_policies, simulate_resilient_remote_merge, simulate_resilient_remote_merge_traced,
    DispatchPolicy, MaintenanceWindow, ResilienceConfig,
};
