//! Region-scale serving: a health-aware global router over many pods.
//!
//! Everything below the pod — shards, replicas, standby promotion — is
//! the `failover` module's business. This module owns the level above:
//! a fleet of pods grouped into regions, carrying per-region diurnal
//! traffic, surviving *pod* and *region* scale disasters
//! ([`FaultKind::PodLoss`], [`FaultKind::RegionOutage`],
//! [`FaultKind::WanPartition`]) by routing traffic somewhere else
//! rather than by promoting a standby.
//!
//! Three cooperating mechanisms (§4.1's fleet-of-pods serving story):
//!
//! * **health-aware routing** — every pod runs a probe-driven
//!   [`HealthMachine`] (the PR-1 state machine, reused at pod
//!   granularity): probes fail while the pod has zero up devices, the
//!   machine walks Healthy → Degraded → Offline, and a restored pod
//!   must pass probation (`Recovering`) before it takes full traffic
//!   again. The router scores every reachable, dispatchable pod by
//!   configured WAN latency plus an instantaneous queue estimate and
//!   picks the cheapest — so traffic drains away from a dying region
//!   and returns gradually, not as a thundering herd.
//! * **spillover admission control** — cross-region failover is only
//!   admitted into pods with utilization below
//!   [`GlobalConfig::spillover_max_utilization`]: a region outage must
//!   not be allowed to brown out the *surviving* regions.
//! * **a three-tier degradation ladder** — full service → shed
//!   low-priority requests → serve the remainder in a cheaper degraded
//!   mode ([`GlobalConfig::degraded_service_time`]). Tier transitions
//!   follow global utilization with hysteresis, so a region loss
//!   *browns out* (some requests degraded, low-priority shed) instead
//!   of blacking out (requests lost).
//!
//! The comparison methodology is the same as `compare_failover`: one
//! byte-identical regional arrival trace ([`RegionalTrace`], with
//! per-region timezone phase offsets and flash crowds) and one fault
//! plan are replayed through a static-local arm and the router arm,
//! each arm one cell of an uncoupled [`simulate_planet`] call;
//! [`GlobalComparison::same_trace`] witnesses the identity via both
//! fingerprints.
//!
//! [`FaultKind::PodLoss`]: mtia_sim::faults::FaultKind::PodLoss
//! [`FaultKind::RegionOutage`]: mtia_sim::faults::FaultKind::RegionOutage
//! [`FaultKind::WanPartition`]: mtia_sim::faults::FaultKind::WanPartition
//! [`HealthMachine`]: crate::resilience::HealthMachine

pub mod autoscale;
mod report;
pub mod shard;
mod sim;

pub use report::{GlobalComparison, GlobalReport, TimelineBucket};
pub use shard::{fold_fingerprints, simulate_planet, CellSpec, PlanetConfig, PlanetReport};
pub use sim::{simulate_global, simulate_global_traced};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mtia_core::error::ConfigError;
use mtia_core::fnv::Fnv1a;
use mtia_core::pool;
use mtia_core::seed::derive_indexed;
use mtia_core::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::resilience::breaker::BreakerConfig;
use crate::resilience::budget::BudgetConfig;
use crate::resilience::outlier::OutlierConfig;
use crate::resilience::retry::{HedgePolicy, RetryPolicy};
use crate::resilience::HealthConfig;
use crate::traffic::{ArrivalProcess, FlashCrowd, RegionalArrivals};
use mtia_sim::faults::DeviceId;

/// The pod/region shape the global router serves, as plain data so the
/// router stays independent of how the fleet crate models topology
/// (`mtia_fleet::topology::GlobalTopology` converts into this).
///
/// Pods are dense `0..pods()`; device ids are dense and contiguous
/// within each pod (`devices_per_pod` per pod), matching the arithmetic
/// fault-domain encoding the rest of the stack uses.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalFleetSpec {
    /// Region index of each pod (length = pod count).
    pub pod_regions: Vec<u32>,
    /// Number of regions.
    pub regions: u32,
    /// Devices per pod (uniform).
    pub devices_per_pod: u32,
    /// `wan[a][b]`: one-way inter-region latency; `ZERO` on the
    /// diagonal.
    pub wan: Vec<Vec<SimTime>>,
}

impl GlobalFleetSpec {
    /// A symmetric fleet: `regions × pods_per_region` pods with a
    /// uniform one-way inter-region latency.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] if any dimension is zero.
    pub fn symmetric(
        regions: u32,
        pods_per_region: u32,
        devices_per_pod: u32,
        inter_region: SimTime,
    ) -> Result<Self, ConfigError> {
        if regions == 0 || pods_per_region == 0 || devices_per_pod == 0 {
            return Err(ConfigError::OutOfRange {
                what: "fleet dimensions",
                valid: "regions, pods per region and devices per pod all > 0",
            });
        }
        let pod_regions = (0..regions)
            .flat_map(|r| std::iter::repeat_n(r, pods_per_region as usize))
            .collect();
        let wan = (0..regions)
            .map(|a| {
                (0..regions)
                    .map(|b| if a == b { SimTime::ZERO } else { inter_region })
                    .collect()
            })
            .collect();
        Ok(GlobalFleetSpec {
            pod_regions,
            regions,
            devices_per_pod,
            wan,
        })
    }

    /// Total pods.
    pub fn pods(&self) -> u32 {
        self.pod_regions.len() as u32
    }

    /// Total devices across the fleet.
    pub fn devices(&self) -> u32 {
        self.pods() * self.devices_per_pod
    }

    /// Region of pod `pod`.
    pub fn region_of_pod(&self, pod: u32) -> u32 {
        self.pod_regions[pod as usize]
    }

    /// Pod owning device `device`.
    pub fn pod_of_device(&self, device: DeviceId) -> u32 {
        device / self.devices_per_pod
    }

    /// Pods homed in region `region`, ascending.
    pub fn pods_in_region(&self, region: u32) -> Vec<u32> {
        (0..self.pods())
            .filter(|&p| self.pod_regions[p as usize] == region)
            .collect()
    }

    /// One-way WAN latency between two regions.
    pub fn wan_latency(&self, a: u32, b: u32) -> SimTime {
        self.wan[a as usize][b as usize]
    }

    /// Checks internal consistency: at least one pod, every pod's
    /// region in range, and a `regions × regions` latency matrix with a
    /// zero diagonal.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] naming the first inconsistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pod_regions.is_empty() {
            return Err(ConfigError::OutOfRange {
                what: "fleet pods",
                valid: "at least one pod",
            });
        }
        if self.pod_regions.iter().any(|&r| r >= self.regions) {
            return Err(ConfigError::OutOfRange {
                what: "pod region",
                valid: "a region index below `regions`",
            });
        }
        let regions = self.regions as usize;
        if self.wan.len() != regions || self.wan.iter().any(|row| row.len() != regions) {
            return Err(ConfigError::OutOfRange {
                what: "wan latency matrix",
                valid: "`regions` rows of `regions` latencies",
            });
        }
        if (0..regions).any(|a| self.wan[a][a] != SimTime::ZERO) {
            return Err(ConfigError::OutOfRange {
                what: "wan latency diagonal",
                valid: "zero latency within a region",
            });
        }
        Ok(())
    }
}

/// Which arm routes the traffic: a named row of the one mechanism
/// table, `RoutingPolicy::defenses`, which the variant docs describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Static assignment: each region's requests round-robin over that
    /// region's own pods, oblivious to health, partitions, or load —
    /// the naive baseline that blacks out with its region.
    StaticLocal,
    /// The health-aware global router: probe-driven pod health,
    /// latency/capacity scoring, cross-region spillover with admission
    /// control, and the degradation ladder.
    HealthAware,
    /// Everything [`RoutingPolicy::HealthAware`] does, plus the
    /// gray-failure stack: peer-relative latency-outlier detection
    /// demoting fail-slow devices (which still pass liveness probes)
    /// and deadline-hedged re-issue of stuck requests to non-outlier
    /// devices.
    GrayResilient,
    /// [`RoutingPolicy::HealthAware`] routing plus *unguarded*
    /// client-side retries: every attempt that times out
    /// ([`OverloadConfig::attempt_timeout`]) mints a fresh copy with no
    /// budget, no breaker, and no deadline propagation — devices serve
    /// copies even after their client has given up. This is the
    /// metastable baseline: under a transient overload the retry
    /// amplification sustains itself after the trigger heals.
    NaiveRetry,
    /// The overload-defended arm: the same retry timers, but retries
    /// spend a per-pod token-bucket budget
    /// ([`OverloadConfig::budget`]), every (ingress, pod) edge is
    /// guarded by an adaptive circuit breaker
    /// ([`OverloadConfig::breaker`]), remaining deadline budget
    /// propagates across copies (work that cannot finish in time is
    /// cancelled at admission), and — when
    /// [`GlobalConfig::autoscale`] is set — a forecast-driven
    /// autoscaler re-derives per-pod capacity from the diurnal curve.
    OverloadResilient,
}

impl RoutingPolicy {
    /// Stable arm name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::StaticLocal => "static-local",
            RoutingPolicy::HealthAware => "global-router",
            RoutingPolicy::GrayResilient => "outlier-hedge",
            RoutingPolicy::NaiveRetry => "naive-retry",
            RoutingPolicy::OverloadResilient => "overload-resilient",
        }
    }

    /// The mechanisms this arm runs under `config` — the only place an
    /// arm maps to mechanisms, so the simulator never asks for the arm.
    pub(super) fn defenses(self, config: &GlobalConfig) -> Defenses {
        use RoutingPolicy::*;
        let defended = self == OverloadResilient;
        let retrying = matches!(self, NaiveRetry | OverloadResilient);
        Defenses {
            routed: self != StaticLocal,
            outliers: self == GrayResilient,
            reissue: match self {
                GrayResilient => config.gray.hedge.map(Reissue::Hedge),
                _ if retrying && config.overload.max_attempts > 1 => Some(Reissue::Retry),
                _ => None,
            },
            client_deadline: retrying,
            server_cancel: self != NaiveRetry,
            admission_cancel: defended,
            budget: config.overload.budget.filter(|_| defended),
            breaker: config.overload.breaker.filter(|_| defended),
            autoscale: config.autoscale.filter(|_| defended),
        }
    }
}

/// How an arm re-issues a request still unanswered when its timer
/// fires. One kind per arm: an arm hedges or retries, never both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Reissue {
    /// Duplicate onto a clean device past the pod's hedge deadline.
    Hedge(HedgePolicy),
    /// Mint a fresh routed copy every [`OverloadConfig::attempt_timeout`].
    Retry,
}

/// The mechanisms one arm runs, resolved by [`RoutingPolicy::defenses`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Defenses {
    /// Probes, the ladder and scored routing (else local round-robin).
    pub(super) routed: bool,
    /// Peer-relative outlier demotion, and assignment that avoids it.
    pub(super) outliers: bool,
    /// Re-issue of unanswered requests, if any.
    pub(super) reissue: Option<Reissue>,
    /// An answer past the end-to-end deadline counts as lost.
    pub(super) client_deadline: bool,
    /// Servers drop answered and expired copies instead of serving them.
    pub(super) server_cancel: bool,
    /// Cancel work whose expected wait exceeds its remaining deadline.
    pub(super) admission_cancel: bool,
    /// Per-pod retry token buckets.
    pub(super) budget: Option<BudgetConfig>,
    /// Per-(ingress, pod) circuit breakers.
    pub(super) breaker: Option<BreakerConfig>,
    /// Forecast-driven capacity planning.
    pub(super) autoscale: Option<AutoscaleConfig>,
}

impl Defenses {
    /// The hedge delay (every pod hedge deadline's floor), else zero.
    pub(super) fn hedge_floor(&self) -> SimTime {
        match self.reissue {
            Some(Reissue::Hedge(policy)) => policy.delay,
            _ => SimTime::ZERO,
        }
    }
}

/// Degradation-ladder thresholds on global utilization (in-service +
/// queued over up-capacity), with hysteresis so tiers don't flap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderConfig {
    /// Utilization at or above which tier 1 (shed low-priority) engages.
    pub shed_enter: f64,
    /// Utilization below which tier 1 disengages.
    pub shed_exit: f64,
    /// Utilization at or above which tier 2 (serve degraded) engages.
    pub degrade_enter: f64,
    /// Utilization below which tier 2 falls back to tier 1.
    pub degrade_exit: f64,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            shed_enter: 0.85,
            shed_exit: 0.75,
            degrade_enter: 0.95,
            degrade_exit: 0.85,
        }
    }
}

impl LadderConfig {
    /// The hysteresis-free tier for utilization `util`: the tier a
    /// ladder at tier 0 enters, and the fleet-wide floor the sharded
    /// driver derives at each barrier.
    fn entry_tier(&self, util: f64) -> u8 {
        if util >= self.degrade_enter {
            2
        } else if util >= self.shed_enter {
            1
        } else {
            0
        }
    }
}

/// Ladder utilization: `busy + queued` slots over `up` slots, infinite
/// with no capacity up.
fn utilization(load: u64, up: u64) -> f64 {
    if up == 0 {
        f64::INFINITY
    } else {
        load as f64 / up as f64
    }
}

/// The gray-failure stack carried by [`RoutingPolicy::GrayResilient`]:
/// detector tuning plus the hedge policy. Inert under the other arms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayResilienceConfig {
    /// Peer-relative outlier scoring (EWMA vs pod median at every
    /// probe sweep).
    pub outlier: OutlierConfig,
    /// Hedged re-issue of requests outstanding past the pod's
    /// quantile-derived deadline; `None` detects without hedging.
    /// `delay` acts as the deadline floor.
    pub hedge: Option<HedgePolicy>,
}

impl GrayResilienceConfig {
    /// Production defaults: [`OutlierConfig::production`] scoring with
    /// one hedge per request and a 20 ms deadline floor.
    pub fn production() -> Self {
        GrayResilienceConfig {
            outlier: OutlierConfig::production(),
            hedge: Some(HedgePolicy::production()),
        }
    }
}

/// The client-side retry contract plus the overload defenses carried
/// by the retrying arms ([`RoutingPolicy::NaiveRetry`] /
/// [`RoutingPolicy::OverloadResilient`]). Inert under every other arm.
///
/// **Deadline unification.** Historically the per-device
/// [`RetryPolicy::production`] carried a 500 ms end-to-end budget while
/// the global sim enforced an unrelated 2 s queueing deadline — and
/// re-issued copies carried a *fresh* deadline each, so one request
/// could live arbitrarily long across pods. The retrying arms unify
/// the two: `attempt_timeout` **is** the retry policy's 500 ms
/// deadline, `max_attempts × attempt_timeout` **is** the global 2 s
/// queueing deadline ([`GlobalConfig::production`]), and every copy
/// inherits its request's original arrival instant, so the remaining
/// end-to-end budget shrinks monotonically across retries, hedges, and
/// spillover ([`GlobalConfig::deadline`] is the single source of
/// truth). The identity is pinned by a test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Client-side per-attempt timeout: an unanswered request mints its
    /// next copy this long after the previous one.
    pub attempt_timeout: SimTime,
    /// Copies per request, primary included (`4 × 500 ms` spans the 2 s
    /// end-to-end deadline exactly).
    pub max_attempts: u32,
    /// Per-pod retry budget; `None` retries unguarded (the naive arm).
    pub budget: Option<BudgetConfig>,
    /// Per-(ingress, pod) circuit breaking; `None` disables (naive).
    pub breaker: Option<BreakerConfig>,
}

impl OverloadConfig {
    /// The defended contract: attempts at the [`RetryPolicy`] deadline
    /// cadence, budget and breaker on.
    pub fn production() -> Self {
        OverloadConfig {
            attempt_timeout: RetryPolicy::production().deadline,
            max_attempts: 4,
            budget: Some(BudgetConfig::production()),
            breaker: Some(BreakerConfig::production()),
        }
    }

    /// The same retry cadence with every defense stripped — what real
    /// fleets ran before retry budgets existed.
    pub fn naive() -> Self {
        OverloadConfig {
            budget: None,
            breaker: None,
            ..Self::production()
        }
    }
}

/// The proactive arm: a capacity controller that fits each region's
/// diurnal arrival curve and activates/deactivates per-pod reserve
/// devices ([`GlobalConfig::reserve_per_pod`]) ahead of the forecast,
/// so the reactive defenses (budget, breaker, ladder) fire rarely.
/// Kept only by the [`RoutingPolicy::OverloadResilient`] row of
/// `RoutingPolicy::defenses`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Control-plane cadence: the planner re-derives per-pod capacity
    /// targets this often.
    pub interval: SimTime,
    /// Forecast lead: targets are sized for the predicted rate this far
    /// ahead, which is what makes scale-up land *before* the crest.
    pub lead: SimTime,
    /// Capacity margin above the forecast demand (`0.25` plans for
    /// 125 % of predicted erlangs).
    pub headroom: f64,
    /// The diurnal period the forecast harmonic is fitted over (the
    /// trace builder's [`RegionalTrafficConfig::period`]).
    pub period: SimTime,
}

impl AutoscaleConfig {
    /// Production cadence: re-plan every 5 s, 30 s of forecast lead,
    /// 25 % headroom.
    pub fn production(period: SimTime) -> Self {
        AutoscaleConfig {
            interval: SimTime::from_secs(5),
            lead: SimTime::from_secs(30),
            headroom: 0.25,
            period,
        }
    }
}

/// Everything that parameterizes one global-serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalConfig {
    /// Full-fidelity service time per request (one device-slot held).
    pub service_time: SimTime,
    /// Tier-2 degraded service time (stale/truncated responses are
    /// cheaper to produce).
    pub degraded_service_time: SimTime,
    /// Queueing deadline: a request that cannot *start* service within
    /// this of its arrival is lost.
    pub deadline: SimTime,
    /// Interval between pod health probes.
    pub probe_interval: SimTime,
    /// The per-pod health machine thresholds (probe granularity, so
    /// much tighter than the per-device serving defaults).
    pub health: HealthConfig,
    /// Cross-region spillover is admitted only into pods below this
    /// utilization.
    pub spillover_max_utilization: f64,
    /// Degradation-ladder thresholds.
    pub ladder: LadderConfig,
    /// Gray-failure detection and hedging, in effect only under the
    /// [`RoutingPolicy::GrayResilient`] row of `RoutingPolicy::defenses`.
    pub gray: GrayResilienceConfig,
    /// Client retries and their defenses; `RoutingPolicy::defenses`
    /// gives retries to the two retrying arms and the budget and breaker
    /// to [`RoutingPolicy::OverloadResilient`] alone.
    pub overload: OverloadConfig,
    /// Forecast-driven capacity planning; `None` (the default) leaves
    /// capacity static. Only the [`RoutingPolicy::OverloadResilient`]
    /// row of `RoutingPolicy::defenses` keeps it.
    pub autoscale: Option<AutoscaleConfig>,
    /// Highest-indexed devices per pod held *inactive* at start — the
    /// reserve pool the autoscaler can energize. `0` (the default)
    /// keeps every device active, which is byte-identical to the
    /// pre-reserve behaviour.
    pub reserve_per_pod: u32,
    /// Bucket width of the report's goodput timeline.
    pub timeline_bucket: SimTime,
    /// Root seed (recorded in reports; the simulation itself is
    /// deterministic given its inputs).
    pub seed: u64,
}

impl GlobalConfig {
    /// Production-flavored defaults: 450 ms full service, 150 ms
    /// degraded, 2 s queueing deadline, 500 ms probes with aggressive
    /// pod-level health thresholds, spillover admitted below 85 %.
    pub fn production(seed: u64) -> Self {
        GlobalConfig {
            service_time: SimTime::from_millis(450),
            degraded_service_time: SimTime::from_millis(150),
            deadline: SimTime::from_secs(2),
            probe_interval: SimTime::from_millis(500),
            health: HealthConfig {
                degrade_after_errors: 1,
                offline_after_errors: 2,
                rehabilitate_after_successes: 2,
                probation_successes: 3,
            },
            spillover_max_utilization: 0.85,
            ladder: LadderConfig::default(),
            gray: GrayResilienceConfig::production(),
            overload: OverloadConfig::production(),
            autoscale: None,
            reserve_per_pod: 0,
            timeline_bucket: SimTime::from_secs(1),
            seed,
        }
    }

    /// Checks the settings a run depends on: every periodic event must
    /// move time forward, or the simulation would spin at one instant,
    /// and a request's copies must fit the simulator's 16-bit counters.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] on a zero `probe_interval`, on a zero
    /// autoscale `interval` or `period`, on over 65,535
    /// `overload.max_attempts`, or on over 65,534 hedges per request.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.probe_interval == SimTime::ZERO {
            return Err(ConfigError::OutOfRange {
                what: "global probe interval",
                valid: "a positive duration",
            });
        }
        if let Some(autoscale) = &self.autoscale {
            if autoscale.interval == SimTime::ZERO {
                return Err(ConfigError::OutOfRange {
                    what: "autoscale planning interval",
                    valid: "a positive duration",
                });
            }
            if autoscale.period == SimTime::ZERO {
                return Err(ConfigError::OutOfRange {
                    what: "autoscale diurnal period",
                    valid: "a positive duration",
                });
            }
        }
        // A request's live copies are at most its attempts, or its
        // hedges plus the primary.
        if self.overload.max_attempts > u16::MAX as u32 {
            return Err(ConfigError::OutOfRange {
                what: "overload max_attempts",
                valid: "at most 65,535 copies per request",
            });
        }
        if self
            .gray
            .hedge
            .is_some_and(|h| h.max_hedges >= u16::MAX as u32)
        {
            return Err(ConfigError::OutOfRange {
                what: "hedge max_hedges",
                valid: "at most 65,534 hedges per request",
            });
        }
        Ok(())
    }
}

/// Request priority class, assigned at ingress. Tier 1 of the ladder
/// sheds `Low`; `High` is shed only if nothing can serve it (lost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// User-facing, never intentionally shed.
    High,
    /// Prefetch/speculative work, shed first under pressure.
    Low,
}

/// One request arriving at a region's ingress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalArrival {
    /// Arrival time at the region's edge.
    pub at: SimTime,
    /// Ingress region.
    pub region: u32,
    /// Priority class.
    pub priority: Priority,
}

/// Gap code marking an escaped gap: its full width is the next entry of
/// [`RegionColumn::wide`].
const ESCAPED: u8 = 0x7F;

/// The [`RegionColumn::hi`] bit marking a [`Priority::Low`] arrival.
const LOW: u8 = 0x80;

/// One region's arrivals in generation order (non-decreasing times),
/// stored as gaps from the previous arrival, the first gap from zero:
/// 5 bytes per arrival. Gaps of `127 × 2³²` ps (≈ 0.55 s) or more
/// escape to `wide`, 8 bytes more each; a region drawing at 360/s or
/// faster never produces one. The encoding is canonical, so equal
/// arrivals mean equal columns.
#[derive(Debug, Clone, PartialEq)]
struct RegionColumn {
    region: u32,
    /// Low 32 bits of each gap.
    lo: Vec<u32>,
    /// Bits 32–38 of each gap in bits 0–6 ([`ESCAPED`] for an escaped
    /// gap) and the [`LOW`] priority flag in bit 7.
    hi: Vec<u8>,
    /// The full gaps of escaped arrivals, in arrival order.
    wide: Vec<u64>,
    /// Time of the last arrival ([`SimTime::ZERO`] when empty).
    end: SimTime,
}

impl RegionColumn {
    fn new(region: u32) -> Self {
        RegionColumn {
            region,
            lo: Vec::new(),
            hi: Vec::new(),
            wide: Vec::new(),
            end: SimTime::ZERO,
        }
    }

    fn len(&self) -> usize {
        self.lo.len()
    }

    fn push(&mut self, at: SimTime, priority: Priority) {
        debug_assert!(self.end <= at, "a column's arrivals never go back in time");
        let gap = at.as_picos() - self.end.as_picos();
        let code = if gap >> 32 < ESCAPED as u64 {
            (gap >> 32) as u8
        } else {
            self.wide.push(gap);
            ESCAPED
        };
        let flag = if priority == Priority::Low { LOW } else { 0 };
        self.lo.push(gap as u32);
        self.hi.push(code | flag);
        self.end = at;
    }

    /// Arrival times in order.
    fn times(&self) -> impl Iterator<Item = SimTime> + '_ {
        let mut cursor = ColumnCursor::start(self);
        std::iter::from_fn(move || cursor.advance(self).map(|a| a.at))
    }
}

/// A read position in one [`RegionColumn`]: the next arrival's index,
/// the next unread `wide` entry, and the next arrival's decoded time,
/// so peeking at a column never decodes twice.
#[derive(Debug, Clone, Copy)]
struct ColumnCursor {
    next: usize,
    wide: usize,
    at: SimTime,
}

impl ColumnCursor {
    /// A cursor on `column`'s first arrival.
    fn start(column: &RegionColumn) -> Self {
        let mut cursor = ColumnCursor {
            next: 0,
            wide: 0,
            at: SimTime::ZERO,
        };
        cursor.decode(column);
        cursor
    }

    /// Adds the next arrival's gap to `at`, if there is a next arrival.
    fn decode(&mut self, column: &RegionColumn) {
        let Some(&code) = column.hi.get(self.next) else {
            return;
        };
        let gap = match code & !LOW {
            ESCAPED => {
                self.wide += 1;
                column.wide[self.wide - 1]
            }
            hi => (hi as u64) << 32 | column.lo[self.next] as u64,
        };
        self.at = SimTime::from_picos(self.at.as_picos() + gap);
    }

    /// Time of the next arrival, without consuming it.
    fn peek(&self, column: &RegionColumn) -> Option<SimTime> {
        (self.next < column.len()).then_some(self.at)
    }

    /// Consumes the next arrival.
    fn advance(&mut self, column: &RegionColumn) -> Option<GlobalArrival> {
        let at = self.peek(column)?;
        let priority = if column.hi[self.next] & LOW == 0 {
            Priority::High
        } else {
            Priority::Low
        };
        self.next += 1;
        self.decode(column);
        Some(GlobalArrival {
            at,
            region: column.region,
            priority,
        })
    }
}

/// A replayable multi-region arrival trace — the byte-identical
/// artifact both comparison arms consume. Stored as one gap-encoded
/// column per region in generation order, 5 bytes per arrival;
/// [`RegionalTrace::arrivals`] decodes and merges them back into
/// `(time, region)` order. The sealed columns are shared, so a clone
/// costs O(1) and every arm replays the same arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionalTrace {
    /// The regions that have arrivals, ascending by region index.
    columns: Arc<[RegionColumn]>,
    len: usize,
    fingerprint: u64,
}

impl RegionalTrace {
    /// Wraps arrivals sorted by `(at, region)`; arrivals with an equal
    /// key replay in the given order.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] if the arrivals are not sorted by
    /// `(at, region)`.
    pub fn new(arrivals: Vec<GlobalArrival>) -> Result<Self, ConfigError> {
        if !arrivals
            .windows(2)
            .all(|w| (w[0].at, w[0].region) <= (w[1].at, w[1].region))
        {
            return Err(ConfigError::OutOfRange {
                what: "regional trace order",
                valid: "arrivals sorted by (time, region)",
            });
        }
        let mut columns: BTreeMap<u32, RegionColumn> = BTreeMap::new();
        for a in arrivals {
            columns
                .entry(a.region)
                .or_insert_with(|| RegionColumn::new(a.region))
                .push(a.at, a.priority);
        }
        Ok(Self::from_columns(columns.into_values().collect()))
    }

    /// Seals columns ascending by region, each in non-decreasing time
    /// order: drops empty regions and computes `len` and the
    /// fingerprint once.
    fn from_columns(mut columns: Vec<RegionColumn>) -> Self {
        columns.retain(|c| c.len() > 0);
        debug_assert!(columns.windows(2).all(|w| w[0].region < w[1].region));
        for c in &mut columns {
            c.lo.shrink_to_fit();
            c.hi.shrink_to_fit();
            c.wide.shrink_to_fit();
        }
        let mut trace = RegionalTrace {
            columns: columns.into(),
            len: 0,
            fingerprint: 0,
        };
        trace.len = trace.columns.iter().map(RegionColumn::len).sum();
        trace.fingerprint = fnv_fingerprint(trace.arrivals());
        trace
    }

    /// The arrivals in `(time, region)` order.
    pub fn arrivals(&self) -> Arrivals<'_> {
        let mut arrivals = Arrivals {
            columns: &self.columns,
            cursors: self.columns.iter().map(ColumnCursor::start).collect(),
            head: None,
        };
        arrivals.head = arrivals.find_head();
        arrivals
    }

    /// Time of the last arrival, if any.
    fn last_at(&self) -> Option<SimTime> {
        self.columns.iter().map(|c| c.end).max()
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// FNV-1a digest over every arrival in `(time, region)` order — the
    /// trace-identity witness reports embed (mirroring
    /// `FaultPlan::fingerprint`).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// FNV-1a over `(at, region, priority)` words.
fn fnv_fingerprint(arrivals: impl Iterator<Item = GlobalArrival>) -> u64 {
    let mut hash = Fnv1a::default();
    for a in arrivals {
        hash.word(a.at.as_picos());
        hash.word(a.region as u64);
        hash.word(match a.priority {
            Priority::High => 0,
            Priority::Low => 1,
        });
    }
    hash.finish()
}

/// [`RegionalTrace::arrivals`]: a merge of the region columns in
/// `(time, region)` order, with the next arrival cached so peeking is
/// O(1).
#[derive(Debug, Clone)]
pub struct Arrivals<'a> {
    columns: &'a [RegionColumn],
    /// Read position per column.
    cursors: Vec<ColumnCursor>,
    /// `(column, at)` of the next arrival.
    head: Option<(usize, SimTime)>,
}

impl Arrivals<'_> {
    /// The earliest unread arrival; on a tie the lowest region wins,
    /// since columns ascend by region.
    fn find_head(&self) -> Option<(usize, SimTime)> {
        let mut head: Option<(usize, SimTime)> = None;
        for (c, (column, cursor)) in self.columns.iter().zip(&self.cursors).enumerate() {
            if let Some(at) = cursor.peek(column) {
                if head.is_none_or(|(_, t)| at < t) {
                    head = Some((c, at));
                }
            }
        }
        head
    }

    /// Time of the next arrival, without consuming it.
    pub fn peek_at(&self) -> Option<SimTime> {
        self.head.map(|(_, at)| at)
    }
}

impl Iterator for Arrivals<'_> {
    type Item = GlobalArrival;

    fn next(&mut self) -> Option<GlobalArrival> {
        let (c, _) = self.head?;
        let arrival = self.cursors[c].advance(&self.columns[c]);
        self.head = self.find_head();
        arrival
    }
}

/// Shape of the per-region traffic feeding [`build_regional_trace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionalTrafficConfig {
    /// Diurnal base rate per region (requests/s).
    pub base_rate_per_s: f64,
    /// Diurnal amplitude in `[0, 1)`.
    pub amplitude: f64,
    /// Diurnal period. Regions are phase-offset by `period / regions`
    /// each — the timezone stagger.
    pub period: SimTime,
    /// Flash crowds per region over the horizon.
    pub crowds_per_region: u32,
    /// Flash-crowd rate multiplier.
    pub crowd_multiplier: f64,
    /// Flash-crowd duration.
    pub crowd_duration: SimTime,
    /// Fraction of requests tagged [`Priority::Low`].
    pub low_priority_share: f64,
}

impl RegionalTrafficConfig {
    /// The E22 planetary-scale shape: per-region diurnal curves one
    /// timezone apart, one flash crowd per region, a fifth of traffic
    /// sheddable.
    pub fn production(base_rate_per_s: f64, period: SimTime) -> Self {
        RegionalTrafficConfig {
            base_rate_per_s,
            amplitude: 0.4,
            period,
            crowds_per_region: 1,
            crowd_multiplier: 1.6,
            crowd_duration: period.scale(0.05),
            low_priority_share: 0.2,
        }
    }
}

/// Builds the multi-region trace: per-region phase-offset diurnal
/// envelopes with seeded flash crowds, arrivals recorded up to
/// `horizon`. A pure function of `(config, regions, horizon, seed)` —
/// the replayable artifact both comparison arms share. The one-seed
/// call of [`build_regional_traces`].
///
/// # Panics
///
/// Panics if `config` is not a traffic shape
/// [`RegionalArrivals::new`] accepts: a base rate that is not finite
/// and positive, an amplitude outside `[0, 1)`, a zero period, or a
/// crowd multiplier below 1 or not finite.
pub fn build_regional_trace(
    config: &RegionalTrafficConfig,
    regions: u32,
    horizon: SimTime,
    seed: u64,
) -> RegionalTrace {
    let mut traces = build_regional_traces(config, regions, horizon, &[seed]);
    traces.pop().expect("one trace per seed")
}

/// [`build_regional_trace`] for every seed, in seed order, from one
/// `pool::parallel_map` over seeds × regions: each region streams on
/// its own task, and the task that finishes a trace's last region
/// seals that trace (merge order, length, fingerprint) in the same
/// pass. Many small tasks keep every worker busy where a per-seed
/// loop over a few regions would leave workers idle.
///
/// # Panics
///
/// As [`build_regional_trace`].
pub fn build_regional_traces(
    config: &RegionalTrafficConfig,
    regions: u32,
    horizon: SimTime,
    seeds: &[u64],
) -> Vec<RegionalTrace> {
    build_traces(
        config,
        regions,
        horizon,
        seeds,
        false,
        pool::configured_threads(),
    )
}

/// Instant of region `region`'s diurnal crest — where
/// `sin(2π(t + phase)/period)` peaks, with the timezone phase
/// `period × region/regions` the trace builder applies — wrapped into
/// `[0, period)`.
pub fn diurnal_crest(period: SimTime, region: u32, regions: u32) -> SimTime {
    let frac = (0.25 - region as f64 / regions as f64).rem_euclid(1.0);
    period.scale(frac)
}

/// [`build_regional_trace`] with every flash crowd *pinned to its
/// region's diurnal crest* instead of placed by the seeded RNG — the
/// overload-storm shape: the worst demand spike lands exactly on the
/// worst instant of the curve, in every region. Crowd RNG draws are
/// still consumed so the Poisson arrival stream matches nothing else.
///
/// # Panics
///
/// As [`build_regional_trace`].
pub fn build_regional_trace_crested(
    config: &RegionalTrafficConfig,
    regions: u32,
    horizon: SimTime,
    seed: u64,
) -> RegionalTrace {
    let mut traces = build_traces(
        config,
        regions,
        horizon,
        &[seed],
        true,
        pool::configured_threads(),
    );
    traces.pop().expect("one trace per seed")
}

fn build_traces(
    config: &RegionalTrafficConfig,
    regions: u32,
    horizon: SimTime,
    seeds: &[u64],
    crest_crowds: bool,
    threads: usize,
) -> Vec<RegionalTrace> {
    if regions == 0 {
        return seeds
            .iter()
            .map(|_| RegionalTrace::from_columns(Vec::new()))
            .collect();
    }
    // Finished columns wait in their trace's slot until the last one
    // arrives. Every region draws from its own derived streams, so the
    // task schedule cannot change a column.
    let slots: Vec<Mutex<Vec<RegionColumn>>> = seeds.iter().map(|_| Mutex::default()).collect();
    let tasks: Vec<(usize, u32)> = (0..seeds.len())
        .flat_map(|trace| (0..regions).map(move |region| (trace, region)))
        .collect();
    let sealed = pool::parallel_map_with(threads, tasks, |_, (trace, region)| {
        let column = region_column(config, regions, horizon, seeds[trace], region, crest_crowds);
        let mut slot = slots[trace].lock().expect("no task panics holding a slot");
        slot.push(column);
        if slot.len() < regions as usize {
            return None;
        }
        let mut columns = std::mem::take(&mut *slot);
        drop(slot);
        columns.sort_unstable_by_key(|c| c.region);
        Some(RegionalTrace::from_columns(columns))
    });
    // Tasks are trace-major and exactly one per trace seals it, so the
    // sealed traces come out in seed order.
    sealed.into_iter().flatten().collect()
}

/// One region's arrivals up to `horizon`, from three streams derived
/// from `(seed, region)`: the arrival process (envelope + thinning),
/// crowd placement, and priorities.
fn region_column(
    config: &RegionalTrafficConfig,
    regions: u32,
    horizon: SimTime,
    seed: u64,
    region: u32,
    crest_crowds: bool,
) -> RegionColumn {
    let mut crowd_rng = StdRng::seed_from_u64(derive_indexed(seed, "global.crowds", region as u64));
    let crowds: Vec<FlashCrowd> = (0..config.crowds_per_region)
        .map(|_| {
            let random = horizon.scale(crowd_rng.gen::<f64>());
            FlashCrowd {
                start: if crest_crowds {
                    diurnal_crest(config.period, region, regions)
                } else {
                    random
                },
                duration: config.crowd_duration,
                multiplier: config.crowd_multiplier,
            }
        })
        .collect();
    let phase = config.period.scale(region as f64 / regions as f64);
    let mut process = RegionalArrivals::new(
        config.base_rate_per_s,
        config.amplitude,
        config.period,
        phase,
        crowds,
        StdRng::seed_from_u64(derive_indexed(seed, "global.arrivals", region as u64)),
    )
    .expect("a valid regional traffic shape");
    let mut priority_rng =
        StdRng::seed_from_u64(derive_indexed(seed, "global.priority", region as u64));
    let mut column = RegionColumn::new(region);
    let mut now = SimTime::ZERO;
    while let Some(t) = process.next_arrival(now) {
        if t > horizon {
            break;
        }
        let priority = if priority_rng.gen::<f64>() < config.low_priority_share {
            Priority::Low
        } else {
            Priority::High
        };
        column.push(t, priority);
        now = t;
    }
    column
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_spec_is_consistent() {
        let spec = GlobalFleetSpec::symmetric(3, 2, 16, SimTime::from_millis(60))
            .expect("every dimension is non-empty");
        assert_eq!(spec.validate(), Ok(()));
        assert_eq!(spec.pods(), 6);
        assert_eq!(spec.devices(), 96);
        assert_eq!(spec.region_of_pod(0), 0);
        assert_eq!(spec.region_of_pod(5), 2);
        assert_eq!(spec.pods_in_region(1), vec![2, 3]);
        assert_eq!(spec.pod_of_device(17), 1);
        assert_eq!(spec.wan_latency(0, 0), SimTime::ZERO);
        assert_eq!(spec.wan_latency(0, 2), SimTime::from_millis(60));
    }

    #[test]
    fn symmetric_spec_rejects_a_zero_dimension() {
        let wan = SimTime::from_millis(60);
        for (regions, pods, devices) in [(0, 2, 16), (3, 0, 16), (3, 2, 0), (0, 0, 0)] {
            assert!(
                matches!(
                    GlobalFleetSpec::symmetric(regions, pods, devices, wan),
                    Err(ConfigError::OutOfRange { .. })
                ),
                "{regions} × {pods} × {devices}"
            );
        }
    }

    /// The `what` of a rejected spec or config.
    fn rejected(result: Result<(), ConfigError>) -> &'static str {
        match result {
            Err(ConfigError::OutOfRange { what, .. }) => what,
            other => panic!("expected an out-of-range error, got {other:?}"),
        }
    }

    fn spec_3x2() -> GlobalFleetSpec {
        GlobalFleetSpec::symmetric(3, 2, 16, SimTime::from_millis(60)).expect("non-empty")
    }

    #[test]
    fn spec_validation_rejects_a_fleet_without_pods() {
        let spec = GlobalFleetSpec {
            pod_regions: Vec::new(),
            ..spec_3x2()
        };
        assert_eq!(rejected(spec.validate()), "fleet pods");
    }

    #[test]
    fn spec_validation_rejects_a_pod_region_out_of_range() {
        let mut spec = spec_3x2();
        spec.pod_regions[4] = 3;
        assert_eq!(rejected(spec.validate()), "pod region");
    }

    #[test]
    fn spec_validation_rejects_a_wan_matrix_that_is_not_square() {
        let mut short = spec_3x2();
        short.wan.pop();
        let mut ragged = spec_3x2();
        ragged.wan[1].push(SimTime::from_millis(60));
        for spec in [short, ragged] {
            assert_eq!(rejected(spec.validate()), "wan latency matrix");
        }
    }

    #[test]
    fn spec_validation_rejects_a_nonzero_wan_diagonal() {
        let mut spec = spec_3x2();
        spec.wan[2][2] = SimTime::from_millis(1);
        assert_eq!(rejected(spec.validate()), "wan latency diagonal");
    }

    #[test]
    fn config_validation_bounds_max_attempts_to_sixteen_bits() {
        let mut config = GlobalConfig::production(1);
        config.overload.max_attempts = u16::MAX as u32;
        assert_eq!(config.validate(), Ok(()));
        config.overload.max_attempts += 1;
        assert_eq!(rejected(config.validate()), "overload max_attempts");
    }

    #[test]
    fn config_validation_bounds_max_hedges_to_sixteen_bits() {
        let with_hedges = |max_hedges| GlobalConfig {
            gray: GrayResilienceConfig {
                hedge: Some(HedgePolicy {
                    max_hedges,
                    ..HedgePolicy::production()
                }),
                ..GrayResilienceConfig::production()
            },
            ..GlobalConfig::production(1)
        };
        assert_eq!(with_hedges(u16::MAX as u32 - 1).validate(), Ok(()));
        let mut config = with_hedges(u16::MAX as u32);
        assert_eq!(rejected(config.validate()), "hedge max_hedges");
        // Without hedging the bound does not apply.
        config.gray.hedge = None;
        assert_eq!(config.validate(), Ok(()));
    }

    #[test]
    fn config_validation_rejects_zero_timers() {
        let production = GlobalConfig::production(1);
        let with_autoscale = |edit: fn(&mut AutoscaleConfig)| {
            let mut autoscale = AutoscaleConfig::production(SimTime::from_secs(60));
            edit(&mut autoscale);
            GlobalConfig {
                autoscale: Some(autoscale),
                ..production.clone()
            }
        };
        assert_eq!(production.validate(), Ok(()));
        assert_eq!(with_autoscale(|_| {}).validate(), Ok(()));
        let zero_probe = GlobalConfig {
            probe_interval: SimTime::ZERO,
            ..production.clone()
        };
        let zero_interval = with_autoscale(|a| a.interval = SimTime::ZERO);
        let zero_period = with_autoscale(|a| a.period = SimTime::ZERO);
        for config in [zero_probe, zero_interval, zero_period] {
            assert!(matches!(
                config.validate(),
                Err(ConfigError::OutOfRange { .. })
            ));
        }
    }

    #[test]
    fn trace_clone_shares_its_columns() {
        let config = RegionalTrafficConfig::production(50.0, SimTime::from_secs(20));
        let trace = build_regional_trace(&config, 3, SimTime::from_secs(20), 4);
        let clone = trace.clone();
        assert!(Arc::ptr_eq(&trace.columns, &clone.columns));
        assert_eq!(clone, trace);
        assert_eq!(clone.len(), trace.len());
        assert_eq!(clone.fingerprint(), trace.fingerprint());
        assert!(clone.arrivals().eq(trace.arrivals()));
    }

    #[test]
    fn production_cell_trace_takes_five_bytes_per_arrival() {
        // One E24 cell: the planetary fleet's three regions at 600/s
        // for 600 s, about 1.1M arrivals.
        let horizon = SimTime::from_secs(600);
        let config = RegionalTrafficConfig::production(600.0, horizon);
        let trace = build_regional_trace(&config, 3, horizon, 24);
        let bytes: usize = trace
            .columns
            .iter()
            .map(|c| {
                assert!(c.wide.is_empty(), "region {} escaped a gap", c.region);
                c.lo.len() * size_of::<u32>() + c.hi.len() + c.wide.len() * size_of::<u64>()
            })
            .sum();
        assert!(trace.len() > 1_000_000);
        assert!(
            bytes <= 5 * trace.len(),
            "{bytes} B for {} arrivals",
            trace.len()
        );
    }

    #[test]
    fn trace_builder_is_deterministic_and_sorted() {
        let config = RegionalTrafficConfig::production(200.0, SimTime::from_secs(60));
        let a = build_regional_trace(&config, 3, SimTime::from_secs(60), 7);
        let b = build_regional_trace(&config, 3, SimTime::from_secs(60), 7);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(!a.is_empty());
        let c = build_regional_trace(&config, 3, SimTime::from_secs(60), 8);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Every region contributes and priorities are mixed.
        for r in 0..3 {
            assert!(a.arrivals().any(|x| x.region == r));
        }
        assert!(a.arrivals().any(|x| x.priority == Priority::Low));
        assert!(a.arrivals().any(|x| x.priority == Priority::High));
    }

    #[test]
    fn regional_peaks_are_phase_staggered() {
        // With period == horizon and three regions, each region's
        // arrival mass peaks in a different third of the horizon.
        let horizon = SimTime::from_secs(300);
        let config = RegionalTrafficConfig {
            base_rate_per_s: 100.0,
            amplitude: 0.8,
            period: horizon,
            crowds_per_region: 0,
            crowd_multiplier: 1.0,
            crowd_duration: SimTime::ZERO,
            low_priority_share: 0.2,
        };
        let trace = build_regional_trace(&config, 3, horizon, 11);
        let busiest_third = |region: u32| -> usize {
            let mut thirds = [0u32; 3];
            for a in trace.arrivals().filter(|a| a.region == region) {
                let idx = ((a.at.as_secs_f64() / horizon.as_secs_f64()) * 3.0) as usize;
                thirds[idx.min(2)] += 1;
            }
            (0..3).max_by_key(|&i| thirds[i]).unwrap()
        };
        let peaks: Vec<usize> = (0..3).map(busiest_third).collect();
        let mut unique = peaks.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 3, "staggered peaks, got {peaks:?}");
    }

    #[test]
    fn overload_deadline_identity_is_pinned() {
        // The deadline-unification contract: the per-attempt timeout IS
        // the per-device RetryPolicy's 500 ms end-to-end budget, and
        // max_attempts of them tile the global 2 s queueing deadline
        // exactly. Changing any of the three must break this test.
        let config = GlobalConfig::production(1);
        let overload = config.overload;
        assert_eq!(overload.attempt_timeout, RetryPolicy::production().deadline);
        assert_eq!(
            overload.attempt_timeout.scale(overload.max_attempts as f64),
            config.deadline,
            "attempt_timeout × max_attempts must equal the global deadline"
        );
    }

    #[test]
    fn each_arm_resolves_to_its_row_of_the_mechanism_table() {
        use RoutingPolicy::*;
        let autoscale = AutoscaleConfig::production(SimTime::from_secs(300));
        let config = GlobalConfig {
            autoscale: Some(autoscale),
            ..GlobalConfig::production(1)
        };
        let overload = config.overload;
        let health_aware = Defenses {
            routed: true,
            outliers: false,
            reissue: None,
            client_deadline: false,
            server_cancel: true,
            admission_cancel: false,
            budget: None,
            breaker: None,
            autoscale: None,
        };
        let retry = Some(Reissue::Retry);
        let rows = [
            (
                StaticLocal,
                Defenses {
                    routed: false,
                    ..health_aware
                },
            ),
            (HealthAware, health_aware),
            (
                GrayResilient,
                Defenses {
                    outliers: true,
                    reissue: Some(Reissue::Hedge(HedgePolicy::production())),
                    ..health_aware
                },
            ),
            (
                NaiveRetry,
                Defenses {
                    reissue: retry,
                    client_deadline: true,
                    server_cancel: false,
                    ..health_aware
                },
            ),
            (
                OverloadResilient,
                Defenses {
                    reissue: retry,
                    client_deadline: true,
                    admission_cancel: true,
                    budget: overload.budget,
                    breaker: overload.breaker,
                    autoscale: Some(autoscale),
                    ..health_aware
                },
            ),
        ];
        for (policy, row) in rows {
            assert_eq!(policy.defenses(&config), row, "{policy:?}");
        }

        // Config values that switch a mechanism off.
        let mut no_hedge = config.clone();
        no_hedge.gray.hedge = None;
        assert_eq!(GrayResilient.defenses(&no_hedge).reissue, None);
        assert_eq!(
            GrayResilient.defenses(&no_hedge).hedge_floor(),
            SimTime::ZERO
        );
        let mut one_attempt = config.clone();
        one_attempt.overload.max_attempts = 1;
        for policy in [NaiveRetry, OverloadResilient] {
            let arm = policy.defenses(&one_attempt);
            assert!(arm.client_deadline, "{policy:?}");
            assert_eq!(arm.reissue, None, "{policy:?}");
        }
        // A budget and breaker in the config never reach the naive arm.
        assert!(overload.budget.is_some() && overload.breaker.is_some());
        let naive = NaiveRetry.defenses(&config);
        assert_eq!((naive.budget, naive.breaker), (None, None));
    }

    #[test]
    fn crested_trace_pins_crowds_at_the_diurnal_peak() {
        let horizon = SimTime::from_secs(300);
        let mut config = RegionalTrafficConfig::production(80.0, horizon);
        config.crowd_multiplier = 4.0;
        let crested = build_regional_trace_crested(&config, 3, horizon, 21);
        let random = build_regional_trace(&config, 3, horizon, 21);
        assert_ne!(crested.fingerprint(), random.fingerprint());
        // Deterministic: same inputs, same trace.
        assert_eq!(
            crested.fingerprint(),
            build_regional_trace_crested(&config, 3, horizon, 21).fingerprint()
        );
        // The crowd window at each region's crest must carry visibly
        // more arrivals than the same-width window half a period away.
        for region in 0..3 {
            let crest = diurnal_crest(config.period, region, 3);
            let off = SimTime::from_picos(
                (crest + config.period.scale(0.5)).as_picos() % config.period.as_picos(),
            );
            let count = |from: SimTime| {
                crested
                    .arrivals()
                    .filter(|a| {
                        a.region == region && a.at >= from && a.at < from + config.crowd_duration
                    })
                    .count()
            };
            assert!(
                count(crest) > 2 * count(off),
                "region {region}: crest window not dominant"
            );
        }
    }

    #[test]
    fn unsorted_trace_is_a_config_error() {
        let at = |s| GlobalArrival {
            at: SimTime::from_secs(s),
            region: 0,
            priority: Priority::High,
        };
        assert!(matches!(
            RegionalTrace::new(vec![at(2), at(1)]),
            Err(ConfigError::OutOfRange { .. })
        ));
        let empty = RegionalTrace::new(Vec::new()).expect("an empty trace is sorted");
        assert!(empty.is_empty());
        assert_eq!(empty.arrivals().next(), None);
    }

    #[test]
    fn built_traces_keep_their_pinned_identity_at_any_thread_count() {
        // (len, fingerprint) of one plain and one crested trace, pinned
        // from the merged-and-sorted builder this column layout replaced.
        let plain = RegionalTrafficConfig::production(200.0, SimTime::from_secs(60));
        let horizon = SimTime::from_secs(300);
        let mut crested = RegionalTrafficConfig::production(80.0, horizon);
        crested.crowd_multiplier = 4.0;
        let one_by_one: Vec<RegionalTrace> = [8, 7, 9]
            .map(|seed| {
                build_traces(&plain, 3, SimTime::from_secs(60), &[seed], false, 1).remove(0)
            })
            .into();
        for threads in [1, 2, 8] {
            let a = &build_traces(&plain, 3, SimTime::from_secs(60), &[7], false, threads)[0];
            assert_eq!((a.len(), a.fingerprint()), (36_981, 0x3b47_38cb_0b29_67e4));
            let c = &build_traces(&crested, 3, horizon, &[21], true, threads)[0];
            assert_eq!((c.len(), c.fingerprint()), (87_362, 0xcb49_5b03_10a7_185e));
            // One pool pass over several seeds seals each trace as a
            // one-seed build does, in seed order.
            let many = build_traces(
                &plain,
                3,
                SimTime::from_secs(60),
                &[8, 7, 9],
                false,
                threads,
            );
            assert_eq!(many, one_by_one);
        }
    }

    #[test]
    fn arrivals_merge_regions_in_time_then_region_order() {
        let config = RegionalTrafficConfig::production(200.0, SimTime::from_secs(60));
        let trace = build_regional_trace(&config, 3, SimTime::from_secs(60), 7);
        let arrivals: Vec<GlobalArrival> = trace.arrivals().collect();
        assert_eq!(arrivals.len(), trace.len());
        assert!(arrivals
            .windows(2)
            .all(|w| (w[0].at, w[0].region) <= (w[1].at, w[1].region)));
        assert_eq!(RegionalTrace::new(arrivals), Ok(trace));
    }
}
