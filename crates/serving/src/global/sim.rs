//! The deterministic global-serving simulation.
//!
//! A per-device DES: every accelerator has its own dispatch queue and
//! serves one request at a time, so a single fail-slow device inflates
//! *its own* queue instead of being averaged into a pod-wide slot pool
//! — the fidelity step that makes gray failures visible at all. The
//! inputs — fleet spec, config, arrival trace, fault plan, routing
//! policy — are plain values, the simulation is a pure function of
//! them, and every tie is broken by a fixed source order (device
//! capacity < gray fault < partition < wake < probe < completion <
//! hedge < arrival, then ascending ids), so byte-identical inputs give
//! byte-identical reports at any thread count.
//!
//! # The hot core
//!
//! The event structures are built for throughput, not just
//! correctness, because a planetary replay (E24) pushes ≥10⁷ requests
//! and several times that many timed events through this loop:
//!
//! * completions, wakes, and hedge timers live in slab-allocated
//!   indexed binary heaps ([`EventQueue`]) whose pops ascend in
//!   exactly the `(time, id)` order the original `BTreeMap`/`BTreeSet`
//!   queues iterated in — zero allocation at steady state, O(log n)
//!   cancel by handle when a fault kills an in-flight request;
//! * per-request state lives in a generational slab ([`Arena`]); the
//!   registry keeps each request's *logical* (monotonic) id as the
//!   hedge-timer tie-break so slot reuse can never reorder same-instant
//!   hedges;
//! * per-device state is struct-of-arrays ([`Devices`]): the routing
//!   and probe sweeps scan dense `Vec<bool>`/`Vec<u32>` columns instead
//!   of striding over fat structs, with a derived `eligible` column
//!   maintained at every health/outlier/up transition;
//! * the loop itself is resumable ([`Sim::run_until`]): the
//!   cell-sharded parallel driver in [`super::shard`] advances many
//!   independent `Sim`s in speculative epoch windows, restores clones
//!   when a window mispredicts the fleet floor, and merges their
//!   reports deterministically.
//!
//! Every processed event increments a local counter that is flushed to
//! [`mtia_core::perfcount`] when the report is built, which is what
//! `reproduce --bench-perf` reports as simulated events/sec.
//!
//! Fault-plan interpretation:
//!
//! * capacity faults ([`FaultKind::HostCrash`],
//!   [`FaultKind::RackPowerLoss`], [`FaultKind::PodLoss`],
//!   [`FaultKind::RegionOutage`]) — each device's windows are unioned
//!   into up/down toggles. A device going down kills its in-flight
//!   request (`lost_killed`) and its queue is re-dealt to surviving
//!   devices in the pod (or waits for restore if the pod is empty).
//! * reachability faults ([`FaultKind::WanPartition`],
//!   [`FaultKind::NicPartition`]) — windows are unioned per *region*;
//!   while a region is partitioned it serves only its own ingress and
//!   receives no spillover.
//! * fail-slow faults ([`FaultKind::ThermalThrottle`],
//!   [`FaultKind::MemoryRetentionDegradation`], [`FaultKind::NicFlap`])
//!   — applied to the device's [`DeviceFaultState`] in **every** arm
//!   (the physics is arm-independent): throttle/retention multiply the
//!   service time of work *starting* while active, and a flap's loss
//!   phase blocks dispatch until the link's next clear instant (a wake
//!   event). Crucially, none of these touch `up`, so the device passes
//!   every liveness probe while degrading.
//!
//! The [`RoutingPolicy::GrayResilient`] arm layers detection on top:
//! at every probe sweep each pod scores its devices' service-time
//! EWMAs against the pod median ([`OutlierDetector`]), demotes
//! sustained outliers through the legal `Healthy → Degraded` edge
//! (assignment then avoids them), and derives a quantile hedge
//! deadline; requests still unanswered past it are re-issued to a
//! non-outlier device in-pod, then cross-pod, with exact
//! duplicate-suppression accounting (`offered == served + shed +
//! lost` still holds to the request; duplicates never double-count).
//!
//! Per-request timing: routing happens at the ingress instant with the
//! fleet state visible then; WAN transit does not delay queueing but
//! the round trip (`2 × wan`) is charged to the reported latency, and
//! the queueing deadline applies between ingress and service start.
//!
//! [`FaultKind::HostCrash`]: mtia_sim::faults::FaultKind::HostCrash
//! [`FaultKind::RackPowerLoss`]: mtia_sim::faults::FaultKind::RackPowerLoss
//! [`FaultKind::PodLoss`]: mtia_sim::faults::FaultKind::PodLoss
//! [`FaultKind::RegionOutage`]: mtia_sim::faults::FaultKind::RegionOutage
//! [`FaultKind::WanPartition`]: mtia_sim::faults::FaultKind::WanPartition
//! [`FaultKind::NicPartition`]: mtia_sim::faults::FaultKind::NicPartition
//! [`FaultKind::ThermalThrottle`]: mtia_sim::faults::FaultKind::ThermalThrottle
//! [`FaultKind::MemoryRetentionDegradation`]: mtia_sim::faults::FaultKind::MemoryRetentionDegradation
//! [`FaultKind::NicFlap`]: mtia_sim::faults::FaultKind::NicFlap

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mtia_core::eventq::{Arena, ArenaRef, EventId, EventQueue};
use mtia_core::telemetry::{Json, LatencyHistogram, Telemetry};
use mtia_core::SimTime;
use mtia_sim::faults::{DeviceFaultState, FaultKind, FaultPlan};

use crate::resilience::outlier::OutlierDetector;
use crate::resilience::{CircuitBreaker, HealthMachine, HealthState, RetryBudget};

use super::autoscale::{target_devices_per_pod, DiurnalForecast};
use super::report::{GlobalComparison, GlobalReport, TimelineBucket};
use super::{Arrivals, GlobalConfig, GlobalFleetSpec, Priority, RegionalTrace, RoutingPolicy};

/// Merges possibly-overlapping `(start, end)` windows into disjoint
/// ascending intervals.
fn merge_windows(mut windows: Vec<(SimTime, SimTime)>) -> Vec<(SimTime, SimTime)> {
    windows.sort();
    let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
    for (start, end) in windows {
        match merged.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

/// Per-device ±1 up/down toggles derived from the plan's fail-stop
/// capacity windows, sorted `(time, device, delta)` so drops apply
/// before restorations at the same instant.
fn device_capacity_events(plan: &FaultPlan) -> Vec<(SimTime, u32, i32)> {
    let mut per_device: BTreeMap<u32, Vec<(SimTime, SimTime)>> = BTreeMap::new();
    for event in plan.events() {
        if matches!(
            event.kind,
            FaultKind::HostCrash
                | FaultKind::RackPowerLoss
                | FaultKind::PodLoss
                | FaultKind::RegionOutage
        ) {
            per_device
                .entry(event.device)
                .or_default()
                .push((event.at, event.until()));
        }
    }
    let mut deltas = Vec::new();
    for (device, windows) in per_device {
        for (start, end) in merge_windows(windows) {
            deltas.push((start, device, -1));
            deltas.push((end, device, 1));
        }
    }
    deltas.sort_by_key(|&(at, device, delta)| (at, device, delta));
    deltas
}

/// Indexes of the plan's fail-slow events in `(time, device)` order —
/// each is applied to the owning device's fault state at its onset.
fn gray_fault_events(plan: &FaultPlan) -> Vec<(SimTime, usize)> {
    let mut events: Vec<(SimTime, usize)> = plan
        .events()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind.is_fail_slow())
        .map(|(i, e)| (e.at, i))
        .collect();
    events.sort_by_key(|&(at, i)| (at, i));
    events
}

/// Per-region partition on/off toggles derived from the plan's
/// partition windows, sorted `(time, region, on)` so heals apply
/// before fresh partitions at the same instant.
fn partition_toggles(spec: &GlobalFleetSpec, plan: &FaultPlan) -> Vec<(SimTime, u32, bool)> {
    let mut per_region: BTreeMap<u32, Vec<(SimTime, SimTime)>> = BTreeMap::new();
    for event in plan.events() {
        if matches!(
            event.kind,
            FaultKind::WanPartition | FaultKind::NicPartition
        ) {
            let region = spec.region_of_pod(spec.pod_of_device(event.device));
            per_region
                .entry(region)
                .or_default()
                .push((event.at, event.until()));
        }
    }
    let mut toggles = Vec::new();
    for (region, windows) in per_region {
        for (start, end) in merge_windows(windows) {
            toggles.push((start, region, true));
            toggles.push((end, region, false));
        }
    }
    toggles.sort_by_key(|&(at, region, on)| (at, region, on));
    toggles
}

/// One copy of a request (primary or hedge) sitting in a device queue
/// or in flight.
#[derive(Debug, Clone, Copy)]
struct QueuedCopy {
    req: ArenaRef,
    arrived: SimTime,
    ingress: u32,
    wan_rtt: SimTime,
    degraded: bool,
    tier: u8,
    hedge: bool,
}

/// What the completion event needs to close out a copy.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    device: u32,
    started: SimTime,
    copy: QueuedCopy,
}

/// Registry entry for one *logical* request: its copies race, the
/// first completion answers it, and the loss class (if any) is decided
/// by the last copy's fate. `logical` is the request's monotonic issue
/// number — the deterministic tie-break for same-instant hedge timers,
/// stable across arena-slot reuse.
#[derive(Debug, Clone, Copy)]
struct ReqState {
    logical: u64,
    arrived: SimTime,
    ingress: u32,
    degraded: bool,
    tier: u8,
    pod: u32,
    device: u32,
    live: u32,
    hedges: u32,
    answered: bool,
}

/// How a copy ended without serving its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyEnd {
    /// Dropped at dispatch because the request was already answered.
    Cancelled,
    /// Queueing deadline passed before service could start.
    Expired,
    /// In flight on a device a fault took down.
    Killed,
}

/// Per-device state as struct-of-arrays: the assignment round-robin,
/// the clean-device scan, and the probe sweep all walk one or two dense
/// columns instead of striding over a fat per-device struct.
///
/// `eligible[d]` is derived — `up && !outlier && health ∈ {Healthy,
/// Recovering}` — and refreshed at every site that mutates one of its
/// inputs, so the hot scans are single boolean loads.
#[derive(Clone)]
struct Devices {
    pod: Vec<u32>,
    region: Vec<u32>,
    up: Vec<bool>,
    /// Scale state: reserve devices start inactive and only the
    /// autoscaler flips this. Orthogonal to `up` (fault state) —
    /// effective capacity is `up && active`.
    active: Vec<bool>,
    outlier: Vec<bool>,
    eligible: Vec<bool>,
    /// Handle to the pending completion while busy.
    busy: Vec<Option<EventId>>,
    /// Handle to the most recently scheduled wake (dedup only; stale
    /// handles are harmless).
    wake: Vec<EventId>,
    queue: Vec<VecDeque<QueuedCopy>>,
    faults: Vec<DeviceFaultState>,
    health: Vec<HealthMachine>,
}

impl Devices {
    fn new(spec: &GlobalFleetSpec, config: &GlobalConfig) -> Self {
        let n = spec.devices() as usize;
        let mut dev = Devices {
            pod: Vec::with_capacity(n),
            region: Vec::with_capacity(n),
            up: vec![true; n],
            active: vec![true; n],
            outlier: vec![false; n],
            eligible: vec![false; n],
            busy: vec![None; n],
            wake: vec![EventId::NONE; n],
            queue: vec![VecDeque::new(); n],
            faults: (0..n).map(|_| DeviceFaultState::new()).collect(),
            health: (0..n).map(|_| HealthMachine::new(config.health)).collect(),
        };
        for d in 0..spec.devices() {
            let pod = spec.pod_of_device(d);
            dev.pod.push(pod);
            dev.region.push(spec.region_of_pod(pod));
        }
        for d in 0..n {
            dev.refresh_eligible(d);
        }
        dev
    }

    /// Re-derives the `eligible` column entry from its inputs; call
    /// after any `up`/`active`/`outlier`/health mutation.
    fn refresh_eligible(&mut self, d: usize) {
        self.eligible[d] = self.up[d]
            && self.active[d]
            && !self.outlier[d]
            && matches!(
                self.health[d].state(),
                HealthState::Healthy | HealthState::Recovering
            );
    }
}

#[derive(Clone)]
struct PodState {
    region: u32,
    up: u32,
    busy: u32,
    queued: u32,
    health: HealthMachine,
    down_since: Option<SimTime>,
    rr_dev: u64,
    detector: OutlierDetector,
    hedge_deadline: SimTime,
}

/// A resumable single-cell DES over one `(spec, config, trace, plan,
/// policy)` input tuple. [`Sim::run_until`] advances it through every
/// event at or before a limit; the sharded driver uses this to
/// advance many cells in epoch windows, and clones it to checkpoint a
/// window it may roll back. [`Sim::into_report`] closes out a
/// fully-drained run.
#[derive(Clone)]
pub(super) struct Sim<'a> {
    spec: &'a GlobalFleetSpec,
    config: &'a GlobalConfig,
    plan: &'a FaultPlan,
    trace: &'a RegionalTrace,
    arrivals: Arrivals<'a>,
    policy: RoutingPolicy,
    gray_on: bool,
    /// Client-side retry timers run (NaiveRetry / OverloadResilient).
    retry_on: bool,
    /// The full defense stack is armed (OverloadResilient only).
    defended: bool,
    dev: Devices,
    pods: Vec<PodState>,
    partitioned: Vec<bool>,
    local_pods: Vec<Vec<u32>>,
    rr: Vec<u64>,
    completions: EventQueue<InFlight>,
    wakes: EventQueue<u32>,
    hedges: EventQueue<ArenaRef>,
    /// Client retry timers, keyed `(fire, logical)` like hedges.
    retries: EventQueue<ArenaRef>,
    /// Per-pod retry token buckets (defended arm with a budget only).
    budgets: Vec<RetryBudget>,
    /// Per-(ingress, pod) edge breakers, indexed `ingress × pods + pod`
    /// (defended arm with a breaker config only).
    breakers: Vec<CircuitBreaker>,
    /// Fitted diurnal forecast (autoscaling arm only).
    forecast: Option<DiurnalForecast>,
    /// Devices per pod that are *not* reserve (the scale-down floor).
    nominal_per_pod: u32,
    reqs: Arena<ReqState>,
    next_req: u64,
    seq: u64,
    tier: u8,
    /// Minimum ladder tier imposed from outside (fleet-wide coupling in
    /// the sharded driver); 0 in a standalone run, where the behaviour
    /// is then exactly the uncoupled single-cell simulation.
    tier_floor: u8,
    total_up: u64,
    total_busy: u64,
    total_queued: u64,
    // event-source cursors (the resumable loop state)
    deltas: Vec<(SimTime, u32, i32)>,
    grays: Vec<(SimTime, usize)>,
    toggles: Vec<(SimTime, u32, bool)>,
    di: usize,
    gi: usize,
    ti: usize,
    probing: bool,
    probe_at: SimTime,
    scaling: bool,
    scale_at: SimTime,
    last_arrival: SimTime,
    end: SimTime,
    events: u64,
    // outcome accumulators
    served_full: u64,
    served_degraded: u64,
    shed: u64,
    lost_unroutable: u64,
    lost_killed: u64,
    lost_deadline: u64,
    spillover: u64,
    hedges_issued: u64,
    hedge_wins: u64,
    duplicates_suppressed: u64,
    hedges_cancelled: u64,
    retries_issued: u64,
    retries_shed: u64,
    cancelled_at_admission: u64,
    scale_events: u64,
    outlier_demotions: u64,
    device_downs: u64,
    request_latency: LatencyHistogram,
    spillover_latency: LatencyHistogram,
    recovery_time: SimTime,
    capacity_headroom: f64,
    routed: Vec<Vec<u64>>,
    timeline: Vec<TimelineBucket>,
}

impl<'a> Sim<'a> {
    pub(super) fn new(
        spec: &'a GlobalFleetSpec,
        config: &'a GlobalConfig,
        trace: &'a RegionalTrace,
        plan: &'a FaultPlan,
        policy: RoutingPolicy,
    ) -> Self {
        spec.validate();
        let gray_on = policy == RoutingPolicy::GrayResilient;
        let retry_on = policy.retries();
        let defended = policy == RoutingPolicy::OverloadResilient;
        // Before any sweep runs, hedge at multiplier × the base service
        // time (floored by the policy delay like every later value).
        let initial_deadline = SimTime::from_secs_f64(
            config.service_time.as_secs_f64() * config.gray.outlier.hedge_multiplier,
        );
        let initial_deadline = match config.gray.hedge {
            Some(policy) => initial_deadline.max(policy.delay),
            None => initial_deadline,
        };
        // Reserve devices (the highest-indexed per pod) start inactive:
        // they are the pool only the autoscaler can energize. Clamped so
        // at least one device per pod stays active.
        let reserve = config
            .reserve_per_pod
            .min(spec.devices_per_pod.saturating_sub(1));
        let nominal_per_pod = spec.devices_per_pod - reserve;
        let mut dev = Devices::new(spec, config);
        if reserve > 0 {
            for p in 0..spec.pods() {
                for k in nominal_per_pod..spec.devices_per_pod {
                    let d = (p * spec.devices_per_pod + k) as usize;
                    dev.active[d] = false;
                    dev.refresh_eligible(d);
                }
            }
        }
        let budgets = match (defended, config.overload.budget) {
            (true, Some(budget)) => (0..spec.pods()).map(|_| RetryBudget::new(budget)).collect(),
            _ => Vec::new(),
        };
        let breakers = match (defended, config.overload.breaker) {
            (true, Some(breaker)) => (0..spec.regions * spec.pods())
                .map(|_| CircuitBreaker::new(breaker))
                .collect(),
            _ => Vec::new(),
        };
        let pods = (0..spec.pods())
            .map(|p| PodState {
                region: spec.region_of_pod(p),
                up: nominal_per_pod,
                busy: 0,
                queued: 0,
                health: HealthMachine::new(config.health),
                down_since: None,
                rr_dev: 0,
                detector: OutlierDetector::new(spec.devices_per_pod as usize, config.gray.outlier),
                hedge_deadline: initial_deadline,
            })
            .collect();
        let local_pods = (0..spec.regions).map(|r| spec.pods_in_region(r)).collect();
        let last_arrival = trace.last_at().unwrap_or(SimTime::ZERO);
        // The autoscaling arm fits the per-region diurnal harmonic from
        // the trace once, up front — the "forecast" the planner trusts.
        let scaling = defended && config.autoscale.is_some() && !trace.is_empty();
        let forecast = if scaling {
            let autoscale = config.autoscale.as_ref().expect("scaling implies config");
            Some(DiurnalForecast::fit(
                trace,
                spec.regions,
                last_arrival,
                autoscale,
            ))
        } else {
            None
        };
        let scale_at = config
            .autoscale
            .map_or(SimTime::ZERO, |autoscale| autoscale.interval);
        Sim {
            spec,
            config,
            plan,
            trace,
            arrivals: trace.arrivals(),
            policy,
            gray_on,
            retry_on,
            defended,
            dev,
            pods,
            partitioned: vec![false; spec.regions as usize],
            local_pods,
            rr: vec![0; spec.regions as usize],
            completions: EventQueue::new(),
            wakes: EventQueue::new(),
            hedges: EventQueue::new(),
            retries: EventQueue::new(),
            budgets,
            breakers,
            forecast,
            nominal_per_pod,
            reqs: Arena::new(),
            next_req: 0,
            seq: 0,
            tier: 0,
            tier_floor: 0,
            total_up: (spec.pods() * nominal_per_pod) as u64,
            total_busy: 0,
            total_queued: 0,
            deltas: device_capacity_events(plan),
            grays: gray_fault_events(plan),
            toggles: partition_toggles(spec, plan),
            di: 0,
            gi: 0,
            ti: 0,
            probing: policy != RoutingPolicy::StaticLocal,
            probe_at: config.probe_interval,
            scaling,
            scale_at,
            last_arrival,
            end: SimTime::ZERO,
            events: 0,
            served_full: 0,
            served_degraded: 0,
            shed: 0,
            lost_unroutable: 0,
            lost_killed: 0,
            lost_deadline: 0,
            spillover: 0,
            hedges_issued: 0,
            hedge_wins: 0,
            duplicates_suppressed: 0,
            hedges_cancelled: 0,
            retries_issued: 0,
            retries_shed: 0,
            cancelled_at_admission: 0,
            scale_events: 0,
            outlier_demotions: 0,
            device_downs: 0,
            request_latency: LatencyHistogram::new(),
            spillover_latency: LatencyHistogram::new(),
            recovery_time: SimTime::ZERO,
            capacity_headroom: 1.0,
            routed: vec![vec![0; spec.pods() as usize]; spec.regions as usize],
            timeline: Vec::new(),
        }
    }

    /// The timeline bucket a request arriving at `arrived` lands in,
    /// growing the vector on demand.
    fn bucket_mut(&mut self, arrived: SimTime) -> &mut TimelineBucket {
        let width = self.config.timeline_bucket.as_picos().max(1);
        let b = (arrived.as_picos() / width) as usize;
        if self.timeline.len() <= b {
            self.timeline.resize(b + 1, TimelineBucket::default());
        }
        &mut self.timeline[b]
    }

    /// Breaker for the `(ingress, pod)` edge, when the defense is armed.
    fn breaker_mut(&mut self, ingress: u32, pod: u32) -> Option<&mut CircuitBreaker> {
        if self.breakers.is_empty() {
            return None;
        }
        let idx = ingress as usize * self.pods.len() + pod as usize;
        Some(&mut self.breakers[idx])
    }

    /// The ladder tier requests actually see: the cell's own hysteresis
    /// state, floored by any fleet-wide coupling.
    fn effective_tier(&self) -> u8 {
        self.tier.max(self.tier_floor)
    }

    /// Imposes a fleet-wide minimum ladder tier (sharded driver only).
    pub(super) fn set_tier_floor(&mut self, floor: u8) {
        self.tier_floor = floor;
    }

    /// `(busy + queued, up)` slot totals — the coupling signal the
    /// sharded driver aggregates at epoch barriers.
    pub(super) fn load(&self) -> (u64, u64) {
        (self.total_busy + self.total_queued, self.total_up)
    }

    /// Time of the next pending event, if any work remains.
    pub(super) fn next_time(&self) -> Option<SimTime> {
        self.next_event().map(|(at, _)| at)
    }

    /// Resolves one copy that ended without answering its request,
    /// counting a request-level loss only when the *last* live copy
    /// dies unanswered.
    fn drop_copy(&mut self, req: ArenaRef, end: CopyEnd) {
        let Some(state) = self.reqs.get_mut(req) else {
            debug_assert!(false, "copy without registry entry");
            return;
        };
        state.live -= 1;
        let (answered, live) = (state.answered, state.live);
        if answered {
            match end {
                CopyEnd::Cancelled => self.hedges_cancelled += 1,
                _ => self.duplicates_suppressed += 1,
            }
        } else if live == 0 {
            match end {
                // A copy is cancelled only once the request is answered.
                CopyEnd::Cancelled => debug_assert!(false, "cancelled an unanswered request"),
                CopyEnd::Expired => self.lost_deadline += 1,
                CopyEnd::Killed => self.lost_killed += 1,
            }
        }
        if live == 0 {
            self.reqs.remove(req);
        }
    }

    /// Starts the device's next queued copy if it is up, idle, and its
    /// link is clear; a flap's loss phase schedules a wake at the next
    /// clear instant instead. Cancelled and expired copies drain here.
    fn dispatch(&mut self, d: u32, now: SimTime) {
        let di = d as usize;
        loop {
            if !self.dev.up[di]
                || !self.dev.active[di]
                || self.dev.busy[di].is_some()
                || self.dev.queue[di].is_empty()
            {
                return;
            }
            self.dev.faults[di].expire(now);
            if !self.dev.faults[di].reachable(now) {
                if let Some(wake) = self.dev.faults[di].next_reachable_at(now) {
                    // Dedup against the device's pending wake so the
                    // heap matches the old BTreeSet's set semantics.
                    let key = (wake, d as u64);
                    if self.wakes.key_of(self.dev.wake[di]) != Some(key) {
                        self.dev.wake[di] = self.wakes.push(wake, d as u64, d);
                    }
                }
                return;
            }
            let copy = self.dev.queue[di].pop_front().expect("checked non-empty");
            let pod = self.dev.pod[di] as usize;
            self.pods[pod].queued -= 1;
            self.total_queued -= 1;
            let answered = self.reqs.get(copy.req).is_none_or(|r| r.answered);
            // The naive-retry arm is deadline- and duplicate-*oblivious*
            // at the server: it cannot tell that a copy's request was
            // already answered (no cancellation propagation) or that its
            // client has long given up, so it burns a full service slot
            // either way — the wasted work that sustains the metastable
            // latch. Every other arm cancels both for free here.
            if answered && self.policy != RoutingPolicy::NaiveRetry {
                self.drop_copy(copy.req, CopyEnd::Cancelled);
                continue;
            }
            if self.policy != RoutingPolicy::NaiveRetry && now > copy.arrived + self.config.deadline
            {
                if self.defended {
                    let pod_id = self.dev.pod[di];
                    if let Some(b) = self.breaker_mut(copy.ingress, pod_id) {
                        b.record_failure(now);
                    }
                }
                self.drop_copy(copy.req, CopyEnd::Expired);
                continue;
            }
            let base = if copy.degraded {
                self.config.degraded_service_time
            } else {
                self.config.service_time
            };
            let service = base.scale(self.dev.faults[di].service_time_factor(now));
            self.seq += 1;
            let id = self.completions.push(
                now + service,
                self.seq,
                InFlight {
                    device: d,
                    started: now,
                    copy,
                },
            );
            self.dev.busy[di] = Some(id);
            self.pods[pod].busy += 1;
            self.total_busy += 1;
            return;
        }
    }

    /// Round-robin device pick within a pod, preferring (in the gray
    /// arm) devices that are neither demoted nor flagged, then any up
    /// device, then — with the whole pod down — any device at all, so
    /// the naive arm keeps feeding dead capacity exactly like the old
    /// pod-slot model did.
    fn assign_device(&mut self, pod: u32) -> u32 {
        let n = self.spec.devices_per_pod as u64;
        let first = pod * self.spec.devices_per_pod;
        let start = self.pods[pod as usize].rr_dev;
        for pass in 0..4 {
            for k in 0..n {
                let d = first + ((start + k) % n) as u32;
                let di = d as usize;
                let ok = match pass {
                    0 => {
                        self.dev.up[di]
                            && self.dev.active[di]
                            && (!self.gray_on || self.dev.eligible[di])
                    }
                    1 => self.dev.up[di] && self.dev.active[di],
                    // Down-but-active beats inactive: a down device
                    // always comes back (fault windows are finite) and
                    // drains its queue; a deactivated reserve may not.
                    2 => self.dev.active[di],
                    _ => true,
                };
                if ok {
                    self.pods[pod as usize].rr_dev = start + k + 1;
                    return d;
                }
            }
        }
        unreachable!("pass 3 accepts every device")
    }

    /// Applies one per-device up/down toggle. Down kills the device's
    /// in-flight copy and re-deals its queue to surviving pod peers;
    /// up starts probation and drains whatever queued on it meanwhile.
    fn apply_device_delta(&mut self, at: SimTime, d: u32, delta: i32) {
        let di = d as usize;
        let pod = self.dev.pod[di] as usize;
        if delta < 0 {
            debug_assert!(self.dev.up[di], "merged windows alternate");
            self.dev.up[di] = false;
            self.dev.health[di].set_offline(at);
            self.dev.refresh_eligible(di);
            self.device_downs += 1;
            // Inactive reserves carry no capacity, so their fault
            // windows must not touch the effective-capacity counters.
            if self.dev.active[di] {
                self.pods[pod].up -= 1;
                self.total_up -= 1;
                if self.pods[pod].up == 0 && self.pods[pod].down_since.is_none() {
                    self.pods[pod].down_since = Some(at);
                }
            }
            if let Some(id) = self.dev.busy[di].take() {
                let inflight = self
                    .completions
                    .cancel(id)
                    .expect("busy implies a pending completion");
                self.pods[pod].busy -= 1;
                self.total_busy -= 1;
                if self.defended {
                    if let Some(b) = self.breaker_mut(inflight.copy.ingress, pod as u32) {
                        b.record_failure(at);
                    }
                }
                self.drop_copy(inflight.copy.req, CopyEnd::Killed);
            }
            if self.pods[pod].up > 0 && !self.dev.queue[di].is_empty() {
                let moved: Vec<QueuedCopy> = self.dev.queue[di].drain(..).collect();
                let mut targets = BTreeSet::new();
                for copy in moved {
                    let t = self.assign_device(pod as u32);
                    self.dev.queue[t as usize].push_back(copy);
                    targets.insert(t);
                }
                for t in targets {
                    self.dispatch(t, at);
                }
            }
        } else {
            if self.dev.active[di] && self.pods[pod].up == 0 {
                if let Some(since) = self.pods[pod].down_since.take() {
                    self.recovery_time = self.recovery_time.max(at.saturating_sub(since));
                }
            }
            self.dev.up[di] = true;
            self.dev.health[di].begin_recovery(at);
            self.dev.refresh_eligible(di);
            if self.dev.active[di] {
                self.pods[pod].up += 1;
                self.total_up += 1;
                self.dispatch(d, at);
            }
        }
    }

    /// One probe sweep. Every pod's health machine observes whether the
    /// pod has up capacity (liveness — which fail-slow devices pass).
    /// The gray arm then runs the peer-relative detector: canary
    /// observations keep sidelined devices' estimates fresh, sustained
    /// outliers are demoted `Healthy → Degraded`, recovered ones earn
    /// their way back, and each pod's hedge deadline re-anchors to the
    /// EWMA quantile.
    fn probe(&mut self, now: SimTime) {
        for state in &mut self.pods {
            if state.up > 0 {
                state.health.begin_recovery(now);
                state.health.observe_success(now);
            } else if state.health.state() != HealthState::Offline {
                state.health.observe_error(now);
            }
        }
        // Breakers judge their outcome windows at the same cadence the
        // pod health machines do.
        for b in &mut self.breakers {
            b.on_window(now);
        }
        if !self.gray_on {
            return;
        }
        let dpp = self.spec.devices_per_pod as usize;
        let service_secs = self.config.service_time.as_secs_f64();
        let delay_floor = self.config.gray.hedge.map(|h| h.delay);
        let mut active = vec![false; dpp];
        for p in 0..self.pods.len() {
            let first = p * dpp;
            for (k, slot) in active.iter_mut().enumerate() {
                let d = first + k;
                *slot = self.dev.up[d];
                // Sidelined devices see almost no traffic, so their
                // EWMA would freeze at its demotion-time value; an
                // out-of-band canary observation of the current fault
                // factor lets them re-earn Healthy once the fault ends.
                if self.dev.up[d]
                    && (self.dev.outlier[d]
                        || matches!(
                            self.dev.health[d].state(),
                            HealthState::Degraded | HealthState::Recovering
                        ))
                {
                    let factor = self.dev.faults[d].service_time_factor(now);
                    self.pods[p].detector.observe(k, factor);
                }
            }
            let sweep = self.pods[p].detector.sweep(1.0, &active);
            let mut deadline = SimTime::from_secs_f64(sweep.hedge_deadline_secs * service_secs);
            if let Some(floor) = delay_floor {
                deadline = deadline.max(floor);
            }
            self.pods[p].hedge_deadline = deadline;
            for k in 0..dpp {
                let d = first + k;
                self.dev.outlier[d] = sweep.sustained[k];
                if sweep.sustained[k] {
                    // Demote through the legal Healthy → Degraded edge
                    // only; a second error would take Degraded →
                    // Offline, which fail-slow must never do.
                    if self.dev.health[d].state() == HealthState::Healthy {
                        self.dev.health[d].observe_error(now);
                        self.outlier_demotions += 1;
                    }
                } else if matches!(
                    self.dev.health[d].state(),
                    HealthState::Degraded | HealthState::Recovering
                ) {
                    self.dev.health[d].observe_success(now);
                }
                self.dev.refresh_eligible(d);
            }
        }
    }

    /// Moves the degradation ladder against global utilization with
    /// hysteresis.
    fn update_tier(&mut self) {
        let util = if self.total_up == 0 {
            f64::INFINITY
        } else {
            (self.total_busy + self.total_queued) as f64 / self.total_up as f64
        };
        let ladder = &self.config.ladder;
        self.tier = match self.tier {
            0 => {
                if util >= ladder.degrade_enter {
                    2
                } else if util >= ladder.shed_enter {
                    1
                } else {
                    0
                }
            }
            1 => {
                if util >= ladder.degrade_enter {
                    2
                } else if util < ladder.shed_exit {
                    0
                } else {
                    1
                }
            }
            _ => {
                if util < ladder.shed_exit {
                    0
                } else if util < ladder.degrade_exit {
                    1
                } else {
                    2
                }
            }
        };
    }

    /// The router's scoring pass: cheapest reachable dispatchable pod,
    /// where cost is WAN latency plus an instantaneous queue estimate;
    /// cross-region candidates must also pass spillover admission.
    /// `exclude` skips one pod (hedges never re-target the primary).
    fn route(&self, ingress: u32, exclude: Option<u32>) -> Option<u32> {
        let service_s = self.config.service_time.as_secs_f64();
        let mut best: Option<(f64, u32)> = None;
        for (p, state) in self.pods.iter().enumerate() {
            let p = p as u32;
            if exclude == Some(p) {
                continue;
            }
            let local = state.region == ingress;
            let reachable = local
                || (!self.partitioned[ingress as usize]
                    && !self.partitioned[state.region as usize]);
            if !reachable || state.up == 0 || !state.health.is_dispatchable() {
                continue;
            }
            if !self.breakers.is_empty()
                && !self.breakers[ingress as usize * self.pods.len() + p as usize].allows()
            {
                continue;
            }
            let load = (state.busy as f64 + state.queued as f64) / state.up as f64;
            if !local && load >= self.config.spillover_max_utilization {
                continue;
            }
            let score =
                self.spec.wan_latency(ingress, state.region).as_secs_f64() + load * service_s;
            if best.is_none_or(|(b, _)| score < b) {
                best = Some((score, p));
            }
        }
        best.map(|(_, p)| p)
    }

    /// One ingress arrival, end to end: headroom sample, ladder update,
    /// shed/route decision, device assignment, enqueue, immediate
    /// dispatch attempt, hedge-timer arm.
    fn arrive(&mut self, at: SimTime, region: u32, priority: Priority) {
        let headroom = if self.total_up == 0 {
            0.0
        } else {
            // Saturating: a scaled-down device finishes its in-flight
            // copy after leaving the active pool, so `busy` can briefly
            // exceed `up`.
            self.total_up.saturating_sub(self.total_busy) as f64 / self.total_up as f64
        };
        self.capacity_headroom = self.capacity_headroom.min(headroom);
        self.bucket_mut(at).offered += 1;

        let pod = match self.policy {
            RoutingPolicy::StaticLocal => {
                let local = &self.local_pods[region as usize];
                let pod = local[(self.rr[region as usize] % local.len() as u64) as usize];
                self.rr[region as usize] += 1;
                pod
            }
            RoutingPolicy::HealthAware
            | RoutingPolicy::GrayResilient
            | RoutingPolicy::NaiveRetry
            | RoutingPolicy::OverloadResilient => {
                self.update_tier();
                if self.effective_tier() >= 1 && priority == Priority::Low {
                    self.shed += 1;
                    return;
                }
                match self.route(region, None) {
                    Some(pod) => pod,
                    None => {
                        self.lost_unroutable += 1;
                        return;
                    }
                }
            }
        };
        if self.defended {
            // Deadline propagation starts at admission: a fresh request
            // whose expected queue + service time already exceeds its
            // end-to-end budget is cancelled up front instead of burning
            // capacity on an answer nobody can use.
            let p = &self.pods[pod as usize];
            let depth = (p.queued + p.busy) as f64 / p.up.max(1) as f64;
            let expected = self.config.service_time.scale(depth + 1.0);
            if expected > self.config.deadline {
                self.cancelled_at_admission += 1;
                self.shed += 1;
                return;
            }
            if let Some(b) = self.breaker_mut(region, pod) {
                b.note_probe();
            }
            if !self.budgets.is_empty() {
                self.budgets[pod as usize].admit_fresh();
            }
        }
        let dest_region = self.pods[pod as usize].region;
        let wan_rtt =
            self.spec.wan_latency(region, dest_region) + self.spec.wan_latency(dest_region, region);
        if dest_region != region {
            self.spillover += 1;
        }
        self.routed[region as usize][pod as usize] += 1;
        let routed_arm = self.policy != RoutingPolicy::StaticLocal;
        let degraded = routed_arm && self.effective_tier() == 2;
        let tier = if routed_arm { self.effective_tier() } else { 0 };
        let device = self.assign_device(pod);
        self.next_req += 1;
        let logical = self.next_req;
        let req = self.reqs.insert(ReqState {
            logical,
            arrived: at,
            ingress: region,
            degraded,
            tier,
            pod,
            device,
            live: 1,
            hedges: 0,
            answered: false,
        });
        self.dev.queue[device as usize].push_back(QueuedCopy {
            req,
            arrived: at,
            ingress: region,
            wan_rtt,
            degraded,
            tier,
            hedge: false,
        });
        self.pods[pod as usize].queued += 1;
        self.total_queued += 1;
        self.dispatch(device, at);
        if self.gray_on && self.config.gray.hedge.is_some() {
            self.hedges
                .push(at + self.pods[pod as usize].hedge_deadline, logical, req);
        }
        if self.retry_on && self.config.overload.max_attempts > 1 {
            self.retries
                .push(at + self.config.overload.attempt_timeout, logical, req);
        }
    }

    /// Least-loaded clean device in `pod`, excluding `avoid` — `None`
    /// when every candidate is down, demoted, or flagged.
    fn clean_device_in(&self, pod: u32, avoid: Option<u32>) -> Option<u32> {
        let first = pod * self.spec.devices_per_pod;
        let mut best: Option<(usize, u32)> = None;
        for k in 0..self.spec.devices_per_pod {
            let d = first + k;
            if avoid == Some(d) {
                continue;
            }
            let di = d as usize;
            if !self.dev.eligible[di] {
                continue;
            }
            let load = self.dev.queue[di].len() + usize::from(self.dev.busy[di].is_some());
            if best.is_none_or(|(b, _)| load < b) {
                best = Some((load, d));
            }
        }
        best.map(|(_, d)| d)
    }

    /// A hedge's re-issue deadline elapsed: duplicate the request onto
    /// a non-outlier device — in-pod first, cross-pod (with the usual
    /// reachability and spillover admission) as the fallback. No-op if
    /// the request already answered, exhausted its hedge budget, or no
    /// clean target exists.
    fn fire_hedge(&mut self, at: SimTime, id: ArenaRef) {
        let Some(policy) = self.config.gray.hedge else {
            return;
        };
        let Some(req) = self.reqs.get(id).copied() else {
            return; // request fully closed
        };
        if req.answered || req.hedges >= policy.max_hedges {
            return;
        }
        let target = self.clean_device_in(req.pod, Some(req.device)).or_else(|| {
            self.route(req.ingress, Some(req.pod))
                .and_then(|p| self.clean_device_in(p, None))
        });
        let Some(target) = target else { return };
        let entry = self.reqs.get_mut(id).expect("checked above");
        entry.hedges += 1;
        entry.live += 1;
        let more = entry.hedges < policy.max_hedges;
        self.hedges_issued += 1;
        let dest_region = self.dev.region[target as usize];
        let wan_rtt = self.spec.wan_latency(req.ingress, dest_region)
            + self.spec.wan_latency(dest_region, req.ingress);
        let pod = self.dev.pod[target as usize] as usize;
        self.dev.queue[target as usize].push_back(QueuedCopy {
            req: id,
            arrived: req.arrived,
            ingress: req.ingress,
            wan_rtt,
            degraded: req.degraded,
            tier: req.tier,
            hedge: true,
        });
        self.pods[pod].queued += 1;
        self.total_queued += 1;
        self.dispatch(target, at);
        if more {
            self.hedges
                .push(at + self.pods[pod].hedge_deadline, req.logical, id);
        }
    }

    /// A retry attempt's per-attempt timeout elapsed without an answer:
    /// re-issue the request through the router. Copies always inherit
    /// the request's *original* arrival instant, so the end-to-end
    /// deadline propagates across attempts instead of resetting — with
    /// production settings the four 500 ms attempts tile the 2 s
    /// deadline exactly. The defended arm additionally spends retry
    /// budget at the target pod and cancels copies whose remaining
    /// budget cannot cover the expected queue + service time; the naive
    /// arm re-issues unconditionally, which is the amplification that
    /// latches metastable collapse.
    fn fire_retry(&mut self, at: SimTime, id: ArenaRef) {
        let Some(req) = self.reqs.get(id).copied() else {
            return; // request fully closed
        };
        if req.answered || req.hedges + 1 >= self.config.overload.max_attempts {
            return;
        }
        let expiry = req.arrived + self.config.deadline;
        if at >= expiry {
            return;
        }
        let Some(pod) = self.route(req.ingress, None) else {
            // Nothing routable right now (partition, breakers open):
            // re-check at the next attempt boundary the deadline allows.
            let next = at + self.config.overload.attempt_timeout;
            if next < expiry {
                self.retries.push(next, req.logical, id);
            }
            return;
        };
        if !self.budgets.is_empty() && !self.budgets[pod as usize].try_spend() {
            self.retries_shed += 1;
            return;
        }
        if self.defended {
            // Deadline propagation: the remaining end-to-end budget must
            // still cover the target's expected queue + service time.
            let p = &self.pods[pod as usize];
            let depth = (p.queued + p.busy) as f64 / p.up.max(1) as f64;
            let expected = self.config.service_time.scale(depth + 1.0);
            if at + expected > expiry {
                self.cancelled_at_admission += 1;
                return;
            }
            if let Some(b) = self.breaker_mut(req.ingress, pod) {
                b.note_probe();
            }
        }
        let device = self.assign_device(pod);
        let entry = self.reqs.get_mut(id).expect("checked above");
        entry.hedges += 1;
        entry.live += 1;
        let copies = entry.hedges;
        self.retries_issued += 1;
        let dest_region = self.dev.region[device as usize];
        let wan_rtt = self.spec.wan_latency(req.ingress, dest_region)
            + self.spec.wan_latency(dest_region, req.ingress);
        self.dev.queue[device as usize].push_back(QueuedCopy {
            req: id,
            arrived: req.arrived,
            ingress: req.ingress,
            wan_rtt,
            degraded: req.degraded,
            tier: req.tier,
            hedge: false,
        });
        self.pods[pod as usize].queued += 1;
        self.total_queued += 1;
        self.dispatch(device, at);
        let next = at + self.config.overload.attempt_timeout;
        if copies + 1 < self.config.overload.max_attempts && next < expiry {
            self.retries.push(next, req.logical, id);
        }
    }

    /// One forecast-driven planning tick: per region, look `lead` ahead
    /// on the fitted diurnal curve, size each pod by Little's law plus
    /// headroom, and move reserve devices toward the target.
    fn scale(&mut self, at: SimTime) {
        let forecast = self.forecast.as_ref().expect("scaling implies forecast");
        let autoscale = self
            .config
            .autoscale
            .as_ref()
            .expect("scaling implies config");
        let mut plan: Vec<(u32, u32)> = Vec::new();
        for region in 0..self.spec.regions {
            let pods = &self.local_pods[region as usize];
            let rate = forecast.rate_at(region, at + autoscale.lead);
            let target = target_devices_per_pod(
                rate,
                self.config.service_time,
                autoscale.headroom,
                pods.len() as u32,
            )
            .clamp(self.nominal_per_pod, self.spec.devices_per_pod);
            for &pod in pods {
                plan.push((pod, target));
            }
        }
        for (pod, target) in plan {
            self.scale_pod(at, pod, target);
        }
    }

    /// Moves one pod's active-device count toward `target`, touching
    /// only the reserve range. Activations wake the lowest-indexed
    /// inactive reserve; deactivations drain the highest-indexed active
    /// one — the device finishes its in-flight copy and its queue
    /// re-deals to pod peers, nothing is killed.
    fn scale_pod(&mut self, at: SimTime, pod: u32, target: u32) {
        let dpp = self.spec.devices_per_pod;
        let first = (pod * dpp) as usize;
        let pod_i = pod as usize;
        let mut active: u32 = (0..dpp as usize)
            .map(|k| u32::from(self.dev.active[first + k]))
            .sum();
        while active < target {
            let Some(di) = (self.nominal_per_pod..dpp)
                .map(|k| first + k as usize)
                .find(|&di| !self.dev.active[di])
            else {
                break;
            };
            self.dev.active[di] = true;
            self.dev.refresh_eligible(di);
            self.scale_events += 1;
            active += 1;
            if self.dev.up[di] {
                if self.pods[pod_i].up == 0 {
                    if let Some(since) = self.pods[pod_i].down_since.take() {
                        self.recovery_time = self.recovery_time.max(at.saturating_sub(since));
                    }
                }
                self.pods[pod_i].up += 1;
                self.total_up += 1;
                self.dispatch(di as u32, at);
            }
        }
        while active > target {
            let Some(di) = (self.nominal_per_pod..dpp)
                .rev()
                .map(|k| first + k as usize)
                .find(|&di| self.dev.active[di])
            else {
                break;
            };
            if self.pods[pod_i].up <= 1 && !self.dev.queue[di].is_empty() {
                // No surviving peer to re-deal the queue to; keep the
                // device active and retry at the next planning tick.
                break;
            }
            self.dev.active[di] = false;
            self.dev.refresh_eligible(di);
            self.scale_events += 1;
            active -= 1;
            if self.dev.up[di] {
                self.pods[pod_i].up -= 1;
                self.total_up -= 1;
                if self.pods[pod_i].up == 0 && self.pods[pod_i].down_since.is_none() {
                    self.pods[pod_i].down_since = Some(at);
                }
            }
            if self.pods[pod_i].up > 0 && !self.dev.queue[di].is_empty() {
                let moved: Vec<QueuedCopy> = self.dev.queue[di].drain(..).collect();
                let mut targets = BTreeSet::new();
                for copy in moved {
                    let t = self.assign_device(pod);
                    self.dev.queue[t as usize].push_back(copy);
                    targets.insert(t);
                }
                for t in targets {
                    self.dispatch(t, at);
                }
            }
        }
    }

    /// Finishes the earliest in-flight copy. The first copy to finish
    /// answers its request (latency recorded, spans emitted); any later
    /// copy is suppressed as a duplicate. Either way the device's
    /// actual service factor feeds the detector.
    fn complete(&mut self, tel: &mut Telemetry) {
        let (finish, _, inflight) = self.completions.pop().expect("non-empty");
        let di = inflight.device as usize;
        let copy = inflight.copy;
        self.dev.busy[di] = None;
        let pod = self.dev.pod[di] as usize;
        self.pods[pod].busy -= 1;
        self.total_busy -= 1;
        if self.gray_on {
            // Observe the dimensionless service factor (actual over
            // base for this copy's tier) so degraded-tier responses
            // don't skew the pod median.
            let base = if copy.degraded {
                self.config.degraded_service_time
            } else {
                self.config.service_time
            };
            let factor = finish.saturating_sub(inflight.started).as_secs_f64()
                / base.as_secs_f64().max(f64::MIN_POSITIVE);
            let local = di - pod * self.spec.devices_per_pod as usize;
            self.pods[pod].detector.observe(local, factor);
        }
        let state = self
            .reqs
            .get_mut(copy.req)
            .expect("in-flight copy has registry entry");
        state.live -= 1;
        let closed = state.live == 0;
        if state.answered {
            if closed {
                self.reqs.remove(copy.req);
            }
            self.duplicates_suppressed += 1;
            self.dispatch(inflight.device, finish);
            return;
        }
        state.answered = true;
        if closed {
            self.reqs.remove(copy.req);
        }
        if self.policy.retries() && finish > copy.arrived + self.config.deadline {
            // The first copy to finish did so past the end-to-end
            // deadline: the client has long abandoned the request, but
            // the server still burned the slot — that wasted service is
            // exactly the amplification that latches metastable
            // collapse in the naive arm.
            self.lost_deadline += 1;
            if self.defended {
                if let Some(b) = self.breaker_mut(copy.ingress, pod as u32) {
                    b.record_failure(finish);
                }
            }
            self.dispatch(inflight.device, finish);
            return;
        }
        self.bucket_mut(copy.arrived).served += 1;
        if self.defended {
            let queue_delay = inflight.started.saturating_sub(copy.arrived);
            if let Some(b) = self.breaker_mut(copy.ingress, pod as u32) {
                b.record_success(queue_delay);
            }
        }
        if copy.hedge {
            self.hedge_wins += 1;
        }
        if copy.degraded {
            self.served_degraded += 1;
        } else {
            self.served_full += 1;
        }
        let latency = finish.saturating_sub(copy.arrived) + copy.wan_rtt;
        self.request_latency.record(latency);
        let spilled = self.dev.region[di] != copy.ingress;
        if spilled {
            self.spillover_latency.record(latency);
        }
        if tel.is_enabled() {
            // The request's whole lifecycle chain, emitted atomically at
            // completion so the span stack stays balanced.
            tel.begin_span(
                format!("ingress.region{}", copy.ingress),
                "global",
                copy.arrived,
            );
            tel.begin_span("route", "global", copy.arrived);
            tel.span_attr("pod", Json::UInt(self.dev.pod[di] as u64));
            tel.span_attr("tier", Json::UInt(copy.tier as u64));
            tel.span_attr("spillover", Json::Bool(spilled));
            tel.span_attr("hedge", Json::Bool(copy.hedge));
            tel.end_span(copy.arrived);
            tel.begin_span(
                format!("pod{}.serve", self.dev.pod[di]),
                "global",
                inflight.started,
            );
            tel.begin_span("cell", "global", inflight.started);
            tel.span_attr("device", Json::UInt(inflight.device as u64));
            tel.span_attr("degraded", Json::Bool(copy.degraded));
            tel.end_span(finish);
            tel.end_span(finish);
            tel.end_span(finish + copy.wan_rtt);
            tel.hist_record("global.request_latency", latency);
        }
        self.dispatch(inflight.device, finish);
    }

    /// Candidate next event over all sources; the tie order is the
    /// tuple's second field: device capacity < gray fault < partition <
    /// wake < probe < autoscale tick < completion < hedge < retry timer
    /// < arrival. Completions precede hedge and retry timers so a
    /// request finishing exactly at its timer deadline never
    /// duplicates.
    fn next_event(&self) -> Option<(SimTime, u8)> {
        let mut next: Option<(SimTime, u8)> = None;
        let mut consider = |at: Option<SimTime>, order: u8| {
            if let Some(at) = at {
                if next.is_none_or(|(t, o)| (at, order) < (t, o)) {
                    next = Some((at, order));
                }
            }
        };
        consider(self.deltas.get(self.di).map(|d| d.0), 0);
        consider(self.grays.get(self.gi).map(|g| g.0), 1);
        consider(self.toggles.get(self.ti).map(|t| t.0), 2);
        consider(self.wakes.peek_key().map(|k| k.0), 3);
        consider(
            (self.probing && self.probe_at <= self.last_arrival).then_some(self.probe_at),
            4,
        );
        consider(
            (self.scaling && self.scale_at <= self.last_arrival).then_some(self.scale_at),
            5,
        );
        consider(self.completions.peek_key().map(|k| k.0), 6);
        consider(self.hedges.peek_key().map(|k| k.0), 7);
        consider(self.retries.peek_key().map(|k| k.0), 8);
        consider(self.arrivals.peek_at(), 9);
        next
    }

    /// Processes one event from source `order` at time `at`.
    fn step(&mut self, at: SimTime, order: u8, tel: &mut Telemetry) {
        self.end = self.end.max(at);
        self.events += 1;
        match order {
            0 => {
                let (_, device, delta) = self.deltas[self.di];
                self.di += 1;
                self.apply_device_delta(at, device, delta);
            }
            1 => {
                let (_, idx) = self.grays[self.gi];
                self.gi += 1;
                let event = &self.plan.events()[idx];
                let device = event.device as usize;
                if device < self.dev.up.len() {
                    self.dev.faults[device].apply(event, 1.0);
                }
            }
            2 => {
                let (_, region, on) = self.toggles[self.ti];
                self.ti += 1;
                self.partitioned[region as usize] = on;
            }
            3 => {
                let (wake, _, device) = self.wakes.pop().expect("considered");
                self.dispatch(device, wake);
            }
            4 => {
                self.probe_at += self.config.probe_interval;
                self.probe(at);
            }
            5 => {
                self.scale_at += self
                    .config
                    .autoscale
                    .as_ref()
                    .expect("scaling implies config")
                    .interval;
                self.scale(at);
            }
            6 => self.complete(tel),
            7 => {
                let (fire, _, req) = self.hedges.pop().expect("considered");
                self.fire_hedge(fire, req);
            }
            8 => {
                let (fire, _, req) = self.retries.pop().expect("considered");
                self.fire_retry(fire, req);
            }
            _ => {
                let arrival = self.arrivals.next().expect("considered");
                self.arrive(arrival.at, arrival.region, arrival.priority);
            }
        }
    }

    /// Advances through every pending event with `at <= limit` (use
    /// [`SimTime::MAX`] to drain). Returns the number of events
    /// processed by this call.
    pub(super) fn run_until(&mut self, limit: SimTime, tel: &mut Telemetry) -> u64 {
        let before = self.events;
        while let Some((at, order)) = self.next_event() {
            if at > limit {
                break;
            }
            self.step(at, order, tel);
        }
        self.events - before
    }

    /// Closes out a fully-drained run: asserts the drain invariants,
    /// flushes the event count to the process-wide perf counter, and
    /// builds the report.
    pub(super) fn into_report(self) -> GlobalReport {
        // Fully drained: every fault window is finite, so capacity
        // always returns, flapped links clear, and the queues empty out.
        debug_assert!(self.completions.is_empty());
        debug_assert!(self.reqs.is_empty(), "unresolved request copies");
        debug_assert!(self
            .dev
            .queue
            .iter()
            .zip(&self.dev.busy)
            .all(|(q, b)| q.is_empty() && b.is_none()));
        debug_assert!(
            self.duplicates_suppressed + self.hedges_cancelled + self.hedge_wins
                <= 2 * (self.hedges_issued + self.retries_issued),
            "more duplicate outcomes than copies issued"
        );
        mtia_core::perfcount::add_events(self.events);
        GlobalReport {
            policy: self.policy.name(),
            seed: self.config.seed,
            fault_fingerprint: self.plan.fingerprint(),
            trace_fingerprint: self.trace.fingerprint(),
            offered: self.trace.len() as u64,
            served_full: self.served_full,
            served_degraded: self.served_degraded,
            shed: self.shed,
            lost: self.lost_unroutable + self.lost_killed + self.lost_deadline,
            lost_unroutable: self.lost_unroutable,
            lost_killed: self.lost_killed,
            lost_deadline: self.lost_deadline,
            spillover: self.spillover,
            hedges_issued: self.hedges_issued,
            hedge_wins: self.hedge_wins,
            duplicates_suppressed: self.duplicates_suppressed,
            hedges_cancelled: self.hedges_cancelled,
            retries_issued: self.retries_issued,
            retries_shed: self.retries_shed,
            breaker_opens: self.breakers.iter().map(|b| b.opens()).sum(),
            cancelled_at_admission: self.cancelled_at_admission,
            scale_events: self.scale_events,
            outlier_demotions: self.outlier_demotions,
            device_downs: self.device_downs,
            events: self.events,
            request_latency: self.request_latency,
            spillover_latency: self.spillover_latency,
            recovery_time: self.recovery_time,
            capacity_headroom: self.capacity_headroom,
            routed: self.routed,
            timeline: self.timeline,
            timeline_bucket: self.config.timeline_bucket,
        }
    }
}

/// Replays `trace` against `plan` under `policy`, recording the
/// request lifecycle into `tel` when tracing is enabled. Telemetry is a
/// pure observer: the returned report is byte-identical whether `tel`
/// is enabled or not.
pub fn simulate_global_traced(
    spec: &GlobalFleetSpec,
    config: &GlobalConfig,
    trace: &RegionalTrace,
    plan: &FaultPlan,
    policy: RoutingPolicy,
    tel: &mut Telemetry,
) -> GlobalReport {
    tel.begin_span("serving.global", "global", SimTime::ZERO);
    tel.span_attr("policy", Json::Str(policy.name().to_string()));
    tel.span_attr("regions", Json::UInt(spec.regions as u64));
    tel.span_attr("pods", Json::UInt(spec.pods() as u64));
    tel.span_attr("devices_per_pod", Json::UInt(spec.devices_per_pod as u64));
    tel.span_attr("requests", Json::UInt(trace.len() as u64));
    tel.span_attr("seed", Json::UInt(config.seed));

    let mut sim = Sim::new(spec, config, trace, plan, policy);
    sim.run_until(SimTime::MAX, tel);

    let lost = sim.lost_unroutable + sim.lost_killed + sim.lost_deadline;
    tel.counter_add("global.served_full", sim.served_full);
    tel.counter_add("global.served_degraded", sim.served_degraded);
    tel.counter_add("global.shed", sim.shed);
    tel.counter_add("global.lost", lost);
    tel.counter_add("global.spillover", sim.spillover);
    tel.counter_add("global.hedges_issued", sim.hedges_issued);
    tel.counter_add("global.hedge_wins", sim.hedge_wins);
    tel.counter_add("global.duplicates_suppressed", sim.duplicates_suppressed);
    tel.counter_add("global.outlier_demotions", sim.outlier_demotions);
    if policy.retries() {
        // Only the retry arms emit the overload counters, so the
        // pre-existing golden traces stay byte-identical.
        tel.counter_add("global.retries_issued", sim.retries_issued);
        tel.counter_add("global.retries_shed", sim.retries_shed);
        let opens: u64 = sim.breakers.iter().map(|b| b.opens()).sum();
        tel.counter_add("global.breaker_opens", opens);
        tel.counter_add("global.cancelled_at_admission", sim.cancelled_at_admission);
        tel.counter_add("global.scale_events", sim.scale_events);
    }
    tel.end_span(sim.end);

    sim.into_report()
}

/// Untraced [`simulate_global_traced`].
pub fn simulate_global(
    spec: &GlobalFleetSpec,
    config: &GlobalConfig,
    trace: &RegionalTrace,
    plan: &FaultPlan,
    policy: RoutingPolicy,
) -> GlobalReport {
    simulate_global_traced(
        spec,
        config,
        trace,
        plan,
        policy,
        &mut Telemetry::disabled(),
    )
}

/// Replays one byte-identical `(trace, plan)` pair through the
/// static-local arm and the global-router arm — the `compare_failover`
/// methodology one level up.
pub fn compare_global(
    spec: &GlobalFleetSpec,
    config: &GlobalConfig,
    trace: &RegionalTrace,
    plan: &FaultPlan,
) -> GlobalComparison {
    GlobalComparison {
        naive: simulate_global(spec, config, trace, plan, RoutingPolicy::StaticLocal),
        router: simulate_global(spec, config, trace, plan, RoutingPolicy::HealthAware),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{build_regional_trace, RegionalTrafficConfig};
    use mtia_sim::faults::FaultEvent;

    fn small_spec() -> GlobalFleetSpec {
        GlobalFleetSpec::symmetric(2, 2, 8, SimTime::from_millis(60))
    }

    fn small_trace(spec: &GlobalFleetSpec, seed: u64) -> RegionalTrace {
        let config = RegionalTrafficConfig::production(20.0, SimTime::from_secs(30));
        build_regional_trace(&config, spec.regions, SimTime::from_secs(30), seed)
    }

    /// A fault plan taking every device of region 0 down for a window.
    fn region0_outage(spec: &GlobalFleetSpec) -> FaultPlan {
        let mut plan = FaultPlan::empty(9);
        for pod in spec.pods_in_region(0) {
            for d in 0..spec.devices_per_pod {
                plan = plan.with_event(FaultEvent {
                    at: SimTime::from_secs(10),
                    device: pod * spec.devices_per_pod + d,
                    kind: FaultKind::RegionOutage,
                    duration: SimTime::from_secs(8),
                });
            }
        }
        plan
    }

    /// Thermal throttles on a couple of pod-0 devices: deep floor,
    /// short ramp, covering most of the run.
    fn pod0_throttles(seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::empty(seed);
        for device in [0, 1] {
            plan = plan.with_event(FaultEvent {
                at: SimTime::from_secs(3),
                device,
                kind: FaultKind::ThermalThrottle {
                    ramp_s: 4.0,
                    floor: 0.2,
                },
                duration: SimTime::from_secs(22),
            });
        }
        plan
    }

    #[test]
    fn clean_run_serves_everything() {
        let spec = small_spec();
        // Light load: even the diurnal-peak × flash-crowd rate stays
        // below pod capacity, so nothing should queue past deadline.
        let config = RegionalTrafficConfig::production(10.0, SimTime::from_secs(30));
        let trace = build_regional_trace(&config, spec.regions, SimTime::from_secs(30), 3);
        let plan = FaultPlan::empty(3);
        for policy in [
            RoutingPolicy::StaticLocal,
            RoutingPolicy::HealthAware,
            RoutingPolicy::GrayResilient,
        ] {
            let report =
                simulate_global(&spec, &GlobalConfig::production(3), &trace, &plan, policy);
            assert_eq!(report.unaccounted(), 0);
            assert_eq!(report.lost, 0);
            assert_eq!(report.shed, 0);
            assert!(report.goodput() > 0.999, "{policy:?}: {}", report.goodput());
        }
    }

    #[test]
    fn region_outage_blacks_out_naive_but_not_router() {
        let spec = small_spec();
        let trace = small_trace(&spec, 5);
        let plan = region0_outage(&spec);
        let cmp = compare_global(&spec, &GlobalConfig::production(5), &trace, &plan);
        assert!(cmp.same_trace());
        assert_eq!(cmp.naive.unaccounted(), 0);
        assert_eq!(cmp.router.unaccounted(), 0);
        assert!(
            cmp.router.goodput() > cmp.naive.goodput(),
            "router {} vs naive {}",
            cmp.router.goodput(),
            cmp.naive.goodput()
        );
        // The router spills region-0 ingress into region 1.
        assert!(cmp.router.spillover > 0);
        assert_eq!(cmp.naive.spillover, 0);
        // Naive keeps feeding the dead pods and loses requests.
        assert!(cmp.naive.lost > 0);
        assert!(cmp.router.lost < cmp.naive.lost);
        // Every downed device is a distinct down transition.
        assert_eq!(cmp.naive.device_downs, 2 * spec.devices_per_pod as u64);
    }

    #[test]
    fn wan_partition_keeps_traffic_local() {
        let spec = small_spec();
        let trace = small_trace(&spec, 7);
        // Region 1 is WAN-partitioned for the middle of the run.
        let mut plan = FaultPlan::empty(7);
        for pod in spec.pods_in_region(1) {
            for d in 0..spec.devices_per_pod {
                plan = plan.with_event(FaultEvent {
                    at: SimTime::from_secs(5),
                    device: pod * spec.devices_per_pod + d,
                    kind: FaultKind::WanPartition,
                    duration: SimTime::from_secs(20),
                });
            }
        }
        let report = simulate_global(
            &spec,
            &GlobalConfig::production(7),
            &trace,
            &plan,
            RoutingPolicy::HealthAware,
        );
        assert_eq!(report.unaccounted(), 0);
        // Partitioned devices keep serving their own region: nothing is
        // lost to the partition itself in an underloaded fleet.
        assert_eq!(report.lost_killed, 0);
    }

    #[test]
    fn identical_inputs_identical_reports_and_tracing_is_pure() {
        let spec = small_spec();
        let trace = small_trace(&spec, 11);
        let plan = region0_outage(&spec);
        let config = GlobalConfig::production(11);
        let a = simulate_global(&spec, &config, &trace, &plan, RoutingPolicy::HealthAware);
        let mut tel = Telemetry::new_enabled();
        let b = simulate_global_traced(
            &spec,
            &config,
            &trace,
            &plan,
            RoutingPolicy::HealthAware,
            &mut tel,
        );
        assert_eq!(a.served_full, b.served_full);
        assert_eq!(a.served_degraded, b.served_degraded);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.lost, b.lost);
        assert_eq!(a.routed, b.routed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.request_latency.count(), b.request_latency.count());
        assert!(!tel.to_canonical_json().is_empty());
    }

    #[test]
    fn conservation_holds_under_heavy_chaos() {
        let spec = small_spec();
        let trace = small_trace(&spec, 13);
        let mut plan = region0_outage(&spec);
        // Pile a pod loss in region 1 and a WAN partition on top.
        for d in 0..spec.devices_per_pod {
            plan = plan.with_event(FaultEvent {
                at: SimTime::from_secs(4),
                device: 2 * spec.devices_per_pod + d,
                kind: FaultKind::PodLoss,
                duration: SimTime::from_secs(6),
            });
            plan = plan.with_event(FaultEvent {
                at: SimTime::from_secs(12),
                device: 3 * spec.devices_per_pod + d,
                kind: FaultKind::WanPartition,
                duration: SimTime::from_secs(5),
            });
        }
        for policy in [
            RoutingPolicy::StaticLocal,
            RoutingPolicy::HealthAware,
            RoutingPolicy::GrayResilient,
        ] {
            let report =
                simulate_global(&spec, &GlobalConfig::production(13), &trace, &plan, policy);
            assert_eq!(report.unaccounted(), 0, "{policy:?}");
            assert_eq!(
                report.lost,
                report.lost_unroutable + report.lost_killed + report.lost_deadline
            );
        }
    }

    #[test]
    fn throttled_device_inflates_its_own_queue_and_gray_arm_routes_around() {
        let spec = small_spec();
        let trace = small_trace(&spec, 17);
        let plan = pod0_throttles(17);
        let config = GlobalConfig::production(17);
        let naive = simulate_global(&spec, &config, &trace, &plan, RoutingPolicy::HealthAware);
        let gray = simulate_global(&spec, &config, &trace, &plan, RoutingPolicy::GrayResilient);
        assert_eq!(naive.unaccounted(), 0);
        assert_eq!(gray.unaccounted(), 0);
        // Fail-slow is invisible to liveness: nothing went down, yet the
        // health-check-only arm's tail collapses on the throttled pair.
        assert_eq!(naive.device_downs, 0);
        assert_eq!(naive.outlier_demotions, 0);
        assert!(gray.outlier_demotions > 0, "detector must fire");
        let naive_p99 = naive.request_latency.quantile(0.99);
        let gray_p99 = gray.request_latency.quantile(0.99);
        assert!(
            gray_p99 < naive_p99,
            "gray P99 {gray_p99:?} vs naive {naive_p99:?}"
        );
        assert!(gray.goodput() >= naive.goodput());
        // Copy accounting stays exact.
        assert!(
            gray.hedge_wins + gray.duplicates_suppressed + gray.hedges_cancelled
                <= 2 * gray.hedges_issued
        );
    }

    #[test]
    fn nic_flap_blocks_dispatch_and_hedging_recovers_the_stuck_requests() {
        let spec = small_spec();
        let trace = small_trace(&spec, 19);
        // One device flaps with long dead phases: queued work stalls
        // past the 2 s deadline unless it is hedged elsewhere.
        let plan = FaultPlan::empty(19).with_event(FaultEvent {
            at: SimTime::from_secs(2),
            device: 0,
            kind: FaultKind::NicFlap {
                period_s: 12.0,
                loss_frac: 0.5,
            },
            duration: SimTime::from_secs(24),
        });
        let config = GlobalConfig::production(19);
        let naive = simulate_global(&spec, &config, &trace, &plan, RoutingPolicy::HealthAware);
        let gray = simulate_global(&spec, &config, &trace, &plan, RoutingPolicy::GrayResilient);
        assert_eq!(naive.unaccounted(), 0);
        assert_eq!(gray.unaccounted(), 0);
        assert!(naive.lost_deadline > 0, "flap must strand naive requests");
        assert!(gray.hedges_issued > 0);
        assert!(
            gray.lost < naive.lost,
            "gray lost {} vs naive {}",
            gray.lost,
            naive.lost
        );
    }

    #[test]
    fn gray_arm_is_deterministic_and_tracing_is_pure() {
        let spec = small_spec();
        let trace = small_trace(&spec, 23);
        let plan = pod0_throttles(23);
        let config = GlobalConfig::production(23);
        let a = simulate_global(&spec, &config, &trace, &plan, RoutingPolicy::GrayResilient);
        let mut tel = Telemetry::new_enabled();
        let b = simulate_global_traced(
            &spec,
            &config,
            &trace,
            &plan,
            RoutingPolicy::GrayResilient,
            &mut tel,
        );
        assert_eq!(a.served_full, b.served_full);
        assert_eq!(a.hedges_issued, b.hedges_issued);
        assert_eq!(a.hedge_wins, b.hedge_wins);
        assert_eq!(a.duplicates_suppressed, b.duplicates_suppressed);
        assert_eq!(a.outlier_demotions, b.outlier_demotions);
        assert_eq!(a.routed, b.routed);
        assert!(!tel.to_canonical_json().is_empty());
    }

    #[test]
    fn run_until_slices_match_a_single_drain() {
        // Advancing the resumable loop in epoch slices must produce the
        // same report as draining in one call — the property the
        // sharded driver's epoch barriers rest on.
        let spec = small_spec();
        let trace = small_trace(&spec, 29);
        let plan = pod0_throttles(29);
        let config = GlobalConfig::production(29);
        for policy in [
            RoutingPolicy::StaticLocal,
            RoutingPolicy::HealthAware,
            RoutingPolicy::GrayResilient,
        ] {
            let whole = simulate_global(&spec, &config, &trace, &plan, policy);
            let mut tel = Telemetry::disabled();
            let mut sim = Sim::new(&spec, &config, &trace, &plan, policy);
            let mut t = SimTime::ZERO;
            while sim.next_time().is_some() {
                t += SimTime::from_secs(1);
                sim.run_until(t, &mut tel);
            }
            let sliced = sim.into_report();
            assert_eq!(whole.served_full, sliced.served_full, "{policy:?}");
            assert_eq!(whole.served_degraded, sliced.served_degraded);
            assert_eq!(whole.shed, sliced.shed);
            assert_eq!(whole.lost, sliced.lost);
            assert_eq!(whole.hedges_issued, sliced.hedges_issued);
            assert_eq!(whole.routed, sliced.routed);
            assert_eq!(whole.events, sliced.events);
            assert_eq!(
                whole.request_latency.count(),
                sliced.request_latency.count()
            );
        }
    }
}
