//! The deterministic global-serving simulation.
//!
//! A per-device DES: every accelerator has its own dispatch queue and
//! serves one request at a time, so a single fail-slow device inflates
//! *its own* queue instead of being averaged into a pod-wide slot pool
//! — the fidelity step that makes gray failures visible at all. The
//! inputs — fleet spec, config, arrival trace, fault plan, routing
//! policy — are plain values, the simulation is a pure function of
//! them, and every tie is broken by a fixed source order (device
//! capacity < gray fault < partition < wake < probe < autoscale tick <
//! completion < re-issue timer < arrival, then ascending ids), so
//! byte-identical inputs give byte-identical reports at any thread count.
//!
//! # The hot core
//!
//! The event structures are built for throughput, not just
//! correctness, because a planetary replay (E24) pushes ≥10⁷ requests
//! and several times that many timed events through this loop:
//!
//! * every event source is one lane of a [`Kernel`] ([`Ev`] lists
//!   them in the tie order above), and each lane is a slab-allocated
//!   event queue ([`EventQueue`]) whose pops ascend in exactly the
//!   `(time, id)` order the original `BTreeMap`/`BTreeSet` queues
//!   iterated in — zero allocation at steady state, O(1) cancel by
//!   handle when a fault kills an in-flight request. A completion is
//!   `now + service_time` and a retry timer `now + attempt_timeout`,
//!   so nearly every push is above its lane's latest one and is
//!   appended to the lane's sorted run without a heap sift; the rest (a
//!   fault-scaled service time, a same-instant timer keyed on a lower
//!   logical id) go to its 4-ary heap. Both sources are sorted and
//!   keys are unique, so the smaller of the two fronts is always the
//!   lane's next event. The fault streams are pushed once up front;
//!   the arrivals and the probe and planning ticks schedule themselves
//!   one at a time;
//! * per-request state lives in a generational slab ([`Arena`]); the
//!   registry keeps each request's *logical* (monotonic) id as the
//!   re-issue-timer tie-break so slot reuse can never reorder
//!   same-instant timers. A request's arrival, ingress, tier and
//!   degraded flag are kept there once: a 32 B `ReqState` plus a 4 B
//!   generation, 36 B per live request. Every copy of it is the
//!   request's bare arena slot with the hedge flag in the top bit:
//!   4 B per queued copy. A device's in-flight copy sits in its `busy`
//!   slot beside its completion's handle, so the completion event
//!   carries only the device index. The slot is enough
//!   because each copy holds one of the request's `live` counts and
//!   the request leaves the arena only when that count reaches zero,
//!   so a copy's slot is never freed or reused under it. Release
//!   builds check at each access that the slot is occupied; debug
//!   builds also carry the copy's full handle and assert that its
//!   generation still matches. Re-issue timers can fire after their
//!   request closed, so they keep the full generational handle. The
//!   WAN round trip charged at completion comes from a
//!   per-`(ingress, region)` table built once. A latched naive-retry
//!   arm holds over a million queued copies at a time, so per-copy
//!   bytes are most of its memory;
//! * per-device state is struct-of-arrays ([`Devices`]): the routing
//!   and probe sweeps scan dense `Vec<bool>`/`Vec<u32>` columns instead
//!   of striding over fat structs, with a derived `eligible` column
//!   maintained at every health/outlier/up transition;
//! * the loop itself is resumable ([`Sim::run_until`]): the
//!   cell-sharded parallel driver in [`super::shard`] advances many
//!   independent `Sim`s in speculative epoch windows, restores clones
//!   when a window mispredicts the fleet floor, and merges their
//!   reports deterministically;
//! * the arrivals are borrowed from the [`RegionalTrace`], whose clones
//!   share one copy of its columns, so arms replaying the same trace
//!   hold its arrivals once between them.
//!
//! The run counts every outcome straight into the [`GlobalReport`] it
//! returns, and the kernel counts every processed event. Closing the
//! run takes that count as the report's `events`, derives `lost` and
//! `breaker_opens`, checks request conservation, and adds the event
//! count to [`mtia_core::perfcount`], which is what
//! `reproduce --bench-perf` reports as simulated events/sec.
//!
//! [`Sim::new`] resolves the arm once through [`RoutingPolicy::defenses`];
//! every mechanism reads only that set, never the arm itself.
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
//! [`EventQueue`]: mtia_core::eventq::EventQueue

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mtia_core::des::{EventId, Kernel};
use mtia_core::eventq::{Arena, ArenaRef};
use mtia_core::telemetry::{Json, Telemetry};
use mtia_core::SimTime;
use mtia_sim::faults::{DeviceFaultState, FaultKind, FaultPlan};

use crate::resilience::outlier::OutlierDetector;
use crate::resilience::retry::HedgePolicy;
use crate::resilience::{CircuitBreaker, HealthMachine, HealthState, RetryBudget};

use super::autoscale::{target_devices_per_pod, DiurnalForecast};
use super::report::{GlobalReport, TimelineBucket};
use super::{
    utilization, Arrivals, Defenses, GlobalConfig, GlobalFleetSpec, Priority, RegionalTrace,
    Reissue, RoutingPolicy, TIMELINE_BUCKET,
};

/// Unions each key's `(start, end)` fault windows into disjoint
/// intervals and returns their `(time, key, on)` toggles, sorted by
/// time, then key, then onsets before ends. Merged windows of one key
/// never touch, so the last rule only orders a zero-length window.
fn window_toggles(
    windows: impl Iterator<Item = (u32, SimTime, SimTime)>,
) -> Vec<(SimTime, u32, bool)> {
    let mut per_key: BTreeMap<u32, Vec<(SimTime, SimTime)>> = BTreeMap::new();
    for (key, start, end) in windows {
        per_key.entry(key).or_default().push((start, end));
    }
    let mut toggles = Vec::new();
    for (key, mut windows) in per_key {
        windows.sort();
        let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
        for (start, end) in windows {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        for (start, end) in merged {
            toggles.push((start, key, true));
            toggles.push((end, key, false));
        }
    }
    toggles.sort_by_key(|&(at, key, on)| (at, key, !on));
    toggles
}

/// Per-device down (`true`) / up toggles from the plan's fail-stop
/// capacity windows.
fn device_capacity_events(plan: &FaultPlan) -> Vec<(SimTime, u32, bool)> {
    window_toggles(
        plan.events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::HostCrash
                        | FaultKind::RackPowerLoss
                        | FaultKind::PodLoss
                        | FaultKind::RegionOutage
                )
            })
            .map(|e| (e.device, e.at, e.until())),
    )
}

/// Indexes of the plan's fail-slow events in `(time, device)` order —
/// each is applied to the owning device's fault state at its onset.
/// The plan keeps its events sorted by `(at, device)`, so the filtered
/// indices already ascend in that order.
fn gray_fault_events(plan: &FaultPlan) -> Vec<(SimTime, usize)> {
    plan.events()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind.is_fail_slow())
        .map(|(i, e)| (e.at, i))
        .collect()
}

/// Per-region partition on/off toggles from the plan's partition
/// windows.
fn partition_toggles(spec: &GlobalFleetSpec, plan: &FaultPlan) -> Vec<(SimTime, u32, bool)> {
    window_toggles(
        plan.events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::WanPartition | FaultKind::NicPartition))
            .map(|e| {
                let region = spec.region_of_pod(spec.pod_of_device(e.device));
                (region, e.at, e.until())
            }),
    )
}

/// One global-DES event. Each variant is its own [`Kernel`] lane, in
/// the tie order between same-time events: a device going down or back
/// up < the onset of the plan's fail-slow event at `index` < a region's
/// partition opening or healing < a flapped link clearing < probe <
/// autoscale tick < a device's in-flight copy finishing < a hedge or
/// retry timer < the trace's next arrival. Completions precede re-issue
/// timers so a request finishing exactly at its timer deadline never
/// duplicates. A timer can outlive its request, so it keeps the full
/// handle.
///
/// The `u32` tag keeps every field 4-byte aligned, so a copy of the
/// 12-byte value moves whole aligned words rather than overlapping
/// unaligned ones.
#[derive(Debug, Clone, Copy)]
#[repr(u32)]
enum Ev {
    Capacity { device: u32, down: bool },
    Gray { index: u32 },
    Partition { region: u32, on: bool },
    Wake { device: u32 },
    Probe,
    Autoscale,
    Completion { device: u32 },
    Reissue { req: ArenaRef },
    Arrival,
}

impl Ev {
    const LANES: usize = 9;

    fn lane(self) -> usize {
        match self {
            Ev::Capacity { .. } => 0,
            Ev::Gray { .. } => 1,
            Ev::Partition { .. } => 2,
            Ev::Wake { .. } => 3,
            Ev::Probe => 4,
            Ev::Autoscale => 5,
            Ev::Completion { .. } => 6,
            Ev::Reissue { .. } => 7,
            Ev::Arrival => 8,
        }
    }
}

/// One copy of a request (primary, hedge or retry) sitting in a device
/// queue or in flight: its request's arena slot, with [`Self::HEDGE`]
/// in the top bit. The request's [`ReqState`] holds its arrival,
/// ingress, tier and degraded flag once for every copy.
///
/// A bare slot is enough because each copy holds one of its request's
/// `live` counts: the request leaves the arena only when the last copy
/// drops, so no copy ever sees its slot freed or reused. Release
/// builds check at every access that the slot is occupied; debug
/// builds also keep the full generational handle and assert that it
/// still names the occupant.
#[derive(Debug, Clone, Copy)]
struct QueuedCopy {
    bits: u32,
    #[cfg(debug_assertions)]
    req: ArenaRef,
}

impl QueuedCopy {
    /// Set on a hedge copy; every lower bit is the slot.
    const HEDGE: u32 = 1 << 31;

    fn new(req: ArenaRef, hedge: bool) -> Self {
        // Arena slots are `u32`s; the top bit must stay free.
        let slot = req.slot() as u32;
        assert!(slot < Self::HEDGE, "over 2^31 live requests");
        QueuedCopy {
            bits: slot | if hedge { Self::HEDGE } else { 0 },
            #[cfg(debug_assertions)]
            req,
        }
    }

    fn slot(self) -> usize {
        (self.bits & !Self::HEDGE) as usize
    }

    fn hedge(self) -> bool {
        self.bits & Self::HEDGE != 0
    }
}

/// A device's in-flight copy, beside the handle of its pending
/// completion.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    completion: EventId,
    started: SimTime,
    copy: QueuedCopy,
}

/// Registry entry for one *logical* request: its copies race, the
/// first completion answers it, and the loss class (if any) is decided
/// by the last copy's fate. `logical` is the request's monotonic issue
/// number — the deterministic tie-break for same-instant hedge timers,
/// stable across arena-slot reuse. `device` is the primary's first
/// device, whose pod is the request's home pod. `live` counts the
/// copies queued or in flight; `live` and `hedges` fit `u16` because
/// [`GlobalConfig::validate`] bounds the copies per request.
#[derive(Debug, Clone, Copy)]
struct ReqState {
    logical: u64,
    arrived: SimTime,
    ingress: u32,
    device: u32,
    live: u16,
    hedges: u16,
    tier: u8,
    degraded: bool,
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
    /// The copy in flight, if any.
    busy: Vec<Option<InFlight>>,
    /// Handle to the most recently scheduled wake (dedup only; stale
    /// handles are harmless).
    wake: Vec<Option<EventId>>,
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
            wake: vec![None; n],
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
    arrivals: Arrivals<'a>,
    arm: Defenses,
    dev: Devices,
    pods: Vec<PodState>,
    partitioned: Vec<bool>,
    local_pods: Vec<Vec<u32>>,
    rr: Vec<u64>,
    /// Every pending event, one lane per source.
    des: Kernel<Ev, { Ev::LANES }>,
    /// Per-pod retry token buckets (armed budget only).
    budgets: Vec<RetryBudget>,
    /// Per-(ingress, pod) edge breakers, indexed `ingress × pods + pod`
    /// (armed breaker only).
    breakers: Vec<CircuitBreaker>,
    /// Fitted diurnal forecast; present exactly when autoscaling runs
    /// and at least one planning tick falls within the trace.
    forecast: Option<DiurnalForecast>,
    /// Devices per pod that are *not* reserve (the scale-down floor).
    nominal_per_pod: u32,
    /// `wan(a, b) + wan(b, a)` per `(ingress a, region b)`, indexed
    /// `a × regions + b`: the round trip charged to a served copy.
    wan_rtt: Vec<SimTime>,
    reqs: Arena<ReqState>,
    next_req: u64,
    /// Completions scheduled so far: the completion lane's key.
    seq: u64,
    tier: u8,
    /// Minimum ladder tier imposed from outside (fleet-wide coupling in
    /// the sharded driver); 0 in a standalone run, where the behaviour
    /// is then exactly the uncoupled single-cell simulation.
    tier_floor: u8,
    total_up: u64,
    total_busy: u64,
    total_queued: u64,
    /// Probe and planning ticks fire up to the last arrival.
    last_arrival: SimTime,
    /// Every outcome counter, counted in place; [`Sim::into_report`]
    /// derives the rest.
    report: GlobalReport,
}

impl<'a> Sim<'a> {
    pub(super) fn new(
        spec: &'a GlobalFleetSpec,
        config: &'a GlobalConfig,
        trace: &'a RegionalTrace,
        plan: &'a FaultPlan,
        policy: RoutingPolicy,
    ) -> Self {
        spec.validate().expect("a valid fleet spec");
        config.validate().expect("a valid global config");
        let arm = policy.defenses(config);
        // Before any sweep runs, hedge at multiplier × the base service
        // time (floored by the policy delay like every later value).
        let initial_deadline = SimTime::from_secs_f64(
            config.service_time.as_secs_f64() * config.gray.outlier.hedge_multiplier,
        )
        .max(arm.hedge_floor());
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
        let budgets = arm.budget.map_or(Vec::new(), |b| {
            vec![RetryBudget::new(b); spec.pods() as usize]
        });
        let breakers = arm.breaker.map_or(Vec::new(), |b| {
            vec![CircuitBreaker::new(b); (spec.regions * spec.pods()) as usize]
        });
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
        let wan_rtt = (0..spec.regions)
            .flat_map(|a| (0..spec.regions).map(move |b| (a, b)))
            .map(|(a, b)| spec.wan_latency(a, b) + spec.wan_latency(b, a))
            .collect();
        let last_arrival = trace.last_at().unwrap_or(SimTime::ZERO);
        // Autoscaling fits the per-region diurnal harmonic from the
        // trace once, up front — the "forecast" the planner trusts. Only
        // a planning tick reads it, and ticks fire at `interval`,
        // `2 × interval`, … up to the last arrival, so a trace too short
        // for one tick (a zero horizon included) fits nothing.
        let forecast = arm
            .autoscale
            .filter(|a| SimTime::ZERO < last_arrival && a.interval <= last_arrival)
            .map(|autoscale| DiurnalForecast::fit(trace, spec.regions, last_arrival, &autoscale))
            .transpose()
            .expect("a validated period and a non-zero horizon fit");
        let mut sim = Sim {
            spec,
            config,
            plan,
            arrivals: trace.arrivals(),
            arm,
            dev,
            pods,
            partitioned: vec![false; spec.regions as usize],
            local_pods,
            rr: vec![0; spec.regions as usize],
            des: Kernel::default(),
            budgets,
            breakers,
            forecast,
            nominal_per_pod,
            wan_rtt,
            reqs: Arena::new(),
            next_req: 0,
            seq: 0,
            tier: 0,
            tier_floor: 0,
            total_up: (spec.pods() * nominal_per_pod) as u64,
            total_busy: 0,
            total_queued: 0,
            last_arrival,
            report: GlobalReport {
                fault_fingerprint: plan.fingerprint(),
                trace_fingerprint: trace.fingerprint(),
                offered: trace.len() as u64,
                ..GlobalReport::empty(
                    policy.name(),
                    config.seed,
                    spec.regions as usize,
                    spec.pods() as usize,
                )
            },
        };
        // A fault stream's key is its sorted position, so it pops in
        // order.
        for (key, (at, device, down)) in device_capacity_events(plan).into_iter().enumerate() {
            sim.schedule(at, key as u64, Ev::Capacity { device, down });
        }
        for (key, (at, index)) in gray_fault_events(plan).into_iter().enumerate() {
            let index = index as u32;
            sim.schedule(at, key as u64, Ev::Gray { index });
        }
        for (key, (at, region, on)) in partition_toggles(spec, plan).into_iter().enumerate() {
            sim.schedule(at, key as u64, Ev::Partition { region, on });
        }
        if arm.routed {
            sim.tick(config.probe_interval, Ev::Probe);
        }
        if let (Some(_), Some(autoscale)) = (&sim.forecast, arm.autoscale) {
            sim.tick(autoscale.interval, Ev::Autoscale);
        }
        sim.schedule_arrival();
        sim
    }

    /// Schedules `ev` on its lane at `at`, ordered among the lane's
    /// same-time events by `key`. Always inlined, so that `ev` reaches
    /// its kernel slot in registers (see [`EventQueue::push`]).
    #[inline(always)]
    fn schedule(&mut self, at: SimTime, key: u64, ev: Ev) -> EventId {
        self.des.schedule_keyed(at, ev.lane(), key, ev)
    }

    /// Schedules a probe or planning tick at `at` if it falls within
    /// the trace; each tick is its lane's only pending event.
    fn tick(&mut self, at: SimTime, ev: Ev) {
        if at <= self.last_arrival {
            self.schedule(at, 0, ev);
        }
    }

    /// Schedules the trace's next arrival, if any; it is its lane's
    /// only pending event.
    fn schedule_arrival(&mut self) {
        if let Some(at) = self.arrivals.peek_at() {
            self.schedule(at, 0, Ev::Arrival);
        }
    }

    /// The timeline bucket a request arriving at `arrived` lands in,
    /// growing the vector on demand.
    fn bucket_mut(&mut self, arrived: SimTime) -> &mut TimelineBucket {
        let b = (arrived.as_picos() / TIMELINE_BUCKET.as_picos()) as usize;
        let timeline = &mut self.report.timeline;
        if timeline.len() <= b {
            timeline.resize(b + 1, TimelineBucket::default());
        }
        &mut timeline[b]
    }

    /// Breaker for the `(ingress, pod)` edge, when the defense is armed.
    fn breaker_mut(&mut self, ingress: u32, pod: u32) -> Option<&mut CircuitBreaker> {
        self.breakers
            .get_mut(ingress as usize * self.pods.len() + pod as usize)
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
        self.des.next_time()
    }

    /// Resolves one copy that ended without answering its request,
    /// counting a request-level loss only when the *last* live copy
    /// dies unanswered.
    fn drop_copy(&mut self, copy: QueuedCopy, end: CopyEnd) {
        let state = self.req_mut(copy);
        state.live -= 1;
        let (answered, live) = (state.answered, state.live);
        if answered {
            match end {
                CopyEnd::Cancelled => self.report.hedges_cancelled += 1,
                _ => self.report.duplicates_suppressed += 1,
            }
        } else if live == 0 {
            match end {
                // A copy is cancelled only once the request is answered.
                CopyEnd::Cancelled => debug_assert!(false, "cancelled an unanswered request"),
                CopyEnd::Expired => self.report.lost_deadline += 1,
                CopyEnd::Killed => self.report.lost_killed += 1,
            }
        }
        if live == 0 {
            self.reqs.remove_slot(copy.slot());
        }
    }

    /// The arena slot of `copy`'s request. The copy holds one of the
    /// request's `live` counts, so the slot is still that request's;
    /// debug builds check the generation too.
    fn slot_of(&self, copy: QueuedCopy) -> usize {
        #[cfg(debug_assertions)]
        assert_eq!(
            self.reqs.handle(copy.slot()),
            Some(copy.req),
            "a copy outlived its request"
        );
        copy.slot()
    }

    /// The request `copy` belongs to.
    fn req(&self, copy: QueuedCopy) -> &ReqState {
        self.reqs
            .get_slot(self.slot_of(copy))
            .expect("a live copy keeps its request's slot occupied")
    }

    /// Mutable [`Sim::req`].
    fn req_mut(&mut self, copy: QueuedCopy) -> &mut ReqState {
        let slot = self.slot_of(copy);
        self.reqs
            .get_slot_mut(slot)
            .expect("a live copy keeps its request's slot occupied")
    }

    /// Fault-free service time of a copy at its tier.
    fn base_service(&self, degraded: bool) -> SimTime {
        if degraded {
            self.config.degraded_service_time
        } else {
            self.config.service_time
        }
    }

    /// Deadline propagation's estimate of a fresh copy's queue +
    /// service time at `pod`.
    fn expected_wait(&self, pod: u32) -> SimTime {
        let p = &self.pods[pod as usize];
        let depth = (p.queued + p.busy) as f64 / p.up.max(1) as f64;
        self.config.service_time.scale(depth + 1.0)
    }

    /// Queues a copy of request `id` on `device` and tries to start it.
    fn enqueue(&mut self, at: SimTime, device: u32, id: ArenaRef, hedge: bool) {
        let di = device as usize;
        self.dev.queue[di].push_back(QueuedCopy::new(id, hedge));
        self.pods[self.dev.pod[di] as usize].queued += 1;
        self.total_queued += 1;
        self.dispatch(device, at);
    }

    /// Re-deals device `d`'s queue over its pod's peers through
    /// [`Sim::assign_device`] and tries to start each target — a no-op
    /// when the queue is empty or the pod has no capacity up to take it.
    fn redeal_queue(&mut self, at: SimTime, d: usize) {
        let pod = self.dev.pod[d];
        if self.pods[pod as usize].up == 0 || self.dev.queue[d].is_empty() {
            return;
        }
        let moved: Vec<QueuedCopy> = self.dev.queue[d].drain(..).collect();
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

    /// One unit of `pod`'s effective capacity leaves at `at`; the
    /// pod's zero-capacity clock starts if it was the last.
    fn capacity_down(&mut self, at: SimTime, pod: usize) {
        let p = &mut self.pods[pod];
        p.up -= 1;
        self.total_up -= 1;
        if p.up == 0 && p.down_since.is_none() {
            p.down_since = Some(at);
        }
    }

    /// One unit of `pod`'s effective capacity returns at `at`, closing
    /// any zero-capacity window into the report's recovery time.
    fn capacity_up(&mut self, at: SimTime, pod: usize) {
        let p = &mut self.pods[pod];
        if p.up == 0 {
            if let Some(since) = p.down_since.take() {
                self.report.recovery_time = self.report.recovery_time.max(at.saturating_sub(since));
            }
        }
        p.up += 1;
        self.total_up += 1;
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
                    if self.dev.wake[di].and_then(|id| self.des.key_of(id)) != Some(key) {
                        self.dev.wake[di] =
                            Some(self.schedule(wake, d as u64, Ev::Wake { device: d }));
                    }
                }
                return;
            }
            let copy = self.dev.queue[di].pop_front().expect("checked non-empty");
            let pod = self.dev.pod[di] as usize;
            self.pods[pod].queued -= 1;
            self.total_queued -= 1;
            let req = *self.req(copy);
            // The naive-retry arm is deadline- and duplicate-*oblivious*
            // at the server: it cannot tell that a copy's request was
            // already answered (no cancellation propagation) or that its
            // client has long given up, so it burns a full service slot
            // either way — the wasted work that sustains the metastable
            // latch. Every other arm cancels both for free here.
            if req.answered && self.arm.server_cancel {
                self.drop_copy(copy, CopyEnd::Cancelled);
                continue;
            }
            if self.arm.server_cancel && now > req.arrived + self.config.deadline {
                if let Some(b) = self.breaker_mut(req.ingress, self.dev.pod[di]) {
                    b.record_failure(now);
                }
                self.drop_copy(copy, CopyEnd::Expired);
                continue;
            }
            let service = self
                .base_service(req.degraded)
                .scale(self.dev.faults[di].service_time_factor(now));
            self.seq += 1;
            let completion = self.schedule(now + service, self.seq, Ev::Completion { device: d });
            self.dev.busy[di] = Some(InFlight {
                completion,
                started: now,
                copy,
            });
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
                            && (!self.arm.outliers || self.dev.eligible[di])
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
    fn apply_device_delta(&mut self, at: SimTime, d: u32, down: bool) {
        let di = d as usize;
        let pod = self.dev.pod[di] as usize;
        if down {
            debug_assert!(self.dev.up[di], "merged windows alternate");
            self.dev.up[di] = false;
            self.dev.health[di].set_offline(at);
            self.dev.refresh_eligible(di);
            self.report.device_downs += 1;
            // Inactive reserves carry no capacity, so their fault
            // windows must not touch the effective-capacity counters.
            if self.dev.active[di] {
                self.capacity_down(at, pod);
            }
            if let Some(inflight) = self.dev.busy[di].take() {
                self.des
                    .cancel(inflight.completion)
                    .expect("busy implies a pending completion");
                self.pods[pod].busy -= 1;
                self.total_busy -= 1;
                let ingress = self.req(inflight.copy).ingress;
                if let Some(b) = self.breaker_mut(ingress, pod as u32) {
                    b.record_failure(at);
                }
                self.drop_copy(inflight.copy, CopyEnd::Killed);
            }
            self.redeal_queue(at, di);
        } else {
            self.dev.up[di] = true;
            self.dev.health[di].begin_recovery(at);
            self.dev.refresh_eligible(di);
            if self.dev.active[di] {
                self.capacity_up(at, pod);
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
    /// EWMA quantile. The next sweep is scheduled first.
    fn probe(&mut self, now: SimTime) {
        self.tick(now + self.config.probe_interval, Ev::Probe);
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
        if !self.arm.outliers {
            return;
        }
        let dpp = self.spec.devices_per_pod as usize;
        let service_secs = self.config.service_time.as_secs_f64();
        let delay_floor = self.arm.hedge_floor();
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
            self.pods[p].hedge_deadline =
                SimTime::from_secs_f64(sweep.hedge_deadline_secs * service_secs).max(delay_floor);
            for k in 0..dpp {
                let d = first + k;
                self.dev.outlier[d] = sweep.sustained[k];
                if sweep.sustained[k] {
                    // Demote through the legal Healthy → Degraded edge
                    // only; a second error would take Degraded →
                    // Offline, which fail-slow must never do.
                    if self.dev.health[d].state() == HealthState::Healthy {
                        self.dev.health[d].observe_error(now);
                        self.report.outlier_demotions += 1;
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
        let (load, up) = self.load();
        let util = utilization(load, up);
        let ladder = &self.config.ladder;
        self.tier = match self.tier {
            0 => ladder.entry_tier(util),
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
            let edge = ingress as usize * self.pods.len() + p as usize;
            if self.breakers.get(edge).is_some_and(|b| !b.allows()) {
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
        self.report.capacity_headroom = self.report.capacity_headroom.min(headroom);
        self.bucket_mut(at).offered += 1;

        let (pod, tier) = if self.arm.routed {
            self.update_tier();
            if self.effective_tier() >= 1 && priority == Priority::Low {
                self.report.shed += 1;
                return;
            }
            let Some(pod) = self.route(region, None) else {
                self.report.lost_unroutable += 1;
                return;
            };
            (pod, self.effective_tier())
        } else {
            let local = &self.local_pods[region as usize];
            let pod = local[(self.rr[region as usize] % local.len() as u64) as usize];
            self.rr[region as usize] += 1;
            (pod, 0)
        };
        // Deadline propagation starts at admission: a fresh request
        // whose expected queue + service time already exceeds its
        // end-to-end budget is cancelled up front instead of burning
        // capacity on an answer nobody can use.
        if self.arm.admission_cancel && self.expected_wait(pod) > self.config.deadline {
            self.report.cancelled_at_admission += 1;
            self.report.shed += 1;
            return;
        }
        if let Some(b) = self.breaker_mut(region, pod) {
            b.note_probe();
        }
        if !self.budgets.is_empty() {
            self.budgets[pod as usize].admit_fresh();
        }
        if self.pods[pod as usize].region != region {
            self.report.spillover += 1;
        }
        self.report.routed[region as usize][pod as usize] += 1;
        let degraded = tier == 2;
        let device = self.assign_device(pod);
        self.next_req += 1;
        let logical = self.next_req;
        let state = ReqState {
            logical,
            arrived: at,
            ingress: region,
            degraded,
            tier,
            device,
            live: 1,
            hedges: 0,
            answered: false,
        };
        let req = self.reqs.insert(state);
        self.enqueue(at, device, req, false);
        let fire = match self.arm.reissue {
            Some(Reissue::Hedge(_)) => self.pods[pod as usize].hedge_deadline,
            Some(Reissue::Retry) => self.config.overload.attempt_timeout,
            None => return,
        };
        self.schedule(at + fire, logical, Ev::Reissue { req });
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
    fn fire_hedge(&mut self, at: SimTime, id: ArenaRef, policy: HedgePolicy) {
        let Some(req) = self.reqs.get(id).copied() else {
            return; // request fully closed
        };
        if req.answered || u32::from(req.hedges) >= policy.max_hedges {
            return;
        }
        let home = self.dev.pod[req.device as usize];
        let target = self.clean_device_in(home, Some(req.device)).or_else(|| {
            self.route(req.ingress, Some(home))
                .and_then(|p| self.clean_device_in(p, None))
        });
        let Some(target) = target else { return };
        let entry = self.reqs.get_mut(id).expect("checked above");
        entry.hedges += 1;
        entry.live += 1;
        let more = u32::from(entry.hedges) < policy.max_hedges;
        self.report.hedges_issued += 1;
        self.enqueue(at, target, id, true);
        if more {
            let pod = self.dev.pod[target as usize] as usize;
            let fire = at + self.pods[pod].hedge_deadline;
            self.schedule(fire, req.logical, Ev::Reissue { req: id });
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
        if req.answered || u32::from(req.hedges) + 1 >= self.config.overload.max_attempts {
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
                self.schedule(next, req.logical, Ev::Reissue { req: id });
            }
            return;
        };
        if !self.budgets.is_empty() && !self.budgets[pod as usize].try_spend() {
            self.report.retries_shed += 1;
            return;
        }
        // Deadline propagation: the remaining end-to-end budget must
        // still cover the target's expected queue + service time.
        if self.arm.admission_cancel && at + self.expected_wait(pod) > expiry {
            self.report.cancelled_at_admission += 1;
            return;
        }
        if let Some(b) = self.breaker_mut(req.ingress, pod) {
            b.note_probe();
        }
        let device = self.assign_device(pod);
        let entry = self.reqs.get_mut(id).expect("checked above");
        entry.hedges += 1;
        entry.live += 1;
        let copies = u32::from(entry.hedges);
        self.report.retries_issued += 1;
        self.enqueue(at, device, id, false);
        let next = at + self.config.overload.attempt_timeout;
        if copies + 1 < self.config.overload.max_attempts && next < expiry {
            self.schedule(next, req.logical, Ev::Reissue { req: id });
        }
    }

    /// One forecast-driven planning tick: per region, look `lead` ahead
    /// on the fitted diurnal curve, size each pod by Little's law plus
    /// headroom, and move reserve devices toward the target. The next
    /// tick is scheduled first.
    fn scale(&mut self, at: SimTime) {
        let autoscale = self.arm.autoscale.expect("scaling implies autoscale");
        self.tick(at + autoscale.interval, Ev::Autoscale);
        let forecast = self.forecast.as_ref().expect("scaling implies forecast");
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
            self.report.scale_events += 1;
            active += 1;
            if self.dev.up[di] {
                self.capacity_up(at, pod_i);
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
            self.report.scale_events += 1;
            active -= 1;
            if self.dev.up[di] {
                self.capacity_down(at, pod_i);
            }
            self.redeal_queue(at, di);
        }
    }

    /// Finishes the earliest in-flight copy. The first copy to finish
    /// answers its request (latency recorded, spans emitted); any later
    /// copy is suppressed as a duplicate. Either way the device's
    /// actual service factor feeds the detector.
    fn complete(&mut self, device: u32, finish: SimTime, tel: &mut Telemetry) {
        let di = device as usize;
        let inflight = self.dev.busy[di]
            .take()
            .expect("a completion implies a copy in flight");
        let copy = inflight.copy;
        let pod = self.dev.pod[di] as usize;
        self.pods[pod].busy -= 1;
        self.total_busy -= 1;
        let state = self.req_mut(copy);
        // Copied before the stores below, so the copy never waits on a
        // store it would read straight back. `req.answered` is whether
        // an earlier copy already answered.
        let req = *state;
        state.live = req.live - 1;
        state.answered = true;
        if req.live == 1 {
            self.reqs.remove_slot(copy.slot());
        }
        if self.arm.outliers {
            // Observe the dimensionless service factor (actual over
            // base for this copy's tier) so degraded-tier responses
            // don't skew the pod median.
            let factor = finish.saturating_sub(inflight.started).as_secs_f64()
                / self
                    .base_service(req.degraded)
                    .as_secs_f64()
                    .max(f64::MIN_POSITIVE);
            let local = di - pod * self.spec.devices_per_pod as usize;
            self.pods[pod].detector.observe(local, factor);
        }
        if req.answered {
            self.report.duplicates_suppressed += 1;
            self.dispatch(device, finish);
            return;
        }
        if self.arm.client_deadline && finish > req.arrived + self.config.deadline {
            // The first copy to finish did so past the end-to-end
            // deadline: the client has long abandoned the request, but
            // the server still burned the slot — that wasted service is
            // exactly the amplification that latches metastable
            // collapse in the naive arm.
            self.report.lost_deadline += 1;
            if let Some(b) = self.breaker_mut(req.ingress, pod as u32) {
                b.record_failure(finish);
            }
            self.dispatch(device, finish);
            return;
        }
        self.bucket_mut(req.arrived).served += 1;
        if let Some(b) = self.breaker_mut(req.ingress, pod as u32) {
            b.record_success(inflight.started.saturating_sub(req.arrived));
        }
        if copy.hedge() {
            self.report.hedge_wins += 1;
        }
        if req.degraded {
            self.report.served_degraded += 1;
        } else {
            self.report.served_full += 1;
        }
        let region = self.dev.region[di];
        let wan_rtt = self.wan_rtt[(req.ingress * self.spec.regions + region) as usize];
        let latency = finish.saturating_sub(req.arrived) + wan_rtt;
        self.report.request_latency.record(latency);
        let spilled = region != req.ingress;
        if spilled {
            self.report.spillover_latency.record(latency);
        }
        if tel.is_enabled() {
            // The request's whole lifecycle chain, emitted atomically at
            // completion so the span stack stays balanced.
            tel.begin_span(
                format!("ingress.region{}", req.ingress),
                "global",
                req.arrived,
            );
            tel.begin_span("route", "global", req.arrived);
            tel.span_attr("pod", Json::UInt(self.dev.pod[di] as u64));
            tel.span_attr("tier", Json::UInt(req.tier as u64));
            tel.span_attr("spillover", Json::Bool(spilled));
            tel.span_attr("hedge", Json::Bool(copy.hedge()));
            tel.end_span(req.arrived);
            tel.begin_span(
                format!("pod{}.serve", self.dev.pod[di]),
                "global",
                inflight.started,
            );
            tel.begin_span("cell", "global", inflight.started);
            tel.span_attr("device", Json::UInt(device as u64));
            tel.span_attr("degraded", Json::Bool(req.degraded));
            tel.end_span(finish);
            tel.end_span(finish);
            tel.end_span(finish + wan_rtt);
            tel.hist_record("global.request_latency", latency);
        }
        self.dispatch(device, finish);
    }

    /// Advances through every pending event with `at <= limit` (use
    /// [`SimTime::MAX`] to drain). Returns the number of events
    /// processed by this call.
    pub(super) fn run_until(&mut self, limit: SimTime, tel: &mut Telemetry) -> u64 {
        let before = self.des.popped();
        while let Some(ev) = self.des.next_until(limit) {
            let at = self.des.now();
            match ev {
                Ev::Capacity { device, down } => self.apply_device_delta(at, device, down),
                Ev::Gray { index } => {
                    let event = &self.plan.events()[index as usize];
                    let device = event.device as usize;
                    if device < self.dev.up.len() {
                        self.dev.faults[device].apply(event, 1.0);
                    }
                }
                Ev::Partition { region, on } => self.partitioned[region as usize] = on,
                Ev::Wake { device } => self.dispatch(device, at),
                Ev::Probe => self.probe(at),
                Ev::Autoscale => self.scale(at),
                Ev::Completion { device } => self.complete(device, at, tel),
                Ev::Reissue { req } => {
                    match self.arm.reissue.expect("timers imply a re-issue kind") {
                        Reissue::Hedge(policy) => self.fire_hedge(at, req, policy),
                        Reissue::Retry => self.fire_retry(at, req),
                    }
                }
                Ev::Arrival => {
                    let arrival = self.arrivals.next().expect("scheduled");
                    self.schedule_arrival();
                    self.arrive(arrival.at, arrival.region, arrival.priority);
                }
            }
        }
        self.des.popped() - before
    }

    /// Closes out a fully-drained run: asserts the drain invariants,
    /// takes the kernel's pop count as the event count and flushes it to
    /// the process-wide perf counter, derives the report's `lost` and
    /// `breaker_opens`, and checks request conservation in every build.
    pub(super) fn into_report(self) -> GlobalReport {
        let mut report = self.report;
        // Fully drained: every fault window is finite, so capacity
        // always returns, flapped links clear, and the queues empty out.
        debug_assert!(self.des.next_time().is_none(), "undrained events");
        debug_assert!(self.reqs.is_empty(), "unresolved request copies");
        debug_assert!(self
            .dev
            .queue
            .iter()
            .zip(&self.dev.busy)
            .all(|(q, b)| q.is_empty() && b.is_none()));
        debug_assert!(
            report.duplicates_suppressed + report.hedges_cancelled + report.hedge_wins
                <= 2 * (report.hedges_issued + report.retries_issued),
            "more duplicate outcomes than copies issued"
        );
        report.events = self.des.popped();
        mtia_core::perfcount::add_events(report.events);
        report.lost = report.lost_unroutable + report.lost_killed + report.lost_deadline;
        assert_eq!(
            report.offered,
            report.served_full + report.served_degraded + report.shed + report.lost,
            "request conservation"
        );
        report.breaker_opens = self.breakers.iter().map(|b| b.opens()).sum();
        report
    }
}

/// Replays `trace` against `plan` under `policy`, recording the
/// request lifecycle into `tel` when tracing is enabled. Telemetry is a
/// pure observer: the returned report is byte-identical whether `tel`
/// is enabled or not.
///
/// # Panics
///
/// Panics if `config` fails [`GlobalConfig::validate`]: a zero probe
/// interval or autoscale interval would re-fire its timer at one
/// instant forever.
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
    let (end, retrying) = (sim.des.now(), sim.arm.client_deadline);
    let report = sim.into_report();

    tel.counter_add("global.served_full", report.served_full);
    tel.counter_add("global.served_degraded", report.served_degraded);
    tel.counter_add("global.shed", report.shed);
    tel.counter_add("global.lost", report.lost);
    tel.counter_add("global.spillover", report.spillover);
    tel.counter_add("global.hedges_issued", report.hedges_issued);
    tel.counter_add("global.hedge_wins", report.hedge_wins);
    tel.counter_add("global.duplicates_suppressed", report.duplicates_suppressed);
    tel.counter_add("global.outlier_demotions", report.outlier_demotions);
    if retrying {
        // Only the retry arms emit the overload counters, so the
        // pre-existing golden traces stay byte-identical.
        tel.counter_add("global.retries_issued", report.retries_issued);
        tel.counter_add("global.retries_shed", report.retries_shed);
        tel.counter_add("global.breaker_opens", report.breaker_opens);
        tel.counter_add(
            "global.cancelled_at_admission",
            report.cancelled_at_admission,
        );
        tel.counter_add("global.scale_events", report.scale_events);
    }
    tel.end_span(end);
    report
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{
        build_regional_trace, AutoscaleConfig, GlobalArrival, GlobalComparison,
        RegionalTrafficConfig,
    };
    use mtia_sim::faults::FaultEvent;

    fn small_spec() -> GlobalFleetSpec {
        GlobalFleetSpec::symmetric(2, 2, 8, SimTime::from_millis(60))
            .expect("every dimension is non-empty")
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
        let config = GlobalConfig::production(5);
        let arm = |policy| simulate_global(&spec, &config, &trace, &plan, policy);
        let cmp = GlobalComparison {
            naive: arm(RoutingPolicy::StaticLocal),
            router: arm(RoutingPolicy::HealthAware),
        };
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
    fn zero_length_partition_window_opens_and_heals_at_its_instant() {
        // Region 1 is partitioned and healed at t = 1 s, long before
        // region 0's outage needs to spill into it.
        let spec = small_spec();
        let trace = small_trace(&spec, 5);
        let config = GlobalConfig::production(5);
        let outage = region0_outage(&spec);
        let blip = outage.clone().with_event(FaultEvent {
            at: SimTime::from_secs(1),
            device: spec.pods_in_region(1)[0] * spec.devices_per_pod,
            kind: FaultKind::WanPartition,
            duration: SimTime::ZERO,
        });
        let plain = simulate_global(&spec, &config, &trace, &outage, RoutingPolicy::HealthAware);
        let blipped = simulate_global(&spec, &config, &trace, &blip, RoutingPolicy::HealthAware);
        assert!(plain.spillover > 0);
        assert_eq!(blipped.routed, plain.routed);
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
    fn a_live_request_takes_at_most_36_bytes_of_arena() {
        // A latched naive-retry arm holds about 0.4 M live requests at
        // once; each takes its state and a generation in the arena.
        assert!(std::mem::size_of::<ReqState>() <= 32);
        const { assert!(Arena::<ReqState>::SLOT_BYTES <= 36) };
    }

    /// Release layout only: debug builds keep each copy's full handle
    /// beside its slot for the generation check.
    #[cfg(not(debug_assertions))]
    #[test]
    fn a_copy_is_its_request_slot() {
        // The same arm holds over a million queued copies at once.
        assert_eq!(std::mem::size_of::<QueuedCopy>(), 4);
    }

    #[test]
    fn a_pending_event_takes_at_most_12_bytes_of_payload() {
        // Its hedge or retry timer, at most one per live request, keeps
        // a kernel slot of 32 B: generation, key and this payload.
        assert!(std::mem::size_of::<Option<Ev>>() <= 12);
    }

    /// A fresh, unanswered request with `copies` live copies, homed on
    /// `device`.
    fn request(logical: u64, device: u32, copies: u16) -> ReqState {
        ReqState {
            logical,
            arrived: SimTime::ZERO,
            ingress: 0,
            device,
            live: copies,
            hedges: copies - 1,
            tier: 0,
            degraded: false,
            answered: false,
        }
    }

    /// Registers a request and queues one copy of it on `device` per
    /// entry of `hedges` (`true` marks a hedge copy), as `arrive`,
    /// `fire_hedge` and `fire_retry` would: the first non-hedge entry
    /// is the primary, and every other entry counts as a hedge or retry
    /// issued. The request is counted as offered, so the run still
    /// closes with its accounting checked.
    fn admit(sim: &mut Sim, device: u32, hedges: &[bool]) -> ArenaRef {
        sim.next_req += 1;
        sim.report.offered += 1;
        let req = sim
            .reqs
            .insert(request(sim.next_req, device, hedges.len() as u16));
        let mut primary = true;
        for &hedge in hedges {
            if hedge {
                sim.report.hedges_issued += 1;
            } else if !std::mem::take(&mut primary) {
                sim.report.retries_issued += 1;
            }
            sim.enqueue(SimTime::ZERO, device, req, hedge);
        }
        req
    }

    #[test]
    fn a_redealt_queue_keeps_every_copy_on_its_own_request() {
        // Device 0 serves request A and queues primary, hedge and retry
        // copies of B and C. Taking it down kills A's only copy, which
        // frees A's slot, and re-deals the queue to its pod peers; a new
        // request D then takes A's slot. Every copy must still reach
        // its own request with its own hedge flag.
        let spec = small_spec();
        let config = GlobalConfig::production(41);
        let trace = RegionalTrace::new(Vec::new()).expect("empty is sorted");
        let plan = FaultPlan::empty(41);
        let mut sim = Sim::new(&spec, &config, &trace, &plan, RoutingPolicy::NaiveRetry);
        let a = admit(&mut sim, 0, &[false]);
        admit(&mut sim, 0, &[false, true, false]);
        admit(&mut sim, 0, &[true, false]);
        let owners = |sim: &Sim, copies: &mut dyn Iterator<Item = QueuedCopy>| {
            copies
                .map(|c| (sim.req(c).logical, c.hedge()))
                .collect::<Vec<_>>()
        };
        let queued = owners(&sim, &mut sim.dev.queue[0].iter().copied());
        assert_eq!(
            queued,
            [(2, false), (2, true), (2, false), (3, true), (3, false)]
        );

        sim.apply_device_delta(SimTime::ZERO, 0, true);
        assert_eq!(sim.report.lost_killed, 1);
        assert!(sim.reqs.get(a).is_none(), "A's last copy died");
        let d = admit(&mut sim, 1, &[false]);
        assert_eq!(d.slot(), a.slot(), "D reuses A's slot");
        // The re-dealt copies start on devices 1..=5 in queue order, so
        // they complete in that order, ahead of D queued behind one.
        let mut des = sim.des.clone();
        let inflight = owners(
            &sim,
            &mut std::iter::from_fn(|| des.next_until(SimTime::MAX)).map(|ev| match ev {
                Ev::Completion { device } => sim.dev.busy[device as usize].expect("busy").copy,
                other => panic!("only completions are pending, not {other:?}"),
            }),
        );
        assert_eq!(inflight, queued);
        let d_copy = *sim.dev.queue[1].front().expect("D waits on device 1");
        assert_eq!(owners(&sim, &mut std::iter::once(d_copy)), [(4, false)]);

        sim.apply_device_delta(SimTime::ZERO, 0, false);
        sim.run_until(SimTime::MAX, &mut Telemetry::disabled());
        let report = sim.into_report();
        assert_eq!(report.served_full, 3, "B, C and D");
        // C's hedge copy ran ahead of its primary and answered it.
        assert_eq!(report.hedge_wins, 1);
        assert_eq!(report.duplicates_suppressed, 3);
        assert_eq!(report.lost, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a copy outlived its request")]
    fn a_copy_on_a_reused_slot_fails_the_generation_check() {
        let spec = small_spec();
        let config = GlobalConfig::production(43);
        let trace = RegionalTrace::new(Vec::new()).expect("empty is sorted");
        let plan = FaultPlan::empty(43);
        let mut sim = Sim::new(&spec, &config, &trace, &plan, RoutingPolicy::NaiveRetry);
        let gone = sim.reqs.insert(request(1, 0, 1));
        sim.reqs.remove(gone);
        sim.reqs.insert(request(2, 0, 1));
        sim.req(QueuedCopy::new(gone, false));
    }

    #[test]
    fn autoscaling_a_trace_too_short_for_a_planning_tick_serves_it() {
        let spec = small_spec();
        let mut config = GlobalConfig::production(31);
        config.autoscale = Some(AutoscaleConfig::production(SimTime::from_secs(60)));
        let arrival = GlobalArrival {
            at: SimTime::ZERO,
            region: 0,
            priority: Priority::High,
        };
        let trace = RegionalTrace::new(vec![arrival]).expect("one arrival is sorted");
        let plan = FaultPlan::empty(31);
        let report = simulate_global(
            &spec,
            &config,
            &trace,
            &plan,
            RoutingPolicy::OverloadResilient,
        );
        assert_eq!(report.offered, 1);
        assert_eq!(report.served_full, 1);
        assert_eq!(report.scale_events, 0);
    }

    /// Two arrivals a second apart: enough for a probe sweep or a
    /// planning tick to fire between them.
    fn two_arrival_trace() -> RegionalTrace {
        let arrival = |s| GlobalArrival {
            at: SimTime::from_secs(s),
            region: 0,
            priority: Priority::High,
        };
        RegionalTrace::new(vec![arrival(1), arrival(2)]).expect("sorted")
    }

    #[test]
    #[should_panic(expected = "global probe interval")]
    fn a_zero_probe_interval_is_rejected_instead_of_spinning() {
        let spec = small_spec();
        let mut config = GlobalConfig::production(37);
        config.probe_interval = SimTime::ZERO;
        let plan = FaultPlan::empty(37);
        let trace = two_arrival_trace();
        simulate_global(&spec, &config, &trace, &plan, RoutingPolicy::HealthAware);
    }

    #[test]
    #[should_panic(expected = "autoscale planning interval")]
    fn a_zero_autoscale_interval_is_rejected_instead_of_spinning() {
        let spec = small_spec();
        let mut config = GlobalConfig::production(37);
        config.autoscale = Some(AutoscaleConfig {
            interval: SimTime::ZERO,
            ..AutoscaleConfig::production(SimTime::from_secs(60))
        });
        let plan = FaultPlan::empty(37);
        let trace = two_arrival_trace();
        simulate_global(
            &spec,
            &config,
            &trace,
            &plan,
            RoutingPolicy::OverloadResilient,
        );
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
