//! The remote/merge serving engine, with and without injected faults.
//!
//! Runs the §6 remote/merge workload ([`RemoteMergeConfig`]): every job
//! goes through a [`DeviceSet`] while a pre-generated [`FaultPlan`]
//! injects its events in time order. Two dispatch policies run over
//! *identical* traces:
//!
//! * [`DispatchPolicy::Naive`] — the pre-§5.5-tooling baseline: FIFO onto
//!   the first idle device, oblivious to health and link state. A job
//!   caught in a PCIe loss simply vanishes; its request hangs until the
//!   horizon ends (counted `stuck`), and any job failure drops the
//!   request outright. On [`FaultPlan::empty`] this arm *is* the Fig. 5
//!   scheduler: [`crate::scheduler`] runs it and reads its report.
//! * [`DispatchPolicy::Resilient`] — consults device health, retries
//!   failed jobs with [`RetryPolicy`] backoff, optionally hedges slow
//!   merges, drains devices for maintenance, and sheds load through the
//!   [`DegradationController`] when the P99 SLO headroom vanishes.
//!
//! Both arms record the same measurements: request, merge-wait and
//! remote-phase latency, throughput, and dispatched device-time.
//! Everything is a pure function of `(config, plan, arrival stream)` —
//! reports embed the plan fingerprint so trace identity is checkable.

use std::collections::VecDeque;

use mtia_core::des::Kernel;
use mtia_core::eventq::{Arena, ArenaRef};
use mtia_core::telemetry::{Json, Telemetry};
use mtia_core::SimTime;
use mtia_sim::faults::{DeviceId, FaultPlan};

use crate::scheduler::RemoteMergeConfig;
use crate::traffic::ArrivalProcess;

use super::controller::{DegradationConfig, DegradationController};
use super::device::{DeviceSet, FaultImpact};
use super::health::{HealthConfig, HealthMachine, HealthState};
use super::report::{PolicyComparison, ResilienceReport};
use super::retry::{HedgePolicy, RetryPolicy};

/// How jobs are placed on devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// FIFO onto any idle device; no health, retry, or shedding.
    Naive,
    /// Health-aware dispatch with retry/hedge/degradation.
    Resilient,
}

impl DispatchPolicy {
    fn name(self) -> &'static str {
        match self {
            DispatchPolicy::Naive => "naive",
            DispatchPolicy::Resilient => "resilient",
        }
    }
}

/// A scheduled maintenance outage (firmware rollout slot): the device is
/// drained (resilient) or yanked (naive) at `start` and returns
/// `duration` later via recovery probation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceWindow {
    /// Device being updated.
    pub device: DeviceId,
    /// When the update wants the device.
    pub start: SimTime,
    /// How long the update holds the device.
    pub duration: SimTime,
}

/// Full configuration of a fault-injected serving run.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// The §6 remote/merge workload shape.
    pub workload: RemoteMergeConfig,
    /// Health-machine thresholds.
    pub health: HealthConfig,
    /// Retry/backoff policy (resilient only).
    pub retry: RetryPolicy,
    /// Optional merge-job hedging (resilient only).
    pub hedge: Option<HedgePolicy>,
    /// Optional SLO-aware load shedding (resilient only).
    pub degradation: Option<DegradationConfig>,
    /// Scheduled maintenance outages (firmware rollout integration).
    pub maintenance: Vec<MaintenanceWindow>,
    /// How long an error-budget-exhausted device rests offline before
    /// re-entering on probation.
    pub offline_cooldown: SimTime,
    /// Trailing window for the PE-utilization estimate that arms §5.5.
    pub pcie_util_window: SimTime,
    /// The run's base seed (documented fleet-wide; see `mtia_core::seed`).
    pub seed: u64,
}

impl ResilienceConfig {
    /// Production-flavored policies around a given workload and seed.
    pub fn production(workload: RemoteMergeConfig, seed: u64) -> Self {
        ResilienceConfig {
            workload,
            health: HealthConfig::default(),
            retry: RetryPolicy::production(),
            hedge: Some(HedgePolicy::production()),
            degradation: Some(DegradationConfig::production()),
            maintenance: Vec::new(),
            offline_cooldown: SimTime::from_secs(2),
            pcie_util_window: SimTime::from_secs(1),
            seed,
        }
    }
}

/// A unit of work bound for a device. `req` is its request's handle,
/// dead once the request completes or fails; `index` numbers a request's
/// remote jobs (0 for its merge); `attempts` counts dispatches so far (0
/// for a never-dispatched job).
#[derive(Debug, Clone, Copy)]
struct Ticket {
    req: ArenaRef,
    is_merge: bool,
    index: u32,
    attempts: u32,
    hedges: u32,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival,
    JobDone { device: DeviceId, epoch: u64 },
    JobReady { ticket: Ticket },
    HedgeCheck { device: DeviceId, epoch: u64 },
    LinkRestored { device: DeviceId },
    Reenable { device: DeviceId },
    MaintenanceStart { window: usize },
    MaintenanceDone { device: DeviceId },
    FaultAt { index: usize },
}

#[derive(Debug)]
struct RequestState {
    id: u64,
    arrived: SimTime,
    remotes_left: u32,
}

struct Engine<'a> {
    policy: DispatchPolicy,
    config: &'a ResilienceConfig,
    set: DeviceSet,
    des: Kernel<Ev>,
    /// Tickets waiting for a device, each with the time it was queued.
    queue: VecDeque<(SimTime, Ticket)>,
    /// Per device (one job at a time): the running job's epoch and ticket.
    inflight: Vec<Option<(u64, Ticket)>>,
    /// Per device: a naive-mode job swallowed by a dead link.
    doomed: Vec<Option<Ticket>>,
    /// Live requests only: a request stranded for the rest of the run
    /// holds one slot, not every id after it.
    requests: Arena<RequestState>,
    /// Per device: the hold time of a maintenance not yet begun.
    pending_maintenance: Vec<Option<SimTime>>,
    controller: Option<DegradationController>,
    /// Device-time of every job scheduled to run.
    busy: SimTime,
    report: ResilienceReport,
    warmup: SimTime,
    tel: &'a mut Telemetry,
}

impl<'a> Engine<'a> {
    fn new(
        config: &'a ResilienceConfig,
        policy: DispatchPolicy,
        plan: &FaultPlan,
        warmup: SimTime,
        tel: &'a mut Telemetry,
    ) -> Self {
        let devices = config.workload.devices as usize;
        Engine {
            policy,
            config,
            set: DeviceSet::new(
                config.workload.devices,
                config.health,
                config.pcie_util_window,
            ),
            des: Kernel::new(),
            queue: VecDeque::new(),
            inflight: vec![None; devices],
            doomed: vec![None; devices],
            requests: Arena::new(),
            pending_maintenance: vec![None; devices],
            controller: match policy {
                DispatchPolicy::Resilient => config.degradation.map(DegradationController::new),
                DispatchPolicy::Naive => None,
            },
            busy: SimTime::ZERO,
            report: ResilienceReport {
                policy: policy.name(),
                seed: config.seed,
                fault_fingerprint: plan.fingerprint(),
                availability: 1.0,
                ..ResilienceReport::default()
            },
            warmup,
            tel,
        }
    }

    /// Takes `device`'s running ticket if it runs under `epoch`.
    fn take_inflight(&mut self, device: DeviceId, epoch: u64) -> Option<Ticket> {
        let slot = &mut self.inflight[device as usize];
        slot.take_if(|(running, _)| *running == epoch)
            .map(|(_, ticket)| ticket)
    }

    fn fail_request(&mut self, req: ArenaRef) {
        if self.requests.remove(req).is_some() {
            self.report.dropped += 1;
        }
    }

    /// Applies `change` to `device`'s health machine and emits a
    /// `health.transition` instant event when its state actually changed
    /// (per-device health transitions are the fleet operator's primary
    /// signal; see §5.5).
    fn transition(
        &mut self,
        device: DeviceId,
        now: SimTime,
        change: impl FnOnce(&mut HealthMachine),
    ) {
        let before = self.health_state(device);
        change(&mut self.set.get_mut(device).health);
        let after = self.health_state(device);
        if before != after && self.tel.is_enabled() {
            self.tel.instant(
                "health.transition",
                "serving",
                now,
                vec![
                    ("device".into(), Json::UInt(device as u64)),
                    ("from".into(), Json::Str(format!("{before:?}"))),
                    ("to".into(), Json::Str(format!("{after:?}"))),
                ],
            );
            self.tel.counter_add("serving.health_transitions", 1);
        }
    }

    fn health_state(&self, device: DeviceId) -> HealthState {
        self.set.get(device).health.state()
    }

    /// Dispatches queued tickets onto devices while both are available.
    fn dispatch(&mut self, now: SimTime) {
        loop {
            // Skip tickets whose request already failed/completed.
            while let Some((_, t)) = self.queue.front() {
                if self.requests.get(t.req).is_some() {
                    break;
                }
                self.queue.pop_front();
            }
            let Some(&(queued_at, mut ticket)) = self.queue.front() else {
                return;
            };
            let device = match self.policy {
                DispatchPolicy::Naive => self.set.acquire_naive(now),
                DispatchPolicy::Resilient => self.set.acquire_resilient(now),
            };
            let Some(device) = device else { return };
            self.queue.pop_front();
            ticket.attempts += 1;
            self.tel.counter_add("serving.jobs_dispatched", 1);
            if ticket.is_merge && now >= self.warmup {
                self.report.merge_wait.record(now - queued_at);
                self.tel.hist_record("serving.merge_wait", now - queued_at);
            }

            if self.policy == DispatchPolicy::Naive && !self.set.get(device).faults.link_up(now) {
                // §5.5 as lived without tooling: the job is swallowed by a
                // hung device. It frees only when the host resets the card.
                self.doomed[device as usize] = Some(ticket);
                continue;
            }

            let base = if ticket.is_merge {
                self.config.workload.merge_time
            } else {
                self.config.workload.remote_job_time_for(ticket.index)
            };
            let factor = self.set.get(device).faults.service_time_factor(now);
            let occupancy = base.scale(factor) + self.config.workload.dispatch_overhead;
            self.busy += occupancy;
            let epoch = self.set.get(device).epoch();
            let slot = &mut self.inflight[device as usize];
            debug_assert!(slot.is_none(), "device {device} runs one job at a time");
            *slot = Some((epoch, ticket));
            self.des
                .schedule(now + occupancy, Ev::JobDone { device, epoch });
            if self.policy == DispatchPolicy::Resilient && ticket.is_merge {
                if let Some(hedge) = self.config.hedge {
                    if ticket.hedges < hedge.max_hedges {
                        self.des
                            .schedule(now + hedge.delay, Ev::HedgeCheck { device, epoch });
                    }
                }
            }
        }
    }

    /// Routes a failed job: retry under the policy's budget, or drop the
    /// request.
    fn handle_job_failure(&mut self, ticket: Ticket, now: SimTime) {
        self.report.job_failures += 1;
        let Some(req) = self.requests.get(ticket.req) else {
            return;
        };
        let (id, deadline) = (req.id, req.arrived + self.config.retry.deadline);
        if self.policy == DispatchPolicy::Naive {
            self.fail_request(ticket.req);
            return;
        }
        if !self.config.retry.allows_retry(ticket.attempts) {
            self.fail_request(ticket.req);
            return;
        }
        let delay = self
            .config
            .retry
            .backoff_delay(ticket.attempts, self.config.seed, id);
        if now + delay > deadline {
            self.fail_request(ticket.req);
            return;
        }
        self.report.retries += 1;
        if self.tel.is_enabled() {
            self.tel.instant(
                "serving.retry",
                "serving",
                now,
                vec![
                    ("request".into(), Json::UInt(id)),
                    ("attempt".into(), Json::UInt(ticket.attempts as u64)),
                    ("delay_ps".into(), Json::UInt(delay.as_picos())),
                ],
            );
        }
        self.des.schedule(now + delay, Ev::JobReady { ticket });
    }

    /// Applies resilient-mode health bookkeeping after a job error, and
    /// schedules probation re-entry if the device just went offline.
    fn observe_device_error(&mut self, device: DeviceId, now: SimTime) {
        if self.policy != DispatchPolicy::Resilient {
            return;
        }
        let before = self.health_state(device);
        self.transition(device, now, |m| m.observe_error(now));
        if before != HealthState::Offline && self.health_state(device) == HealthState::Offline {
            self.des
                .schedule(now + self.config.offline_cooldown, Ev::Reenable { device });
        }
    }

    fn start_maintenance_hold(&mut self, device: DeviceId, now: SimTime) {
        if let Some(duration) = self.pending_maintenance[device as usize].take() {
            self.transition(device, now, |m| {
                m.begin_drain(now);
                m.set_offline(now);
            });
            self.des
                .schedule(now + duration, Ev::MaintenanceDone { device });
        }
    }

    /// Runs every event due by `horizon`.
    fn run(&mut self, arrivals: &mut dyn ArrivalProcess, plan: &FaultPlan, horizon: SimTime) {
        // Pre-load every injected fault and maintenance window.
        for (index, fault) in plan.events().iter().enumerate() {
            self.des.schedule(fault.at, Ev::FaultAt { index });
        }
        for (i, w) in self.config.maintenance.iter().enumerate() {
            self.des
                .schedule(w.start, Ev::MaintenanceStart { window: i });
        }
        if let Some(first) = arrivals.next_arrival(SimTime::ZERO) {
            self.des.schedule(first, Ev::Arrival);
        }

        self.tel
            .begin_span("serving.resilient", "serving", SimTime::ZERO);
        let policy_name = self.policy.name();
        self.tel
            .span_attr("policy", Json::Str(policy_name.to_string()));
        self.tel
            .span_attr("devices", Json::UInt(self.config.workload.devices as u64));
        self.tel.span_attr(
            "remote_jobs_per_request",
            Json::UInt(self.config.workload.remote_jobs_per_request as u64),
        );
        self.tel.span_attr("seed", Json::UInt(self.config.seed));

        let mut next_request = 0u64;
        while let Some(event) = self.des.next_until(horizon) {
            let now = self.des.now();
            match event {
                Ev::Arrival => {
                    let request = next_request;
                    next_request += 1;
                    self.report.offered += 1;
                    let admitted = match &mut self.controller {
                        Some(c) => c.admit(request),
                        None => true,
                    };
                    if admitted {
                        let req = self.requests.insert(RequestState {
                            id: request,
                            arrived: now,
                            remotes_left: self.config.workload.remote_jobs_per_request,
                        });
                        for index in 0..self.config.workload.remote_jobs_per_request {
                            let ticket = Ticket {
                                req,
                                is_merge: false,
                                index,
                                attempts: 0,
                                hedges: 0,
                            };
                            self.queue.push_back((now, ticket));
                        }
                    } else {
                        self.report.shed += 1;
                    }
                    if let Some(next) = arrivals.next_arrival(now) {
                        self.des.schedule(next, Ev::Arrival);
                    }
                }
                Ev::JobDone { device, epoch } => {
                    if !self.set.finish_job(device, epoch, now) {
                        continue; // stale: job was killed or superseded
                    }
                    let ticket = self.take_inflight(device, epoch).expect("inflight ticket");
                    if self.policy == DispatchPolicy::Resilient {
                        self.transition(device, now, |m| m.observe_success(now));
                        if self.set.get(device).health.state() == HealthState::Draining {
                            self.start_maintenance_hold(device, now);
                        }
                    }
                    if let Some(req) = self.requests.get_mut(ticket.req) {
                        if ticket.is_merge {
                            let (id, arrived) = (req.id, req.arrived);
                            self.requests.remove(ticket.req);
                            self.report.completed += 1;
                            let latency = now - arrived;
                            if self.tel.is_enabled() {
                                self.tel.complete_span(
                                    format!("req{id}"),
                                    "serving",
                                    arrived,
                                    now,
                                    vec![
                                        ("latency_ps".into(), Json::UInt(latency.as_picos())),
                                        (
                                            "merge_attempts".into(),
                                            Json::UInt(ticket.attempts as u64),
                                        ),
                                    ],
                                );
                                if let Some(d) = &self.config.degradation {
                                    if now >= self.warmup && latency > d.slo_p99 {
                                        self.tel.counter_add("serving.slo_violations", 1);
                                    }
                                }
                            }
                            if now >= self.warmup {
                                self.report.request_latency.record(latency);
                                self.tel.hist_record("serving.request_latency", latency);
                            }
                            if let Some(c) = &mut self.controller {
                                c.observe(latency);
                            }
                        } else {
                            req.remotes_left -= 1;
                            if req.remotes_left == 0 {
                                if now >= self.warmup {
                                    self.report.remote_latency.record(now - req.arrived);
                                }
                                let merge = Ticket {
                                    req: ticket.req,
                                    is_merge: true,
                                    index: 0,
                                    attempts: 0,
                                    hedges: 0,
                                };
                                self.queue.push_back((now, merge));
                            }
                        }
                    }
                    // else: hedge twin or sibling of a dead request — wasted work.
                }
                Ev::JobReady { ticket } => {
                    if self.requests.get(ticket.req).is_some() {
                        self.queue.push_back((now, ticket));
                    }
                }
                Ev::HedgeCheck { device, epoch } => {
                    let running = self.inflight[device as usize].filter(|&(e, _)| e == epoch);
                    if let Some((_, ticket)) = running {
                        // Still running: issue a duplicate merge elsewhere.
                        if let Some(id) = self.requests.get(ticket.req).map(|r| r.id) {
                            self.report.hedges += 1;
                            if self.tel.is_enabled() {
                                self.tel.instant(
                                    "serving.hedge",
                                    "serving",
                                    now,
                                    vec![
                                        ("request".into(), Json::UInt(id)),
                                        ("device".into(), Json::UInt(device as u64)),
                                    ],
                                );
                            }
                            let twin = Ticket {
                                hedges: ticket.hedges + 1,
                                ..ticket
                            };
                            self.queue.push_back((now, twin));
                        }
                    }
                }
                Ev::LinkRestored { device } => {
                    self.set.tick(now);
                    self.set.get_mut(device).faults.expire(now);
                    if let Some(ticket) = self.doomed[device as usize].take() {
                        self.set.get_mut(device).invalidate_inflight(now);
                        self.report.job_failures += 1;
                        self.fail_request(ticket.req);
                    }
                    if self.policy == DispatchPolicy::Resilient {
                        self.transition(device, now, |m| m.begin_recovery(now));
                    }
                }
                Ev::Reenable { device } => {
                    if self.set.get(device).faults.link_up(now) {
                        self.set.tick(now);
                        self.transition(device, now, |m| m.begin_recovery(now));
                    }
                }
                Ev::MaintenanceStart { window } => {
                    let w = self.config.maintenance[window];
                    self.pending_maintenance[w.device as usize] = Some(w.duration);
                    match self.policy {
                        DispatchPolicy::Resilient => {
                            if self.set.get(w.device).is_busy() {
                                // Drain: stop new work, wait for in-flight.
                                self.transition(w.device, now, |m| m.begin_drain(now));
                            } else {
                                self.start_maintenance_hold(w.device, now);
                            }
                        }
                        DispatchPolicy::Naive => {
                            // No drain tooling: the update yanks the device,
                            // killing whatever runs on it.
                            let d = self.set.get_mut(w.device);
                            let epoch = d.invalidate_inflight(now);
                            if let Some(ticket) = self.take_inflight(w.device, epoch) {
                                self.report.job_failures += 1;
                                self.fail_request(ticket.req);
                            }
                            if let Some(ticket) = self.doomed[w.device as usize].take() {
                                self.report.job_failures += 1;
                                self.fail_request(ticket.req);
                            }
                            self.start_maintenance_hold(w.device, now);
                        }
                    }
                }
                Ev::MaintenanceDone { device } => {
                    self.set.tick(now);
                    self.transition(device, now, |m| m.begin_recovery(now));
                }
                Ev::FaultAt { index } => {
                    let fault = plan.events()[index];
                    match self.set.apply_fault(&fault, now) {
                        FaultImpact::None => {}
                        FaultImpact::JobKilled { epoch } => {
                            self.observe_device_error(fault.device, now);
                            if let Some(ticket) = self.take_inflight(fault.device, epoch) {
                                self.handle_job_failure(ticket, now);
                            }
                        }
                        FaultImpact::LinkLost { epoch, recovers_at } => {
                            if self.policy == DispatchPolicy::Resilient {
                                self.transition(fault.device, now, |m| m.set_offline(now));
                            }
                            if let Some(ticket) = self.take_inflight(fault.device, epoch) {
                                match self.policy {
                                    DispatchPolicy::Resilient => {
                                        self.handle_job_failure(ticket, now)
                                    }
                                    DispatchPolicy::Naive => {
                                        // The job hangs inside the dead card.
                                        self.set.get_mut(fault.device).seize(now);
                                        self.doomed[fault.device as usize] = Some(ticket);
                                    }
                                }
                            }
                            self.des.schedule(
                                recovers_at,
                                Ev::LinkRestored {
                                    device: fault.device,
                                },
                            );
                        }
                        FaultImpact::Partitioned { heals_at } => {
                            // In-flight work survives a partition; only new
                            // dispatch is blocked. Resilient dispatch sees it
                            // through `reachable`; the naive baseline keeps
                            // dispatching (its link check still passes).
                            if self.policy == DispatchPolicy::Resilient {
                                self.transition(fault.device, now, |m| m.set_offline(now));
                                self.des.schedule(
                                    heals_at,
                                    Ev::LinkRestored {
                                        device: fault.device,
                                    },
                                );
                            }
                        }
                    }
                }
            }
            self.dispatch(now);
        }
    }

    /// Closes the run at the last event before `horizon`, adds the
    /// kernel's pops to the perf counter, and derives the report's
    /// end-of-run figures.
    fn finish(mut self, horizon: SimTime) -> ResilienceReport {
        mtia_core::perfcount::add_events(self.des.popped());
        let end = self.des.now();
        self.set.tick(end);
        // Requests still in flight at the end: the ones that had their full
        // deadline budget before the horizon are genuinely stuck (e.g. lost
        // inside a hung device); younger ones are horizon truncation, not a
        // policy failure, and leave the offered pool.
        let cutoff = horizon.saturating_sub(self.config.retry.deadline);
        let live = self.requests.len() as u64;
        self.report.stuck = self.requests.iter().filter(|r| r.arrived <= cutoff).count() as u64;
        self.report.offered -= live - self.report.stuck;
        let measured = end.saturating_sub(self.warmup);
        if measured > SimTime::ZERO {
            self.report.throughput_per_s =
                self.report.request_latency.count() as f64 / measured.as_secs_f64();
        }
        let span = end.max(SimTime::from_picos(1));
        let capacity = self.config.workload.devices as f64 * span.as_secs_f64();
        self.report.utilization = (self.busy.as_secs_f64() / capacity).min(1.0);
        self.report.availability = self.set.availability(span);
        self.tel.end_span(end);
        if self.tel.is_enabled() {
            for (name, value) in [
                ("serving.offered", self.report.offered),
                ("serving.completed", self.report.completed),
                ("serving.shed", self.report.shed),
                ("serving.dropped", self.report.dropped),
                ("serving.stuck", self.report.stuck),
                ("serving.retries", self.report.retries),
                ("serving.hedges", self.report.hedges),
                ("serving.job_failures", self.report.job_failures),
            ] {
                self.tel.counter_add(name, value);
            }
        }
        self.report
    }
}

/// Runs one policy over the workload under the injected `plan`.
pub fn simulate_resilient_remote_merge(
    config: &ResilienceConfig,
    policy: DispatchPolicy,
    arrivals: &mut dyn ArrivalProcess,
    plan: &FaultPlan,
    horizon: SimTime,
    warmup: SimTime,
) -> ResilienceReport {
    simulate_resilient_remote_merge_traced(
        config,
        policy,
        arrivals,
        plan,
        horizon,
        warmup,
        &mut Telemetry::disabled(),
    )
}

/// [`simulate_resilient_remote_merge`] with observability: when `tel`
/// is enabled, records a `serving.resilient` root span with a flat
/// child span per completed request (arrival → merge completion, with
/// merge attempt counts), `health.transition` instant events for every
/// per-device state change, `serving.retry`/`serving.hedge` instants,
/// post-warmup request-latency and merge-wait histograms, and
/// dispatch/shed/SLO-violation/outcome counters. The returned report is
/// byte-identical to the untraced run.
///
/// # Panics
///
/// Panics if [`RemoteMergeConfig::validate`] rejects the workload.
#[allow(clippy::too_many_arguments)]
pub fn simulate_resilient_remote_merge_traced(
    config: &ResilienceConfig,
    policy: DispatchPolicy,
    arrivals: &mut dyn ArrivalProcess,
    plan: &FaultPlan,
    horizon: SimTime,
    warmup: SimTime,
    tel: &mut Telemetry,
) -> ResilienceReport {
    let workload = config.workload;
    workload.validate().expect("a valid remote/merge workload");
    let mut engine = Engine::new(config, policy, plan, warmup, tel);
    engine.run(arrivals, plan, horizon);
    engine.finish(horizon)
}

/// Runs both policies at `rate` req/s Poisson arrivals over identical
/// fault traces and arrival streams, all derived from `config.seed`.
pub fn compare_policies(
    config: &ResilienceConfig,
    plan: &FaultPlan,
    rate: f64,
    horizon: SimTime,
    warmup: SimTime,
) -> PolicyComparison {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let run = |policy| {
        let mut arrivals =
            crate::traffic::PoissonArrivals::new(rate, StdRng::seed_from_u64(config.seed));
        simulate_resilient_remote_merge(config, policy, &mut arrivals, plan, horizon, warmup)
    };
    PolicyComparison {
        naive: run(DispatchPolicy::Naive),
        resilient: run(DispatchPolicy::Resilient),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtia_sim::faults::{FaultEvent, FaultKind, FaultPlanConfig};

    fn workload() -> RemoteMergeConfig {
        RemoteMergeConfig {
            devices: 4,
            remote_jobs_per_request: 2,
            remote_total_time: SimTime::from_millis(8),
            merge_time: SimTime::from_millis(10),
            dispatch_overhead: SimTime::from_millis(1),
        }
    }

    fn config(seed: u64) -> ResilienceConfig {
        ResilienceConfig::production(workload(), seed)
    }

    #[test]
    fn clean_plan_matches_between_policies() {
        let cfg = config(11);
        let plan = FaultPlan::empty(11);
        let cmp = compare_policies(
            &cfg,
            &plan,
            60.0,
            SimTime::from_secs(30),
            SimTime::from_secs(2),
        );
        assert!(cmp.same_trace());
        assert_eq!(
            cmp.naive.offered, cmp.resilient.offered,
            "same arrival stream"
        );
        assert_eq!(cmp.naive.success_rate(), 1.0);
        assert_eq!(cmp.resilient.success_rate(), 1.0);
        assert_eq!(cmp.naive.dropped + cmp.naive.stuck + cmp.naive.shed, 0);
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = config(5);
        let plan = FaultPlan::generate(&FaultPlanConfig::stress(), 4, SimTime::from_secs(30), 5);
        let a = compare_policies(
            &cfg,
            &plan,
            60.0,
            SimTime::from_secs(30),
            SimTime::from_secs(2),
        );
        let b = compare_policies(
            &cfg,
            &plan,
            60.0,
            SimTime::from_secs(30),
            SimTime::from_secs(2),
        );
        assert_eq!(a.naive.completed, b.naive.completed);
        assert_eq!(a.resilient.completed, b.resilient.completed);
        assert_eq!(a.resilient.retries, b.resilient.retries);
        assert_eq!(
            a.resilient.request_latency.p99(),
            b.resilient.request_latency.p99()
        );
        assert_eq!(a.resilient.fault_fingerprint, b.resilient.fault_fingerprint);
    }

    #[test]
    fn resilient_beats_naive_under_stress_faults() {
        let cfg = config(7);
        let plan = FaultPlan::generate(&FaultPlanConfig::stress(), 4, SimTime::from_secs(60), 7);
        let cmp = compare_policies(
            &cfg,
            &plan,
            60.0,
            SimTime::from_secs(60),
            SimTime::from_secs(5),
        );
        assert!(cmp.same_trace());
        assert!(
            cmp.resilient.success_rate() > cmp.naive.success_rate(),
            "resilient {:.3} !> naive {:.3}",
            cmp.resilient.success_rate(),
            cmp.naive.success_rate()
        );
        assert!(
            cmp.resilient.retries > 0,
            "stress plan must exercise retries"
        );
    }

    #[test]
    fn pcie_loss_strands_naive_requests() {
        // One handcrafted link loss on a saturated single device.
        let mut cfg = config(3);
        cfg.workload.devices = 1;
        let plan = FaultPlan::empty(3).with_event(FaultEvent {
            at: SimTime::from_secs(5),
            device: 0,
            kind: FaultKind::PcieLinkLoss {
                min_utilization: 0.0,
            },
            duration: SimTime::from_secs(4),
        });
        let cmp = compare_policies(&cfg, &plan, 30.0, SimTime::from_secs(12), SimTime::ZERO);
        assert!(
            cmp.naive.stuck + cmp.naive.dropped > 0,
            "naive must lose work to the dead link"
        );
        assert!(
            cmp.resilient.availability < 1.0,
            "outage shows up in availability"
        );
    }

    #[test]
    fn a_stranded_naive_request_holds_one_slot() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // A link loss on device 0 at 5 s hangs a naive job there. A
        // transient fault at 6 s frees the hung device, the next job
        // dispatched into the still-dead link replaces the hung one, and
        // the hung job's request stays live to the end of the run.
        let cfg = config(3);
        let on_device_0 = |at, kind, duration| FaultEvent {
            at: SimTime::from_secs(at),
            device: 0,
            kind,
            duration,
        };
        let link_loss = FaultKind::PcieLinkLoss {
            min_utilization: 0.0,
        };
        let plan = FaultPlan::empty(3)
            .with_event(on_device_0(5, link_loss, SimTime::from_secs(4)))
            .with_event(on_device_0(
                6,
                FaultKind::TransientJobFailure,
                SimTime::ZERO,
            ));
        let mut arrivals = crate::traffic::PoissonArrivals::new(60.0, StdRng::seed_from_u64(3));
        let mut tel = Telemetry::disabled();
        let horizon = SimTime::from_secs(60);
        let mut engine = Engine::new(&cfg, DispatchPolicy::Naive, &plan, SimTime::ZERO, &mut tel);
        engine.run(&mut arrivals, &plan, horizon);
        // The table holds the live requests, not every id since the
        // stranded one: that would be ~3,300 slots here and ~72 k in the
        // `pod` benchmark's 600 s naive run.
        let slots = engine.requests.slots();
        assert!(
            slots < 64,
            "{slots} slots for {} live",
            engine.requests.len()
        );
        let report = engine.finish(horizon);
        assert!(report.offered > 3_000);
        assert_eq!(report.stuck, 1, "the replaced job's request never ends");
    }

    #[test]
    fn traced_run_matches_untraced_and_records_transitions() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cfg = config(7);
        let plan = FaultPlan::generate(&FaultPlanConfig::stress(), 4, SimTime::from_secs(30), 7);
        let horizon = SimTime::from_secs(30);
        let warmup = SimTime::from_secs(2);
        let run = |tel: &mut Telemetry| {
            let mut arrivals =
                crate::traffic::PoissonArrivals::new(60.0, StdRng::seed_from_u64(cfg.seed));
            simulate_resilient_remote_merge_traced(
                &cfg,
                DispatchPolicy::Resilient,
                &mut arrivals,
                &plan,
                horizon,
                warmup,
                tel,
            )
        };
        let untraced = run(&mut Telemetry::disabled());
        let mut tel = Telemetry::new_enabled();
        let traced = run(&mut tel);
        assert_eq!(untraced.completed, traced.completed);
        assert_eq!(untraced.retries, traced.retries);
        assert_eq!(untraced.request_latency.p99(), traced.request_latency.p99());
        tel.tracer
            .validate_nesting()
            .expect("request spans contained");
        assert_eq!(tel.metrics.counter("serving.completed"), traced.completed);
        assert_eq!(tel.metrics.counter("serving.retries"), traced.retries);
        // The stress plan produces faults, so health machines must move.
        assert!(tel.metrics.counter("serving.health_transitions") > 0);
        assert!(tel
            .tracer
            .events()
            .iter()
            .any(|e| e.name == "health.transition"));
    }

    #[test]
    fn maintenance_drain_preserves_requests() {
        let mut cfg = config(9);
        cfg.maintenance = vec![MaintenanceWindow {
            device: 0,
            start: SimTime::from_secs(10),
            duration: SimTime::from_secs(5),
        }];
        let plan = FaultPlan::empty(9);
        let cmp = compare_policies(
            &cfg,
            &plan,
            60.0,
            SimTime::from_secs(30),
            SimTime::from_secs(2),
        );
        assert_eq!(
            cmp.resilient.dropped, 0,
            "drained maintenance must not drop requests"
        );
        assert!(cmp.resilient.availability < 1.0, "the outage is real");
    }
}
