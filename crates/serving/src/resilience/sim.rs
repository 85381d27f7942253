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

use mtia_core::error::ConfigError;
use mtia_core::eventq::{Arena, ArenaRef};
use mtia_core::telemetry::{Json, Telemetry};
use mtia_core::SimTime;
use mtia_sim::faults::{DeviceId, FaultPlan};

use crate::scheduler::RemoteMergeConfig;
use crate::traffic::ArrivalProcess;

use super::controller::{DegradationConfig, DegradationController};
use super::device::{DeviceSet, FaultImpact};
use super::health::{HealthConfig, HealthMachine, HealthState};
use super::pod::{Pod, Step};
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

    /// Checks what every run of this configuration needs.
    ///
    /// # Errors
    ///
    /// Whatever [`RemoteMergeConfig::validate`] rejects in the workload,
    /// and [`ConfigError::OutOfRange`] on a maintenance window whose
    /// device is outside the pool.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.workload.validate()?;
        if self
            .maintenance
            .iter()
            .any(|w| w.device >= self.workload.devices)
        {
            return Err(ConfigError::OutOfRange {
                what: "maintenance window device",
                valid: "a device inside the pool",
            });
        }
        Ok(())
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

impl Ticket {
    fn new(req: ArenaRef, is_merge: bool, index: u32) -> Self {
        Ticket {
            req,
            is_merge,
            index,
            attempts: 0,
            hedges: 0,
        }
    }
}

/// The engine's own events; arrivals, completions and faults are the
/// chassis's ([`Pod`]).
#[derive(Debug, Clone, Copy)]
enum Ev {
    JobReady { ticket: Ticket },
    HedgeCheck { device: DeviceId, epoch: u64 },
    LinkRestored { device: DeviceId },
    Reenable { device: DeviceId },
    MaintenanceStart { window: usize },
    MaintenanceDone { device: DeviceId },
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
    pod: Pod<'a, Ticket, Ev>,
    /// Tickets waiting for a device, each with the time it was queued.
    queue: VecDeque<(SimTime, Ticket)>,
    /// Per device: a naive-mode job swallowed by a dead link.
    doomed: Vec<Option<Ticket>>,
    /// Live requests only: a request stranded for the rest of the run
    /// holds one slot, not every id after it.
    requests: Arena<RequestState>,
    /// Per device: the hold time of a maintenance not yet begun.
    pending_maintenance: Vec<Option<SimTime>>,
    /// Device-time of every job scheduled to run.
    busy: SimTime,
    report: ResilienceReport,
    warmup: SimTime,
}

impl<'a> Engine<'a> {
    fn new(
        config: &'a ResilienceConfig,
        policy: DispatchPolicy,
        plan: &'a FaultPlan,
        arrivals: &'a mut dyn ArrivalProcess,
        warmup: SimTime,
        tel: &'a mut Telemetry,
    ) -> Self {
        let devices = config.workload.devices;
        let set = DeviceSet::new(devices, config.health, config.pcie_util_window);
        let controller = match policy {
            DispatchPolicy::Resilient => config.degradation.map(DegradationController::new),
            DispatchPolicy::Naive => None,
        };
        Engine {
            policy,
            config,
            pod: Pod::new(set, controller, plan, arrivals, tel),
            queue: VecDeque::new(),
            doomed: vec![None; devices as usize],
            requests: Arena::new(),
            pending_maintenance: vec![None; devices as usize],
            busy: SimTime::ZERO,
            report: ResilienceReport {
                policy: policy.name(),
                seed: config.seed,
                fault_fingerprint: plan.fingerprint(),
                availability: 1.0,
                ..ResilienceReport::default()
            },
            warmup,
        }
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
    fn transition(&mut self, device: DeviceId, change: impl FnOnce(&mut HealthMachine)) {
        let before = self.health_state(device);
        change(&mut self.pod.set.get_mut(device).health);
        let after = self.health_state(device);
        if before != after {
            self.pod.instant("health.transition", "serving", || {
                [
                    ("device", Json::UInt(device.into())),
                    ("from", Json::Str(format!("{before:?}"))),
                    ("to", Json::Str(format!("{after:?}"))),
                ]
            });
            self.pod.tel.counter_add("serving.health_transitions", 1);
        }
    }

    fn health_state(&self, device: DeviceId) -> HealthState {
        self.pod.set.get(device).health.state()
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
                DispatchPolicy::Naive => self.pod.set.pick_naive(now),
                DispatchPolicy::Resilient => self.pod.set.pick_resilient(now),
            };
            let Some(device) = device else { return };
            self.queue.pop_front();
            ticket.attempts += 1;
            self.pod.tel.counter_add("serving.jobs_dispatched", 1);
            if ticket.is_merge && now >= self.warmup {
                let wait = now - queued_at;
                self.report.merge_wait.record(wait);
                self.pod.tel.hist_record("serving.merge_wait", wait);
            }

            if self.policy == DispatchPolicy::Naive && !self.pod.set.get(device).faults.link_up(now)
            {
                // §5.5 as lived without tooling: the job is swallowed by a
                // hung device. It frees only when the host resets the card.
                self.pod.set.start(device, None, now);
                self.doomed[device as usize] = Some(ticket);
                continue;
            }

            let base = if ticket.is_merge {
                self.config.workload.merge_time
            } else {
                self.config.workload.remote_job_time_for(ticket.index)
            };
            let factor = self.pod.set.get(device).faults.service_time_factor(now);
            let occupancy = base.scale(factor) + self.config.workload.dispatch_overhead;
            self.busy += occupancy;
            let epoch = self.pod.run_job(device, ticket, occupancy);
            if self.policy == DispatchPolicy::Resilient && ticket.is_merge {
                if let Some(hedge) = self.config.hedge {
                    if ticket.hedges < hedge.max_hedges {
                        self.pod
                            .at(now + hedge.delay, Ev::HedgeCheck { device, epoch });
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
        let (id, retry) = (req.id, &self.config.retry);
        let retries =
            self.policy == DispatchPolicy::Resilient && retry.allows_retry(ticket.attempts);
        let delay = retries
            .then(|| retry.backoff_delay(ticket.attempts, self.config.seed, id))
            .filter(|&delay| now + delay <= req.arrived + retry.deadline);
        let Some(delay) = delay else {
            self.fail_request(ticket.req);
            return;
        };
        self.report.retries += 1;
        self.pod.instant("serving.retry", "serving", || {
            [
                ("request", Json::UInt(id)),
                ("attempt", Json::UInt(ticket.attempts.into())),
                ("delay_ps", Json::UInt(delay.as_picos())),
            ]
        });
        self.pod.at(now + delay, Ev::JobReady { ticket });
    }

    /// Applies resilient-mode health bookkeeping after a job error, and
    /// schedules probation re-entry if the device just went offline.
    fn observe_device_error(&mut self, device: DeviceId, now: SimTime) {
        if self.policy != DispatchPolicy::Resilient {
            return;
        }
        let before = self.health_state(device);
        self.transition(device, |m| m.observe_error(now));
        if before != HealthState::Offline && self.health_state(device) == HealthState::Offline {
            self.pod
                .at(now + self.config.offline_cooldown, Ev::Reenable { device });
        }
    }

    fn start_maintenance_hold(&mut self, device: DeviceId, now: SimTime) {
        if let Some(duration) = self.pending_maintenance[device as usize].take() {
            self.transition(device, |m| {
                m.begin_drain(now);
                m.set_offline(now);
            });
            self.pod.at(now + duration, Ev::MaintenanceDone { device });
        }
    }

    /// Queues a duplicate of the merge `device` still runs under `epoch`
    /// for another device, if its request is live.
    fn hedge(&mut self, device: DeviceId, epoch: u64, now: SimTime) {
        let Some(&ticket) = self.pod.set.running(device, epoch) else {
            return;
        };
        let Some(id) = self.requests.get(ticket.req).map(|r| r.id) else {
            return;
        };
        self.report.hedges += 1;
        self.pod.instant("serving.hedge", "serving", || {
            [
                ("request", Json::UInt(id)),
                ("device", Json::UInt(device.into())),
            ]
        });
        let twin = Ticket {
            hedges: ticket.hedges + 1,
            ..ticket
        };
        self.queue.push_back((now, twin));
    }

    /// A completed job: health bookkeeping, then the request's progress
    /// (the last remote job queues the merge; the merge completes it).
    fn job_done(&mut self, device: DeviceId, ticket: Ticket, now: SimTime) {
        if self.policy == DispatchPolicy::Resilient {
            self.transition(device, |m| m.observe_success(now));
            if self.health_state(device) == HealthState::Draining {
                self.start_maintenance_hold(device, now);
            }
        }
        // A hedge twin or sibling of a dead request is wasted work.
        let Some(req) = self.requests.get_mut(ticket.req) else {
            return;
        };
        if !ticket.is_merge {
            req.remotes_left -= 1;
            if req.remotes_left == 0 {
                if now >= self.warmup {
                    self.report.remote_latency.record(now - req.arrived);
                }
                self.queue
                    .push_back((now, Ticket::new(ticket.req, true, 0)));
            }
            return;
        }
        let (id, arrived) = (req.id, req.arrived);
        self.requests.remove(ticket.req);
        let latency = now - arrived;
        self.pod.complete(latency);
        if self.pod.tel.is_enabled() {
            self.pod.tel.complete_span(
                format!("req{id}"),
                "serving",
                arrived,
                now,
                vec![
                    ("latency_ps".into(), Json::UInt(latency.as_picos())),
                    ("merge_attempts".into(), Json::UInt(ticket.attempts.into())),
                ],
            );
            if let Some(d) = &self.config.degradation {
                if now >= self.warmup && latency > d.slo_p99 {
                    self.pod.tel.counter_add("serving.slo_violations", 1);
                }
            }
        }
        if now >= self.warmup {
            self.report.request_latency.record(latency);
            self.pod.tel.hist_record("serving.request_latency", latency);
        }
    }

    /// A fault the pool applied: fail or retry the job it killed, take
    /// the device out of resilient dispatch until it returns.
    fn fault(&mut self, device: DeviceId, impact: FaultImpact<Ticket>, now: SimTime) {
        let resilient = self.policy == DispatchPolicy::Resilient;
        match impact {
            FaultImpact::None => {}
            FaultImpact::JobKilled { job } => {
                self.observe_device_error(device, now);
                self.handle_job_failure(job, now);
            }
            FaultImpact::LinkLost { job, recovers_at } => {
                if resilient {
                    self.transition(device, |m| m.set_offline(now));
                }
                if let Some(ticket) = job {
                    if resilient {
                        self.handle_job_failure(ticket, now);
                    } else {
                        // The job hangs inside the dead card.
                        self.pod.set.start(device, None, now);
                        self.doomed[device as usize] = Some(ticket);
                    }
                }
                self.pod.at(recovers_at, Ev::LinkRestored { device });
            }
            // In-flight work survives a partition; only new dispatch is
            // blocked. Resilient dispatch sees it through `reachable`;
            // the naive baseline keeps dispatching (its link check still
            // passes).
            FaultImpact::Partitioned { heals_at } => {
                if resilient {
                    self.transition(device, |m| m.set_offline(now));
                    self.pod.at(heals_at, Ev::LinkRestored { device });
                }
            }
        }
    }

    /// Runs every event due by `horizon`.
    fn run(&mut self, horizon: SimTime) {
        let config = self.config;
        let windows = config.maintenance.iter().enumerate();
        self.pod.open(
            windows.map(|(window, w)| (w.start, Ev::MaintenanceStart { window })),
            "serving.resilient",
            "serving",
            [
                ("policy", Json::Str(self.policy.name().to_string())),
                ("devices", Json::UInt(config.workload.devices.into())),
                (
                    "remote_jobs_per_request",
                    Json::UInt(config.workload.remote_jobs_per_request.into()),
                ),
                ("seed", Json::UInt(config.seed)),
            ],
        );

        while let Some((now, step)) = self.pod.next(horizon) {
            match step {
                Step::Arrival => {
                    if let Some(id) = self.pod.admit() {
                        let remotes = config.workload.remote_jobs_per_request;
                        let req = self.requests.insert(RequestState {
                            id,
                            arrived: now,
                            remotes_left: remotes,
                        });
                        for index in 0..remotes {
                            self.queue.push_back((now, Ticket::new(req, false, index)));
                        }
                    }
                    self.pod.next_arrival();
                }
                Step::Done { device, job } => self.job_done(device, job, now),
                Step::Fault { fault, impact } => self.fault(fault.device, impact, now),
                Step::Engine(Ev::JobReady { ticket }) => {
                    if self.requests.get(ticket.req).is_some() {
                        self.queue.push_back((now, ticket));
                    }
                }
                Step::Engine(Ev::HedgeCheck { device, epoch }) => self.hedge(device, epoch, now),
                Step::Engine(Ev::LinkRestored { device }) => {
                    self.pod.set.tick(now);
                    self.pod.set.get_mut(device).faults.expire(now);
                    if let Some(ticket) = self.doomed[device as usize].take() {
                        // The host reset frees the hung card.
                        self.pod.set.kill_job(device, now);
                        self.report.job_failures += 1;
                        self.fail_request(ticket.req);
                    }
                    if self.policy == DispatchPolicy::Resilient {
                        self.transition(device, |m| m.begin_recovery(now));
                    }
                }
                Step::Engine(Ev::Reenable { device }) => {
                    if self.pod.set.get(device).faults.link_up(now) {
                        self.pod.set.tick(now);
                        self.transition(device, |m| m.begin_recovery(now));
                    }
                }
                Step::Engine(Ev::MaintenanceStart { window }) => {
                    let w = config.maintenance[window];
                    self.pending_maintenance[w.device as usize] = Some(w.duration);
                    match self.policy {
                        DispatchPolicy::Resilient => {
                            if self.pod.set.get(w.device).is_busy() {
                                // Drain: stop new work, wait for in-flight.
                                self.transition(w.device, |m| m.begin_drain(now));
                            } else {
                                self.start_maintenance_hold(w.device, now);
                            }
                        }
                        DispatchPolicy::Naive => {
                            // No drain tooling: the update yanks the device,
                            // killing whatever runs on it, a hung job too.
                            let running = self.pod.set.kill_job(w.device, now);
                            let hung = self.doomed[w.device as usize].take();
                            for ticket in running.into_iter().chain(hung) {
                                self.report.job_failures += 1;
                                self.fail_request(ticket.req);
                            }
                            self.start_maintenance_hold(w.device, now);
                        }
                    }
                }
                Step::Engine(Ev::MaintenanceDone { device }) => {
                    self.pod.set.tick(now);
                    self.transition(device, |m| m.begin_recovery(now));
                }
            }
            self.dispatch(now);
        }
    }

    /// Closes the run at the last event before `horizon` and derives the
    /// report's end-of-run figures.
    fn finish(mut self, horizon: SimTime) -> ResilienceReport {
        let (end, availability) = self.pod.close();
        // Requests still in flight at the end: the ones that had their full
        // deadline budget before the horizon are genuinely stuck (e.g. lost
        // inside a hung device); younger ones are horizon truncation, not a
        // policy failure, and leave the offered pool.
        let cutoff = horizon.saturating_sub(self.config.retry.deadline);
        let live = self.requests.len() as u64;
        let r = &mut self.report;
        r.stuck = self.requests.iter().filter(|q| q.arrived <= cutoff).count() as u64;
        r.offered = self.pod.offered - (live - r.stuck);
        r.shed = self.pod.shed;
        r.completed = self.pod.completed;
        let measured = end.saturating_sub(self.warmup);
        if measured > SimTime::ZERO {
            r.throughput_per_s = r.request_latency.count() as f64 / measured.as_secs_f64();
        }
        let span = end.max(SimTime::from_picos(1));
        let capacity = self.config.workload.devices as f64 * span.as_secs_f64();
        r.utilization = (self.busy.as_secs_f64() / capacity).min(1.0);
        r.availability = availability;
        self.pod.end(
            end,
            [
                ("serving.offered", r.offered),
                ("serving.completed", r.completed),
                ("serving.shed", r.shed),
                ("serving.dropped", r.dropped),
                ("serving.stuck", r.stuck),
                ("serving.retries", r.retries),
                ("serving.hedges", r.hedges),
                ("serving.job_failures", r.job_failures),
            ],
        );
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
/// Panics if [`ResilienceConfig::validate`] rejects the configuration.
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
    config.validate().expect("a valid resilience config");
    let mut engine = Engine::new(config, policy, plan, arrivals, warmup, tel);
    engine.run(horizon);
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

    /// The parameter a rejected resilience config names.
    fn rejected(config: &ResilienceConfig) -> &'static str {
        match config.validate() {
            Err(ConfigError::OutOfRange { what, .. }) => what,
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn a_malformed_workload_is_rejected() {
        assert_eq!(config(1).validate(), Ok(()));
        let mut cfg = config(1);
        cfg.workload.devices = 0;
        assert_eq!(rejected(&cfg), "remote/merge devices");
    }

    #[test]
    fn a_maintenance_window_outside_the_pool_is_rejected() {
        let mut cfg = config(1);
        let window = |device| MaintenanceWindow {
            device,
            start: SimTime::from_secs(1),
            duration: SimTime::from_secs(1),
        };
        cfg.maintenance = vec![window(3)];
        assert_eq!(cfg.validate(), Ok(()));
        cfg.maintenance.push(window(4));
        assert_eq!(rejected(&cfg), "maintenance window device");
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
        let mut engine = Engine::new(
            &cfg,
            DispatchPolicy::Naive,
            &plan,
            &mut arrivals,
            SimTime::ZERO,
            &mut tel,
        );
        engine.run(horizon);
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
