//! The cell-failover event loop.
//!
//! A cell of `shards` shards, each with `replicas_per_shard` replicas
//! placed on physical devices by a [`PlacementPolicy`], serves requests
//! while a [`FaultPlan`] injects (possibly correlated) faults. Each
//! shard serves through a single *primary* replica; the others are hot
//! standbys. The failover machinery — gated by
//! [`FailoverConfig::failover`] so the naive baseline can run without
//! it on byte-identical traces — consists of:
//!
//! * **Promotion**: when a primary's domain is lost, a surviving
//!   standby is elected after `promotion_delay` (leader election /
//!   routing update cost).
//! * **Warm restart**: shards checkpoint every `checkpoint_every`
//!   ([`CellCheckpoint`], deterministic fingerprints); a replica whose
//!   host returns restores in `restore_floor + age · catchup_rate`
//!   where `age` is the time since its shard's last checkpoint.
//!   Without checkpoints the replay runs from the epoch start — that
//!   difference *is* what checkpointing buys.
//! * **Re-replication**: a replica down longer than `rereplicate_after`
//!   is rebuilt onto a spare device (picked with host/rack
//!   anti-affinity against the shard's survivors) in
//!   `rereplicate_time`.
//! * **Admission**: the [`DegradationController`] sheds load when the
//!   rolling P99 eats the SLO headroom, exactly as in
//!   [`crate::resilience`].
//!
//! Requests that wait in a shard queue longer than `request_deadline`
//! without a serving replica are *lost forever* — the metric the chaos
//! smoke asserts is zero with failover enabled. Everything is a pure
//! function of `(config, placement, domains, plan, arrivals)`.

use std::collections::VecDeque;

use mtia_core::des::Kernel;
use mtia_core::error::ConfigError;
use mtia_core::telemetry::{Json, LatencyHistogram, Telemetry};
use mtia_core::SimTime;
use mtia_sim::faults::{DeviceId, FaultPlan};

use crate::resilience::controller::{DegradationConfig, DegradationController};
use crate::resilience::device::{DeviceSet, FaultImpact};
use crate::resilience::health::HealthConfig;
use crate::traffic::ArrivalProcess;

use super::checkpoint::{fold_fingerprint, CellCheckpoint, ReplicaSnapshot};
use super::placement::{pick_spare, place_replicas, PlacementPolicy};
use super::report::{FailoverComparison, FailoverReport};
use super::FaultDomains;

/// Full configuration of a cell-failover run.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Shard count.
    pub shards: u32,
    /// Replicas per shard (1 primary + standbys).
    pub replicas_per_shard: u32,
    /// Service time per request on the primary.
    pub service_time: SimTime,
    /// Host-side dispatch overhead per request.
    pub dispatch_overhead: SimTime,
    /// Health-machine thresholds for every device.
    pub health: HealthConfig,
    /// Optional SLO-aware load shedding (active only with failover).
    pub degradation: Option<DegradationConfig>,
    /// Master switch: promotion, checkpointing, warm restore from
    /// checkpoint, and re-replication. Off = the naive baseline.
    pub failover: bool,
    /// Leader-election / routing-update delay before a standby serves.
    pub promotion_delay: SimTime,
    /// Checkpoint cadence (failover only).
    pub checkpoint_every: SimTime,
    /// Fixed floor of any replica restore (process restart, attach).
    pub restore_floor: SimTime,
    /// Seconds of replay per second of checkpoint age.
    pub catchup_rate: f64,
    /// How long a replica may stay down before rebuilding it elsewhere.
    pub rereplicate_after: SimTime,
    /// Time to copy a shard onto a spare device.
    pub rereplicate_time: SimTime,
    /// Queued requests older than this with no serving replica are lost.
    pub request_deadline: SimTime,
    /// Trailing window for the PE-utilization estimate (arms §5.5 PCIe
    /// events if the plan contains them).
    pub pcie_util_window: SimTime,
    /// The run's base seed (see `mtia_core::seed`).
    pub seed: u64,
}

impl FailoverConfig {
    /// Production-flavored knobs around a cell shape and seed.
    pub fn production(shards: u32, replicas_per_shard: u32, seed: u64) -> Self {
        FailoverConfig {
            shards,
            replicas_per_shard,
            service_time: SimTime::from_millis(8),
            dispatch_overhead: SimTime::from_millis(1),
            health: HealthConfig::default(),
            degradation: Some(DegradationConfig::production()),
            failover: true,
            promotion_delay: SimTime::from_millis(50),
            checkpoint_every: SimTime::from_secs(5),
            restore_floor: SimTime::from_millis(500),
            catchup_rate: 0.2,
            rereplicate_after: SimTime::from_secs(10),
            rereplicate_time: SimTime::from_secs(3),
            request_deadline: SimTime::from_secs(2),
            pcie_util_window: SimTime::from_secs(1),
            seed,
        }
    }

    /// The same cell with the failover machinery disabled (the naive
    /// arm of a comparison: fixed primaries, no checkpoints, replay
    /// from epoch start on restore, no re-replication, no shedding).
    pub fn without_failover(mut self) -> Self {
        self.failover = false;
        self
    }

    /// Checks the cell shape every failover run needs.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] on zero `shards` or zero
    /// `replicas_per_shard`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::OutOfRange {
                what: "failover shards",
                valid: "at least one shard",
            });
        }
        if self.replicas_per_shard == 0 {
            return Err(ConfigError::OutOfRange {
                what: "replicas per shard",
                valid: "at least one replica",
            });
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival,
    JobDone {
        device: DeviceId,
        epoch: u64,
    },
    Promote {
        shard: u32,
    },
    Checkpoint,
    HostRestored {
        device: DeviceId,
    },
    PartitionHealed {
        device: DeviceId,
    },
    RestoreDone {
        shard: u32,
        replica: u32,
        token: u64,
    },
    Rereplicate {
        shard: u32,
        replica: u32,
        since: SimTime,
    },
    FaultAt {
        index: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplicaState {
    Live,
    Down { since: SimTime },
    Restoring { token: u64, ready_at: SimTime },
}

#[derive(Debug, Clone, Copy)]
struct Replica {
    device: DeviceId,
    state: ReplicaState,
}

#[derive(Debug, Clone, Copy)]
struct QueuedRequest {
    id: u64,
    arrived: SimTime,
    incident: bool,
}

#[derive(Debug)]
struct Shard {
    replicas: Vec<Replica>,
    /// Index into `replicas` of the serving primary; `None` while the
    /// shard cannot serve.
    primary: Option<usize>,
    queue: VecDeque<QueuedRequest>,
    /// When the shard last became serving-incapable (open outage).
    down_since: Option<SimTime>,
    last_checkpoint: SimTime,
    promote_pending: bool,
}

#[derive(Debug, Clone, Copy)]
struct InflightJob {
    shard: u32,
    request: u64,
    arrived: SimTime,
    incident: bool,
}

struct Engine<'a> {
    config: &'a FailoverConfig,
    set: DeviceSet,
    shards: Vec<Shard>,
    /// Device → (shard, replica slot) for devices hosting a replica.
    device_replica: Vec<Option<(u32, u32)>>,
    /// Per device, the job it is serving and the device epoch it
    /// started under. A device serves one job at a time.
    inflight: Vec<Option<(u64, InflightJob)>>,
    des: Kernel<Ev>,
    next_token: u64,
    controller: Option<DegradationController>,
    report: FailoverReport,
    warmup: SimTime,
    tel: &'a mut Telemetry,
}

impl<'a> Engine<'a> {
    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    fn serving_capable(&self, s: u32) -> bool {
        let shard = &self.shards[s as usize];
        shard
            .primary
            .is_some_and(|p| shard.replicas[p].state == ReplicaState::Live)
    }

    fn live_count(&self, s: u32) -> u32 {
        self.shards[s as usize]
            .replicas
            .iter()
            .filter(|r| r.state == ReplicaState::Live)
            .count() as u32
    }

    /// Opens/closes the shard's outage window after any replica or
    /// primary change.
    fn update_outage(&mut self, s: u32, now: SimTime) {
        let capable = self.serving_capable(s);
        let shard = &mut self.shards[s as usize];
        match (capable, shard.down_since) {
            (true, Some(since)) => {
                let outage = now.saturating_sub(since);
                self.report.unavailable += outage;
                self.report.recovery_time = self.report.recovery_time.max(outage);
                shard.down_since = None;
            }
            (false, None) => shard.down_since = Some(now),
            _ => {}
        }
    }

    /// Arranges for a primary when the shard has none: failover elects
    /// a surviving standby after `promotion_delay`; the baseline only
    /// ever resumes the fixed slot-0 primary.
    fn maybe_elect(&mut self, s: u32, now: SimTime) {
        if self.shards[s as usize].primary.is_some() {
            return;
        }
        if self.config.failover {
            if !self.shards[s as usize].promote_pending && self.live_count(s) > 0 {
                self.shards[s as usize].promote_pending = true;
                self.des
                    .schedule(now + self.config.promotion_delay, Ev::Promote { shard: s });
            }
        } else if self.shards[s as usize].replicas[0].state == ReplicaState::Live {
            self.shards[s as usize].primary = Some(0);
            self.update_outage(s, now);
            self.dispatch_shard(s, now);
        }
    }

    /// Kills the in-flight job on `device` under `epoch` (if any):
    /// requeued at the front of its shard queue with failover, lost
    /// without.
    fn kill_inflight(&mut self, device: DeviceId, epoch: u64) {
        if epoch == u64::MAX {
            return;
        }
        let Some(job) = self.take_inflight(device, epoch) else {
            return;
        };
        if self.config.failover {
            self.report.requeued += 1;
            self.shards[job.shard as usize]
                .queue
                .push_front(QueuedRequest {
                    id: job.request,
                    arrived: job.arrived,
                    incident: true,
                });
        } else {
            self.report.lost += 1;
        }
    }

    /// Removes and returns the job `device` runs under `epoch`, if any.
    fn take_inflight(&mut self, device: DeviceId, epoch: u64) -> Option<InflightJob> {
        self.inflight[device as usize]
            .take_if(|(e, _)| *e == epoch)
            .map(|(_, job)| job)
    }

    /// Marks the replica on `device` (if any) down and re-arms
    /// election/re-replication.
    fn replica_lost(&mut self, device: DeviceId, now: SimTime) {
        let Some((s, r)) = self.device_replica[device as usize] else {
            return;
        };
        let shard = &mut self.shards[s as usize];
        if matches!(shard.replicas[r as usize].state, ReplicaState::Down { .. }) {
            return;
        }
        shard.replicas[r as usize].state = ReplicaState::Down { since: now };
        if shard.primary == Some(r as usize) {
            shard.primary = None;
        }
        self.update_outage(s, now);
        self.maybe_elect(s, now);
        if self.config.failover {
            self.des.schedule(
                now + self.config.rereplicate_after,
                Ev::Rereplicate {
                    shard: s,
                    replica: r,
                    since: now,
                },
            );
        }
    }

    fn device_free(&self, device: DeviceId, now: SimTime) -> bool {
        let d = self.set.get(device);
        !d.is_busy() && d.health.is_dispatchable() && d.faults.reachable(now)
    }

    /// Serves the shard queue through its primary while possible,
    /// dropping requests whose deadline expired unserved.
    fn dispatch_shard(&mut self, s: u32, now: SimTime) {
        loop {
            let Some(p) = self.shards[s as usize].primary else {
                return;
            };
            let replica = self.shards[s as usize].replicas[p];
            if replica.state != ReplicaState::Live || !self.device_free(replica.device, now) {
                return;
            }
            let Some(req) = self.shards[s as usize].queue.pop_front() else {
                return;
            };
            if now.saturating_sub(req.arrived) > self.config.request_deadline {
                self.report.lost += 1;
                continue;
            }
            self.set.tick(now);
            self.set.get_mut(replica.device).seize(now);
            let epoch = self.set.get(replica.device).epoch();
            let factor = self.set.get(replica.device).faults.service_time_factor(now);
            let occupancy = self.config.service_time.scale(factor) + self.config.dispatch_overhead;
            debug_assert!(self.inflight[replica.device as usize].is_none());
            self.inflight[replica.device as usize] = Some((
                epoch,
                InflightJob {
                    shard: s,
                    request: req.id,
                    arrived: req.arrived,
                    incident: req.incident,
                },
            ));
            self.des.schedule(
                now + occupancy,
                Ev::JobDone {
                    device: replica.device,
                    epoch,
                },
            );
        }
    }

    /// Takes one deterministic checkpoint of every shard.
    fn checkpoint_all(&mut self, now: SimTime) {
        for s in 0..self.config.shards {
            let shard = &self.shards[s as usize];
            // A partitioned primary keeps its job while a promoted
            // standby starts another, so a shard can have two; record the
            // lowest-indexed device's.
            let inflight = self
                .inflight
                .iter()
                .enumerate()
                .find_map(|(device, slot)| match slot {
                    Some((epoch, job)) if job.shard == s => Some((device as DeviceId, *epoch)),
                    _ => None,
                });
            let checkpoint = CellCheckpoint {
                at: now,
                shard: s,
                queued: shard.queue.iter().map(|q| (q.id, q.arrived)).collect(),
                inflight,
                replicas: shard
                    .replicas
                    .iter()
                    .map(|r| match r.state {
                        ReplicaState::Live => ReplicaSnapshot::Live { device: r.device },
                        ReplicaState::Down { since } => ReplicaSnapshot::Down {
                            device: r.device,
                            since,
                        },
                        ReplicaState::Restoring { ready_at, .. } => ReplicaSnapshot::Restoring {
                            device: r.device,
                            ready_at,
                        },
                    })
                    .collect(),
                health: shard
                    .replicas
                    .iter()
                    .map(|r| self.set.get(r.device).health.state())
                    .collect(),
                primary: shard.primary.map(|p| p as u32),
            };
            self.report.checkpoint_fingerprint =
                fold_fingerprint(self.report.checkpoint_fingerprint, checkpoint.fingerprint());
            self.report.checkpoints += 1;
            self.shards[s as usize].last_checkpoint = now;
        }
    }

    fn instant(&mut self, name: &'static str, now: SimTime, attrs: Vec<(String, Json)>) {
        if self.tel.is_enabled() {
            self.tel.instant(name, "failover", now, attrs);
        }
    }

    fn run(
        mut self,
        domains: &dyn FaultDomains,
        arrivals: &mut dyn ArrivalProcess,
        plan: &FaultPlan,
        horizon: SimTime,
    ) -> FailoverReport {
        for (index, fault) in plan.events().iter().enumerate() {
            self.des.schedule(fault.at, Ev::FaultAt { index });
        }
        if self.config.failover {
            self.des
                .schedule(self.config.checkpoint_every, Ev::Checkpoint);
        }
        if let Some(first) = arrivals.next_arrival(SimTime::ZERO) {
            self.des.schedule(first, Ev::Arrival);
        }

        self.tel
            .begin_span("serving.failover", "failover", SimTime::ZERO);
        self.tel
            .span_attr("placement", Json::Str(self.report.placement.to_string()));
        self.tel
            .span_attr("failover", Json::Bool(self.config.failover));
        self.tel
            .span_attr("shards", Json::UInt(self.config.shards as u64));
        self.tel.span_attr(
            "replicas_per_shard",
            Json::UInt(self.config.replicas_per_shard as u64),
        );
        self.tel
            .span_attr("devices", Json::UInt(domains.devices() as u64));
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
                        let s = (request % self.config.shards as u64) as u32;
                        let incident = self.live_count(s) < self.config.replicas_per_shard;
                        self.shards[s as usize].queue.push_back(QueuedRequest {
                            id: request,
                            arrived: now,
                            incident,
                        });
                        self.dispatch_shard(s, now);
                    } else {
                        self.report.shed += 1;
                    }
                    if let Some(next) = arrivals.next_arrival(now) {
                        self.des.schedule(next, Ev::Arrival);
                    }
                }
                Ev::JobDone { device, epoch } => {
                    if !self.set.finish_job(device, epoch, now) {
                        continue; // stale: killed by a fault
                    }
                    let job = self.take_inflight(device, epoch).expect("inflight job");
                    self.set.get_mut(device).health.observe_success(now);
                    self.report.completed += 1;
                    let latency = now - job.arrived;
                    if now >= self.warmup {
                        self.report.request_latency.record(latency);
                        self.tel.hist_record("failover.request_latency", latency);
                        if job.incident {
                            self.report.incident_latency.record(latency);
                            self.tel.hist_record("failover.incident_latency", latency);
                        }
                    }
                    if let Some(c) = &mut self.controller {
                        c.observe(latency);
                    }
                    self.dispatch_shard(job.shard, now);
                }
                Ev::Promote { shard } => {
                    self.shards[shard as usize].promote_pending = false;
                    if self.shards[shard as usize].primary.is_some() {
                        continue;
                    }
                    let candidate = self.shards[shard as usize]
                        .replicas
                        .iter()
                        .position(|r| r.state == ReplicaState::Live);
                    let Some(p) = candidate else {
                        continue; // everyone died during the election
                    };
                    self.shards[shard as usize].primary = Some(p);
                    self.report.promotions += 1;
                    let device = self.shards[shard as usize].replicas[p].device;
                    self.instant(
                        "failover.promotion",
                        now,
                        vec![
                            ("shard".into(), Json::UInt(shard as u64)),
                            ("device".into(), Json::UInt(device as u64)),
                        ],
                    );
                    self.update_outage(shard, now);
                    self.dispatch_shard(shard, now);
                }
                Ev::Checkpoint => {
                    self.checkpoint_all(now);
                    self.des
                        .schedule(now + self.config.checkpoint_every, Ev::Checkpoint);
                }
                Ev::HostRestored { device } => {
                    self.set.tick(now);
                    self.set.get_mut(device).faults.expire(now);
                    self.set.get_mut(device).health.begin_recovery(now);
                    let Some((s, r)) = self.device_replica[device as usize] else {
                        continue; // re-replicated away: the device is a spare now
                    };
                    if !matches!(
                        self.shards[s as usize].replicas[r as usize].state,
                        ReplicaState::Down { .. }
                    ) {
                        continue;
                    }
                    // Warm restart from the shard's last checkpoint; the
                    // baseline never checkpointed, so it replays the epoch.
                    let age = now.saturating_sub(self.shards[s as usize].last_checkpoint);
                    let cost = self.config.restore_floor + age.scale(self.config.catchup_rate);
                    let token = self.token();
                    self.shards[s as usize].replicas[r as usize].state = ReplicaState::Restoring {
                        token,
                        ready_at: now + cost,
                    };
                    self.report.restores += 1;
                    self.des.schedule(
                        now + cost,
                        Ev::RestoreDone {
                            shard: s,
                            replica: r,
                            token,
                        },
                    );
                }
                Ev::PartitionHealed { device } => {
                    self.set.tick(now);
                    self.set.get_mut(device).faults.expire(now);
                    if !self.set.get(device).faults.reachable(now) {
                        continue; // also crashed: HostRestored path owns it
                    }
                    let Some((s, r)) = self.device_replica[device as usize] else {
                        continue;
                    };
                    if !matches!(
                        self.shards[s as usize].replicas[r as usize].state,
                        ReplicaState::Down { .. }
                    ) {
                        continue;
                    }
                    // Partition healed: state was never lost, no restore.
                    self.shards[s as usize].replicas[r as usize].state = ReplicaState::Live;
                    self.maybe_elect(s, now);
                    self.update_outage(s, now);
                    self.dispatch_shard(s, now);
                }
                Ev::RestoreDone {
                    shard,
                    replica,
                    token,
                } => {
                    let state = self.shards[shard as usize].replicas[replica as usize].state;
                    if !matches!(state, ReplicaState::Restoring { token: t, .. } if t == token) {
                        continue; // superseded (e.g. crashed again mid-restore)
                    }
                    self.shards[shard as usize].replicas[replica as usize].state =
                        ReplicaState::Live;
                    let device = self.shards[shard as usize].replicas[replica as usize].device;
                    self.instant(
                        "failover.restore",
                        now,
                        vec![
                            ("shard".into(), Json::UInt(shard as u64)),
                            ("device".into(), Json::UInt(device as u64)),
                        ],
                    );
                    self.maybe_elect(shard, now);
                    self.update_outage(shard, now);
                    self.dispatch_shard(shard, now);
                }
                Ev::Rereplicate {
                    shard,
                    replica,
                    since,
                } => {
                    let r = self.shards[shard as usize].replicas[replica as usize];
                    if r.state != (ReplicaState::Down { since }) {
                        continue; // restored or already rebuilt meanwhile
                    }
                    let occupied: Vec<bool> = (0..self.device_replica.len())
                        .map(|d| self.device_replica[d].is_some())
                        .collect();
                    let excluded: Vec<bool> = (0..self.device_replica.len())
                        .map(|d| !self.set.get(d as DeviceId).faults.reachable(now))
                        .collect();
                    let survivors: Vec<DeviceId> = self.shards[shard as usize]
                        .replicas
                        .iter()
                        .filter(|x| x.state == ReplicaState::Live)
                        .map(|x| x.device)
                        .collect();
                    let Some(spare) = pick_spare(domains, &occupied, &excluded, &survivors) else {
                        continue; // no spare capacity left
                    };
                    self.report.rereplications += 1;
                    self.instant(
                        "failover.rereplicate",
                        now,
                        vec![
                            ("shard".into(), Json::UInt(shard as u64)),
                            ("from".into(), Json::UInt(r.device as u64)),
                            ("to".into(), Json::UInt(spare as u64)),
                        ],
                    );
                    self.device_replica[r.device as usize] = None;
                    self.device_replica[spare as usize] = Some((shard, replica));
                    let token = self.token();
                    let ready_at = now + self.config.rereplicate_time;
                    self.shards[shard as usize].replicas[replica as usize] = Replica {
                        device: spare,
                        state: ReplicaState::Restoring { token, ready_at },
                    };
                    self.des.schedule(
                        ready_at,
                        Ev::RestoreDone {
                            shard,
                            replica,
                            token,
                        },
                    );
                }
                Ev::FaultAt { index } => {
                    let fault = plan.events()[index];
                    if self.tel.is_enabled() {
                        self.tel.instant(
                            "failover.fault",
                            "failover",
                            now,
                            vec![
                                ("device".into(), Json::UInt(fault.device as u64)),
                                ("kind".into(), Json::Str(format!("{:?}", fault.kind))),
                            ],
                        );
                        self.tel.counter_add("failover.faults", 1);
                    }
                    match self.set.apply_fault(&fault, now) {
                        FaultImpact::None => {}
                        FaultImpact::JobKilled { epoch } => {
                            self.set.get_mut(fault.device).health.observe_error(now);
                            self.kill_inflight(fault.device, epoch);
                            if let Some((s, _)) = self.device_replica[fault.device as usize] {
                                self.dispatch_shard(s, now);
                            }
                        }
                        FaultImpact::LinkLost { epoch, recovers_at } => {
                            self.set.get_mut(fault.device).health.set_offline(now);
                            self.kill_inflight(fault.device, epoch);
                            self.replica_lost(fault.device, now);
                            self.des.schedule(
                                recovers_at,
                                Ev::HostRestored {
                                    device: fault.device,
                                },
                            );
                        }
                        FaultImpact::Partitioned { heals_at } => {
                            // In-flight work survives; only the replica's
                            // serving capability is lost until the heal.
                            self.replica_lost(fault.device, now);
                            self.des.schedule(
                                heals_at,
                                Ev::PartitionHealed {
                                    device: fault.device,
                                },
                            );
                        }
                    }
                }
            }
        }

        mtia_core::perfcount::add_events(self.des.popped());
        let end = self.des.now();
        // Close open outage windows at the horizon.
        for s in 0..self.config.shards {
            if let Some(since) = self.shards[s as usize].down_since.take() {
                let outage = end.saturating_sub(since);
                self.report.unavailable += outage;
                self.report.recovery_time = self.report.recovery_time.max(outage);
            }
        }
        // Queued requests that had their full deadline are lost forever;
        // younger ones (and in-flight jobs) are horizon truncation, not a
        // policy failure, and leave the offered pool.
        let cutoff = horizon.saturating_sub(self.config.request_deadline);
        for shard in &self.shards {
            for req in &shard.queue {
                if req.arrived <= cutoff {
                    self.report.lost += 1;
                } else {
                    self.report.offered -= 1;
                }
            }
        }
        self.report.offered -= self.inflight.iter().flatten().count() as u64;
        self.set.tick(end);
        self.report.device_availability = self.set.availability(end.max(SimTime::from_picos(1)));
        self.tel.end_span(end);
        if self.tel.is_enabled() {
            for (name, value) in [
                ("failover.offered", self.report.offered),
                ("failover.completed", self.report.completed),
                ("failover.shed", self.report.shed),
                ("failover.lost", self.report.lost),
                ("failover.requeued", self.report.requeued),
                ("failover.promotions", self.report.promotions),
                ("failover.restores", self.report.restores),
                ("failover.rereplications", self.report.rereplications),
                ("failover.checkpoints", self.report.checkpoints),
            ] {
                self.tel.counter_add(name, value);
            }
        }
        self.report
    }
}

/// Runs one cell-failover simulation (untraced).
pub fn simulate_cell_failover(
    config: &FailoverConfig,
    placement: PlacementPolicy,
    domains: &dyn FaultDomains,
    arrivals: &mut dyn ArrivalProcess,
    plan: &FaultPlan,
    horizon: SimTime,
    warmup: SimTime,
) -> FailoverReport {
    simulate_cell_failover_traced(
        config,
        placement,
        domains,
        arrivals,
        plan,
        horizon,
        warmup,
        &mut Telemetry::disabled(),
    )
}

/// [`simulate_cell_failover`] with observability: a `serving.failover`
/// root span, `failover.fault` / `failover.promotion` /
/// `failover.restore` / `failover.rereplicate` instants, latency
/// histograms, and outcome counters. The returned report is
/// byte-identical to the untraced run.
#[allow(clippy::too_many_arguments)]
pub fn simulate_cell_failover_traced(
    config: &FailoverConfig,
    placement: PlacementPolicy,
    domains: &dyn FaultDomains,
    arrivals: &mut dyn ArrivalProcess,
    plan: &FaultPlan,
    horizon: SimTime,
    warmup: SimTime,
    tel: &mut Telemetry,
) -> FailoverReport {
    config.validate().expect("a valid failover config");
    let assignment = place_replicas(placement, domains, config.shards, config.replicas_per_shard);
    let mut device_replica: Vec<Option<(u32, u32)>> = vec![None; domains.devices() as usize];
    let shards: Vec<Shard> = assignment
        .iter()
        .enumerate()
        .map(|(s, devices)| {
            for (r, &d) in devices.iter().enumerate() {
                // Naive placement may double-book a device; the *first*
                // shard keeps it (matching what a topology-blind
                // scheduler would observe) — later mappings silently
                // share the device's fate without owning it.
                if device_replica[d as usize].is_none() {
                    device_replica[d as usize] = Some((s as u32, r as u32));
                }
            }
            Shard {
                replicas: devices
                    .iter()
                    .map(|&d| Replica {
                        device: d,
                        state: ReplicaState::Live,
                    })
                    .collect(),
                primary: Some(0),
                queue: VecDeque::new(),
                down_since: None,
                last_checkpoint: SimTime::ZERO,
                promote_pending: false,
            }
        })
        .collect();
    let engine = Engine {
        config,
        set: DeviceSet::new(domains.devices(), config.health, config.pcie_util_window),
        shards,
        device_replica,
        inflight: vec![None; domains.devices() as usize],
        des: Kernel::new(),
        next_token: 0,
        controller: if config.failover {
            config.degradation.map(DegradationController::new)
        } else {
            None
        },
        report: FailoverReport {
            placement: placement.name(),
            failover_enabled: config.failover,
            seed: config.seed,
            fault_fingerprint: plan.fingerprint(),
            offered: 0,
            completed: 0,
            shed: 0,
            lost: 0,
            requeued: 0,
            promotions: 0,
            restores: 0,
            rereplications: 0,
            checkpoints: 0,
            checkpoint_fingerprint: 0,
            unavailable: SimTime::ZERO,
            recovery_time: SimTime::ZERO,
            request_latency: LatencyHistogram::new(),
            incident_latency: LatencyHistogram::new(),
            device_availability: 1.0,
        },
        warmup,
        tel,
    };
    engine.run(domains, arrivals, plan, horizon)
}

/// Runs the canonical comparison on byte-identical traces: naive
/// placement with failover off vs domain-aware placement with failover
/// on, identical Poisson arrivals and fault plan (all derived from
/// `config.seed`).
pub fn compare_failover(
    config: &FailoverConfig,
    domains: &dyn FaultDomains,
    plan: &FaultPlan,
    rate: f64,
    horizon: SimTime,
    warmup: SimTime,
) -> FailoverComparison {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let run = |cfg: &FailoverConfig, placement| {
        let mut arrivals =
            crate::traffic::PoissonArrivals::new(rate, StdRng::seed_from_u64(config.seed));
        simulate_cell_failover(
            cfg,
            placement,
            domains,
            &mut arrivals,
            plan,
            horizon,
            warmup,
        )
    };
    FailoverComparison {
        naive: run(&config.clone().without_failover(), PlacementPolicy::Naive),
        domain_aware: run(config, PlacementPolicy::DomainAware),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failover::FaultDomains;
    use mtia_sim::faults::FaultKind;

    /// 4 devices per host, 2 hosts per rack, 2 racks: 16 devices.
    struct MiniTopo;
    impl FaultDomains for MiniTopo {
        fn devices(&self) -> u32 {
            16
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

    fn config(seed: u64) -> FailoverConfig {
        FailoverConfig::production(4, 2, seed)
    }

    /// The parameter a rejected failover config names.
    fn rejected(config: &FailoverConfig) -> &'static str {
        match config.validate() {
            Err(ConfigError::OutOfRange { what, .. }) => what,
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn a_cell_without_shards_is_rejected() {
        assert_eq!(config(1).validate(), Ok(()));
        assert_eq!(
            rejected(&FailoverConfig::production(0, 2, 1)),
            "failover shards"
        );
    }

    #[test]
    fn a_shard_without_replicas_is_rejected() {
        assert_eq!(
            rejected(&FailoverConfig::production(4, 0, 1)),
            "replicas per shard"
        );
    }

    /// Host 0 (devices 0–3) crashes at t=10s for 20s.
    fn host_crash_plan(seed: u64) -> FaultPlan {
        FaultPlan::empty(seed).with_correlated_event(
            0..4,
            SimTime::from_secs(10),
            FaultKind::HostCrash,
            SimTime::from_secs(20),
        )
    }

    #[test]
    fn clean_run_completes_everything() {
        let cfg = config(3);
        let cmp = compare_failover(
            &cfg,
            &MiniTopo,
            &FaultPlan::empty(3),
            50.0,
            SimTime::from_secs(20),
            SimTime::from_secs(1),
        );
        assert!(cmp.same_trace());
        assert_eq!(cmp.naive.goodput(), 1.0);
        assert_eq!(cmp.domain_aware.goodput(), 1.0);
        assert_eq!(cmp.naive.lost + cmp.domain_aware.lost, 0);
        assert_eq!(cmp.naive.unaccounted(), 0);
        assert_eq!(cmp.domain_aware.unaccounted(), 0);
        assert_eq!(cmp.naive.unavailable, SimTime::ZERO);
    }

    #[test]
    fn host_crash_sinks_naive_but_not_domain_aware() {
        let cfg = config(7);
        let cmp = compare_failover(
            &cfg,
            &MiniTopo,
            &host_crash_plan(7),
            50.0,
            SimTime::from_secs(60),
            SimTime::from_secs(2),
        );
        assert!(cmp.same_trace());
        // Naive packs both replicas of shards 0–1 onto host 0: those
        // shards are dark for the full outage and lose requests.
        assert!(
            cmp.naive.lost > 0,
            "naive must lose requests to the dead host"
        );
        assert!(
            cmp.naive.unavailable > SimTime::from_secs(10),
            "naive shard outage must span the crash, got {:?}",
            cmp.naive.unavailable
        );
        // Domain-aware keeps a live standby per shard: promotion covers
        // the outage and nothing is lost forever.
        assert_eq!(cmp.domain_aware.lost, 0, "failover must lose nothing");
        assert!(cmp.domain_aware.promotions > 0, "standbys must take over");
        assert!(
            cmp.domain_aware.goodput() >= 0.99,
            "goodput {}",
            cmp.domain_aware.goodput()
        );
        assert!(cmp.goodput_gain_pp() > 5.0);
        // Promotion is fast; recovery time is bounded by it, not the
        // 20 s host repair.
        assert!(
            cmp.domain_aware.recovery_time < SimTime::from_secs(1),
            "recovery {:?}",
            cmp.domain_aware.recovery_time
        );
        assert!(cmp.naive.recovery_time > SimTime::from_secs(10));
    }

    #[test]
    fn failover_run_is_reproducible_with_checkpoint_identity() {
        let cfg = config(11);
        let run = || {
            compare_failover(
                &cfg,
                &MiniTopo,
                &host_crash_plan(11),
                40.0,
                SimTime::from_secs(45),
                SimTime::from_secs(2),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.domain_aware.completed, b.domain_aware.completed);
        assert_eq!(a.domain_aware.promotions, b.domain_aware.promotions);
        assert_eq!(
            a.domain_aware.checkpoint_fingerprint, b.domain_aware.checkpoint_fingerprint,
            "checkpoints must capture identical state at identical instants"
        );
        assert!(a.domain_aware.checkpoints > 0);
        assert_eq!(
            a.domain_aware.request_latency.p99(),
            b.domain_aware.request_latency.p99()
        );
    }

    #[test]
    fn crashed_host_warm_restarts_from_checkpoint() {
        let mut cfg = config(13);
        // Let the host return before re-replication would rebuild the
        // replicas elsewhere, so the warm-restart path runs.
        cfg.rereplicate_after = SimTime::from_secs(30);
        // Crash host 2 (devices 8–11): domain-aware places standbys there.
        let plan = FaultPlan::empty(13).with_correlated_event(
            8..12,
            SimTime::from_secs(10),
            FaultKind::HostCrash,
            SimTime::from_secs(15),
        );
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut arrivals = crate::traffic::PoissonArrivals::new(40.0, StdRng::seed_from_u64(13));
        let report = simulate_cell_failover(
            &cfg,
            PlacementPolicy::DomainAware,
            &MiniTopo,
            &mut arrivals,
            &plan,
            SimTime::from_secs(60),
            SimTime::from_secs(2),
        );
        assert!(report.restores > 0, "returned host must warm restart");
        assert!(report.checkpoints > 0);
        assert_eq!(report.lost, 0);
    }

    #[test]
    fn long_outage_rereplicates_onto_spares() {
        let mut cfg = config(17);
        cfg.rereplicate_after = SimTime::from_secs(3);
        // Host down far longer than the re-replication trigger.
        let plan = FaultPlan::empty(17).with_correlated_event(
            0..4,
            SimTime::from_secs(5),
            FaultKind::HostCrash,
            SimTime::from_secs(40),
        );
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut arrivals = crate::traffic::PoissonArrivals::new(30.0, StdRng::seed_from_u64(17));
        let report = simulate_cell_failover(
            &cfg,
            PlacementPolicy::DomainAware,
            &MiniTopo,
            &mut arrivals,
            &plan,
            SimTime::from_secs(50),
            SimTime::from_secs(1),
        );
        assert!(
            report.rereplications > 0,
            "dead replicas must rebuild onto spares"
        );
        assert_eq!(report.lost, 0);
    }

    #[test]
    fn partition_blocks_serving_without_destroying_state() {
        let cfg = config(19);
        let plan = FaultPlan::empty(19).with_correlated_event(
            0..4,
            SimTime::from_secs(10),
            FaultKind::NicPartition,
            SimTime::from_secs(5),
        );
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut arrivals = crate::traffic::PoissonArrivals::new(40.0, StdRng::seed_from_u64(19));
        let report = simulate_cell_failover(
            &cfg,
            PlacementPolicy::DomainAware,
            &MiniTopo,
            &mut arrivals,
            &plan,
            SimTime::from_secs(30),
            SimTime::from_secs(1),
        );
        // Partitions heal without restore: replicas come straight back.
        assert_eq!(report.restores, 0, "no warm restarts for partitions");
        assert_eq!(report.lost, 0);
        assert!(report.promotions > 0, "partitioned primaries hand over");
    }

    /// A partitioned primary keeps serving its job while the promoted
    /// standby starts another, so a shard has two in-flight jobs for a
    /// while; checkpoints taken in that overlap must not depend on any
    /// hash order.
    #[test]
    fn partition_overlap_checkpoints_are_reproducible() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut cfg = config(29);
        cfg.service_time = SimTime::from_millis(1_000);
        cfg.checkpoint_every = SimTime::from_millis(100);
        assert!(cfg.service_time >= cfg.promotion_delay.scale(10.0));
        let primary = place_replicas(PlacementPolicy::DomainAware, &MiniTopo, cfg.shards, 2)[0][0];
        let host = MiniTopo.host_of(primary);
        let plan = FaultPlan::empty(29).with_correlated_event(
            host * 4..host * 4 + 4,
            SimTime::from_millis(1_500),
            FaultKind::NicPartition,
            SimTime::from_secs(5),
        );
        let fingerprints: Vec<u64> = (0..16)
            .map(|_| {
                let mut arrivals =
                    crate::traffic::PoissonArrivals::new(8.0, StdRng::seed_from_u64(29));
                let report = simulate_cell_failover(
                    &cfg,
                    PlacementPolicy::DomainAware,
                    &MiniTopo,
                    &mut arrivals,
                    &plan,
                    SimTime::from_secs(10),
                    SimTime::ZERO,
                );
                assert!(
                    report.promotions > 0,
                    "the partition must hand shard 0 over"
                );
                report.checkpoint_fingerprint
            })
            .collect();
        assert!(
            fingerprints.iter().all(|&f| f == fingerprints[0]),
            "checkpoint fingerprints differ between identical runs: {fingerprints:x?}"
        );
    }

    #[test]
    fn traced_run_is_byte_identical_to_untraced() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cfg = config(23);
        let plan = host_crash_plan(23);
        let run = |tel: &mut Telemetry| {
            let mut arrivals =
                crate::traffic::PoissonArrivals::new(40.0, StdRng::seed_from_u64(23));
            simulate_cell_failover_traced(
                &cfg,
                PlacementPolicy::DomainAware,
                &MiniTopo,
                &mut arrivals,
                &plan,
                SimTime::from_secs(45),
                SimTime::from_secs(2),
                tel,
            )
        };
        let untraced = run(&mut Telemetry::disabled());
        let mut tel = Telemetry::new_enabled();
        let traced = run(&mut tel);
        assert_eq!(untraced.completed, traced.completed);
        assert_eq!(untraced.promotions, traced.promotions);
        assert_eq!(
            untraced.checkpoint_fingerprint,
            traced.checkpoint_fingerprint
        );
        assert_eq!(untraced.request_latency.p99(), traced.request_latency.p99());
        assert_eq!(tel.metrics.counter("failover.completed"), traced.completed);
        assert!(tel
            .tracer
            .events()
            .iter()
            .any(|e| e.name == "failover.promotion"));
        assert!(tel
            .tracer
            .events()
            .iter()
            .any(|e| e.name == "failover.fault"));
    }
}
