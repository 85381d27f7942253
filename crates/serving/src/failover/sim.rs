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
//! * **Warm restart**: shards checkpoint every `checkpoint_every`, and
//!   the run's digest absorbs each checkpoint's shard state (queue,
//!   in-flight epoch, replica and health states); a replica whose
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

use mtia_core::error::ConfigError;
use mtia_core::fnv::Fnv1a;
use mtia_core::telemetry::{Json, Telemetry};
use mtia_core::SimTime;
use mtia_sim::faults::{DeviceId, FaultEvent, FaultPlan};

use crate::resilience::controller::{DegradationConfig, DegradationController};
use crate::resilience::device::{DeviceSet, FaultImpact};
use crate::resilience::health::{HealthConfig, HealthState};
use crate::resilience::pod::{Pod, Step};
use crate::traffic::ArrivalProcess;

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

/// The engine's own events; arrivals, completions and faults are the
/// chassis's ([`Pod`]).
#[derive(Debug, Clone, Copy)]
enum Ev {
    Promote { shard: u32 },
    Checkpoint,
    HostRestored { device: DeviceId },
    PartitionHealed { device: DeviceId },
    RestoreDone { slot: Slot, token: u64 },
    Rereplicate { slot: Slot, since: SimTime },
}

/// Where a replica lives in the cell: replica `replica` of shard `shard`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    shard: u32,
    replica: u32,
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

/// The job a device serves: one request of one shard.
#[derive(Debug, Clone, Copy)]
struct InflightJob {
    shard: u32,
    request: QueuedRequest,
}

struct Engine<'a> {
    config: &'a FailoverConfig,
    pod: Pod<'a, InflightJob, Ev>,
    shards: Vec<Shard>,
    /// The slot of the replica each device hosts, if any.
    device_replica: Vec<Option<Slot>>,
    next_token: u64,
    /// Running FNV-1a over every checkpoint's [`shard_digest`], in
    /// checkpoint order; the report's `checkpoint_fingerprint`.
    checkpoint_digest: Fnv1a,
    report: FailoverReport,
    warmup: SimTime,
}

/// The digest of one shard's §5.5 warm-restart checkpoint at `at`: the
/// scheduler-visible shard state (queued requests, the in-flight job's
/// `(device, epoch)`, replica states, their devices' health, the
/// primary) fed word by word through FNV-1a's xor-multiply step. Equal
/// state at the same instant hashes equal; any divergence in queue
/// contents, epochs, placement or health shows up here.
fn shard_digest(
    at: SimTime,
    s: u32,
    shard: &Shard,
    inflight: Option<(DeviceId, u64)>,
    health: impl Fn(DeviceId) -> HealthState,
) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        hash ^= word;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(at.as_picos());
    mix(s.into());
    mix(shard.queue.len() as u64);
    for q in &shard.queue {
        mix(q.id);
        mix(q.arrived.as_picos());
    }
    match inflight {
        Some((device, epoch)) => {
            mix(1);
            mix(device.into());
            mix(epoch);
        }
        None => mix(0),
    }
    for r in &shard.replicas {
        let (tag, since) = match r.state {
            ReplicaState::Live => (1, None),
            ReplicaState::Down { since } => (2, Some(since)),
            ReplicaState::Restoring { ready_at, .. } => (3, Some(ready_at)),
        };
        mix(tag);
        mix(r.device.into());
        if let Some(t) = since {
            mix(t.as_picos());
        }
    }
    for r in &shard.replicas {
        // Declaration order: Healthy 0, Degraded 1, Draining 2,
        // Offline 3, Recovering 4.
        mix(health(r.device) as u64);
    }
    mix(shard.primary.map_or(u64::MAX, |p| p as u64));
    hash
}

impl<'a> Engine<'a> {
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
                self.pod
                    .at(now + self.config.promotion_delay, Ev::Promote { shard: s });
            }
        } else if self.shards[s as usize].replicas[0].state == ReplicaState::Live {
            self.shards[s as usize].primary = Some(0);
            self.update_outage(s, now);
            self.dispatch_shard(s, now);
        }
    }

    fn replica(&mut self, slot: Slot) -> &mut Replica {
        &mut self.shards[slot.shard as usize].replicas[slot.replica as usize]
    }

    /// The slot of the replica `device` hosts, if that replica is down.
    fn down_replica(&mut self, device: DeviceId) -> Option<Slot> {
        let slot = self.device_replica[device as usize]?;
        matches!(self.replica(slot).state, ReplicaState::Down { .. }).then_some(slot)
    }

    /// Starts restoring the replica in `slot`, ready at `ready_at`.
    fn begin_restore(&mut self, slot: Slot, ready_at: SimTime) {
        self.next_token += 1;
        let token = self.next_token;
        self.replica(slot).state = ReplicaState::Restoring { token, ready_at };
        self.pod.at(ready_at, Ev::RestoreDone { slot, token });
    }

    /// The replica in `slot` serves again: elect a primary if its shard
    /// has none, close the shard's outage, and drain its queue.
    fn replica_live(&mut self, slot: Slot, now: SimTime) {
        self.replica(slot).state = ReplicaState::Live;
        self.maybe_elect(slot.shard, now);
        self.update_outage(slot.shard, now);
        self.dispatch_shard(slot.shard, now);
    }

    /// A job a fault killed: requeued at the front of its shard queue
    /// with failover, lost without.
    fn requeue(&mut self, job: InflightJob) {
        if self.config.failover {
            self.report.requeued += 1;
            self.shards[job.shard as usize]
                .queue
                .push_front(QueuedRequest {
                    incident: true,
                    ..job.request
                });
        } else {
            self.report.lost += 1;
        }
    }

    /// Marks the replica on `device` (if any) down and re-arms
    /// election/re-replication.
    fn replica_lost(&mut self, device: DeviceId, now: SimTime) {
        let Some(slot) = self.device_replica[device as usize] else {
            return;
        };
        let shard = &mut self.shards[slot.shard as usize];
        let replica = &mut shard.replicas[slot.replica as usize];
        if matches!(replica.state, ReplicaState::Down { .. }) {
            return;
        }
        replica.state = ReplicaState::Down { since: now };
        if shard.primary == Some(slot.replica as usize) {
            shard.primary = None;
        }
        self.update_outage(slot.shard, now);
        self.maybe_elect(slot.shard, now);
        if self.config.failover {
            let at = now + self.config.rereplicate_after;
            self.pod.at(at, Ev::Rereplicate { slot, since: now });
        }
    }

    /// Serves the shard queue through its primary while possible,
    /// dropping requests whose deadline expired unserved.
    fn dispatch_shard(&mut self, s: u32, now: SimTime) {
        loop {
            let Some(p) = self.shards[s as usize].primary else {
                return;
            };
            let replica = self.shards[s as usize].replicas[p];
            let device = self.pod.set.get(replica.device);
            if replica.state != ReplicaState::Live || !device.is_dispatchable(now) {
                return;
            }
            let factor = device.faults.service_time_factor(now);
            let Some(request) = self.shards[s as usize].queue.pop_front() else {
                return;
            };
            if now.saturating_sub(request.arrived) > self.config.request_deadline {
                self.report.lost += 1;
                continue;
            }
            let occupancy = self.config.service_time.scale(factor) + self.config.dispatch_overhead;
            let job = InflightJob { shard: s, request };
            self.pod.set.tick(now);
            self.pod.run_job(replica.device, job, occupancy);
        }
    }

    /// Takes one deterministic checkpoint of every shard and folds its
    /// digest into the run's.
    fn checkpoint_all(&mut self, now: SimTime) {
        for s in 0..self.config.shards {
            let set = &self.pod.set;
            // A partitioned primary keeps its job while a promoted
            // standby starts another, so a shard can have two; record the
            // lowest-indexed device's.
            let inflight = set
                .jobs()
                .find_map(|(device, epoch, job)| (job.shard == s).then_some((device, epoch)));
            let shard = &self.shards[s as usize];
            let digest = shard_digest(now, s, shard, inflight, |d| set.get(d).health.state());
            self.checkpoint_digest.word(digest);
            self.report.checkpoints += 1;
            self.shards[s as usize].last_checkpoint = now;
        }
    }

    /// Records a `failover.*` instant naming `shard` and its devices.
    fn instant(&mut self, name: &str, shard: u32, devices: &[(&'static str, u32)]) {
        self.pod.instant(name, "failover", || {
            let devices = devices.iter().map(|&(k, d)| (k, Json::UInt(d.into())));
            std::iter::once(("shard", Json::UInt(shard.into()))).chain(devices)
        });
    }

    /// A fault the pool applied: requeue or lose the job it killed, and
    /// take the device's replica out of service until it returns.
    fn fault(&mut self, fault: FaultEvent, impact: FaultImpact<InflightJob>, now: SimTime) {
        let device = fault.device;
        self.pod.instant("failover.fault", "failover", || {
            [
                ("device", Json::UInt(device.into())),
                ("kind", Json::Str(format!("{:?}", fault.kind))),
            ]
        });
        self.pod.tel.counter_add("failover.faults", 1);
        match impact {
            FaultImpact::None => {}
            FaultImpact::JobKilled { job } => {
                self.pod.set.get_mut(device).health.observe_error(now);
                self.requeue(job);
                if let Some(slot) = self.device_replica[device as usize] {
                    self.dispatch_shard(slot.shard, now);
                }
            }
            FaultImpact::LinkLost { job, recovers_at } => {
                self.pod.set.get_mut(device).health.set_offline(now);
                if let Some(job) = job {
                    self.requeue(job);
                }
                self.replica_lost(device, now);
                self.pod.at(recovers_at, Ev::HostRestored { device });
            }
            FaultImpact::Partitioned { heals_at } => {
                // In-flight work survives; only the replica's serving
                // capability is lost until the heal.
                self.replica_lost(device, now);
                self.pod.at(heals_at, Ev::PartitionHealed { device });
            }
        }
    }

    fn run(mut self, domains: &dyn FaultDomains, horizon: SimTime) -> FailoverReport {
        let config = self.config;
        self.pod.open(
            config
                .failover
                .then_some((config.checkpoint_every, Ev::Checkpoint)),
            "serving.failover",
            "failover",
            [
                ("placement", Json::Str(self.report.placement.to_string())),
                ("failover", Json::Bool(config.failover)),
                ("shards", Json::UInt(config.shards.into())),
                (
                    "replicas_per_shard",
                    Json::UInt(config.replicas_per_shard.into()),
                ),
                ("devices", Json::UInt(domains.devices().into())),
                ("seed", Json::UInt(config.seed)),
            ],
        );

        while let Some((now, step)) = self.pod.next(horizon) {
            match step {
                Step::Arrival => {
                    if let Some(id) = self.pod.admit() {
                        let s = (id % config.shards as u64) as u32;
                        let incident = self.live_count(s) < config.replicas_per_shard;
                        self.shards[s as usize].queue.push_back(QueuedRequest {
                            id,
                            arrived: now,
                            incident,
                        });
                        self.dispatch_shard(s, now);
                    }
                    self.pod.next_arrival();
                }
                Step::Done { device, job } => {
                    self.pod.set.get_mut(device).health.observe_success(now);
                    let latency = now - job.request.arrived;
                    self.pod.complete(latency);
                    if now >= self.warmup {
                        let (report, tel) = (&mut self.report, &mut self.pod.tel);
                        report.request_latency.record(latency);
                        tel.hist_record("failover.request_latency", latency);
                        if job.request.incident {
                            report.incident_latency.record(latency);
                            tel.hist_record("failover.incident_latency", latency);
                        }
                    }
                    self.dispatch_shard(job.shard, now);
                }
                Step::Fault { fault, impact } => self.fault(fault, impact, now),
                Step::Engine(Ev::Promote { shard }) => {
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
                    self.instant("failover.promotion", shard, &[("device", device)]);
                    self.update_outage(shard, now);
                    self.dispatch_shard(shard, now);
                }
                Step::Engine(Ev::Checkpoint) => {
                    self.checkpoint_all(now);
                    self.pod.at(now + config.checkpoint_every, Ev::Checkpoint);
                }
                Step::Engine(Ev::HostRestored { device }) => {
                    self.pod.set.tick(now);
                    let d = self.pod.set.get_mut(device);
                    d.faults.expire(now);
                    d.health.begin_recovery(now);
                    // A device re-replicated away is a spare now.
                    let Some(slot) = self.down_replica(device) else {
                        continue;
                    };
                    // Warm restart from the shard's last checkpoint; the
                    // baseline never checkpointed, so it replays the epoch.
                    let last = self.shards[slot.shard as usize].last_checkpoint;
                    let cost =
                        config.restore_floor + now.saturating_sub(last).scale(config.catchup_rate);
                    self.report.restores += 1;
                    self.begin_restore(slot, now + cost);
                }
                Step::Engine(Ev::PartitionHealed { device }) => {
                    self.pod.set.tick(now);
                    self.pod.set.get_mut(device).faults.expire(now);
                    if !self.pod.set.get(device).faults.reachable(now) {
                        continue; // also crashed: HostRestored path owns it
                    }
                    // Partition healed: state was never lost, no restore.
                    if let Some(slot) = self.down_replica(device) {
                        self.replica_live(slot, now);
                    }
                }
                Step::Engine(Ev::RestoreDone { slot, token }) => {
                    let r = *self.replica(slot);
                    if !matches!(r.state, ReplicaState::Restoring { token: t, .. } if t == token) {
                        continue; // superseded (e.g. crashed again mid-restore)
                    }
                    self.instant("failover.restore", slot.shard, &[("device", r.device)]);
                    self.replica_live(slot, now);
                }
                Step::Engine(Ev::Rereplicate { slot, since }) => {
                    let r = *self.replica(slot);
                    if r.state != (ReplicaState::Down { since }) {
                        continue; // restored or already rebuilt meanwhile
                    }
                    let occupied: Vec<bool> =
                        self.device_replica.iter().map(Option::is_some).collect();
                    let excluded: Vec<bool> = (0..self.device_replica.len())
                        .map(|d| !self.pod.set.get(d as DeviceId).faults.reachable(now))
                        .collect();
                    let survivors: Vec<DeviceId> = self.shards[slot.shard as usize]
                        .replicas
                        .iter()
                        .filter(|x| x.state == ReplicaState::Live)
                        .map(|x| x.device)
                        .collect();
                    let Some(spare) = pick_spare(domains, &occupied, &excluded, &survivors) else {
                        continue; // no spare capacity left
                    };
                    self.report.rereplications += 1;
                    let devices = [("from", r.device), ("to", spare)];
                    self.instant("failover.rereplicate", slot.shard, &devices);
                    self.device_replica[r.device as usize] = None;
                    self.device_replica[spare as usize] = Some(slot);
                    self.replica(slot).device = spare;
                    self.begin_restore(slot, now + config.rereplicate_time);
                }
            }
        }
        self.finish(horizon)
    }

    /// Closes the run at the last event before `horizon`: open outage
    /// windows end there, and requests still queued or in flight are
    /// lost or leave the offered pool.
    fn finish(mut self, horizon: SimTime) -> FailoverReport {
        let (end, availability) = self.pod.close();
        let r = &mut self.report;
        for shard in &mut self.shards {
            if let Some(since) = shard.down_since.take() {
                let outage = end.saturating_sub(since);
                r.unavailable += outage;
                r.recovery_time = r.recovery_time.max(outage);
            }
        }
        r.offered = self.pod.offered;
        r.shed = self.pod.shed;
        r.completed = self.pod.completed;
        // Queued requests that had their full deadline are lost forever;
        // younger ones (and in-flight jobs) are horizon truncation, not a
        // policy failure, and leave the offered pool.
        let cutoff = horizon.saturating_sub(self.config.request_deadline);
        for req in self.shards.iter().flat_map(|shard| &shard.queue) {
            if req.arrived <= cutoff {
                r.lost += 1;
            } else {
                r.offered -= 1;
            }
        }
        r.offered -= self.pod.set.jobs().count() as u64;
        r.device_availability = availability;
        if r.checkpoints > 0 {
            r.checkpoint_fingerprint = self.checkpoint_digest.finish();
        }
        self.pod.end(
            end,
            [
                ("failover.offered", r.offered),
                ("failover.completed", r.completed),
                ("failover.shed", r.shed),
                ("failover.lost", r.lost),
                ("failover.requeued", r.requeued),
                ("failover.promotions", r.promotions),
                ("failover.restores", r.restores),
                ("failover.rereplications", r.rereplications),
                ("failover.checkpoints", r.checkpoints),
            ],
        );
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
    let mut device_replica: Vec<Option<Slot>> = vec![None; domains.devices() as usize];
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
                    device_replica[d as usize] = Some(Slot {
                        shard: s as u32,
                        replica: r as u32,
                    });
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
    let set = DeviceSet::new(domains.devices(), config.health, config.pcie_util_window);
    let controller = config.degradation.filter(|_| config.failover);
    let engine = Engine {
        config,
        pod: Pod::new(
            set,
            controller.map(DegradationController::new),
            plan,
            arrivals,
            tel,
        ),
        shards,
        device_replica,
        next_token: 0,
        checkpoint_digest: Fnv1a::default(),
        report: FailoverReport {
            placement: placement.name(),
            failover_enabled: config.failover,
            seed: config.seed,
            fault_fingerprint: plan.fingerprint(),
            device_availability: 1.0,
            ..FailoverReport::default()
        },
        warmup,
    };
    engine.run(domains, horizon)
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

    /// A shard at a 10 s checkpoint: two queued requests, primary on
    /// healthy device 3, standby on device 9 down since 8 s.
    fn checkpointed_shard() -> Shard {
        let queued = |id, secs| QueuedRequest {
            id,
            arrived: SimTime::from_secs(secs),
            incident: false,
        };
        Shard {
            replicas: vec![
                Replica {
                    device: 3,
                    state: ReplicaState::Live,
                },
                Replica {
                    device: 9,
                    state: ReplicaState::Down {
                        since: SimTime::from_secs(8),
                    },
                },
            ],
            primary: Some(0),
            queue: VecDeque::from([queued(7, 9), queued(8, 10)]),
            down_since: None,
            last_checkpoint: SimTime::ZERO,
            promote_pending: false,
        }
    }

    fn checkpoint_health(device: DeviceId) -> HealthState {
        match device {
            9 => HealthState::Offline,
            11 => HealthState::Degraded,
            _ => HealthState::Healthy,
        }
    }

    fn digest_at_10s(shard: &Shard, inflight: Option<(DeviceId, u64)>) -> u64 {
        shard_digest(
            SimTime::from_secs(10),
            2,
            shard,
            inflight,
            checkpoint_health,
        )
    }

    /// [`checkpointed_shard`] without a primary and with a third replica
    /// restoring onto degraded device 11 until 12 s.
    fn restoring_shard() -> Shard {
        let mut shard = checkpointed_shard();
        shard.primary = None;
        shard.replicas.push(Replica {
            device: 11,
            state: ReplicaState::Restoring {
                token: 5,
                ready_at: SimTime::from_secs(12),
            },
        });
        shard
    }

    #[test]
    fn equal_shard_state_hashes_equal() {
        let shard = checkpointed_shard();
        let digest = digest_at_10s(&shard, Some((3, 41)));
        assert_eq!(digest, digest_at_10s(&checkpointed_shard(), Some((3, 41))));
        // The words and their order are pinned: changing them changes
        // every recorded `checkpoint_fingerprint` (the failover trace
        // golden's `ckpt_fp`, the benchmark's `pod` digest).
        assert_eq!(digest, 0x0950_5ac2_b4dd_8439);
        assert_eq!(
            digest_at_10s(&restoring_shard(), None),
            0xbaa0_3950_77b6_89ca
        );
        // A restore's token is engine bookkeeping, not checkpointed state.
        let mut retokened = restoring_shard();
        retokened.replicas[2].state = ReplicaState::Restoring {
            token: 6,
            ready_at: SimTime::from_secs(12),
        };
        assert_eq!(
            digest_at_10s(&retokened, None),
            digest_at_10s(&restoring_shard(), None)
        );
    }

    #[test]
    fn every_checkpointed_field_perturbs_the_digest() {
        let base = digest_at_10s(&checkpointed_shard(), Some((3, 41)));
        let mut shard = checkpointed_shard();
        shard.queue.pop_back();
        assert_ne!(digest_at_10s(&shard, Some((3, 41))), base, "queue contents");
        let shard = checkpointed_shard();
        assert_ne!(
            digest_at_10s(&shard, Some((3, 42))),
            base,
            "in-flight epoch"
        );
        assert_ne!(digest_at_10s(&shard, None), base, "no job in flight");
        let mut moved = checkpointed_shard();
        moved.replicas[0].device = 4;
        assert_ne!(digest_at_10s(&moved, Some((3, 41))), base, "replica device");
        let recovering = |d| match d {
            9 => HealthState::Recovering,
            _ => HealthState::Healthy,
        };
        let at = SimTime::from_secs(10);
        assert_ne!(
            shard_digest(at, 2, &shard, Some((3, 41)), recovering),
            base,
            "health state"
        );
        let mut promoted = checkpointed_shard();
        promoted.primary = Some(1);
        assert_ne!(
            digest_at_10s(&promoted, Some((3, 41))),
            base,
            "primary index"
        );
    }

    #[test]
    fn checkpoint_fold_is_order_sensitive() {
        let a = digest_at_10s(&checkpointed_shard(), Some((3, 41)));
        let b = digest_at_10s(&restoring_shard(), None);
        let fold = |first, second| {
            let mut run = Fnv1a::default();
            run.word(first);
            run.word(second);
            run.finish()
        };
        // The report's `checkpoint_fingerprint` after these two
        // checkpoints, pinned like the digests above.
        assert_eq!(fold(a, b), 0x642d_b31d_bbd4_4255);
        assert_ne!(fold(a, b), fold(b, a));
    }

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
