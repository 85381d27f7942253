//! The device pool that dispatch consults.
//!
//! A [`DeviceSet`] tracks, for every accelerator: its health machine
//! ([`HealthMachine`]), the lingering fault conditions injected by a
//! fault plan ([`DeviceFaultState`]), whether it is busy, and a trailing
//! PE-utilization estimate (which is what arms the §5.5 PCIe fault).
//! Both the resilient policy and the naive baseline dispatch through a
//! `DeviceSet`; the difference is only *which* questions they ask it.

use mtia_core::SimTime;
use mtia_sim::faults::{DeviceFaultState, DeviceId, FaultEvent, FaultKind};

use super::health::{HealthConfig, HealthMachine, HealthState};

/// One accelerator in the pool.
#[derive(Debug, Clone)]
pub struct Device {
    /// Fleet index.
    pub id: DeviceId,
    /// Health-state machine consulted by resilient dispatch.
    pub health: HealthMachine,
    /// Injected fault conditions (link state, slowdown windows).
    pub faults: DeviceFaultState,
    busy: bool,
    /// Generation counter: bumped whenever the in-flight job is
    /// invalidated (fault kill, hedge win) so stale completion events can
    /// be recognized and dropped.
    epoch: u64,
    busy_accum: SimTime,
    busy_since: Option<SimTime>,
    window_start: SimTime,
    window_busy: SimTime,
    util_window: SimTime,
}

impl Device {
    fn new(id: DeviceId, health: HealthConfig, util_window: SimTime) -> Self {
        Device {
            id,
            health: HealthMachine::new(health),
            faults: DeviceFaultState::new(),
            busy: false,
            epoch: 0,
            busy_accum: SimTime::ZERO,
            busy_since: None,
            window_start: SimTime::ZERO,
            window_busy: SimTime::ZERO,
            util_window,
        }
    }

    /// Whether a job is currently running.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Current job generation; completion events carry the epoch they
    /// were scheduled under and are dropped if it no longer matches.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Marks the device busy with no scheduled completion — models a
    /// hung device (naive §5.5 path) holding a job that will never
    /// finish. Freed via [`Device::invalidate_inflight`].
    pub fn seize(&mut self, now: SimTime) {
        debug_assert!(!self.busy, "seize requires an idle device");
        self.busy = true;
        self.note_busy_start(now);
    }

    /// Invalidates the in-flight job (if any) and frees the device.
    /// Returns the old epoch so callers can cancel its completion event.
    pub fn invalidate_inflight(&mut self, now: SimTime) -> u64 {
        let old = self.epoch;
        self.epoch += 1;
        if self.busy {
            self.note_busy_end(now);
            self.busy = false;
        }
        old
    }

    fn note_busy_start(&mut self, now: SimTime) {
        self.roll_window(now);
        self.busy_since = Some(now);
    }

    fn note_busy_end(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            let span = now.saturating_sub(since);
            self.busy_accum += span;
            self.window_busy += span;
        }
    }

    fn roll_window(&mut self, now: SimTime) {
        if now.saturating_sub(self.window_start) >= self.util_window {
            self.window_start = now;
            self.window_busy = SimTime::ZERO;
        }
    }

    /// Busy fraction over (roughly) the trailing utilization window; the
    /// signal §5.5 PCIe events arm on.
    pub fn trailing_utilization(&self, now: SimTime) -> f64 {
        let mut busy = self.window_busy;
        if let Some(since) = self.busy_since {
            busy += now.saturating_sub(since.max(self.window_start));
        }
        let span = now.saturating_sub(self.window_start);
        if span == SimTime::ZERO {
            if self.busy {
                1.0
            } else {
                0.0
            }
        } else {
            (busy.ratio(span)).min(1.0)
        }
    }

    /// Whether resilient dispatch may send a new job here. Requires the
    /// device to be *reachable*: link up and not NIC-partitioned.
    pub fn is_dispatchable(&self, now: SimTime) -> bool {
        !self.busy && self.health.is_dispatchable() && self.faults.reachable(now)
    }
}

/// What applying a fault event to the pool means for the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultImpact {
    /// Nothing to do (event did not arm, or device idle for a job-killing
    /// fault).
    None,
    /// The in-flight job under `epoch` failed; reschedule/fail it.
    JobKilled {
        /// Epoch of the invalidated job.
        epoch: u64,
    },
    /// The device dropped off the bus (§5.5); any in-flight job under
    /// `epoch` is lost and the device is out until `recovers_at`.
    LinkLost {
        /// Epoch of the invalidated job (`u64::MAX` if the device was idle).
        epoch: u64,
        /// When the host reset restores the link.
        recovers_at: SimTime,
    },
    /// The device is network-partitioned: powered and computing, but
    /// unreachable for new dispatch until `heals_at`. In-flight work
    /// keeps running (established DMA streams survive the partition in
    /// this model); only *new* placement is blocked.
    Partitioned {
        /// When the partition heals and dispatch may resume.
        heals_at: SimTime,
    },
}

/// Which term of the availability count a device feeds; see
/// [`DeviceSet::tick`].
#[derive(Debug, Clone, Copy)]
enum AvailClass {
    /// Health not dispatchable: counts zero whatever its faults.
    Off,
    /// Dispatchable health, reachable from the last tick on: counted in
    /// `steady`.
    Steady,
    /// Dispatchable health and a live link-loss, partition or flap
    /// window: listed in `timed` and evaluated at each tick.
    Timed,
    /// Handed out mutably since its last classification: listed in
    /// `dirty` and evaluated (then reclassified) at the next tick.
    Dirty,
}

/// The accelerator pool.
///
/// Besides the devices it keeps the time-weighted integral of how many
/// are dispatchable (health dispatchable and reachable), for the
/// availability metric. The count is maintained, not rescanned: every
/// device sits in one availability class, steady devices add to a counter,
/// only the few with a timed reachability window are evaluated per
/// tick, and a device handed out by [`get_mut`](Self::get_mut) or hit
/// by [`apply_fault`](Self::apply_fault) is marked dirty in O(1) and
/// reclassified at the next tick.
#[derive(Debug, Clone)]
pub struct DeviceSet {
    devices: Vec<Device>,
    /// Time-weighted integral of the dispatchable-device count, for the
    /// availability metric.
    avail_accum: f64,
    avail_last: SimTime,
    /// Each device's class, by id.
    class: Vec<AvailClass>,
    /// Number of [`AvailClass::Steady`] devices.
    steady: usize,
    /// The [`AvailClass::Timed`] devices.
    timed: Vec<DeviceId>,
    /// The [`AvailClass::Dirty`] devices.
    dirty: Vec<DeviceId>,
}

impl DeviceSet {
    /// `n` healthy devices under `health`, with `util_window` as the
    /// trailing-utilization horizon.
    pub fn new(n: u32, health: HealthConfig, util_window: SimTime) -> Self {
        DeviceSet {
            devices: (0..n)
                .map(|id| Device::new(id, health, util_window))
                .collect(),
            avail_accum: 0.0,
            avail_last: SimTime::ZERO,
            class: vec![AvailClass::Steady; n as usize],
            steady: n as usize,
            timed: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Pool size.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Immutable device access.
    pub fn get(&self, id: DeviceId) -> &Device {
        &self.devices[id as usize]
    }

    /// Mutable device access. Marks the device dirty: its availability
    /// class is recomputed at the next [`tick`](Self::tick).
    pub fn get_mut(&mut self, id: DeviceId) -> &mut Device {
        self.mark_dirty(id);
        &mut self.devices[id as usize]
    }

    /// All devices.
    pub fn iter(&self) -> impl Iterator<Item = &Device> {
        self.devices.iter()
    }

    fn mark_dirty(&mut self, id: DeviceId) {
        match self.class[id as usize] {
            AvailClass::Dirty => return,
            AvailClass::Off => {}
            AvailClass::Steady => self.steady -= 1,
            AvailClass::Timed => {
                let at = self.timed.iter().position(|&t| t == id);
                self.timed
                    .swap_remove(at.expect("a timed device is listed"));
            }
        }
        self.class[id as usize] = AvailClass::Dirty;
        self.dirty.push(id);
    }

    /// Whether `d` counts as dispatchable at `at`: health dispatchable
    /// and reachable. Busy devices count; availability is about the
    /// pool, not its load.
    fn counts_at(d: &Device, at: SimTime) -> bool {
        d.health.is_dispatchable() && d.faults.reachable(at)
    }

    /// The dispatchable-device count at `avail_last`, from the classes.
    fn dispatchable_at_last(&self) -> usize {
        let at = self.avail_last;
        let live = |id: &&DeviceId| Self::counts_at(&self.devices[**id as usize], at);
        self.steady
            + self.timed.iter().filter(live).count()
            + self.dirty.iter().filter(live).count()
    }

    /// Moves every dirty device into its class, and timed devices whose
    /// windows have all ended by `avail_last` into `steady`.
    fn reclassify(&mut self) {
        let at = self.avail_last;
        let Self {
            devices,
            class,
            steady,
            timed,
            dirty,
            ..
        } = self;
        for id in dirty.drain(..) {
            let d = &devices[id as usize];
            class[id as usize] = if !d.health.is_dispatchable() {
                AvailClass::Off
            } else if d.faults.reachable_from(at) {
                *steady += 1;
                AvailClass::Steady
            } else {
                timed.push(id);
                AvailClass::Timed
            };
        }
        timed.retain(|&id| {
            let ended = devices[id as usize].faults.reachable_from(at);
            if ended {
                class[id as usize] = AvailClass::Steady;
                *steady += 1;
            }
            !ended
        });
    }

    /// Advances the availability integral to `now`. Call before any
    /// state change that affects dispatchability.
    ///
    /// The span since the last tick is weighted by the count of devices
    /// dispatchable at the last tick, read from the health and fault
    /// state as of this call. The count costs O(timed + dirty), not
    /// O(pool): dirty devices are reclassified first, then steady ones
    /// are a counter and only timed ones are evaluated. Debug builds
    /// cross-check it against a full scan.
    pub fn tick(&mut self, now: SimTime) {
        let span = now.saturating_sub(self.avail_last).as_secs_f64();
        if span > 0.0 {
            self.reclassify();
            let dispatchable = self.dispatchable_at_last();
            debug_assert_eq!(
                dispatchable,
                self.devices
                    .iter()
                    .filter(|d| Self::counts_at(d, self.avail_last))
                    .count(),
                "maintained availability count diverged from a full scan"
            );
            self.avail_accum += span * dispatchable as f64;
            self.avail_last = now;
        }
    }

    /// Mean fraction of the pool that was dispatchable over `[0, now]`.
    pub fn availability(&self, now: SimTime) -> f64 {
        let span = now.as_secs_f64();
        if span <= 0.0 || self.devices.is_empty() {
            return 1.0;
        }
        // Include the un-ticked tail.
        let mut accum = self.avail_accum;
        let tail = now.saturating_sub(self.avail_last).as_secs_f64();
        if tail > 0.0 {
            accum += tail * self.dispatchable_at_last() as f64;
        }
        accum / (span * self.devices.len() as f64)
    }

    /// Picks a device for a new job under the *resilient* policy:
    /// health-dispatchable, link up, idle — preferring `Healthy` over
    /// `Recovering` over `Degraded`, lowest id within a class (so the
    /// choice is deterministic). Marks it busy.
    pub fn acquire_resilient(&mut self, now: SimTime) -> Option<DeviceId> {
        self.tick(now);
        let rank = |d: &Device| match d.health.state() {
            HealthState::Healthy => 0u8,
            HealthState::Recovering => 1,
            HealthState::Degraded => 2,
            _ => 3,
        };
        let id = self
            .devices
            .iter()
            .filter(|d| d.is_dispatchable(now))
            .min_by_key(|d| (rank(d), d.id))
            .map(|d| d.id)?;
        self.start_job(id, now);
        Some(id)
    }

    /// Picks a device under the *naive* baseline: first idle device whose
    /// completion the scheduler still expects — it knows nothing of
    /// health or link state, so it will happily dispatch into a dead
    /// device (where the job is lost, as in §5.5 before the health
    /// tooling existed).
    pub fn acquire_naive(&mut self, now: SimTime) -> Option<DeviceId> {
        self.tick(now);
        let id = self.devices.iter().find(|d| !d.busy).map(|d| d.id)?;
        self.start_job(id, now);
        Some(id)
    }

    fn start_job(&mut self, id: DeviceId, now: SimTime) {
        let d = &mut self.devices[id as usize];
        debug_assert!(!d.busy);
        d.busy = true;
        d.note_busy_start(now);
    }

    /// Completes the job on `id` if `epoch` still matches (stale
    /// completions from killed/hedged jobs return `false` and change
    /// nothing).
    pub fn finish_job(&mut self, id: DeviceId, epoch: u64, now: SimTime) -> bool {
        self.tick(now);
        let d = &mut self.devices[id as usize];
        if d.epoch != epoch || !d.busy {
            return false;
        }
        d.note_busy_end(now);
        d.busy = false;
        d.epoch += 1;
        true
    }

    /// Applies one injected fault event and reports its scheduler-visible
    /// impact. Windowed conditions land in the device's
    /// [`DeviceFaultState`]; job-killing kinds invalidate the in-flight
    /// job.
    pub fn apply_fault(&mut self, event: &FaultEvent, now: SimTime) -> FaultImpact {
        self.tick(now);
        let util = self.devices[event.device as usize].trailing_utilization(now);
        let d = self.get_mut(event.device);
        match event.kind {
            FaultKind::EccDoubleBit | FaultKind::TransientJobFailure => {
                if d.busy {
                    let epoch = d.invalidate_inflight(now);
                    FaultImpact::JobKilled { epoch }
                } else {
                    FaultImpact::None
                }
            }
            FaultKind::PcieLinkLoss { .. }
            | FaultKind::HostCrash
            | FaultKind::RackPowerLoss
            | FaultKind::PodLoss
            | FaultKind::RegionOutage => {
                // Correlated kinds arm unconditionally; PCIe loss arms on
                // utilization. Either way an armed event downs the link and
                // kills whatever was running.
                if d.faults.apply(event, util) {
                    let epoch = if d.busy {
                        d.invalidate_inflight(now)
                    } else {
                        u64::MAX
                    };
                    FaultImpact::LinkLost {
                        epoch,
                        recovers_at: d.faults.link_recovers_at().unwrap_or(event.until()),
                    }
                } else {
                    FaultImpact::None
                }
            }
            FaultKind::NicPartition | FaultKind::WanPartition => {
                d.faults.apply(event, util);
                FaultImpact::Partitioned {
                    heals_at: d.faults.partition_heals_at().unwrap_or(event.until()),
                }
            }
            _ => {
                d.faults.apply(event, util);
                FaultImpact::None
            }
        }
    }

    /// Count of devices a resilient dispatcher could use right now.
    pub fn dispatchable_count(&self, now: SimTime) -> usize {
        self.devices
            .iter()
            .filter(|d| d.is_dispatchable(now))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtia_sim::faults::FaultEvent;

    fn pool(n: u32) -> DeviceSet {
        DeviceSet::new(n, HealthConfig::default(), SimTime::from_secs(1))
    }

    #[test]
    fn acquire_prefers_healthy_lowest_id() {
        let mut set = pool(3);
        let now = SimTime::from_millis(1);
        // Degrade device 0.
        for _ in 0..3 {
            set.get_mut(0).health.observe_error(now);
        }
        assert_eq!(set.acquire_resilient(now), Some(1));
        assert_eq!(set.acquire_resilient(now), Some(2));
        // Only the degraded device remains — still dispatchable.
        assert_eq!(set.acquire_resilient(now), Some(0));
        assert_eq!(set.acquire_resilient(now), None);
    }

    #[test]
    fn naive_ignores_link_state() {
        let mut set = pool(1);
        let now = SimTime::from_secs(1);
        let loss = FaultEvent {
            at: now,
            device: 0,
            kind: FaultKind::PcieLinkLoss {
                min_utilization: 0.0,
            },
            duration: SimTime::from_secs(5),
        };
        assert!(matches!(
            set.apply_fault(&loss, now),
            FaultImpact::LinkLost { .. }
        ));
        assert_eq!(
            set.acquire_resilient(now),
            None,
            "resilient sees the dead link"
        );
        assert_eq!(set.acquire_naive(now), Some(0), "naive does not");
    }

    #[test]
    fn stale_epoch_completions_are_dropped() {
        let mut set = pool(1);
        let t0 = SimTime::from_millis(1);
        set.acquire_resilient(t0).expect("device free");
        let epoch = set.get(0).epoch();
        // A DBE kills the in-flight job.
        let dbe = FaultEvent {
            at: SimTime::from_millis(2),
            device: 0,
            kind: FaultKind::EccDoubleBit,
            duration: SimTime::ZERO,
        };
        match set.apply_fault(&dbe, SimTime::from_millis(2)) {
            FaultImpact::JobKilled { epoch: killed } => assert_eq!(killed, epoch),
            other => panic!("expected JobKilled, got {other:?}"),
        }
        assert!(!set.get(0).is_busy());
        assert!(
            !set.finish_job(0, epoch, SimTime::from_millis(3)),
            "stale completion must be ignored"
        );
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut set = pool(1);
        let id = set.acquire_resilient(SimTime::ZERO).unwrap();
        let epoch = set.get(0).epoch();
        set.finish_job(id, epoch, SimTime::from_millis(500));
        let util = set.get(0).trailing_utilization(SimTime::from_millis(1000));
        assert!(
            (util - 0.5).abs() < 0.05,
            "expected ~0.5 utilization, got {util}"
        );
    }

    #[test]
    fn availability_integral_reflects_outage() {
        let mut set = pool(2);
        let loss = FaultEvent {
            at: SimTime::from_secs(0),
            device: 0,
            kind: FaultKind::PcieLinkLoss {
                min_utilization: 0.0,
            },
            duration: SimTime::from_secs(5),
        };
        set.apply_fault(&loss, SimTime::ZERO);
        set.tick(SimTime::from_secs(5));
        set.get_mut(0).faults.expire(SimTime::from_secs(5));
        set.tick(SimTime::from_secs(10));
        let avail = set.availability(SimTime::from_secs(10));
        // One of two devices down for half the horizon → 75 %.
        assert!((avail - 0.75).abs() < 0.02, "availability {avail}");
    }
}
