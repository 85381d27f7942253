//! The device pool that dispatch consults.
//!
//! A [`DeviceSet`] tracks, for every accelerator: its health machine
//! ([`HealthMachine`]), the lingering fault conditions injected by a
//! fault plan ([`DeviceFaultState`]), the job it runs and the epoch that
//! job started under, and a trailing PE-utilization estimate (which is
//! what arms the §5.5 PCIe fault). Both per-pod engines dispatch through
//! a `DeviceSet`; the pool, not the engine, answers "which job runs on
//! this device, under which epoch".

use mtia_core::SimTime;
use mtia_sim::faults::{DeviceFaultState, DeviceId, FaultEvent, FaultKind};

use super::health::{HealthConfig, HealthMachine, HealthState};

/// One accelerator in the pool, running at most one job of type `J`.
#[derive(Debug, Clone)]
pub struct Device<J> {
    /// Fleet index.
    pub id: DeviceId,
    /// Health-state machine consulted by resilient dispatch.
    pub health: HealthMachine,
    /// Injected fault conditions (link state, slowdown windows).
    pub faults: DeviceFaultState,
    /// The running job. A busy device without one is hung: it holds a
    /// job whose completion nobody expects (the naive §5.5 path).
    job: Option<J>,
    /// Generation counter: bumped whenever a busy device frees (its job
    /// completes, or a fault or a maintenance yank kills it), so stale
    /// completion events can be recognized and dropped.
    epoch: u64,
    /// When the device last became busy; `None` while it is idle.
    busy_since: Option<SimTime>,
    window_start: SimTime,
    window_busy: SimTime,
    util_window: SimTime,
}

impl<J> Device<J> {
    fn new(id: DeviceId, health: HealthConfig, util_window: SimTime) -> Self {
        Device {
            id,
            health: HealthMachine::new(health),
            faults: DeviceFaultState::new(),
            job: None,
            epoch: 0,
            busy_since: None,
            window_start: SimTime::ZERO,
            window_busy: SimTime::ZERO,
            util_window,
        }
    }

    /// Whether a job is currently running (or hung).
    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }

    /// Marks the device busy with `job` (`None`: hung) from `now`.
    fn occupy(&mut self, job: Option<J>, now: SimTime) {
        debug_assert!(!self.is_busy(), "device {} runs one job at a time", self.id);
        self.job = job;
        if now.saturating_sub(self.window_start) >= self.util_window {
            self.window_start = now;
            self.window_busy = SimTime::ZERO;
        }
        self.busy_since = Some(now);
    }

    /// Ends what runs here, a hung job included, frees the device and
    /// returns the job. An idle device is left as it is.
    fn release(&mut self, now: SimTime) -> Option<J> {
        let since = self.busy_since.take()?;
        self.epoch += 1;
        self.window_busy += now.saturating_sub(since);
        self.job.take()
    }

    /// Busy fraction over (roughly) the trailing utilization window; the
    /// signal §5.5 PCIe events arm on.
    fn trailing_utilization(&self, now: SimTime) -> f64 {
        let mut busy = self.window_busy;
        if let Some(since) = self.busy_since {
            busy += now.saturating_sub(since.max(self.window_start));
        }
        let span = now.saturating_sub(self.window_start);
        if span == SimTime::ZERO {
            if self.is_busy() {
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
        !self.is_busy() && self.health.is_dispatchable() && self.faults.reachable(now)
    }
}

/// What applying a fault event to the pool means for the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultImpact<J> {
    /// Nothing to do: the event did not arm, or a job-killing fault hit
    /// a device with no running job (a hung device is freed).
    None,
    /// The running job failed and the device is free; reschedule or
    /// fail `job`.
    JobKilled {
        /// The killed job.
        job: J,
    },
    /// The device dropped off the bus (§5.5): the running job, if any,
    /// is lost and the device is out until `recovers_at`.
    LinkLost {
        /// The killed job; `None` if the device ran none.
        job: Option<J>,
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

/// The accelerator pool, and the job (payload `J`) each device runs.
///
/// A job starts with [`start`](Self::start), which returns the epoch
/// its completion event must carry. [`finish_job`](Self::finish_job)
/// hands the job back only if that epoch still matches; a fault
/// ([`apply_fault`](Self::apply_fault)) or [`kill_job`](Self::kill_job)
/// ends it early and returns it instead.
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
pub struct DeviceSet<J> {
    devices: Vec<Device<J>>,
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

impl<J> DeviceSet<J> {
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

    /// Immutable device access.
    pub fn get(&self, id: DeviceId) -> &Device<J> {
        &self.devices[id as usize]
    }

    /// Mutable device access. Marks the device dirty: its availability
    /// class is recomputed at the next [`tick`](Self::tick).
    pub fn get_mut(&mut self, id: DeviceId) -> &mut Device<J> {
        self.mark_dirty(id);
        &mut self.devices[id as usize]
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
    fn counts_at(d: &Device<J>, at: SimTime) -> bool {
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

    /// Ticks the pool to `now`, as every dispatch does, and picks a
    /// device for a new job under the *resilient* policy:
    /// health-dispatchable, link up, idle — preferring `Healthy` over
    /// `Recovering` over `Degraded`, lowest id within a class (so the
    /// choice is deterministic).
    pub fn pick_resilient(&mut self, now: SimTime) -> Option<DeviceId> {
        self.tick(now);
        let rank = |d: &Device<J>| match d.health.state() {
            HealthState::Healthy => 0u8,
            HealthState::Recovering => 1,
            HealthState::Degraded => 2,
            _ => 3,
        };
        self.devices
            .iter()
            .filter(|d| d.is_dispatchable(now))
            .min_by_key(|d| (rank(d), d.id))
            .map(|d| d.id)
    }

    /// Ticks the pool to `now` and picks a device under the *naive*
    /// baseline: the first idle one. It knows nothing of health or link
    /// state, so it will happily dispatch into a dead device (where the
    /// job is lost, as in §5.5 before the health tooling existed).
    pub fn pick_naive(&mut self, now: SimTime) -> Option<DeviceId> {
        self.tick(now);
        self.devices.iter().find(|d| !d.is_busy()).map(|d| d.id)
    }

    /// Starts `job` on the idle device `id` and returns the epoch its
    /// completion must carry. `None` hangs the device: it stays busy
    /// with no completion expected until a fault, a maintenance yank or
    /// [`kill_job`](Self::kill_job) frees it. Does not tick: occupying a
    /// device does not change the availability count.
    pub fn start(&mut self, id: DeviceId, job: Option<J>, now: SimTime) -> u64 {
        let d = &mut self.devices[id as usize];
        d.occupy(job, now);
        d.epoch
    }

    /// Completes the job on `id` and hands it back if `epoch` still
    /// matches; a stale completion (the job was killed, or the device
    /// hung) returns `None` and changes nothing.
    pub fn finish_job(&mut self, id: DeviceId, epoch: u64, now: SimTime) -> Option<J> {
        self.tick(now);
        let d = &mut self.devices[id as usize];
        if d.epoch != epoch || d.job.is_none() {
            return None;
        }
        d.release(now)
    }

    /// Ends whatever runs on `id`, a hung job included, and frees it;
    /// returns the running job. Does not tick: freeing a device does not
    /// change the availability count.
    pub fn kill_job(&mut self, id: DeviceId, now: SimTime) -> Option<J> {
        self.devices[id as usize].release(now)
    }

    /// The job `id` runs under `epoch`, if it still does.
    pub fn running(&self, id: DeviceId, epoch: u64) -> Option<&J> {
        let d = &self.devices[id as usize];
        d.job.as_ref().filter(|_| d.epoch == epoch)
    }

    /// Every running job with its device and epoch, by device id.
    pub fn jobs(&self) -> impl Iterator<Item = (DeviceId, u64, &J)> {
        self.devices
            .iter()
            .filter_map(|d| d.job.as_ref().map(|job| (d.id, d.epoch, job)))
    }

    /// Applies one injected fault event and reports its scheduler-visible
    /// impact. Windowed conditions land in the device's
    /// [`DeviceFaultState`]; job-killing kinds end what runs on a busy
    /// device and return its job.
    pub fn apply_fault(&mut self, event: &FaultEvent, now: SimTime) -> FaultImpact<J> {
        self.tick(now);
        let util = self.devices[event.device as usize].trailing_utilization(now);
        let d = self.get_mut(event.device);
        match event.kind {
            FaultKind::EccDoubleBit | FaultKind::TransientJobFailure => match d.release(now) {
                Some(job) => FaultImpact::JobKilled { job },
                None => FaultImpact::None,
            },
            FaultKind::PcieLinkLoss { .. }
            | FaultKind::HostCrash
            | FaultKind::RackPowerLoss
            | FaultKind::PodLoss
            | FaultKind::RegionOutage => {
                // Correlated kinds arm unconditionally; PCIe loss arms on
                // utilization. Either way an armed event downs the link and
                // kills whatever was running.
                if d.faults.apply(event, util) {
                    FaultImpact::LinkLost {
                        job: d.release(now),
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

    fn pool(n: u32) -> DeviceSet<()> {
        DeviceSet::new(n, HealthConfig::default(), SimTime::from_secs(1))
    }

    /// Picks a device the resilient way and starts a job on it.
    fn acquire(set: &mut DeviceSet<()>, now: SimTime) -> Option<DeviceId> {
        let id = set.pick_resilient(now)?;
        set.start(id, Some(()), now);
        Some(id)
    }

    #[test]
    fn acquire_prefers_healthy_lowest_id() {
        let mut set = pool(3);
        let now = SimTime::from_millis(1);
        // Degrade device 0.
        for _ in 0..3 {
            set.get_mut(0).health.observe_error(now);
        }
        assert_eq!(acquire(&mut set, now), Some(1));
        assert_eq!(acquire(&mut set, now), Some(2));
        // Only the degraded device remains — still dispatchable.
        assert_eq!(acquire(&mut set, now), Some(0));
        assert_eq!(acquire(&mut set, now), None);
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
            set.pick_resilient(now),
            None,
            "resilient sees the dead link"
        );
        assert_eq!(set.pick_naive(now), Some(0), "naive does not");
    }

    #[test]
    fn stale_epoch_completions_are_dropped() {
        let mut set = pool(1);
        let t0 = SimTime::from_millis(1);
        let epoch = set.start(0, Some(()), t0);
        // A DBE kills the in-flight job.
        let dbe = FaultEvent {
            at: SimTime::from_millis(2),
            device: 0,
            kind: FaultKind::EccDoubleBit,
            duration: SimTime::ZERO,
        };
        assert_eq!(
            set.apply_fault(&dbe, SimTime::from_millis(2)),
            FaultImpact::JobKilled { job: () }
        );
        assert!(!set.get(0).is_busy());
        assert_eq!(
            set.finish_job(0, epoch, SimTime::from_millis(3)),
            None,
            "stale completion must be ignored"
        );
    }

    #[test]
    fn a_hung_device_completes_nothing_until_a_kill_frees_it() {
        let mut set = pool(1);
        let epoch = set.start(0, None, SimTime::from_millis(1));
        assert!(set.get(0).is_busy());
        assert_eq!(set.running(0, epoch), None);
        assert_eq!(set.finish_job(0, epoch, SimTime::from_millis(2)), None);
        assert!(
            set.get(0).is_busy(),
            "nobody expects a hung job's completion"
        );
        assert_eq!(set.kill_job(0, SimTime::from_millis(3)), None);
        assert!(!set.get(0).is_busy());
        let epoch = set.start(0, Some(()), SimTime::from_millis(4));
        assert_eq!(set.jobs().collect::<Vec<_>>(), [(0, epoch, &())]);
        assert_eq!(set.kill_job(0, SimTime::from_millis(5)), Some(()));
        assert_eq!(set.jobs().count(), 0);
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut set = pool(1);
        let epoch = set.start(0, Some(()), SimTime::ZERO);
        assert_eq!(
            set.finish_job(0, epoch, SimTime::from_millis(500)),
            Some(())
        );
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
