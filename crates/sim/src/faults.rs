//! Deterministic, seedable device-fault injection (§5).
//!
//! The paper's productionization lessons are about *surviving* faults:
//! LPDDR bit flips (§5.1), the PCIe-connectivity deadlock that ~1 % of
//! servers hit under 100 % PE-utilization stress (§5.5), and the staged
//! rollouts that contain escaped defects. This module turns those fault
//! processes into a replayable artifact: a [`FaultPlan`] is generated once
//! from a `u64` seed and then *injected* into any simulated device fleet
//! by walking [`FaultPlan::events`] in time order, so a resilient serving
//! policy and a naive baseline can be compared under byte-identical fault
//! traces.
//!
//! Fault taxonomy (each maps to a paper mechanism):
//!
//! * [`FaultKind::EccSingleBitBurst`] — correctable SBE windows from the
//!   §5.1 memory-error process ([`MemoryErrorModel`]): the device keeps
//!   serving but ECC scrubbing inflates service times.
//! * [`FaultKind::EccDoubleBit`] — uncorrectable DBE: the job running on
//!   the device at injection time fails and must be retried.
//! * [`FaultKind::PcieLinkLoss`] — the §5.5 failure mode: the device drops
//!   off the PCIe bus, but only when trailing PE utilization is at or
//!   above the arming threshold (the deadlock needs sustained load).
//! * [`FaultKind::NocStall`] — transient NoC congestion: service times
//!   inflate by a multiplicative slowdown for the window.
//! * [`FaultKind::TransientJobFailure`] — a one-off runtime/descriptor
//!   error; the running job fails, the device is otherwise fine.
//! * [`FaultKind::LpddrBitFlip`] — an ECC-off §5.1 bit flip landing in a
//!   specific model memory region. The event is instantaneous but the
//!   corruption *persists* in the device's memory image until something
//!   scrubs or reloads it; the SDC-defense layer
//!   (`mtia_serving::sdc`) owns that lingering state, not
//!   [`DeviceFaultState`]. The region vocabulary is shared with the
//!   offline `mtia_model::error_inject` campaigns
//!   ([`InjectionTarget`]) so traces and campaigns describe corruption
//!   in the same terms.
//!
//! Correlated fault domains (§2 server spec, §5.5 blast radius): the
//! fleet is multi-device hosts in racks, so the outages that threaten
//! serving SLOs are *correlated* — a host crash or a rack power event
//! takes out every attached device at once. Three kinds model that:
//!
//! * [`FaultKind::HostCrash`] — kernel panic / PCIe root-port loss: every
//!   device on the host drops simultaneously, in-flight work dies, and
//!   the devices return only after the host reboots (the event window).
//! * [`FaultKind::RackPowerLoss`] — the same failure shape at rack /
//!   power-domain blast radius with a longer restoration window.
//! * [`FaultKind::NicPartition`] — a network partition: the devices stay
//!   up and finish what they hold, but nothing new can reach them until
//!   the partition heals.
//!
//! The region-scale disaster ladder extends the same shapes above the
//! pod: [`FaultKind::PodLoss`] and [`FaultKind::RegionOutage`] are
//! host-crash-shaped losses at pod and region blast radius, and
//! [`FaultKind::WanPartition`] is a NIC-partition-shaped isolation of a
//! whole region's WAN links. The global-router layer
//! (`mtia_serving::global`) interprets their fan-out at pod/region
//! granularity.
//!
//! These kinds are *per-device events like any other* — a domain-level
//! injection fans out to one event per member device via
//! [`FaultPlan::with_correlated_event`], so correlated plans compose
//! with the independent per-device processes of [`FaultPlan::generate`]
//! and replay under the same clock, fingerprint, and determinism
//! guarantees. The domain tree itself (device → module → host → rack →
//! power domain) lives in `mtia_fleet::topology`, which supplies the
//! member-device sets.

use std::cmp::Ordering;

use mtia_core::fnv::Fnv1a;
use mtia_core::SimTime;
use mtia_model::error_inject::InjectionTarget;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mem::lpddr::MemoryErrorModel;

/// Index of a device within the simulated fleet.
pub type DeviceId = u32;

/// Service-time inflation per in-window corrected single-bit flip.
pub const SBE_SLOWDOWN_PER_FLIP: f64 = 0.01;

/// Cap on the total SBE service-time inflation factor.
pub const SBE_SLOWDOWN_CAP: f64 = 1.5;

/// What a single injected fault does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Correctable single-bit-error burst of `flips` flips over the event
    /// window. The device stays online but runs slower.
    EccSingleBitBurst {
        /// Corrected flips in the burst.
        flips: u32,
    },
    /// Uncorrectable double-bit error: fails the job running on the device
    /// at injection time. Instantaneous.
    EccDoubleBit,
    /// §5.5 PCIe connectivity loss. Arms only if the device's trailing PE
    /// utilization is at least `min_utilization` when the event fires; the
    /// link stays down for the event window (a host-driven reset).
    PcieLinkLoss {
        /// Utilization threshold below which the event does not trigger.
        min_utilization: f64,
    },
    /// NoC congestion: service times multiply by `slowdown` (≥ 1) for the
    /// event window.
    NocStall {
        /// Multiplicative service-time inflation.
        slowdown: f64,
    },
    /// One-off transient job failure. Instantaneous.
    TransientJobFailure,
    /// §5.1 with ECC off: a single bit flips somewhere in the device's
    /// LPDDR-resident model memory. `word` indexes a word within the
    /// region (interpreted modulo the region's size by whoever owns the
    /// memory image) and `bit` is the bit position within that word.
    /// Instantaneous to inject; persistent until scrubbed/reloaded.
    LpddrBitFlip {
        /// Which model memory region the flip lands in (shared with the
        /// offline injection campaigns).
        region: InjectionTarget,
        /// Word index within the region (reduce modulo region size).
        word: u32,
        /// Bit position within the word (0 = LSB, < 32).
        bit: u32,
    },
    /// Correlated host loss: the device (and every sibling on the same
    /// host — the fan-out is the injector's job) drops off at once. Any
    /// in-flight job is lost and the device stays down for the event
    /// window (the host reboot).
    HostCrash,
    /// Correlated rack/power-domain loss: identical device-level effect
    /// to [`FaultKind::HostCrash`], injected at a larger blast radius
    /// and typically with a longer restoration window.
    RackPowerLoss,
    /// Network partition: the device is unreachable for the window —
    /// no new work can be dispatched — but it stays powered, so the job
    /// it already holds completes normally.
    NicPartition,
    /// Correlated pod loss: a whole serving pod (hundreds of devices
    /// behind one fleet-level failure domain — a spine switch, a pod
    /// power bus) drops at once. Device-level effect identical to
    /// [`FaultKind::HostCrash`], injected at pod blast radius.
    PodLoss,
    /// Correlated region outage: every pod of a region goes dark — the
    /// §4.1 disaster case the global router exists to survive. Device-
    /// level effect identical to [`FaultKind::HostCrash`], with a
    /// restoration window measured in region-recovery time.
    RegionOutage,
    /// WAN partition: the region's devices stay up and keep serving
    /// what they hold, but the region is unreachable across the WAN
    /// until the partition heals — the device-level shape of
    /// [`FaultKind::NicPartition`] at region blast radius.
    WanPartition,
    /// Fail-slow thermal throttling (§5.2/§5.3: silicon run near its
    /// frequency and power margins). Effective device speed ramps
    /// linearly from 1.0 down to `floor` over the first `ramp_s`
    /// seconds of the window and holds there until the window ends —
    /// the device passes every liveness probe while its service times
    /// inflate by up to `1 / floor`. The per-device `floor` is seeded
    /// from the `fleet::overclock` frequency-margin distribution: a
    /// low-margin chip throttles deeper.
    ThermalThrottle {
        /// Seconds over which the throttle worsens to its floor.
        ramp_s: f64,
        /// Final speed fraction in `(0, 1]` (0.25 = 4× slower).
        floor: f64,
    },
    /// Fail-slow memory-retention degradation (§5.1 margins): refresh
    /// overhead grows as cells weaken, inflating service times by
    /// `slowdown_per_hour × hours since onset`. Progressive and does
    /// **not** self-heal — the event's `duration` is ignored; only a
    /// device swap (outside the plan) ends it.
    MemoryRetentionDegradation {
        /// Service-time inflation added per hour after onset.
        slowdown_per_hour: f64,
    },
    /// Intermittent NIC flap — the hardest case for threshold
    /// detectors. Within the window the device is unreachable for the
    /// first `loss_frac` of every `period_s`-second cycle and healthy
    /// the rest: any single probe is likely to pass, yet dispatched
    /// work repeatedly stalls behind the dead phases.
    NicFlap {
        /// Flap cycle length in seconds.
        period_s: f64,
        /// Unreachable fraction of each cycle, in `[0, 1]`.
        loss_frac: f64,
    },
}

impl FaultKind {
    /// Whether the fault is a zero-width event (fails a job, leaves no
    /// lingering condition).
    pub fn is_instantaneous(&self) -> bool {
        matches!(
            self,
            FaultKind::EccDoubleBit
                | FaultKind::TransientJobFailure
                | FaultKind::LpddrBitFlip { .. }
        )
    }

    /// Whether the fault is fail-slow: the device keeps passing
    /// liveness probes (it is up, reachable at least intermittently,
    /// and serving) while its effective performance degrades. These
    /// kinds never take capacity down through crash paths.
    pub fn is_fail_slow(&self) -> bool {
        matches!(
            self,
            FaultKind::ThermalThrottle { .. }
                | FaultKind::MemoryRetentionDegradation { .. }
                | FaultKind::NicFlap { .. }
        )
    }

    fn fingerprint_words(&self) -> (u64, u64) {
        match *self {
            FaultKind::EccSingleBitBurst { flips } => (1, flips as u64),
            FaultKind::EccDoubleBit => (2, 0),
            FaultKind::PcieLinkLoss { min_utilization } => (3, min_utilization.to_bits()),
            FaultKind::NocStall { slowdown } => (4, slowdown.to_bits()),
            FaultKind::TransientJobFailure => (5, 0),
            // region (2 bits) | word (32 bits) | bit (5 bits) pack exactly.
            FaultKind::LpddrBitFlip { region, word, bit } => (
                6,
                ((region_tag(region) as u64) << 37) | ((word as u64) << 5) | bit as u64,
            ),
            FaultKind::HostCrash => (7, 0),
            FaultKind::RackPowerLoss => (8, 0),
            FaultKind::NicPartition => (9, 0),
            FaultKind::PodLoss => (10, 0),
            FaultKind::RegionOutage => (11, 0),
            FaultKind::WanPartition => (12, 0),
            // Two-f64 kinds fold both parameters into one word; the
            // rotation keeps (a, b) and (b, a) from colliding.
            FaultKind::ThermalThrottle { ramp_s, floor } => {
                (13, ramp_s.to_bits().rotate_left(17) ^ floor.to_bits())
            }
            FaultKind::MemoryRetentionDegradation { slowdown_per_hour } => {
                (14, slowdown_per_hour.to_bits())
            }
            FaultKind::NicFlap {
                period_s,
                loss_frac,
            } => (15, period_s.to_bits().rotate_left(17) ^ loss_frac.to_bits()),
        }
    }
}

/// One timed fault against one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Injection time.
    pub at: SimTime,
    /// Target device.
    pub device: DeviceId,
    /// Fault class and parameters.
    pub kind: FaultKind,
    /// Window over which the condition persists (`ZERO` for instantaneous
    /// kinds).
    pub duration: SimTime,
}

impl FaultEvent {
    /// End of the fault window.
    pub fn until(&self) -> SimTime {
        self.at + self.duration
    }
}

/// Rates driving [`FaultPlan::generate`]. All rates are per device over
/// the plan horizon unless noted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanConfig {
    /// Fraction of devices that are §5.1 error-prone (SBE bursts land only
    /// on these). The production survey value is
    /// `MemoryErrorModel::production().per_card_rate` ≈ 1.14 %.
    pub error_prone_card_rate: f64,
    /// Mean SBE bursts per error-prone device over the horizon.
    pub sbe_bursts_per_prone_device: f64,
    /// Mean flips per SBE burst.
    pub mean_flips_per_burst: f64,
    /// Mean DBEs per device over the horizon (any device).
    pub dbe_per_device: f64,
    /// Mean §5.5 PCIe-loss events per device over the horizon.
    pub pcie_loss_per_device: f64,
    /// Utilization threshold arming PCIe-loss events.
    pub pcie_min_utilization: f64,
    /// Mean NoC-stall windows per device over the horizon.
    pub noc_stalls_per_device: f64,
    /// Mean transient job failures per device over the horizon.
    pub transient_failures_per_device: f64,
    /// Mean ECC-off LPDDR bit flips per error-prone device over the
    /// horizon ([`FaultKind::LpddrBitFlip`]). Zero in ECC-on worlds —
    /// controller ECC corrects single-bit errors before the model sees
    /// them — so the PR-1 presets leave this at 0.0.
    pub bit_flips_per_prone_device: f64,
    /// Mean fault-window length (SBE bursts, NoC stalls).
    pub mean_window: SimTime,
    /// Time a lost PCIe link stays down before the host resets the card.
    pub pcie_reset_after: SimTime,
    /// Mean fail-slow [`FaultKind::ThermalThrottle`] windows per device
    /// over the horizon. Zero (the legacy presets) draws nothing from
    /// the RNG, so older plans replay byte-identically.
    pub thermal_throttles_per_device: f64,
    /// Mean thermal-throttle window length.
    pub throttle_window: SimTime,
    /// Seconds over which a throttle worsens to its floor.
    pub throttle_ramp: SimTime,
    /// `(mean_ghz, std_ghz)` of the silicon frequency-margin
    /// distribution seeding per-device throttle depth — the §5.2
    /// numbers `fleet::overclock::SiliconMargin::production()` uses. A
    /// chip sampled below the mean throttles proportionally deeper.
    pub throttle_margin_ghz: (f64, f64),
    /// Mean [`FaultKind::MemoryRetentionDegradation`] onsets per device
    /// over the horizon. Zero in the legacy presets.
    pub retention_degradations_per_device: f64,
    /// Service-time inflation added per hour by a retention onset.
    pub retention_slowdown_per_hour: f64,
    /// Mean [`FaultKind::NicFlap`] windows per device over the horizon.
    /// Zero in the legacy presets.
    pub nic_flaps_per_device: f64,
    /// Flap cycle period.
    pub flap_period: SimTime,
    /// Unreachable fraction of each flap cycle.
    pub flap_loss_frac: f64,
}

impl FaultPlanConfig {
    /// Calibrated to the paper's fleet observations, compressed onto a
    /// simulation horizon: §5.1 card rates, stress-level §5.5 incidence.
    pub fn production() -> Self {
        let survey = MemoryErrorModel::production();
        FaultPlanConfig {
            error_prone_card_rate: survey.per_card_rate,
            sbe_bursts_per_prone_device: survey.flips_per_day,
            mean_flips_per_burst: 4.0,
            dbe_per_device: 0.05,
            pcie_loss_per_device: 0.01,
            pcie_min_utilization: 0.9,
            noc_stalls_per_device: 0.2,
            transient_failures_per_device: 0.5,
            bit_flips_per_prone_device: 0.0,
            mean_window: SimTime::from_millis(500),
            pcie_reset_after: SimTime::from_secs(5),
            ..Self::fail_slow_off()
        }
    }

    /// An aggressive plan for resilience stress tests: every fault class
    /// is frequent enough to hit a short horizon many times.
    pub fn stress() -> Self {
        FaultPlanConfig {
            error_prone_card_rate: 0.5,
            sbe_bursts_per_prone_device: 6.0,
            mean_flips_per_burst: 10.0,
            dbe_per_device: 3.0,
            pcie_loss_per_device: 1.0,
            pcie_min_utilization: 0.5,
            noc_stalls_per_device: 2.0,
            transient_failures_per_device: 6.0,
            bit_flips_per_prone_device: 0.0,
            mean_window: SimTime::from_millis(800),
            pcie_reset_after: SimTime::from_secs(3),
            ..Self::fail_slow_off()
        }
    }

    /// The §5.1 ECC-off study world: LPDDR bit flips reach model memory
    /// and nothing else interferes, so the SDC-defense sweep isolates
    /// corruption detection from the PR-1 availability machinery. Every
    /// device is treated as exposed (no ECC means no prone/clean split).
    pub fn sdc_study() -> Self {
        FaultPlanConfig {
            error_prone_card_rate: 1.0,
            sbe_bursts_per_prone_device: 0.0,
            mean_flips_per_burst: 0.0,
            dbe_per_device: 0.0,
            pcie_loss_per_device: 0.0,
            pcie_min_utilization: 1.0,
            noc_stalls_per_device: 0.0,
            transient_failures_per_device: 0.0,
            bit_flips_per_prone_device: 6.0,
            mean_window: SimTime::from_millis(500),
            pcie_reset_after: SimTime::from_secs(5),
            ..Self::fail_slow_off()
        }
    }

    /// A pure gray-failure world: thermal throttles, retention drift,
    /// and NIC flaps on an otherwise fault-free fleet, so the
    /// outlier-detector studies isolate fail-slow from fail-stop.
    pub fn gray_stress() -> Self {
        FaultPlanConfig {
            thermal_throttles_per_device: 1.0,
            retention_degradations_per_device: 0.2,
            nic_flaps_per_device: 0.6,
            ..Self::fail_slow_off()
        }
    }

    /// The fail-slow parameter block with every *rate* at zero: plans
    /// generated by the legacy presets draw nothing from the RNG for
    /// these classes and replay byte-identically. The non-rate
    /// parameters carry production-flavored values (§5.2 margin
    /// distribution, minutes-long throttle windows) so any preset can
    /// switch a class on by raising its rate alone. The base carries
    /// zero legacy rates too, so `gray_stress()` builds on it directly.
    pub fn fail_slow_off() -> Self {
        FaultPlanConfig {
            error_prone_card_rate: 0.0,
            sbe_bursts_per_prone_device: 0.0,
            mean_flips_per_burst: 0.0,
            dbe_per_device: 0.0,
            pcie_loss_per_device: 0.0,
            pcie_min_utilization: 1.0,
            noc_stalls_per_device: 0.0,
            transient_failures_per_device: 0.0,
            bit_flips_per_prone_device: 0.0,
            mean_window: SimTime::from_millis(500),
            pcie_reset_after: SimTime::from_secs(5),
            thermal_throttles_per_device: 0.0,
            throttle_window: SimTime::from_secs(120),
            throttle_ramp: SimTime::from_secs(30),
            // SiliconMargin::production(): 1.72 GHz mean, 0.09 GHz σ.
            throttle_margin_ghz: (1.72, 0.09),
            retention_degradations_per_device: 0.0,
            retention_slowdown_per_hour: 0.5,
            nic_flaps_per_device: 0.0,
            flap_period: SimTime::from_secs(10),
            flap_loss_frac: 0.25,
        }
    }
}

/// Maps a chip's sampled maximum frequency against the fleet margin
/// distribution `(mean_ghz, std_ghz)` to a thermal-throttle speed
/// floor: a chip one σ below the mean throttles to ~33 %, a chip one σ
/// above holds ~57 %, clamped to `[0.15, 0.85]`. Shared with the
/// chaos-preset builders so handcrafted gray-failure events and
/// generated plans seed throttle depth identically.
pub fn throttle_floor(freq_ghz: f64, mean_ghz: f64, std_ghz: f64) -> f64 {
    let z = if std_ghz > 0.0 {
        (freq_ghz - mean_ghz) / std_ghz
    } else {
        0.0
    };
    (0.45 + 0.12 * z).clamp(0.15, 0.85)
}

/// Stable per-region tag used in fingerprints and region sampling.
fn region_tag(region: InjectionTarget) -> u8 {
    match region {
        InjectionTarget::DenseWeights => 0,
        InjectionTarget::EmbeddingRows => 1,
        InjectionTarget::TbeIndices => 2,
        InjectionTarget::Activations => 3,
    }
}

/// Samples a flip region with the §5.1 byte-share weights: ~90 % of model
/// DRAM holds embedding rows; indices, dense weights, and activation
/// scratch split the rest (matching the blend `mtia_fleet::memerr` uses).
fn sample_region(rng: &mut StdRng) -> InjectionTarget {
    let u: f64 = rng.gen();
    if u < 0.88 {
        InjectionTarget::EmbeddingRows
    } else if u < 0.93 {
        InjectionTarget::TbeIndices
    } else if u < 0.98 {
        InjectionTarget::DenseWeights
    } else {
        InjectionTarget::Activations
    }
}

/// A deterministic, replayable schedule of fault injections.
///
/// Events are kept sorted by `(at, device)`; two plans generated from the
/// same `(config, devices, horizon, seed)` are identical, and
/// [`FaultPlan::fingerprint`] gives a cheap equality witness for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (healthy-fleet baseline) tagged with `seed`.
    pub fn empty(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Generates a plan for `devices` devices over `horizon` from `seed`.
    ///
    /// Each fault class is an independent Poisson process per device;
    /// event times, windows, and parameters are drawn from a dedicated RNG
    /// stream so the plan is a pure function of the arguments.
    pub fn generate(config: &FaultPlanConfig, devices: u32, horizon: SimTime, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let span = horizon.as_secs_f64();
        for device in 0..devices {
            let prone = rng.gen_bool(config.error_prone_card_rate.clamp(0.0, 1.0));
            let push_windows =
                |rng: &mut StdRng,
                 events: &mut Vec<FaultEvent>,
                 mean_count: f64,
                 make: &dyn Fn(&mut StdRng) -> (FaultKind, SimTime)| {
                    let n = sample_count(rng, mean_count);
                    for _ in 0..n {
                        let at = SimTime::from_secs_f64(rng.gen::<f64>() * span);
                        let (kind, duration) = make(rng);
                        events.push(FaultEvent {
                            at,
                            device,
                            kind,
                            duration,
                        });
                    }
                };
            if prone {
                let mean_flips = config.mean_flips_per_burst;
                let mean_window = config.mean_window;
                push_windows(
                    &mut rng,
                    &mut events,
                    config.sbe_bursts_per_prone_device,
                    &move |rng| {
                        let flips = 1 + sample_count(rng, mean_flips - 1.0);
                        (
                            FaultKind::EccSingleBitBurst { flips },
                            exp_window(rng, mean_window),
                        )
                    },
                );
                push_windows(
                    &mut rng,
                    &mut events,
                    config.bit_flips_per_prone_device,
                    &|rng| {
                        let region = sample_region(rng);
                        let word = rng.gen::<u32>();
                        let bit = rng.gen_range(0..32);
                        (FaultKind::LpddrBitFlip { region, word, bit }, SimTime::ZERO)
                    },
                );
            }
            let mean_window = config.mean_window;
            push_windows(&mut rng, &mut events, config.dbe_per_device, &|_rng| {
                (FaultKind::EccDoubleBit, SimTime::ZERO)
            });
            let min_util = config.pcie_min_utilization;
            let reset = config.pcie_reset_after;
            push_windows(
                &mut rng,
                &mut events,
                config.pcie_loss_per_device,
                &move |_rng| {
                    (
                        FaultKind::PcieLinkLoss {
                            min_utilization: min_util,
                        },
                        reset,
                    )
                },
            );
            push_windows(
                &mut rng,
                &mut events,
                config.noc_stalls_per_device,
                &move |rng| {
                    let slowdown = 1.5 + 2.0 * rng.gen::<f64>();
                    (
                        FaultKind::NocStall { slowdown },
                        exp_window(rng, mean_window),
                    )
                },
            );
            push_windows(
                &mut rng,
                &mut events,
                config.transient_failures_per_device,
                &|_rng| (FaultKind::TransientJobFailure, SimTime::ZERO),
            );
            // Fail-slow classes draw after every legacy class so plans
            // from the older presets (all these rates zero) consume an
            // identical RNG stream and replay byte-identically.
            let ramp_s = config.throttle_ramp.as_secs_f64();
            let throttle_window = config.throttle_window;
            let (margin_mean, margin_std) = config.throttle_margin_ghz;
            push_windows(
                &mut rng,
                &mut events,
                config.thermal_throttles_per_device,
                &move |rng| {
                    // Box–Muller sample of the chip's frequency margin
                    // (the §5.2 distribution): low-margin silicon
                    // throttles deeper.
                    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = rng.gen::<f64>();
                    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    let freq = margin_mean + margin_std * z;
                    (
                        FaultKind::ThermalThrottle {
                            ramp_s,
                            floor: throttle_floor(freq, margin_mean, margin_std),
                        },
                        exp_window(rng, throttle_window),
                    )
                },
            );
            let slowdown_per_hour = config.retention_slowdown_per_hour;
            push_windows(
                &mut rng,
                &mut events,
                config.retention_degradations_per_device,
                &move |_rng| {
                    // Duration is ignored for retention (it never
                    // self-heals); ZERO keeps the fingerprint honest.
                    (
                        FaultKind::MemoryRetentionDegradation { slowdown_per_hour },
                        SimTime::ZERO,
                    )
                },
            );
            let period_s = config.flap_period.as_secs_f64();
            let loss_frac = config.flap_loss_frac;
            push_windows(
                &mut rng,
                &mut events,
                config.nic_flaps_per_device,
                &move |rng| {
                    (
                        FaultKind::NicFlap {
                            period_s,
                            loss_frac,
                        },
                        exp_window(rng, mean_window.scale(8.0)),
                    )
                },
            );
        }
        let mut plan = FaultPlan { seed, events };
        plan.sort();
        plan
    }

    /// Adds one event (keeps the plan sorted). Builder for handcrafted
    /// scenario tests and the fleet-rollout integration.
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self.sort();
        self
    }

    /// Fans a correlated domain-level fault out to every member device:
    /// one event per device, all at `at` with the same `kind` and
    /// `duration`, so a host crash or rack power loss hits its whole
    /// blast radius on the same simulation instant. The member set comes
    /// from the fault-domain topology (`mtia_fleet::topology`); passing
    /// it as plain device ids keeps this crate topology-agnostic.
    pub fn with_correlated_event(
        mut self,
        members: impl IntoIterator<Item = DeviceId>,
        at: SimTime,
        kind: FaultKind,
        duration: SimTime,
    ) -> Self {
        for device in members {
            self.events.push(FaultEvent {
                at,
                device,
                kind,
                duration,
            });
        }
        self.sort();
        self
    }

    fn sort(&mut self) {
        self.events.sort_by(|a, b| match a.at.cmp(&b.at) {
            Ordering::Equal => a.device.cmp(&b.device),
            other => other,
        });
    }

    /// The seed the plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The full sorted schedule.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// FNV-1a digest over every event field: two plans with equal
    /// fingerprints injected the same trace. Reports embed this so
    /// "compared under identical fault traces" is checkable.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::default();
        hash.word(self.seed);
        for e in &self.events {
            hash.word(e.at.as_picos());
            hash.word(e.device as u64);
            let (tag, param) = e.kind.fingerprint_words();
            hash.word(tag);
            hash.word(param);
            hash.word(e.duration.as_picos());
        }
        hash.finish()
    }
}

fn exp_window(rng: &mut StdRng, mean: SimTime) -> SimTime {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    mean.scale(-u.ln())
}

/// A Poisson count with the given mean, by inversion (the means here are
/// small, under 20).
fn sample_count(rng: &mut StdRng, mean: f64) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    let limit = (-mean).exp();
    let mut product: f64 = 1.0;
    let mut count = 0u32;
    loop {
        product *= rng.gen::<f64>();
        if product <= limit {
            return count;
        }
        count += 1;
    }
}

/// The lingering fault conditions on one device, updated as events are
/// applied and queried by schedulers for service-time and connectivity
/// effects.
#[derive(Debug, Clone, Default)]
pub struct DeviceFaultState {
    /// Active `(until, slowdown)` NoC-stall windows.
    stalls: Vec<(SimTime, f64)>,
    /// Active `(until, flips)` SBE-burst windows.
    sbe: Vec<(SimTime, u32)>,
    /// When a lost PCIe link comes back (`None` = link up). Host crashes
    /// and rack power losses land here too: the device is gone either way.
    link_down_until: Option<SimTime>,
    /// When a network partition heals (`None` = reachable). Unlike a
    /// downed link, a partitioned device keeps running what it holds.
    partitioned_until: Option<SimTime>,
    /// Active `(start, until, ramp_s, floor)` thermal-throttle windows.
    throttles: Vec<(SimTime, SimTime, f64, f64)>,
    /// `(onset, slowdown_per_hour)` retention degradations — these
    /// never expire (the fault does not self-heal).
    retentions: Vec<(SimTime, f64)>,
    /// Active `(start, until, period_s, loss_frac)` NIC-flap windows.
    flaps: Vec<(SimTime, SimTime, f64, f64)>,
}

impl DeviceFaultState {
    /// A healthy device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a windowed fault event. Instantaneous kinds
    /// ([`FaultKind::is_instantaneous`]) are scheduler business (they fail
    /// the running job) and are ignored here. Returns `true` if the event
    /// armed (a `PcieLinkLoss` below its utilization threshold does not).
    pub fn apply(&mut self, event: &FaultEvent, trailing_utilization: f64) -> bool {
        match event.kind {
            FaultKind::EccSingleBitBurst { flips } => {
                self.sbe.push((event.until(), flips));
                true
            }
            FaultKind::NocStall { slowdown } => {
                self.stalls.push((event.until(), slowdown));
                true
            }
            FaultKind::PcieLinkLoss { min_utilization } => {
                if trailing_utilization + 1e-12 >= min_utilization {
                    self.extend_link_down(event.until());
                    true
                } else {
                    false
                }
            }
            // Correlated domain kinds arm unconditionally: a host crash or
            // power loss does not care how busy the device was. Pod and
            // region losses are the same device-level effect at a larger
            // blast radius.
            FaultKind::HostCrash
            | FaultKind::RackPowerLoss
            | FaultKind::PodLoss
            | FaultKind::RegionOutage => {
                self.extend_link_down(event.until());
                true
            }
            FaultKind::NicPartition | FaultKind::WanPartition => {
                let until = event.until();
                self.partitioned_until = Some(match self.partitioned_until {
                    Some(existing) => existing.max(until),
                    None => until,
                });
                true
            }
            // Fail-slow kinds arm unconditionally: margin pressure does
            // not care how busy the device is.
            FaultKind::ThermalThrottle { ramp_s, floor } => {
                self.throttles.push((
                    event.at,
                    event.until(),
                    ramp_s.max(f64::MIN_POSITIVE),
                    floor.clamp(0.05, 1.0),
                ));
                true
            }
            FaultKind::MemoryRetentionDegradation { slowdown_per_hour } => {
                self.retentions.push((event.at, slowdown_per_hour.max(0.0)));
                true
            }
            FaultKind::NicFlap {
                period_s,
                loss_frac,
            } => {
                self.flaps.push((
                    event.at,
                    event.until(),
                    period_s.max(f64::MIN_POSITIVE),
                    loss_frac.clamp(0.0, 1.0),
                ));
                true
            }
            // Instantaneous kinds leave no windowed condition here; a
            // bit flip's persistence lives in the memory image owned by
            // the SDC layer, not in the link/slowdown state.
            FaultKind::EccDoubleBit
            | FaultKind::TransientJobFailure
            | FaultKind::LpddrBitFlip { .. } => false,
        }
    }

    fn extend_link_down(&mut self, until: SimTime) {
        self.link_down_until = Some(match self.link_down_until {
            Some(existing) => existing.max(until),
            None => until,
        });
    }

    /// Drops expired windows. Retention degradations never expire.
    pub fn expire(&mut self, now: SimTime) {
        self.stalls.retain(|&(until, _)| until > now);
        self.sbe.retain(|&(until, _)| until > now);
        self.throttles.retain(|&(_, until, _, _)| until > now);
        self.flaps.retain(|&(_, until, _, _)| until > now);
        if let Some(until) = self.link_down_until {
            if until <= now {
                self.link_down_until = None;
            }
        }
        if let Some(until) = self.partitioned_until {
            if until <= now {
                self.partitioned_until = None;
            }
        }
    }

    /// Whether the PCIe link is up at `now`.
    #[inline]
    pub fn link_up(&self, now: SimTime) -> bool {
        match self.link_down_until {
            Some(until) => now >= until,
            None => true,
        }
    }

    /// Whether the device can be reached for *new* work at `now`: link
    /// up, no active network partition, and not inside the dead phase
    /// of a NIC-flap cycle.
    #[inline]
    pub fn reachable(&self, now: SimTime) -> bool {
        self.link_up(now)
            && match self.partitioned_until {
                Some(until) => now >= until,
                None => true,
            }
            && !self.in_flap_loss(now)
    }

    /// Whether `now` falls in the unreachable phase of any active flap
    /// window. Each cycle starts dead: the flap is observable from its
    /// injection instant.
    #[inline]
    fn in_flap_loss(&self, now: SimTime) -> bool {
        self.flaps.iter().any(|&(start, until, period_s, loss)| {
            if now < start || now >= until || loss <= 0.0 {
                return false;
            }
            let elapsed = now.saturating_sub(start).as_secs_f64();
            let phase = (elapsed / period_s).fract();
            phase < loss
        })
    }

    /// Whether [`reachable`](Self::reachable) holds at `now` and at
    /// every later instant until another event is applied: no link-loss,
    /// partition or lossy flap window ends after `now`. A `false` is
    /// conservative: a flap whose next dead phase falls past its window
    /// still counts, so callers must evaluate such a device with
    /// `reachable`.
    #[inline]
    pub fn reachable_from(&self, now: SimTime) -> bool {
        self.link_down_until.is_none_or(|until| until <= now)
            && self.partitioned_until.is_none_or(|until| until <= now)
            && self
                .flaps
                .iter()
                .all(|&(_, until, _, loss)| until <= now || loss <= 0.0)
    }

    /// The earliest instant strictly after `now` at which the device
    /// may become reachable again, or `None` if it already is. Flap
    /// cycles make reachability non-monotone, so callers should
    /// re-check at the returned instant and reschedule if needed.
    pub fn next_reachable_at(&self, now: SimTime) -> Option<SimTime> {
        if self.reachable(now) {
            return None;
        }
        let mut t = now;
        // A handful of passes resolves any stack of link, partition,
        // and flap phases; flap windows are finite so the fallback of
        // the latest window end always terminates the search.
        for _ in 0..8 {
            let mut next = t;
            if let Some(until) = self.link_down_until {
                if t < until {
                    next = next.max(until);
                }
            }
            if let Some(until) = self.partitioned_until {
                if t < until {
                    next = next.max(until);
                }
            }
            for &(start, until, period_s, loss) in &self.flaps {
                if t < start || t >= until || loss <= 0.0 {
                    continue;
                }
                let elapsed = t.saturating_sub(start).as_secs_f64();
                let phase = (elapsed / period_s).fract();
                if phase < loss {
                    let clear = start
                        + SimTime::from_secs_f64((elapsed - phase * period_s) + loss * period_s);
                    next = next.max(clear.min(until));
                }
            }
            if next > t && self.reachable(next) {
                return Some(next);
            }
            if next == t {
                break;
            }
            t = next;
        }
        let fallback = self
            .flaps
            .iter()
            .map(|&(_, until, _, _)| until)
            .max()
            .unwrap_or(t)
            .max(t);
        Some(fallback.max(now + SimTime::from_millis(1)))
    }

    /// When the link recovers (if currently down).
    pub fn link_recovers_at(&self) -> Option<SimTime> {
        self.link_down_until
    }

    /// When the active partition heals (if currently partitioned).
    pub fn partition_heals_at(&self) -> Option<SimTime> {
        self.partitioned_until
    }

    /// Multiplicative service-time inflation from all active windows.
    /// Fail-slow factors are *time-varying*: a thermal throttle bites
    /// deeper as it ramps, and retention drift grows with hours since
    /// onset.
    pub fn service_time_factor(&self, now: SimTime) -> f64 {
        let mut factor = 1.0;
        for &(until, slowdown) in &self.stalls {
            if until > now {
                factor *= slowdown;
            }
        }
        for &(until, flips) in &self.sbe {
            if until > now {
                factor *= (1.0 + SBE_SLOWDOWN_PER_FLIP * flips as f64).min(SBE_SLOWDOWN_CAP);
            }
        }
        for &(start, until, ramp_s, floor) in &self.throttles {
            if start <= now && until > now {
                let progress = (now.saturating_sub(start).as_secs_f64() / ramp_s).clamp(0.0, 1.0);
                let speed = 1.0 + (floor - 1.0) * progress;
                factor *= 1.0 / speed;
            }
        }
        for &(onset, per_hour) in &self.retentions {
            if onset <= now {
                let hours = now.saturating_sub(onset).as_secs_f64() / 3600.0;
                factor *= 1.0 + per_hour * hours;
            }
        }
        factor
    }

    /// Whether any fault condition is currently active.
    pub fn is_clean(&self, now: SimTime) -> bool {
        self.reachable(now)
            && !self.stalls.iter().any(|&(until, _)| until > now)
            && !self.sbe.iter().any(|&(until, _)| until > now)
            && !self
                .throttles
                .iter()
                .any(|&(start, until, _, _)| start <= now && until > now)
            && !self.retentions.iter().any(|&(onset, _)| onset <= now)
            && !self
                .flaps
                .iter()
                .any(|&(start, until, _, _)| start <= now && until > now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stress_plan(seed: u64) -> FaultPlan {
        FaultPlan::generate(&FaultPlanConfig::stress(), 8, SimTime::from_secs(60), seed)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = stress_plan(42);
        let b = stress_plan(42);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = stress_plan(43);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn events_are_sorted_and_in_horizon() {
        let plan = stress_plan(1);
        assert!(!plan.events().is_empty());
        assert!(plan.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(plan.events().iter().all(|e| e.at <= SimTime::from_secs(60)));
        assert!(plan.events().iter().all(|e| e.device < 8));
    }

    #[test]
    fn stress_plan_covers_every_fault_class() {
        let plan = stress_plan(2);
        let has = |pred: &dyn Fn(&FaultKind) -> bool| plan.events().iter().any(|e| pred(&e.kind));
        assert!(has(&|k| matches!(k, FaultKind::EccSingleBitBurst { .. })));
        assert!(has(&|k| matches!(k, FaultKind::EccDoubleBit)));
        assert!(has(&|k| matches!(k, FaultKind::PcieLinkLoss { .. })));
        assert!(has(&|k| matches!(k, FaultKind::NocStall { .. })));
        assert!(has(&|k| matches!(k, FaultKind::TransientJobFailure)));
    }

    #[test]
    fn production_rates_are_sparse() {
        let plan = FaultPlan::generate(
            &FaultPlanConfig::production(),
            1000,
            SimTime::from_secs(60),
            7,
        );
        // ~1.14 % of 1000 cards are prone; windowed faults stay rare.
        let sbe = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::EccSingleBitBurst { .. }))
            .count();
        assert!(sbe < 200, "sbe bursts {sbe}");
        let prone_devices: std::collections::BTreeSet<_> = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::EccSingleBitBurst { .. }))
            .map(|e| e.device)
            .collect();
        assert!(
            (prone_devices.len() as f64) < 0.05 * 1000.0,
            "prone devices {}",
            prone_devices.len()
        );
    }

    #[test]
    fn sdc_study_plans_are_pure_bit_flip_traces() {
        let plan = FaultPlan::generate(
            &FaultPlanConfig::sdc_study(),
            8,
            SimTime::from_secs(60),
            DEFAULT_SEED_FOR_TESTS,
        );
        assert!(!plan.events().is_empty());
        assert!(plan
            .events()
            .iter()
            .all(|e| matches!(e.kind, FaultKind::LpddrBitFlip { .. })));
        assert!(plan.events().iter().all(|e| e.duration == SimTime::ZERO));
        // The §5.1 byte-share weighting makes embedding rows dominate.
        let rows = plan
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::LpddrBitFlip {
                        region: InjectionTarget::EmbeddingRows,
                        ..
                    }
                )
            })
            .count();
        assert!(
            rows * 2 > plan.events().len(),
            "embedding rows must dominate: {rows}/{}",
            plan.events().len()
        );
    }

    const DEFAULT_SEED_FOR_TESTS: u64 = 0x5dc;

    #[test]
    fn bit_flip_rate_zero_leaves_legacy_plans_unchanged() {
        // PR-1 presets must generate byte-identical traces after the
        // bit-flip extension: a zero mean draws nothing from the RNG.
        let plan = FaultPlan::generate(&FaultPlanConfig::stress(), 8, SimTime::from_secs(60), 42);
        assert!(!plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::LpddrBitFlip { .. })));
    }

    #[test]
    fn bit_flip_fingerprints_separate_region_word_bit() {
        let mk = |region, word, bit| {
            FaultPlan::empty(1).with_event(FaultEvent {
                at: SimTime::from_secs(1),
                device: 0,
                kind: FaultKind::LpddrBitFlip { region, word, bit },
                duration: SimTime::ZERO,
            })
        };
        let a = mk(InjectionTarget::EmbeddingRows, 7, 3);
        let b = mk(InjectionTarget::TbeIndices, 7, 3);
        let c = mk(InjectionTarget::EmbeddingRows, 8, 3);
        let d = mk(InjectionTarget::EmbeddingRows, 7, 4);
        let fps = [
            a.fingerprint(),
            b.fingerprint(),
            c.fingerprint(),
            d.fingerprint(),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "events {i} and {j} collide");
            }
        }
    }

    #[test]
    fn with_event_keeps_events_in_time_order() {
        let plan = FaultPlan::empty(0)
            .with_event(FaultEvent {
                at: SimTime::from_secs(10),
                device: 0,
                kind: FaultKind::EccDoubleBit,
                duration: SimTime::ZERO,
            })
            .with_event(FaultEvent {
                at: SimTime::from_secs(5),
                device: 1,
                kind: FaultKind::TransientJobFailure,
                duration: SimTime::ZERO,
            });
        let devices: Vec<DeviceId> = plan.events().iter().map(|e| e.device).collect();
        assert_eq!(devices, [1, 0], "added later but due earlier, so first");
    }

    #[test]
    fn pcie_loss_requires_utilization() {
        let event = FaultEvent {
            at: SimTime::from_secs(1),
            device: 0,
            kind: FaultKind::PcieLinkLoss {
                min_utilization: 0.9,
            },
            duration: SimTime::from_secs(5),
        };
        let mut idle = DeviceFaultState::new();
        assert!(!idle.apply(&event, 0.3), "idle device must not arm §5.5");
        assert!(idle.link_up(SimTime::from_secs(2)));

        let mut busy = DeviceFaultState::new();
        assert!(busy.apply(&event, 0.97));
        assert!(!busy.link_up(SimTime::from_secs(2)));
        assert!(
            busy.link_up(SimTime::from_secs(6)),
            "reset restores the link"
        );
        assert_eq!(busy.link_recovers_at(), Some(SimTime::from_secs(6)));
    }

    #[test]
    fn service_factor_stacks_and_expires() {
        let mut state = DeviceFaultState::new();
        state.apply(
            &FaultEvent {
                at: SimTime::ZERO,
                device: 0,
                kind: FaultKind::NocStall { slowdown: 2.0 },
                duration: SimTime::from_secs(10),
            },
            0.0,
        );
        state.apply(
            &FaultEvent {
                at: SimTime::ZERO,
                device: 0,
                kind: FaultKind::EccSingleBitBurst { flips: 10 },
                duration: SimTime::from_secs(4),
            },
            0.0,
        );
        let early = state.service_time_factor(SimTime::from_secs(1));
        assert!((early - 2.0 * 1.1).abs() < 1e-9, "stacked factor {early}");
        let later = state.service_time_factor(SimTime::from_secs(5));
        assert!((later - 2.0).abs() < 1e-9, "sbe window expired: {later}");
        state.expire(SimTime::from_secs(11));
        assert!(state.is_clean(SimTime::from_secs(11)));
        assert_eq!(state.service_time_factor(SimTime::from_secs(11)), 1.0);
    }

    #[test]
    fn correlated_event_fans_out_to_every_member() {
        let plan = FaultPlan::empty(9).with_correlated_event(
            4..8,
            SimTime::from_secs(3),
            FaultKind::HostCrash,
            SimTime::from_secs(10),
        );
        assert_eq!(plan.events().len(), 4);
        assert!(plan.events().iter().all(|e| {
            e.at == SimTime::from_secs(3)
                && e.kind == FaultKind::HostCrash
                && e.duration == SimTime::from_secs(10)
        }));
        let devices: Vec<_> = plan.events().iter().map(|e| e.device).collect();
        assert_eq!(devices, vec![4, 5, 6, 7], "sorted by device at equal time");
        // Composable with an independent per-device plan: the merged plan
        // stays sorted and the fingerprint covers both.
        let merged = plan.clone().with_event(FaultEvent {
            at: SimTime::from_secs(1),
            device: 0,
            kind: FaultKind::EccDoubleBit,
            duration: SimTime::ZERO,
        });
        assert_eq!(merged.events()[0].device, 0);
        assert_ne!(merged.fingerprint(), plan.fingerprint());
    }

    #[test]
    fn host_crash_arms_regardless_of_utilization() {
        let event = FaultEvent {
            at: SimTime::from_secs(1),
            device: 0,
            kind: FaultKind::HostCrash,
            duration: SimTime::from_secs(8),
        };
        let mut idle = DeviceFaultState::new();
        assert!(idle.apply(&event, 0.0), "host crashes ignore utilization");
        assert!(!idle.link_up(SimTime::from_secs(2)));
        assert!(!idle.reachable(SimTime::from_secs(2)));
        assert!(idle.link_up(SimTime::from_secs(9)), "host reboot restores");
    }

    #[test]
    fn partition_blocks_reachability_but_not_the_link() {
        let event = FaultEvent {
            at: SimTime::from_secs(1),
            device: 0,
            kind: FaultKind::NicPartition,
            duration: SimTime::from_secs(5),
        };
        let mut state = DeviceFaultState::new();
        assert!(state.apply(&event, 0.0));
        let mid = SimTime::from_secs(3);
        assert!(state.link_up(mid), "partitioned device is still powered");
        assert!(!state.reachable(mid), "but nothing new can reach it");
        assert_eq!(state.partition_heals_at(), Some(SimTime::from_secs(6)));
        assert!(state.reachable(SimTime::from_secs(6)));
        state.expire(SimTime::from_secs(7));
        assert!(state.is_clean(SimTime::from_secs(7)));
    }

    #[test]
    fn reachable_from_holds_only_once_every_window_has_ended() {
        let s = SimTime::from_secs;
        let mut state = DeviceFaultState::new();
        assert!(state.reachable_from(SimTime::ZERO));
        let crash = FaultEvent {
            at: s(1),
            device: 0,
            kind: FaultKind::HostCrash,
            duration: s(4),
        };
        state.apply(&crash, 0.0);
        assert!(!state.reachable_from(s(1)));
        assert!(state.reachable_from(s(5)), "no expire needed");
        // A lossless flap never drops the device; a lossy one does
        // until its window ends, even before its start.
        let flap = |loss_frac| FaultEvent {
            at: s(10),
            device: 0,
            kind: FaultKind::NicFlap {
                period_s: 1.0,
                loss_frac,
            },
            duration: s(10),
        };
        state.apply(&flap(0.0), 0.0);
        assert!(state.reachable_from(s(5)));
        state.apply(&flap(0.5), 0.0);
        assert!(!state.reachable_from(s(5)));
        assert!(state.reachable(s(5)) && !state.reachable(s(10)));
        assert!(state.reachable_from(s(20)));
    }

    #[test]
    fn correlated_kind_fingerprints_are_distinct() {
        let mk = |kind| {
            FaultPlan::empty(1).with_event(FaultEvent {
                at: SimTime::from_secs(1),
                device: 0,
                kind,
                duration: SimTime::from_secs(2),
            })
        };
        let fps = [
            mk(FaultKind::HostCrash).fingerprint(),
            mk(FaultKind::RackPowerLoss).fingerprint(),
            mk(FaultKind::NicPartition).fingerprint(),
            mk(FaultKind::PodLoss).fingerprint(),
            mk(FaultKind::RegionOutage).fingerprint(),
            mk(FaultKind::WanPartition).fingerprint(),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "kinds {i} and {j} collide");
            }
        }
        assert!(!FaultKind::HostCrash.is_instantaneous());
    }

    #[test]
    fn region_scale_kinds_mirror_their_host_scale_shapes() {
        for kind in [
            FaultKind::PodLoss,
            FaultKind::RegionOutage,
            FaultKind::WanPartition,
        ] {
            assert!(!kind.is_instantaneous());
        }
        // Pod/region losses take the link down regardless of load.
        let loss = FaultEvent {
            at: SimTime::from_secs(1),
            device: 0,
            kind: FaultKind::RegionOutage,
            duration: SimTime::from_secs(30),
        };
        let mut state = DeviceFaultState::new();
        assert!(state.apply(&loss, 0.0));
        assert!(!state.link_up(SimTime::from_secs(2)));
        assert!(state.link_up(SimTime::from_secs(31)));
        // A WAN partition isolates without powering the device down.
        let part = FaultEvent {
            at: SimTime::from_secs(1),
            device: 0,
            kind: FaultKind::WanPartition,
            duration: SimTime::from_secs(5),
        };
        let mut state = DeviceFaultState::new();
        assert!(state.apply(&part, 0.0));
        assert!(state.link_up(SimTime::from_secs(2)));
        assert!(!state.reachable(SimTime::from_secs(2)));
        assert!(state.reachable(SimTime::from_secs(6)));
    }

    #[test]
    fn fail_slow_rates_zero_leave_legacy_plans_unchanged() {
        // The fail-slow extension must not perturb older presets: a
        // zero mean draws nothing from the RNG, so stress() plans are
        // byte-identical to their pre-extension form.
        let plan = stress_plan(42);
        assert!(!plan.events().iter().any(|e| e.kind.is_fail_slow()));
        assert_eq!(plan, stress_plan(42));
    }

    #[test]
    fn gray_stress_generates_only_fail_slow_events() {
        let plan = FaultPlan::generate(
            &FaultPlanConfig::gray_stress(),
            32,
            SimTime::from_secs(300),
            11,
        );
        assert!(!plan.events().is_empty());
        assert!(plan.events().iter().all(|e| e.kind.is_fail_slow()));
        let has = |pred: &dyn Fn(&FaultKind) -> bool| plan.events().iter().any(|e| pred(&e.kind));
        assert!(has(&|k| matches!(k, FaultKind::ThermalThrottle { .. })));
        assert!(has(&|k| matches!(
            k,
            FaultKind::MemoryRetentionDegradation { .. }
        )));
        assert!(has(&|k| matches!(k, FaultKind::NicFlap { .. })));
        // Margin-seeded floors vary per event and stay in range.
        let floors: Vec<f64> = plan
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::ThermalThrottle { floor, .. } => Some(floor),
                _ => None,
            })
            .collect();
        assert!(floors.iter().all(|f| (0.15..=0.85).contains(f)));
        assert!(
            floors.windows(2).any(|w| w[0] != w[1]),
            "floors must vary with sampled silicon margin"
        );
    }

    #[test]
    fn thermal_throttle_ramps_and_recovers() {
        let mut state = DeviceFaultState::new();
        state.apply(
            &FaultEvent {
                at: SimTime::from_secs(10),
                device: 0,
                kind: FaultKind::ThermalThrottle {
                    ramp_s: 20.0,
                    floor: 0.25,
                },
                duration: SimTime::from_secs(60),
            },
            0.0,
        );
        // Before onset: clean.
        assert_eq!(state.service_time_factor(SimTime::from_secs(5)), 1.0);
        // Mid-ramp (t = 20 s, halfway): speed 0.625 → factor 1.6.
        let mid = state.service_time_factor(SimTime::from_secs(20));
        assert!((mid - 1.0 / 0.625).abs() < 1e-9, "mid-ramp factor {mid}");
        // Fully ramped: 4× slower, and it worsened monotonically.
        let deep = state.service_time_factor(SimTime::from_secs(40));
        assert!((deep - 4.0).abs() < 1e-9, "floored factor {deep}");
        assert!(deep > mid);
        // The device stays reachable the whole time — it passes probes.
        assert!(state.reachable(SimTime::from_secs(40)));
        assert!(!state.is_clean(SimTime::from_secs(40)));
        // Window end restores full speed.
        assert_eq!(state.service_time_factor(SimTime::from_secs(71)), 1.0);
        state.expire(SimTime::from_secs(71));
        assert!(state.is_clean(SimTime::from_secs(71)));
    }

    #[test]
    fn retention_degradation_grows_and_never_heals() {
        let mut state = DeviceFaultState::new();
        state.apply(
            &FaultEvent {
                at: SimTime::from_secs(100),
                device: 0,
                kind: FaultKind::MemoryRetentionDegradation {
                    slowdown_per_hour: 2.0,
                },
                duration: SimTime::ZERO,
            },
            0.0,
        );
        let half_hour = state.service_time_factor(SimTime::from_secs(100 + 1800));
        assert!(
            (half_hour - 2.0).abs() < 1e-9,
            "half-hour factor {half_hour}"
        );
        let two_hours = state.service_time_factor(SimTime::from_secs(100 + 7200));
        assert!(
            (two_hours - 5.0).abs() < 1e-9,
            "two-hour factor {two_hours}"
        );
        // Expiry never clears it: the device needs a swap, not time.
        state.expire(SimTime::from_secs(100_000));
        assert!(!state.is_clean(SimTime::from_secs(100_000)));
        assert!(state.service_time_factor(SimTime::from_secs(100_000)) > 5.0);
    }

    #[test]
    fn nic_flap_is_intermittent_and_schedulable() {
        let mut state = DeviceFaultState::new();
        state.apply(
            &FaultEvent {
                at: SimTime::from_secs(10),
                device: 0,
                kind: FaultKind::NicFlap {
                    period_s: 4.0,
                    loss_frac: 0.25,
                },
                duration: SimTime::from_secs(20),
            },
            0.0,
        );
        // Each 4 s cycle starts with 1 s dead, then 3 s alive.
        assert!(state.reachable(SimTime::from_secs(9)));
        assert!(!state.reachable(SimTime::from_millis(10_500)));
        assert!(state.reachable(SimTime::from_millis(11_500)));
        assert!(!state.reachable(SimTime::from_millis(14_200)));
        // The wake-up helper lands exactly on the phase boundary and is
        // None when already reachable.
        let wake = state
            .next_reachable_at(SimTime::from_millis(10_500))
            .expect("unreachable now");
        assert_eq!(wake, SimTime::from_secs(11));
        assert!(state.reachable(wake));
        assert!(state.next_reachable_at(wake).is_none());
        // After the window the flap is gone entirely.
        assert!(state.reachable(SimTime::from_millis(30_100)));
        state.expire(SimTime::from_secs(31));
        assert!(state.is_clean(SimTime::from_secs(31)));
        // Probes keep passing during the alive phases — the detector
        // cannot rely on liveness alone.
        assert!(!FaultKind::NicFlap {
            period_s: 4.0,
            loss_frac: 0.25
        }
        .is_instantaneous());
    }

    #[test]
    fn fail_slow_fingerprints_separate_parameters() {
        let mk = |kind| {
            FaultPlan::empty(1).with_event(FaultEvent {
                at: SimTime::from_secs(1),
                device: 0,
                kind,
                duration: SimTime::from_secs(30),
            })
        };
        let fps = [
            mk(FaultKind::ThermalThrottle {
                ramp_s: 30.0,
                floor: 0.25,
            })
            .fingerprint(),
            mk(FaultKind::ThermalThrottle {
                ramp_s: 0.25,
                floor: 30.0,
            })
            .fingerprint(),
            mk(FaultKind::ThermalThrottle {
                ramp_s: 30.0,
                floor: 0.5,
            })
            .fingerprint(),
            mk(FaultKind::MemoryRetentionDegradation {
                slowdown_per_hour: 0.25,
            })
            .fingerprint(),
            mk(FaultKind::NicFlap {
                period_s: 30.0,
                loss_frac: 0.25,
            })
            .fingerprint(),
            mk(FaultKind::NicFlap {
                period_s: 0.25,
                loss_frac: 30.0,
            })
            .fingerprint(),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "kinds {i} and {j} collide");
            }
        }
        assert!(FaultKind::ThermalThrottle {
            ramp_s: 1.0,
            floor: 0.5
        }
        .is_fail_slow());
        assert!(!FaultKind::HostCrash.is_fail_slow());
    }

    #[test]
    fn throttle_floor_tracks_silicon_margin() {
        // One σ below the mean bites deeper than one σ above.
        let low = throttle_floor(1.63, 1.72, 0.09);
        let high = throttle_floor(1.81, 1.72, 0.09);
        assert!(low < high, "low-margin {low} vs high-margin {high}");
        assert!((0.15..=0.85).contains(&low));
        assert!((0.15..=0.85).contains(&high));
        // Degenerate σ stays at the midpoint instead of dividing by 0.
        assert!((throttle_floor(2.0, 1.72, 0.0) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn sbe_slowdown_is_capped() {
        let mut state = DeviceFaultState::new();
        state.apply(
            &FaultEvent {
                at: SimTime::ZERO,
                device: 0,
                kind: FaultKind::EccSingleBitBurst { flips: 1000 },
                duration: SimTime::from_secs(1),
            },
            0.0,
        );
        assert_eq!(state.service_time_factor(SimTime::ZERO), SBE_SLOWDOWN_CAP);
    }
}
