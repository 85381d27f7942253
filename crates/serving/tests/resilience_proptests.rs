//! Property tests for the resilience layer's contracts: backoff delays
//! are bounded and monotone, retries never exceed the attempt cap, the
//! health machine never revives an offline device without probation, and
//! the pool's maintained availability count matches a full scan.

use mtia_core::SimTime;
use mtia_serving::resilience::device::DeviceSet;
use mtia_serving::resilience::health::{HealthConfig, HealthMachine, HealthState};
use mtia_serving::resilience::retry::RetryPolicy;
use mtia_sim::faults::{FaultEvent, FaultKind};
use proptest::collection::vec;
use proptest::prelude::*;

fn policy(base_ms: u64, multiplier: f64, max_ms: u64, jitter: f64, attempts: u32) -> RetryPolicy {
    RetryPolicy {
        base_delay: SimTime::from_millis(base_ms),
        multiplier,
        max_delay: SimTime::from_millis(max_ms),
        jitter,
        max_attempts: attempts,
        deadline: SimTime::from_secs(10),
    }
}

/// The availability integral as a full scan over all `n` devices at
/// every tick computes it: the reference for the pool's maintained
/// count.
struct ScanIntegral {
    n: u32,
    accum: f64,
    last: SimTime,
}

impl ScanIntegral {
    fn count(&self, set: &DeviceSet<()>, at: SimTime) -> usize {
        (0..self.n)
            .map(|id| set.get(id))
            .filter(|d| d.health.is_dispatchable() && d.faults.reachable(at))
            .count()
    }

    fn tick(&mut self, set: &DeviceSet<()>, now: SimTime) {
        let span = now.saturating_sub(self.last).as_secs_f64();
        if span > 0.0 {
            self.accum += span * self.count(set, self.last) as f64;
            self.last = now;
        }
    }

    fn availability(&self, set: &DeviceSet<()>, now: SimTime) -> f64 {
        let span = now.as_secs_f64();
        if span <= 0.0 || self.n == 0 {
            return 1.0;
        }
        let mut accum = self.accum;
        let tail = now.saturating_sub(self.last).as_secs_f64();
        if tail > 0.0 {
            accum += tail * self.count(set, self.last) as f64;
        }
        accum / (span * self.n as f64)
    }
}

/// A fault of kind `pick` (every windowed kind, NIC flaps included, and
/// the two job-killing instantaneous ones), its parameters drawn from
/// `w`.
fn any_fault_kind(pick: u64, w: u64) -> FaultKind {
    let frac = (w % 1_000) as f64 / 1_000.0;
    match pick % 14 {
        0 => FaultKind::EccSingleBitBurst {
            flips: (w % 50) as u32,
        },
        1 => FaultKind::EccDoubleBit,
        2 => FaultKind::PcieLinkLoss {
            min_utilization: frac,
        },
        3 => FaultKind::NocStall {
            slowdown: 1.0 + frac,
        },
        4 => FaultKind::TransientJobFailure,
        5 => FaultKind::HostCrash,
        6 => FaultKind::RackPowerLoss,
        7 => FaultKind::NicPartition,
        8 => FaultKind::PodLoss,
        9 => FaultKind::RegionOutage,
        10 => FaultKind::WanPartition,
        11 => FaultKind::ThermalThrottle {
            ramp_s: 0.01 + frac,
            floor: 0.2 + frac / 2.0,
        },
        12 => FaultKind::MemoryRetentionDegradation {
            slowdown_per_hour: frac,
        },
        // Short cycles so reachability flips many times between events;
        // a zero loss fraction never drops the device.
        _ => FaultKind::NicFlap {
            period_s: 0.005 + (w % 200) as f64 / 1_000.0,
            loss_frac: if w.is_multiple_of(5) { 0.0 } else { frac },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Backoff delays never exceed `max_delay · (1 + jitter)` and never
    /// decrease as the retry count grows, for any policy shape, seed,
    /// and request id.
    #[test]
    fn backoff_is_bounded_and_monotone(
        base_ms in 1u64..50,
        multiplier in 1.0f64..4.0,
        max_ms in 50u64..2000,
        jitter in 0.0f64..0.99,
        seed in any::<u64>(),
        request in any::<u64>(),
    ) {
        let p = policy(base_ms, multiplier, max_ms, jitter, 8);
        let mut prev = SimTime::ZERO;
        for retry in 1..=10u32 {
            let d = p.backoff_delay(retry, seed, request);
            prop_assert!(d >= p.base_delay, "delay below base at retry {}", retry);
            prop_assert!(d >= prev, "delay decreased at retry {}", retry);
            prop_assert!(d <= p.delay_bound(), "delay above bound at retry {}", retry);
            prev = d;
        }
    }

    /// However many failures arrive, the policy authorizes at most
    /// `max_attempts` total attempts — no retry storms.
    #[test]
    fn attempt_cap_is_never_exceeded(
        max_attempts in 1u32..10,
        failures in 0u32..64,
    ) {
        let p = policy(2, 2.0, 100, 0.25, max_attempts);
        let mut attempts = 0u32;
        for _ in 0..=failures {
            attempts += 1; // the attempt itself
            if !p.allows_retry(attempts) {
                break;
            }
        }
        prop_assert!(attempts <= p.max_attempts);
        prop_assert!(!p.allows_retry(p.max_attempts));
    }

    /// Whatever the event sequence, every transition the machine takes is
    /// a legal edge, and `Offline` never reaches `Healthy` without
    /// passing through `Recovering`.
    #[test]
    fn health_machine_never_skips_probation(ops in vec(any::<u8>(), 0..200)) {
        let mut machine = HealthMachine::new(HealthConfig {
            degrade_after_errors: 2,
            offline_after_errors: 3,
            rehabilitate_after_successes: 3,
            probation_successes: 2,
        });
        for (i, op) in ops.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            match op % 5 {
                0 | 1 => machine.observe_error(now),
                2 => machine.observe_success(now),
                3 => machine.begin_recovery(now),
                _ => machine.begin_drain(now),
            }
        }
        for &(_, from, to) in machine.transitions() {
            prop_assert!(
                HealthState::legal(from, to),
                "illegal edge {:?} -> {:?}", from, to
            );
            prop_assert!(
                !(from == HealthState::Offline && to == HealthState::Healthy),
                "offline device revived without probation"
            );
        }
    }

    /// The pool's availability integral is exactly the time-weighted mean
    /// of `dispatchable_count()/len()` sampled at every state-change
    /// boundary — for any sequence of correlated link/partition faults
    /// against an idle pool.
    #[test]
    fn availability_integrates_the_dispatchable_fraction(
        n in 1u32..8,
        raw in vec(any::<u64>(), 1..24),
    ) {
        let mut set = DeviceSet::<()>::new(n, HealthConfig::default(), SimTime::from_secs(1));
        // Decompose each word into (device, kind, at, duration) fields.
        let mut events: Vec<FaultEvent> = raw
            .into_iter()
            .map(|w| FaultEvent {
                at: SimTime::from_millis(1 + (w >> 16) % 5_000),
                device: (w as u32) % n,
                kind: match (w >> 8) % 3 {
                    0 => FaultKind::HostCrash,
                    1 => FaultKind::RackPowerLoss,
                    _ => FaultKind::NicPartition,
                },
                duration: SimTime::from_millis(1 + (w >> 32) % 2_000),
            })
            .collect();
        events.sort_by_key(|e| e.at);

        // Shadow integral: between boundaries the dispatchable fraction
        // is constant (interval-start sample, matching `tick`).
        let mut shadow = 0.0f64;
        let mut last = SimTime::ZERO;
        let mut frac = set.dispatchable_count(SimTime::ZERO) as f64 / n as f64;
        for event in &events {
            shadow += frac * event.at.saturating_sub(last).as_secs_f64();
            set.apply_fault(event, event.at);
            last = event.at;
            frac = set.dispatchable_count(event.at) as f64 / n as f64;
        }
        let horizon = last + SimTime::from_secs(1);
        shadow += frac * horizon.saturating_sub(last).as_secs_f64();
        let shadow_mean = shadow / horizon.as_secs_f64();

        let actual = set.availability(horizon);
        prop_assert!(
            (actual - shadow_mean).abs() < 1e-9,
            "availability {} != shadow integral {}", actual, shadow_mean
        );
        prop_assert!((0.0..=1.0).contains(&actual));
    }

    /// The availability the pool keeps by counting steady devices and
    /// evaluating only timed and dirty ones equals, bit for bit, the
    /// integral a full scan computes — under random interleavings of
    /// faults of every windowed kind (NIC flaps change reachability with
    /// no event), health transitions and fault expiry through `get_mut`,
    /// acquires, completions and kills, at random non-decreasing times, with
    /// and without an explicit tick before a `get_mut` change.
    #[test]
    fn maintained_availability_matches_a_full_scan(
        n in 1u32..12,
        words in vec(any::<u64>(), 0..320),
    ) {
        let mut set = DeviceSet::new(n, HealthConfig::default(), SimTime::from_millis(200));
        let mut scan = ScanIntegral { n, accum: 0.0, last: SimTime::ZERO };
        // The epoch each device's latest job started under.
        let mut started = vec![0u64; n as usize];
        let mut now = SimTime::ZERO;
        for pair in words.chunks_exact(2) {
            // `w` picks the step, device and time; `v` a fault's shape.
            let (w, v) = (pair[0], pair[1]);
            let op = w as u8;
            // A quarter of the steps stay at the same instant.
            now += SimTime::from_micros((w >> 32) % 40_000 * u64::from(op & 3 != 0));
            let device = ((w >> 8) as u32) % n;
            let ticked = op & 4 != 0;
            if ticked {
                scan.tick(&set, now);
                set.tick(now);
            }
            let step = (op >> 3) % 12;
            if step <= 6 {
                // These steps tick the pool before they change it.
                scan.tick(&set, now);
            }
            match step {
                0..=3 => {
                    let event = FaultEvent {
                        at: now + SimTime::from_micros(v % 4 * 5_000),
                        device,
                        kind: any_fault_kind(v >> 2, v >> 8),
                        duration: SimTime::from_micros(1 + (v >> 32) % 300_000),
                    };
                    set.apply_fault(&event, now);
                }
                4 | 5 => {
                    let picked = if step == 4 {
                        set.pick_resilient(now)
                    } else {
                        set.pick_naive(now)
                    };
                    if let Some(id) = picked {
                        started[id as usize] = set.start(id, Some(()), now);
                    }
                }
                6 => {
                    // Sometimes a stale epoch, which changes nothing.
                    let epoch = started[device as usize].saturating_sub(v % 2);
                    set.finish_job(device, epoch, now);
                }
                // Changes through `get_mut`, which does not tick.
                7 => set.get_mut(device).faults.expire(now),
                8 => set.get_mut(device).health.observe_error(now),
                9 => set.get_mut(device).health.observe_success(now),
                10 => {
                    let health = &mut set.get_mut(device).health;
                    match v % 3 {
                        0 => health.begin_drain(now),
                        1 => health.set_offline(now),
                        _ => health.begin_recovery(now),
                    }
                }
                _ => {
                    set.kill_job(device, now);
                }
            }
            if (w >> 24) % 4 == 0 {
                prop_assert_eq!(
                    set.availability(now).to_bits(),
                    scan.availability(&set, now).to_bits(),
                    "mid-run availability at {:?}", now
                );
            }
        }
        let end = now + SimTime::from_millis(250);
        prop_assert_eq!(
            set.availability(end).to_bits(),
            scan.availability(&set, end).to_bits()
        );
        scan.tick(&set, end);
        set.tick(end);
        prop_assert_eq!(
            set.availability(end).to_bits(),
            scan.availability(&set, end).to_bits()
        );
    }
}

/// `Offline` cannot reach `Healthy` through the legal-edge graph without
/// passing `Recovering`: with `Recovering` deleted from the graph,
/// `Healthy` is unreachable from `Offline`. This closes the per-sequence
/// property above over *all* sequences.
#[test]
fn offline_cannot_reach_healthy_without_recovering() {
    const STATES: [HealthState; 5] = [
        HealthState::Healthy,
        HealthState::Degraded,
        HealthState::Draining,
        HealthState::Offline,
        HealthState::Recovering,
    ];
    let mut reachable = vec![HealthState::Offline];
    let mut frontier = vec![HealthState::Offline];
    while let Some(from) = frontier.pop() {
        for to in STATES {
            if to != HealthState::Recovering
                && HealthState::legal(from, to)
                && !reachable.contains(&to)
            {
                reachable.push(to);
                frontier.push(to);
            }
        }
    }
    assert!(
        !reachable.contains(&HealthState::Healthy),
        "a path revives Offline without probation: {reachable:?}"
    );
}
