//! Property tests for the global router's hard invariants: request
//! accounting conserves *exactly* under arbitrary fault storms, and a
//! WAN-partitioned region never exchanges traffic with the rest of the
//! fleet — audited against the exact `routed[ingress][pod]` witness
//! matrix every simulation reports. A regional trace round-trips its
//! arrivals exactly through the per-region column layout.

use mtia_core::SimTime;
use mtia_serving::global::{
    build_regional_trace, simulate_global, GlobalArrival, GlobalConfig, GlobalFleetSpec, Priority,
    RegionalTrace, RegionalTrafficConfig, RoutingPolicy,
};
use mtia_sim::faults::{FaultEvent, FaultKind, FaultPlan};
use proptest::collection::vec;
use proptest::prelude::*;

/// Random fleet shapes that stay cheap to simulate, decoded from one
/// word (the vendored proptest subset has no tuple strategies).
fn decode_spec(raw: u64) -> GlobalFleetSpec {
    let regions = 2 + (raw & 1) as u32; // 2..=3
    let pods = 1 + ((raw >> 1) % 3) as u32; // 1..=3
    let devices = 2 + ((raw >> 3) % 5) as u32; // 2..=6
    let wan_ms = 20 + ((raw >> 6) % 100); // 20..=119
    GlobalFleetSpec::symmetric(regions, pods, devices, SimTime::from_millis(wan_ms))
        .expect("decoded dimensions are non-zero")
}

/// A random fault storm: each packed word decodes to one
/// `(device, kind, at, duration)` event remapped onto the fleet.
fn storm_plan(spec: &GlobalFleetSpec, storm: &[u64], seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::empty(seed);
    for &raw in storm {
        let kind = match raw & 3 {
            0 => FaultKind::PodLoss,
            1 => FaultKind::RegionOutage,
            2 => FaultKind::HostCrash,
            _ => FaultKind::WanPartition,
        };
        plan = plan.with_event(FaultEvent {
            at: SimTime::from_millis((raw >> 2) % 12_000),
            device: ((raw >> 17) as u32) % spec.devices(),
            kind,
            duration: SimTime::from_millis(100 + (raw >> 40) % 9_900),
        });
    }
    plan
}

fn small_trace(
    spec: &GlobalFleetSpec,
    rate: f64,
    seed: u64,
) -> mtia_serving::global::RegionalTrace {
    let horizon = SimTime::from_secs(10);
    let traffic = RegionalTrafficConfig::production(rate, horizon);
    build_regional_trace(&traffic, spec.regions, horizon, seed)
}

/// Arrivals sorted by `(at, region)`, one per word: a time step of
/// 0–3 ms (0 makes a tie), a region in `0..4` (so some regions stay
/// empty) and a priority bit. The stable sort keeps equal keys in word
/// order, which the trace must replay as given.
fn decode_arrivals(words: &[u64]) -> Vec<GlobalArrival> {
    let mut now = 0;
    let mut arrivals: Vec<GlobalArrival> = words
        .iter()
        .map(|&w| {
            now += w & 3;
            GlobalArrival {
                at: SimTime::from_millis(now),
                region: ((w >> 2) % 4) as u32,
                priority: if w >> 4 & 1 == 1 {
                    Priority::Low
                } else {
                    Priority::High
                },
            }
        })
        .collect();
    arrivals.sort_by_key(|a| (a.at, a.region));
    arrivals
}

/// The FNV-1a trace fingerprint, recomputed from the plain arrivals.
fn reference_fingerprint(arrivals: &[GlobalArrival]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for a in arrivals {
        let low = u64::from(a.priority == Priority::Low);
        for word in [a.at.as_picos(), a.region as u64, low] {
            for byte in word.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    hash
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `new(v)` replays `v` exactly — ties within and across regions,
    /// empty regions and the empty trace included — with the same
    /// length and fingerprint, and equal inputs build equal traces.
    #[test]
    fn trace_round_trips_its_arrivals(words in vec(any::<u64>(), 0..200)) {
        // Every case also covers the empty trace and a prefix.
        for n in [0, words.len() / 2, words.len()] {
            let arrivals = decode_arrivals(&words[..n]);
            let trace = RegionalTrace::new(arrivals.clone()).expect("sorted input");
            let replayed: Vec<GlobalArrival> = trace.arrivals().collect();
            prop_assert_eq!(&replayed, &arrivals);
            prop_assert_eq!(trace.len(), arrivals.len());
            prop_assert_eq!(trace.is_empty(), arrivals.is_empty());
            prop_assert_eq!(trace.fingerprint(), reference_fingerprint(&arrivals));
            prop_assert_eq!(&RegionalTrace::new(replayed).expect("sorted input"), &trace);
        }
    }

    /// Every offered request is answered, shed, or lost — exactly, with
    /// the loss breakdown summing too, under arbitrary fault storms and
    /// every routing policy. The routed matrix is the cross-check:
    /// requests reach a pod queue iff they were neither shed nor
    /// unroutable.
    #[test]
    fn accounting_conserves_exactly_under_fault_storms(
        spec_raw in any::<u64>(),
        storm in vec(any::<u64>(), 0..8),
        rate in 2.0f64..20.0,
        seed in any::<u64>(),
    ) {
        let spec = decode_spec(spec_raw);
        let trace = small_trace(&spec, rate, seed);
        let plan = storm_plan(&spec, &storm, seed ^ 0xD15A57E2);
        for policy in [
            RoutingPolicy::StaticLocal,
            RoutingPolicy::HealthAware,
            RoutingPolicy::GrayResilient,
            RoutingPolicy::NaiveRetry,
            RoutingPolicy::OverloadResilient,
        ] {
            let r = simulate_global(&spec, &GlobalConfig::production(seed), &trace, &plan, policy);
            prop_assert_eq!(r.offered, trace.len() as u64);
            prop_assert_eq!(
                r.offered,
                r.served_full + r.served_degraded + r.shed + r.lost,
                "{:?}: conservation leak", policy
            );
            prop_assert_eq!(
                r.lost,
                r.lost_unroutable + r.lost_killed + r.lost_deadline,
                "{:?}: loss breakdown leak", policy
            );
            let enqueued: u64 = r.routed.iter().flatten().sum();
            prop_assert_eq!(
                enqueued,
                r.offered - r.shed - r.lost_unroutable,
                "{:?}: routed matrix disagrees with admission accounting", policy
            );
            // Every copy past a request's first ends as at most one
            // suppressed duplicate or cancellation, and only a hedge
            // copy can win as a hedge.
            prop_assert!(
                r.duplicates_suppressed + r.hedges_cancelled <= r.hedges_issued + r.retries_issued,
                "{:?}: more duplicate outcomes than extra copies", policy
            );
            prop_assert!(r.hedge_wins <= r.hedges_issued, "{:?}: hedge wins", policy);
            // Each mechanism counts only under the arm that arms it.
            if policy != RoutingPolicy::GrayResilient {
                prop_assert_eq!(r.hedges_issued, 0, "{:?}: hedges", policy);
            }
            if !matches!(policy, RoutingPolicy::NaiveRetry | RoutingPolicy::OverloadResilient) {
                prop_assert_eq!(r.retries_issued, 0, "{:?}: retries", policy);
            }
            if policy != RoutingPolicy::OverloadResilient {
                prop_assert_eq!(
                    (r.retries_shed, r.breaker_opens, r.cancelled_at_admission),
                    (0, 0, 0),
                    "{:?}: overload defenses", policy
                );
            }
        }
    }

    /// A region WAN-partitioned for the whole run exchanges zero
    /// requests with the rest of the fleet in either direction: its
    /// ingress stays on its own pods and no other region's traffic
    /// lands on them.
    #[test]
    fn partitioned_region_never_exchanges_traffic(
        spec_raw in any::<u64>(),
        victim_raw in any::<u32>(),
        rate in 2.0f64..20.0,
        seed in any::<u64>(),
    ) {
        let spec = decode_spec(spec_raw);
        let victim = victim_raw % spec.regions;
        let trace = small_trace(&spec, rate, seed);
        // One partition event per victim device, covering every instant
        // of the 10 s horizon (and the WAN tail after it).
        let mut plan = FaultPlan::empty(seed ^ 0x9A27);
        for pod in spec.pods_in_region(victim) {
            for d in 0..spec.devices_per_pod {
                plan = plan.with_event(FaultEvent {
                    at: SimTime::ZERO,
                    device: pod * spec.devices_per_pod + d,
                    kind: FaultKind::WanPartition,
                    duration: SimTime::from_secs(60),
                });
            }
        }
        let r = simulate_global(
            &spec,
            &GlobalConfig::production(seed),
            &trace,
            &plan,
            RoutingPolicy::HealthAware,
        );
        prop_assert_eq!(r.offered, r.served_full + r.served_degraded + r.shed + r.lost);
        for region in 0..spec.regions {
            for pod in 0..spec.pods() {
                let crosses_partition = (region == victim) != (spec.region_of_pod(pod) == victim);
                if crosses_partition {
                    prop_assert_eq!(
                        r.routed[region as usize][pod as usize],
                        0,
                        "request crossed the partition: ingress {} -> pod {}",
                        region,
                        pod
                    );
                }
            }
        }
    }
}
