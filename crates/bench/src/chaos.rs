//! Declarative chaos schedules over the fleet fault-domain tree.
//!
//! A [`ChaosSchedule`] is a seeded scenario spec — *which* correlated
//! fault hits *which* domain, *when*, against *what* traffic — that
//! compiles to a concrete [`FaultPlan`] via
//! [`FleetTopology::correlated_event`] and an arrival process from the
//! same derived seed. Running one schedule twice, or under two
//! placement policies, therefore replays a byte-identical trace
//! (`FailoverReport::fault_fingerprint` witnesses it), which is what
//! makes the E21 naive-vs-domain-aware comparison and the CI chaos
//! smoke an apples-to-apples availability measurement rather than two
//! different storms.
//!
//! Three scenario families cover the §5.5 blast-radius ladder:
//!
//! - **single host loss** — one host crash takes all 24 accelerators
//!   behind one PCIe fabric (§3.4) down at once;
//! - **rolling rack loss** — a rack's hosts brown out one after
//!   another, the way a failing power shelf takes a rack down;
//! - **partition during diurnal peak** — a NIC partition isolates a
//!   host exactly at the top of the sinusoidal traffic curve, when
//!   spare capacity is thinnest.
//!
//! Above the pod, the same discipline extends to the region-scale
//! blast radii of the global router ([`GlobalChaosSchedule`]): single
//! pod loss, a region's pods rolling over one by one, a full region
//! outage timed to the victim's diurnal crest, and a WAN partition
//! isolating one region — each compiled against a
//! [`GlobalTopology`] and replayed on a byte-identical
//! [`RegionalTrace`].

use mtia_core::seed::derive;
use mtia_core::telemetry::Telemetry;
use mtia_core::SimTime;
use mtia_fleet::overclock::SiliconMargin;
use mtia_fleet::topology::{DomainLevel, FleetTopology, GlobalLevel, GlobalTopology};
use mtia_serving::failover::{
    simulate_cell_failover_traced, FailoverConfig, FailoverReport, PlacementPolicy,
};
use mtia_serving::global::{
    build_regional_trace, build_regional_trace_crested, diurnal_crest, simulate_global_traced,
    simulate_planet, AutoscaleConfig, CellSpec, GlobalComparison, GlobalConfig, GlobalReport,
    PlanetConfig, RegionalTrace, RegionalTrafficConfig, RoutingPolicy,
};
use mtia_serving::traffic::{ArrivalProcess, PoissonArrivals, RegionalArrivals};
use mtia_sim::faults::{throttle_floor, FaultEvent, FaultKind, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which correlated storm the schedule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenario {
    /// One host crash: every device behind the host's PCIe fabric goes
    /// down at `start` and reboots after `repair`.
    SingleHostLoss {
        /// Host index in the topology.
        host: u32,
        /// Host reboot time.
        repair: SimTime,
    },
    /// A rack browns out host by host: host `i` of the rack loses power
    /// at `start + i·stagger`, each restored after `repair`.
    RollingRackLoss {
        /// Rack index in the topology.
        rack: u32,
        /// Delay between consecutive host losses.
        stagger: SimTime,
        /// Per-host power-restore time.
        repair: SimTime,
    },
    /// A NIC partition isolates one host at the diurnal traffic peak:
    /// devices stay up and finish in-flight work, but no new work can
    /// reach them until the partition heals after `heal`.
    PartitionDuringPeak {
        /// Host index in the topology.
        host: u32,
        /// Partition duration.
        heal: SimTime,
    },
}

impl ChaosScenario {
    /// Stable scenario-family name for reports and telemetry.
    pub fn family(&self) -> &'static str {
        match self {
            ChaosScenario::SingleHostLoss { .. } => "single-host-loss",
            ChaosScenario::RollingRackLoss { .. } => "rolling-rack-loss",
            ChaosScenario::PartitionDuringPeak { .. } => "partition-at-peak",
        }
    }
}

/// One seeded chaos run: a scenario, its injection time, and the
/// traffic it plays against. Everything downstream — the fault plan,
/// the arrival stream — is a pure function of this struct.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSchedule {
    /// Scenario-family name (stable across seeds).
    pub name: &'static str,
    /// The correlated storm to inject.
    pub scenario: ChaosScenario,
    /// When the first fault fires.
    pub start: SimTime,
    /// Offered arrival rate (base rate for the diurnal scenario).
    pub rate_per_s: f64,
    /// Simulation horizon.
    pub horizon: SimTime,
    /// Warmup excluded from latency stats.
    pub warmup: SimTime,
    /// Root seed; the target domain and arrival stream derive from it.
    pub seed: u64,
}

impl ChaosSchedule {
    /// Seeded single-host-crash schedule: the victim host is drawn from
    /// `derive(seed, "chaos.single-host")` over the topology's hosts.
    pub fn single_host_loss(topo: &FleetTopology, seed: u64) -> Self {
        let hosts = topo.domain_count(DomainLevel::Host) as u64;
        ChaosSchedule {
            name: "single-host-loss",
            scenario: ChaosScenario::SingleHostLoss {
                host: (derive(seed, "chaos.single-host") % hosts) as u32,
                repair: SimTime::from_secs(20),
            },
            start: SimTime::from_secs(10),
            rate_per_s: 160.0,
            horizon: SimTime::from_secs(60),
            warmup: SimTime::from_secs(2),
            seed,
        }
    }

    /// Seeded rolling-rack-loss schedule: the victim rack is drawn from
    /// `derive(seed, "chaos.rolling-rack")`.
    pub fn rolling_rack_loss(topo: &FleetTopology, seed: u64) -> Self {
        let racks = topo.domain_count(DomainLevel::Rack) as u64;
        ChaosSchedule {
            name: "rolling-rack-loss",
            scenario: ChaosScenario::RollingRackLoss {
                rack: (derive(seed, "chaos.rolling-rack") % racks) as u32,
                stagger: SimTime::from_secs(5),
                repair: SimTime::from_secs(25),
            },
            start: SimTime::from_secs(10),
            rate_per_s: 160.0,
            horizon: SimTime::from_secs(80),
            warmup: SimTime::from_secs(2),
            seed,
        }
    }

    /// Seeded partition-at-peak schedule: the victim host is drawn from
    /// `derive(seed, "chaos.partition-host")`; the partition fires at
    /// the crest of the diurnal curve (one quarter period in).
    pub fn partition_during_peak(topo: &FleetTopology, seed: u64) -> Self {
        let hosts = topo.domain_count(DomainLevel::Host) as u64;
        let horizon = SimTime::from_secs(60);
        ChaosSchedule {
            name: "partition-at-peak",
            scenario: ChaosScenario::PartitionDuringPeak {
                host: (derive(seed, "chaos.partition-host") % hosts) as u32,
                heal: SimTime::from_secs(8),
            },
            // rate(t) peaks at t = period/4 of the sinusoid.
            start: horizon.scale(0.25),
            rate_per_s: 160.0,
            horizon,
            warmup: SimTime::from_secs(2),
            seed,
        }
    }

    /// The standard three-scenario suite, all derived from one seed.
    pub fn standard_suite(topo: &FleetTopology, seed: u64) -> Vec<ChaosSchedule> {
        vec![
            ChaosSchedule::single_host_loss(topo, seed),
            ChaosSchedule::rolling_rack_loss(topo, seed),
            ChaosSchedule::partition_during_peak(topo, seed),
        ]
    }

    /// The same suite with victims *aimed* at the cell under test: host
    /// 0 and rack 0 — the domains where both placement policies put the
    /// first replicas (lowest-id tie-breaking is deterministic). A
    /// seeded random victim usually misses a small cell on a large pod
    /// entirely; aiming guarantees every scenario actually exercises
    /// promotion/restore, which is what the CI smoke must gate on.
    pub fn aimed_suite(topo: &FleetTopology, seed: u64) -> Vec<ChaosSchedule> {
        let mut suite = ChaosSchedule::standard_suite(topo, seed);
        suite[0].scenario = match suite[0].scenario {
            ChaosScenario::SingleHostLoss { repair, .. } => {
                ChaosScenario::SingleHostLoss { host: 0, repair }
            }
            other => other,
        };
        suite[1].scenario = match suite[1].scenario {
            ChaosScenario::RollingRackLoss {
                stagger, repair, ..
            } => ChaosScenario::RollingRackLoss {
                rack: 0,
                stagger,
                repair,
            },
            other => other,
        };
        suite[2].scenario = match suite[2].scenario {
            ChaosScenario::PartitionDuringPeak { heal, .. } => {
                ChaosScenario::PartitionDuringPeak { host: 0, heal }
            }
            other => other,
        };
        suite
    }

    /// Compiles the scenario to a concrete correlated fault plan over
    /// `topo`. Pure: same schedule + topology → identical fingerprint.
    pub fn plan(&self, topo: &FleetTopology) -> FaultPlan {
        let plan = FaultPlan::empty(derive(self.seed, "chaos.plan"));
        match self.scenario {
            ChaosScenario::SingleHostLoss { host, repair } => topo.correlated_event(
                plan,
                DomainLevel::Host,
                host,
                self.start,
                FaultKind::HostCrash,
                repair,
            ),
            ChaosScenario::RollingRackLoss {
                rack,
                stagger,
                repair,
            } => {
                let hosts_per_rack = topo.config().hosts_per_rack;
                let first_host = rack * hosts_per_rack;
                (0..hosts_per_rack).fold(plan, |acc, i| {
                    topo.correlated_event(
                        acc,
                        DomainLevel::Host,
                        first_host + i,
                        self.start + stagger.scale(i as f64),
                        FaultKind::RackPowerLoss,
                        repair,
                    )
                })
            }
            ChaosScenario::PartitionDuringPeak { host, heal } => topo.correlated_event(
                plan,
                DomainLevel::Host,
                host,
                self.start,
                FaultKind::NicPartition,
                heal,
            ),
        }
    }

    /// The schedule's arrival process: Poisson for the loss scenarios,
    /// diurnal (period = horizon, so the crest lands at `start`) for
    /// the partition-at-peak scenario. Seeded from the schedule seed.
    pub fn arrivals(&self) -> Box<dyn ArrivalProcess> {
        let rng = StdRng::seed_from_u64(derive(self.seed, "chaos.arrivals"));
        match self.scenario {
            ChaosScenario::PartitionDuringPeak { .. } => Box::new(
                RegionalArrivals::new(
                    self.rate_per_s,
                    0.6,
                    self.horizon,
                    SimTime::ZERO,
                    Vec::new(),
                    rng,
                )
                .expect("a positive rate and a non-zero horizon"),
            ),
            _ => Box::new(PoissonArrivals::new(self.rate_per_s, rng)),
        }
    }

    /// Runs the schedule against a cell under `placement`, untraced.
    pub fn run(
        &self,
        topo: &FleetTopology,
        config: &FailoverConfig,
        placement: PlacementPolicy,
    ) -> FailoverReport {
        self.run_traced(topo, config, placement, &mut Telemetry::disabled())
    }

    /// Runs the schedule with telemetry; the report must not depend on
    /// whether `tel` is enabled.
    pub fn run_traced(
        &self,
        topo: &FleetTopology,
        config: &FailoverConfig,
        placement: PlacementPolicy,
        tel: &mut Telemetry,
    ) -> FailoverReport {
        let plan = self.plan(topo);
        let mut arrivals = self.arrivals();
        simulate_cell_failover_traced(
            config,
            placement,
            topo,
            arrivals.as_mut(),
            &plan,
            self.horizon,
            self.warmup,
            tel,
        )
    }
}

/// Which region-scale storm a [`GlobalChaosSchedule`] injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GlobalChaosScenario {
    /// One whole pod drops at `start` (spine switch, pod power bus) and
    /// returns after `repair`.
    SinglePodLoss {
        /// Pod index in the global topology.
        pod: u32,
        /// Pod restoration time.
        repair: SimTime,
    },
    /// A region's pods go down one after another — a cascading regional
    /// incident rather than a clean cut.
    RollingPodLoss {
        /// Victim region.
        region: u32,
        /// Delay between consecutive pod losses.
        stagger: SimTime,
        /// Per-pod restoration time.
        repair: SimTime,
    },
    /// Every pod of a region goes dark exactly at the victim region's
    /// diurnal crest — the worst instant the §4.1 disaster case can
    /// pick.
    RegionOutageAtPeak {
        /// Victim region.
        region: u32,
        /// Region restoration time.
        repair: SimTime,
    },
    /// A WAN partition isolates one region: its devices keep serving
    /// local ingress but neither give nor take spillover until `heal`.
    WanPartitionIsolation {
        /// Isolated region.
        region: u32,
        /// Partition duration.
        heal: SimTime,
    },
    /// Fail-slow storm at the diurnal crest: a handful of devices per
    /// pod thermally throttle (floors seeded from the silicon
    /// frequency-margin distribution), one device per region starts a
    /// progressive retention drift, and one NIC flaps intermittently.
    /// Every victim keeps passing liveness probes — the storm is
    /// invisible to the health-check-only router.
    GrayFailure {
        /// Thermally throttled devices per pod.
        throttled_per_pod: u32,
        /// How long the throttles last.
        window: SimTime,
    },
    /// Metastable-overload storm: flash crowds land exactly at every
    /// region's diurnal crest while a fraction of every pod's nominal
    /// devices dips and heals mid-run. The question the smoke asks is
    /// whether goodput comes back once the trigger is gone — the
    /// defended arm (retry budgets, breakers, deadline propagation,
    /// forecast-driven autoscaling) must not latch into collapse.
    OverloadStorm {
        /// Fraction of each pod's devices the dip takes down.
        dip_fraction: f64,
        /// How long the dip lasts before healing.
        window: SimTime,
    },
}

impl GlobalChaosScenario {
    /// Stable scenario-family name for reports and telemetry.
    pub fn family(&self) -> &'static str {
        match self {
            GlobalChaosScenario::SinglePodLoss { .. } => "single-pod-loss",
            GlobalChaosScenario::RollingPodLoss { .. } => "rolling-pod-loss",
            GlobalChaosScenario::RegionOutageAtPeak { .. } => "region-outage-at-peak",
            GlobalChaosScenario::WanPartitionIsolation { .. } => "wan-partition-isolation",
            GlobalChaosScenario::GrayFailure { .. } => "gray-failure",
            GlobalChaosScenario::OverloadStorm { .. } => "overload-storm",
        }
    }

    /// The routing arm the scenario is meant to stress. Fail-stop
    /// storms exercise the health-aware router; the fail-slow storm is
    /// invisible to liveness probes, so it runs the gray-resilient arm
    /// (detector + hedging).
    pub fn policy(&self) -> RoutingPolicy {
        match self {
            GlobalChaosScenario::GrayFailure { .. } => RoutingPolicy::GrayResilient,
            GlobalChaosScenario::OverloadStorm { .. } => RoutingPolicy::OverloadResilient,
            _ => RoutingPolicy::HealthAware,
        }
    }
}

/// One seeded region-scale chaos run: scenario, regional traffic shape,
/// horizon, seed. The fault plan and the arrival trace are pure
/// functions of this struct plus the topology.
#[derive(Debug, Clone, Copy)]
pub struct GlobalChaosSchedule {
    /// Scenario-family name (stable across seeds).
    pub name: &'static str,
    /// The region-scale storm to inject.
    pub scenario: GlobalChaosScenario,
    /// When the first fault fires.
    pub start: SimTime,
    /// Per-region traffic shape.
    pub traffic: RegionalTrafficConfig,
    /// Simulation horizon (arrivals stop here; the run drains fully).
    pub horizon: SimTime,
    /// Root seed; victims and arrival streams derive from it.
    pub seed: u64,
}

impl GlobalChaosSchedule {
    /// The smoke-sized traffic shape: light enough that the toy fleet
    /// can absorb a region outage without saturating.
    fn smoke_traffic(horizon: SimTime) -> RegionalTrafficConfig {
        RegionalTrafficConfig::production(20.0, horizon)
    }

    /// Seeded single-pod-loss schedule; the victim pod is drawn from
    /// `derive(seed, "chaos.pod")`.
    pub fn single_pod_loss(global: &GlobalTopology, seed: u64) -> Self {
        let horizon = SimTime::from_secs(60);
        GlobalChaosSchedule {
            name: "single-pod-loss",
            scenario: GlobalChaosScenario::SinglePodLoss {
                pod: (derive(seed, "chaos.pod") % global.pod_count() as u64) as u32,
                repair: SimTime::from_secs(15),
            },
            start: SimTime::from_secs(12),
            traffic: Self::smoke_traffic(horizon),
            horizon,
            seed,
        }
    }

    /// Seeded rolling-pod-loss schedule inside the region drawn from
    /// `derive(seed, "chaos.rolling-region")`.
    pub fn rolling_pod_loss(global: &GlobalTopology, seed: u64) -> Self {
        let horizon = SimTime::from_secs(70);
        GlobalChaosSchedule {
            name: "rolling-pod-loss",
            scenario: GlobalChaosScenario::RollingPodLoss {
                region: (derive(seed, "chaos.rolling-region") % global.region_count() as u64)
                    as u32,
                stagger: SimTime::from_secs(6),
                repair: SimTime::from_secs(18),
            },
            start: SimTime::from_secs(10),
            traffic: Self::smoke_traffic(horizon),
            horizon,
            seed,
        }
    }

    /// Seeded region-outage schedule, timed to the victim region's
    /// diurnal crest.
    pub fn region_outage_at_peak(global: &GlobalTopology, seed: u64) -> Self {
        let horizon = SimTime::from_secs(60);
        let traffic = Self::smoke_traffic(horizon);
        let region = (derive(seed, "chaos.outage-region") % global.region_count() as u64) as u32;
        GlobalChaosSchedule {
            name: "region-outage-at-peak",
            scenario: GlobalChaosScenario::RegionOutageAtPeak {
                region,
                repair: SimTime::from_secs(15),
            },
            start: diurnal_crest(traffic.period, region, global.region_count()),
            traffic,
            horizon,
            seed,
        }
    }

    /// Seeded WAN-partition schedule isolating the region drawn from
    /// `derive(seed, "chaos.partition-region")`.
    pub fn wan_partition_isolation(global: &GlobalTopology, seed: u64) -> Self {
        let horizon = SimTime::from_secs(60);
        GlobalChaosSchedule {
            name: "wan-partition-isolation",
            scenario: GlobalChaosScenario::WanPartitionIsolation {
                region: (derive(seed, "chaos.partition-region") % global.region_count() as u64)
                    as u32,
                heal: SimTime::from_secs(20),
            },
            start: SimTime::from_secs(15),
            traffic: Self::smoke_traffic(horizon),
            horizon,
            seed,
        }
    }

    /// Seeded fail-slow storm timed to the diurnal crest — the
    /// `gray_failure` preset behind `--chaos-smoke` and E23's rung.
    pub fn gray_failure(_global: &GlobalTopology, seed: u64) -> Self {
        let horizon = SimTime::from_secs(60);
        let traffic = Self::smoke_traffic(horizon);
        GlobalChaosSchedule {
            name: "gray-failure",
            scenario: GlobalChaosScenario::GrayFailure {
                throttled_per_pod: 2,
                window: SimTime::from_secs(25),
            },
            start: traffic.period.scale(0.25),
            traffic,
            horizon,
            seed,
        }
    }

    /// Seeded metastable-overload storm — the `overload_storm` preset
    /// behind `--chaos-smoke` and E26's rung: flash crowds pinned at
    /// every region's diurnal crest while a quarter of each pod's
    /// nominal devices dips and heals mid-run. Runs the fully-defended
    /// arm: retry budgets, breakers, deadline propagation, and
    /// forecast-driven autoscaling over a reserve tail.
    pub fn overload_storm(_global: &GlobalTopology, seed: u64) -> Self {
        let horizon = SimTime::from_secs(60);
        let mut traffic = Self::smoke_traffic(horizon);
        // Hot enough that the diurnal crest genuinely needs the reserve
        // tail: the forecast target must cross the nominal floor or the
        // autoscaler would never move.
        traffic.base_rate_per_s = 40.0;
        GlobalChaosSchedule {
            name: "overload-storm",
            scenario: GlobalChaosScenario::OverloadStorm {
                dip_fraction: 0.25,
                window: SimTime::from_secs(20),
            },
            // Region 0's crest; every region's crowd is crest-pinned by
            // the crested trace builder regardless.
            start: traffic.period.scale(0.25),
            traffic,
            horizon,
            seed,
        }
    }

    /// The standard six-scenario region-scale suite from one seed:
    /// four fail-stop storms, the fail-slow `gray_failure` preset, and
    /// the metastable `overload_storm` preset.
    pub fn region_suite(global: &GlobalTopology, seed: u64) -> Vec<GlobalChaosSchedule> {
        vec![
            GlobalChaosSchedule::single_pod_loss(global, seed),
            GlobalChaosSchedule::rolling_pod_loss(global, seed),
            GlobalChaosSchedule::region_outage_at_peak(global, seed),
            GlobalChaosSchedule::wan_partition_isolation(global, seed),
            GlobalChaosSchedule::gray_failure(global, seed),
            GlobalChaosSchedule::overload_storm(global, seed),
        ]
    }

    /// Compiles the scenario to a correlated fault plan over `global`.
    /// Pure: same schedule + topology → identical fingerprint.
    pub fn plan(&self, global: &GlobalTopology) -> FaultPlan {
        let plan = FaultPlan::empty(derive(self.seed, "chaos.global-plan"));
        match self.scenario {
            GlobalChaosScenario::SinglePodLoss { pod, repair } => global.correlated_event(
                plan,
                GlobalLevel::Pod,
                pod,
                self.start,
                FaultKind::PodLoss,
                repair,
            ),
            GlobalChaosScenario::RollingPodLoss {
                region,
                stagger,
                repair,
            } => {
                let pods_per_region = global.config().pods_per_region;
                let first = region * pods_per_region;
                (0..pods_per_region).fold(plan, |acc, i| {
                    global.correlated_event(
                        acc,
                        GlobalLevel::Pod,
                        first + i,
                        self.start + stagger.scale(i as f64),
                        FaultKind::PodLoss,
                        repair,
                    )
                })
            }
            GlobalChaosScenario::RegionOutageAtPeak { region, repair } => global.correlated_event(
                plan,
                GlobalLevel::Region,
                region,
                self.start,
                FaultKind::RegionOutage,
                repair,
            ),
            GlobalChaosScenario::WanPartitionIsolation { region, heal } => global.correlated_event(
                plan,
                GlobalLevel::Region,
                region,
                self.start,
                FaultKind::WanPartition,
                heal,
            ),
            GlobalChaosScenario::GrayFailure {
                throttled_per_pod,
                window,
            } => {
                let spec = global.fleet_spec();
                let margin = SiliconMargin::production();
                let mut rng = StdRng::seed_from_u64(derive(self.seed, "chaos.gray"));
                let mut plan = plan;
                for pod in 0..spec.pods() {
                    // Thermal throttles: victims drawn per pod, floors
                    // seeded from each victim chip's frequency margin —
                    // low-margin silicon throttles deeper (§5.2).
                    for _ in 0..throttled_per_pod.min(spec.devices_per_pod) {
                        let device =
                            pod * spec.devices_per_pod + rng.gen_range(0..spec.devices_per_pod);
                        let fmax = margin.sample_chip(&mut rng).fmax.as_ghz();
                        plan = plan.with_event(FaultEvent {
                            at: self.start,
                            device,
                            kind: FaultKind::ThermalThrottle {
                                ramp_s: window.as_secs_f64() * 0.25,
                                floor: throttle_floor(fmax, margin.mean_ghz, margin.std_ghz),
                            },
                            duration: window,
                        });
                    }
                }
                for region in 0..spec.regions {
                    // One retention drifter per region (never heals)
                    // and one intermittently flapping NIC.
                    let pods = spec.pods_in_region(region);
                    let drifter = pods[rng.gen_range(0..pods.len())] * spec.devices_per_pod
                        + rng.gen_range(0..spec.devices_per_pod);
                    plan = plan.with_event(FaultEvent {
                        at: self.start,
                        device: drifter,
                        kind: FaultKind::MemoryRetentionDegradation {
                            slowdown_per_hour: 30.0,
                        },
                        duration: SimTime::ZERO,
                    });
                    let flapper = pods[rng.gen_range(0..pods.len())] * spec.devices_per_pod
                        + rng.gen_range(0..spec.devices_per_pod);
                    plan = plan.with_event(FaultEvent {
                        at: self.start,
                        device: flapper,
                        kind: FaultKind::NicFlap {
                            period_s: 8.0,
                            loss_frac: 0.4,
                        },
                        duration: window,
                    });
                }
                plan
            }
            GlobalChaosScenario::OverloadStorm {
                dip_fraction,
                window,
            } => {
                let spec = global.fleet_spec();
                let dip = ((spec.devices_per_pod as f64) * dip_fraction).ceil() as u32;
                let mut plan = plan;
                for pod in 0..spec.pods() {
                    // The dip takes the *lowest*-indexed devices —
                    // nominal capacity, never the reserve tail the
                    // autoscaler owns.
                    for k in 0..dip.min(spec.devices_per_pod) {
                        plan = plan.with_event(FaultEvent {
                            at: self.start,
                            device: pod * spec.devices_per_pod + k,
                            kind: FaultKind::PodLoss,
                            duration: window,
                        });
                    }
                }
                plan
            }
        }
    }

    /// The schedule's multi-region arrival trace (seeded, replayable).
    /// The overload storm pins every flash crowd to its region's
    /// diurnal crest; every other storm places crowds by seeded draw.
    pub fn trace(&self, global: &GlobalTopology) -> RegionalTrace {
        let seed = derive(self.seed, "chaos.global-arrivals");
        match self.scenario {
            GlobalChaosScenario::OverloadStorm { .. } => build_regional_trace_crested(
                &self.traffic,
                global.region_count(),
                self.horizon,
                seed,
            ),
            _ => build_regional_trace(&self.traffic, global.region_count(), self.horizon, seed),
        }
    }

    /// The router config the schedule runs under: stock production
    /// everywhere except the overload storm, which provisions a
    /// two-device reserve tail per pod and the forecast-driven
    /// autoscaler.
    pub fn config(&self) -> GlobalConfig {
        let mut config = GlobalConfig::production(self.seed);
        if matches!(self.scenario, GlobalChaosScenario::OverloadStorm { .. }) {
            config.reserve_per_pod = 2;
            config.autoscale = Some(AutoscaleConfig::production(self.traffic.period));
        }
        config
    }

    /// The schedule replayed under each of `policies`, one cell per
    /// arm, as [`arm_cells`] builds them.
    pub fn cells<const N: usize>(
        &self,
        global: &GlobalTopology,
        policies: [RoutingPolicy; N],
    ) -> [CellSpec; N] {
        let (config, trace, plan) = (self.config(), self.trace(global), self.plan(global));
        arm_cells(global, &config, &trace, &plan, policies)
    }

    /// Runs the schedule with telemetry; the report must not depend on
    /// whether `tel` is enabled.
    pub fn run_traced(
        &self,
        global: &GlobalTopology,
        policy: RoutingPolicy,
        tel: &mut Telemetry,
    ) -> GlobalReport {
        let [c] = self.cells(global, [policy]);
        simulate_global_traced(&c.spec, &c.config, &c.trace, &c.plan, c.policy, tel)
    }

    /// Replays the schedule through both [`COMPARED_ARMS`] on the
    /// identical trace, as two cells of one call.
    pub fn compare(&self, global: &GlobalTopology) -> GlobalComparison {
        compare_arms(&self.cells(global, COMPARED_ARMS))
    }
}

/// The two arms of a [`GlobalComparison`], in cell order: static-local
/// routing, then the health-aware router.
pub const COMPARED_ARMS: [RoutingPolicy; 2] =
    [RoutingPolicy::StaticLocal, RoutingPolicy::HealthAware];

/// One cell per policy, all over `global`'s fleet and the same config,
/// trace and plan; clones share the trace columns.
pub fn arm_cells<const N: usize>(
    global: &GlobalTopology,
    config: &GlobalConfig,
    trace: &RegionalTrace,
    plan: &FaultPlan,
    policies: [RoutingPolicy; N],
) -> [CellSpec; N] {
    policies.map(|policy| CellSpec {
        spec: global.fleet_spec(),
        config: config.clone(),
        trace: trace.clone(),
        plan: plan.clone(),
        policy,
    })
}

/// Runs independent arms as the cells of one uncoupled planet, so they
/// share the pool; the reports come back in cell order.
pub fn run_arms(cells: &[CellSpec]) -> Vec<GlobalReport> {
    simulate_planet(cells, PlanetConfig::uncoupled(SimTime::from_secs(1))).cells
}

/// Runs one scenario's [`COMPARED_ARMS`] cells, in that order, in one
/// [`run_arms`] call.
pub fn compare_arms(cells: &[CellSpec; COMPARED_ARMS.len()]) -> GlobalComparison {
    let [naive, router] = run_arms(cells).try_into().expect("one report per cell");
    GlobalComparison { naive, router }
}

/// One scenario's line in the CI chaos smoke.
#[derive(Debug, Clone)]
pub struct ChaosSmokeLine {
    /// Scenario-family name.
    pub name: &'static str,
    /// The domain-aware, failover-enabled report.
    pub report: FailoverReport,
}

/// One region-scale scenario's line in the CI chaos smoke.
#[derive(Debug, Clone)]
pub struct GlobalChaosSmokeLine {
    /// Scenario-family name.
    pub name: &'static str,
    /// The global-router report.
    pub report: GlobalReport,
}

/// The `reproduce --chaos-smoke` / `scripts/ci.sh` gate: the standard
/// seeded suite against a domain-aware, failover-enabled cell, plus the
/// region-scale suite against the global router.
#[derive(Debug, Clone)]
pub struct ChaosSmokeReport {
    /// One line per cell-level scenario.
    pub lines: Vec<ChaosSmokeLine>,
    /// One line per region-scale scenario (global-router arm).
    pub global_lines: Vec<GlobalChaosSmokeLine>,
}

impl ChaosSmokeReport {
    /// The smoke passes when no cell scenario loses a request forever,
    /// every run (cell and global) conserves its request accounting,
    /// and goodput stays at or above `min_goodput` everywhere. Region-
    /// scale storms legitimately kill in-flight work, so the global
    /// lines gate on conservation + goodput rather than zero loss.
    pub fn passed(&self, min_goodput: f64) -> bool {
        self.lines.iter().all(|l| {
            l.report.lost == 0 && l.report.unaccounted() == 0 && l.report.goodput() >= min_goodput
        }) && self
            .global_lines
            .iter()
            .all(|l| l.report.unaccounted() == 0 && l.report.goodput() >= min_goodput)
    }
}

/// Runs the aimed chaos suite on the paper-shape pod with domain-aware
/// placement and failover enabled, plus the region-scale suite on the
/// toy global fleet under the health-aware router.
pub fn run_chaos_smoke(seed: u64) -> ChaosSmokeReport {
    let topo = mtia_fleet::topology::TopologyConfig::paper_server().build();
    let config = FailoverConfig::production(8, 2, seed);
    let lines =
        mtia_core::pool::parallel_map(ChaosSchedule::aimed_suite(&topo, seed), |_, schedule| {
            ChaosSmokeLine {
                name: schedule.name,
                report: schedule.run(&topo, &config, PlacementPolicy::DomainAware),
            }
        });
    let global = mtia_fleet::topology::GlobalTopologyConfig::global_small().build();
    let suite = GlobalChaosSchedule::region_suite(&global, seed);
    // Each storm runs the arm it targets: the health-aware router for
    // fail-stop storms, the gray-resilient and overload-resilient arms
    // for the fail-slow and overload storms.
    let cells: Vec<CellSpec> = suite
        .iter()
        .flat_map(|s| s.cells(&global, [s.scenario.policy()]))
        .collect();
    let global_lines = suite
        .iter()
        .zip(run_arms(&cells))
        .map(|(schedule, report)| GlobalChaosSmokeLine {
            name: schedule.name,
            report,
        })
        .collect();
    ChaosSmokeReport {
        lines,
        global_lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtia_core::seed::DEFAULT_SEED;
    use mtia_fleet::topology::TopologyConfig;
    use mtia_serving::failover::FaultDomains;

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        let topo = TopologyConfig::paper_server().build();
        for (a, b) in ChaosSchedule::standard_suite(&topo, DEFAULT_SEED)
            .into_iter()
            .zip(ChaosSchedule::standard_suite(&topo, DEFAULT_SEED))
        {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(
                a.plan(&topo).fingerprint(),
                b.plan(&topo).fingerprint(),
                "{} plan must be reproducible",
                a.name
            );
        }
    }

    #[test]
    fn seed_changes_the_victim_stream_not_the_families() {
        let topo = TopologyConfig::paper_server().build();
        let a = ChaosSchedule::standard_suite(&topo, 1);
        let b = ChaosSchedule::standard_suite(&topo, 2);
        assert_eq!(
            a.iter().map(|s| s.name).collect::<Vec<_>>(),
            b.iter().map(|s| s.name).collect::<Vec<_>>(),
        );
        assert!(
            a.iter()
                .zip(&b)
                .any(|(x, y)| x.plan(&topo).fingerprint() != y.plan(&topo).fingerprint()),
            "different seeds should eventually pick different victims"
        );
    }

    #[test]
    fn rolling_rack_covers_every_host_of_the_rack_staggered() {
        let topo = TopologyConfig::paper_server().build();
        let schedule = ChaosSchedule::rolling_rack_loss(&topo, DEFAULT_SEED);
        let ChaosScenario::RollingRackLoss { rack, stagger, .. } = schedule.scenario else {
            panic!("wrong scenario");
        };
        let plan = schedule.plan(&topo);
        // One event per device of the rack, in stagger-separated waves.
        assert_eq!(
            plan.events().len() as u32,
            topo.devices_per_rack(),
            "every device of the rack is hit exactly once"
        );
        let hosts_per_rack = topo.config().hosts_per_rack;
        for event in plan.events() {
            assert_eq!(topo.rack_of(event.device), rack);
            let wave = topo.host_of(event.device) - rack * hosts_per_rack;
            assert_eq!(event.at, schedule.start + stagger.scale(wave as f64));
            assert_eq!(event.kind, FaultKind::RackPowerLoss);
        }
    }

    #[test]
    fn partition_fires_at_the_diurnal_crest() {
        let topo = TopologyConfig::paper_server().build();
        let schedule = ChaosSchedule::partition_during_peak(&topo, DEFAULT_SEED);
        assert_eq!(schedule.start, schedule.horizon.scale(0.25));
        assert!(schedule
            .plan(&topo)
            .events()
            .iter()
            .all(|e| e.kind == FaultKind::NicPartition));
    }

    #[test]
    fn chaos_smoke_loses_nothing_with_failover_on() {
        let report = run_chaos_smoke(DEFAULT_SEED);
        assert_eq!(report.lines.len(), 3);
        assert_eq!(report.global_lines.len(), 6);
        for line in &report.lines {
            assert_eq!(line.report.lost, 0, "{} lost requests", line.name);
            assert_eq!(
                line.report.unaccounted(),
                0,
                "{} leaked requests",
                line.name
            );
        }
        for line in &report.global_lines {
            assert_eq!(
                line.report.unaccounted(),
                0,
                "{} leaked requests",
                line.name
            );
        }
        assert!(report.passed(0.9));
        // Aimed victims guarantee the machinery is actually exercised:
        // the loss scenarios must promote, not merely survive by luck.
        assert!(
            report.lines.iter().any(|l| l.report.promotions > 0),
            "aimed suite never exercised promotion"
        );
        // And at least one region-scale storm must force cross-region
        // spillover through the router.
        assert!(
            report.global_lines.iter().any(|l| l.report.spillover > 0),
            "region suite never exercised spillover"
        );
        // The gray-failure line must actually exercise the fail-slow
        // stack: it runs the outlier-hedge arm and nothing goes down.
        let gray = report
            .global_lines
            .iter()
            .find(|l| l.name == "gray-failure")
            .expect("gray-failure line present");
        assert_eq!(gray.report.policy, "outlier-hedge");
        assert_eq!(gray.report.device_downs, 0, "fail-slow never kills");
        assert_eq!(gray.report.lost_killed, 0);
        // The overload-storm line must run the fully-defended arm and
        // actually exercise the new machinery: retries are issued, and
        // the autoscaler moves reserve capacity.
        let storm = report
            .global_lines
            .iter()
            .find(|l| l.name == "overload-storm")
            .expect("overload-storm line present");
        assert_eq!(storm.report.policy, "overload-resilient");
        assert!(storm.report.scale_events > 0, "autoscaler never moved");
    }

    #[test]
    fn gray_failure_preset_is_pure_and_fail_slow_only() {
        let global = mtia_fleet::topology::GlobalTopologyConfig::global_small().build();
        let a = GlobalChaosSchedule::gray_failure(&global, DEFAULT_SEED);
        let b = GlobalChaosSchedule::gray_failure(&global, DEFAULT_SEED);
        assert_eq!(a.plan(&global).fingerprint(), b.plan(&global).fingerprint());
        let plan = a.plan(&global);
        assert!(!plan.events().is_empty());
        assert!(
            plan.events().iter().all(|e| e.kind.is_fail_slow()),
            "gray preset must inject only fail-slow kinds"
        );
        // Low-margin silicon throttles deeper: every sampled floor is
        // inside the clamp band.
        for event in plan.events() {
            if let FaultKind::ThermalThrottle { floor, .. } = event.kind {
                assert!((0.15..=0.85).contains(&floor), "floor {floor}");
            }
        }
    }

    #[test]
    fn global_schedules_are_pure_functions_of_the_seed() {
        let global = mtia_fleet::topology::GlobalTopologyConfig::global_small().build();
        for (a, b) in GlobalChaosSchedule::region_suite(&global, DEFAULT_SEED)
            .into_iter()
            .zip(GlobalChaosSchedule::region_suite(&global, DEFAULT_SEED))
        {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.plan(&global).fingerprint(), b.plan(&global).fingerprint());
            assert_eq!(
                a.trace(&global).fingerprint(),
                b.trace(&global).fingerprint()
            );
        }
    }

    #[test]
    fn region_outage_fires_at_the_victims_crest() {
        let global = mtia_fleet::topology::GlobalTopologyConfig::global_small().build();
        let schedule = GlobalChaosSchedule::region_outage_at_peak(&global, DEFAULT_SEED);
        let GlobalChaosScenario::RegionOutageAtPeak { region, .. } = schedule.scenario else {
            panic!("wrong scenario");
        };
        // Crest instant: a quarter period in, minus the region's
        // timezone offset, wrapped into the period.
        let regions = global.region_count() as f64;
        let mut crest = 0.25 - region as f64 / regions;
        if crest < 0.0 {
            crest += 1.0;
        }
        assert_eq!(schedule.start, schedule.traffic.period.scale(crest));
        let plan = schedule.plan(&global);
        assert_eq!(
            plan.events().len() as u32,
            global.devices_per_region(),
            "the whole region is hit"
        );
        assert!(plan
            .events()
            .iter()
            .all(|e| e.kind == FaultKind::RegionOutage));
    }

    #[test]
    fn region_suite_compares_router_favorably() {
        let global = mtia_fleet::topology::GlobalTopologyConfig::global_small().build();
        let schedule = GlobalChaosSchedule::region_outage_at_peak(&global, DEFAULT_SEED);
        let cmp = schedule.compare(&global);
        assert!(cmp.same_trace());
        assert!(
            cmp.goodput_gain_pp() > 0.0,
            "router {} vs naive {}",
            cmp.router.goodput(),
            cmp.naive.goodput()
        );
    }
}
