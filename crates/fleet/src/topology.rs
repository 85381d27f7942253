//! The fleet's fault-domain tree.
//!
//! Every correlated outage the serving stack must survive maps to one
//! level of the physical containment hierarchy:
//!
//! ```text
//!   power domain ─ rack ─ host ─ module ─ device
//! ```
//!
//! A host crash (kernel panic, PCIe root-complex hang, §5.5) takes out
//! every accelerator on the host at once — 24 in the paper's Grand
//! Teton-derived server (§3.4, 12 modules × 2 accelerators). A rack or
//! power-domain event takes out every host beneath it. [`FleetTopology`]
//! is a purely arithmetic encoding of that tree: device ids are dense
//! and contiguous within each domain, so every ancestor lookup is a
//! division and every member set a range — deterministic, allocation-
//! free, and trivially consistent (`devices_in(host_of(d))` always
//! contains `d`).
//!
//! It implements [`mtia_serving::failover::FaultDomains`], which is how
//! replica placement and re-replication consult it, and it knows how to
//! fan a correlated fault out to a domain's members via
//! [`FleetTopology::correlated_event`].
//!
//! Above the pod, [`GlobalTopology`] extends the same arithmetic tree
//! two more levels for the region-scale disaster story:
//!
//! ```text
//!   region ─ pod ─ power domain ─ rack ─ host ─ module ─ device
//! ```
//!
//! Every pod is one [`FleetTopology`] (the paper's 288-device
//! `paper_server()` by default), several pods make a region, several
//! regions make the serving fleet, and configured inter-region WAN
//! latencies make cross-region failover a priced decision rather than a
//! free one. [`GlobalTopology::correlated_event`] fans
//! [`FaultKind::PodLoss`], [`FaultKind::RegionOutage`], and
//! [`FaultKind::WanPartition`] out to the full pod/region blast radius,
//! and [`GlobalTopology::fleet_spec`] bridges to the plain-data shape
//! `mtia_serving::global` routes over.

use std::ops::Range;

use mtia_core::SimTime;
use mtia_serving::failover::FaultDomains;
use mtia_serving::global::GlobalFleetSpec;
use mtia_sim::faults::{DeviceId, FaultKind, FaultPlan};

/// Shape of the containment tree, bottom-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyConfig {
    /// Accelerators per module (the paper's dual-chip module).
    pub devices_per_module: u32,
    /// Modules per host.
    pub modules_per_host: u32,
    /// Hosts per rack.
    pub hosts_per_rack: u32,
    /// Racks per power domain.
    pub racks_per_power_domain: u32,
    /// Power domains in the fleet.
    pub power_domains: u32,
}

impl TopologyConfig {
    /// The paper's server shape (§3.4): 12 dual-accelerator modules per
    /// host → 24 devices behind one host's PCIe fabric, three such
    /// hosts per rack, two racks per power feed, two feeds — a small
    /// 288-device serving pod.
    pub fn paper_server() -> Self {
        TopologyConfig {
            devices_per_module: 2,
            modules_per_host: 12,
            hosts_per_rack: 3,
            racks_per_power_domain: 2,
            power_domains: 2,
        }
    }

    /// A 16-device toy tree (4 per host, 2 hosts per rack, 2 racks) for
    /// tests and examples.
    pub fn small() -> Self {
        TopologyConfig {
            devices_per_module: 2,
            modules_per_host: 2,
            hosts_per_rack: 2,
            racks_per_power_domain: 2,
            power_domains: 1,
        }
    }

    /// Materializes the tree.
    ///
    /// # Panics
    ///
    /// Panics if any level is zero.
    pub fn build(self) -> FleetTopology {
        assert!(
            self.devices_per_module > 0
                && self.modules_per_host > 0
                && self.hosts_per_rack > 0
                && self.racks_per_power_domain > 0
                && self.power_domains > 0,
            "every topology level must be non-empty"
        );
        FleetTopology { config: self }
    }
}

/// One level of the fault-domain tree (the domains a correlated fault
/// can target).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainLevel {
    /// A dual-accelerator module.
    Module,
    /// One server: everything behind one host's PCIe fabric.
    Host,
    /// One rack of hosts.
    Rack,
    /// One power feed's worth of racks.
    PowerDomain,
}

/// The materialized fault-domain tree. Device ids are dense in
/// `0..device_count()` and contiguous within every domain.
#[derive(Debug, Clone, Copy)]
pub struct FleetTopology {
    config: TopologyConfig,
}

impl FleetTopology {
    /// The shape this tree was built from.
    pub fn config(&self) -> TopologyConfig {
        self.config
    }

    /// Devices per host (the host-crash blast radius).
    pub fn devices_per_host(&self) -> u32 {
        self.config.devices_per_module * self.config.modules_per_host
    }

    /// Devices per rack.
    pub fn devices_per_rack(&self) -> u32 {
        self.devices_per_host() * self.config.hosts_per_rack
    }

    /// Devices per power domain.
    pub fn devices_per_power_domain(&self) -> u32 {
        self.devices_per_rack() * self.config.racks_per_power_domain
    }

    /// Total devices in the fleet.
    pub fn device_count(&self) -> u32 {
        self.devices_per_power_domain() * self.config.power_domains
    }

    /// Total domains at `level`.
    pub fn domain_count(&self, level: DomainLevel) -> u32 {
        self.device_count() / self.domain_size(level)
    }

    fn domain_size(&self, level: DomainLevel) -> u32 {
        match level {
            DomainLevel::Module => self.config.devices_per_module,
            DomainLevel::Host => self.devices_per_host(),
            DomainLevel::Rack => self.devices_per_rack(),
            DomainLevel::PowerDomain => self.devices_per_power_domain(),
        }
    }

    /// The ancestor domain of `device` at `level`.
    pub fn domain_of(&self, level: DomainLevel, device: DeviceId) -> u32 {
        device / self.domain_size(level)
    }

    /// Member devices of domain `index` at `level`, as a dense range.
    pub fn devices_in(&self, level: DomainLevel, index: u32) -> Range<DeviceId> {
        let size = self.domain_size(level);
        index * size..(index + 1) * size
    }

    /// Whether two devices share the domain at `level`.
    pub fn shares_domain(&self, level: DomainLevel, a: DeviceId, b: DeviceId) -> bool {
        self.domain_of(level, a) == self.domain_of(level, b)
    }

    /// Fans one correlated fault out to every member of domain `index`
    /// at `level`, appending to `plan`. The `duration` is the domain's
    /// repair/restart time (host reboot, rack power restore). Composes
    /// freely with per-device events already in the plan.
    pub fn correlated_event(
        &self,
        plan: FaultPlan,
        level: DomainLevel,
        index: u32,
        at: SimTime,
        kind: FaultKind,
        duration: SimTime,
    ) -> FaultPlan {
        assert!(
            index < self.domain_count(level),
            "domain index out of range"
        );
        plan.with_correlated_event(self.devices_in(level, index), at, kind, duration)
    }
}

impl FaultDomains for FleetTopology {
    fn devices(&self) -> u32 {
        self.device_count()
    }
    fn host_of(&self, device: DeviceId) -> u32 {
        self.domain_of(DomainLevel::Host, device)
    }
    fn rack_of(&self, device: DeviceId) -> u32 {
        self.domain_of(DomainLevel::Rack, device)
    }
    fn power_domain_of(&self, device: DeviceId) -> u32 {
        self.domain_of(DomainLevel::PowerDomain, device)
    }
}

/// Shape of the fleet above the pod: identical pods grouped into
/// regions with a uniform one-way inter-region WAN latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalTopologyConfig {
    /// The containment tree inside every pod.
    pub pod: TopologyConfig,
    /// Pods per region.
    pub pods_per_region: u32,
    /// Regions in the fleet.
    pub regions: u32,
    /// One-way WAN latency between any two distinct regions.
    pub inter_region_latency: SimTime,
}

impl GlobalTopologyConfig {
    /// The E22 planetary fleet: three regions (think NA/EU/APAC, one
    /// timezone-ish WAN hop apart) of two `paper_server()` pods each —
    /// 1728 devices.
    pub fn planetary() -> Self {
        GlobalTopologyConfig {
            pod: TopologyConfig::paper_server(),
            pods_per_region: 2,
            regions: 3,
            inter_region_latency: SimTime::from_millis(60),
        }
    }

    /// A 64-device toy fleet (2 regions × 2 pods × the 16-device
    /// `small()` tree) for tests, goldens, and examples.
    pub fn global_small() -> Self {
        GlobalTopologyConfig {
            pod: TopologyConfig::small(),
            pods_per_region: 2,
            regions: 2,
            inter_region_latency: SimTime::from_millis(40),
        }
    }

    /// Materializes the global tree.
    ///
    /// # Panics
    ///
    /// Panics if any level (including the pod's own) is zero.
    pub fn build(self) -> GlobalTopology {
        assert!(
            self.pods_per_region > 0 && self.regions > 0,
            "every global topology level must be non-empty"
        );
        GlobalTopology {
            config: self,
            pod_topology: self.pod.build(),
        }
    }
}

/// The fleet levels above the pod's own tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalLevel {
    /// One serving pod — a full [`FleetTopology`] behind one fleet-level
    /// failure domain (spine switch, pod power bus).
    Pod,
    /// One region — every pod homed in one geography.
    Region,
}

/// The materialized global tree: dense device ids, contiguous within
/// every pod and region, so the arithmetic-encoding invariants of
/// [`FleetTopology`] extend unchanged two levels up.
#[derive(Debug, Clone, Copy)]
pub struct GlobalTopology {
    config: GlobalTopologyConfig,
    pod_topology: FleetTopology,
}

impl GlobalTopology {
    /// The shape this tree was built from.
    pub fn config(&self) -> GlobalTopologyConfig {
        self.config
    }

    /// The containment tree inside every pod.
    pub fn pod_topology(&self) -> FleetTopology {
        self.pod_topology
    }

    /// Devices per pod.
    pub fn devices_per_pod(&self) -> u32 {
        self.pod_topology.device_count()
    }

    /// Devices per region.
    pub fn devices_per_region(&self) -> u32 {
        self.devices_per_pod() * self.config.pods_per_region
    }

    /// Total pods.
    pub fn pod_count(&self) -> u32 {
        self.config.pods_per_region * self.config.regions
    }

    /// Total regions.
    pub fn region_count(&self) -> u32 {
        self.config.regions
    }

    /// Total devices across every region.
    pub fn device_count(&self) -> u32 {
        self.devices_per_region() * self.config.regions
    }

    /// Total domains at `level`.
    pub fn domain_count(&self, level: GlobalLevel) -> u32 {
        self.device_count() / self.domain_size(level)
    }

    fn domain_size(&self, level: GlobalLevel) -> u32 {
        match level {
            GlobalLevel::Pod => self.devices_per_pod(),
            GlobalLevel::Region => self.devices_per_region(),
        }
    }

    /// Pod index of `device`.
    pub fn pod_of(&self, device: DeviceId) -> u32 {
        device / self.devices_per_pod()
    }

    /// Region index of `device`.
    pub fn region_of(&self, device: DeviceId) -> u32 {
        device / self.devices_per_region()
    }

    /// Region homing pod `pod`.
    pub fn region_of_pod(&self, pod: u32) -> u32 {
        pod / self.config.pods_per_region
    }

    /// The ancestor domain of `device` at `level`.
    pub fn domain_of(&self, level: GlobalLevel, device: DeviceId) -> u32 {
        device / self.domain_size(level)
    }

    /// Member devices of domain `index` at `level`, as a dense range.
    pub fn devices_in(&self, level: GlobalLevel, index: u32) -> Range<DeviceId> {
        let size = self.domain_size(level);
        index * size..(index + 1) * size
    }

    /// Whether two devices share the domain at `level`.
    pub fn shares_domain(&self, level: GlobalLevel, a: DeviceId, b: DeviceId) -> bool {
        self.domain_of(level, a) == self.domain_of(level, b)
    }

    /// One-way WAN latency between two regions (`ZERO` within one).
    pub fn wan_latency(&self, a: u32, b: u32) -> SimTime {
        if a == b {
            SimTime::ZERO
        } else {
            self.config.inter_region_latency
        }
    }

    /// Fans one correlated fault out to every device of pod/region
    /// `index`, appending to `plan` — [`FaultKind::PodLoss`] at
    /// [`GlobalLevel::Pod`], [`FaultKind::RegionOutage`] /
    /// [`FaultKind::WanPartition`] at [`GlobalLevel::Region`].
    pub fn correlated_event(
        &self,
        plan: FaultPlan,
        level: GlobalLevel,
        index: u32,
        at: SimTime,
        kind: FaultKind,
        duration: SimTime,
    ) -> FaultPlan {
        assert!(
            index < self.domain_count(level),
            "domain index out of range"
        );
        plan.with_correlated_event(self.devices_in(level, index), at, kind, duration)
    }

    /// Bridges to the plain-data fleet shape `mtia_serving::global`
    /// routes over. The spec's dense pod/device numbering is identical
    /// to this tree's, so fault plans built against either agree.
    pub fn fleet_spec(&self) -> GlobalFleetSpec {
        let spec = GlobalFleetSpec::symmetric(
            self.config.regions,
            self.config.pods_per_region,
            self.devices_per_pod(),
            self.config.inter_region_latency,
        )
        .expect("build rejects empty levels");
        spec.validate().expect("a symmetric spec is consistent");
        spec
    }
}

impl FaultDomains for GlobalTopology {
    fn devices(&self) -> u32 {
        self.device_count()
    }
    fn host_of(&self, device: DeviceId) -> u32 {
        let pod = self.pod_of(device);
        let local = device % self.devices_per_pod();
        pod * self.pod_topology.domain_count(DomainLevel::Host)
            + self.pod_topology.domain_of(DomainLevel::Host, local)
    }
    fn rack_of(&self, device: DeviceId) -> u32 {
        let pod = self.pod_of(device);
        let local = device % self.devices_per_pod();
        pod * self.pod_topology.domain_count(DomainLevel::Rack)
            + self.pod_topology.domain_of(DomainLevel::Rack, local)
    }
    fn power_domain_of(&self, device: DeviceId) -> u32 {
        let pod = self.pod_of(device);
        let local = device % self.devices_per_pod();
        pod * self.pod_topology.domain_count(DomainLevel::PowerDomain)
            + self.pod_topology.domain_of(DomainLevel::PowerDomain, local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_server_matches_the_section_3_4_shape() {
        let topo = TopologyConfig::paper_server().build();
        assert_eq!(topo.devices_per_host(), 24, "§3.4: 24 accelerators/host");
        assert_eq!(topo.device_count(), 288);
        assert_eq!(topo.domain_count(DomainLevel::Host), 12);
        assert_eq!(topo.domain_count(DomainLevel::Rack), 4);
        assert_eq!(topo.domain_count(DomainLevel::PowerDomain), 2);
    }

    #[test]
    fn ancestor_lookups_are_consistent_with_member_ranges() {
        let topo = TopologyConfig::paper_server().build();
        for level in [
            DomainLevel::Module,
            DomainLevel::Host,
            DomainLevel::Rack,
            DomainLevel::PowerDomain,
        ] {
            for device in 0..topo.device_count() {
                let domain = topo.domain_of(level, device);
                assert!(
                    topo.devices_in(level, domain).contains(&device),
                    "{level:?} domain {domain} must contain its own member {device}"
                );
            }
            // Domains partition the fleet exactly.
            let total: u32 = (0..topo.domain_count(level))
                .map(|i| topo.devices_in(level, i).len() as u32)
                .sum();
            assert_eq!(total, topo.device_count());
        }
    }

    #[test]
    fn domains_nest() {
        let topo = TopologyConfig::paper_server().build();
        for device in 0..topo.device_count() {
            let host = topo.host_of(device);
            let rack = topo.rack_of(device);
            for other in topo.devices_in(DomainLevel::Host, host) {
                assert_eq!(topo.rack_of(other), rack, "same host ⇒ same rack");
                assert_eq!(
                    topo.power_domain_of(other),
                    topo.power_domain_of(device),
                    "same host ⇒ same power domain"
                );
            }
        }
    }

    #[test]
    fn correlated_event_covers_exactly_the_domain() {
        let topo = TopologyConfig::small().build();
        let plan = topo.correlated_event(
            FaultPlan::empty(1),
            DomainLevel::Host,
            1,
            SimTime::from_secs(5),
            FaultKind::HostCrash,
            SimTime::from_secs(10),
        );
        let devices: Vec<DeviceId> = plan.events().iter().map(|e| e.device).collect();
        assert_eq!(devices, vec![4, 5, 6, 7], "host 1 of the small tree");
        assert!(plan.events().iter().all(|e| e.kind == FaultKind::HostCrash));
    }

    #[test]
    fn planetary_fleet_matches_the_e22_shape() {
        let global = GlobalTopologyConfig::planetary().build();
        assert_eq!(global.devices_per_pod(), 288);
        assert_eq!(global.pod_count(), 6);
        assert_eq!(global.region_count(), 3);
        assert_eq!(global.device_count(), 1728);
        assert_eq!(global.domain_count(GlobalLevel::Pod), 6);
        assert_eq!(global.domain_count(GlobalLevel::Region), 3);
        assert_eq!(global.wan_latency(0, 0), SimTime::ZERO);
        assert_eq!(global.wan_latency(0, 2), SimTime::from_millis(60));
    }

    #[test]
    fn global_domains_nest_and_partition() {
        let global = GlobalTopologyConfig::global_small().build();
        for level in [GlobalLevel::Pod, GlobalLevel::Region] {
            for device in 0..global.device_count() {
                let domain = global.domain_of(level, device);
                assert!(global.devices_in(level, domain).contains(&device));
            }
            let total: u32 = (0..global.domain_count(level))
                .map(|i| global.devices_in(level, i).len() as u32)
                .sum();
            assert_eq!(total, global.device_count());
        }
        for device in 0..global.device_count() {
            // Pods nest inside regions, and hosts inside pods: any two
            // devices sharing a host share the pod and the region.
            let pod = global.pod_of(device);
            assert_eq!(global.region_of(device), global.region_of_pod(pod));
            for other in global.devices_in(GlobalLevel::Pod, pod) {
                if global.host_of(other) == global.host_of(device) {
                    assert!(global.shares_domain(GlobalLevel::Pod, device, other));
                    assert!(global.shares_domain(GlobalLevel::Region, device, other));
                }
            }
        }
    }

    #[test]
    fn global_fault_domains_refine_the_pod_tree() {
        // Host/rack/power-domain ids stay globally unique and agree
        // with the single-pod tree modulo the per-pod offset.
        let global = GlobalTopologyConfig::global_small().build();
        let pod_topo = global.pod_topology();
        let per_pod_hosts = pod_topo.domain_count(DomainLevel::Host);
        for device in 0..global.device_count() {
            let local = device % global.devices_per_pod();
            assert_eq!(
                global.host_of(device),
                global.pod_of(device) * per_pod_hosts + pod_topo.host_of(local)
            );
        }
        // Distinct pods never share a host id.
        let a = global.host_of(0);
        let b = global.host_of(global.devices_per_pod());
        assert_ne!(a, b);
    }

    #[test]
    fn region_outage_fans_out_to_the_whole_region() {
        let global = GlobalTopologyConfig::global_small().build();
        let plan = global.correlated_event(
            FaultPlan::empty(2),
            GlobalLevel::Region,
            1,
            SimTime::from_secs(3),
            FaultKind::RegionOutage,
            SimTime::from_secs(30),
        );
        let devices: Vec<DeviceId> = plan.events().iter().map(|e| e.device).collect();
        let expected: Vec<DeviceId> = global.devices_in(GlobalLevel::Region, 1).collect();
        assert_eq!(devices, expected);
        assert!(plan
            .events()
            .iter()
            .all(|e| e.kind == FaultKind::RegionOutage));
    }

    #[test]
    fn fleet_spec_agrees_with_the_tree() {
        let global = GlobalTopologyConfig::planetary().build();
        let spec = global.fleet_spec();
        assert_eq!(spec.pods(), global.pod_count());
        assert_eq!(spec.devices(), global.device_count());
        for device in (0..global.device_count()).step_by(97) {
            assert_eq!(spec.pod_of_device(device), global.pod_of(device));
            assert_eq!(
                spec.region_of_pod(spec.pod_of_device(device)),
                global.region_of(device)
            );
        }
        assert_eq!(spec.wan_latency(1, 2), global.wan_latency(1, 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_domain_panics() {
        let topo = TopologyConfig::small().build();
        let _ = topo.correlated_event(
            FaultPlan::empty(1),
            DomainLevel::Rack,
            99,
            SimTime::ZERO,
            FaultKind::RackPowerLoss,
            SimTime::from_secs(1),
        );
    }
}
