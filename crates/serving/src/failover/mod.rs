//! Shard-replicated serving cells with domain-aware failover.
//!
//! The per-device resilience stack ([`crate::resilience`]) retries and
//! sheds around *independent* device faults, but the outages that
//! actually threaten serving SLOs are correlated: a host crash takes out
//! every accelerator behind one PCIe root complex at once (24 in the
//! paper's server, §3.4), and a rack/power event takes out many hosts.
//! Surviving those requires *redundancy placed across fault domains*,
//! not retries — a retry onto a sibling device on the same dead host
//! goes nowhere.
//!
//! This module is the serving half of that story:
//!
//! * [`FaultDomains`] — the topology oracle placement consults (device →
//!   host → rack → power domain). `mtia_fleet::topology::FleetTopology`
//!   is the production implementation; serving stays independent of the
//!   fleet crate by owning only the trait.
//! * [`placement`] — naive (contiguous, blast-radius-blind) vs
//!   domain-aware (anti-affinity) replica placement for a sharded cell.
//! * [`sim`] — the failover event loop: replica promotion on domain
//!   loss, warm restore from checkpoint, re-replication onto spares,
//!   integrated with the
//!   [`DegradationController`](crate::resilience::DegradationController)
//!   admission path. Every shard checkpoint is hashed straight from the
//!   shard's queue, in-flight epoch, replica and health states into the
//!   report's `checkpoint_fingerprint`, so two runs of one seed provably
//!   checkpoint the same state and their warm restarts cost the same.
//! * [`report`] — the availability scorecard: goodput,
//!   unavailable-seconds, incident-window P99, recovery time.

pub mod placement;
pub mod report;
pub mod sim;

pub use placement::{place_replicas, PlacementPolicy};
pub use report::{FailoverComparison, FailoverReport};
pub use sim::{
    compare_failover, simulate_cell_failover, simulate_cell_failover_traced, FailoverConfig,
};

use mtia_sim::faults::DeviceId;

/// The fault-domain oracle: who shares a blast radius with whom.
///
/// Domains nest — devices on one host share that host's rack and power
/// domain — so placement only ever needs the three ancestor lookups.
/// Implementations must be pure functions of the device id (called
/// repeatedly during placement and re-replication), and ids must be
/// dense in `0..devices()`.
pub trait FaultDomains {
    /// Total device count; ids are `0..devices()`.
    fn devices(&self) -> u32;
    /// Host (server) index owning `device`.
    fn host_of(&self, device: DeviceId) -> u32;
    /// Rack index owning `device`.
    fn rack_of(&self, device: DeviceId) -> u32;
    /// Power-domain index owning `device`.
    fn power_domain_of(&self, device: DeviceId) -> u32;
}

/// A flat topology for tests: every device its own host/rack/domain
/// (no correlation — domain-aware placement degenerates to load
/// balancing).
#[derive(Debug, Clone, Copy)]
pub struct FlatDomains(pub u32);

impl FaultDomains for FlatDomains {
    fn devices(&self) -> u32 {
        self.0
    }
    fn host_of(&self, device: DeviceId) -> u32 {
        device
    }
    fn rack_of(&self, device: DeviceId) -> u32 {
        device
    }
    fn power_domain_of(&self, device: DeviceId) -> u32 {
        device
    }
}
