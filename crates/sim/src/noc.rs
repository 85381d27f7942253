//! The network-on-chip (§3.1) and the §5.5 transaction-ordering deadlock.
//!
//! The NoC connects 64 PEs, the Control Core, the host interface, and the
//! memory subsystem through side crossbars. It is non-blocking, enforces
//! flow control at the sources with leaky-bucket traffic shaping, and
//! fragments packets to smooth bursts. MTIA 2i adds broadcast-read support
//! so one DRAM weight stream can feed every PE column (§4.2).

use std::collections::HashMap;

use mtia_core::spec::NocSpec;
use mtia_core::units::{Bandwidth, Bytes, SimTime};

/// A leaky-bucket traffic shaper: tokens refill at `rate`, bursts up to
/// `burst` pass immediately, anything beyond is delayed.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakyBucket {
    rate: Bandwidth,
    burst: Bytes,
    /// Tokens available at `last_update`.
    tokens: f64,
    last_update: SimTime,
}

impl LeakyBucket {
    /// Creates a full bucket.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn new(rate: Bandwidth, burst: Bytes) -> Self {
        assert!(rate.as_bytes_per_s() > 0.0, "shaper rate must be positive");
        LeakyBucket {
            rate,
            burst,
            tokens: burst.as_f64(),
            last_update: SimTime::ZERO,
        }
    }

    /// Requests admission of `bytes` at time `now`. Returns the delay until
    /// the transfer may start (zero if within the burst allowance).
    ///
    /// # Panics
    ///
    /// Panics if `now` moves backwards.
    pub fn admit(&mut self, bytes: Bytes, now: SimTime) -> SimTime {
        assert!(now >= self.last_update, "time moved backwards in shaper");
        // Refill.
        let elapsed = (now - self.last_update).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.rate.as_bytes_per_s()).min(self.burst.as_f64());
        self.last_update = now;

        let need = bytes.as_f64();
        if self.tokens >= need {
            self.tokens -= need;
            SimTime::ZERO
        } else {
            let deficit = need - self.tokens;
            self.tokens = 0.0;
            SimTime::from_secs_f64(deficit / self.rate.as_bytes_per_s())
        }
    }
}

/// The NoC bandwidth/contention model.
#[derive(Debug, Clone, PartialEq)]
pub struct NocModel {
    spec: NocSpec,
    /// Per-fragment header overhead in bytes.
    header_bytes: u64,
}

impl NocModel {
    /// Creates a model from the chip's NoC specification.
    pub fn new(spec: NocSpec) -> Self {
        NocModel {
            spec,
            header_bytes: 16,
        }
    }

    /// Whether broadcast reads are available.
    pub fn broadcast_read(&self) -> bool {
        self.spec.broadcast_read
    }

    /// Fragments a transfer and returns (packets, wire bytes including
    /// headers) — the §3.1 packet-fragmentation behaviour.
    pub fn fragment(&self, bytes: Bytes) -> (u64, Bytes) {
        if bytes == Bytes::ZERO {
            return (0, Bytes::ZERO);
        }
        let frag = self.spec.max_fragment.as_u64();
        let packets = bytes.as_u64().div_ceil(frag);
        (packets, bytes + Bytes::new(packets * self.header_bytes))
    }

    /// Effective bandwidth when `initiators` initiators contend. The
    /// non-blocking crossbar divides fairly; a single initiator cannot use
    /// more than one port's worth (1/8 of bisection).
    pub fn effective_bandwidth(&self, initiators: u32) -> Bandwidth {
        let initiators = initiators.max(1);
        let per_port = self.spec.bisection_bw / 8.0;
        let share = self.spec.bisection_bw / initiators as f64;
        per_port.min(share)
    }

    /// Time to move `bytes` for one initiator among `initiators` concurrent
    /// ones, including fragmentation overhead.
    pub fn transfer_time(&self, bytes: Bytes, initiators: u32) -> SimTime {
        let (_, wire) = self.fragment(bytes);
        if wire == Bytes::ZERO {
            return SimTime::ZERO;
        }
        self.effective_bandwidth(initiators).time_to_move(wire)
    }
}

/// The §5.5 deadlock: a cyclic wait between the Control Core, the PCIe
/// controller's transaction ordering, and NoC backpressure.
pub mod deadlock {
    use super::*;

    /// Participants in the deadlock cycle.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum Agent {
        /// The quad-core RISC-V Control Core.
        ControlCore,
        /// The PCIe controller with its in-flight transaction queue.
        PcieController,
        /// The NoC serialization point.
        Noc,
        /// Host memory.
        Host,
    }

    /// System configuration relevant to the deadlock.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DeadlockConfig {
        /// Whether Control Core firmware keeps its working memory in host
        /// DRAM (the shipped-silicon behaviour) or relocated to device SRAM
        /// (the firmware mitigation).
        pub control_memory_on_host: bool,
        /// Whether the PCIe controller has a queue of in-flight
        /// transactions (true under load; ordering rules then apply).
        pub pcie_queue_busy: bool,
        /// Whether the NoC is applying backpressure that serializes
        /// transactions behind a Control Core operation.
        pub noc_backpressure: bool,
    }

    impl DeadlockConfig {
        /// The hazardous production configuration before the firmware fix.
        pub fn pre_mitigation_under_load() -> Self {
            DeadlockConfig {
                control_memory_on_host: true,
                pcie_queue_busy: true,
                noc_backpressure: true,
            }
        }

        /// After the firmware update relocated the Control Core's memory to
        /// device SRAM.
        pub fn post_mitigation_under_load() -> Self {
            DeadlockConfig {
                control_memory_on_host: false,
                ..Self::pre_mitigation_under_load()
            }
        }
    }

    /// Builds the wait-for graph implied by a configuration.
    ///
    /// Edges (§5.5): the Control Core waits on Host (its memory read); the
    /// host read's *completion* waits on PCIe ordering (earlier
    /// transactions must finish first) when the queue is busy; those earlier
    /// transactions wait on the NoC (backpressure); the NoC serialization
    /// waits for the Control Core to complete an operation.
    pub fn wait_for_graph(config: DeadlockConfig) -> Vec<(Agent, Agent)> {
        let mut edges = Vec::new();
        if config.control_memory_on_host {
            edges.push((Agent::ControlCore, Agent::Host));
            if config.pcie_queue_busy {
                edges.push((Agent::Host, Agent::PcieController));
            }
        }
        if config.pcie_queue_busy && config.noc_backpressure {
            edges.push((Agent::PcieController, Agent::Noc));
        }
        if config.noc_backpressure {
            edges.push((Agent::Noc, Agent::ControlCore));
        }
        edges
    }

    /// Whether the wait-for graph contains a cycle (deadlock).
    pub fn deadlock_possible(config: DeadlockConfig) -> bool {
        let edges = wait_for_graph(config);
        let mut adj: HashMap<Agent, Vec<Agent>> = HashMap::new();
        for (a, b) in &edges {
            adj.entry(*a).or_default().push(*b);
        }
        // DFS cycle detection.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let agents = [
            Agent::ControlCore,
            Agent::PcieController,
            Agent::Noc,
            Agent::Host,
        ];
        let mut marks: HashMap<Agent, Mark> = agents.iter().map(|&a| (a, Mark::White)).collect();
        fn dfs(
            a: Agent,
            adj: &HashMap<Agent, Vec<Agent>>,
            marks: &mut HashMap<Agent, Mark>,
        ) -> bool {
            marks.insert(a, Mark::Grey);
            for &next in adj.get(&a).map(|v| v.as_slice()).unwrap_or(&[]) {
                match marks[&next] {
                    Mark::Grey => return true,
                    Mark::White => {
                        if dfs(next, adj, marks) {
                            return true;
                        }
                    }
                    Mark::Black => {}
                }
            }
            marks.insert(a, Mark::Black);
            false
        }
        for &a in &agents {
            if marks[&a] == Mark::White && dfs(a, &adj, &mut marks) {
                return true;
            }
        }
        false
    }

    /// Probability that one stress-test run (PE utilization driven to
    /// 100 %) triggers the hazardous interleaving. §5.5: ~1 % of servers
    /// under stress lost PCIe connectivity.
    pub const STRESS_TRIGGER_PROBABILITY: f64 = 0.01;

    /// Probability that a production server serving an affected model hits
    /// the interleaving in the observation window. §5.5: ~0.1 %.
    pub const PRODUCTION_TRIGGER_PROBABILITY: f64 = 0.001;
}

#[cfg(test)]
mod tests {
    use super::deadlock::*;
    use super::*;
    use mtia_core::spec::chips;

    fn noc() -> NocModel {
        NocModel::new(chips::mtia2i().noc)
    }

    #[test]
    fn leaky_bucket_passes_bursts_then_throttles() {
        let mut b = LeakyBucket::new(Bandwidth::from_gb_per_s(10.0), Bytes::from_kib(64));
        // Within burst: immediate.
        assert_eq!(b.admit(Bytes::from_kib(64), SimTime::ZERO), SimTime::ZERO);
        // Bucket empty: 64 KiB at 10 GB/s ≈ 6.55 µs delay.
        let d = b.admit(Bytes::from_kib(64), SimTime::ZERO);
        assert!(
            d > SimTime::from_micros(6) && d < SimTime::from_micros(7),
            "delay {d}"
        );
    }

    #[test]
    fn leaky_bucket_refills_over_time() {
        let mut b = LeakyBucket::new(Bandwidth::from_gb_per_s(10.0), Bytes::from_kib(64));
        assert_eq!(b.admit(Bytes::from_kib(64), SimTime::ZERO), SimTime::ZERO);
        // After 10 µs, 100 KB ≥ 64 KiB refilled (capped at burst).
        assert_eq!(
            b.admit(Bytes::from_kib(64), SimTime::from_micros(10)),
            SimTime::ZERO
        );
    }

    #[test]
    fn fragmentation_counts_packets_and_headers() {
        let n = noc();
        let (packets, wire) = n.fragment(Bytes::from_kib(10));
        assert_eq!(packets, 3); // 4 KiB fragments
        assert_eq!(wire, Bytes::from_kib(10) + Bytes::new(3 * 16));
        assert_eq!(n.fragment(Bytes::ZERO), (0, Bytes::ZERO));
    }

    #[test]
    fn contention_divides_bandwidth() {
        let n = noc();
        let alone = n.effective_bandwidth(1);
        let crowded = n.effective_bandwidth(64);
        assert!(alone.as_bytes_per_s() > crowded.as_bytes_per_s());
        // 64 initiators share the full bisection fairly.
        let expected = chips::mtia2i().noc.bisection_bw.as_bytes_per_s() / 64.0;
        assert!((crowded.as_bytes_per_s() - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn deadlock_reproduces_under_pre_mitigation_load() {
        assert!(deadlock_possible(
            DeadlockConfig::pre_mitigation_under_load()
        ));
    }

    #[test]
    fn firmware_mitigation_breaks_the_cycle() {
        assert!(!deadlock_possible(
            DeadlockConfig::post_mitigation_under_load()
        ));
    }

    #[test]
    fn no_deadlock_without_queue_pressure() {
        let light = DeadlockConfig {
            control_memory_on_host: true,
            pcie_queue_busy: false,
            noc_backpressure: true,
        };
        assert!(!deadlock_possible(light));
        let no_bp = DeadlockConfig {
            control_memory_on_host: true,
            pcie_queue_busy: true,
            noc_backpressure: false,
        };
        assert!(!deadlock_possible(no_bp));
    }

    #[test]
    fn wait_for_graph_edges_match_narrative() {
        let edges = wait_for_graph(DeadlockConfig::pre_mitigation_under_load());
        assert!(edges.contains(&(Agent::ControlCore, Agent::Host)));
        assert!(edges.contains(&(Agent::Host, Agent::PcieController)));
        assert!(edges.contains(&(Agent::PcieController, Agent::Noc)));
        assert!(edges.contains(&(Agent::Noc, Agent::ControlCore)));
    }
}
