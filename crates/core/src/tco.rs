//! Total-cost-of-ownership accounting.
//!
//! The paper's headline result is a 44 % average TCO reduction versus GPUs
//! (§1), reported per model as relative **Perf/TCO** and **Perf/Watt**
//! (Fig. 4, Fig. 6). This module turns a server population and a measured
//! throughput into those two relatives.
//!
//! # Examples
//!
//! ```
//! use mtia_core::tco::{ServerCost, PlatformMetrics};
//! use mtia_core::units::Watts;
//!
//! let gpu = PlatformMetrics::new(ServerCost::gpu_server(), 1000.0);
//! let mtia = PlatformMetrics::new(ServerCost::mtia_server(), 780.0);
//! let rel = mtia.relative_to(&gpu);
//! assert!(rel.perf_per_tco > 1.5); // MTIA wins on Perf/TCO
//! ```

use std::fmt;

use crate::calib;
use crate::units::{CostUnits, Watts};

/// Capex + lifetime-energy cost of one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCost {
    /// One-time hardware cost.
    pub capex: CostUnits,
    /// Provisioned power for the whole server.
    pub power: Watts,
}

impl ServerCost {
    /// Builds a server cost from platform parts.
    pub fn new(capex: CostUnits, power: Watts) -> Self {
        ServerCost { capex, power }
    }

    /// The calibrated 24-accelerator MTIA 2i server.
    pub fn mtia_server() -> Self {
        let capex = CostUnits::new(calib::SERVER_BASE_COST + 24.0 * calib::MTIA_MODULE_COST);
        let power = Watts::new(calib::MTIA_SERVER_HOST_POWER_W) + Watts::new(24.0 * 65.0);
        ServerCost { capex, power }
    }

    /// The calibrated 8-GPU server (H100-class comparator).
    pub fn gpu_server() -> Self {
        Self::gpu_server_with(calib::GPU_MODULE_COST, Watts::new(560.0))
    }

    /// An 8-GPU server with explicit per-module cost and typical power —
    /// for comparator-generation sensitivity studies.
    pub fn gpu_server_with(module_cost: f64, typical_power: Watts) -> Self {
        let capex = CostUnits::new(calib::SERVER_BASE_COST + 8.0 * module_cost);
        let power = Watts::new(calib::GPU_SERVER_HOST_POWER_W) + typical_power.scale(8.0);
        ServerCost { capex, power }
    }

    /// Total cost of ownership: capex plus lifetime energy.
    pub fn tco(&self) -> CostUnits {
        self.capex + CostUnits::new(self.power.as_f64() * calib::POWER_COST_PER_WATT)
    }
}

/// Throughput achieved on a platform together with what the platform costs.
///
/// Throughput units are arbitrary (requests/s, samples/s) but must match
/// between the two sides of a comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformMetrics {
    /// Server cost basis.
    pub cost: ServerCost,
    /// Sustained throughput per server, in caller-chosen units.
    pub throughput: f64,
}

impl PlatformMetrics {
    /// Creates platform metrics.
    ///
    /// # Panics
    ///
    /// Panics if `throughput` is negative or non-finite.
    pub fn new(cost: ServerCost, throughput: f64) -> Self {
        assert!(
            throughput.is_finite() && throughput >= 0.0,
            "throughput must be finite and non-negative"
        );
        PlatformMetrics { cost, throughput }
    }

    /// Throughput per cost unit.
    pub fn perf_per_tco(&self) -> f64 {
        self.throughput / self.cost.tco().as_f64()
    }

    /// Throughput per provisioned watt.
    pub fn perf_per_watt(&self) -> f64 {
        self.throughput / self.cost.power.as_f64()
    }

    /// Both efficiency metrics relative to a `baseline` platform
    /// (the GPU server in all of the paper's figures).
    pub fn relative_to(&self, baseline: &PlatformMetrics) -> RelativeEfficiency {
        RelativeEfficiency {
            perf: self.throughput / baseline.throughput,
            perf_per_tco: self.perf_per_tco() / baseline.perf_per_tco(),
            perf_per_watt: self.perf_per_watt() / baseline.perf_per_watt(),
        }
    }
}

/// Perf, Perf/TCO, and Perf/Watt of one platform relative to a baseline.
///
/// A `perf_per_tco` of 1.8 reads as "180 % of the GPU baseline", the way
/// Fig. 4 and Fig. 6 are labelled. The TCO *reduction* of §1 is
/// `1 - 1/perf_per_tco`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeEfficiency {
    /// Raw throughput ratio.
    pub perf: f64,
    /// Perf/TCO ratio.
    pub perf_per_tco: f64,
    /// Perf/Watt ratio.
    pub perf_per_watt: f64,
}

impl RelativeEfficiency {
    /// The equivalent TCO reduction, e.g. `0.44` for a 1.79× Perf/TCO gain.
    pub fn tco_reduction(&self) -> f64 {
        1.0 - 1.0 / self.perf_per_tco
    }
}

impl fmt::Display for RelativeEfficiency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "perf {:.0}%, perf/TCO {:.0}%, perf/W {:.0}%",
            self.perf * 100.0,
            self.perf_per_tco * 100.0,
            self.perf_per_watt * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_server_tco_composition() {
        let gpu = ServerCost::gpu_server();
        assert_eq!(gpu.capex.as_f64(), 1000.0);
        // Energy should be a meaningful but non-dominant share (~25 %).
        let energy = gpu.tco().as_f64() - gpu.capex.as_f64();
        let share = energy / gpu.tco().as_f64();
        assert!(share > 0.15 && share < 0.35, "energy share {share}");
    }

    #[test]
    fn mtia_server_is_cheaper_and_lower_power() {
        let mtia = ServerCost::mtia_server();
        let gpu = ServerCost::gpu_server();
        assert!(mtia.tco().as_f64() < gpu.tco().as_f64());
        assert!(mtia.power.as_f64() < gpu.power.as_f64());
    }

    #[test]
    fn headline_tco_reduction_band() {
        // With the calibrated costs, an MTIA server at ~70 % of GPU-server
        // throughput (the simulator's average across the Fig. 6 zoo) lands
        // at the paper's 44 % average TCO reduction.
        let gpu = PlatformMetrics::new(ServerCost::gpu_server(), 1.0);
        let mtia = PlatformMetrics::new(ServerCost::mtia_server(), 0.70);
        let rel = mtia.relative_to(&gpu);
        assert!(
            (rel.tco_reduction() - 0.44).abs() < 0.05,
            "tco reduction {}",
            rel.tco_reduction()
        );
        // Perf/Watt clearly smaller than Perf/TCO (§7: "easier to
        // outperform GPUs in Perf/TCO than in Perf/Watt").
        assert!(rel.perf_per_watt > 0.9 && rel.perf_per_watt < 1.6);
        assert!(rel.perf_per_tco > rel.perf_per_watt);
    }

    #[test]
    fn relative_to_identity() {
        let gpu = PlatformMetrics::new(ServerCost::gpu_server(), 5.0);
        let rel = gpu.relative_to(&gpu);
        assert_eq!(rel.perf, 1.0);
        assert_eq!(rel.perf_per_tco, 1.0);
        assert_eq!(rel.perf_per_watt, 1.0);
        assert!(rel.tco_reduction().abs() < 1e-12);
    }

    #[test]
    fn display_formats_percentages() {
        let rel = RelativeEfficiency {
            perf: 0.5,
            perf_per_tco: 1.8,
            perf_per_watt: 1.02,
        };
        assert_eq!(rel.to_string(), "perf 50%, perf/TCO 180%, perf/W 102%");
    }

    #[test]
    #[should_panic(expected = "throughput")]
    fn negative_throughput_panics() {
        let _ = PlatformMetrics::new(ServerCost::gpu_server(), -1.0);
    }
}
