//! Calibration constants for quantities the paper does not publish.
//!
//! The paper reports only *relative* results (Perf/TCO, Perf/Watt, speedup
//! factors). Everything needed to regenerate those relatives from workload
//! physics is in [`crate::spec`]; this module pins down the handful of
//! proprietary anchors — dollar costs and host overheads — that the paper
//! deliberately withholds. Each constant's doc comment states which published
//! statement it is backed out of. Costs are arbitrary [`CostUnits`]; only
//! ratios are meaningful.
//!
//! [`CostUnits`]: crate::units::CostUnits

/// Bandwidth fraction lost to memory-controller-computed ECC on LPDDR.
///
/// §5.1: "the 10–15 % throughput penalty associated with the inefficient
/// memory-controller-based ECC". We model the midpoint.
pub const CONTROLLER_ECC_PENALTY: f64 = 0.125;

/// Cost of the non-accelerator server platform (CPUs, DRAM, NICs, chassis).
///
/// §3.4 notes that the Grand Teton platform is shared between the GPU and
/// MTIA servers, so this term is identical on both sides and only its
/// magnitude relative to the accelerator modules matters.
pub const SERVER_BASE_COST: f64 = 160.0;

/// Cost of one GPU module (board + HBM + NVLink-class interconnect).
///
/// Anchored so that a fully populated 8-GPU server is 1000 capex units.
pub const GPU_MODULE_COST: f64 = 105.0;

/// Cost of one MTIA 2i module (two chips share a module in the real server;
/// we account per chip).
///
/// Backed out of the published endpoints: with the per-model performance
/// ratios the simulator produces (an MTIA server ≈ 0.45–1.1× an H100-class
/// GPU server on launched models, mean ≈ 0.7), an average Perf/TCO gain of
/// 1.79× (= the 44 % TCO reduction of §1) requires the MTIA module to cost
/// ≈ 13× less than a GPU module. That magnitude is plausible because the
/// two sides are priced differently: Meta pays *market price* for GPUs
/// (H100-class boards carried very large vendor margins in 2024) but
/// *bill-of-materials* for the in-house module — a ~420 mm² die with LPDDR
/// instead of HBM and no scale-up interconnect. The exact value is a
/// calibration, not a measurement.
pub const MTIA_MODULE_COST: f64 = 8.0;

/// Lifetime energy cost per provisioned watt, in cost units.
///
/// Covers electricity plus the power-proportional share of datacenter
/// infrastructure over the service life. Chosen so energy is a meaningful
/// but non-dominant TCO share (≈ 25 % for the GPU server), consistent with
/// hyperscaler TCO breakdowns.
pub const POWER_COST_PER_WATT: f64 = 0.08;

/// Host-side power of the MTIA server (CPUs, DRAM, fans, NICs).
pub const MTIA_SERVER_HOST_POWER_W: f64 = 1200.0;

/// Host-side power of the GPU server (same Grand Teton platform).
pub const GPU_SERVER_HOST_POWER_W: f64 = 1200.0;

/// Zipf skew of embedding-row popularity in recommendation workloads.
///
/// §4.2 reports that caching keeps 40–60 % of sparse (TBE) accesses in SRAM
/// even though tables are tens of GB. Under Che's LRU approximation, a
/// Zipf(s ≈ 0.95) row-popularity distribution reproduces that hit-rate band
/// for a 100–200 MB cache over tens-of-GB tables (cache fractions of
/// 0.05–1 % of rows), consistent with published DLRM access traces.
pub const EMBEDDING_ZIPF_SKEW: f64 = 0.95;

/// GPU sustained-efficiency ceiling on large, compute-bound GEMMs.
///
/// Mature GPU software stacks reach 60–75 % of tensor-core peak on
/// well-shaped FC layers at serving batch sizes; we use the middle of that
/// band. (MTIA's equivalent ceiling is emergent from the simulator: §4.2
/// reports ≥ 93 % for SRAM-resident shapes.)
pub const GPU_GEMM_EFFICIENCY: f64 = 0.68;

/// GPU effective HBM bandwidth fraction for irregular (TBE gather) traffic.
pub const GPU_GATHER_BW_EFFICIENCY: f64 = 0.75;

/// MTIA effective LPDDR bandwidth fraction for irregular gather traffic.
pub const MTIA_GATHER_BW_EFFICIENCY: f64 = 0.70;

#[cfg(test)]
mod tests {
    // The constants under test are compile-time values by design: these
    // tests document the calibration invariants and fail loudly if anyone
    // edits a constant out of its published band.
    #![allow(clippy::assertions_on_constants)]

    use super::*;

    #[test]
    fn ecc_penalty_in_published_band() {
        assert!(CONTROLLER_ECC_PENALTY >= 0.10 && CONTROLLER_ECC_PENALTY <= 0.15);
    }

    #[test]
    fn gpu_server_capex_is_1000() {
        assert_eq!(SERVER_BASE_COST + 8.0 * GPU_MODULE_COST, 1000.0);
    }

    #[test]
    fn constants_are_sane() {
        assert!(MTIA_MODULE_COST > 0.0 && MTIA_MODULE_COST < GPU_MODULE_COST);
        assert!(POWER_COST_PER_WATT > 0.0);
        assert!(EMBEDDING_ZIPF_SKEW > 0.0 && EMBEDDING_ZIPF_SKEW < 2.0);
        assert!(GPU_GEMM_EFFICIENCY > 0.0 && GPU_GEMM_EFFICIENCY < 1.0);
    }
}
