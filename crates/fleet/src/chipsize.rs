//! The §5.4 chip-sizing study: why smaller chips win for inference.
//!
//! Two effects are modelled. First, **allocation granularity**: capacity is
//! provisioned in whole devices per model, and 24 small chips quantize a
//! model's peak demand far more tightly than 8 big ones. Second,
//! **peak buffering under variable load**: production reserves capacity
//! for peak demand, so the average utilization of the provisioned fleet is
//! `avg/peak × (demand/provisioned)`; oversized devices strand more of it.
//! Together these produce the paper's "additional gain of 5 % to 90 % in
//! Perf/TCO and Perf/Watt in production compared to offline traffic
//! replay".

use rand::Rng;

/// A device-size option.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceOption {
    /// Name.
    pub name: &'static str,
    /// Throughput of one device for a reference model, in arbitrary
    /// capacity units.
    pub device_throughput: f64,
    /// Devices per server.
    pub per_server: u32,
}

impl DeviceOption {
    /// The small-chip option (MTIA-like: 24 per server).
    pub fn small_chip() -> Self {
        DeviceOption {
            name: "small (24/server)",
            device_throughput: 1.0,
            per_server: 24,
        }
    }

    /// The big-chip option (GPU-like: 8 per server, ~3× the per-device
    /// throughput so server totals are comparable).
    pub fn big_chip() -> Self {
        DeviceOption {
            name: "big (8/server)",
            device_throughput: 3.0,
            per_server: 8,
        }
    }
}

/// One model's serving demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelDemand {
    /// Peak demand in capacity units.
    pub peak: f64,
    /// Average/peak ratio (diurnal valley depth).
    pub avg_to_peak: f64,
}

/// Samples a production-like model portfolio: demand spans two orders of
/// magnitude, with most models needing only a handful of devices (§5.4:
/// "Meta has many models with small to medium capacity demands").
pub fn sample_portfolio<R: Rng + ?Sized>(models: u32, rng: &mut R) -> Vec<ModelDemand> {
    (0..models)
        .map(|_| {
            // Log-uniform peak demand from 0.3 to 30 device-units.
            let log: f64 = rng.gen_range(0.3f64.ln()..30f64.ln());
            ModelDemand {
                peak: log.exp(),
                avg_to_peak: rng.gen_range(0.45..0.75),
            }
        })
        .collect()
}

/// Provisioning outcome for one option over a portfolio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvisionReport {
    /// Total devices provisioned.
    pub devices: u32,
    /// Mean utilization of the provisioned capacity.
    pub utilization: f64,
}

/// Provisions `option` for every model: enough whole devices to cover the
/// model's peak.
pub fn provision(option: DeviceOption, portfolio: &[ModelDemand]) -> ProvisionReport {
    let mut devices = 0u32;
    let mut served_avg = 0.0;
    for m in portfolio {
        let need = (m.peak / option.device_throughput).ceil().max(1.0) as u32;
        devices += need;
        served_avg += m.peak * m.avg_to_peak;
    }
    let provisioned = devices as f64 * option.device_throughput;
    ProvisionReport {
        devices,
        utilization: served_avg / provisioned,
    }
}

/// The §5.4 comparison: production efficiency gain of small over big
/// chips, normalized to their offline-replay (peak-rate) equality.
///
/// Offline replay measures per-device peak throughput, where the two
/// options are equivalent per provisioned unit. Production pays for
/// *provisioned* capacity; the efficiency ratio of the options equals the
/// ratio of their achieved utilizations.
pub fn production_gain_over_replay(portfolio: &[ModelDemand]) -> f64 {
    let small = provision(DeviceOption::small_chip(), portfolio);
    let big = provision(DeviceOption::big_chip(), portfolio);
    small.utilization / big.utilization - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_chips_quantize_demand_tighter() {
        // A model needing 1.2 units: small chips provision 2 devices (2.0),
        // big chips 1 device (3.0) — 50 % more stranded capacity.
        let demand = [ModelDemand {
            peak: 1.2,
            avg_to_peak: 0.6,
        }];
        let small = provision(DeviceOption::small_chip(), &demand);
        let big = provision(DeviceOption::big_chip(), &demand);
        assert_eq!(small.devices, 2);
        assert_eq!(big.devices, 1);
        assert!(small.utilization > big.utilization);
    }

    #[test]
    fn production_gain_in_paper_band() {
        // §5.4: "an additional gain of 5% to 90%" for individual
        // portfolios; the fleet-level mean sits inside that band.
        let mut rng = StdRng::seed_from_u64(81);
        let mut gains = Vec::new();
        for _ in 0..50 {
            let portfolio = sample_portfolio(40, &mut rng);
            gains.push(production_gain_over_replay(&portfolio));
        }
        let mean = gains.iter().sum::<f64>() / gains.len() as f64;
        assert!((0.05..=0.90).contains(&mean), "mean gain {mean}");
        // Individual portfolios span a wide range but stay positive.
        assert!(gains.iter().all(|&g| g > 0.0), "small chips never lose");
    }

    #[test]
    fn small_model_portfolios_show_the_largest_gains() {
        // Fleets dominated by sub-device models are where big chips waste
        // the most.
        let tiny: Vec<ModelDemand> = (0..30)
            .map(|i| ModelDemand {
                peak: 0.4 + 0.05 * i as f64,
                avg_to_peak: 0.6,
            })
            .collect();
        let gain = production_gain_over_replay(&tiny);
        assert!(gain > 0.4, "tiny-model gain {gain}");
    }

    #[test]
    fn huge_models_equalize_the_options() {
        // A model needing 300 units amortizes quantization on both.
        let huge = [ModelDemand {
            peak: 300.0,
            avg_to_peak: 0.6,
        }];
        let gain = production_gain_over_replay(&huge);
        assert!(gain.abs() < 0.05, "huge-model gain {gain}");
    }

    #[test]
    fn utilization_bounded_by_avg_to_peak() {
        let mut rng = StdRng::seed_from_u64(82);
        let portfolio = sample_portfolio(100, &mut rng);
        for option in [DeviceOption::small_chip(), DeviceOption::big_chip()] {
            let r = provision(option, &portfolio);
            assert!(r.utilization <= 0.75);
            assert!(r.utilization > 0.1);
        }
    }
}
