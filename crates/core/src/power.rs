//! Chip- and server-level power models.
//!
//! Used by the overclocking study (§5.2: does 1.1 → 1.35 GHz stay inside the
//! power envelope?) and the provisioned-power study (§5.3: P90-based rack
//! budgeting). Dynamic power scales with frequency and the square of voltage;
//! idle (leakage + always-on) power does not.

use crate::units::{Hertz, Watts};

/// A simple CMOS power model: `P(util, f, v) = idle + dyn · util · (f/f₀) · (v/v₀)²`.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Idle power (leakage, clocks, LPDDR refresh, PHYs).
    pub idle: Watts,
    /// Dynamic power at nominal frequency/voltage and 100 % utilization.
    pub dynamic_at_nominal: Watts,
    /// Nominal frequency.
    pub nominal_frequency: Hertz,
    /// Nominal supply voltage in volts.
    pub nominal_voltage: f64,
}

impl PowerModel {
    /// A model for MTIA 2i: 85 W TDP / 65 W typical at 1.35 GHz, 0.85 V.
    ///
    /// Idle is set to 20 W (LPDDR refresh, NoC clocks, PCIe PHY), so typical
    /// production load corresponds to ~69 % average utilization — consistent
    /// with the §5.3 observation that servers rarely draw provisioned power.
    pub fn mtia2i() -> Self {
        PowerModel {
            idle: Watts::new(20.0),
            dynamic_at_nominal: Watts::new(65.0),
            nominal_frequency: Hertz::from_ghz(1.35),
            nominal_voltage: 0.85,
        }
    }

    /// A model for the GPU baseline: 700 W TDP, 560 W typical.
    pub fn gpu_baseline() -> Self {
        PowerModel {
            idle: Watts::new(90.0),
            dynamic_at_nominal: Watts::new(610.0),
            nominal_frequency: Hertz::from_ghz(1.98),
            nominal_voltage: 0.8,
        }
    }

    /// Power drawn at `utilization` (0..=1) with nominal frequency/voltage.
    pub fn at_utilization(&self, utilization: f64) -> Watts {
        self.at(utilization, self.nominal_frequency, self.nominal_voltage)
    }

    /// Power drawn at `utilization`, `frequency`, and `voltage`.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `0.0..=1.0`.
    pub fn at(&self, utilization: f64, frequency: Hertz, voltage: f64) -> Watts {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization must be in [0, 1], got {utilization}"
        );
        let f_ratio = frequency.ratio(self.nominal_frequency);
        let v_ratio = (voltage / self.nominal_voltage).powi(2);
        self.idle
            + self
                .dynamic_at_nominal
                .scale(utilization * f_ratio * v_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtia_envelope_matches_table2() {
        let m = PowerModel::mtia2i();
        let peak = m.at_utilization(1.0);
        assert!((peak.as_f64() - 85.0).abs() < 1e-9, "peak {peak}");
        // Typical 65 W ↔ ~69 % utilization.
        let typical = m.at_utilization(0.69);
        assert!((typical.as_f64() - 65.0).abs() < 1.0, "typical {typical}");
    }

    #[test]
    fn idle_power_is_floor() {
        let m = PowerModel::mtia2i();
        assert_eq!(m.at_utilization(0.0), m.idle);
    }

    #[test]
    fn frequency_scales_dynamic_only() {
        let m = PowerModel::mtia2i();
        let at_design = m.at(1.0, Hertz::from_ghz(1.1), m.nominal_voltage);
        let at_deployed = m.at(1.0, Hertz::from_ghz(1.35), m.nominal_voltage);
        let expected = 20.0 + 65.0 * (1.1 / 1.35);
        assert!((at_design.as_f64() - expected).abs() < 1e-9);
        assert!(at_deployed.as_f64() > at_design.as_f64());
    }

    #[test]
    fn voltage_scales_quadratically() {
        let m = PowerModel::mtia2i();
        let bumped = m.at(1.0, m.nominal_frequency, 0.9);
        let expected = 20.0 + 65.0 * (0.9f64 / 0.85).powi(2);
        assert!((bumped.as_f64() - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn overrange_utilization_panics() {
        let _ = PowerModel::mtia2i().at_utilization(1.5);
    }
}
