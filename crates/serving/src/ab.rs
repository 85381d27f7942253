//! Large-scale A/B testing in live production (§5.6).
//!
//! The paper validated MTIA 2i by serving the *same trained model* on both
//! platforms with split live traffic and comparing business metrics,
//! system metrics (normalized entropy, the standard CTR-prediction quality
//! measure), and low-level numerics. This module reproduces that harness on
//! synthetic click traffic: a ground-truth CTR process generates labels,
//! each platform produces predictions with its own numeric perturbation,
//! and the arms are compared on NE and a revenue proxy.

use rand::Rng;

use mtia_core::telemetry::LatencyHistogram;
use mtia_core::SimTime;

/// Normalized entropy: average log-loss divided by the entropy of the
/// background CTR. Lower is better; 1.0 means "no better than predicting
/// the average CTR" (He et al., the paper's reference \[13\]).
///
/// # Panics
///
/// Panics if inputs are empty or lengths differ.
pub fn normalized_entropy(labels: &[bool], predictions: &[f64]) -> f64 {
    assert!(!labels.is_empty(), "empty evaluation set");
    assert_eq!(
        labels.len(),
        predictions.len(),
        "labels/predictions mismatch"
    );
    let n = labels.len() as f64;
    let clamp = |p: f64| p.clamp(1e-9, 1.0 - 1e-9);
    let log_loss: f64 = labels
        .iter()
        .zip(predictions)
        .map(|(&y, &p)| {
            let p = clamp(p);
            if y {
                -p.ln()
            } else {
                -(1.0 - p).ln()
            }
        })
        .sum::<f64>()
        / n;
    let base = clamp(labels.iter().filter(|&&y| y).count() as f64 / n);
    let base_entropy = -(base * base.ln() + (1.0 - base) * (1.0 - base).ln());
    log_loss / base_entropy
}

/// A serving platform in the A/B test, characterized by its numeric
/// perturbation of the model's true scores and its latency distribution.
#[derive(Debug, Clone, Copy)]
pub struct PlatformArm {
    /// Name ("gpu" / "mtia").
    pub name: &'static str,
    /// Standard deviation of the logit-space numeric noise (FP16 rounding,
    /// kernel nondeterminism). Healthy platforms sit well below 0.01.
    pub logit_noise_std: f64,
    /// Additive logit bias — a *defective* deployment (bad quantization,
    /// §4.4) shows up here.
    pub logit_bias: f64,
    /// Mean serving latency.
    pub mean_latency: SimTime,
}

impl PlatformArm {
    /// A healthy GPU control arm.
    pub fn gpu_control() -> Self {
        PlatformArm {
            name: "gpu",
            logit_noise_std: 1e-4,
            logit_bias: 0.0,
            mean_latency: SimTime::from_millis(40),
        }
    }

    /// A healthy MTIA treatment arm (FP16 numerics: slightly more noise).
    pub fn mtia_treatment() -> Self {
        PlatformArm {
            name: "mtia",
            logit_noise_std: 8e-4,
            logit_bias: 0.0,
            mean_latency: SimTime::from_millis(38),
        }
    }

    /// An MTIA arm with a broken quantization config — used to show the
    /// harness *detects* quality regressions.
    pub fn mtia_miscalibrated() -> Self {
        PlatformArm {
            logit_bias: 0.35,
            ..Self::mtia_treatment()
        }
    }
}

/// Per-arm results.
#[derive(Debug, Clone)]
pub struct ArmReport {
    /// Arm name.
    pub name: &'static str,
    /// Requests served.
    pub requests: u64,
    /// Normalized entropy.
    pub ne: f64,
    /// Revenue proxy: Σ predicted-CTR × bid for auctioned impressions.
    pub revenue: f64,
    /// Serving latency distribution.
    pub latency: LatencyHistogram,
}

/// The complete A/B comparison.
#[derive(Debug, Clone)]
pub struct AbReport {
    /// Control (GPU).
    pub control: ArmReport,
    /// Treatment (MTIA).
    pub treatment: ArmReport,
}

impl AbReport {
    /// Relative NE regression of the treatment arm (positive = worse).
    pub fn ne_regression(&self) -> f64 {
        self.treatment.ne / self.control.ne - 1.0
    }

    /// Relative revenue delta of the treatment arm.
    pub fn revenue_delta(&self) -> f64 {
        self.treatment.revenue / self.control.revenue - 1.0
    }

    /// Whether the treatment passes the launch bar: NE within
    /// `ne_tolerance` and revenue within `revenue_tolerance` of control.
    pub fn passes(&self, ne_tolerance: f64, revenue_tolerance: f64) -> bool {
        self.ne_regression() <= ne_tolerance && self.revenue_delta().abs() <= revenue_tolerance
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Runs an A/B test over `requests_per_arm` impressions per arm.
///
/// Ground truth: each impression has a latent logit drawn from
/// `N(base_logit, 1)`; the user clicks with the sigmoid probability. Both
/// arms score with the *same* model, perturbed by their platform numerics.
pub fn run_ab_test<R: Rng + ?Sized>(
    control: PlatformArm,
    treatment: PlatformArm,
    requests_per_arm: u64,
    base_logit: f64,
    rng: &mut R,
) -> AbReport {
    let run_arm = |arm: PlatformArm, rng: &mut R| -> ArmReport {
        let mut labels = Vec::with_capacity(requests_per_arm as usize);
        let mut predictions = Vec::with_capacity(requests_per_arm as usize);
        let mut revenue = 0.0;
        let mut latency = LatencyHistogram::new();
        for _ in 0..requests_per_arm {
            // Latent item quality (Box–Muller).
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let true_logit = base_logit + z;
            let clicked = rng.gen_bool(sigmoid(true_logit));

            // Platform prediction: true logit + numeric perturbation.
            let u3: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u4: f64 = rng.gen();
            let noise = (-2.0 * u3.ln()).sqrt()
                * (2.0 * std::f64::consts::PI * u4).cos()
                * arm.logit_noise_std;
            let p = sigmoid(true_logit + noise + arm.logit_bias);

            labels.push(clicked);
            predictions.push(p);
            let bid: f64 = rng.gen_range(0.5..1.5);
            revenue += p * bid;

            let jitter: f64 = rng.gen_range(0.7..1.3);
            latency.record(arm.mean_latency.scale(jitter));
        }
        ArmReport {
            name: arm.name,
            requests: requests_per_arm,
            ne: normalized_entropy(&labels, &predictions),
            revenue,
            latency,
        }
    };
    AbReport {
        control: run_arm(control, rng),
        treatment: run_arm(treatment, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ne_of_perfect_predictions_is_below_one() {
        // A well-calibrated informative predictor beats the base rate.
        let mut rng = StdRng::seed_from_u64(1);
        let report = run_ab_test(
            PlatformArm::gpu_control(),
            PlatformArm::mtia_treatment(),
            20_000,
            -2.0, // ~12 % CTR
            &mut rng,
        );
        assert!(report.control.ne < 1.0, "control ne {}", report.control.ne);
        assert!(report.treatment.ne < 1.0);
    }

    #[test]
    fn ne_of_base_rate_prediction_is_one() {
        let labels: Vec<bool> = (0..10_000).map(|i| i % 10 == 0).collect();
        let predictions = vec![0.1; 10_000];
        let ne = normalized_entropy(&labels, &predictions);
        assert!((ne - 1.0).abs() < 0.01, "ne {ne}");
    }

    #[test]
    fn healthy_platforms_reach_parity() {
        // §5.6: "rigorous A/B tests in live production have confirmed that
        // MTIA 2i ... achieves comparable model quality".
        let mut rng = StdRng::seed_from_u64(2);
        let report = run_ab_test(
            PlatformArm::gpu_control(),
            PlatformArm::mtia_treatment(),
            50_000,
            -2.0,
            &mut rng,
        );
        assert!(
            report.ne_regression().abs() < 0.01,
            "ne regression {}",
            report.ne_regression()
        );
        assert!(report.passes(0.01, 0.05), "{report:?}");
    }

    #[test]
    fn miscalibrated_deployment_is_detected() {
        let mut rng = StdRng::seed_from_u64(3);
        let report = run_ab_test(
            PlatformArm::gpu_control(),
            PlatformArm::mtia_miscalibrated(),
            50_000,
            -2.0,
            &mut rng,
        );
        assert!(
            report.ne_regression() > 0.005,
            "regression not detected: {}",
            report.ne_regression()
        );
        assert!(!report.passes(0.005, 0.02));
        // The bias also moves the revenue proxy (inflated predictions).
        assert!(report.revenue_delta() > 0.05);
    }

    #[test]
    fn latency_comparison_included() {
        let mut rng = StdRng::seed_from_u64(4);
        let report = run_ab_test(
            PlatformArm::gpu_control(),
            PlatformArm::mtia_treatment(),
            5_000,
            -2.0,
            &mut rng,
        );
        assert!(report.treatment.latency.p50() < report.control.latency.p99());
        assert_eq!(report.treatment.requests, 5_000);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn length_mismatch_panics() {
        let _ = normalized_entropy(&[true], &[0.5, 0.5]);
    }
}
