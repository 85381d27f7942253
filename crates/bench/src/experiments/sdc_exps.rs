//! E19: the online SDC-defense sweep (§5.1, productionized).
//!
//! Sweeps the detection-policy ladder — naive serving, inline guards
//! only, guards plus canaries at varying frequency, and the full stack
//! with shadow re-execution voting — over one byte-identical seeded
//! LPDDR bit-flip trace (ECC off), reporting detection recall, false
//! positives, detection latency, and throughput overhead against the
//! §5.1 controller-ECC alternative (10–15 % bandwidth).

use mtia_core::seed::{derive, DEFAULT_SEED};
use mtia_core::{DetectionMethod, SimTime};
use mtia_fleet::memerr::decision_bandwidth_cost;
use mtia_fleet::quarantine::{run_defended_fleet, DefendedFleetReport};
use mtia_model::error_inject::InjectionTarget;
use mtia_model::integrity::{
    output_fingerprint, IntegrityViolation, OutputGuard, DEFAULT_GUARD_MARGIN,
};
use mtia_serving::sdc::{run_sdc_sim, DetectionPolicy, ImageSpec, InlineRepair, SdcSimConfig};
use mtia_sim::faults::{FaultPlan, FaultPlanConfig};

use crate::{fx, pct, ExperimentReport, Table};

fn policies() -> Vec<DetectionPolicy> {
    vec![
        DetectionPolicy::naive(),
        DetectionPolicy::guards_only(),
        DetectionPolicy::guards_canary(32),
        DetectionPolicy::guards_canary(16),
        DetectionPolicy::guards_canary(8),
        DetectionPolicy::full(16),
        DetectionPolicy::full_tight_guard(16),
    ]
}

fn policy_label(p: &DetectionPolicy) -> String {
    match p.canary_every {
        Some(n) if p.name.starts_with("guards+canary") => format!("{} (1/{n})", p.name),
        _ => p.name.to_string(),
    }
}

/// E19: detection-policy sweep under injected ECC-off bit flips.
pub fn e19_sdc_defense() -> ExperimentReport {
    // Every rung of the ladder replays the same seeded fault trace under
    // a different policy — pure (config, seed) cells, fanned out on the
    // pool workers.
    let runs: Vec<(DetectionPolicy, DefendedFleetReport)> =
        mtia_core::pool::parallel_map(policies(), |_, p| {
            let report = run_defended_fleet(p, DEFAULT_SEED);
            (p, report)
        });

    let mut sweep = Table::new(
        "E19: SDC detection-policy sweep (one byte-identical bit-flip trace)",
        "§5.1: ECC-off LPDDR flips corrupt outputs \"with some failures \
         occurring with high probability\" — the online defense must catch \
         them before responses are served",
        &[
            "policy",
            "corrupting flips",
            "recall",
            "served corrupted",
            "FP rate",
            "mean detect latency",
            "overhead",
        ],
    );
    for (p, r) in &runs {
        let s = &r.sdc;
        sweep.row(&[
            policy_label(p),
            format!("{}/{} injected", s.flips_corrupting, s.flips_injected),
            pct(s.recall()),
            format!("{} of {}", s.served_corrupted, s.served),
            if s.clean_guarded_executions == 0 {
                "n/a".to_string()
            } else {
                format!("{:.4}%", s.false_positive_rate() * 100.0)
            },
            s.mean_detection_latency()
                .map(|t| format!("{:.1} ms", t.as_millis_f64()))
                .unwrap_or_else(|| "—".to_string()),
            pct(s.overhead()),
        ]);
    }

    let full = runs
        .iter()
        .find(|(p, _)| *p == DetectionPolicy::full(16))
        .map(|(_, r)| r)
        .expect("full policy is in the sweep");

    let mut methods = Table::new(
        "E19b: incidents by detection method (guards+canary+shadow)",
        "§5.1 failure modes: row CRC catches embedding flips, the index-\
         stream checksum catches TBE staging flips, the output guard \
         catches exponent blow-ups, canary fingerprints catch silent \
         weight corruption",
        &["method", "incidents", "inline?"],
    );
    for m in DetectionMethod::ALL {
        methods.row(&[
            m.to_string(),
            full.sdc.incidents_for(m).to_string(),
            if m.is_inline_guard() { "yes" } else { "no" }.to_string(),
        ]);
    }

    let mut coverage = Table::new(
        "E19c: single-flip coverage matrix (which mechanism fires first)",
        "§5.1 fault vocabulary: every region × severity maps to a \
         detector before a response is served",
        &["injected flip", "first detector"],
    );
    let cases: [(&str, InjectionTarget, u32, u32); 7] = [
        (
            "embedding row, exponent bit 30",
            InjectionTarget::EmbeddingRows,
            5,
            30,
        ),
        (
            "embedding row, mantissa bit 0",
            InjectionTarget::EmbeddingRows,
            100,
            0,
        ),
        (
            "TBE index staging, stuck bit 3",
            InjectionTarget::TbeIndices,
            2,
            3,
        ),
        (
            "dense weight, exponent bit 30",
            InjectionTarget::DenseWeights,
            9,
            30,
        ),
        (
            "dense weight, mantissa bit 16",
            InjectionTarget::DenseWeights,
            5,
            16,
        ),
        (
            "activation scratch, exponent bit 30",
            InjectionTarget::Activations,
            1,
            30,
        ),
        (
            "activation scratch, mantissa bit 1",
            InjectionTarget::Activations,
            1,
            1,
        ),
    ];
    let detectors = mtia_core::pool::parallel_map(cases.to_vec(), |_, (_, region, word, bit)| {
        first_detector(region, word, bit)
    });
    for ((label, ..), detector) in cases.iter().zip(detectors) {
        coverage.row(&[label.to_string(), detector]);
    }

    // Steady-state cost: the same full policy on a clean fleet — the
    // permanent tax to compare with the controller-ECC alternative.
    let cfg = SdcSimConfig::default_for(DetectionPolicy::full(16), DEFAULT_SEED);
    let clean_plan = FaultPlan::generate(
        &FaultPlanConfig {
            error_prone_card_rate: 0.0,
            ..FaultPlanConfig::sdc_study()
        },
        cfg.devices,
        SimTime::from_secs(2),
        derive(DEFAULT_SEED, "sdc/clean"),
    );
    let mut inline = InlineRepair::new(SimTime::from_millis(20), 64);
    let steady = run_sdc_sim(&cfg, &clean_plan, &mut inline);

    let mut cost = Table::new(
        "E19d: quarantine workflow and cost vs the §5.1 ECC alternative",
        "§5.1: controller ECC costs 10–15 % of throughput; the online \
         defense pays redundancy only where suspicion points",
        &["item", "value"],
    );
    cost.row(&["quarantines".into(), full.sdc.quarantines.to_string()]);
    cost.row(&[
        "repairs / retirements".into(),
        format!("{} / {}", full.sdc.repairs, full.sdc.retirements),
    ]);
    cost.row(&[
        "memtest faults found".into(),
        full.device_logs
            .values()
            .map(|l| l.lifetime_faults)
            .sum::<usize>()
            .to_string(),
    ]);
    cost.row(&[
        "memtest scan order (sensitivity-ranked)".into(),
        full.scan_order
            .iter()
            .map(|r| format!("{r:?}"))
            .collect::<Vec<_>>()
            .join(" → "),
    ]);
    cost.row(&[
        "overhead under fault storm".into(),
        pct(full.sdc.overhead()),
    ]);
    cost.row(&[
        "steady-state overhead (clean fleet)".into(),
        pct(steady.overhead()),
    ]);
    cost.row(&[
        "controller-ECC alternative".into(),
        format!("{} (always-on)", pct(decision_bandwidth_cost())),
    ]);
    cost.row(&[
        "steady-state saving vs ECC".into(),
        fx(decision_bandwidth_cost() / steady.overhead().max(1e-9), 1) + "× cheaper",
    ]);

    ExperimentReport {
        id: "E19",
        tables: vec![sweep, methods, coverage, cost],
    }
}

/// A single rung of the E19 ladder — the full defense stack on the
/// byte-identical trace. This is the SDC half of the `--filter quick`
/// determinism subset: small enough to run on every CI invocation,
/// stochastic enough (fault plan + canary scheduling + quarantine
/// machine) to catch any nondeterminism the parallel runtime could
/// introduce.
pub fn e19_single_rung() -> ExperimentReport {
    let policy = DetectionPolicy::full(16);
    let r = run_defended_fleet(policy, DEFAULT_SEED);
    let s = &r.sdc;
    let mut t = Table::new(
        "E19 (single rung): guards+canary+shadow on the seeded flip trace",
        "§5.1: the full online defense catches corruption before responses \
         are served",
        &["metric", "value"],
    );
    t.row(&[
        "fault fingerprint".into(),
        format!("{:016x}", s.fault_fingerprint),
    ]);
    t.row(&[
        "corrupting flips".into(),
        format!("{}/{} injected", s.flips_corrupting, s.flips_injected),
    ]);
    t.row(&["recall".into(), pct(s.recall())]);
    t.row(&[
        "served corrupted".into(),
        format!("{} of {}", s.served_corrupted, s.served),
    ]);
    t.row(&["quarantines".into(), s.quarantines.to_string()]);
    t.row(&["overhead".into(), pct(s.overhead())]);
    ExperimentReport {
        id: "E19q",
        tables: vec![t],
    }
}

/// Applies one flip to a fresh device image and reports the first
/// defense mechanism that fires: inline guards over a request sweep,
/// then the canary fingerprint.
fn first_detector(region: InjectionTarget, word: u32, bit: u32) -> String {
    let spec = ImageSpec::small(DEFAULT_SEED);
    let mut image = spec.build();
    let golden_fp = image.golden_canary_fingerprint();
    let samples: Vec<_> = (0..64)
        .map(|i| image.execute_golden(&spec.request(i)))
        .chain(std::iter::once(image.execute_golden(&spec.canary())))
        .collect();
    let guard = OutputGuard::calibrate(&samples, DEFAULT_GUARD_MARGIN);
    image.apply_flip(region, word, bit);

    let method = |v: IntegrityViolation| match v {
        IntegrityViolation::RowChecksumMismatch { .. } => DetectionMethod::RowChecksum,
        IntegrityViolation::IndexOutOfBounds { .. } => DetectionMethod::IndexBounds,
        IntegrityViolation::IndexStreamMismatch => DetectionMethod::IndexStreamChecksum,
        IntegrityViolation::NonFiniteOutput { .. }
        | IntegrityViolation::OutputOutOfRange { .. } => DetectionMethod::OutputGuard,
    };
    for id in 0..256 {
        if let Err(v) = image.execute_guarded(&spec.request(id), &guard) {
            return method(v).to_string();
        }
    }
    match image.execute_guarded(&spec.canary(), &guard) {
        Err(v) => method(v).to_string(),
        Ok(out) if output_fingerprint(&out) != golden_fp => {
            DetectionMethod::CanaryFingerprint.to_string()
        }
        Ok(_) => "undetected".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e19_report_shape() {
        let r = e19_sdc_defense();
        assert_eq!(r.id, "E19");
        assert_eq!(r.tables.len(), 4);
        assert_eq!(r.tables[0].rows.len(), policies().len());
        assert_eq!(r.tables[1].rows.len(), DetectionMethod::ALL.len());
        // Every single-flip case in the coverage matrix is detected.
        for row in &r.tables[2].rows {
            assert_ne!(row[1], "undetected", "{} escaped every mechanism", row[0]);
        }
    }

    #[test]
    fn e19_meets_the_acceptance_bar() {
        let full = run_defended_fleet(DetectionPolicy::full(16), DEFAULT_SEED);
        let naive = run_defended_fleet(DetectionPolicy::naive(), DEFAULT_SEED);
        // Byte-identical trace across arms.
        assert_eq!(full.sdc.fault_fingerprint, naive.sdc.fault_fingerprint);
        // Full stack: ≥90% recall, zero corrupted served.
        assert!(full.sdc.recall() >= 0.9);
        assert_eq!(full.sdc.served_corrupted, 0);
        // Naive serves corruption on the same trace.
        assert!(naive.sdc.served_corrupted > 0);
    }
}
