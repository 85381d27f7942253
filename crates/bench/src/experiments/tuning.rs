//! Autotuning experiments: the FC kernel performance database (E4, §4.1)
//! and request-coalescing tuning (E5, §4.1).

use mtia_compiler::perfdb::{exhaustive_tune_par, FcShape, PerfDb};
use mtia_core::spec::{chips, EccMode};
use mtia_core::units::{Bytes, SimTime};
use mtia_core::DType;
use mtia_model::ops::OpKind;
use mtia_sim::kernels::{cost_op, FcVariant, KernelEnv};
use mtia_sim::mem::lpddr::LpddrController;
use mtia_sim::mem::sram::place_model;
use mtia_sim::noc::NocModel;

use crate::{fx, pct, ExperimentReport, Table};

fn sim_eval() -> impl Fn(FcShape, FcVariant) -> SimTime + Sync {
    let chip = chips::mtia2i();
    move |shape, variant| {
        let env = KernelEnv {
            chip: &chip,
            noc: NocModel::new(chip.noc.clone()),
            dram: LpddrController::new(chip.dram.clone(), EccMode::ControllerEcc),
            placement: place_model(&chip.sram, Bytes::from_mib(40), Bytes::from_mib(200), 0.75),
            weight_resident_fraction: 0.5,
            tbe_hit_rate: 0.5,
            skip_writeback_hints: true,
        };
        let op = OpKind::Fc {
            batch: shape.m,
            in_features: shape.k,
            out_features: shape.n,
        };
        cost_op(&env, &op, DType::Fp16, Some(variant)).time
    }
}

/// E4: exhaustive FC tuning vs the perf-DB ANN lookup.
pub fn e4_kernel_tuning() -> ExperimentReport {
    // Each evaluation is one analytic `cost_op` call, microseconds of
    // work, so the tuners call it directly: a memo in front of it costs
    // more in hashing and locking than the repeated cells save. The grid
    // tunes its shapes on the pool workers.
    let eval = sim_eval();
    let mut db = PerfDb::new();
    db.seed_grid_par(
        &[64, 256, 1024, 4096],
        &[128, 512, 2048, 8192],
        &[128, 512, 2048],
        &eval,
    );

    let mut t = Table::new(
        "E4: FC kernel tuning — exhaustive vs performance-DB ANN lookup",
        "§4.1: the perf DB + approximate-nearest-neighbour search \"reduced \
         FC tuning time by up to 1000x while achieving kernel performance \
         within 5% of exhaustive FC tuning\"",
        &[
            "query shape",
            "exhaustive evals",
            "ann evals",
            "speedup",
            "ann vs exhaustive time",
        ],
    );
    let queries = [
        FcShape::new(512, 1024, 768),
        FcShape::new(192, 4096, 1536),
        FcShape::new(2048, 320, 256),
        FcShape::new(96, 26592, 2048),
        FcShape::new(1536, 1536, 640),
    ];
    for q in queries {
        let ex = exhaustive_tune_par(q, &eval);
        let ann = db.lookup_tune(q, &mut |s, v| eval(s, v));
        t.row(&[
            format!("{}x{}x{}", q.m, q.k, q.n),
            ex.evaluations.to_string(),
            ann.evaluations.to_string(),
            format!("{}x", ex.evaluations / ann.evaluations),
            format!(
                "+{}",
                pct(ann.time.as_secs_f64() / ex.time.as_secs_f64() - 1.0)
            ),
        ]);
    }
    ExperimentReport {
        id: "E4",
        tables: vec![t],
    }
}

/// E5: request-coalescing autotuning.
pub fn e5_coalescing() -> ExperimentReport {
    // Service model from a mid-size ranking model: 2 ms fixed +
    // 20 µs/sample (s(512) ≈ 12 ms against the 100 ms SLO).
    let service = |b: u64| SimTime::from_micros(2000) + SimTime::from_micros(20) * b;
    let slo = SimTime::from_millis(100);
    let target_batch = 512;

    let mut t = Table::new(
        "E5: request-coalescing window sweep (batch 512, P99 SLO 100 ms)",
        "§4.1: \"a model's throughput at its P99 latency SLO is highly \
         sensitive to these parameters. With effective autotuning, we \
         typically achieve >95% requests per batch\"",
        &[
            "window",
            "parallel windows",
            "max rate @ SLO (req/s)",
            "fill",
        ],
    );
    for window_ms in [1u64, 2, 5, 10, 20, 50] {
        for parallel in [1u32, 2] {
            let config = mtia_autotune::CoalescingConfig {
                window: SimTime::from_millis(window_ms),
                parallel_windows: parallel,
            };
            let rate = mtia_autotune::coalescing::max_rate(config, target_batch, slo, &service)
                .unwrap_or(0.0);
            let p =
                mtia_autotune::coalescing::predict(config, rate.max(1.0), target_batch, &service);
            t.row(&[
                format!("{window_ms} ms"),
                parallel.to_string(),
                fx(rate, 0),
                pct(p.fill),
            ]);
        }
    }

    let choice = mtia_autotune::tune_coalescing(target_batch, slo, &service);
    let mut summary = Table::new(
        "E5 summary: autotuned operating point",
        ">95 % requests per batch at the tuned window",
        &[
            "window",
            "parallel windows",
            "max rate (req/s)",
            "fill",
            "P99",
        ],
    );
    summary.row(&[
        format!("{}", choice.config.window),
        choice.config.parallel_windows.to_string(),
        fx(choice.max_rate_per_s, 0),
        pct(choice.prediction.fill),
        format!("{}", choice.prediction.p99),
    ]);
    ExperimentReport {
        id: "E5",
        tables: vec![t, summary],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_speedup_and_quality() {
        let r = e4_kernel_tuning();
        for row in &r.tables[0].rows {
            let speedup: u64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(speedup >= 1000, "{}: speedup {speedup}", row[0]);
            let gap: f64 = row[4]
                .trim_start_matches('+')
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!(gap <= 5.0, "{}: ann gap {gap}%", row[0]);
        }
    }

    #[test]
    fn e5_tuned_fill_exceeds_95_percent() {
        let r = e5_coalescing();
        let fill: f64 = r.tables[1].rows[0][3]
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(fill > 95.0, "tuned fill {fill}%");
    }

    #[test]
    fn e5_shows_window_sensitivity() {
        let r = e5_coalescing();
        let rates: Vec<f64> = r.tables[0]
            .rows
            .iter()
            .filter(|row| row[1] == "1")
            .map(|row| row[2].parse().unwrap())
            .collect();
        let max = rates.iter().cloned().fold(0.0, f64::max);
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 1.5, "rate spread {max}/{min}");
    }
}
