//! E18: ablations of the design choices the paper (and our calibration)
//! lean on.
//!
//! * **SRAM capacity** — "The larger SRAM is chosen to meet the stringent
//!   latency requirements of our recommendation models" (§3.6): halve or
//!   double the 256 MB and watch the zoo's throughput move.
//! * **LPDDR vs HBM** — "It uses a large SRAM ... avoiding HBM to reduce
//!   cost and power" (§3.6): give the chip a 1 TB/s HBM stack and see how
//!   much performance it buys — and what module cost it could justify.
//! * **GPU comparator generation** — our Perf/TCO relatives are computed
//!   against an H100-class roofline; re-run Fig. 6 against an A100-class
//!   one to bound the calibration's sensitivity.
//! * **Embedding-popularity skew** — the 40–60 % TBE hit band rests on the
//!   Zipf skew choice; sweep it.

use mtia_core::spec::chips;
use mtia_core::tco::{PlatformMetrics, ServerCost};
use mtia_core::units::{Bandwidth, Bytes, Watts};
use mtia_model::models::zoo;
use mtia_sim::chip::ChipSim;
use mtia_sim::gpu::GpuSim;

use crate::{fx, pct, ExperimentReport, Table};

/// SRAM-capacity ablation over representative zoo models.
fn sram_ablation() -> Table {
    let mut t = Table::new(
        "E18a: SRAM-capacity ablation",
        "§3.6: the 256 MB SRAM is the headline design choice; smaller SRAM \
         pushes activations and weights to LPDDR, larger buys diminishing \
         returns once working sets fit",
        &["model", "128 MB", "256 MB (shipped)", "512 MB"],
    );
    let models = zoo::fig6_models();
    // 3 models × 3 capacities, each an independent simulation.
    let rows = mtia_core::pool::parallel_map(vec!["LC3", "HC1", "HC3"], |_, name| {
        let m = models.iter().find(|m| m.name == name).unwrap();
        let g = m.graph();
        let mut cells = vec![name.to_string()];
        let base = {
            let sim = ChipSim::new(chips::mtia2i_128gb());
            sim.run_optimized(&g).throughput_samples_per_s()
        };
        for mb in [128u64, 256, 512] {
            let chip = chips::mtia2i_128gb().with_sram_capacity(Bytes::from_mib(mb));
            let sim = ChipSim::new(chip);
            let tput = sim.run_optimized(&g).throughput_samples_per_s();
            cells.push(format!("{} ({:.0}/s)", pct(tput / base), tput));
        }
        cells
    });
    for cells in &rows {
        t.row(cells);
    }
    t
}

/// LPDDR-vs-HBM ablation.
fn hbm_ablation() -> Table {
    let mut t = Table::new(
        "E18b: LPDDR vs hypothetical HBM",
        "§3.6: HBM was avoided 'to reduce cost and power'; the large SRAM \
         already captures most locality, so HBM's 5x bandwidth buys only \
         1.3-2x on the launched models. Even LLM decode gains just ~2x \
         before the NoC becomes the next wall — the chip is balanced \
         around LPDDR",
        &["model", "LPDDR 204.8 GB/s", "HBM 1 TB/s", "HBM gain"],
    );
    let hbm_chip =
        chips::mtia2i_128gb().with_hbm(Bandwidth::from_tb_per_s(1.0), Bytes::from_gib(96));
    let lpddr = ChipSim::new(chips::mtia2i_128gb());
    let hbm = ChipSim::new(hbm_chip);
    let models = zoo::fig6_models();
    for name in ["LC1", "LC5", "HC1", "HC3", "HC4"] {
        let m = models.iter().find(|m| m.name == name).unwrap();
        let g = m.graph();
        let a = lpddr.run_optimized(&g).throughput_samples_per_s();
        let b = hbm.run_optimized(&g).throughput_samples_per_s();
        t.row(&[
            name.to_string(),
            fx(a, 0),
            fx(b, 0),
            format!("{}x", fx(b / a, 2)),
        ]);
    }
    // The LLM decode row: where HBM *would* change the verdict.
    let llm = mtia_model::models::llm::LlmConfig::llama2_7b();
    let decode = llm.decode_step_graph(512);
    let a = lpddr.run_optimized(&decode).total_time();
    let b = hbm.run_optimized(&decode).total_time();
    t.row(&[
        "llama2-7b decode/token".to_string(),
        format!("{a}"),
        format!("{b}"),
        format!("{}x", fx(a.as_secs_f64() / b.as_secs_f64(), 2)),
    ]);
    t
}

/// GPU-comparator-generation sensitivity on the Fig. 6 headline.
fn gpu_generation_sensitivity() -> Table {
    let mut t = Table::new(
        "E18c: GPU-comparator sensitivity (Fig. 6 headline)",
        "the 44 % TCO-reduction calibration is against an H100-class \
         roofline at market price; against an A100-class part (cheaper, \
         slower, lower power) the per-model wins grow — the headline is \
         robust to the comparator generation",
        &[
            "comparator",
            "mean perf vs GPU",
            "mean perf/TCO",
            "TCO reduction",
        ],
    );
    let mtia_sim = ChipSim::new(chips::mtia2i_128gb());
    let models = zoo::fig6_models();
    for (label, gpu_spec, module_cost, typical_power) in [
        (
            "H100-class (default)",
            chips::gpu_baseline(),
            mtia_core::calib::GPU_MODULE_COST,
            560.0,
        ),
        ("A100-class", chips::gpu_a100(), 55.0, 330.0),
    ] {
        let gpu_sim = GpuSim::new(gpu_spec);
        let gpu_cost = ServerCost::gpu_server_with(module_cost, Watts::new(typical_power));
        let mut perf_sum = 0.0;
        let mut tco_sum = 0.0;
        for m in &models {
            let g = m.graph();
            let mtia_tput = 24.0
                * mtia_compiler::compile(&g, mtia_compiler::CompilerOptions::all())
                    .run(&mtia_sim)
                    .throughput_samples_per_s()
                / (1.0 + m.host_overhead);
            let gpu_tput =
                8.0 * gpu_sim.run(&g).throughput_samples_per_s() / (1.0 + m.host_overhead);
            let rel = PlatformMetrics::new(ServerCost::mtia_server(), mtia_tput)
                .relative_to(&PlatformMetrics::new(gpu_cost, gpu_tput));
            perf_sum += rel.perf;
            tco_sum += rel.perf_per_tco;
        }
        let n = models.len() as f64;
        let mean_tco = tco_sum / n;
        t.row(&[
            label.to_string(),
            pct(perf_sum / n),
            pct(mean_tco),
            pct(1.0 - 1.0 / mean_tco),
        ]);
    }
    t
}

/// Zipf-skew sensitivity of the TBE hit-rate band.
fn zipf_sensitivity() -> Table {
    let mut t = Table::new(
        "E18d: embedding-popularity-skew sensitivity",
        "inverting §4.2's observation: SRAM hit rates of 40-60 % on \
         tens-of-GB tables are consistent with Zipf skew ~0.9-1.05, \
         bracketing published DLRM access traces; our calibration uses 0.95",
        &["zipf skew", "LC3 TBE hit rate", "HC3 TBE hit rate"],
    );
    let models = zoo::fig6_models();
    let lc3 = models.iter().find(|m| m.name == "LC3").unwrap().graph();
    let hc3 = models.iter().find(|m| m.name == "HC3").unwrap().graph();
    // One independent (skew, model) simulation pair per rung.
    let rows = mtia_core::pool::parallel_map(vec![0.80, 0.90, 0.95, 1.05, 1.15], |_, skew| {
        let sim = ChipSim::new(chips::mtia2i_128gb())
            .with_zipf_skew(skew)
            .expect("ablation skews lie in (0, 2)");
        let a = sim.run_optimized(&lc3).tbe_hit_rate;
        let b = sim.run_optimized(&hc3).tbe_hit_rate;
        [fx(skew, 2), pct(a), pct(b)]
    });
    for row in &rows {
        t.row(row);
    }
    t
}

/// Runs all ablations. The four studies share no state, so they run
/// concurrently on the pool workers (each may fan out further).
pub fn run() -> ExperimentReport {
    let tables = mtia_core::pool::parallel_invoke(vec![
        Box::new(sram_ablation) as Box<dyn FnOnce() -> Table + Send>,
        Box::new(hbm_ablation),
        Box::new(gpu_generation_sensitivity),
        Box::new(zipf_sensitivity),
    ]);
    ExperimentReport { id: "E18", tables }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_pct(s: &str) -> f64 {
        s.split('%').next().unwrap().parse().unwrap()
    }

    #[test]
    fn smaller_sram_always_hurts() {
        let t = sram_ablation();
        for row in &t.rows {
            let small = parse_pct(&row[1]);
            let shipped = parse_pct(&row[2]);
            let large = parse_pct(&row[3]);
            assert!(small <= shipped + 0.5, "{}: 128 MB beat shipped", row[0]);
            assert!(large >= shipped - 0.5, "{}: 512 MB lost to shipped", row[0]);
            assert!((shipped - 100.0).abs() < 0.5);
        }
    }

    #[test]
    fn hbm_gains_are_sublinear() {
        let t = hbm_ablation();
        let gain = |row: &Vec<String>| -> f64 { row[3].trim_end_matches('x').parse().unwrap() };
        // Recommendation models: far below the 4.9× bandwidth ratio — the
        // SRAM already absorbed the locality.
        for row in t.rows.iter().take(t.rows.len() - 1) {
            let g = gain(row);
            assert!((1.0..3.0).contains(&g), "{}: HBM gain {g}", row[0]);
        }
        // LLM decode: the biggest beneficiary, but the NoC becomes the
        // next wall well before the full 4.9× bandwidth ratio.
        let llm = gain(t.rows.last().unwrap());
        assert!(llm > 2.0, "llm decode HBM gain {llm}");
        assert!(llm < 4.9);
    }

    #[test]
    fn headline_is_robust_to_the_comparator() {
        let t = gpu_generation_sensitivity();
        let h100 = parse_pct(&t.rows[0][3]);
        let a100 = parse_pct(&t.rows[1][3]);
        // Against the older part the TCO win only grows.
        assert!(a100 > h100, "A100 {a100}% vs H100 {h100}%");
        assert!(h100 > 25.0, "H100-class reduction {h100}%");
    }

    #[test]
    fn paper_band_pins_the_skew_near_one() {
        let t = zipf_sensitivity();
        // Hit rate grows monotonically with skew...
        let hits: Vec<f64> = t.rows.iter().map(|r| parse_pct(&r[1])).collect();
        assert!(hits.windows(2).all(|w| w[1] >= w[0] - 0.5), "{hits:?}");
        // ...and only skews near 0.9–1.05 reproduce the paper's 40–60 %
        // band: the observation constrains the workload.
        let at_095 = t.rows.iter().find(|r| r[0] == "0.95").unwrap();
        let hit = parse_pct(&at_095[1]);
        assert!((40.0..=60.0).contains(&hit), "calibrated skew hit {hit}%");
        let at_080 = parse_pct(&t.rows[0][1]);
        assert!(
            at_080 < 40.0,
            "low skew must fall out of the band: {at_080}%"
        );
    }
}
