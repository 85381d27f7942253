//! Table 1 (production model classes) and Table 2 (chip specifications).

use mtia_core::spec::chips;
use mtia_core::DType;
use mtia_model::models::zoo;

use crate::{fx, ExperimentReport, Table};

/// Table 1: the production model zoo, regenerated from the synthetic
/// model generators.
pub fn table1() -> ExperimentReport {
    let mut t = Table::new(
        "Table 1: Examples of production models",
        "retrieval 50–100 GB @ 0.001–0.01 GF/sample; early 100–300 GB @ \
         0.01–0.1; late 100–300 GB @ 0.2–2; HSTU retrieval 1 TB @ 10 GF/req; \
         HSTU ranking 2 TB @ 80 GF/req; 90 % of model size is embeddings",
        &[
            "model type",
            "model size",
            "complexity (GF/sample)",
            "embedding share",
            "batch",
        ],
    );
    for m in zoo::table1_models() {
        let g = m.graph();
        let stats = g.stats();
        let total = stats.model_bytes();
        let emb_share = stats.table_bytes.as_f64() / total.as_f64();
        t.row(&[
            m.name.clone(),
            format!("{:.0} GB", total.as_gib()),
            fx(m.mflops_per_sample() / 1000.0, 3),
            format!("{:.1}%", emb_share * 100.0),
            m.batch.to_string(),
        ]);
    }
    ExperimentReport {
        id: "T1",
        tables: vec![t],
    }
}

/// Table 2: MTIA 2i vs MTIA 1, with every compute rate *derived* from the
/// microarchitecture rather than transcribed.
pub fn table2() -> ExperimentReport {
    let gen2 = chips::mtia2i();
    let gen1 = chips::mtia1();
    let mut t = Table::new(
        "Table 2: MTIA 2i vs MTIA 1 (derived from the modelled microarchitecture)",
        "354/177 TOPS INT8/FP16, 708/354 sparse; 256 MB SRAM @ 2.7 TB/s; \
         64–128 GB LPDDR5 @ 204.8 GB/s; 1.35 GHz vs 800 MHz",
        &["quantity", "MTIA 2i", "MTIA 1", "ratio"],
    );
    let mut push = |name: &str, a: f64, b: f64, unit: &str| {
        t.row(&[
            name.to_string(),
            format!("{a:.1} {unit}"),
            format!("{b:.1} {unit}"),
            fx(a / b, 2),
        ]);
    };
    push(
        "GEMM INT8",
        gen2.gemm_peak(DType::Int8, false).as_tflops(),
        gen1.gemm_peak(DType::Int8, false).as_tflops(),
        "TOPS",
    );
    push(
        "GEMM FP16",
        gen2.gemm_peak(DType::Fp16, false).as_tflops(),
        gen1.gemm_peak(DType::Fp16, false).as_tflops(),
        "TFLOPS",
    );
    push(
        "GEMM INT8 (2:4 sparse)",
        gen2.gemm_peak(DType::Int8, true).as_tflops(),
        gen1.gemm_peak(DType::Int8, true).as_tflops(),
        "TOPS",
    );
    push(
        "SIMD engine (all dtypes)",
        gen2.simd_engine_peak(DType::Fp32).as_tflops(),
        gen1.simd_engine_peak(DType::Fp32).as_tflops(),
        "TOPS",
    );
    push(
        "vector core INT8",
        gen2.vector_peak(DType::Int8).as_tflops(),
        gen1.vector_peak(DType::Int8).as_tflops(),
        "TOPS",
    );
    push(
        "frequency",
        gen2.frequency.as_ghz(),
        gen1.frequency.as_ghz(),
        "GHz",
    );
    push(
        "SRAM capacity",
        gen2.sram.capacity.as_mib(),
        gen1.sram.capacity.as_mib(),
        "MiB",
    );
    push(
        "SRAM bandwidth",
        gen2.sram.bandwidth.as_gb_per_s() / 1000.0,
        gen1.sram.bandwidth.as_gb_per_s() / 1000.0,
        "TB/s",
    );
    push(
        "LPDDR bandwidth",
        gen2.dram.bandwidth.as_gb_per_s(),
        gen1.dram.bandwidth.as_gb_per_s(),
        "GB/s",
    );
    push(
        "LPDDR capacity",
        gen2.dram.capacity.as_gib(),
        gen1.dram.capacity.as_gib(),
        "GiB",
    );
    push(
        "Local Memory / PE",
        gen2.pe.local_memory.as_mib() * 1024.0,
        gen1.pe.local_memory.as_mib() * 1024.0,
        "KiB",
    );
    push(
        "NoC bisection",
        gen2.noc.bisection_bw.as_gb_per_s() / 1000.0,
        gen1.noc.bisection_bw.as_gb_per_s() / 1000.0,
        "TB/s",
    );
    push("TDP", gen2.tdp.as_f64(), gen1.tdp.as_f64(), "W");
    ExperimentReport {
        id: "T2",
        tables: vec![t],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_five_model_classes() {
        let r = table1();
        assert_eq!(r.tables[0].rows.len(), 5);
        // HSTU rows quote multi-TB sizes.
        let hstu_row = &r.tables[0].rows[4];
        assert!(hstu_row[1].contains("GB"));
    }

    #[test]
    fn table2_ratios_match_headline_claims() {
        let r = table2();
        let t = &r.tables[0];
        let ratio_of = |name: &str| -> f64 {
            t.rows
                .iter()
                .find(|row| row[0] == name)
                .expect("row")
                .last()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(ratio_of("GEMM INT8") > 3.0); // >3× peak FLOPS
        assert!(ratio_of("SRAM bandwidth") > 3.0); // >3× SRAM BW
        assert!((ratio_of("LPDDR bandwidth") - 1.16).abs() < 0.02); // ~1.4×? 204.8/176
        assert_eq!(ratio_of("LPDDR capacity"), 2.0);
    }
}
