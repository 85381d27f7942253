//! The named production-model populations of the paper.
//!
//! [`fig6_models`] reproduces the nine production models of Fig. 6: five
//! Low-Complexity models (LC1–LC5, 15–105 MFLOPS/sample) and four
//! High-Complexity models (HC1–HC4, 480–1000 MFLOPS/sample), each carrying
//! the batch size and serving characteristics §7 describes. [`table1_models`]
//! reproduces the funnel stages of Table 1.
//!
//! Targets are hit by construction: each generator takes one width (the
//! top-MLP width, the DHEN hidden width, or the HSTU mean sequence
//! length) pinned to the value at which the built graph's FLOPS/sample is
//! closest to the published complexity. Building the zoo therefore builds
//! no graph; the test `zoo_widths_are_the_calibrated_ones` re-derives
//! every pinned width by binary search and fails if one drifts.

use std::fmt;

use mtia_core::units::Bytes;
use mtia_core::DType;

use crate::graph::Graph;
use crate::models::dhen::{DhenConfig, MhaBlockConfig};
use crate::models::dlrm::DlrmConfig;
use crate::models::hstu::HstuConfig;

/// Complexity class per Fig. 6 / Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComplexityClass {
    /// 15–105 MFLOPS/sample.
    LowComplexity,
    /// 480–1000 MFLOPS/sample.
    HighComplexity,
    /// Funnel-front retrieval (Table 1).
    Retrieval,
    /// Early-stage ranking (Table 1).
    EarlyStage,
    /// Late-stage ranking (Table 1).
    LateStage,
    /// HSTU-based (Table 1).
    Hstu,
}

impl fmt::Display for ComplexityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComplexityClass::LowComplexity => "LC",
            ComplexityClass::HighComplexity => "HC",
            ComplexityClass::Retrieval => "retrieval",
            ComplexityClass::EarlyStage => "early-stage",
            ComplexityClass::LateStage => "late-stage",
            ComplexityClass::Hstu => "HSTU",
        };
        f.write_str(s)
    }
}

/// The architecture family backing a zoo model.
#[derive(Debug, Clone, PartialEq)]
pub enum ZooArch {
    /// Classic DLRM.
    Dlrm(DlrmConfig),
    /// DHEN stacked ensemble.
    Dhen(DhenConfig),
    /// HSTU sequence model.
    Hstu(HstuConfig),
}

/// One named production-like model.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooModel {
    /// Model name as used in the paper's figures (e.g. `"LC1"`).
    pub name: String,
    /// Complexity class.
    pub class: ComplexityClass,
    /// Published complexity target in MFLOPS/sample.
    pub target_mflops_per_sample: f64,
    /// Serving batch size (§7 calls these out per model).
    pub batch: u64,
    /// Host-side overhead as a fraction of device time (feature
    /// preprocessing, batching, network).
    pub host_overhead: f64,
    /// Architecture and parameters.
    pub arch: ZooArch,
}

impl ZooModel {
    /// Builds the compute graph at the model's serving batch size.
    pub fn graph(&self) -> Graph {
        self.graph_at(self.batch)
    }

    /// Builds the compute graph at an explicit batch size (used by the
    /// batch-size autotuner).
    pub fn graph_at(&self, batch: u64) -> Graph {
        match &self.arch {
            ZooArch::Dlrm(c) => {
                let mut c = c.clone();
                c.batch = batch;
                c.build()
            }
            ZooArch::Dhen(c) => {
                let mut c = c.clone();
                c.batch = batch;
                c.build()
            }
            ZooArch::Hstu(c) => {
                let mut c = c.clone();
                c.batch = batch;
                c.build()
            }
        }
    }

    /// Measured complexity of the built graph in MFLOPS/sample.
    pub fn mflops_per_sample(&self) -> f64 {
        self.graph().flops_per_sample().as_mflops()
    }

    /// Total embedding-table bytes.
    pub fn table_bytes(&self) -> Bytes {
        match &self.arch {
            ZooArch::Dlrm(c) => c.table_bytes(),
            ZooArch::Dhen(c) => c
                .dtype
                .bytes_for(c.num_tables * c.rows_per_table * c.embedding_dim),
            ZooArch::Hstu(c) => c.table_bytes(),
        }
    }
}

fn rows_for_table_bytes(total: Bytes, num_tables: u64, dim: u64, dtype: DType) -> u64 {
    total.as_u64() / (num_tables * dim * dtype.size_bytes())
}

/// Builds a Low-Complexity DLRM with the given complexity target, met at
/// top-MLP width `width`.
fn lc_model(
    name: &str,
    target_mflops: f64,
    width: u64,
    batch: u64,
    table_gib: u64,
    host_overhead: f64,
    pooling_factor: u64,
) -> ZooModel {
    let num_tables = 40;
    let dim = 64;
    let rows = rows_for_table_bytes(Bytes::from_gib(table_gib), num_tables, dim, DType::Fp16);
    ZooModel {
        name: name.to_string(),
        class: ComplexityClass::LowComplexity,
        target_mflops_per_sample: target_mflops,
        batch,
        host_overhead,
        arch: ZooArch::Dlrm(DlrmConfig {
            name: name.to_string(),
            batch,
            dense_features: 256,
            bottom_mlp: vec![256, 128, dim],
            num_tables,
            rows_per_table: rows,
            embedding_dim: dim,
            pooling_factor,
            top_mlp: vec![width, width / 2],
            dtype: DType::Fp16,
        }),
    }
}

/// Builds a High-Complexity DHEN with the given complexity target, met at
/// hidden width `hidden`.
fn hc_model(
    name: &str,
    target_mflops: f64,
    hidden: u64,
    batch: u64,
    table_gib: u64,
    host_overhead: f64,
    mha: Option<MhaBlockConfig>,
) -> ZooModel {
    let num_tables = 64;
    let dim = 128;
    let rows = rows_for_table_bytes(Bytes::from_gib(table_gib), num_tables, dim, DType::Fp16);
    ZooModel {
        name: name.to_string(),
        class: ComplexityClass::HighComplexity,
        target_mflops_per_sample: target_mflops,
        batch,
        host_overhead,
        arch: ZooArch::Dhen(DhenConfig {
            name: name.to_string(),
            batch,
            dense_features: 512,
            num_tables,
            rows_per_table: rows,
            embedding_dim: dim,
            pooling_factor: 24,
            hidden,
            layers: 8,
            fm_features: 16,
            lcb_width: (hidden / 2).max(1),
            mha,
            top_mlp: vec![hidden / 2, hidden / 4],
            dtype: DType::Fp16,
        }),
    }
}

/// The nine production models of Fig. 6.
///
/// §7 anchors: LC models span 15–105 MFLOPS/sample, HC models 480–1000;
/// LC1 runs at 4K batch while LC2 only reaches 512; HC1's small footprint
/// lets it run at 2K batch; HC2 has heavy host-side serving features; HC3
/// is the §6 case-study model (DHEN + MHA blocks, sharded over two
/// devices).
pub fn fig6_models() -> Vec<ZooModel> {
    vec![
        // LC1 runs at 4K batch with light pooling — the §7 efficiency
        // leader; deeper-funnel LC models carry heavier sparse traffic.
        lc_model("LC1", 15.0, 3045, 4096, 20, 0.08, 8),
        lc_model("LC2", 25.0, 4156, 512, 40, 0.12, 20),
        lc_model("LC3", 45.0, 5854, 1024, 60, 0.10, 20),
        lc_model("LC4", 75.0, 7800, 1024, 80, 0.10, 16),
        lc_model("LC5", 105.0, 9383, 2048, 100, 0.08, 12),
        hc_model("HC1", 480.0, 3519, 2048, 30, 0.08, None),
        hc_model("HC2", 600.0, 3966, 256, 150, 0.25, None),
        hc_model(
            "HC3",
            940.0,
            3508,
            512,
            60,
            0.10,
            Some(MhaBlockConfig {
                blocks: 4,
                heads: 8,
                seq: 32,
                head_dim: 16,
            }),
        ),
        hc_model("HC4", 1000.0, 5199, 256, 200, 0.12, None),
    ]
}

/// The §6 case-study model in its *initial* form: 140 MFLOPS/sample before
/// eight months of co-evolution took it to 940 (HC3 above).
pub fn case_study_initial() -> ZooModel {
    hc_model("HC3-initial", 140.0, 1778, 512, 40, 0.10, None)
}

/// The funnel-stage examples of Table 1.
pub fn table1_models() -> Vec<ZooModel> {
    let retrieval = {
        let mut m = lc_model("retrieval", 5.0, 1446, 8192, 75, 0.35, 12);
        m.class = ComplexityClass::Retrieval;
        m
    };
    let early = {
        let mut m = lc_model("early-stage-ranking", 50.0, 6215, 2048, 200, 0.15, 20);
        m.class = ComplexityClass::EarlyStage;
        m
    };
    let late = {
        let mut m = hc_model("late-stage-ranking", 1000.0, 5199, 256, 200, 0.10, None);
        m.class = ComplexityClass::LateStage;
        m
    };
    let hstu_retrieval = hstu_model("hstu-retrieval", 10.0, 327, Bytes::from_gib(1024), 512, 8);
    let hstu_ranking = hstu_model("hstu-ranking", 80.0, 481, Bytes::from_gib(2048), 1024, 12);
    vec![retrieval, early, late, hstu_retrieval, hstu_ranking]
}

/// Builds an HSTU model targeting `target_gflops` **per request**, met at
/// mean sequence length `seq`, with the given total table size.
fn hstu_model(
    name: &str,
    target_gflops: f64,
    seq: u64,
    tables: Bytes,
    dim: u64,
    layers: u64,
) -> ZooModel {
    let num_tables = 8;
    let rows = rows_for_table_bytes(tables, num_tables, dim, DType::Fp16);
    // Per request = per sample at batch 1; target in MFLOPS.
    ZooModel {
        name: name.to_string(),
        class: ComplexityClass::Hstu,
        target_mflops_per_sample: target_gflops * 1000.0,
        batch: 1,
        host_overhead: 0.10,
        arch: ZooArch::Hstu(HstuConfig {
            name: name.to_string(),
            batch: 1,
            num_tables,
            rows_per_table: rows,
            embedding_dim: dim,
            mean_seq: seq,
            max_seq: seq * 8,
            heads: 8,
            layers,
            dtype: DType::Fp16,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binary-searches an integer width so that `build(width)` yields a
    /// graph whose FLOPS/sample is within 3 % of `target_mflops`.
    ///
    /// # Panics
    ///
    /// Panics if the target cannot be bracketed in `[lo, hi]`.
    fn calibrate_width(lo: u64, hi: u64, target_mflops: f64, build: impl Fn(u64) -> Graph) -> u64 {
        let eval = |w: u64| build(w).flops_per_sample().as_mflops();
        assert!(
            eval(lo) <= target_mflops && eval(hi) >= target_mflops,
            "target {target_mflops} MFLOPS/sample not bracketed by widths {lo}..{hi} \
             ({} .. {})",
            eval(lo),
            eval(hi)
        );
        let (mut lo, mut hi) = (lo, hi);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if eval(mid) < target_mflops {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // Pick the closer endpoint.
        if (eval(lo) - target_mflops).abs() <= (eval(hi) - target_mflops).abs() {
            lo
        } else {
            hi
        }
    }

    /// The model's pinned width, its search bracket, and its architecture
    /// rebuilt at width `w` exactly as its generator derives it.
    fn width_of(m: &ZooModel) -> (u64, (u64, u64), impl Fn(u64) -> ZooArch + '_) {
        let (width, bracket) = match &m.arch {
            ZooArch::Dlrm(c) => (c.top_mlp[0], (8, 32_768)),
            ZooArch::Dhen(c) => (c.hidden, (16, 16_384)),
            ZooArch::Hstu(c) => (c.mean_seq, (4, 8_192)),
        };
        let at = move |w: u64| match &m.arch {
            ZooArch::Dlrm(c) => ZooArch::Dlrm(DlrmConfig {
                top_mlp: vec![w, w / 2],
                ..c.clone()
            }),
            ZooArch::Dhen(c) => ZooArch::Dhen(DhenConfig {
                hidden: w,
                lcb_width: (w / 2).max(1),
                top_mlp: vec![w / 2, w / 4],
                ..c.clone()
            }),
            ZooArch::Hstu(c) => ZooArch::Hstu(HstuConfig {
                mean_seq: w,
                max_seq: w * 8,
                ..c.clone()
            }),
        };
        (width, bracket, at)
    }

    #[test]
    fn zoo_widths_are_the_calibrated_ones() {
        let models = fig6_models()
            .into_iter()
            .chain(table1_models())
            .chain([case_study_initial()]);
        let mut widths = Vec::new();
        for m in models {
            let (width, (lo, hi), at) = width_of(&m);
            assert_eq!(at(width), m.arch, "{}: width derivation", m.name);
            let calibrated = calibrate_width(lo, hi, m.target_mflops_per_sample, |w| {
                ZooModel {
                    arch: at(w),
                    ..m.clone()
                }
                .graph()
            });
            assert_eq!(width, calibrated, "{}: pinned width", m.name);
            widths.push((m.name.clone(), width));
        }
        let pinned = [
            ("LC1", 3045),
            ("LC2", 4156),
            ("LC3", 5854),
            ("LC4", 7800),
            ("LC5", 9383),
            ("HC1", 3519),
            ("HC2", 3966),
            ("HC3", 3508),
            ("HC4", 5199),
            ("retrieval", 1446),
            ("early-stage-ranking", 6215),
            ("late-stage-ranking", 5199),
            ("hstu-retrieval", 327),
            ("hstu-ranking", 481),
            ("HC3-initial", 1778),
        ];
        let pinned: Vec<(String, u64)> = pinned.iter().map(|&(n, w)| (n.to_string(), w)).collect();
        assert_eq!(widths, pinned);
    }

    #[test]
    fn fig6_complexities_match_targets() {
        for m in fig6_models() {
            let measured = m.mflops_per_sample();
            let err = (measured - m.target_mflops_per_sample).abs() / m.target_mflops_per_sample;
            assert!(
                err < 0.05,
                "{}: target {} measured {measured:.1} MFLOPS/sample",
                m.name,
                m.target_mflops_per_sample
            );
        }
    }

    #[test]
    fn fig6_population_shape() {
        let models = fig6_models();
        assert_eq!(models.len(), 9);
        let lc: Vec<_> = models
            .iter()
            .filter(|m| m.class == ComplexityClass::LowComplexity)
            .collect();
        let hc: Vec<_> = models
            .iter()
            .filter(|m| m.class == ComplexityClass::HighComplexity)
            .collect();
        assert_eq!(lc.len(), 5);
        assert_eq!(hc.len(), 4);
        // §7: LC 15–105, HC 480–1000 MFLOPS/sample.
        for m in &lc {
            assert!((15.0..=105.0).contains(&m.target_mflops_per_sample));
        }
        for m in &hc {
            assert!((480.0..=1000.0).contains(&m.target_mflops_per_sample));
        }
        // Batch-size anchors from §7.
        assert_eq!(models[0].batch, 4096); // LC1 at 4K
        assert_eq!(models[1].batch, 512); // LC2 at 512
        assert_eq!(models[5].batch, 2048); // HC1 at 2K
    }

    #[test]
    fn hc3_has_mha_blocks() {
        let models = fig6_models();
        let hc3 = models.iter().find(|m| m.name == "HC3").unwrap();
        match &hc3.arch {
            ZooArch::Dhen(c) => assert!(c.mha.is_some()),
            _ => panic!("HC3 should be DHEN-based"),
        }
    }

    #[test]
    fn case_study_trajectory_endpoints() {
        // §6: complexity grew from 140 to 940 MFLOPS/sample.
        let initial = case_study_initial();
        assert!((initial.mflops_per_sample() - 140.0).abs() / 140.0 < 0.05);
        let final_model = fig6_models().into_iter().find(|m| m.name == "HC3").unwrap();
        assert!((final_model.mflops_per_sample() - 940.0).abs() / 940.0 < 0.05);
    }

    #[test]
    fn table1_sizes_and_complexities() {
        let models = table1_models();
        assert_eq!(models.len(), 5);

        let retrieval = &models[0];
        assert!(retrieval.table_bytes().as_gib() >= 50.0);
        assert!(retrieval.mflops_per_sample() <= 10.0);

        let late = &models[2];
        assert!((late.mflops_per_sample() - 1000.0).abs() / 1000.0 < 0.05);
        let gib = late.table_bytes().as_gib();
        assert!(
            (100.0..=300.0).contains(&gib),
            "late-stage tables {gib} GiB"
        );

        // HSTU: 1 TB / 2 TB tables, 10 / 80 GFLOPS per request.
        let hr = &models[3];
        assert!((hr.table_bytes().as_gib() - 1024.0).abs() < 1.0);
        assert!((hr.mflops_per_sample() / 1000.0 - 10.0).abs() < 0.5);
        let hk = &models[4];
        assert!((hk.table_bytes().as_gib() - 2048.0).abs() < 1.0);
        assert!((hk.mflops_per_sample() / 1000.0 - 80.0).abs() < 4.0);
    }

    #[test]
    fn rebatching_preserves_per_sample_complexity() {
        let m = &fig6_models()[2]; // LC3
        let a = m.graph_at(256).flops_per_sample().as_mflops();
        let b = m.graph_at(1024).flops_per_sample().as_mflops();
        assert!((a - b).abs() / a < 1e-9);
    }

    #[test]
    fn graphs_all_validate() {
        for m in fig6_models().iter().chain(table1_models().iter()) {
            assert_eq!(m.graph().validate(), Ok(()), "{}", m.name);
        }
    }
}
