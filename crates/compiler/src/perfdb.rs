//! FC kernel-variant tuning: exhaustive search and the performance-database
//! shortcut (§4.1).
//!
//! "Initially, we ran exhaustive tests to cover all FC shapes in a model
//! with different data placements, which proved to be too time-consuming.
//! Consequently, we created a performance database and used approximate
//! nearest neighbor search to pick FC kernel variants, which reduced FC
//! tuning time by up to 1000× while achieving kernel performance within 5 %
//! of exhaustive FC tuning."
//!
//! Here, "tuning time" is counted in kernel evaluations: the exhaustive
//! tuner measures every generated variant; the database answers with a
//! single nearest-neighbour lookup.

use mtia_core::pool;
use mtia_core::units::SimTime;
use mtia_sim::kernels::{FcVariant, Stationarity};

/// An FC shape (m = batch rows, k = input features, n = output features).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FcShape {
    /// Batch rows.
    pub m: u64,
    /// Reduction dimension.
    pub k: u64,
    /// Output features.
    pub n: u64,
}

impl FcShape {
    /// Creates a shape.
    pub fn new(m: u64, k: u64, n: u64) -> Self {
        assert!(m > 0 && k > 0 && n > 0, "zero FC dimension");
        FcShape { m, k, n }
    }

    /// Log-space feature vector for nearest-neighbour search.
    fn features(&self) -> [f64; 3] {
        [
            (self.m as f64).ln(),
            (self.k as f64).ln(),
            (self.n as f64).ln(),
        ]
    }

    /// Euclidean distance in log-shape space.
    fn distance(&self, other: &FcShape) -> f64 {
        let a = self.features();
        let b = other.features();
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt()
    }
}

/// The §4.1 kernel generator: enumerates the variant space for one shape.
pub fn enumerate_variants(shape: FcShape) -> Vec<FcVariant> {
    let mut variants = Vec::new();
    let blocks_mk = [32u64, 64, 128, 256, 512];
    let blocks_n = [64u64, 128, 256, 512];
    for stationarity in [
        Stationarity::Weight,
        Stationarity::Input,
        Stationarity::Output,
    ] {
        for &block_m in &blocks_mk {
            for &block_k in &blocks_mk {
                for &block_n in &blocks_n {
                    for broadcast_weights in [false, true] {
                        for prefetch in [false, true] {
                            variants.push(FcVariant {
                                stationarity,
                                block_m,
                                block_k,
                                block_n,
                                broadcast_weights,
                                prefetch,
                                extra_m_tiling: shape.m > 4096,
                            });
                        }
                    }
                }
            }
        }
    }
    variants
}

/// Result of one tuning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneOutcome {
    /// The chosen variant.
    pub variant: FcVariant,
    /// Its (simulated) kernel time.
    pub time: SimTime,
    /// How many kernel evaluations the tuner spent.
    pub evaluations: usize,
}

/// Exhaustively evaluates every generated variant and returns the best.
pub fn exhaustive_tune(
    shape: FcShape,
    eval: &mut impl FnMut(FcShape, FcVariant) -> SimTime,
) -> TuneOutcome {
    let variants = enumerate_variants(shape);
    let mut best: Option<(SimTime, FcVariant)> = None;
    let evaluations = variants.len();
    for v in variants {
        let t = eval(shape, v);
        if best.map(|(bt, _)| t < bt).unwrap_or(true) {
            best = Some((t, v));
        }
    }
    let (time, variant) = best.expect("variant space is non-empty");
    TuneOutcome {
        variant,
        time,
        evaluations,
    }
}

/// Exhaustively evaluates every variant on the [`pool`] workers.
///
/// Equivalent to [`exhaustive_tune`] — same winner, same tie-breaking
/// (earliest-enumerated variant among time ties), chosen by a
/// deterministic index-ordered argmin over the parallel results — but
/// the evaluation fan-out runs concurrently, which is where exhaustive
/// tuning spends all of its time.
pub fn exhaustive_tune_par(
    shape: FcShape,
    eval: &(impl Fn(FcShape, FcVariant) -> SimTime + Sync),
) -> TuneOutcome {
    let variants = enumerate_variants(shape);
    let evaluations = variants.len();
    let times = pool::parallel_map((0..variants.len()).collect(), |_, i| {
        eval(shape, variants[i])
    });
    let (best_idx, time) = times
        .iter()
        .copied()
        .enumerate()
        .min_by(|(ia, ta), (ib, tb)| ta.cmp(tb).then(ia.cmp(ib)))
        .expect("variant space is non-empty");
    TuneOutcome {
        variant: variants[best_idx],
        time,
        evaluations,
    }
}

/// The performance database: tuned shapes and their best variants.
#[derive(Debug, Clone, Default)]
pub struct PerfDb {
    entries: Vec<(FcShape, FcVariant)>,
}

impl PerfDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        PerfDb::default()
    }

    /// Number of stored shapes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records the tuned variant for a shape.
    pub fn insert(&mut self, shape: FcShape, variant: FcVariant) {
        self.entries.push((shape, variant));
    }

    /// Seeds the database by exhaustively tuning a grid of representative
    /// shapes. Returns total evaluations spent (amortized over all future
    /// lookups).
    pub fn seed_grid(
        &mut self,
        ms: &[u64],
        ks: &[u64],
        ns: &[u64],
        eval: &mut impl FnMut(FcShape, FcVariant) -> SimTime,
    ) -> usize {
        let mut total = 0;
        for &m in ms {
            for &k in ks {
                for &n in ns {
                    let shape = FcShape::new(m, k, n);
                    let outcome = exhaustive_tune(shape, eval);
                    total += outcome.evaluations;
                    self.insert(shape, outcome.variant);
                }
            }
        }
        total
    }

    /// [`seed_grid`](Self::seed_grid) with the grid's shapes exhausted
    /// on the [`pool`] workers. The database ends up with exactly the
    /// same entries in the same order: the grid is enumerated
    /// deterministically and results are collected by input index, so
    /// threading never reorders (or changes) the stored variants.
    pub fn seed_grid_par(
        &mut self,
        ms: &[u64],
        ks: &[u64],
        ns: &[u64],
        eval: &(impl Fn(FcShape, FcVariant) -> SimTime + Sync),
    ) -> usize {
        let mut shapes = Vec::new();
        for &m in ms {
            for &k in ks {
                for &n in ns {
                    shapes.push(FcShape::new(m, k, n));
                }
            }
        }
        let outcomes = pool::parallel_map(shapes, |_, shape| {
            (shape, exhaustive_tune(shape, &mut |s, v| eval(s, v)))
        });
        let mut total = 0;
        for (shape, outcome) in outcomes {
            total += outcome.evaluations;
            self.insert(shape, outcome.variant);
        }
        total
    }

    /// Picks a variant for `shape` by approximate-nearest-neighbour lookup
    /// and a single validating evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the database is empty.
    pub fn lookup_tune(
        &self,
        shape: FcShape,
        eval: &mut impl FnMut(FcShape, FcVariant) -> SimTime,
    ) -> TuneOutcome {
        assert!(!self.is_empty(), "performance database is empty");
        let (_, nearest_variant) = self
            .entries
            .iter()
            .min_by(|(a, _), (b, _)| {
                shape
                    .distance(a)
                    .partial_cmp(&shape.distance(b))
                    .expect("finite distances")
            })
            .expect("non-empty database");
        // Re-block the borrowed variant to the query shape's alignment: the
        // database stores the *strategy* (stationarity, broadcast,
        // prefetch); block sizes transfer as-is.
        let variant = *nearest_variant;
        let time = eval(shape, variant);
        TuneOutcome {
            variant,
            time,
            evaluations: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtia_core::spec::{chips, EccMode};
    use mtia_core::units::Bytes;
    use mtia_core::DType;
    use mtia_model::ops::OpKind;
    use mtia_sim::kernels::{cost_op, KernelEnv};
    use mtia_sim::mem::lpddr::LpddrController;
    use mtia_sim::mem::sram::place_model;
    use mtia_sim::noc::NocModel;

    /// A simulator-backed evaluation function.
    fn sim_eval() -> impl FnMut(FcShape, FcVariant) -> SimTime {
        let chip = chips::mtia2i();
        move |shape, variant| {
            let placement =
                place_model(&chip.sram, Bytes::from_mib(40), Bytes::from_mib(200), 0.75);
            let env = KernelEnv {
                chip: &chip,
                noc: NocModel::new(chip.noc.clone()),
                dram: LpddrController::new(chip.dram.clone(), EccMode::ControllerEcc),
                placement,
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

    /// A shareable (`Fn`) simulator-backed evaluation over a borrowed
    /// chip, for the parallel APIs.
    fn shared_eval(
        chip: &mtia_core::ChipSpec,
    ) -> impl Fn(FcShape, FcVariant) -> SimTime + Sync + '_ {
        move |shape, variant| {
            let placement =
                place_model(&chip.sram, Bytes::from_mib(40), Bytes::from_mib(200), 0.75);
            let env = KernelEnv {
                chip,
                noc: NocModel::new(chip.noc.clone()),
                dram: LpddrController::new(chip.dram.clone(), EccMode::ControllerEcc),
                placement,
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

    #[test]
    fn parallel_exhaustive_matches_serial() {
        let chip = chips::mtia2i();
        let eval = shared_eval(&chip);
        let shape = FcShape::new(384, 1536, 768);
        let serial = exhaustive_tune(shape, &mut |s, v| eval(s, v));
        let parallel = exhaustive_tune_par(shape, &eval);
        assert_eq!(serial.variant, parallel.variant);
        assert_eq!(serial.time, parallel.time);
        assert_eq!(serial.evaluations, parallel.evaluations);
    }

    #[test]
    fn seed_grid_par_builds_the_same_database() {
        let chip = chips::mtia2i();
        let eval = shared_eval(&chip);
        let mut serial_db = PerfDb::new();
        let serial_evals =
            serial_db.seed_grid(&[64, 512], &[128, 1024], &[256], &mut |s, v| eval(s, v));
        let mut par_db = PerfDb::new();
        let par_evals = par_db.seed_grid_par(&[64, 512], &[128, 1024], &[256], &eval);
        assert_eq!(serial_evals, par_evals);
        assert_eq!(serial_db.entries, par_db.entries);
    }

    #[test]
    fn variant_space_is_large() {
        let variants = enumerate_variants(FcShape::new(512, 512, 512));
        assert!(variants.len() >= 1000, "only {} variants", variants.len());
    }

    #[test]
    fn exhaustive_finds_a_fast_variant() {
        let mut eval = sim_eval();
        let shape = FcShape::new(512, 2048, 1024);
        let outcome = exhaustive_tune(shape, &mut eval);
        // The tuned variant beats the worst variant comfortably.
        let worst = enumerate_variants(shape)
            .into_iter()
            .map(|v| eval(shape, v))
            .max()
            .unwrap();
        assert!(outcome.time < worst);
        assert_eq!(outcome.evaluations, enumerate_variants(shape).len());
    }

    #[test]
    fn ann_lookup_is_1000x_cheaper_within_5_percent() {
        // §4.1: "reduced FC tuning time by up to 1000x while achieving
        // kernel performance within 5% of exhaustive FC tuning".
        let mut eval = sim_eval();
        let mut db = PerfDb::new();
        db.seed_grid(
            &[64, 256, 1024, 4096],
            &[128, 512, 2048, 8192],
            &[128, 512, 2048],
            &mut eval,
        );

        // Query shapes the database has never seen.
        let queries = [
            FcShape::new(512, 1024, 768),
            FcShape::new(192, 4096, 1536),
            FcShape::new(2048, 320, 256),
            FcShape::new(96, 26592, 2048),
        ];
        for q in queries {
            let exhaustive = exhaustive_tune(q, &mut eval);
            let ann = db.lookup_tune(q, &mut eval);
            let speedup = exhaustive.evaluations as f64 / ann.evaluations as f64;
            assert!(speedup >= 1000.0, "speedup {speedup}");
            let gap = ann.time.as_secs_f64() / exhaustive.time.as_secs_f64() - 1.0;
            assert!(
                gap <= 0.05,
                "{q:?}: ann within {:.1}% of exhaustive",
                gap * 100.0
            );
        }
    }

    #[test]
    fn nearest_neighbour_prefers_similar_shapes() {
        let a = FcShape::new(512, 512, 512);
        let near = FcShape::new(600, 480, 512);
        let far = FcShape::new(8, 30000, 16);
        assert!(a.distance(&near) < a.distance(&far));
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_db_lookup_panics() {
        let mut eval = sim_eval();
        let _ = PerfDb::new().lookup_tune(FcShape::new(1, 1, 1), &mut eval);
    }

    #[test]
    #[should_panic(expected = "zero FC dimension")]
    fn zero_shape_panics() {
        let _ = FcShape::new(0, 1, 1);
    }
}
