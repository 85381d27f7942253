//! Process-wide memoization of [`cost_op`] evaluations and of the
//! Zipf/Che TBE hit-rate solver.
//!
//! The roofline cost model is a pure function of `(machine environment,
//! op, dtype, variant)`, and the experiment suite evaluates identical
//! tuples relentlessly: the Table-1 model zoo is re-simulated by the
//! overclocking study, the ablations, the quantization ladder, and the
//! figure sweeps, each time re-deriving the same per-node costs. This
//! module interns those evaluations in a lock-sharded
//! [`ShardedCache`], so a repeated `(env, op)` pair costs a hash
//! lookup instead of re-running the roofline math.
//!
//! **Keying — per-op-class environment signatures.** A naive key would
//! hash the *entire* [`KernelEnv`], but two of its fields —
//! [`weight_resident_fraction`] and [`tbe_hit_rate`] — are derived per
//! model, so whole-env keys make every model sweep (fig5/fig6, the
//! zoo studies) miss on ops whose cost never reads those fields. The
//! cost model's actual data flow is narrower:
//!
//! * `weight_resident_fraction` is read only where real weight bytes
//!   stream ([`OpKind::Fc`] / [`OpKind::QuantizedFc`]; attention and
//!   interaction GEMMs pass zero weight bytes, so their cost is
//!   independent of it);
//! * `tbe_hit_rate` is read only by [`OpKind::Tbe`];
//! * of the placement, only `placement.activations` (the [`MemLevel`])
//!   is read — the byte budgets parameterize how `ChipSim` *derives*
//!   the two fractions above, and never reach a cost function.
//!
//! [`env_signature`] therefore returns an [`EnvSignature`] bundle —
//! `base` (shared machine environment), and `base` extended with the
//! weight-residency and/or TBE fractions — and
//! [`EnvSignature::for_op`] picks the narrowest component that still
//! covers everything the op's cost can read (`Fused` ops take the
//! union of their members). A LayerNorm evaluated under the DLRM
//! placement now hits the entry a ranking model interned, while an FC
//! under a different residency still gets its own entry.
//! `classification_matches_the_cost_model` pins the field-independence
//! claims against [`cost_op`] itself, and exhaustive struct
//! destructuring in [`env_signature`] turns any future `KernelEnv` /
//! `DataPlacement` field into a compile error here rather than a stale
//! key.
//!
//! **The Zipf memo.** The second memo, [`zipf_hit_rate_cached`], interns
//! [`zipf_hit_rate`] keyed by its exact inputs `(catalog, cache_size,
//! skew.to_bits())`. `ChipSim` derives the TBE hit rate once per run,
//! and a design sweep repeats the same few embedding-cache budgets over
//! and over, so uncached, the bisection solver would dominate a
//! co-design evaluation. [`reset`] clears both memos, so a cold-cache
//! benchmark job starts cold on both. [`stats`] and [`entries`] report
//! the op-cost memo only.
//!
//! **Determinism**: cached values equal freshly computed values by
//! purity, so enabling the cache — or sharing it across the
//! [`mtia_core::pool`] workers — never changes any reported number,
//! only the time it takes to produce it. Only the hit/miss *counters*
//! are scheduling-dependent, which is why they are reported separately
//! (`BENCH_PERF.json`) and excluded from byte-identity comparisons.
//!
//! [`weight_resident_fraction`]: KernelEnv::weight_resident_fraction
//! [`tbe_hit_rate`]: KernelEnv::tbe_hit_rate
//! [`MemLevel`]: crate::mem::sram::MemLevel

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use mtia_core::memo::{stable_key, CacheStats, ShardedCache};
use mtia_core::DType;
use mtia_model::ops::OpKind;

use crate::kernels::{cost_op, FcVariant, KernelEnv, OpCost};
use crate::mem::cache::zipf_hit_rate;
use crate::mem::sram::DataPlacement;

static CACHE: OnceLock<ShardedCache<OpCost>> = OnceLock::new();
static ZIPF: OnceLock<ShardedCache<f64>> = OnceLock::new();

fn cache() -> &'static ShardedCache<OpCost> {
    CACHE.get_or_init(ShardedCache::default)
}

fn zipf_cache() -> &'static ShardedCache<f64> {
    ZIPF.get_or_init(ShardedCache::default)
}

/// The per-op-class environment fingerprints for one simulation run.
///
/// Computed once per run (not per node) by [`env_signature`];
/// [`Self::for_op`] selects the narrowest component whose inputs cover
/// the op's cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvSignature {
    /// Machine environment shared by every op: chip, NoC, DRAM/ECC,
    /// activation placement level, write-back hints.
    base: u64,
    /// `base` + the FC weight-residency fraction.
    weights: u64,
    /// `base` + the TBE embedding hit rate.
    tbe: u64,
    /// `base` + both per-model fractions (fused ops containing an FC
    /// *and* a TBE).
    full: u64,
}

/// Whether `op`'s cost reads [`KernelEnv::weight_resident_fraction`] —
/// exactly the ops that stream non-zero weight bytes in `cost_fc_raw`.
fn reads_weight_residency(op: &OpKind) -> bool {
    match op {
        OpKind::Fc { .. } | OpKind::QuantizedFc { .. } => true,
        OpKind::Fused(members) => members.iter().any(reads_weight_residency),
        _ => false,
    }
}

/// Whether `op`'s cost reads [`KernelEnv::tbe_hit_rate`].
fn reads_tbe_hit_rate(op: &OpKind) -> bool {
    match op {
        OpKind::Tbe(_) => true,
        OpKind::Fused(members) => members.iter().any(reads_tbe_hit_rate),
        _ => false,
    }
}

impl EnvSignature {
    /// The signature component covering everything `op`'s cost can
    /// read from the environment.
    pub fn for_op(&self, op: &OpKind) -> u64 {
        match (reads_weight_residency(op), reads_tbe_hit_rate(op)) {
            (false, false) => self.base,
            (true, false) => self.weights,
            (false, true) => self.tbe,
            (true, true) => self.full,
        }
    }
}

fn extend(base: u64, parts: &[u64]) -> u64 {
    let mut hasher = DefaultHasher::new();
    base.hash(&mut hasher);
    parts.hash(&mut hasher);
    hasher.finish()
}

/// Fingerprints a [`KernelEnv`] for cache keying.
///
/// Computed once per simulation run (not per node): the environment is
/// fixed for a whole graph execution, so [`ChipSim::run`] hashes it
/// once and reuses the signature bundle for every node lookup.
///
/// The exhaustive destructuring is deliberate: adding a field to
/// `KernelEnv` or `DataPlacement` fails to compile here, forcing a
/// decision about which signature component(s) it belongs to instead
/// of silently going stale.
///
/// [`ChipSim::run`]: crate::chip::ChipSim::run
pub fn env_signature(env: &KernelEnv<'_>) -> EnvSignature {
    let KernelEnv {
        chip,
        noc,
        dram,
        placement,
        weight_resident_fraction,
        tbe_hit_rate,
        skip_writeback_hints,
    } = env;
    let DataPlacement {
        // The partition and byte budgets only parameterize how ChipSim
        // derives the two per-model fractions; no cost function reads
        // them (`classification_matches_the_cost_model` guards the
        // activations-only claim at the placement level too, via the
        // budget-varied environments).
        partition: _,
        activations,
        resident_weight_bytes: _,
        embedding_cache_bytes: _,
    } = placement;
    let mut hasher = DefaultHasher::new();
    // `f64`'s `Debug` is the shortest round-trip representation, so
    // distinct machine environments render distinctly.
    format!("{chip:?} {noc:?} {dram:?} {activations:?} {skip_writeback_hints:?}").hash(&mut hasher);
    let base = hasher.finish();
    EnvSignature {
        base,
        weights: extend(base, &[weight_resident_fraction.to_bits()]),
        tbe: extend(base, &[tbe_hit_rate.to_bits()]),
        full: extend(
            base,
            &[weight_resident_fraction.to_bits(), tbe_hit_rate.to_bits()],
        ),
    }
}

/// [`cost_op`] through the process-wide memo cache.
///
/// `sig` must be [`env_signature`]`(env)` — it is taken as an argument
/// so callers evaluating many ops under one environment pay the
/// environment hash once.
pub fn cost_op_cached(
    env: &KernelEnv<'_>,
    sig: EnvSignature,
    op: &OpKind,
    dtype: DType,
    variant: Option<FcVariant>,
) -> OpCost {
    let key = stable_key(|h| {
        sig.for_op(op).hash(h);
        op.hash(h);
        dtype.hash(h);
        variant.hash(h);
    });
    cache().get_or_insert_with(key, || cost_op(env, op, dtype, variant))
}

/// [`zipf_hit_rate`] through the process-wide Zipf memo, keyed by its
/// exact inputs. Returns the same bits as a direct call.
///
/// # Panics
///
/// As [`zipf_hit_rate`], on a miss with invalid inputs.
pub fn zipf_hit_rate_cached(catalog: u64, cache_size: u64, skew: f64) -> f64 {
    let key = stable_key(|h| {
        catalog.hash(h);
        cache_size.hash(h);
        skew.to_bits().hash(h);
    });
    zipf_cache().get_or_insert_with(key, || zipf_hit_rate(catalog, cache_size, skew))
}

/// Snapshot of the global cache's hit/miss counters.
pub fn stats() -> CacheStats {
    cache().stats()
}

/// Per-shard counter snapshots, in shard order — surfaced by
/// `reproduce --bench-perf` so shard-load skew is visible in
/// `BENCH_PERF.json`.
pub fn shard_stats() -> Vec<CacheStats> {
    cache().shard_stats()
}

/// Cached entries currently interned.
pub fn entries() -> usize {
    cache().len()
}

/// Empties both memos (op costs and Zipf hit rates) and zeroes their
/// counters (fair cold-start timings when benchmarking thread counts or
/// measuring per-experiment rates).
pub fn reset() {
    cache().clear();
    zipf_cache().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::lpddr::LpddrController;
    use crate::mem::sram::place_model;
    use crate::noc::NocModel;
    use mtia_core::spec::{chips, EccMode};
    use mtia_core::units::Bytes;
    use mtia_model::ops::TbeParams;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that count hits or call [`reset`]: the memos
    /// are process-wide and the harness runs tests in parallel.
    fn memo_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether some [`reset`] is observed to leave the memos `empty`.
    /// Other tests in this binary run `ChipSim` concurrently and may
    /// refill the memos between a reset and the check, so the check is
    /// retried; a reset that leaves entries or counters behind fails
    /// every attempt.
    fn reset_is_observed_empty(empty: impl Fn() -> bool) -> bool {
        (0..1000).any(|_| {
            reset();
            empty()
        })
    }

    fn test_env(chip: &mtia_core::ChipSpec) -> KernelEnv<'_> {
        let placement = place_model(&chip.sram, Bytes::from_mib(40), Bytes::from_mib(100), 0.75);
        KernelEnv {
            chip,
            noc: NocModel::new(chip.noc.clone()),
            dram: LpddrController::new(chip.dram.clone(), EccMode::ControllerEcc),
            placement,
            weight_resident_fraction: 1.0,
            tbe_hit_rate: 0.5,
            skip_writeback_hints: true,
        }
    }

    fn sample_tbe() -> OpKind {
        OpKind::Tbe(TbeParams {
            num_tables: 8,
            rows_per_table: 100_000,
            embedding_dim: 64,
            pooling_factor: 16,
            batch: 256,
            weighted: false,
            pooled: true,
        })
    }

    #[test]
    fn cached_cost_equals_uncached_cost() {
        let chip = chips::mtia2i();
        let env = test_env(&chip);
        let sig = env_signature(&env);
        let ops = [
            OpKind::Fc {
                batch: 256,
                in_features: 1024,
                out_features: 512,
            },
            OpKind::Softmax { rows: 64, cols: 48 },
            OpKind::LayerNorm {
                rows: 128,
                cols: 1024,
            },
        ];
        for op in &ops {
            let direct = cost_op(&env, op, DType::Fp16, None);
            let cached = cost_op_cached(&env, sig, op, DType::Fp16, None);
            let hit = cost_op_cached(&env, sig, op, DType::Fp16, None);
            assert_eq!(direct, cached);
            assert_eq!(direct, hit);
        }
    }

    /// The load-bearing independence claims behind [`EnvSignature::for_op`],
    /// checked against [`cost_op`] itself: ops classified as not reading
    /// a per-model fraction must cost the same when only that fraction
    /// (or a placement byte budget) changes.
    #[test]
    fn classification_matches_the_cost_model() {
        let chip = chips::mtia2i();
        let ops = [
            OpKind::Fc {
                batch: 128,
                in_features: 4096,
                out_features: 1024,
            },
            OpKind::QuantizedFc {
                batch: 128,
                in_features: 4096,
                out_features: 1024,
            },
            sample_tbe(),
            OpKind::Softmax {
                rows: 64,
                cols: 256,
            },
            OpKind::LayerNorm {
                rows: 128,
                cols: 1024,
            },
            OpKind::Transpose {
                rows: 512,
                cols: 512,
            },
            OpKind::Attention(mtia_model::ops::AttentionParams {
                batch: 8,
                heads: 8,
                seq: 128,
                head_dim: 64,
            }),
            OpKind::Fused(vec![
                OpKind::Fc {
                    batch: 64,
                    in_features: 512,
                    out_features: 512,
                },
                OpKind::Elementwise {
                    elems: 32_768,
                    kind: mtia_model::ops::EwKind::Nonlinear,
                    arity: 1,
                },
            ]),
        ];
        let base = test_env(&chip);
        let mut wrf_varied = test_env(&chip);
        wrf_varied.weight_resident_fraction = 0.25;
        let mut tbe_varied = test_env(&chip);
        tbe_varied.tbe_hit_rate = 0.9;
        // Same activation level, different byte budgets: the placement
        // fields the signature deliberately ignores.
        let mut budget_varied = test_env(&chip);
        budget_varied.placement =
            place_model(&chip.sram, Bytes::from_mib(40), Bytes::from_mib(400), 0.5);
        assert_eq!(
            base.placement.activations, budget_varied.placement.activations,
            "budget variation must not move the activation level for this test"
        );
        for op in &ops {
            let reference = cost_op(&base, op, DType::Fp16, None);
            if !reads_weight_residency(op) {
                assert_eq!(
                    reference,
                    cost_op(&wrf_varied, op, DType::Fp16, None),
                    "{op:?} classified weight-independent but cost moved"
                );
            } else {
                assert_ne!(
                    reference,
                    cost_op(&wrf_varied, op, DType::Fp16, None),
                    "{op:?} classified weight-dependent but cost ignored it"
                );
            }
            if !reads_tbe_hit_rate(op) {
                assert_eq!(
                    reference,
                    cost_op(&tbe_varied, op, DType::Fp16, None),
                    "{op:?} classified TBE-independent but cost moved"
                );
            }
            assert_eq!(
                reference,
                cost_op(&budget_varied, op, DType::Fp16, None),
                "{op:?} cost must not read placement byte budgets"
            );
        }
    }

    /// The point of the widening: models that differ only in their
    /// derived fractions share entries for ops that never read them.
    #[test]
    fn weight_independent_ops_hit_across_model_environments() {
        let _guard = memo_lock();
        let chip = chips::mtia2i();
        let mut a = test_env(&chip);
        a.weight_resident_fraction = 0.3;
        a.tbe_hit_rate = 0.41;
        let mut b = test_env(&chip);
        b.weight_resident_fraction = 0.8;
        b.tbe_hit_rate = 0.62;
        let sig_a = env_signature(&a);
        let sig_b = env_signature(&b);
        let softmax = OpKind::Softmax {
            rows: 977,
            cols: 311,
        };
        // Weight-heavy shape: 8192×8192 FP16 weights (128 MiB) over a
        // tiny batch, so the non-resident fraction dominates the cost.
        let fc = OpKind::Fc {
            batch: 4,
            in_features: 8192,
            out_features: 8192,
        };
        // Shared machine environment → shared base component.
        assert_eq!(sig_a.for_op(&softmax), sig_b.for_op(&softmax));
        // Per-model residency → distinct FC components.
        assert_ne!(sig_a.for_op(&fc), sig_b.for_op(&fc));
        // The cross-env lookup must hit. Concurrent tests may move the
        // counters mid-attempt, so fresh shapes are retried until one
        // attempt is undisturbed; a miss raises `misses` and never passes.
        let hit_across = (0..100).any(|k| {
            let op = OpKind::Softmax {
                rows: 977 + k,
                cols: 311,
            };
            let first = cost_op_cached(&a, sig_a, &op, DType::Fp16, None);
            let before = stats();
            let second = cost_op_cached(&b, sig_b, &op, DType::Fp16, None);
            let after = stats();
            assert_eq!(first, second);
            after.misses == before.misses && after.hits == before.hits + 1
        });
        assert!(hit_across, "cross-env lookup must hit");
        // And the FCs stay separate — different residency, different cost.
        let fc_a = cost_op_cached(&a, sig_a, &fc, DType::Fp16, None);
        let fc_b = cost_op_cached(&b, sig_b, &fc, DType::Fp16, None);
        assert_eq!(fc_a, cost_op(&a, &fc, DType::Fp16, None));
        assert_eq!(fc_b, cost_op(&b, &fc, DType::Fp16, None));
        assert_ne!(fc_a.dram_bytes, fc_b.dram_bytes);
        assert_ne!(fc_a.time, fc_b.time);
    }

    #[test]
    fn environment_changes_change_the_signature() {
        let chip = chips::mtia2i();
        let a = test_env(&chip);
        let sig_a = env_signature(&a);
        let tbe = sample_tbe();
        let softmax = OpKind::Softmax { rows: 8, cols: 8 };

        let mut b = test_env(&chip);
        b.tbe_hit_rate = 0.5000001;
        let sig_b = env_signature(&b);
        // The TBE component moves; the shared base does not.
        assert_ne!(sig_a.for_op(&tbe), sig_b.for_op(&tbe));
        assert_eq!(sig_a.for_op(&softmax), sig_b.for_op(&softmax));

        // A machine-environment change moves every component.
        let mut c = test_env(&chip);
        c.skip_writeback_hints = false;
        let sig_c = env_signature(&c);
        assert_ne!(sig_a.for_op(&softmax), sig_c.for_op(&softmax));
        assert_ne!(sig_a.for_op(&tbe), sig_c.for_op(&tbe));
    }

    #[test]
    fn dtype_and_variant_are_part_of_the_key() {
        let chip = chips::mtia2i();
        let env = test_env(&chip);
        let sig = env_signature(&env);
        let op = OpKind::Fc {
            batch: 512,
            in_features: 2048,
            out_features: 2048,
        };
        let fp16 = cost_op_cached(&env, sig, &op, DType::Fp16, None);
        let int8 = cost_op_cached(&env, sig, &op, DType::Int8, None);
        assert_ne!(fp16.time, int8.time);
        let variant = FcVariant::optimized_for(512, 2048, 2048);
        let tuned = cost_op_cached(&env, sig, &op, DType::Fp16, Some(variant));
        assert_eq!(tuned, cost_op(&env, &op, DType::Fp16, Some(variant)));
        // The explicit-variant entry must not alias the `None` entry.
        assert_eq!(fp16, cost_op_cached(&env, sig, &op, DType::Fp16, None));
    }

    #[test]
    fn reset_clears_stats() {
        let _guard = memo_lock();
        let chip = chips::mtia2i();
        let env = test_env(&chip);
        let sig = env_signature(&env);
        let op = OpKind::LayerNorm { rows: 7, cols: 7 };
        let _ = cost_op_cached(&env, sig, &op, DType::Fp16, None);
        assert!(reset_is_observed_empty(
            || stats() == CacheStats::default() && entries() == 0
        ));
    }

    #[test]
    fn cached_zipf_returns_the_solver_bits() {
        for (catalog, cache, skew) in [
            (400_000_000u64, 600_000u64, 1.05f64),
            (1_000_000, 10_000, 1.0),
            (12_345, 678, 0.37),
            (100, 0, 0.9),
            (100, 200, 0.9),
        ] {
            let direct = zipf_hit_rate(catalog, cache, skew);
            for _ in 0..2 {
                assert_eq!(
                    zipf_hit_rate_cached(catalog, cache, skew).to_bits(),
                    direct.to_bits(),
                    "({catalog}, {cache}, {skew})"
                );
            }
        }
    }

    #[test]
    fn repeat_zipf_lookup_hits() {
        let _guard = memo_lock();
        let (catalog, cache, skew) = (987_654_321u64, 1_234_567u64, 0.8125f64);
        let first = zipf_hit_rate_cached(catalog, cache, skew);
        let before = zipf_cache().stats();
        let second = zipf_hit_rate_cached(catalog, cache, skew);
        let after = zipf_cache().stats();
        assert_eq!(first.to_bits(), second.to_bits());
        assert!(after.hits > before.hits, "repeat lookup must hit");
        // A different skew is a different key.
        let other = zipf_hit_rate_cached(catalog, cache, 0.8126);
        assert_ne!(first.to_bits(), other.to_bits());
    }

    #[test]
    fn reset_empties_the_zipf_memo() {
        let _guard = memo_lock();
        let _ = zipf_hit_rate_cached(55_555, 555, 0.55);
        assert!(!zipf_cache().is_empty());
        assert!(reset_is_observed_empty(|| {
            zipf_cache().is_empty() && zipf_cache().stats() == CacheStats::default()
        }));
    }
}
