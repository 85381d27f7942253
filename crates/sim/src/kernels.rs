//! Kernel cost models: how long each operator takes on an MTIA chip.
//!
//! Every operator's duration is the **maximum of its bottleneck terms**
//! (roofline over the published microarchitecture):
//!
//! 1. DPE/SIMD compute at the derived peak × a shape-efficiency term,
//! 2. Local Memory bandwidth feeding the DPE,
//! 3. shared-SRAM bandwidth,
//! 4. DRAM traffic (weight streaming beyond the LLC-resident set, TBE
//!    misses, activation spill) at the ECC-adjusted LPDDR bandwidth,
//! 5. NoC transfer (×8 duplicated weight reads without broadcast support),
//! 6. custom-instruction issue on the scalar RISC-V cores (§3.3).
//!
//! The FC kernel is parameterized by a [`FcVariant`] — stationarity, block
//! sizes, broadcast/prefetch flags — because kernel-variant selection is
//! one of the paper's main autotuning levers (§4.1).

use mtia_core::spec::{ChipFeature, ChipSpec};
use mtia_core::units::{Bytes, FlopCount, SimTime};
use mtia_core::DType;
use mtia_model::ops::{EwKind, OpKind};

use crate::mem::lpddr::{AccessPattern, LpddrController};
use crate::mem::sram::{DataPlacement, MemLevel};
use crate::noc::NocModel;

/// Scalar-core cycles to issue one custom instruction *without* the §3.3
/// enhancements (every context register written individually).
pub const ISSUE_CYCLES_BASELINE: f64 = 100.0;
/// Cycles per custom instruction with multi-context + auto-increment.
pub const ISSUE_CYCLES_ENHANCED: f64 = 4.0;

/// What limited an operator's execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// DPE or SIMD arithmetic.
    Compute,
    /// Per-PE Local Memory bandwidth.
    LocalMemory,
    /// Shared SRAM bandwidth.
    Sram,
    /// Off-chip LPDDR bandwidth.
    Dram,
    /// Network-on-chip bandwidth.
    Noc,
    /// Custom-instruction issue rate on the scalar cores.
    InstructionIssue,
    /// Host link (PCIe).
    Pcie,
}

/// The cost of one operator execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Wall-clock duration on the chip.
    pub time: SimTime,
    /// Arithmetic work.
    pub flops: FlopCount,
    /// Bytes moved from/to DRAM.
    pub dram_bytes: Bytes,
    /// Bytes served from on-chip SRAM (LLS + LLC hits).
    pub sram_bytes: Bytes,
    /// Custom instructions issued.
    pub instructions: u64,
    /// The limiting resource.
    pub bottleneck: Bottleneck,
}

impl OpCost {
    fn idle() -> Self {
        OpCost {
            time: SimTime::ZERO,
            flops: FlopCount::ZERO,
            dram_bytes: Bytes::ZERO,
            sram_bytes: Bytes::ZERO,
            instructions: 0,
            bottleneck: Bottleneck::Compute,
        }
    }
}

/// Weight stationarity of an FC kernel variant (§4.1: "input, output, and
/// weight stationary" variants from the kernel generator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stationarity {
    /// Weights cached in the DPE; activations streamed. Best when weights
    /// fit and batch is large.
    Weight,
    /// Activations cached; weights streamed. Best for huge weights at
    /// moderate batch.
    Input,
    /// Outputs accumulate in the Reduction Engine across K tiles.
    Output,
}

/// A generated FC kernel variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FcVariant {
    /// Stationarity choice.
    pub stationarity: Stationarity,
    /// Block (tile) size along the batch dimension.
    pub block_m: u64,
    /// Block size along the reduction dimension.
    pub block_k: u64,
    /// Block size along the output dimension.
    pub block_n: u64,
    /// Use NoC broadcast reads for weight distribution (§4.2).
    pub broadcast_weights: bool,
    /// Prefetch weight tiles from DRAM into the LLC ahead of use.
    pub prefetch: bool,
    /// Extra LLC tiling level on the first (batch) dimension for very
    /// large activations (§4.2).
    pub extra_m_tiling: bool,
}

impl FcVariant {
    /// A sensible default variant (what an untuned kernel would pick).
    pub fn default_for(m: u64, _k: u64, _n: u64) -> Self {
        FcVariant {
            stationarity: Stationarity::Weight,
            block_m: m.min(128),
            block_k: 256,
            block_n: 256,
            broadcast_weights: false,
            prefetch: false,
            extra_m_tiling: false,
        }
    }

    /// The §4.2-optimized variant: broadcast + prefetch + decoupled
    /// activation pre-loading, blocks matched to the shape.
    pub fn optimized_for(m: u64, k: u64, n: u64) -> Self {
        FcVariant {
            stationarity: if k * n > m * k {
                Stationarity::Input
            } else {
                Stationarity::Weight
            },
            block_m: pick_block(m, 32),
            block_k: pick_block(k, 32),
            block_n: pick_block(n, 64),
            broadcast_weights: true,
            prefetch: true,
            extra_m_tiling: m > 4096,
        }
    }
}

/// Picks the largest block ≤ 512 that is a multiple of `quantum` and
/// divides `dim` as evenly as possible.
fn pick_block(dim: u64, quantum: u64) -> u64 {
    let mut best = quantum;
    let mut best_waste = f64::MAX;
    let mut b = quantum;
    while b <= 512.min(dim.next_multiple_of(quantum)) {
        let waste = (dim.div_ceil(b) * b) as f64 / dim as f64;
        if waste < best_waste - 1e-12 {
            best_waste = waste;
            best = b;
        }
        b += quantum;
    }
    best
}

/// Everything the kernel models need to know about the machine and the
/// model's steady-state data placement.
#[derive(Debug, Clone)]
pub struct KernelEnv<'a> {
    /// The chip being modelled.
    pub chip: &'a ChipSpec,
    /// NoC model.
    pub noc: NocModel,
    /// LPDDR controller (carries the ECC mode).
    pub dram: LpddrController,
    /// Steady-state data placement for this model.
    pub placement: DataPlacement,
    /// Fraction of FC weight reads served by the LLC (0 when weights don't
    /// fit at all, 1 when fully resident).
    pub weight_resident_fraction: f64,
    /// TBE embedding-row SRAM hit rate (from the Zipf/Che model).
    pub tbe_hit_rate: f64,
    /// §4.2 memory hints: skip the DRAM write-back for single-use spilled
    /// activations (they are produced, consumed once, never re-read).
    pub skip_writeback_hints: bool,
}

impl<'a> KernelEnv<'a> {
    /// Whether the chip has the §3.3 instruction-issue enhancements.
    fn issue_cycles(&self) -> f64 {
        if self.chip.has_feature(ChipFeature::MultiContextGemm)
            && self.chip.has_feature(ChipFeature::AutoIncrementOffset)
        {
            ISSUE_CYCLES_ENHANCED
        } else {
            ISSUE_CYCLES_BASELINE
        }
    }

    /// Time for the scalar cores (one per PE, in parallel) to issue
    /// `instructions` custom instructions.
    fn issue_time(&self, instructions: u64) -> SimTime {
        let per_pe = instructions as f64 / self.chip.pe_count() as f64;
        self.chip
            .frequency
            .time_for_cycles(per_pe * self.issue_cycles())
    }

    /// Time to read/write `bytes` of activations at their placed level.
    /// With §4.2 memory hints, spilled single-use activations skip the
    /// DRAM write-back — roughly half of the round-trip traffic.
    fn activation_time(&self, bytes: Bytes) -> SimTime {
        match self.placement.activations {
            MemLevel::Lls | MemLevel::Llc => self.chip.sram.bandwidth.time_to_move(bytes),
            MemLevel::LocalMemory => self.chip.total_local_memory_bw().time_to_move(bytes),
            MemLevel::Dram | MemLevel::Host => {
                let effective = if self.skip_writeback_hints {
                    bytes.scale(0.5)
                } else {
                    bytes
                };
                self.dram
                    .transfer_time(effective, AccessPattern::Sequential)
            }
        }
    }

    fn act_is_dram(&self) -> bool {
        !self.placement.activations.on_chip()
    }
}

/// Computes the cost of `op` at `dtype`, using `variant` for FC nodes
/// (`None` selects [`FcVariant::default_for`]).
pub fn cost_op(
    env: &KernelEnv<'_>,
    op: &OpKind,
    dtype: DType,
    variant: Option<FcVariant>,
) -> OpCost {
    match op {
        OpKind::Fc {
            batch,
            in_features,
            out_features,
        } => {
            let v = variant
                .unwrap_or_else(|| FcVariant::default_for(*batch, *in_features, *out_features));
            cost_fc(env, *batch, *in_features, *out_features, dtype, v)
        }
        OpKind::QuantizedFc {
            batch,
            in_features,
            out_features,
        } => {
            // INT8 DPE path plus the §4.4 quant/dequant overhead: a full
            // LLS sweep of the FP16 activations on the way in, and an
            // epilogue dequant pass through Local Memory on the way out.
            let v = variant
                .unwrap_or_else(|| FcVariant::default_for(*batch, *in_features, *out_features));
            let mut c = cost_fc(env, *batch, *in_features, *out_features, DType::Int8, v);
            let quant = cost_simd_passes(env, batch * in_features, 2, DType::Fp32, 0.7);
            let mut epilogue_env = env.clone();
            epilogue_env.placement.activations = MemLevel::LocalMemory;
            let dequant =
                cost_simd_passes(&epilogue_env, batch * out_features, 2, DType::Fp32, 0.7);
            c.time = c.time + quant.time + dequant.time;
            c.flops += quant.flops;
            c.flops += dequant.flops;
            c.instructions += quant.instructions + dequant.instructions;
            c.sram_bytes += quant.sram_bytes;
            c.dram_bytes += quant.dram_bytes;
            c
        }
        OpKind::Tbe(p) => cost_tbe(env, p, dtype),
        OpKind::LayerNorm { rows, cols } => cost_simd_passes(env, rows * cols, 3, dtype, 0.6),
        OpKind::Softmax { rows, cols } => {
            let mut c = cost_simd_passes(env, rows * cols, 5, dtype, 0.5);
            // Small inner dimensions need a transpose to keep the SIMD
            // lanes full (§4.3).
            if *cols < 64 {
                let t = cost_layout(env, dtype.bytes_for(rows * cols));
                c.time += t.time;
                c.sram_bytes += t.sram_bytes;
                c.dram_bytes += t.dram_bytes;
            }
            c
        }
        OpKind::Attention(p) => {
            // Two GEMMs (QKᵀ, AV) on the DPE plus a softmax over s×s.
            let gemm_flops = op.flops();
            let v = FcVariant::optimized_for(p.seq, p.head_dim, p.seq);
            let mut qk = cost_fc_raw(
                env,
                gemm_flops,
                Bytes::ZERO,
                op.activation_in_bytes(dtype),
                op.activation_out_bytes(dtype),
                dtype,
                v,
                0.75,
            );
            let soft = cost_simd_passes(env, p.batch * p.heads * p.seq * p.seq, 5, dtype, 0.5);
            qk.time += soft.time;
            qk.instructions += soft.instructions;
            qk
        }
        OpKind::RaggedAttention(p) => {
            let gemm_flops = op.flops();
            let v = FcVariant::optimized_for(p.mean_seq, p.head_dim, p.mean_seq);
            // Ragged attention runs at lower DPE efficiency (jagged tiles)
            // and adds the LUT-based bias gather on the SIMD engine (§4.3).
            let mut c = cost_fc_raw(
                env,
                gemm_flops,
                Bytes::ZERO,
                op.activation_in_bytes(dtype),
                op.activation_out_bytes(dtype),
                dtype,
                v,
                0.5,
            );
            let bias = cost_simd_passes(
                env,
                p.batch * p.heads * p.mean_seq * p.mean_seq,
                2,
                dtype,
                0.4,
            );
            c.time += bias.time;
            c.instructions += bias.instructions;
            c
        }
        OpKind::Transpose { rows, cols } | OpKind::Slice { rows, cols } => {
            cost_layout(env, dtype.bytes_for(rows * cols) * 2)
        }
        OpKind::Concat {
            rows, cols_total, ..
        } => cost_layout(env, dtype.bytes_for(rows * cols_total) * 2),
        OpKind::Reshape { .. } => OpCost::idle(),
        OpKind::Elementwise { elems, kind, arity } => {
            let passes = match kind {
                EwKind::Arithmetic => *arity as u64,
                EwKind::Nonlinear => 2, // LUT lookup + interpolation
            };
            cost_simd_passes(env, *elems, passes, dtype, 0.8)
        }
        OpKind::Interaction { .. } => {
            // Batched small GEMM on the DPE at reduced efficiency.
            let v = FcVariant::default_for(32, 64, 32);
            cost_fc_raw(
                env,
                op.flops(),
                Bytes::ZERO,
                op.activation_in_bytes(dtype),
                op.activation_out_bytes(dtype),
                dtype,
                v,
                0.5,
            )
        }
        OpKind::Quantize { elems } | OpKind::Dequantize { elems } => {
            // RE min/max pass + SIMD scale pass (§4.4's overhead).
            cost_simd_passes(env, *elems, 2, DType::Fp32, 0.7)
        }
        OpKind::Broadcast { rows_out, cols, .. } => {
            cost_layout(env, dtype.bytes_for(rows_out * cols))
        }
        OpKind::Cast { elems } => cost_simd_passes(env, *elems, 1, DType::Fp32, 0.8),
        OpKind::Fused(members) => {
            // Members execute as one kernel: intermediates flow through
            // per-PE Local Memory, one instruction stream, one launch.
            let mut inner_env = env.clone();
            inner_env.placement.activations = MemLevel::LocalMemory;
            let mut total = OpCost::idle();
            let mut worst = (SimTime::ZERO, Bottleneck::Compute);
            for m in members {
                let c = cost_op(&inner_env, m, dtype, variant);
                total.time += c.time;
                total.flops += c.flops;
                total.dram_bytes += c.dram_bytes;
                total.sram_bytes += c.sram_bytes;
                total.instructions += c.instructions;
                if c.time > worst.0 {
                    worst = (c.time, c.bottleneck);
                }
            }
            // Boundary activations still pay the model's placed level.
            let boundary = op.activation_in_bytes(dtype) + op.activation_out_bytes(dtype);
            let boundary_time = env.activation_time(boundary);
            if env.act_is_dram() {
                total.dram_bytes += boundary;
            } else {
                total.sram_bytes += boundary;
            }
            total.time = total.time.max(boundary_time);
            total.bottleneck = worst.1;
            total
        }
    }
}

/// FC cost with explicit shape.
fn cost_fc(env: &KernelEnv<'_>, m: u64, k: u64, n: u64, dtype: DType, v: FcVariant) -> OpCost {
    let flops = FlopCount::new(2.0 * m as f64 * k as f64 * n as f64);
    let weight_bytes = dtype.bytes_for(k * n);
    let act_in = dtype.bytes_for(m * k);
    let act_out = dtype.bytes_for(m * n);
    // Block-quantization efficiency: padding waste along each dimension.
    let util = |d: u64, b: u64| d as f64 / (d.div_ceil(b) * b) as f64;
    let shape_eff =
        util(m, v.block_m.max(32)) * util(k, v.block_k.max(32)) * util(n, v.block_n.max(64));
    // The DPE sustains ~97 % of peak on perfectly blocked shapes.
    let eff = 0.97 * shape_eff;
    cost_fc_raw(env, flops, weight_bytes, act_in, act_out, dtype, v, eff)
}

/// FC/GEMM-class cost from raw volumes.
#[allow(clippy::too_many_arguments)]
fn cost_fc_raw(
    env: &KernelEnv<'_>,
    flops: FlopCount,
    weight_bytes: Bytes,
    act_in: Bytes,
    act_out: Bytes,
    dtype: DType,
    v: FcVariant,
    efficiency: f64,
) -> OpCost {
    let chip = env.chip;
    let peak = chip.gemm_peak(dtype, false);
    let compute = peak.scale(efficiency.max(1e-6)).time_to_compute(flops);

    // Weight traffic: the non-resident fraction streams from DRAM.
    let resident = env.weight_resident_fraction.clamp(0.0, 1.0);
    let dram_weights = weight_bytes.scale(1.0 - resident);
    // DRAM streaming efficiency: prefetch + decoupled loading reach ~95 %
    // of LPDDR bandwidth; the naive kernel stalls on row misses (§4.2's
    // 45 % latency gain / >95 % DRAM-bandwidth result).
    let dram_eff = if v.prefetch { 1.0 } else { 0.58 };
    let dram_time = if dram_weights == Bytes::ZERO {
        SimTime::ZERO
    } else {
        env.dram
            .transfer_time(dram_weights, AccessPattern::Sequential)
            .scale(1.0 / dram_eff)
    };

    // Weight reads from SRAM to the PEs: without NoC broadcast-read support
    // (or a variant that doesn't use it), every PE column pulls its own
    // copy of the stream — §4.2's contention that broadcast eliminates.
    let weight_copies = if v.broadcast_weights && env.noc.broadcast_read() {
        1
    } else {
        chip.pe_cols as u64
    };
    let sram_weight_reads = weight_bytes * weight_copies;

    // NoC: one copy per port, 8 ports moving in parallel.
    let noc_time = env.noc.transfer_time(weight_bytes, chip.pe_cols);

    // Activations.
    let act_time = env.activation_time(act_in + act_out);

    // Local Memory: both operands and outputs flow through it to the DPE.
    let lm_time = chip
        .total_local_memory_bw()
        .time_to_move(act_in + act_out + weight_bytes);

    // SRAM bandwidth for weight reads + on-chip activations.
    let sram_traffic = sram_weight_reads
        + if env.act_is_dram() {
            Bytes::ZERO
        } else {
            act_in + act_out
        };
    let sram_time = chip.sram.bandwidth.time_to_move(sram_traffic);

    // Instruction issue: one custom instruction per DPE tile pass.
    let tiles = (flops.as_f64() / (2.0 * 32.0 * 32.0 * 64.0)).ceil() as u64;
    let issue = env.issue_time(tiles.max(1));

    let (time, bottleneck) = max_bottleneck(&[
        (compute, Bottleneck::Compute),
        (dram_time, Bottleneck::Dram),
        (noc_time, Bottleneck::Noc),
        (
            act_time,
            if env.act_is_dram() {
                Bottleneck::Dram
            } else {
                Bottleneck::Sram
            },
        ),
        (lm_time, Bottleneck::LocalMemory),
        (sram_time, Bottleneck::Sram),
        (issue, Bottleneck::InstructionIssue),
    ]);

    let act_dram = if env.act_is_dram() {
        act_in + act_out
    } else {
        Bytes::ZERO
    };
    let act_sram = if env.act_is_dram() {
        Bytes::ZERO
    } else {
        act_in + act_out
    };
    OpCost {
        time,
        flops,
        dram_bytes: dram_weights + act_dram,
        sram_bytes: sram_weight_reads.saturating_sub(dram_weights) + act_sram,
        instructions: tiles.max(1),
        bottleneck,
    }
}

/// TBE cost: gather + pooled accumulation (§3.3, §4.2).
fn cost_tbe(env: &KernelEnv<'_>, p: &mtia_model::ops::TbeParams, dtype: DType) -> OpCost {
    let chip = env.chip;
    let gathered = p.gathered_bytes(dtype);
    let hit = env.tbe_hit_rate.clamp(0.0, 1.0);
    let sram_bytes = gathered.scale(hit);
    let dram_bytes = gathered.scale(1.0 - hit);

    let dram_time = env.dram.transfer_time(dram_bytes, AccessPattern::Gather);
    let sram_time = chip.sram.bandwidth.time_to_move(sram_bytes);

    // SIMD accumulation of the pooled rows (FP32 accumulate).
    let accum_ops = FlopCount::new((p.lookups() * p.embedding_dim) as f64);
    let simd_time = chip
        .simd_engine_peak(DType::Fp32)
        .time_to_compute(accum_ops);

    // Instructions: one indexed DMA per row with the §3.3 DMA_IN upgrade,
    // five (address-computation) without; accumulation instructions handle
    // `max_accum_rows` rows each.
    let dma_per_row: u64 = if chip.has_feature(ChipFeature::IndexedDma) {
        1
    } else {
        5
    };
    let accum_instrs = p
        .batch
        .saturating_mul(p.num_tables)
        .saturating_mul(p.pooling_factor.div_ceil(chip.pe.max_accum_rows as u64));
    let instructions = p.lookups() * dma_per_row + accum_instrs;
    // TBE instruction streams are short per instruction: ~6 cycles each
    // even without the GEMM-context enhancements.
    let per_pe = instructions as f64 / chip.pe_count() as f64;
    let issue = chip.frequency.time_for_cycles(per_pe * 6.0);

    let (time, bottleneck) = max_bottleneck(&[
        (dram_time, Bottleneck::Dram),
        (sram_time, Bottleneck::Sram),
        (simd_time, Bottleneck::Compute),
        (issue, Bottleneck::InstructionIssue),
    ]);
    OpCost {
        time,
        flops: accum_ops,
        dram_bytes,
        sram_bytes,
        instructions,
        bottleneck,
    }
}

/// SIMD-engine cost for `passes` sweeps over `elems` elements.
fn cost_simd_passes(
    env: &KernelEnv<'_>,
    elems: u64,
    passes: u64,
    dtype: DType,
    pipeline_eff: f64,
) -> OpCost {
    let chip = env.chip;
    let ops = FlopCount::new((elems * passes) as f64);
    let rate = chip.simd_best_peak(dtype).scale(pipeline_eff.max(1e-6));
    let compute = rate.time_to_compute(ops);
    let bytes = dtype.bytes_for(elems * 2); // read + write once
    let mem_time = env.activation_time(bytes);
    // One vector instruction per 64 B per pass, issued at 1 cycle each.
    let instructions = (elems * passes * dtype.size_bytes()).div_ceil(64);
    let issue = chip
        .frequency
        .time_for_cycles(instructions as f64 / chip.pe_count() as f64);
    let (time, bottleneck) = max_bottleneck(&[
        (compute, Bottleneck::Compute),
        (
            mem_time,
            if env.act_is_dram() {
                Bottleneck::Dram
            } else {
                Bottleneck::Sram
            },
        ),
        (issue, Bottleneck::InstructionIssue),
    ]);
    let (dram_bytes, sram_bytes) = if env.act_is_dram() {
        (bytes, Bytes::ZERO)
    } else {
        (Bytes::ZERO, bytes)
    };
    OpCost {
        time,
        flops: ops,
        dram_bytes,
        sram_bytes,
        instructions,
        bottleneck,
    }
}

/// Layout-engine (MLU) cost for moving `bytes` through Local Memory.
fn cost_layout(env: &KernelEnv<'_>, bytes: Bytes) -> OpCost {
    let lm = env
        .chip
        .total_local_memory_bw()
        .scale(0.5)
        .time_to_move(bytes);
    let mem = env.activation_time(bytes);
    let (time, bottleneck) = max_bottleneck(&[
        (lm, Bottleneck::LocalMemory),
        (
            mem,
            if env.act_is_dram() {
                Bottleneck::Dram
            } else {
                Bottleneck::Sram
            },
        ),
    ]);
    let (dram_bytes, sram_bytes) = if env.act_is_dram() {
        (bytes, Bytes::ZERO)
    } else {
        (Bytes::ZERO, bytes)
    };
    OpCost {
        time,
        flops: FlopCount::ZERO,
        dram_bytes,
        sram_bytes,
        instructions: bytes.as_u64().div_ceil(4096),
        bottleneck,
    }
}

fn max_bottleneck(terms: &[(SimTime, Bottleneck)]) -> (SimTime, Bottleneck) {
    terms
        .iter()
        .copied()
        .max_by_key(|(t, _)| *t)
        .expect("at least one bottleneck term")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::sram::place_model;
    use mtia_core::spec::{chips, EccMode};
    use mtia_core::units::Bandwidth;

    fn env(chip: &ChipSpec) -> KernelEnv<'_> {
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

    #[test]
    fn gemm_2k_reaches_92_percent_of_peak() {
        // §3.3: ">92% of peak FLOPS for GEMM shapes such as 2K x 2K".
        let chip = chips::mtia2i();
        let e = env(&chip);
        let v = FcVariant::optimized_for(2048, 2048, 2048);
        let c = cost_op(
            &e,
            &OpKind::Fc {
                batch: 2048,
                in_features: 2048,
                out_features: 2048,
            },
            DType::Fp16,
            Some(v),
        );
        let achieved = c.flops.as_f64() / c.time.as_secs_f64();
        let frac = achieved / chip.gemm_peak(DType::Fp16, false).as_flops_per_s();
        assert!(frac > 0.92, "achieved {:.1}% of peak", frac * 100.0);
    }

    #[test]
    fn unenhanced_issue_rate_bottlenecks_gemm() {
        // §3.3: initial kernels "were bottlenecked by the custom-instruction
        // issue rate ... particularly for smaller GEMM shapes".
        let full = chips::mtia2i();
        let bare = chips::mtia2i_without_issue_enhancements();
        let op = OpKind::Fc {
            batch: 512,
            in_features: 512,
            out_features: 512,
        };
        let v = Some(FcVariant::optimized_for(512, 512, 512));
        let c_full = cost_op(&env(&full), &op, DType::Fp16, v);
        let c_bare = cost_op(&env(&bare), &op, DType::Fp16, v);
        assert_eq!(c_bare.bottleneck, Bottleneck::InstructionIssue);
        assert!(
            c_bare.time > c_full.time.scale(1.3),
            "{} vs {}",
            c_bare.time,
            c_full.time
        );
    }

    #[test]
    fn weight_streaming_becomes_dram_bound() {
        // A 109 MB weight tensor that is not LLC-resident must stream from
        // LPDDR and dominates (§4.2's 512×26592×2048 case).
        let chip = chips::mtia2i();
        let mut e = env(&chip);
        e.weight_resident_fraction = 0.0;
        let op = OpKind::Fc {
            batch: 512,
            in_features: 26592,
            out_features: 2048,
        };
        let c = cost_op(
            &e,
            &op,
            DType::Fp16,
            Some(FcVariant::optimized_for(512, 26592, 2048)),
        );
        assert_eq!(c.bottleneck, Bottleneck::Dram);
        // >95 % of DRAM bandwidth with the optimized variant.
        let ecc_bw = chip.effective_dram_bw(EccMode::ControllerEcc);
        let achieved = Bandwidth::from_bytes_per_s(c.dram_bytes.as_f64() / c.time.as_secs_f64());
        let frac = achieved.as_bytes_per_s() / ecc_bw.as_bytes_per_s();
        assert!(frac > 0.85, "DRAM bw fraction {frac}");
    }

    #[test]
    fn broadcast_and_prefetch_improve_streaming_gemm() {
        // §4.2: decoupled activation/weight loading + broadcast reads +
        // prefetch "improved latency by 45%".
        let chip = chips::mtia2i();
        let mut e = env(&chip);
        e.weight_resident_fraction = 0.0;
        let op = OpKind::Fc {
            batch: 512,
            in_features: 26592,
            out_features: 2048,
        };
        let naive = FcVariant {
            broadcast_weights: false,
            prefetch: false,
            ..FcVariant::optimized_for(512, 26592, 2048)
        };
        let tuned = FcVariant::optimized_for(512, 26592, 2048);
        let t_naive = cost_op(&e, &op, DType::Fp16, Some(naive)).time;
        let t_tuned = cost_op(&e, &op, DType::Fp16, Some(tuned)).time;
        let gain = 1.0 - t_tuned.as_secs_f64() / t_naive.as_secs_f64();
        assert!(
            (0.30..=0.60).contains(&gain),
            "latency gain {gain:.2} (expected ≈ 0.45)"
        );
    }

    #[test]
    fn broadcast_weights_need_broadcast_read_hardware() {
        // §4.2: with NoC broadcast reads one weight stream feeds every PE
        // column; without the hardware (MTIA 1's NoC) each column pulls
        // its own copy, even under the broadcast kernel variant.
        let chip = chips::mtia2i();
        let mut gen1_noc = chip.clone();
        gen1_noc.noc = chips::mtia1().noc;
        let op = OpKind::Fc {
            batch: 512,
            in_features: 1024,
            out_features: 1024,
        };
        let v = FcVariant::optimized_for(512, 1024, 1024);
        let weights = op.weight_bytes(DType::Fp16);
        let with = cost_op(&env(&chip), &op, DType::Fp16, Some(v)).sram_bytes;
        let without = cost_op(&env(&gen1_noc), &op, DType::Fp16, Some(v)).sram_bytes;
        assert_eq!(without - with, weights * (chip.pe_cols as u64 - 1));
    }

    #[test]
    fn int8_doubles_dpe_throughput() {
        let chip = chips::mtia2i();
        let e = env(&chip);
        let op = OpKind::Fc {
            batch: 2048,
            in_features: 2048,
            out_features: 2048,
        };
        let v = FcVariant::optimized_for(2048, 2048, 2048);
        let t16 = cost_op(&e, &op, DType::Fp16, Some(v)).time;
        let t8 = cost_op(&e, &op, DType::Int8, Some(v)).time;
        let speedup = t16.as_secs_f64() / t8.as_secs_f64();
        assert!((1.8..=2.2).contains(&speedup), "int8 speedup {speedup}");
    }

    #[test]
    fn tbe_respects_hit_rate() {
        let chip = chips::mtia2i();
        let mut e = env(&chip);
        let tbe = OpKind::Tbe(mtia_model::ops::TbeParams {
            num_tables: 40,
            rows_per_table: 10_000_000,
            embedding_dim: 128,
            pooling_factor: 20,
            batch: 1024,
            weighted: false,
            pooled: true,
        });
        e.tbe_hit_rate = 0.5;
        let mid = cost_op(&e, &tbe, DType::Fp16, None);
        e.tbe_hit_rate = 0.0;
        let cold = cost_op(&e, &tbe, DType::Fp16, None);
        e.tbe_hit_rate = 1.0;
        let hot = cost_op(&e, &tbe, DType::Fp16, None);
        assert!(cold.time > mid.time && mid.time > hot.time);
        assert_eq!(cold.bottleneck, Bottleneck::Dram);
        assert!(cold.dram_bytes > mid.dram_bytes);
        assert_eq!(hot.dram_bytes, Bytes::ZERO);
    }

    #[test]
    fn indexed_dma_reduces_tbe_instructions() {
        let full = chips::mtia2i();
        let bare = chips::mtia2i_without_issue_enhancements();
        let tbe = OpKind::Tbe(mtia_model::ops::TbeParams {
            num_tables: 40,
            rows_per_table: 10_000_000,
            embedding_dim: 128,
            pooling_factor: 64,
            batch: 4096,
            weighted: false,
            pooled: true,
        });
        let c_full = cost_op(&env(&full), &tbe, DType::Fp16, None);
        let c_bare = cost_op(&env(&bare), &tbe, DType::Fp16, None);
        assert!(c_bare.instructions > c_full.instructions * 3);
        assert!(c_bare.time >= c_full.time);
    }

    #[test]
    fn activation_spill_slows_everything() {
        // The §6 regression: activations falling out of LLS → DRAM
        // (measured without the §4.2 skip-writeback mitigation).
        let chip = chips::mtia2i();
        let mut e = env(&chip);
        e.skip_writeback_hints = false;
        let op = OpKind::Fc {
            batch: 4096,
            in_features: 4096,
            out_features: 1024,
        };
        let fits = cost_op(&e, &op, DType::Fp16, None);
        e.placement = place_model(
            &chip.sram,
            Bytes::from_gib(1), // can't fit
            Bytes::from_mib(100),
            0.75,
        );
        let spilled = cost_op(&e, &op, DType::Fp16, None);
        assert!(
            spilled.time > fits.time,
            "{} !> {}",
            spilled.time,
            fits.time
        );
        assert!(spilled.dram_bytes > fits.dram_bytes);

        // The §4.2 memory hints recover part of the spill cost.
        let mut hinted_env = e.clone();
        hinted_env.skip_writeback_hints = true;
        let hinted = cost_op(&hinted_env, &op, DType::Fp16, None);
        assert!(hinted.time <= spilled.time);
    }

    #[test]
    fn reshape_is_free_and_layout_is_not() {
        let chip = chips::mtia2i();
        let e = env(&chip);
        let r = cost_op(&e, &OpKind::Reshape { elems: 1_000_000 }, DType::Fp16, None);
        assert_eq!(r.time, SimTime::ZERO);
        let t = cost_op(
            &e,
            &OpKind::Transpose {
                rows: 1024,
                cols: 1024,
            },
            DType::Fp16,
            None,
        );
        assert!(t.time > SimTime::ZERO);
        assert_eq!(t.flops.as_f64(), 0.0);
    }

    #[test]
    fn softmax_small_inner_dim_pays_transpose() {
        let chip = chips::mtia2i();
        let e = env(&chip);
        let narrow = cost_op(
            &e,
            &OpKind::Softmax {
                rows: 65536,
                cols: 32,
            },
            DType::Fp16,
            None,
        );
        let wide = cost_op(
            &e,
            &OpKind::Softmax {
                rows: 16384,
                cols: 128,
            },
            DType::Fp16,
            None,
        );
        // Same total elements; the narrow one must be slower.
        assert!(narrow.time > wide.time);
    }

    #[test]
    fn attention_cost_scales_quadratically_in_sequence() {
        let chip = chips::mtia2i();
        let e = env(&chip);
        let cost_at = |seq: u64| {
            let op = OpKind::Attention(mtia_model::ops::AttentionParams {
                batch: 8,
                heads: 8,
                seq,
                head_dim: 64,
            });
            cost_op(&e, &op, DType::Fp16, None)
        };
        let short = cost_at(128);
        let long = cost_at(512);
        // 4× the sequence → 16× the attention flops.
        assert!((long.flops.as_f64() / short.flops.as_f64() - 16.0).abs() < 0.1);
        let ratio = long.time.as_secs_f64() / short.time.as_secs_f64();
        assert!(ratio > 8.0, "attention time ratio {ratio}");
    }

    #[test]
    fn ragged_attention_beats_padded_dense() {
        // §4.3: ragged attention does work proportional to actual lengths;
        // a dense kernel would pad every sequence to the max.
        let chip = chips::mtia2i();
        let e = env(&chip);
        let ragged = cost_op(
            &e,
            &OpKind::RaggedAttention(mtia_model::ops::RaggedAttentionParams {
                batch: 32,
                heads: 8,
                mean_seq: 128,
                max_seq: 1024,
                head_dim: 64,
            }),
            DType::Fp16,
            None,
        );
        let padded = cost_op(
            &e,
            &OpKind::Attention(mtia_model::ops::AttentionParams {
                batch: 32,
                heads: 8,
                seq: 1024,
                head_dim: 64,
            }),
            DType::Fp16,
            None,
        );
        assert!(
            ragged.time.as_secs_f64() * 10.0 < padded.time.as_secs_f64(),
            "ragged {} vs padded {}",
            ragged.time,
            padded.time
        );
    }

    #[test]
    fn quantized_fc_sits_between_int8_and_fp16() {
        let chip = chips::mtia2i();
        let e = env(&chip);
        let n = 2048u64;
        let v = Some(FcVariant::optimized_for(n, n, n));
        let fp16 = cost_op(
            &e,
            &OpKind::Fc {
                batch: n,
                in_features: n,
                out_features: n,
            },
            DType::Fp16,
            v,
        );
        let qfc = cost_op(
            &e,
            &OpKind::QuantizedFc {
                batch: n,
                in_features: n,
                out_features: n,
            },
            DType::Fp16,
            v,
        );
        // Faster than FP16 (the INT8 DPE path)...
        assert!(qfc.time < fp16.time);
        // ...but slower than a bare INT8 matmul (the §4.4 overhead).
        let bare_int8 = cost_op(
            &e,
            &OpKind::Fc {
                batch: n,
                in_features: n,
                out_features: n,
            },
            DType::Int8,
            v,
        );
        assert!(qfc.time > bare_int8.time);
        let speedup = fp16.time.as_secs_f64() / qfc.time.as_secs_f64();
        assert!(
            (1.3..=1.9).contains(&speedup),
            "quantized fc speedup {speedup}"
        );
    }

    #[test]
    fn pick_block_prefers_divisors() {
        assert_eq!(pick_block(2048, 32) % 32, 0);
        assert_eq!(2048 % pick_block(2048, 32), 0);
        assert_eq!(pick_block(26592, 32) % 32, 0);
    }
}
