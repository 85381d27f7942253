//! The operator vocabulary of the graph IR.
//!
//! These are the operators §2–§4 of the paper discuss: Fully-Connected
//! layers, Table-Batched-Embedding lookups, LayerNorm, SoftMax, dense and
//! ragged attention, layout ops, the DLRM dot-product interaction, dynamic
//! quantization, and the In-Batch Broadcast. Each operator can report its
//! arithmetic work and the byte volumes it moves, which is everything the
//! kernel cost models in `mtia-sim` need.

use std::fmt;

use mtia_core::units::{Bytes, FlopCount};
use mtia_core::DType;

/// Parameters of a Table-Batched-Embedding lookup (the "sparse network").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbeParams {
    /// Number of embedding tables batched into this operator.
    pub num_tables: u64,
    /// Rows per table.
    pub rows_per_table: u64,
    /// Embedding dimension (columns).
    pub embedding_dim: u64,
    /// Average lookups per sample per table (pooling factor).
    pub pooling_factor: u64,
    /// Batch size.
    pub batch: u64,
    /// Whether a per-lookup weight is applied before pooling.
    pub weighted: bool,
    /// Pooled (sum-reduced) output vs full sequence output (jagged).
    pub pooled: bool,
}

impl TbeParams {
    /// Total size of all embedding tables at `dtype`.
    pub fn table_bytes(&self, dtype: DType) -> Bytes {
        dtype.bytes_for(self.num_tables * self.rows_per_table * self.embedding_dim)
    }

    /// Number of embedding rows gathered per batch.
    pub fn lookups(&self) -> u64 {
        self.batch * self.num_tables * self.pooling_factor
    }

    /// Bytes gathered from the tables per batch.
    pub fn gathered_bytes(&self, dtype: DType) -> Bytes {
        dtype.bytes_for(self.lookups() * self.embedding_dim)
    }
}

/// Parameters of dense multi-headed attention (§6: "a network of MHA
/// blocks like those in traditional transformers").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionParams {
    /// Batch size.
    pub batch: u64,
    /// Number of heads.
    pub heads: u64,
    /// Sequence length (keys = queries).
    pub seq: u64,
    /// Per-head dimension.
    pub head_dim: u64,
}

/// Parameters of HSTU-style ragged attention over jagged user histories
/// (§4.3): sequence lengths vary per batch item and a positional/timestamp
/// bias is gathered from lookup tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaggedAttentionParams {
    /// Batch size (number of users).
    pub batch: u64,
    /// Number of heads.
    pub heads: u64,
    /// Mean sequence length across the jagged batch.
    pub mean_seq: u64,
    /// Maximum sequence length (padding bound for dense fallback).
    pub max_seq: u64,
    /// Per-head dimension.
    pub head_dim: u64,
}

/// Elementwise operation families, distinguished because nonlinear functions
/// use the SIMD engine's lookup tables while arithmetic uses its ALUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EwKind {
    /// Add/mul/sub with one or two inputs.
    Arithmetic,
    /// Sigmoid/ReLU/GELU etc. via LUT approximation.
    Nonlinear,
}

/// Which execution engine class an operator predominantly occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpCategory {
    /// Dot-Product-Engine matrix math.
    Gemm,
    /// Irregular gathers from embedding tables.
    Sparse,
    /// SIMD-engine / vector-core elementwise and reduction work.
    Simd,
    /// Layout transformation or pure data movement.
    DataMovement,
}

/// One operator in the graph IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Fully-connected layer: `[batch × in] · [in × out]`.
    Fc {
        /// Batch (rows of the activation input).
        batch: u64,
        /// Input features.
        in_features: u64,
        /// Output features.
        out_features: u64,
    },
    /// Table-batched embedding lookup.
    Tbe(TbeParams),
    /// Row-wise layer normalization over `rows × cols`.
    LayerNorm {
        /// Independent rows.
        rows: u64,
        /// Normalized dimension.
        cols: u64,
    },
    /// Row-wise softmax over `rows × cols`.
    Softmax {
        /// Independent rows.
        rows: u64,
        /// Softmax dimension.
        cols: u64,
    },
    /// Dense multi-headed attention core (QKᵀ, softmax, ×V).
    Attention(AttentionParams),
    /// HSTU ragged attention with positional/timestamp bias gather.
    RaggedAttention(RaggedAttentionParams),
    /// 2-D transpose.
    Transpose {
        /// Rows of the input.
        rows: u64,
        /// Columns of the input.
        cols: u64,
    },
    /// Concatenation of `num_inputs` tensors along the inner dimension.
    Concat {
        /// Rows.
        rows: u64,
        /// Total columns after concatenation.
        cols_total: u64,
        /// Number of inputs.
        num_inputs: u64,
    },
    /// Slice of a tensor (reads the slice, writes the slice).
    Slice {
        /// Rows of the slice.
        rows: u64,
        /// Columns of the slice.
        cols: u64,
    },
    /// Metadata-only reshape.
    Reshape {
        /// Elements.
        elems: u64,
    },
    /// Elementwise operation.
    Elementwise {
        /// Elements per input.
        elems: u64,
        /// Operation family.
        kind: EwKind,
        /// Number of inputs (1 or 2).
        arity: u32,
    },
    /// DLRM pairwise dot-product interaction between `features` vectors of
    /// `dim` values per sample.
    Interaction {
        /// Batch size.
        batch: u64,
        /// Number of feature vectors per sample.
        features: u64,
        /// Vector dimension.
        dim: u64,
    },
    /// Dynamic row-wise quantization FP16 → INT8 (RE computes min/max, SIMD
    /// scales) — §3.3, §4.4.
    Quantize {
        /// Elements.
        elems: u64,
    },
    /// Dequantization INT8 → FP16/FP32.
    Dequantize {
        /// Elements.
        elems: u64,
    },
    /// In-Batch Broadcast: expand user-side rows to align with user–ad pairs
    /// (§6).
    Broadcast {
        /// Input rows.
        rows_in: u64,
        /// Output rows (≥ input rows).
        rows_out: u64,
        /// Columns.
        cols: u64,
    },
    /// Data-type cast (e.g. host-side FP32 → FP16 offloaded to the device,
    /// §3.4).
    Cast {
        /// Elements.
        elems: u64,
    },
    /// A fully-connected layer executing in dynamic INT8 (§4.4): the
    /// activations are row-wise quantized on the way in (RE min/max + SIMD
    /// scaling), the matmul runs on the DPE's INT8 path, and the outputs
    /// dequantize in the epilogue. Weights are statically quantized.
    QuantizedFc {
        /// Batch (rows of the activation input).
        batch: u64,
        /// Input features.
        in_features: u64,
        /// Output features.
        out_features: u64,
    },
    /// A fused operator: the members execute as one kernel, passing
    /// intermediates through per-PE Local Memory instead of LLS/LLC (§4.2:
    /// "Fusions moved much of a sub-graph's working set into the
    /// distributed Local Memory of the PE grid").
    Fused(Vec<OpKind>),
}

impl OpKind {
    /// Arithmetic work of the operator. Multiply-accumulates count as two
    /// operations, matching how the paper quotes GFLOPS/sample.
    pub fn flops(&self) -> FlopCount {
        let f = match self {
            OpKind::Fc {
                batch,
                in_features,
                out_features,
            } => 2.0 * (*batch as f64) * (*in_features as f64) * (*out_features as f64),
            OpKind::Tbe(p) => {
                let adds = p.lookups() as f64 * p.embedding_dim as f64;
                if p.weighted {
                    2.0 * adds
                } else {
                    adds
                }
            }
            OpKind::LayerNorm { rows, cols } => {
                // mean + variance + normalize ≈ 8 ops/element.
                8.0 * (*rows as f64) * (*cols as f64)
            }
            OpKind::Softmax { rows, cols } => {
                // max, sub, exp, sum, div ≈ 5 passes.
                5.0 * (*rows as f64) * (*cols as f64)
            }
            OpKind::Attention(p) => {
                // QKᵀ + AV: 2 GEMMs of s×d×s each, per head per batch.
                let s = p.seq as f64;
                let d = p.head_dim as f64;
                2.0 * 2.0 * (p.batch * p.heads) as f64 * s * s * d
            }
            OpKind::RaggedAttention(p) => {
                // Same form with the mean jagged length; ragged attention
                // does work proportional to actual lengths, not max_seq.
                let s = p.mean_seq as f64;
                let d = p.head_dim as f64;
                2.0 * 2.0 * (p.batch * p.heads) as f64 * s * s * d
            }
            OpKind::Transpose { .. }
            | OpKind::Concat { .. }
            | OpKind::Slice { .. }
            | OpKind::Reshape { .. } => 0.0,
            OpKind::Elementwise { elems, arity, .. } => (*elems as f64) * (*arity as f64),
            OpKind::Interaction {
                batch,
                features,
                dim,
            } => {
                // Pairwise dots between all feature pairs.
                let pairs = (*features * (*features - 1) / 2) as f64;
                2.0 * (*batch as f64) * pairs * (*dim as f64)
            }
            OpKind::Quantize { elems } | OpKind::Dequantize { elems } => {
                // min/max reduction + scale ≈ 3 ops/element.
                3.0 * (*elems as f64)
            }
            OpKind::Broadcast { .. } => 0.0,
            OpKind::Cast { elems } => *elems as f64,
            OpKind::QuantizedFc {
                batch,
                in_features,
                out_features,
            } => {
                2.0 * (*batch as f64) * (*in_features as f64) * (*out_features as f64)
                    + 3.0 * (*batch as f64) * ((*in_features + *out_features) as f64)
            }
            OpKind::Fused(members) => members.iter().map(|m| m.flops().as_f64()).sum(),
        };
        FlopCount::new(f)
    }

    /// Bytes of constant parameters (weights, embedding tables) the
    /// operator reads.
    pub fn weight_bytes(&self, dtype: DType) -> Bytes {
        match self {
            OpKind::Fc {
                in_features,
                out_features,
                ..
            } => dtype.bytes_for(in_features * out_features),
            // Statically-quantized INT8 weights.
            OpKind::QuantizedFc {
                in_features,
                out_features,
                ..
            } => DType::Int8.bytes_for(in_features * out_features),
            OpKind::Tbe(p) => p.table_bytes(dtype),
            OpKind::Fused(members) => members.iter().map(|m| m.weight_bytes(dtype)).sum(),
            _ => Bytes::ZERO,
        }
    }

    /// Bytes of activations the operator reads per invocation.
    pub fn activation_in_bytes(&self, dtype: DType) -> Bytes {
        match self {
            OpKind::Fc {
                batch, in_features, ..
            } => dtype.bytes_for(batch * in_features),
            OpKind::Tbe(p) => {
                // Indices: one u32 per lookup.
                Bytes::new(4 * p.lookups())
            }
            OpKind::LayerNorm { rows, cols } | OpKind::Softmax { rows, cols } => {
                dtype.bytes_for(rows * cols)
            }
            OpKind::Attention(p) => {
                // Q, K, V.
                dtype.bytes_for(3 * p.batch * p.heads * p.seq * p.head_dim)
            }
            OpKind::RaggedAttention(p) => {
                dtype.bytes_for(3 * p.batch * p.heads * p.mean_seq * p.head_dim)
            }
            OpKind::Transpose { rows, cols } | OpKind::Slice { rows, cols } => {
                dtype.bytes_for(rows * cols)
            }
            OpKind::Concat {
                rows, cols_total, ..
            } => dtype.bytes_for(rows * cols_total),
            OpKind::Reshape { .. } => Bytes::ZERO,
            OpKind::Elementwise { elems, arity, .. } => dtype.bytes_for(*elems * (*arity as u64)),
            OpKind::Interaction {
                batch,
                features,
                dim,
            } => dtype.bytes_for(batch * features * dim),
            OpKind::Quantize { elems } => DType::Fp16.bytes_for(*elems),
            OpKind::Dequantize { elems } => DType::Int8.bytes_for(*elems),
            OpKind::Broadcast { rows_in, cols, .. } => dtype.bytes_for(rows_in * cols),
            OpKind::Cast { elems } => DType::Fp32.bytes_for(*elems),
            OpKind::QuantizedFc {
                batch, in_features, ..
            } => {
                dtype.bytes_for(batch * in_features) // FP16 in, quantized inline
            }
            OpKind::Fused(members) => members
                .first()
                .map(|m| m.activation_in_bytes(dtype))
                .unwrap_or(Bytes::ZERO),
        }
    }

    /// Bytes of activations the operator writes per invocation.
    pub fn activation_out_bytes(&self, dtype: DType) -> Bytes {
        match self {
            OpKind::Fc {
                batch,
                out_features,
                ..
            } => dtype.bytes_for(batch * out_features),
            OpKind::Tbe(p) => {
                if p.pooled {
                    dtype.bytes_for(p.batch * p.num_tables * p.embedding_dim)
                } else {
                    p.gathered_bytes(dtype)
                }
            }
            OpKind::LayerNorm { rows, cols } | OpKind::Softmax { rows, cols } => {
                dtype.bytes_for(rows * cols)
            }
            OpKind::Attention(p) => dtype.bytes_for(p.batch * p.heads * p.seq * p.head_dim),
            OpKind::RaggedAttention(p) => {
                dtype.bytes_for(p.batch * p.heads * p.mean_seq * p.head_dim)
            }
            OpKind::Transpose { rows, cols } | OpKind::Slice { rows, cols } => {
                dtype.bytes_for(rows * cols)
            }
            OpKind::Concat {
                rows, cols_total, ..
            } => dtype.bytes_for(rows * cols_total),
            OpKind::Reshape { .. } => Bytes::ZERO,
            OpKind::Elementwise { elems, .. } => dtype.bytes_for(*elems),
            OpKind::Interaction {
                batch, features, ..
            } => dtype.bytes_for(batch * features * (features - 1) / 2),
            OpKind::Quantize { elems } => DType::Int8.bytes_for(*elems),
            OpKind::Dequantize { elems } => DType::Fp16.bytes_for(*elems),
            OpKind::Broadcast { rows_out, cols, .. } => dtype.bytes_for(rows_out * cols),
            OpKind::Cast { elems } => DType::Fp16.bytes_for(*elems),
            OpKind::QuantizedFc {
                batch,
                out_features,
                ..
            } => {
                dtype.bytes_for(batch * out_features) // dequantized on the way out
            }
            OpKind::Fused(members) => members
                .last()
                .map(|m| m.activation_out_bytes(dtype))
                .unwrap_or(Bytes::ZERO),
        }
    }

    /// Which engine class the operator predominantly occupies.
    pub fn category(&self) -> OpCategory {
        match self {
            OpKind::Fc { .. }
            | OpKind::QuantizedFc { .. }
            | OpKind::Attention(_)
            | OpKind::Interaction { .. } => OpCategory::Gemm,
            OpKind::RaggedAttention(_) => OpCategory::Gemm,
            OpKind::Tbe(_) => OpCategory::Sparse,
            OpKind::LayerNorm { .. }
            | OpKind::Softmax { .. }
            | OpKind::Elementwise { .. }
            | OpKind::Quantize { .. }
            | OpKind::Dequantize { .. }
            | OpKind::Cast { .. } => OpCategory::Simd,
            OpKind::Transpose { .. }
            | OpKind::Concat { .. }
            | OpKind::Slice { .. }
            | OpKind::Reshape { .. }
            | OpKind::Broadcast { .. } => OpCategory::DataMovement,
            OpKind::Fused(members) => {
                if members.iter().any(|m| m.category() == OpCategory::Gemm) {
                    OpCategory::Gemm
                } else if members.iter().any(|m| m.category() == OpCategory::Sparse) {
                    OpCategory::Sparse
                } else {
                    OpCategory::Simd
                }
            }
        }
    }

    /// A short lowercase mnemonic, e.g. `"fc"` or `"tbe"`.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::Fc { .. } => "fc",
            OpKind::Tbe(_) => "tbe",
            OpKind::LayerNorm { .. } => "layernorm",
            OpKind::Softmax { .. } => "softmax",
            OpKind::Attention(_) => "mha",
            OpKind::RaggedAttention(_) => "ragged_attn",
            OpKind::Transpose { .. } => "transpose",
            OpKind::Concat { .. } => "concat",
            OpKind::Slice { .. } => "slice",
            OpKind::Reshape { .. } => "reshape",
            OpKind::Elementwise { .. } => "elementwise",
            OpKind::Interaction { .. } => "interaction",
            OpKind::Quantize { .. } => "quantize",
            OpKind::Dequantize { .. } => "dequantize",
            OpKind::Broadcast { .. } => "broadcast",
            OpKind::Cast { .. } => "cast",
            OpKind::QuantizedFc { .. } => "fc_int8",
            OpKind::Fused(_) => "fused",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Fc {
                batch,
                in_features,
                out_features,
            } => {
                write!(f, "fc {batch}x{in_features}x{out_features}")
            }
            OpKind::Tbe(p) => write!(
                f,
                "tbe {}t x {}r x {}d (pool {}, batch {})",
                p.num_tables, p.rows_per_table, p.embedding_dim, p.pooling_factor, p.batch
            ),
            OpKind::Fused(members) => {
                write!(f, "fused[")?;
                for (i, m) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{}", m.mnemonic())?;
                }
                write!(f, "]")
            }
            other => write!(f, "{}", other.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tbe() -> TbeParams {
        TbeParams {
            num_tables: 10,
            rows_per_table: 1_000_000,
            embedding_dim: 128,
            pooling_factor: 20,
            batch: 256,
            weighted: false,
            pooled: true,
        }
    }

    #[test]
    fn fc_flops_and_bytes() {
        let fc = OpKind::Fc {
            batch: 512,
            in_features: 1024,
            out_features: 2048,
        };
        assert_eq!(fc.flops().as_f64(), 2.0 * 512.0 * 1024.0 * 2048.0);
        assert_eq!(
            fc.weight_bytes(DType::Fp16),
            DType::Fp16.bytes_for(1024 * 2048)
        );
        assert_eq!(
            fc.activation_in_bytes(DType::Fp16),
            DType::Fp16.bytes_for(512 * 1024)
        );
        assert_eq!(
            fc.activation_out_bytes(DType::Fp16),
            DType::Fp16.bytes_for(512 * 2048)
        );
        assert_eq!(fc.category(), OpCategory::Gemm);
    }

    #[test]
    fn paper_example_fc_shape_flops() {
        // §4.2's 512 × 26592 × 2048 shape has a 109 MB FP16 weight tensor.
        let fc = OpKind::Fc {
            batch: 512,
            in_features: 26592,
            out_features: 2048,
        };
        let mb = fc.weight_bytes(DType::Fp16).as_mib();
        assert!((mb - 103.9).abs() < 1.0, "weight {mb} MiB"); // 109 MB decimal ≈ 104 MiB
    }

    #[test]
    fn tbe_volumes() {
        let p = tbe();
        assert_eq!(p.lookups(), 256 * 10 * 20);
        assert_eq!(
            p.table_bytes(DType::Fp16).as_u64(),
            2 * 10 * 1_000_000 * 128
        );
        let op = OpKind::Tbe(p);
        // Pooled output: batch × tables × dim.
        assert_eq!(
            op.activation_out_bytes(DType::Fp16).as_u64(),
            2 * 256 * 10 * 128
        );
        // Indices are 4 bytes per lookup.
        assert_eq!(
            op.activation_in_bytes(DType::Fp16).as_u64(),
            4 * p.lookups()
        );
        assert_eq!(op.category(), OpCategory::Sparse);
    }

    #[test]
    fn weighted_tbe_doubles_flops() {
        let mut p = tbe();
        let unweighted = OpKind::Tbe(p).flops().as_f64();
        p.weighted = true;
        let weighted = OpKind::Tbe(p).flops().as_f64();
        assert_eq!(weighted, 2.0 * unweighted);
    }

    #[test]
    fn sequence_tbe_outputs_full_gather() {
        let mut p = tbe();
        p.pooled = false;
        let op = OpKind::Tbe(p);
        assert_eq!(
            op.activation_out_bytes(DType::Fp16),
            p.gathered_bytes(DType::Fp16)
        );
    }

    #[test]
    fn layout_ops_have_zero_flops() {
        for op in [
            OpKind::Transpose { rows: 10, cols: 10 },
            OpKind::Concat {
                rows: 4,
                cols_total: 8,
                num_inputs: 2,
            },
            OpKind::Reshape { elems: 100 },
            OpKind::Broadcast {
                rows_in: 1,
                rows_out: 8,
                cols: 4,
            },
        ] {
            assert_eq!(op.flops().as_f64(), 0.0, "{op}");
            assert_eq!(op.category(), OpCategory::DataMovement);
        }
    }

    #[test]
    fn attention_flops_scale_quadratically_in_seq() {
        let base = AttentionParams {
            batch: 8,
            heads: 4,
            seq: 128,
            head_dim: 64,
        };
        let double = AttentionParams { seq: 256, ..base };
        let f1 = OpKind::Attention(base).flops().as_f64();
        let f2 = OpKind::Attention(double).flops().as_f64();
        assert_eq!(f2 / f1, 4.0);
    }

    #[test]
    fn ragged_attention_uses_mean_not_max() {
        let p = RaggedAttentionParams {
            batch: 8,
            heads: 4,
            mean_seq: 100,
            max_seq: 1000,
            head_dim: 64,
        };
        let ragged = OpKind::RaggedAttention(p).flops().as_f64();
        let dense = OpKind::Attention(AttentionParams {
            batch: 8,
            heads: 4,
            seq: 1000,
            head_dim: 64,
        })
        .flops()
        .as_f64();
        assert!(
            ragged < dense / 50.0,
            "ragged attention must skip padding work"
        );
    }

    #[test]
    fn interaction_pairs() {
        let op = OpKind::Interaction {
            batch: 2,
            features: 4,
            dim: 8,
        };
        // 6 pairs × 8 dims × 2 ops × 2 batch.
        assert_eq!(op.flops().as_f64(), 2.0 * 6.0 * 8.0 * 2.0);
        assert_eq!(op.activation_out_bytes(DType::Fp16).as_u64(), 2 * 2 * 6);
    }

    #[test]
    fn quantize_moves_between_dtypes() {
        let q = OpKind::Quantize { elems: 100 };
        assert_eq!(q.activation_in_bytes(DType::Fp16).as_u64(), 200);
        assert_eq!(q.activation_out_bytes(DType::Fp16).as_u64(), 100);
        let d = OpKind::Dequantize { elems: 100 };
        assert_eq!(d.activation_in_bytes(DType::Fp16).as_u64(), 100);
        assert_eq!(d.activation_out_bytes(DType::Fp16).as_u64(), 200);
    }

    #[test]
    fn broadcast_expands_rows() {
        let b = OpKind::Broadcast {
            rows_in: 2,
            rows_out: 64,
            cols: 16,
        };
        assert_eq!(b.activation_in_bytes(DType::Fp16).as_u64(), 2 * 2 * 16);
        assert_eq!(b.activation_out_bytes(DType::Fp16).as_u64(), 2 * 64 * 16);
    }

    #[test]
    fn fused_aggregates_members() {
        let fc = OpKind::Fc {
            batch: 8,
            in_features: 16,
            out_features: 32,
        };
        let ew = OpKind::Elementwise {
            elems: 8 * 32,
            kind: EwKind::Nonlinear,
            arity: 1,
        };
        let fused = OpKind::Fused(vec![fc.clone(), ew.clone()]);
        assert_eq!(
            fused.flops().as_f64(),
            fc.flops().as_f64() + ew.flops().as_f64()
        );
        assert_eq!(
            fused.weight_bytes(DType::Fp16),
            fc.weight_bytes(DType::Fp16)
        );
        // Boundary traffic only: input of the first, output of the last.
        assert_eq!(
            fused.activation_in_bytes(DType::Fp16),
            fc.activation_in_bytes(DType::Fp16)
        );
        assert_eq!(
            fused.activation_out_bytes(DType::Fp16),
            ew.activation_out_bytes(DType::Fp16)
        );
        assert_eq!(fused.category(), OpCategory::Gemm);
        assert_eq!(fused.to_string(), "fused[fc + elementwise]");
    }

    #[test]
    fn display_and_mnemonics() {
        let fc = OpKind::Fc {
            batch: 1,
            in_features: 2,
            out_features: 3,
        };
        assert_eq!(fc.to_string(), "fc 1x2x3");
        assert_eq!(fc.mnemonic(), "fc");
        assert_eq!(OpKind::Reshape { elems: 4 }.to_string(), "reshape");
    }
}
