//! HSTU: generative sequential recommendation (§2, §4.3).
//!
//! HSTU processes each user's history as a jagged sequence through stacked
//! ragged-attention layers. Complexity is 10–100× that of the most
//! demanding classic ranking models (Table 1: 10 GFLOPS/request retrieval,
//! 80 GFLOPS/request ranking), with multi-terabyte embedding tables.

use mtia_core::DType;

use crate::graph::{Graph, TensorKind};
use crate::ops::{OpKind, RaggedAttentionParams, TbeParams};
use crate::tensor::Shape;

use super::{append_add, append_layernorm, append_mlp};

/// Configuration of an HSTU instance.
#[derive(Debug, Clone, PartialEq)]
pub struct HstuConfig {
    /// Model name.
    pub name: String,
    /// Batch size (users per request).
    pub batch: u64,
    /// Number of item-embedding tables.
    pub num_tables: u64,
    /// Rows per table.
    pub rows_per_table: u64,
    /// Embedding (model) dimension.
    pub embedding_dim: u64,
    /// Mean history length (jagged).
    pub mean_seq: u64,
    /// Maximum history length.
    pub max_seq: u64,
    /// Attention heads.
    pub heads: u64,
    /// Stacked HSTU layers.
    pub layers: u64,
    /// Element type.
    pub dtype: DType,
}

impl HstuConfig {
    /// A small reference configuration for tests.
    pub fn small(batch: u64) -> Self {
        HstuConfig {
            name: "hstu-small".to_string(),
            batch,
            num_tables: 4,
            rows_per_table: 10_000_000,
            embedding_dim: 256,
            mean_seq: 128,
            max_seq: 1024,
            heads: 4,
            layers: 3,
            dtype: DType::Fp16,
        }
    }

    /// Builds the compute graph. Jagged sequences are represented with
    /// their mean length, matching how ragged attention does work
    /// proportional to actual (not padded) lengths.
    pub fn build(&self) -> Graph {
        let b = self.batch;
        let dt = self.dtype;
        let d = self.embedding_dim;
        let rows = b * self.mean_seq; // effective jagged positions
        let mut g = Graph::new(self.name.clone(), b);

        // Sequence embedding lookup: unpooled TBE producing jagged values.
        let tbe = TbeParams {
            num_tables: self.num_tables,
            rows_per_table: self.rows_per_table,
            embedding_dim: d,
            pooling_factor: self.mean_seq,
            batch: b,
            weighted: false,
            pooled: false,
        };
        let indices = g.add_tensor(
            "history_ids",
            Shape::matrix(b, self.mean_seq),
            DType::Fp32,
            TensorKind::Input,
        );
        let tables = g.add_tensor(
            "item_embeddings",
            Shape::matrix(self.num_tables * self.rows_per_table, d),
            dt,
            TensorKind::EmbeddingTable,
        );
        let seq_emb = g.add_tensor(
            "sequence_embeddings",
            Shape::matrix(rows * self.num_tables, d),
            dt,
            TensorKind::Activation,
        );
        g.add_node("seq_tbe", OpKind::Tbe(tbe), [indices, tables], [seq_emb]);

        // Reduce the per-table gathers into one sequence stream.
        let mut current = append_mlp(
            &mut g,
            "input_proj",
            seq_emb,
            rows * self.num_tables,
            d,
            &[d],
            dt,
        );

        let head_dim = d / self.heads;
        for layer in 0..self.layers {
            let p = format!("hstu{layer}");
            // Pointwise projections (U, V, Q, K in HSTU's formulation).
            let uvqk = append_mlp(&mut g, &format!("{p}_uvqk"), current, rows, d, &[4 * d], dt);
            // Ragged attention with positional/timestamp bias.
            let attn_out = g.add_tensor(
                format!("{p}_attn_out"),
                Shape::matrix(rows, d),
                dt,
                TensorKind::Activation,
            );
            g.add_node(
                format!("{p}_ragged_attn"),
                OpKind::RaggedAttention(RaggedAttentionParams {
                    batch: b,
                    heads: self.heads,
                    mean_seq: self.mean_seq,
                    max_seq: self.max_seq,
                    head_dim,
                }),
                [uvqk],
                [attn_out],
            );
            // Output projection, gated elementwise (Hadamard with U), skip,
            // and LayerNorm.
            let proj = append_mlp(
                &mut g,
                &format!("{p}_out_proj"),
                attn_out,
                rows,
                d,
                &[d],
                dt,
            );
            let gated = append_add(&mut g, &format!("{p}_gate"), proj, uvqk, rows, d, dt);
            let skip = append_add(&mut g, &format!("{p}_skip"), gated, current, rows, d, dt);
            current = append_layernorm(&mut g, &format!("{p}_ln"), skip, rows, d, dt);
        }

        // Prediction: pool the sequence and score.
        let pooled = g.add_tensor(
            "pooled_state",
            Shape::matrix(b, d),
            dt,
            TensorKind::Activation,
        );
        g.add_node(
            "seq_pool",
            OpKind::Slice { rows: b, cols: d },
            [current],
            [pooled],
        );
        super::append_sigmoid_head(&mut g, pooled, b, d, dt);

        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// Total embedding-table bytes (HSTU tables reach 1–2 TB — Table 1).
    pub fn table_bytes(&self) -> mtia_core::units::Bytes {
        self.dtype
            .bytes_for(self.num_tables * self.rows_per_table * self.embedding_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_hstu_builds_and_validates() {
        let g = HstuConfig::small(8).build();
        assert_eq!(g.validate(), Ok(()));
        let ragged = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::RaggedAttention(_)))
            .count();
        assert_eq!(ragged, 3);
    }

    #[test]
    fn complexity_scales_with_sequence_length() {
        let base = HstuConfig::small(8);
        let mut long = base.clone();
        long.mean_seq = 256;
        let f_base = base.build().stats().flops.as_f64();
        let f_long = long.build().stats().flops.as_f64();
        // Attention is quadratic, projections linear → more than 2×.
        assert!(f_long > 2.0 * f_base, "{f_long} vs {f_base}");
    }

    #[test]
    fn hstu_is_much_more_complex_than_dlrm() {
        // §2: "10x–100x complexity increase per request compared to the
        // most demanding recommendation models".
        let hstu = HstuConfig::small(1);
        let dlrm = crate::models::dlrm::DlrmConfig::small(1).build();
        let ratio = hstu.build().stats().flops.as_f64() / dlrm.stats().flops.as_f64();
        assert!(ratio > 10.0, "complexity ratio {ratio}");
    }

    #[test]
    fn unpooled_tbe_present() {
        let g = HstuConfig::small(4).build();
        let tbe = g
            .nodes()
            .iter()
            .find_map(|n| match n.op {
                OpKind::Tbe(p) => Some(p),
                _ => None,
            })
            .expect("sequence TBE");
        assert!(!tbe.pooled);
    }
}
