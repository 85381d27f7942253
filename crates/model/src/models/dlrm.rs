//! The canonical Deep Learning Recommendation Model (§2).
//!
//! Architecture per Naumov et al.: a bottom MLP embeds dense features into
//! the embedding dimension, a Table-Batched-Embedding gathers and pools
//! sparse features, a pairwise dot-product interaction combines them, and a
//! top MLP produces the click-through-rate prediction.

use mtia_core::DType;

use crate::graph::{Graph, TensorKind};
use crate::ops::{OpKind, TbeParams};
use crate::tensor::Shape;

use super::{append_mlp, append_sigmoid_head};

/// Configuration of a DLRM instance.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmConfig {
    /// Model name.
    pub name: String,
    /// Batch size.
    pub batch: u64,
    /// Dense (continuous) input features.
    pub dense_features: u64,
    /// Bottom-MLP layer widths; the last must equal `embedding_dim`.
    pub bottom_mlp: Vec<u64>,
    /// Number of embedding tables.
    pub num_tables: u64,
    /// Rows per embedding table.
    pub rows_per_table: u64,
    /// Embedding dimension.
    pub embedding_dim: u64,
    /// Average lookups per sample per table.
    pub pooling_factor: u64,
    /// Top-MLP layer widths (a final width-1 head is appended).
    pub top_mlp: Vec<u64>,
    /// Element type for weights and activations.
    pub dtype: DType,
}

impl DlrmConfig {
    /// A small reference configuration for tests and examples.
    pub fn small(batch: u64) -> Self {
        DlrmConfig {
            name: "dlrm-small".to_string(),
            batch,
            dense_features: 256,
            bottom_mlp: vec![256, 128, 64],
            num_tables: 16,
            rows_per_table: 1_000_000,
            embedding_dim: 64,
            pooling_factor: 16,
            top_mlp: vec![512, 256],
            dtype: DType::Fp16,
        }
    }

    /// Builds the compute graph.
    ///
    /// # Panics
    ///
    /// Panics if the bottom MLP does not end in `embedding_dim`.
    pub fn build(&self) -> Graph {
        assert_eq!(
            self.bottom_mlp.last().copied(),
            Some(self.embedding_dim),
            "bottom MLP must project dense features to the embedding dimension"
        );
        let b = self.batch;
        let dt = self.dtype;
        let mut g = Graph::new(self.name.clone(), b);

        // Dense side.
        let dense_in = g.add_tensor(
            "dense_input",
            Shape::matrix(b, self.dense_features),
            dt,
            TensorKind::Input,
        );
        let bottom_out = append_mlp(
            &mut g,
            "bottom",
            dense_in,
            b,
            self.dense_features,
            &self.bottom_mlp,
            dt,
        );

        // Sparse side.
        let tbe = TbeParams {
            num_tables: self.num_tables,
            rows_per_table: self.rows_per_table,
            embedding_dim: self.embedding_dim,
            pooling_factor: self.pooling_factor,
            batch: b,
            weighted: false,
            pooled: true,
        };
        let indices = g.add_tensor(
            "sparse_indices",
            Shape::matrix(b, self.num_tables * self.pooling_factor),
            DType::Fp32, // 4-byte indices
            TensorKind::Input,
        );
        let tables = g.add_tensor(
            "embedding_tables",
            Shape::matrix(self.num_tables * self.rows_per_table, self.embedding_dim),
            dt,
            TensorKind::EmbeddingTable,
        );
        let pooled = g.add_tensor(
            "pooled_embeddings",
            Shape::matrix(b, self.num_tables * self.embedding_dim),
            dt,
            TensorKind::Activation,
        );
        g.add_node("tbe", OpKind::Tbe(tbe), [indices, tables], [pooled]);

        // Interaction between bottom output and each table's pooled vector.
        let features = self.num_tables + 1;
        let pairs = features * (features - 1) / 2;
        let interacted = g.add_tensor(
            "interaction_out",
            Shape::matrix(b, pairs),
            dt,
            TensorKind::Activation,
        );
        g.add_node(
            "interaction",
            OpKind::Interaction {
                batch: b,
                features,
                dim: self.embedding_dim,
            },
            [bottom_out, pooled],
            [interacted],
        );

        // Concat interaction output with the dense bottom output.
        let concat_cols = pairs + self.embedding_dim;
        let concat = g.add_tensor(
            "concat_out",
            Shape::matrix(b, concat_cols),
            dt,
            TensorKind::Activation,
        );
        g.add_node(
            "concat",
            OpKind::Concat {
                rows: b,
                cols_total: concat_cols,
                num_inputs: 2,
            },
            [interacted, bottom_out],
            [concat],
        );

        // Top MLP + prediction head.
        let top_out = append_mlp(&mut g, "top", concat, b, concat_cols, &self.top_mlp, dt);
        let last_width = self.top_mlp.last().copied().unwrap_or(concat_cols);
        append_sigmoid_head(&mut g, top_out, b, last_width, dt);

        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// Total embedding-table bytes.
    pub fn table_bytes(&self) -> mtia_core::units::Bytes {
        self.dtype
            .bytes_for(self.num_tables * self.rows_per_table * self.embedding_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_dlrm_builds_and_validates() {
        let g = DlrmConfig::small(128).build();
        assert_eq!(g.validate(), Ok(()));
        assert_eq!(g.batch(), 128);
        let stats = g.stats();
        assert!(stats.sparse_nodes == 1);
        assert!(stats.gemm_nodes >= 5); // bottom 3 + top 2 + head + interaction
    }

    #[test]
    fn flops_scale_linearly_with_batch() {
        let f1 = DlrmConfig::small(64).build().stats().flops.as_f64();
        let f2 = DlrmConfig::small(128).build().stats().flops.as_f64();
        assert!((f2 / f1 - 2.0).abs() < 1e-9);
        // Per-sample complexity is batch-invariant.
        let p1 = DlrmConfig::small(64).build().flops_per_sample().as_f64();
        let p2 = DlrmConfig::small(128).build().flops_per_sample().as_f64();
        assert!((p1 - p2).abs() / p1 < 1e-9);
    }

    #[test]
    fn table_bytes_dominate_model_size() {
        // §2: "90% of model size is embeddings".
        let cfg = DlrmConfig::small(256);
        let g = cfg.build();
        let s = g.stats();
        let frac = s.table_bytes.as_f64() / (s.table_bytes.as_f64() + s.weight_bytes.as_f64());
        assert!(frac > 0.9, "embedding fraction {frac}");
        assert_eq!(s.table_bytes, cfg.table_bytes());
    }

    #[test]
    #[should_panic(expected = "bottom MLP")]
    fn mismatched_bottom_mlp_panics() {
        let mut cfg = DlrmConfig::small(8);
        cfg.bottom_mlp = vec![128, 32]; // != embedding_dim 64
        let _ = cfg.build();
    }
}
