//! Llama-style decoder-only LLMs, used only for the §3.6/§8 suitability
//! study: can MTIA 2i serve Llama-class models under production latency
//! SLOs? (The paper's answer: prefill yes, decode no — LPDDR bandwidth.)

use mtia_core::units::Bytes;
use mtia_core::DType;

use crate::graph::{Graph, TensorKind};
use crate::ops::{AttentionParams, OpKind};
use crate::tensor::Shape;

use super::append_mlp;

/// Configuration of a decoder-only transformer.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmConfig {
    /// Model name.
    pub name: String,
    /// Transformer layers.
    pub layers: u64,
    /// Model (hidden) dimension.
    pub d_model: u64,
    /// Query heads.
    pub heads: u64,
    /// Key/value heads (grouped-query attention when < `heads`).
    pub kv_heads: u64,
    /// FFN hidden width (SwiGLU: three projections of this width).
    pub ffn_hidden: u64,
    /// Vocabulary size.
    pub vocab: u64,
    /// Element type for weights.
    pub dtype: DType,
}

impl LlmConfig {
    /// Llama 2 7B.
    pub fn llama2_7b() -> Self {
        LlmConfig {
            name: "llama2-7b".to_string(),
            layers: 32,
            d_model: 4096,
            heads: 32,
            kv_heads: 32,
            ffn_hidden: 11008,
            vocab: 32000,
            dtype: DType::Fp16,
        }
    }

    /// Llama 3 8B (grouped-query attention, larger vocabulary).
    pub fn llama3_8b() -> Self {
        LlmConfig {
            name: "llama3-8b".to_string(),
            layers: 32,
            d_model: 4096,
            heads: 32,
            kv_heads: 8,
            ffn_hidden: 14336,
            vocab: 128256,
            dtype: DType::Fp16,
        }
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> u64 {
        self.d_model / self.heads
    }

    /// Width of the KV projections (smaller under GQA).
    fn kv_width(&self) -> u64 {
        self.kv_heads * self.head_dim()
    }

    /// Total parameter count.
    pub fn params(&self) -> u64 {
        let d = self.d_model;
        let attn = d * d  // Q
            + 2 * d * self.kv_width() // K, V
            + d * d; // output
        let ffn = 3 * d * self.ffn_hidden; // gate, up, down
        self.layers * (attn + ffn) + 2 * self.vocab * d // embed + head
    }

    /// Total weight bytes at the configured dtype.
    pub fn weight_bytes(&self) -> Bytes {
        self.dtype.bytes_for(self.params())
    }

    /// Builds the prefill graph: all `prompt` tokens processed at once
    /// (compute-bound; this is the phase MTIA 2i can serve).
    pub fn prefill_graph(&self, prompt: u64) -> Graph {
        self.build(prompt, prompt, "prefill")
    }

    /// Builds one decode step with `context` tokens of KV cache
    /// (bandwidth-bound: every weight is read to produce one token).
    pub fn decode_step_graph(&self, context: u64) -> Graph {
        self.build(1, context, "decode")
    }

    fn build(&self, seq: u64, attend_over: u64, phase: &str) -> Graph {
        let d = self.d_model;
        let dt = self.dtype;
        let mut g = Graph::new(format!("{}-{phase}", self.name), 1);

        let mut current = g.add_tensor(
            "token_embeddings",
            Shape::matrix(seq, d),
            dt,
            TensorKind::Input,
        );
        // Mark it produced by an embedding gather (cheap; vocab table).
        let embed_out = g.add_tensor(
            "embedded",
            Shape::matrix(seq, d),
            dt,
            TensorKind::Activation,
        );
        g.add_node(
            "embed",
            OpKind::Cast { elems: seq * d },
            [current],
            [embed_out],
        );
        current = embed_out;

        for layer in 0..self.layers {
            let p = format!("l{layer}");
            // QKV projections.
            let q = append_mlp(&mut g, &format!("{p}_q"), current, seq, d, &[d], dt);
            let k = append_mlp(
                &mut g,
                &format!("{p}_k"),
                current,
                seq,
                d,
                &[self.kv_width()],
                dt,
            );
            let v = append_mlp(
                &mut g,
                &format!("{p}_v"),
                current,
                seq,
                d,
                &[self.kv_width()],
                dt,
            );
            // Attention over the full context (prefill: seq × seq; decode:
            // 1 × context via the KV cache).
            let attn_out = g.add_tensor(
                format!("{p}_attn_out"),
                Shape::matrix(seq, d),
                dt,
                TensorKind::Activation,
            );
            // Model the attention cost as new-token rows attending over
            // `attend_over` keys.
            let eff_seq = ((seq as f64 * attend_over as f64).sqrt()).ceil() as u64;
            g.add_node(
                format!("{p}_attn"),
                OpKind::Attention(AttentionParams {
                    batch: 1,
                    heads: self.heads,
                    seq: eff_seq.max(1),
                    head_dim: self.head_dim(),
                }),
                [q, k, v],
                [attn_out],
            );
            let o = append_mlp(&mut g, &format!("{p}_o"), attn_out, seq, d, &[d], dt);
            // SwiGLU FFN: gate & up (d → ffn), down (ffn → d).
            let gate = append_mlp(
                &mut g,
                &format!("{p}_gate"),
                o,
                seq,
                d,
                &[self.ffn_hidden],
                dt,
            );
            let up = append_mlp(
                &mut g,
                &format!("{p}_up"),
                o,
                seq,
                d,
                &[self.ffn_hidden],
                dt,
            );
            let fused = super::append_add(
                &mut g,
                &format!("{p}_swiglu"),
                gate,
                up,
                seq,
                self.ffn_hidden,
                dt,
            );
            current = append_mlp(
                &mut g,
                &format!("{p}_down"),
                fused,
                seq,
                self.ffn_hidden,
                &[d],
                dt,
            );
        }

        // LM head over the final position.
        let head_w = g.add_tensor(
            "lm_head_w",
            Shape::matrix(d, self.vocab),
            dt,
            TensorKind::Weight,
        );
        let logits = g.add_tensor(
            "logits",
            Shape::matrix(1, self.vocab),
            dt,
            TensorKind::Output,
        );
        g.add_node(
            "lm_head",
            OpKind::Fc {
                batch: 1,
                in_features: d,
                out_features: self.vocab,
            },
            [current, head_w],
            [logits],
        );

        debug_assert_eq!(g.validate(), Ok(()));
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama2_7b_parameter_count() {
        let cfg = LlmConfig::llama2_7b();
        let b = cfg.params() as f64 / 1e9;
        assert!((b - 7.0).abs() < 0.5, "llama2-7b has {b}B params");
    }

    #[test]
    fn llama3_8b_parameter_count() {
        let cfg = LlmConfig::llama3_8b();
        let b = cfg.params() as f64 / 1e9;
        assert!((b - 8.0).abs() < 0.5, "llama3-8b has {b}B params");
    }

    #[test]
    fn weight_bytes_at_fp16() {
        let cfg = LlmConfig::llama2_7b();
        let gb = cfg.weight_bytes().as_gib();
        assert!(gb > 12.0 && gb < 14.0, "llama2-7b fp16 weights {gb} GiB");
    }

    #[test]
    fn gqa_shrinks_kv_cache() {
        let l2 = LlmConfig::llama2_7b();
        let l3 = LlmConfig::llama3_8b();
        // The KV cache holds `2 · layers · kv_width` values per token.
        assert_eq!(
            l2.layers * l2.kv_width(),
            4 * l3.layers * l3.kv_width(),
            "GQA 8/32 heads → 4× smaller cache"
        );
    }

    #[test]
    fn prefill_flops_roughly_2_params_tokens() {
        let cfg = LlmConfig::llama2_7b();
        let prompt = 512;
        let g = cfg.prefill_graph(prompt);
        let flops = g.stats().flops.as_f64();
        let expected = 2.0 * cfg.params() as f64 * prompt as f64;
        let ratio = flops / expected;
        assert!(ratio > 0.8 && ratio < 1.3, "prefill flops ratio {ratio}");
    }

    #[test]
    fn decode_reads_all_weights() {
        let cfg = LlmConfig::llama2_7b();
        let g = cfg.decode_step_graph(1024);
        let s = g.stats();
        // The decode graph carries the full weight set.
        assert!((s.weight_bytes.as_f64() / cfg.weight_bytes().as_f64() - 1.0).abs() < 0.05);
        // ...but tiny compute: ~2 flops per weight.
        let intensity = s.flops.as_f64() / s.weight_bytes.as_f64();
        assert!(intensity < 3.0, "decode intensity {intensity} flops/byte");
    }

    #[test]
    fn graphs_validate() {
        let cfg = LlmConfig::llama3_8b();
        assert_eq!(cfg.prefill_graph(128).validate(), Ok(()));
        assert_eq!(cfg.decode_step_graph(128).validate(), Ok(()));
    }
}
