//! Selective FC quantization (§4.4).
//!
//! "Typically, only a few large layers show performance gains due to
//! quantization ... In practice, quantizing only the largest FC layers to
//! amortize the overhead is most effective." This pass rewrites FC nodes
//! whose weight tensors exceed a size threshold into dynamic-INT8
//! [`OpKind::QuantizedFc`] nodes and leaves everything else in FP16 (the
//! input/output-adjacent layers the paper keeps unquantized for quality).

use mtia_core::units::Bytes;
use mtia_core::DType;
use mtia_model::graph::Graph;
use mtia_model::ops::OpKind;

use crate::pass::Pass;

/// The quantization pass with its size threshold.
#[derive(Debug, Clone, Copy)]
pub struct SelectiveQuantization {
    /// Minimum FP16 weight-tensor size for a layer to be quantized.
    pub min_weight_bytes: Bytes,
}

impl Default for SelectiveQuantization {
    fn default() -> Self {
        // §4.4: only "the largest FC layers" amortize the overhead.
        SelectiveQuantization {
            min_weight_bytes: Bytes::from_mib(8),
        }
    }
}

impl Pass for SelectiveQuantization {
    fn name(&self) -> &'static str {
        "selective-quantization"
    }

    fn run(&self, graph: &mut Graph) -> usize {
        let mut rewrites = 0;
        for node in graph.nodes_mut() {
            if let OpKind::Fc {
                batch,
                in_features,
                out_features,
            } = node.op
            {
                let weight = DType::Fp16.bytes_for(in_features * out_features);
                if weight >= self.min_weight_bytes {
                    node.op = OpKind::QuantizedFc {
                        batch,
                        in_features,
                        out_features,
                    };
                    node.name = format!("{}_int8", node.name);
                    rewrites += 1;
                }
            }
        }
        rewrites
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::run_once;
    use mtia_model::models::zoo;

    #[test]
    fn only_large_layers_are_quantized() {
        let models = zoo::fig6_models();
        let g = models.iter().find(|m| m.name == "HC1").unwrap().graph();
        let (out, rewrites) = run_once(&SelectiveQuantization::default(), &g);
        assert!(rewrites > 0, "HC1 has multi-MiB FC layers");
        let total_fcs = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::Fc { .. }))
            .count();
        assert!(
            rewrites < total_fcs,
            "small layers must stay FP16: {}/{total_fcs}",
            rewrites
        );
        assert_eq!(out.validate(), Ok(()));
    }

    #[test]
    fn threshold_zero_quantizes_everything() {
        let models = zoo::fig6_models();
        let g = models.iter().find(|m| m.name == "LC2").unwrap().graph();
        let all = SelectiveQuantization {
            min_weight_bytes: Bytes::ZERO,
        };
        let (_, rewrites) = run_once(&all, &g);
        let fcs = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::Fc { .. }))
            .count();
        assert_eq!(rewrites, fcs);
    }

    #[test]
    fn quantization_preserves_gemm_flops_plus_overhead() {
        let models = zoo::fig6_models();
        let g = models.iter().find(|m| m.name == "HC1").unwrap().graph();
        let q = run_once(&SelectiveQuantization::default(), &g).0;
        // FLOPs grow only by the quant/dequant elementwise work.
        let before = g.stats().flops.as_f64();
        let after = q.stats().flops.as_f64();
        assert!(after >= before);
        assert!(after < before * 1.05, "overhead flops {before} → {after}");
    }
}
