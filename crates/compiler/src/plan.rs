//! The compilation pipeline: passes → scheduling → kernel selection → plan.

use mtia_model::graph::Graph;
use mtia_model::ops::OpKind;
use mtia_sim::chip::{ChipSim, Plan};
use mtia_sim::kernels::FcVariant;

use crate::pass::PassManager;
use crate::passes::broadcast::DelayedBroadcast;
use crate::passes::fusion::{LayerNormBatching, SiblingTransposeFc, VerticalFusion};
use crate::passes::mha::MhaLayoutRewrite;
use crate::scheduling::min_liveness_order;

/// Which optimizations to apply — the levers the §6 case study pulls one by
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompilerOptions {
    /// Vertical producer→consumer fusion.
    pub vertical_fusion: bool,
    /// Sibling-transpose-FC fusion.
    pub sibling_transpose_fc: bool,
    /// Horizontal LayerNorm batching.
    pub layernorm_batching: bool,
    /// Slice/Reshape/Concat → Transpose rewrite.
    pub mha_rewrite: bool,
    /// Delayed in-batch broadcast.
    pub delayed_broadcast: bool,
    /// Liveness-minimizing operator scheduling.
    pub memory_aware_scheduling: bool,
    /// Shape-matched tuned kernel variants (vs out-of-the-box defaults).
    pub tuned_kernels: bool,
    /// Dynamic-INT8 quantization of the largest FC layers (§4.4). Off by
    /// default: "FP16 remains the preferred choice for most of our
    /// recommendation models", reserved for high-usage deployments.
    pub quantize_large_fcs: bool,
}

impl CompilerOptions {
    /// Everything on — the production configuration.
    pub fn all() -> Self {
        CompilerOptions {
            vertical_fusion: true,
            sibling_transpose_fc: true,
            layernorm_batching: true,
            mha_rewrite: true,
            delayed_broadcast: true,
            memory_aware_scheduling: true,
            tuned_kernels: true,
            quantize_large_fcs: false,
        }
    }

    /// Everything off — the out-of-the-box port.
    pub fn none() -> Self {
        CompilerOptions {
            vertical_fusion: false,
            sibling_transpose_fc: false,
            layernorm_batching: false,
            mha_rewrite: false,
            delayed_broadcast: false,
            memory_aware_scheduling: false,
            tuned_kernels: false,
            quantize_large_fcs: false,
        }
    }
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions::all()
    }
}

/// A compiled model: the rewritten graph, its execution plan, and the pass
/// log.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The optimized graph.
    pub graph: Graph,
    /// The execution plan for `graph`.
    pub plan: Plan,
    /// `(pass name, rewrites)` per pass that ran.
    pub pass_log: Vec<(String, usize)>,
}

impl Compiled {
    /// Executes the compiled model on `sim` and returns its report.
    pub fn run(&self, sim: &ChipSim) -> mtia_sim::ExecutionReport {
        sim.run(&self.graph, &self.plan)
    }

    /// [`run`](Self::run) with observability: forwards to
    /// [`ChipSim::run_with_telemetry`], which records a `chip.run` span
    /// tree and occupancy/byte counters when `tel` is enabled. The
    /// report is identical to the untraced one.
    pub fn run_traced(
        &self,
        sim: &ChipSim,
        tel: &mut mtia_core::telemetry::Telemetry,
    ) -> mtia_sim::ExecutionReport {
        sim.run_with_telemetry(&self.graph, &self.plan, tel)
    }
}

/// The graph passes `options` turns on, in pipeline order.
pub(crate) fn pass_manager(options: CompilerOptions) -> PassManager {
    let mut pm = PassManager::new();
    if options.mha_rewrite {
        pm.add(MhaLayoutRewrite);
    }
    if options.delayed_broadcast {
        pm.add(DelayedBroadcast);
    }
    // Quantization must see bare FC nodes, before fusion wraps them.
    if options.quantize_large_fcs {
        pm.add(crate::passes::quantize::SelectiveQuantization::default());
    }
    if options.sibling_transpose_fc {
        pm.add(SiblingTransposeFc);
    }
    if options.vertical_fusion {
        pm.add(VerticalFusion);
    }
    if options.layernorm_batching {
        pm.add(LayerNormBatching);
    }
    pm
}

/// Compiles `graph` with `options`.
pub fn compile(graph: &Graph, options: CompilerOptions) -> Compiled {
    let (optimized, pass_log) = pass_manager(options).run(graph);

    let order = if options.memory_aware_scheduling {
        min_liveness_order(&optimized)
    } else {
        (0..optimized.nodes().len()).collect()
    };

    let mut plan = Plan::default_for(&optimized);
    plan.order = order;
    if options.tuned_kernels {
        for (i, node) in optimized.nodes().iter().enumerate() {
            let fc = match &node.op {
                OpKind::Fc {
                    batch,
                    in_features,
                    out_features,
                }
                | OpKind::QuantizedFc {
                    batch,
                    in_features,
                    out_features,
                } => Some((*batch, *in_features, *out_features)),
                OpKind::Fused(members) => members.iter().find_map(|m| match m {
                    OpKind::Fc {
                        batch,
                        in_features,
                        out_features,
                    }
                    | OpKind::QuantizedFc {
                        batch,
                        in_features,
                        out_features,
                    } => Some((*batch, *in_features, *out_features)),
                    _ => None,
                }),
                _ => None,
            };
            if let Some((m, k, n)) = fc {
                plan.fc_variants
                    .insert(i, FcVariant::optimized_for(m, k, n));
            }
        }
    }

    Compiled {
        graph: optimized,
        plan,
        pass_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtia_core::spec::chips;
    use mtia_model::models::dhen::DhenConfig;
    use mtia_model::models::dlrm::DlrmConfig;
    use mtia_model::models::zoo;

    #[test]
    fn compiled_graph_validates_and_preserves_flops() {
        let g = DhenConfig::small(64).build();
        let compiled = compile(&g, CompilerOptions::all());
        assert_eq!(compiled.graph.validate(), Ok(()));
        let before = g.stats().flops.as_f64();
        let after = compiled.graph.stats().flops.as_f64();
        // Delayed broadcast may *reduce* FLOPS; nothing may increase them.
        assert!(after <= before * 1.0001, "flops grew: {before} → {after}");
    }

    #[test]
    fn full_compilation_beats_no_optimization() {
        let sim = ChipSim::new(chips::mtia2i());
        let m = zoo::fig6_models().remove(7);
        let g = m.graph();
        let baseline = compile(&g, CompilerOptions::none()).run(&sim);
        let optimized = compile(&g, CompilerOptions::all()).run(&sim);
        assert!(
            optimized.total_time() < baseline.total_time(),
            "{}: {} !< {}",
            m.name,
            optimized.total_time(),
            baseline.total_time()
        );
    }

    #[test]
    fn fusion_reduces_node_count_and_launches() {
        let sim = ChipSim::new(chips::mtia2i());
        let g = DlrmConfig::small(512).build();
        let unfused = compile(&g, CompilerOptions::none()).run(&sim);
        let fused = compile(&g, CompilerOptions::all()).run(&sim);
        assert!(fused.nodes.len() < unfused.nodes.len());
        assert!(fused.launch_overhead() < unfused.launch_overhead());
    }

    #[test]
    fn pass_log_records_rewrites() {
        let g = DlrmConfig::small(128).build();
        let compiled = compile(&g, CompilerOptions::all());
        let total: usize = compiled.pass_log.iter().map(|(_, n)| n).sum();
        assert!(total > 0, "no rewrites logged: {:?}", compiled.pass_log);
        assert!(compiled
            .pass_log
            .iter()
            .any(|(name, _)| name == "vertical-fusion"));
    }

    #[test]
    fn quantization_option_rewrites_large_fcs() {
        let g = mtia_model::models::zoo::fig6_models()
            .into_iter()
            .find(|m| m.name == "HC1")
            .unwrap()
            .graph();
        let mut opts = CompilerOptions::all();
        opts.quantize_large_fcs = true;
        let compiled = compile(&g, opts);
        fn has_quantized(op: &OpKind) -> bool {
            match op {
                OpKind::QuantizedFc { .. } => true,
                OpKind::Fused(members) => members.iter().any(has_quantized),
                _ => false,
            }
        }
        let quantized = compiled
            .graph
            .nodes()
            .iter()
            .filter(|n| has_quantized(&n.op))
            .count();
        assert!(quantized > 0);
        assert!(compiled
            .pass_log
            .iter()
            .any(|(name, n)| name == "selective-quantization" && *n > 0));
    }

    #[test]
    fn tuned_kernels_apply_to_fused_fcs() {
        let g = DlrmConfig::small(128).build();
        let compiled = compile(&g, CompilerOptions::all());
        assert!(!compiled.plan.fc_variants.is_empty());
    }
}
