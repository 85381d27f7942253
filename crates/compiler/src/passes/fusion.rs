//! Fusion passes (§4.2, §6).
//!
//! * [`VerticalFusion`] — back-to-back producer→consumer fusion (FC +
//!   activation function, quantize/dequantize tails). Intermediates move
//!   into per-PE Local Memory and the pair launches as one kernel.
//! * [`SiblingTransposeFc`] — the §6 pattern: several parallel FC layers
//!   sharing one transposed input fuse with the transpose into a single
//!   operator ("shrunk the activation size and improved the cache hit
//!   rate ... up to a 15 % performance gain").
//! * [`LayerNormBatching`] — the §6 horizontal fusion: "hundreds of
//!   LayerNorm layers ... batched together horizontally to amortize the
//!   kernel launch overhead".

use mtia_model::graph::{Graph, Node};
use mtia_model::ops::OpKind;

use crate::pass::{node_slots, GraphAnalysis, Pass};

/// Whether `op` may be absorbed into its producer as a fused tail.
fn is_fusable_tail(op: &OpKind) -> bool {
    matches!(
        op,
        OpKind::Elementwise { arity: 1, .. }
            | OpKind::Cast { .. }
            | OpKind::Quantize { .. }
            | OpKind::Dequantize { .. }
    )
}

/// Appends `tail` to `head`'s member list, wrapping in `Fused` as needed.
fn fuse_ops(head: OpKind, tail: OpKind) -> OpKind {
    match head {
        OpKind::Fused(mut members) => {
            members.push(tail);
            OpKind::Fused(members)
        }
        other => OpKind::Fused(vec![other, tail]),
    }
}

/// Back-to-back (vertical) fusion.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerticalFusion;

impl Pass for VerticalFusion {
    fn name(&self) -> &'static str {
        "vertical-fusion"
    }

    fn run(&self, graph: &mut Graph) -> usize {
        let analysis = GraphAnalysis::of(graph);
        let nodes = graph.nodes();
        // Each chain head greedily absorbs a chain of single-consumer
        // fusable tails; `next[k]` is the node absorbed right after `k`.
        let mut absorbed = vec![false; nodes.len()];
        let mut next: Vec<Option<usize>> = vec![None; nodes.len()];
        let mut rewrites = 0;
        for i in 0..nodes.len() {
            if absorbed[i] {
                continue;
            }
            let mut last = i;
            while let [t] = nodes[last].outputs[..] {
                let Some(j) = analysis.sole_consumer(t) else {
                    break;
                };
                if absorbed[j] || j <= i {
                    break;
                }
                let tail = &nodes[j];
                // The tail must depend on nothing but the fused output.
                if tail.inputs != [t] || !is_fusable_tail(&tail.op) {
                    break;
                }
                absorbed[j] = true;
                next[last] = Some(j);
                last = j;
                rewrites += 1;
            }
        }
        if rewrites == 0 {
            return 0;
        }

        let mut slots = node_slots(graph);
        let mut new_nodes = Vec::with_capacity(slots.len() - rewrites);
        for i in 0..slots.len() {
            if absorbed[i] {
                continue;
            }
            let mut node = slots[i].take().expect("a kept node is moved once");
            let mut link = next[i];
            while let Some(j) = link {
                let tail = slots[j].take().expect("a tail is absorbed once");
                node.op = fuse_ops(node.op, tail.op);
                node.name = format!("{}+{}", node.name, tail.name);
                node.outputs = tail.outputs;
                link = next[j];
            }
            new_nodes.push(node);
        }
        *graph.nodes_mut() = new_nodes;
        rewrites
    }
}

/// Sibling-transpose-FC fusion (§6).
#[derive(Debug, Clone, Copy, Default)]
pub struct SiblingTransposeFc;

impl Pass for SiblingTransposeFc {
    fn name(&self) -> &'static str {
        "sibling-transpose-fc"
    }

    fn run(&self, graph: &mut Graph) -> usize {
        let analysis = GraphAnalysis::of(graph);
        let nodes = graph.nodes();
        // A transpose fuses with its consumers when all of them, at least
        // two, are FCs over the transposed tensor with one (batch,
        // in_features) shape; `shape[i]` is that shape for transpose `i`.
        let mut absorbed = vec![false; nodes.len()];
        let mut shape: Vec<Option<(u64, u64)>> = vec![None; nodes.len()];
        let mut rewrites = 0;
        for (i, node) in nodes.iter().enumerate() {
            if absorbed[i] || !matches!(node.op, OpKind::Transpose { .. }) {
                continue;
            }
            let [t] = node.outputs[..] else {
                continue;
            };
            let siblings = analysis.consumers_of(t);
            let fc_shape = |j: usize| match nodes[j].op {
                OpKind::Fc {
                    batch, in_features, ..
                } if nodes[j].inputs.first() == Some(&t) && !absorbed[j] => {
                    Some((batch, in_features))
                }
                _ => None,
            };
            let first = siblings.first().and_then(|&j| fc_shape(j));
            if siblings.len() < 2
                || first.is_none()
                || siblings.iter().any(|&j| fc_shape(j) != first)
            {
                continue;
            }
            for &j in siblings {
                absorbed[j] = true;
            }
            shape[i] = first;
            rewrites += 1;
        }
        if rewrites == 0 {
            return 0;
        }

        let mut slots = node_slots(graph);
        let mut new_nodes = Vec::with_capacity(slots.len());
        for i in 0..slots.len() {
            if absorbed[i] {
                continue;
            }
            let node = slots[i].take().expect("a kept node is moved once");
            let Some((batch, in_features)) = shape[i] else {
                new_nodes.push(node);
                continue;
            };
            let siblings = analysis.consumers_of(node.outputs[0]);
            let mut inputs = node.inputs;
            let mut outputs = Vec::new();
            let mut name = format!("{}+fc_x{}", node.name, siblings.len());
            let mut total_out = 0;
            for &j in siblings {
                let sibling = slots[j]
                    .as_ref()
                    .expect("an absorbed sibling is never moved");
                if let OpKind::Fc { out_features, .. } = sibling.op {
                    total_out += out_features;
                }
                // Carry the weight inputs and all outputs forward.
                inputs.extend(sibling.inputs.iter().skip(1).copied());
                outputs.extend(sibling.outputs.iter().copied());
                name.push('_');
            }
            new_nodes.push(Node {
                name,
                op: OpKind::Fused(vec![
                    node.op,
                    OpKind::Fc {
                        batch,
                        in_features,
                        out_features: total_out,
                    },
                ]),
                inputs,
                outputs,
            });
        }
        *graph.nodes_mut() = new_nodes;
        rewrites
    }
}

/// Horizontal LayerNorm batching (§6).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerNormBatching;

impl Pass for LayerNormBatching {
    fn name(&self) -> &'static str {
        "layernorm-batching"
    }

    fn run(&self, graph: &mut Graph) -> usize {
        let analysis = GraphAnalysis::of(graph);
        let nodes = graph.nodes();

        // Group LayerNorms by normalized width; a group merges when every
        // member's inputs are produced before the group's first member and
        // no member's output is consumed before the group's last member.
        let ln_cols = |op: &OpKind| match op {
            OpKind::LayerNorm { cols, .. } => Some(*cols),
            _ => None,
        };

        let mut group_of: Vec<Option<usize>> = vec![None; nodes.len()];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..nodes.len() {
            if group_of[i].is_some() {
                continue;
            }
            let Some(cols) = ln_cols(&nodes[i].op) else {
                continue;
            };
            let mut group = vec![i];
            for (j, node_j) in nodes.iter().enumerate().skip(i + 1) {
                if group_of[j].is_some() || ln_cols(&node_j.op) != Some(cols) {
                    continue;
                }
                // j's inputs must be produced before i.
                let inputs_ready = node_j
                    .inputs
                    .iter()
                    .all(|&t| analysis.producer_of(t).is_none_or(|p| p < i));
                if inputs_ready {
                    group.push(j);
                }
            }
            if group.len() >= 2 {
                // Members' outputs must not be consumed before the anchor.
                let anchor = i;
                let safe = group.iter().all(|&m| {
                    nodes[m].outputs.iter().all(|t| {
                        analysis
                            .consumers_of(*t)
                            .iter()
                            .all(|&c| c > anchor || c >= m)
                    })
                });
                if safe {
                    for &m in &group {
                        group_of[m] = Some(groups.len());
                    }
                    groups.push(group);
                }
            }
        }

        if groups.is_empty() {
            return 0;
        }

        let mut slots = node_slots(graph);
        let mut new_nodes = Vec::with_capacity(slots.len());
        let mut rewrites = 0;
        for i in 0..slots.len() {
            match group_of[i] {
                // The anchor, a group's first member, takes the whole group.
                Some(g) if groups[g][0] == i => {
                    let group = &groups[g];
                    let mut rows = 0;
                    let mut cols = 0;
                    let mut inputs = Vec::new();
                    let mut outputs = Vec::new();
                    for &m in group {
                        let member = slots[m].take().expect("a member is merged once");
                        if let OpKind::LayerNorm { rows: r, cols: c } = member.op {
                            rows += r;
                            cols = c;
                        }
                        inputs.extend(member.inputs);
                        outputs.extend(member.outputs);
                    }
                    new_nodes.push(Node {
                        name: format!("batched_ln_x{}", group.len()),
                        op: OpKind::LayerNorm { rows, cols },
                        inputs,
                        outputs,
                    });
                    rewrites += group.len() - 1;
                }
                Some(_) => {} // merged into an earlier anchor
                None => new_nodes.push(slots[i].take().expect("a kept node is moved once")),
            }
        }
        *graph.nodes_mut() = new_nodes;
        rewrites
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::run_once;
    use mtia_core::DType;
    use mtia_model::graph::TensorKind;
    use mtia_model::models::dlrm::DlrmConfig;
    use mtia_model::tensor::Shape;

    #[test]
    fn vertical_fusion_absorbs_relu_chains() {
        let g = DlrmConfig::small(64).build();
        let before = g.nodes().len();
        let (out, rewrites) = run_once(&VerticalFusion, &g);
        assert!(rewrites >= 5, "rewrites {}", rewrites);
        assert_eq!(out.nodes().len(), before - rewrites);
        assert_eq!(out.validate(), Ok(()));
        // FLOPS are preserved by fusion.
        assert_eq!(out.stats().flops.as_f64(), g.stats().flops.as_f64());
    }

    #[test]
    fn vertical_fusion_reduces_liveness() {
        let g = DlrmConfig::small(256).build();
        let fused = run_once(&VerticalFusion, &g).0;
        assert!(fused.peak_activation_bytes() <= g.peak_activation_bytes());
    }

    #[test]
    fn vertical_fusion_skips_multi_consumer_tensors() {
        // a → cast → b; b consumed by two nodes → no fusion of the cast.
        let mut g = Graph::new("t", 1);
        let a = g.add_tensor("a", Shape::vector(8), DType::Fp16, TensorKind::Input);
        let b = g.add_tensor("b", Shape::vector(8), DType::Fp16, TensorKind::Activation);
        let c = g.add_tensor("c", Shape::vector(8), DType::Fp16, TensorKind::Output);
        let d = g.add_tensor("d", Shape::vector(8), DType::Fp16, TensorKind::Output);
        g.add_node("p", OpKind::Cast { elems: 8 }, [a], [b]);
        g.add_node("c1", OpKind::Cast { elems: 8 }, [b], [c]);
        g.add_node("c2", OpKind::Cast { elems: 8 }, [b], [d]);
        assert_eq!(run_once(&VerticalFusion, &g).1, 0);
    }

    fn sibling_graph() -> Graph {
        let mut g = Graph::new("sib", 32);
        let x = g.add_tensor("x", Shape::matrix(64, 32), DType::Fp16, TensorKind::Input);
        let xt = g.add_tensor(
            "xt",
            Shape::matrix(32, 64),
            DType::Fp16,
            TensorKind::Activation,
        );
        g.add_node(
            "transpose",
            OpKind::Transpose { rows: 64, cols: 32 },
            [x],
            [xt],
        );
        for k in 0..3u64 {
            let w = g.add_tensor(
                format!("w{k}"),
                Shape::matrix(64, 128),
                DType::Fp16,
                TensorKind::Weight,
            );
            let o = g.add_tensor(
                format!("o{k}"),
                Shape::matrix(32, 128),
                DType::Fp16,
                TensorKind::Output,
            );
            g.add_node(
                format!("fc{k}"),
                OpKind::Fc {
                    batch: 32,
                    in_features: 64,
                    out_features: 128,
                },
                [xt, w],
                [o],
            );
        }
        g
    }

    #[test]
    fn sibling_transpose_fc_merges() {
        let g = sibling_graph();
        let (out, rewrites) = run_once(&SiblingTransposeFc, &g);
        assert_eq!(rewrites, 1);
        assert_eq!(out.nodes().len(), 1);
        assert_eq!(out.validate(), Ok(()));
        let node = &out.nodes()[0];
        match &node.op {
            OpKind::Fused(members) => {
                assert!(matches!(members[0], OpKind::Transpose { .. }));
                assert!(matches!(
                    members[1],
                    OpKind::Fc {
                        out_features: 384,
                        ..
                    }
                ));
            }
            other => panic!("expected fused, got {other}"),
        }
        assert_eq!(node.outputs.len(), 3);
    }

    #[test]
    fn sibling_fusion_requires_at_least_two_fcs() {
        let mut g = Graph::new("one", 8);
        let x = g.add_tensor("x", Shape::matrix(8, 8), DType::Fp16, TensorKind::Input);
        let xt = g.add_tensor(
            "xt",
            Shape::matrix(8, 8),
            DType::Fp16,
            TensorKind::Activation,
        );
        let w = g.add_tensor("w", Shape::matrix(8, 8), DType::Fp16, TensorKind::Weight);
        let o = g.add_tensor("o", Shape::matrix(8, 8), DType::Fp16, TensorKind::Output);
        g.add_node("t", OpKind::Transpose { rows: 8, cols: 8 }, [x], [xt]);
        g.add_node(
            "fc",
            OpKind::Fc {
                batch: 8,
                in_features: 8,
                out_features: 8,
            },
            [xt, w],
            [o],
        );
        assert_eq!(run_once(&SiblingTransposeFc, &g).1, 0);
    }

    #[test]
    fn layernorm_batching_merges_independent_lns() {
        let mut g = Graph::new("lns", 16);
        let mut outs = Vec::new();
        let mut lns = Vec::new();
        for k in 0..4u64 {
            let i = g.add_tensor(
                format!("in{k}"),
                Shape::matrix(16, 64),
                DType::Fp16,
                TensorKind::Input,
            );
            let o = g.add_tensor(
                format!("ln{k}_out"),
                Shape::matrix(16, 64),
                DType::Fp16,
                TensorKind::Activation,
            );
            lns.push((i, o));
            outs.push(o);
        }
        for (k, (i, o)) in lns.iter().enumerate() {
            g.add_node(
                format!("ln{k}"),
                OpKind::LayerNorm { rows: 16, cols: 64 },
                [*i],
                [*o],
            );
        }
        // A consumer of all outputs.
        let fin = g.add_tensor("fin", Shape::vector(1), DType::Fp16, TensorKind::Output);
        g.add_node(
            "sink",
            OpKind::Concat {
                rows: 16,
                cols_total: 256,
                num_inputs: 4,
            },
            outs,
            [fin],
        );

        let (out, rewrites) = run_once(&LayerNormBatching, &g);
        assert_eq!(rewrites, 3);
        assert_eq!(out.validate(), Ok(()));
        let merged = out
            .nodes()
            .iter()
            .find(|n| n.name.starts_with("batched_ln"))
            .expect("merged node");
        assert!(matches!(
            merged.op,
            OpKind::LayerNorm { rows: 64, cols: 64 }
        ));
        assert_eq!(out.nodes().len(), 2);
    }

    #[test]
    fn layernorm_batching_respects_dependencies() {
        // ln2 depends on ln1's output → cannot merge.
        let mut g = Graph::new("dep", 8);
        let a = g.add_tensor("a", Shape::matrix(8, 32), DType::Fp16, TensorKind::Input);
        let b = g.add_tensor(
            "b",
            Shape::matrix(8, 32),
            DType::Fp16,
            TensorKind::Activation,
        );
        let c = g.add_tensor("c", Shape::matrix(8, 32), DType::Fp16, TensorKind::Output);
        g.add_node("ln1", OpKind::LayerNorm { rows: 8, cols: 32 }, [a], [b]);
        g.add_node("ln2", OpKind::LayerNorm { rows: 8, cols: 32 }, [b], [c]);
        assert_eq!(run_once(&LayerNormBatching, &g).1, 0);
    }
}
