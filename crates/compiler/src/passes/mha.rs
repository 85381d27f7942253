//! The §6 MHA layout rewrite: "we replaced a sequence of operators (i.e.,
//! Slice, Reshape, Concat) with a single custom Transpose kernel".

use mtia_model::graph::{Graph, Node};
use mtia_model::ops::OpKind;

use crate::pass::{node_slots, GraphAnalysis, Pass};

/// Rewrites `Slice → Reshape → Concat` chains into one `Transpose`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MhaLayoutRewrite;

impl Pass for MhaLayoutRewrite {
    fn name(&self) -> &'static str {
        "mha-layout-rewrite"
    }

    fn run(&self, graph: &mut Graph) -> usize {
        let analysis = GraphAnalysis::of(graph);
        let nodes = graph.nodes();
        // `chain[i]` is the concat ending slice `i`'s chain, with its shape.
        let mut absorbed = vec![false; nodes.len()];
        let mut chain: Vec<Option<(usize, u64, u64)>> = vec![None; nodes.len()];
        let mut rewrites = 0;
        for (i, node) in nodes.iter().enumerate() {
            if absorbed[i] || !matches!(node.op, OpKind::Slice { .. }) {
                continue;
            }
            // slice → reshape (sole consumer, sole input) → concat (ditto)
            let found = (|| {
                let t1 = *node.outputs.first()?;
                let j = analysis.sole_consumer(t1)?;
                let reshape = &nodes[j];
                if !matches!(reshape.op, OpKind::Reshape { .. }) || reshape.inputs != [t1] {
                    return None;
                }
                let t2 = *reshape.outputs.first()?;
                let k = analysis.sole_consumer(t2)?;
                let concat = &nodes[k];
                match concat.op {
                    OpKind::Concat {
                        rows, cols_total, ..
                    } if concat.inputs == [t2] => Some((j, k, rows, cols_total)),
                    _ => None,
                }
            })();
            if let Some((j, k, rows, cols_total)) = found {
                if !absorbed[j] && !absorbed[k] {
                    absorbed[j] = true;
                    absorbed[k] = true;
                    chain[i] = Some((k, rows, cols_total));
                    rewrites += 1;
                }
            }
        }
        if rewrites == 0 {
            return 0;
        }

        let mut slots = node_slots(graph);
        let mut new_nodes = Vec::with_capacity(slots.len() - 2 * rewrites);
        for i in 0..slots.len() {
            if absorbed[i] {
                continue;
            }
            let node = slots[i].take().expect("a kept node is moved once");
            let Some((k, rows, cols)) = chain[i] else {
                new_nodes.push(node);
                continue;
            };
            let concat = slots[k].take().expect("a concat ends one chain");
            new_nodes.push(Node {
                name: format!("{}_as_transpose", node.name),
                op: OpKind::Transpose { rows, cols },
                inputs: node.inputs,
                outputs: concat.outputs,
            });
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
    use mtia_model::tensor::Shape;

    fn slice_reshape_concat() -> Graph {
        let mut g = Graph::new("mha", 8);
        let x = g.add_tensor("x", Shape::matrix(8, 64), DType::Fp16, TensorKind::Input);
        let s = g.add_tensor(
            "s",
            Shape::matrix(8, 32),
            DType::Fp16,
            TensorKind::Activation,
        );
        let r = g.add_tensor(
            "r",
            Shape::matrix(16, 16),
            DType::Fp16,
            TensorKind::Activation,
        );
        let c = g.add_tensor("c", Shape::matrix(16, 16), DType::Fp16, TensorKind::Output);
        g.add_node("slice", OpKind::Slice { rows: 8, cols: 32 }, [x], [s]);
        g.add_node("reshape", OpKind::Reshape { elems: 256 }, [s], [r]);
        g.add_node(
            "concat",
            OpKind::Concat {
                rows: 16,
                cols_total: 16,
                num_inputs: 1,
            },
            [r],
            [c],
        );
        g
    }

    #[test]
    fn chain_becomes_single_transpose() {
        let g = slice_reshape_concat();
        let (out, rewrites) = run_once(&MhaLayoutRewrite, &g);
        assert_eq!(rewrites, 1);
        assert_eq!(out.nodes().len(), 1);
        assert!(matches!(
            out.nodes()[0].op,
            OpKind::Transpose { rows: 16, cols: 16 }
        ));
        assert_eq!(out.validate(), Ok(()));
    }

    #[test]
    fn partial_chain_is_untouched() {
        let mut g = Graph::new("partial", 8);
        let x = g.add_tensor("x", Shape::matrix(8, 64), DType::Fp16, TensorKind::Input);
        let s = g.add_tensor("s", Shape::matrix(8, 32), DType::Fp16, TensorKind::Output);
        g.add_node("slice", OpKind::Slice { rows: 8, cols: 32 }, [x], [s]);
        assert_eq!(run_once(&MhaLayoutRewrite, &g).1, 0);
    }

    #[test]
    fn rewrite_reduces_node_time_budget() {
        // Three layout ops collapse to one: fewer launches, less traffic.
        let g = slice_reshape_concat();
        let rewritten = run_once(&MhaLayoutRewrite, &g).0;
        assert!(rewritten.nodes().len() < g.nodes().len());
    }
}
