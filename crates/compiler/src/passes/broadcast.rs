//! Delayed In-Batch Broadcast (§4.2, §6).
//!
//! IBB expands user-side rows to align user–ad pairs. When the ops that
//! follow are row-wise, broadcasting first makes them do `rows_out/rows_in`
//! times the work and duplicates activation data. This pass sinks the
//! broadcast past row-wise consumers, "reducing the memory footprint of
//! some models by up to 2×" and cutting redundant compute.

use mtia_model::graph::{Graph, Node, TensorKind};
use mtia_model::ops::OpKind;
use mtia_model::tensor::Shape;

use crate::pass::{GraphAnalysis, Pass};

/// Rewrites a row-wise op from `rows_out` rows down to `rows_in` rows.
/// Returns `None` when the op is not row-wise (the broadcast cannot sink
/// past it). The second element is the op's output column width.
fn shrink_rows(op: &OpKind, rows_out: u64, rows_in: u64) -> Option<(OpKind, u64)> {
    match *op {
        OpKind::Fc {
            batch,
            in_features,
            out_features,
        } if batch == rows_out => Some((
            OpKind::Fc {
                batch: rows_in,
                in_features,
                out_features,
            },
            out_features,
        )),
        OpKind::Elementwise {
            elems,
            kind,
            arity: 1,
        } if elems % rows_out == 0 => {
            let cols = elems / rows_out;
            Some((
                OpKind::Elementwise {
                    elems: rows_in * cols,
                    kind,
                    arity: 1,
                },
                cols,
            ))
        }
        OpKind::LayerNorm { rows, cols } if rows == rows_out => Some((
            OpKind::LayerNorm {
                rows: rows_in,
                cols,
            },
            cols,
        )),
        OpKind::Cast { elems } if elems % rows_out == 0 => {
            let cols = elems / rows_out;
            Some((
                OpKind::Cast {
                    elems: rows_in * cols,
                },
                cols,
            ))
        }
        _ => None,
    }
}

/// The delayed-broadcast pass. Each run sinks the first eligible broadcast
/// one step, past its row-wise consumer; the pass manager reruns it until
/// no broadcast can sink further.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelayedBroadcast;

impl Pass for DelayedBroadcast {
    fn name(&self) -> &'static str {
        "delayed-broadcast"
    }

    fn run(&self, graph: &mut Graph) -> usize {
        let analysis = GraphAnalysis::of(graph);
        let nodes = graph.nodes();

        // Find the first sinkable broadcast.
        let sinkable = nodes.iter().enumerate().find_map(|(i, node)| {
            let OpKind::Broadcast {
                rows_in, rows_out, ..
            } = node.op
            else {
                return None;
            };
            let [t] = node.outputs[..] else {
                return None;
            };
            if rows_in >= rows_out {
                return None;
            }
            let j = analysis.sole_consumer(t)?;
            let consumer = &nodes[j];
            // The broadcast output must be the consumer's row input.
            if consumer.inputs.first() != Some(&t) {
                return None;
            }
            let (shrunk_op, out_cols) = shrink_rows(&consumer.op, rows_out, rows_in)?;
            Some((i, j, rows_in, rows_out, shrunk_op, out_cols))
        });
        let Some((i, j, rows_in, rows_out, shrunk_op, out_cols)) = sinkable else {
            return 0;
        };

        // Rewrite: consumer first (at rows_in), broadcast after.
        let small_name = format!("{}_pre_broadcast", nodes[j].name);
        let dtype = graph.tensor(nodes[j].outputs[0]).dtype;
        let small = graph.add_tensor(
            small_name,
            Shape::matrix(rows_in, out_cols),
            dtype,
            TensorKind::Activation,
        );
        let (broadcast, consumer) = (&graph.nodes()[i], &graph.nodes()[j]);
        // The shrunk consumer takes the broadcast's input.
        let mut shrunk_inputs = consumer.inputs.clone();
        shrunk_inputs[0] = broadcast.inputs[0];
        let early = Node {
            name: format!("{}_early", consumer.name),
            op: shrunk_op,
            inputs: shrunk_inputs,
            outputs: vec![small],
        };
        // The broadcast moves to the consumer's slot and widens.
        let delayed = Node {
            name: format!("{}_delayed", broadcast.name),
            op: OpKind::Broadcast {
                rows_in,
                rows_out,
                cols: out_cols,
            },
            inputs: vec![small],
            outputs: consumer.outputs.clone(),
        };
        let nodes = graph.nodes_mut();
        nodes[i] = early;
        nodes[j] = delayed;
        debug_assert_eq!(graph.validate(), Ok(()));
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::run_once;
    use crate::pass::PassManager;
    use mtia_core::DType;
    use mtia_model::ops::EwKind;

    /// user (2 rows) --broadcast→ 64 rows → cast → elementwise → output.
    fn early_broadcast_graph() -> Graph {
        let mut g = Graph::new("ibb", 64);
        let user = g.add_tensor(
            "user",
            Shape::matrix(2, 256),
            DType::Fp16,
            TensorKind::Input,
        );
        let wide = g.add_tensor(
            "wide",
            Shape::matrix(64, 256),
            DType::Fp16,
            TensorKind::Activation,
        );
        g.add_node(
            "ibb",
            OpKind::Broadcast {
                rows_in: 2,
                rows_out: 64,
                cols: 256,
            },
            [user],
            [wide],
        );
        let casted = g.add_tensor(
            "casted",
            Shape::matrix(64, 256),
            DType::Fp16,
            TensorKind::Activation,
        );
        g.add_node("cast", OpKind::Cast { elems: 64 * 256 }, [wide], [casted]);
        let act = g.add_tensor(
            "act",
            Shape::matrix(64, 256),
            DType::Fp16,
            TensorKind::Output,
        );
        g.add_node(
            "gelu",
            OpKind::Elementwise {
                elems: 64 * 256,
                kind: EwKind::Nonlinear,
                arity: 1,
            },
            [casted],
            [act],
        );
        g
    }

    #[test]
    fn broadcast_sinks_past_rowwise_ops() {
        let g = early_broadcast_graph();
        let mut pm = PassManager::new();
        pm.add(DelayedBroadcast);
        let (out, log) = pm.run(&g);
        assert_eq!(log[0].1, 2, "broadcast sinks past cast and gelu");
        // The broadcast is now last.
        assert!(matches!(
            out.nodes().last().unwrap().op,
            OpKind::Broadcast { .. }
        ));
        assert_eq!(out.validate(), Ok(()));
    }

    #[test]
    fn delayed_broadcast_shrinks_flops_and_memory() {
        let g = early_broadcast_graph();
        let mut pm = PassManager::new();
        pm.add(DelayedBroadcast);
        let (out, _) = pm.run(&g);
        // Row-wise work now happens at 2 rows instead of 64.
        assert!(out.stats().flops.as_f64() < g.stats().flops.as_f64() / 10.0);
        // §6: "reducing the memory footprint of some models by up to 2x".
        // Here the only remaining wide tensor is the final output: 33 KB
        // live vs 64 KB before, a 1.94× reduction.
        assert!(out.peak_activation_bytes().as_f64() <= g.peak_activation_bytes().as_f64() * 0.55);
    }

    #[test]
    fn broadcast_does_not_sink_past_binary_ops() {
        let mut g = Graph::new("stop", 8);
        let user = g.add_tensor("user", Shape::matrix(1, 8), DType::Fp16, TensorKind::Input);
        let ads = g.add_tensor("ads", Shape::matrix(8, 8), DType::Fp16, TensorKind::Input);
        let wide = g.add_tensor(
            "wide",
            Shape::matrix(8, 8),
            DType::Fp16,
            TensorKind::Activation,
        );
        g.add_node(
            "ibb",
            OpKind::Broadcast {
                rows_in: 1,
                rows_out: 8,
                cols: 8,
            },
            [user],
            [wide],
        );
        let out = g.add_tensor("out", Shape::matrix(8, 8), DType::Fp16, TensorKind::Output);
        g.add_node(
            "pair_add",
            OpKind::Elementwise {
                elems: 64,
                kind: EwKind::Arithmetic,
                arity: 2,
            },
            [wide, ads],
            [out],
        );
        assert_eq!(run_once(&DelayedBroadcast, &g).1, 0);
    }

    #[test]
    fn shrink_rows_variants() {
        let fc = OpKind::Fc {
            batch: 64,
            in_features: 8,
            out_features: 16,
        };
        let (s, cols) = shrink_rows(&fc, 64, 2).unwrap();
        assert!(matches!(s, OpKind::Fc { batch: 2, .. }));
        assert_eq!(cols, 16);
        assert!(shrink_rows(&fc, 32, 2).is_none()); // batch mismatch
        let tbe_like = OpKind::Reshape { elems: 10 };
        assert!(shrink_rows(&tbe_like, 64, 2).is_none());
    }
}
