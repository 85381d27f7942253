//! The model graph IR.
//!
//! A [`Graph`] is a DAG of [`Node`]s over [`TensorDef`]s. It is deliberately
//! close to what TorchDynamo hands TorchInductor (§3.5): operators with
//! static shapes, tensors classified as inputs, weights, embedding tables,
//! activations, or outputs. The compiler crate rewrites graphs (fusion,
//! broadcast deferral), the autotuner re-snapshots them at different batch
//! sizes, and the simulator executes them.

use std::fmt;

use mtia_core::units::{Bytes, FlopCount};
use mtia_core::DType;

use crate::ops::{OpCategory, OpKind};
use crate::tensor::Shape;

/// Identifier of a tensor within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub(crate) usize);

/// Identifier of a node within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl TensorId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The role a tensor plays, which determines where the memory-placement
/// logic may put it (§4.1: activations favour LLS; weights favour LLC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorKind {
    /// Model input arriving from the host.
    Input,
    /// Model output returned to the host.
    Output,
    /// Constant FC/attention weights.
    Weight,
    /// Embedding table (usually far too large for SRAM).
    EmbeddingTable,
    /// Intermediate activation.
    Activation,
}

/// A tensor declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorDef {
    /// Human-readable name.
    pub name: String,
    /// Shape.
    pub shape: Shape,
    /// Element type.
    pub dtype: DType,
    /// Role.
    pub kind: TensorKind,
}

impl TensorDef {
    /// Size in bytes.
    pub fn bytes(&self) -> Bytes {
        self.shape.bytes(self.dtype)
    }
}

/// One operator application.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Human-readable name.
    pub name: String,
    /// The operator.
    pub op: OpKind,
    /// Input tensors (activations, weights, tables).
    pub inputs: Vec<TensorId>,
    /// Output tensors.
    pub outputs: Vec<TensorId>,
}

/// Errors from graph validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node references a tensor that was never declared.
    UnknownTensor {
        /// The offending node.
        node: String,
    },
    /// An activation is consumed but no node produces it.
    UndefinedActivation {
        /// The tensor name.
        tensor: String,
    },
    /// Two nodes both write the same tensor.
    MultipleProducers {
        /// The tensor name.
        tensor: String,
    },
    /// The graph has a cycle.
    Cycle,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownTensor { node } => {
                write!(f, "node `{node}` references an undeclared tensor")
            }
            GraphError::UndefinedActivation { tensor } => {
                write!(f, "activation `{tensor}` is consumed but never produced")
            }
            GraphError::MultipleProducers { tensor } => {
                write!(f, "tensor `{tensor}` has multiple producers")
            }
            GraphError::Cycle => write!(f, "graph contains a cycle"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Aggregate statistics of a graph.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GraphStats {
    /// Total arithmetic work per batch.
    pub flops: FlopCount,
    /// Total FC/attention weight bytes.
    pub weight_bytes: Bytes,
    /// Total embedding-table bytes.
    pub table_bytes: Bytes,
    /// Number of nodes.
    pub nodes: usize,
    /// Nodes that are GEMM-class.
    pub gemm_nodes: usize,
    /// Nodes that are sparse (TBE).
    pub sparse_nodes: usize,
}

impl GraphStats {
    /// Total parameter footprint (weights + embedding tables).
    pub fn model_bytes(&self) -> Bytes {
        self.weight_bytes + self.table_bytes
    }
}

/// A model compute graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    name: String,
    batch: u64,
    tensors: Vec<TensorDef>,
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph for a model executed at `batch` samples per
    /// invocation.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn new(name: impl Into<String>, batch: u64) -> Self {
        assert!(batch > 0, "batch size must be positive");
        Graph {
            name: name.into(),
            batch,
            tensors: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The batch size the graph was built for.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Declares a tensor and returns its id.
    pub fn add_tensor(
        &mut self,
        name: impl Into<String>,
        shape: Shape,
        dtype: DType,
        kind: TensorKind,
    ) -> TensorId {
        let id = TensorId(self.tensors.len());
        self.tensors.push(TensorDef {
            name: name.into(),
            shape,
            dtype,
            kind,
        });
        id
    }

    /// Appends a node and returns its id. Nodes must be appended in a valid
    /// execution order (producers before consumers); [`Graph::validate`]
    /// checks this.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        inputs: impl Into<Vec<TensorId>>,
        outputs: impl Into<Vec<TensorId>>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.into(),
            op,
            inputs: inputs.into(),
            outputs: outputs.into(),
        });
        id
    }

    /// All tensors.
    pub fn tensors(&self) -> &[TensorDef] {
        &self.tensors
    }

    /// All nodes, in insertion (execution) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a tensor definition.
    pub fn tensor(&self, id: TensorId) -> &TensorDef {
        &self.tensors[id.0]
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The node list, for compiler passes to rewrite in place. The caller
    /// must keep the order topological; [`Graph::validate`] verifies.
    pub fn nodes_mut(&mut self) -> &mut Vec<Node> {
        &mut self.nodes
    }

    /// Re-classifies a tensor (used when splitting graphs across devices:
    /// a remote network's output becomes the merge network's input).
    pub fn set_tensor_kind(&mut self, id: TensorId, kind: TensorKind) {
        self.tensors[id.0].kind = kind;
    }

    /// Checks structural invariants: all tensor references resolve, each
    /// tensor has at most one producer, every consumed activation has a
    /// producer that appears earlier in the node order.
    pub fn validate(&self) -> Result<(), GraphError> {
        // Producing node per tensor, indexed by `TensorId`.
        let mut producer: Vec<Option<usize>> = vec![None; self.tensors.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &t in node.inputs.iter().chain(&node.outputs) {
                if t.0 >= self.tensors.len() {
                    return Err(GraphError::UnknownTensor {
                        node: node.name.clone(),
                    });
                }
            }
            for &t in &node.outputs {
                if producer[t.0].replace(i).is_some() {
                    return Err(GraphError::MultipleProducers {
                        tensor: self.tensors[t.0].name.clone(),
                    });
                }
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for &t in &node.inputs {
                let def = &self.tensors[t.0];
                if matches!(def.kind, TensorKind::Activation | TensorKind::Output) {
                    match producer[t.0] {
                        None => {
                            return Err(GraphError::UndefinedActivation {
                                tensor: def.name.clone(),
                            })
                        }
                        Some(p) if p >= i => return Err(GraphError::Cycle),
                        Some(_) => {}
                    }
                }
            }
        }
        Ok(())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> GraphStats {
        let mut s = GraphStats {
            nodes: self.nodes.len(),
            ..GraphStats::default()
        };
        for node in &self.nodes {
            s.flops += node.op.flops();
            let dtype = self.node_dtype(node);
            match node.op.category() {
                OpCategory::Gemm => {
                    s.gemm_nodes += 1;
                    s.weight_bytes += node.op.weight_bytes(dtype);
                }
                OpCategory::Sparse => {
                    s.sparse_nodes += 1;
                    s.table_bytes += node.op.weight_bytes(dtype);
                }
                _ => {}
            }
        }
        s
    }

    /// Arithmetic work per sample — the paper's model-complexity axis
    /// (MFLOPS/sample in Fig. 6, GFLOPS/sample in Table 1).
    pub fn flops_per_sample(&self) -> FlopCount {
        FlopCount::new(self.stats().flops.as_f64() / self.batch as f64)
    }

    /// Total parameter footprint (weights + embedding tables).
    pub fn model_bytes(&self) -> Bytes {
        self.stats().model_bytes()
    }

    /// The element dtype a node computes in (taken from its first output,
    /// falling back to its first input, then FP16).
    pub fn node_dtype(&self, node: &Node) -> DType {
        node.outputs
            .first()
            .or_else(|| node.inputs.first())
            .map(|&t| self.tensors[t.0].dtype)
            .unwrap_or(DType::Fp16)
    }

    /// Peak live activation bytes under the graph's node order — the
    /// "activation buffer" the §4.1 placement logic tries to pin in LLS.
    ///
    /// An activation is live from the node that produces it until its last
    /// consumer. Inputs are live from the start until their last consumer;
    /// weights and tables are not activations and are excluded.
    pub fn peak_activation_bytes(&self) -> Bytes {
        let order: Vec<usize> = (0..self.nodes.len()).collect();
        self.peak_activation_bytes_for_order(&order)
    }

    /// Each node's position in the execution `order` (the inverse
    /// permutation).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of node indices.
    pub fn order_positions(&self, order: &[usize]) -> Vec<usize> {
        assert_eq!(order.len(), self.nodes.len(), "order must cover every node");
        let mut position = vec![usize::MAX; self.nodes.len()];
        for (pos, &n) in order.iter().enumerate() {
            assert!(
                n < self.nodes.len() && position[n] == usize::MAX,
                "order must be a permutation"
            );
            position[n] = pos;
        }
        position
    }

    /// Peak live activation bytes under an explicit execution `order`
    /// (indices into [`Graph::nodes`]). Used by the §4.2 operator-scheduling
    /// search that minimizes liveness.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of node indices.
    pub fn peak_activation_bytes_for_order(&self, order: &[usize]) -> Bytes {
        let position = self.order_positions(order);

        // For each activation-like tensor: birth = producer position (or 0
        // for inputs), death = max consumer position.
        // Dense per-tensor slots (indexed by `TensorId`); a tensor is live
        // somewhere iff its birth is set, and then its death is set too.
        let mut birth: Vec<Option<usize>> = vec![None; self.tensors.len()];
        let mut death: Vec<Option<usize>> = vec![None; self.tensors.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let pos = position[i];
            for &t in &node.outputs {
                if self.is_bufferable(t) {
                    birth[t.0] = Some(pos);
                    death[t.0].get_or_insert(pos);
                }
            }
            for &t in &node.inputs {
                if self.is_bufferable(t) {
                    birth[t.0].get_or_insert(0);
                    let d = death[t.0].get_or_insert(pos);
                    *d = (*d).max(pos);
                }
            }
        }

        // Sweep. Only integers are summed into `delta`, so the tensor
        // visiting order cannot change the result.
        let steps = self.nodes.len();
        let mut delta = vec![0i128; steps + 1];
        for (t, (b, d)) in birth.iter().zip(&death).enumerate() {
            if let (Some(b), Some(d)) = (*b, *d) {
                let bytes = self.tensors[t].bytes().as_u64() as i128;
                delta[b] += bytes;
                delta[d + 1] -= bytes;
            }
        }
        let mut live = 0i128;
        let mut peak = 0i128;
        for d in delta.iter().take(steps) {
            live += d;
            peak = peak.max(live);
        }
        Bytes::new(peak as u64)
    }

    fn is_bufferable(&self, t: TensorId) -> bool {
        matches!(
            self.tensors[t.0].kind,
            TensorKind::Activation | TensorKind::Input | TensorKind::Output
        )
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "{} (batch {}, {} nodes, {} per sample, params {})",
            self.name,
            self.batch,
            s.nodes,
            self.flops_per_sample(),
            self.model_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// in -> fc1 -> a -> fc2 -> out, with a 4x8 and 8x2 weights.
    fn two_layer() -> Graph {
        let mut g = Graph::new("test", 16);
        let input = g.add_tensor("in", Shape::matrix(16, 4), DType::Fp16, TensorKind::Input);
        let w1 = g.add_tensor("w1", Shape::matrix(4, 8), DType::Fp16, TensorKind::Weight);
        let a = g.add_tensor(
            "a",
            Shape::matrix(16, 8),
            DType::Fp16,
            TensorKind::Activation,
        );
        let w2 = g.add_tensor("w2", Shape::matrix(8, 2), DType::Fp16, TensorKind::Weight);
        let out = g.add_tensor("out", Shape::matrix(16, 2), DType::Fp16, TensorKind::Output);
        g.add_node(
            "fc1",
            OpKind::Fc {
                batch: 16,
                in_features: 4,
                out_features: 8,
            },
            [input, w1],
            [a],
        );
        g.add_node(
            "fc2",
            OpKind::Fc {
                batch: 16,
                in_features: 8,
                out_features: 2,
            },
            [a, w2],
            [out],
        );
        g
    }

    #[test]
    fn valid_graph_passes() {
        assert_eq!(two_layer().validate(), Ok(()));
    }

    #[test]
    fn stats_aggregate() {
        let g = two_layer();
        let s = g.stats();
        assert_eq!(s.nodes, 2);
        assert_eq!(s.gemm_nodes, 2);
        assert_eq!(s.sparse_nodes, 0);
        assert_eq!(
            s.flops.as_f64(),
            2.0 * 16.0 * 4.0 * 8.0 + 2.0 * 16.0 * 8.0 * 2.0
        );
        assert_eq!(s.weight_bytes.as_u64(), 2 * (4 * 8 + 8 * 2));
        assert_eq!(g.flops_per_sample().as_f64(), s.flops.as_f64() / 16.0);
    }

    #[test]
    fn undefined_activation_detected() {
        let mut g = Graph::new("bad", 1);
        let ghost = g.add_tensor(
            "ghost",
            Shape::vector(4),
            DType::Fp16,
            TensorKind::Activation,
        );
        let out = g.add_tensor("out", Shape::vector(4), DType::Fp16, TensorKind::Output);
        g.add_node("ew", OpKind::Cast { elems: 4 }, [ghost], [out]);
        assert!(matches!(
            g.validate(),
            Err(GraphError::UndefinedActivation { .. })
        ));
    }

    #[test]
    fn multiple_producers_detected() {
        let mut g = Graph::new("bad", 1);
        let a = g.add_tensor("a", Shape::vector(4), DType::Fp16, TensorKind::Activation);
        g.add_node("n1", OpKind::Cast { elems: 4 }, [], [a]);
        g.add_node("n2", OpKind::Cast { elems: 4 }, [], [a]);
        assert!(matches!(
            g.validate(),
            Err(GraphError::MultipleProducers { .. })
        ));
    }

    #[test]
    fn consumer_before_producer_is_cycle() {
        let mut g = Graph::new("bad", 1);
        let a = g.add_tensor("a", Shape::vector(4), DType::Fp16, TensorKind::Activation);
        let b = g.add_tensor("b", Shape::vector(4), DType::Fp16, TensorKind::Activation);
        g.add_node("uses_b", OpKind::Cast { elems: 4 }, [b], [a]);
        g.add_node("makes_b", OpKind::Cast { elems: 4 }, [], [b]);
        assert_eq!(g.validate(), Err(GraphError::Cycle));
    }

    #[test]
    fn peak_activation_counts_overlap() {
        let g = two_layer();
        // At fc2: `a` (16x8 fp16 = 256 B) + input dead? input dies at fc1
        // (pos 0), a live 0..1, out live at 1.
        // Peak at pos 0: input (128) + a (256) = 384.
        // Peak at pos 1: a (256) + out (64) = 320.
        assert_eq!(g.peak_activation_bytes(), Bytes::new(384));
    }

    #[test]
    fn liveness_depends_on_order() {
        // Diamond: in -> (p1, p2) both -> join. Executing p1, p2, join keeps
        // both intermediates live; there is no better order, but a custom
        // order must give the same peak as default here.
        let mut g = Graph::new("diamond", 1);
        let input = g.add_tensor("in", Shape::vector(100), DType::Fp32, TensorKind::Input);
        let x1 = g.add_tensor(
            "x1",
            Shape::vector(100),
            DType::Fp32,
            TensorKind::Activation,
        );
        let x2 = g.add_tensor(
            "x2",
            Shape::vector(100),
            DType::Fp32,
            TensorKind::Activation,
        );
        let out = g.add_tensor("out", Shape::vector(100), DType::Fp32, TensorKind::Output);
        g.add_node("p1", OpKind::Cast { elems: 100 }, [input], [x1]);
        g.add_node("p2", OpKind::Cast { elems: 100 }, [input], [x2]);
        g.add_node(
            "join",
            OpKind::Elementwise {
                elems: 100,
                kind: crate::ops::EwKind::Arithmetic,
                arity: 2,
            },
            [x1, x2],
            [out],
        );
        let default = g.peak_activation_bytes();
        let same = g.peak_activation_bytes_for_order(&[0, 1, 2]);
        assert_eq!(default, same);
        // Peak is three tensors of 400 B: {in, x1, x2} at p2 (in dies
        // there), tying {x1, x2, out} at join.
        assert_eq!(default, Bytes::new(300 * 4));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_order_panics() {
        let g = two_layer();
        let _ = g.peak_activation_bytes_for_order(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn an_out_of_range_order_index_is_not_a_permutation() {
        let g = two_layer();
        let _ = g.order_positions(&[0, 2]);
    }

    #[test]
    fn display_summarizes() {
        let g = two_layer();
        let s = g.to_string();
        assert!(s.contains("test"));
        assert!(s.contains("2 nodes"));
    }
}
