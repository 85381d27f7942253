//! The pass framework: in-place graph rewrites with a shared analysis.

use mtia_model::graph::{Graph, Node, TensorId};

/// A graph-rewriting pass.
///
/// A pass rewrites the graph in place and returns how many pattern
/// rewrites it applied. A run that finds nothing to rewrite must leave the
/// graph untouched, and should copy nothing: the [`PassManager`] reruns
/// every pass until a run rewrites nothing, so that final run happens for
/// every pass on every compile.
pub trait Pass {
    /// Short pass name for logs.
    fn name(&self) -> &'static str;

    /// Runs the pass over `graph`; returns the number of rewrites applied.
    fn run(&self, graph: &mut Graph) -> usize;
}

/// Producer/consumer indices over a graph, shared by the pattern matchers.
///
/// Dense and indexed by [`TensorId`]: one producer slot per tensor, and
/// the consumers of every tensor in one compressed (CSR) list — the
/// consumers of tensor `t` are `consumers[offsets[t]..offsets[t + 1]]`,
/// in node order, one entry per input occurrence.
#[derive(Debug, Clone)]
pub struct GraphAnalysis {
    /// Producing node per tensor (the last one, if several write it).
    producer: Vec<Option<usize>>,
    /// Per-tensor start of its run in `consumers`, plus a final end.
    offsets: Vec<usize>,
    /// Consuming node indices, grouped by tensor.
    consumers: Vec<usize>,
}

impl GraphAnalysis {
    /// Builds the analysis.
    pub fn of(graph: &Graph) -> Self {
        let tensors = graph.tensors().len();
        let mut producer = vec![None; tensors];
        // Count each tensor's consumers into the slot after its own, so
        // the prefix sum leaves `offsets[t + 1]` at the end of t's run.
        let mut offsets = vec![0; tensors + 1];
        for (i, node) in graph.nodes().iter().enumerate() {
            for &t in &node.outputs {
                producer[t.index()] = Some(i);
            }
            for &t in &node.inputs {
                offsets[t.index() + 1] += 1;
            }
        }
        for t in 0..tensors {
            offsets[t + 1] += offsets[t];
        }
        // Fill each run from its start, advancing `offsets[t]` to t's end
        // (the old `offsets[t + 1]`), then shift the starts back.
        let mut consumers = vec![0; offsets[tensors]];
        for (i, node) in graph.nodes().iter().enumerate() {
            for &t in &node.inputs {
                consumers[offsets[t.index()]] = i;
                offsets[t.index()] += 1;
            }
        }
        offsets.copy_within(..tensors, 1);
        offsets[0] = 0;
        GraphAnalysis {
            producer,
            offsets,
            consumers,
        }
    }

    /// The node that produces `t`, if any.
    pub fn producer_of(&self, t: TensorId) -> Option<usize> {
        self.producer[t.index()]
    }

    /// All consumers of `t`, in node order.
    pub fn consumers_of(&self, t: TensorId) -> &[usize] {
        &self.consumers[self.offsets[t.index()]..self.offsets[t.index() + 1]]
    }

    /// The single consumer of `t`, if exactly one node consumes it.
    pub fn sole_consumer(&self, t: TensorId) -> Option<usize> {
        match self.consumers_of(t) {
            [one] => Some(*one),
            _ => None,
        }
    }
}

/// Moves `graph`'s node list out into per-node slots, so that a rewriting
/// run builds its new list by moving each kept node instead of cloning it.
pub(crate) fn node_slots(graph: &mut Graph) -> Vec<Option<Node>> {
    std::mem::take(graph.nodes_mut())
        .into_iter()
        .map(Some)
        .collect()
}

/// Runs `pass` once on a copy of `graph`: the copy as rewritten, and the
/// number of rewrites.
#[cfg(test)]
pub(crate) fn run_once(pass: &dyn Pass, graph: &Graph) -> (Graph, usize) {
    let mut out = graph.clone();
    let rewrites = pass.run(&mut out);
    (out, rewrites)
}

/// Most runs of one pass before the manager gives up on its fixpoint.
pub const MAX_RUNS: usize = 32;

/// Runs passes in order, each to its fixpoint, collecting a log of
/// `(pass name, rewrites)`.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// Adds a pass.
    pub fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs all passes on a copy of `graph`, each repeatedly until a run
    /// rewrites nothing, for at most [`MAX_RUNS`] runs. Returns the final
    /// graph and the log. Debug builds assert that every pass reached its
    /// fixpoint within the bound and left a valid graph.
    pub fn run(&self, graph: &Graph) -> (Graph, Vec<(String, usize)>) {
        let mut g = graph.clone();
        let mut log = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let (total, runs) = run_to_fixpoint(pass.as_ref(), &mut g);
            debug_assert!(
                runs.is_some(),
                "pass {} still rewrote on its run {MAX_RUNS}",
                pass.name()
            );
            debug_assert_eq!(g.validate(), Ok(()), "pass {} broke the graph", pass.name());
            log.push((pass.name().to_string(), total));
        }
        (g, log)
    }
}

/// Runs `pass` until a run rewrites nothing, at most [`MAX_RUNS`] times.
/// Returns the total rewrites and, if the pass reached its fixpoint, the
/// number of runs it took (the final, rewrite-free run included).
fn run_to_fixpoint(pass: &dyn Pass, graph: &mut Graph) -> (usize, Option<usize>) {
    let mut total = 0;
    for run in 1..=MAX_RUNS {
        let rewrites = pass.run(graph);
        if rewrites == 0 {
            return (total, Some(run));
        }
        total += rewrites;
    }
    (total, None)
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtia_core::DType;
    use mtia_model::graph::TensorKind;
    use mtia_model::ops::OpKind;
    use mtia_model::tensor::Shape;

    struct NullPass;
    impl Pass for NullPass {
        fn name(&self) -> &'static str {
            "null"
        }
        fn run(&self, _: &mut Graph) -> usize {
            0
        }
    }

    fn tiny() -> Graph {
        let mut g = Graph::new("t", 4);
        let a = g.add_tensor("a", Shape::vector(4), DType::Fp16, TensorKind::Input);
        let b = g.add_tensor("b", Shape::vector(4), DType::Fp16, TensorKind::Activation);
        let c = g.add_tensor("c", Shape::vector(4), DType::Fp16, TensorKind::Output);
        g.add_node("n0", OpKind::Cast { elems: 4 }, [a], [b]);
        g.add_node("n1", OpKind::Cast { elems: 4 }, [b], [c]);
        g
    }

    #[test]
    fn analysis_indexes_producers_and_consumers() {
        let g = tiny();
        let a = GraphAnalysis::of(&g);
        let b = g.nodes()[0].outputs[0];
        assert_eq!(a.producer_of(b), Some(0));
        assert_eq!(a.sole_consumer(b), Some(1));
        let input = g.nodes()[0].inputs[0];
        assert_eq!(a.consumers_of(input), &[0]);
        assert_eq!(a.producer_of(input), None);
    }

    /// Every pass of the pipeline, on every zoo model, ends on a run that
    /// rewrites nothing well within [`MAX_RUNS`].
    #[test]
    fn every_pass_reaches_its_fixpoint_on_the_zoo() {
        use crate::plan::{pass_manager, CompilerOptions};
        use mtia_model::models::zoo;

        let mut models = zoo::fig6_models();
        models.extend(zoo::table1_models());
        models.push(zoo::case_study_initial());
        let quantized = CompilerOptions {
            quantize_large_fcs: true,
            ..CompilerOptions::all()
        };
        let mut most = (0, "", String::new());
        for m in &models {
            for options in [CompilerOptions::all(), quantized] {
                let mut g = m.graph();
                for pass in &pass_manager(options).passes {
                    let (_, runs) = run_to_fixpoint(pass.as_ref(), &mut g);
                    let Some(runs) = runs else {
                        panic!(
                            "{}: {} still rewrote on run {MAX_RUNS}",
                            m.name,
                            pass.name()
                        );
                    };
                    if runs > most.0 {
                        most = (runs, pass.name(), m.name.clone());
                    }
                }
            }
        }
        // No zoo model needs more than one rewriting run of any pass.
        println!("most runs: {} ({} on {})", most.0, most.1, most.2);
        assert_eq!(
            most.0, 2,
            "most runs: {} ({} on {})",
            most.0, most.1, most.2
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "endless still rewrote on its run 32")]
    fn a_pass_cut_off_before_its_fixpoint_fails_in_debug() {
        /// A pass that rewrites on every run.
        struct Endless;
        impl Pass for Endless {
            fn name(&self) -> &'static str {
                "endless"
            }
            fn run(&self, _: &mut Graph) -> usize {
                1
            }
        }
        PassManager::new().add(Endless).run(&tiny());
    }

    #[test]
    fn manager_runs_and_logs() {
        let g = tiny();
        let mut pm = PassManager::new();
        pm.add(NullPass);
        let (out, log) = pm.run(&g);
        assert_eq!(out, g);
        assert_eq!(log, vec![("null".to_string(), 0)]);
    }
}
