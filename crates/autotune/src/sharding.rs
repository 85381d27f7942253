//! Model-sharding autotuning (§4.1, §6).
//!
//! "To determine model sharding, we measure whether a model and its runtime
//! buffers exceed the size of DRAM for a single device. If so, autotuning
//! automatically explores how to shard the model across multiple devices."
//!
//! Sharding follows the paper's serving split (§6): embedding tables
//! partition across shard devices as **remote (sparse) networks**, while
//! the dense **merge network** runs on one device. NUMA-aware placement
//! keeps all shards under one PCIe switch (§3.4).

use mtia_model::graph::Graph;
use mtia_model::ops::OpKind;
use mtia_sim::chip::ChipSim;

/// A sharding decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardingPlan {
    /// Number of devices the embedding tables are partitioned across.
    pub shards: u32,
}

impl ShardingPlan {
    /// A single-device plan.
    pub fn single() -> Self {
        ShardingPlan { shards: 1 }
    }
}

/// Decides the shard count: the smallest `s` such that each device's slice
/// of the tables (plus the replicated dense part and buffers) fits in
/// device DRAM, capped at the PCIe-switch locality domain.
pub fn tune_sharding(sim: &ChipSim, graph: &Graph, max_shards: u32) -> ShardingPlan {
    let dram = sim.spec().dram.capacity;
    let stats = graph.stats();
    let dense = stats.weight_bytes + graph.peak_activation_bytes() * 2;
    for s in 1..=max_shards {
        let per_device = dense + stats.table_bytes / s as u64;
        if per_device <= dram {
            return ShardingPlan { shards: s };
        }
    }
    ShardingPlan { shards: max_shards }
}

/// Rewrites `graph` into the per-shard remote graph: every TBE keeps
/// `1/shards` of its tables (and thus of its lookups), everything else is
/// dropped. The merge graph is the complement: all non-TBE nodes.
///
/// Returns `(remote_graph, merge_graph)`. The remote graph is what each of
/// the `shards` devices runs; the merge graph runs once.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn split_for_shards(graph: &Graph, shards: u32) -> (Graph, Graph) {
    assert!(shards > 0, "shard count must be positive");
    let mut remote = Graph::new(format!("{}-remote", graph.name()), graph.batch());
    let mut merge = Graph::new(format!("{}-merge", graph.name()), graph.batch());

    // Copy all tensor definitions into both graphs (ids stay aligned).
    for t in graph.tensors() {
        remote.add_tensor(t.name.clone(), t.shape.clone(), t.dtype, t.kind);
        merge.add_tensor(t.name.clone(), t.shape.clone(), t.dtype, t.kind);
    }

    for node in graph.nodes() {
        match &node.op {
            OpKind::Tbe(p) => {
                let mut shard_params = *p;
                shard_params.num_tables = (p.num_tables / shards as u64).max(1);
                remote.add_node(
                    node.name.clone(),
                    OpKind::Tbe(shard_params),
                    node.inputs.clone(),
                    node.outputs.clone(),
                );
                // The pooled embeddings arrive at the merge device over
                // PCIe peer-to-peer: they are inputs there.
                for &t in &node.outputs {
                    merge.set_tensor_kind(t, mtia_model::graph::TensorKind::Input);
                }
            }
            _ => {
                merge.add_node(
                    node.name.clone(),
                    node.op.clone(),
                    node.inputs.clone(),
                    node.outputs.clone(),
                );
            }
        }
    }
    debug_assert_eq!(remote.validate(), Ok(()));
    debug_assert_eq!(merge.validate(), Ok(()));
    (remote, merge)
}

/// Estimated throughput of a sharded deployment. Following §6's serving
/// layout, the merge (dense) network is colocated with shard 0, so one
/// replica occupies exactly `shards` accelerators ("each of these models
/// runs on one or two accelerators", §7): the remote shards gather their
/// table slices in parallel, then device 0 runs the merge — its
/// remote+merge serial time is the pipeline's bottleneck stage.
pub fn sharded_throughput(sim: &ChipSim, graph: &Graph, plan: ShardingPlan) -> f64 {
    if plan.shards == 1 {
        let compiled = mtia_compiler::compile(graph, mtia_compiler::CompilerOptions::all());
        return compiled.run(sim).throughput_samples_per_s();
    }
    let (remote, merge) = split_for_shards(graph, plan.shards);
    let remote_t = {
        let c = mtia_compiler::compile(&remote, mtia_compiler::CompilerOptions::all());
        c.run(sim).total_time()
    };
    let merge_t = {
        let c = mtia_compiler::compile(&merge, mtia_compiler::CompilerOptions::all());
        c.run(sim).total_time()
    };
    let stage = remote_t + merge_t; // device 0 runs both phases
    graph.batch() as f64 / stage.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtia_core::spec::chips;
    use mtia_model::models::dlrm::DlrmConfig;
    use mtia_model::models::zoo;

    fn sim() -> ChipSim {
        ChipSim::new(chips::mtia2i())
    }

    #[test]
    fn small_model_stays_single_device() {
        let g = DlrmConfig::small(256).build();
        let plan = tune_sharding(&sim(), &g, 12);
        assert_eq!(plan.shards, 1);
    }

    #[test]
    fn huge_tables_shard() {
        // HC4 carries 200 GiB of tables ≫ 64 GB device DRAM.
        let models = zoo::fig6_models();
        let hc4 = models.iter().find(|m| m.name == "HC4").unwrap();
        let g = hc4.graph();
        let plan = tune_sharding(&sim(), &g, 12);
        assert!(plan.shards >= 4, "shards {}", plan.shards);
        // Each device's slice now fits.
        let per_device = g.stats().table_bytes / plan.shards as u64;
        assert!(per_device <= sim().spec().dram.capacity);
    }

    #[test]
    fn split_partitions_tables_and_keeps_dense() {
        let models = zoo::fig6_models();
        let hc3 = models.iter().find(|m| m.name == "HC3").unwrap();
        let g = hc3.graph();
        let (remote, merge) = split_for_shards(&g, 2);
        let remote_tables = remote.stats().table_bytes;
        assert!(
            (remote_tables.as_f64() - g.stats().table_bytes.as_f64() / 2.0).abs()
                / g.stats().table_bytes.as_f64()
                < 0.01
        );
        assert_eq!(merge.stats().sparse_nodes, 0);
        assert_eq!(
            merge.stats().gemm_nodes + remote.stats().sparse_nodes,
            g.stats().gemm_nodes + g.stats().sparse_nodes
        );
    }

    #[test]
    fn sharding_improves_oversized_models() {
        let models = zoo::fig6_models();
        let hc4 = models.iter().find(|m| m.name == "HC4").unwrap();
        let g = hc4.graph();
        let single = sharded_throughput(&sim(), &g, ShardingPlan::single());
        let plan = tune_sharding(&sim(), &g, 12);
        let sharded = sharded_throughput(&sim(), &g, plan);
        assert!(
            sharded > single,
            "sharded {sharded} !> single {single} at {} shards",
            plan.shards
        );
    }
}
