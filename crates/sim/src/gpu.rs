//! The GPU comparator model (§5.6, §7).
//!
//! All of the paper's efficiency results are *relative to GPUs serving the
//! same model*. This is a roofline model of an HBM-class inference GPU with
//! a mature software stack: high sustained GEMM efficiency at large batch,
//! kernel-launch overhead on the host-driven launch path, HBM-bound
//! embedding gathers, and partial elementwise fusion.

use mtia_core::spec::GpuSpec;
use mtia_core::units::{FlopCount, SimTime};
use mtia_core::DType;
use mtia_model::graph::Graph;
use mtia_model::ops::{OpCategory, OpKind};

/// Per-node time on the GPU. Its name is the graph's:
/// `graph.nodes()[cost.node].name`.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuNodeCost {
    /// Node index.
    pub node: usize,
    /// Execution time including launch share.
    pub time: SimTime,
}

/// The result of executing one graph on the GPU baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuReport {
    /// Model name.
    pub model: String,
    /// Batch size.
    pub batch: u64,
    /// Per-node costs.
    pub nodes: Vec<GpuNodeCost>,
}

impl GpuReport {
    /// Total time per batch.
    pub fn total_time(&self) -> SimTime {
        self.nodes.iter().map(|n| n.time).sum()
    }

    /// Samples per second.
    pub fn throughput_samples_per_s(&self) -> f64 {
        self.batch as f64 / self.total_time().as_secs_f64()
    }
}

/// The GPU simulator.
#[derive(Debug, Clone)]
pub struct GpuSim {
    spec: GpuSpec,
}

impl GpuSim {
    /// Creates a simulator for `spec`.
    pub fn new(spec: GpuSpec) -> Self {
        GpuSim { spec }
    }

    /// The GPU specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Sustained GEMM efficiency at batch `m`: the mature stack reaches
    /// [`mtia_core::calib::GPU_GEMM_EFFICIENCY`] on well-fed tensor cores,
    /// degrading at small batch (SM underutilization).
    fn gemm_efficiency(&self, m: u64) -> f64 {
        let batch_factor = ((m as f64) / 256.0).min(1.0).sqrt();
        mtia_core::calib::GPU_GEMM_EFFICIENCY * batch_factor.max(0.05)
    }

    fn gemm_time(&self, flops: FlopCount, m: u64, dtype: DType, weight_bytes: u64) -> SimTime {
        let peak = match dtype {
            DType::Int8 => self.spec.int8_peak,
            _ => self.spec.fp16_peak,
        };
        let compute = peak.scale(self.gemm_efficiency(m)).time_to_compute(flops);
        // Weights beyond L2 stream from HBM each pass.
        let hbm_weights = weight_bytes.saturating_sub(self.spec.l2_capacity.as_u64());
        let hbm_time = if hbm_weights > 0 {
            self.spec
                .hbm_bw
                .time_to_move(mtia_core::units::Bytes::new(hbm_weights))
        } else {
            SimTime::ZERO
        };
        compute.max(hbm_time)
    }

    /// Executes `graph`, returning per-node and total times.
    pub fn run(&self, graph: &Graph) -> GpuReport {
        let launch = self.spec.kernel_launch_overhead;
        let mut nodes = Vec::with_capacity(graph.nodes().len());
        for (i, node) in graph.nodes().iter().enumerate() {
            let dtype = graph.node_dtype(node);
            let flops = node.op.flops();
            let time = match node.op.category() {
                OpCategory::Gemm => {
                    let m = match node.op {
                        OpKind::Fc { batch, .. } => batch,
                        OpKind::Attention(p) => p.batch * p.heads * p.seq,
                        OpKind::RaggedAttention(p) => p.batch * p.heads * p.mean_seq,
                        OpKind::Interaction { batch, .. } => batch,
                        _ => graph.batch(),
                    };
                    let w = node.op.weight_bytes(dtype).as_u64();
                    self.gemm_time(flops, m, dtype, w) + launch
                }
                OpCategory::Sparse => {
                    let gathered = match node.op {
                        OpKind::Tbe(p) => p.gathered_bytes(dtype),
                        _ => mtia_core::units::Bytes::ZERO,
                    };
                    let bw = self
                        .spec
                        .hbm_bw
                        .scale(mtia_core::calib::GPU_GATHER_BW_EFFICIENCY);
                    bw.time_to_move(gathered) + launch
                }
                OpCategory::Simd | OpCategory::DataMovement => {
                    // Memory-bound elementwise / layout traffic; the mature
                    // stack fuses roughly half of these into neighbours.
                    let bytes =
                        node.op.activation_in_bytes(dtype) + node.op.activation_out_bytes(dtype);
                    self.spec.hbm_bw.time_to_move(bytes) + launch / 2
                }
            };
            nodes.push(GpuNodeCost { node: i, time });
        }
        GpuReport {
            model: graph.name().to_string(),
            batch: graph.batch(),
            nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtia_core::spec::chips;
    use mtia_model::models::dlrm::DlrmConfig;
    use mtia_model::models::zoo;

    fn gpu() -> GpuSim {
        GpuSim::new(chips::gpu_baseline())
    }

    #[test]
    fn runs_small_dlrm() {
        let g = DlrmConfig::small(512).build();
        let r = gpu().run(&g);
        assert!(r.total_time() > SimTime::ZERO);
        assert_eq!(r.nodes.len(), g.nodes().len());
    }

    #[test]
    fn small_batch_hurts_gpu_efficiency() {
        let sim = gpu();
        assert!(sim.gemm_efficiency(32) < sim.gemm_efficiency(512));
        assert_eq!(sim.gemm_efficiency(256), sim.gemm_efficiency(4096));
    }

    #[test]
    fn launch_overhead_dominates_tiny_models() {
        // A graph with many tiny ops is launch-bound on the GPU — one of
        // the reasons small accelerators with sub-µs launches compete.
        let g = DlrmConfig::small(32).build();
        let r = gpu().run(&g);
        let launches =
            chips::gpu_baseline().kernel_launch_overhead.as_secs_f64() * r.nodes.len() as f64;
        let frac = launches / r.total_time().as_secs_f64();
        assert!(frac > 0.4, "launch fraction {frac}");
    }

    #[test]
    fn gpu_wins_raw_latency_on_memory_bound_models() {
        // HBM is ~10× LPDDR: bandwidth-bound HC models run faster per
        // device on the GPU (which is why Perf/TCO, not raw perf, is the
        // paper's headline).
        let m = zoo::fig6_models().remove(8); // HC4
        let g = m.graph();
        let gpu_t = gpu().run(&g).total_time();
        let mtia_t = crate::chip::ChipSim::new(chips::mtia2i())
            .run_optimized(&g)
            .total_time();
        assert!(gpu_t < mtia_t, "gpu {gpu_t} vs mtia {mtia_t}");
    }
}
