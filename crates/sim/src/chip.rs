//! The chip-level simulator: executes a model graph under a plan.
//!
//! [`ChipSim::run`] walks the scheduled operators, derives the steady-state
//! data placement (§4.1), computes each kernel's roofline cost, charges
//! eager-mode launch overhead per node (§3.3), and produces an
//! [`ExecutionReport`].

use std::collections::BTreeMap;

use mtia_core::error::ConfigError;
use mtia_core::spec::{ChipSpec, EccMode};
use mtia_core::telemetry::{Json, Telemetry};
use mtia_core::units::{Bytes, SimTime};

use mtia_model::graph::Graph;
use mtia_model::ops::{OpCategory, OpKind};

use crate::control::JobLaunchModel;
use crate::costcache::zipf_hit_rate_cached;
use crate::kernels::{cost_op, FcVariant, KernelEnv};
use crate::mem::lpddr::LpddrController;
use crate::mem::sram::place_model;
use crate::noc::NocModel;
use crate::report::{ExecutionReport, NodeCost};

/// How jobs reach the PEs (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaunchMode {
    /// PyTorch eager mode: every operator is a separately launched job,
    /// replaced through the WQ-broadcast/WQE path. Flexible (dynamic
    /// shapes, real-time weight updates, debugging) at the cost of a
    /// sub-µs replace per node — which the §3.3 hardware makes affordable.
    #[default]
    Eager,
    /// Compiled graph mode: the whole graph launches as one job; the
    /// Command Processor chains operators in hardware with only a small
    /// sequencing cost per node. Requires the model to be fully
    /// compilable ("many complex models in PyTorch cannot be fully
    /// compiled into a static graph", §3.3).
    Graph,
}

/// An execution plan: schedule, kernel-variant choices, and placement
/// knobs. Produced by hand, by [`Plan::default_for`], or by the compiler /
/// autotuner crates.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Execution order (indices into the graph's node list).
    pub order: Vec<usize>,
    /// FC kernel variants by node index; unlisted FCs use the default.
    pub fc_variants: BTreeMap<usize, FcVariant>,
    /// Fraction of the LLC budgeted to FC weights (§4.2: LLC is primarily
    /// for weights).
    pub weight_llc_fraction: f64,
    /// Override of the activation-buffer size used for placement (the
    /// autotuner sets this after fusion/scheduling shrink liveness).
    pub activation_bytes: Option<Bytes>,
    /// Job-launch mode.
    pub launch_mode: LaunchMode,
    /// §4.2 memory hints: "we rely on memory hints supported by the
    /// hardware to skip the write-back to DRAM when we know the tensor
    /// data will not be reused". Only matters when activations spill.
    pub memory_hints: bool,
}

impl Plan {
    /// The untuned plan: program order, default kernel variants.
    pub fn default_for(graph: &Graph) -> Self {
        Plan {
            order: (0..graph.nodes().len()).collect(),
            fc_variants: BTreeMap::new(),
            weight_llc_fraction: 0.75,
            activation_bytes: None,
            launch_mode: LaunchMode::Eager,
            memory_hints: true,
        }
    }

    /// A plan with the §4.2-optimized variant chosen for every FC node
    /// (broadcast reads, prefetch, shape-matched blocking).
    pub fn optimized_for(graph: &Graph) -> Self {
        let mut plan = Plan::default_for(graph);
        for (i, node) in graph.nodes().iter().enumerate() {
            if let OpKind::Fc {
                batch,
                in_features,
                out_features,
            } = node.op
            {
                plan.fc_variants.insert(
                    i,
                    FcVariant::optimized_for(batch, in_features, out_features),
                );
            }
        }
        plan
    }
}

/// The chip simulator.
#[derive(Debug, Clone)]
pub struct ChipSim {
    spec: ChipSpec,
    ecc: EccMode,
    zipf_skew: f64,
}

impl ChipSim {
    /// Creates a simulator with production settings (controller ECC on).
    pub fn new(spec: ChipSpec) -> Self {
        ChipSim {
            spec,
            ecc: EccMode::ControllerEcc,
            zipf_skew: mtia_core::calib::EMBEDDING_ZIPF_SKEW,
        }
    }

    /// Sets the ECC mode (the §5.1 study compares Disabled vs ControllerEcc).
    #[must_use]
    pub fn with_ecc(mut self, ecc: EccMode) -> Self {
        self.ecc = ecc;
        self
    }

    /// Overrides the embedding-popularity skew.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] unless `skew` is in `(0, 2)`,
    /// the range the Zipf/Che solver supports (NaN is rejected).
    pub fn with_zipf_skew(mut self, skew: f64) -> Result<Self, ConfigError> {
        if !(skew > 0.0 && skew < 2.0) {
            return Err(ConfigError::OutOfRange {
                what: "zipf skew",
                valid: "(0, 2)",
            });
        }
        self.zipf_skew = skew;
        Ok(self)
    }

    /// The chip specification.
    pub fn spec(&self) -> &ChipSpec {
        &self.spec
    }

    /// The ECC mode in force.
    pub fn ecc(&self) -> EccMode {
        self.ecc
    }

    /// Executes `graph` under the default plan.
    pub fn run_default(&self, graph: &Graph) -> ExecutionReport {
        self.run(graph, &Plan::default_for(graph))
    }

    /// Executes `graph` under `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the plan's order is not a permutation of the graph's
    /// nodes.
    pub fn run(&self, graph: &Graph, plan: &Plan) -> ExecutionReport {
        self.run_with_telemetry(graph, plan, &mut Telemetry::disabled())
    }

    /// [`run`](Self::run) with observability: when `tel` is enabled,
    /// records one `chip.run` span containing a child span per executed
    /// node (sim-time placed on a cumulative cursor, so the trace reads
    /// as the chip's serial timeline), engine-occupancy and byte
    /// counters, and a per-node kernel-time histogram.
    ///
    /// The returned report is byte-identical whether `tel` is enabled
    /// or disabled — telemetry only observes.
    ///
    /// # Panics
    ///
    /// Panics if the plan's order is not a permutation of the graph's
    /// nodes.
    pub fn run_with_telemetry(
        &self,
        graph: &Graph,
        plan: &Plan,
        tel: &mut Telemetry,
    ) -> ExecutionReport {
        assert_eq!(
            plan.order.len(),
            graph.nodes().len(),
            "plan order must cover every node"
        );
        let stats = graph.stats();
        let activation_bytes = plan
            .activation_bytes
            .unwrap_or_else(|| graph.peak_activation_bytes_for_order(&plan.order));
        let placement = place_model(
            &self.spec.sram,
            activation_bytes,
            stats.weight_bytes,
            plan.weight_llc_fraction,
        );
        let weight_resident_fraction = if stats.weight_bytes == Bytes::ZERO {
            1.0
        } else {
            placement.resident_weight_bytes.as_f64() / stats.weight_bytes.as_f64()
        };

        // TBE hit rate from the Zipf/Che model over the embedding cache.
        let tbe_hit_rate = self.tbe_hit_rate(graph, placement.embedding_cache_bytes);

        let env = KernelEnv {
            chip: &self.spec,
            noc: NocModel::new(self.spec.noc.clone()),
            dram: LpddrController::new(self.spec.dram.clone(), self.ecc),
            placement,
            weight_resident_fraction,
            tbe_hit_rate,
            skip_writeback_hints: plan.memory_hints,
        };
        let launch = JobLaunchModel::new(self.spec.control.clone());
        let per_node_overhead = match plan.launch_mode {
            LaunchMode::Eager => launch.replace_time(self.spec.pe_count()),
            // Hardware sequencing by the Command Processor.
            LaunchMode::Graph => mtia_core::SimTime::from_nanos(50),
        };

        tel.begin_span("chip.run", "sim", SimTime::ZERO);
        tel.span_attr("model", Json::Str(graph.name().to_string()));
        tel.span_attr("batch", Json::UInt(graph.batch()));
        tel.span_attr("nodes", Json::UInt(plan.order.len() as u64));

        // Cumulative sim-time cursor: nodes execute serially on the chip,
        // so span `i` starts where span `i-1` ended.
        let mut cursor = SimTime::ZERO;
        let mut nodes = Vec::with_capacity(plan.order.len());
        for (pos, &idx) in plan.order.iter().enumerate() {
            let node = &graph.nodes()[idx];
            let dtype = graph.node_dtype(node);
            let variant = plan.fc_variants.get(&idx).copied();
            let cost = cost_op(&env, &node.op, dtype, variant);
            // Graph mode pays one full job launch up front.
            let launch_overhead = if pos == 0 && plan.launch_mode == LaunchMode::Graph {
                per_node_overhead + launch.launch_time(self.spec.pe_count())
            } else {
                per_node_overhead
            };
            let category = node.op.category();
            if tel.is_enabled() {
                let start = cursor;
                cursor += launch_overhead + cost.time;
                tel.complete_span(
                    node.name.clone(),
                    "sim",
                    start,
                    cursor,
                    vec![
                        ("node".into(), Json::UInt(idx as u64)),
                        ("category".into(), Json::Str(format!("{category:?}"))),
                        (
                            "bottleneck".into(),
                            Json::Str(format!("{:?}", cost.bottleneck)),
                        ),
                        ("dram_bytes".into(), Json::UInt(cost.dram_bytes.as_u64())),
                        ("sram_bytes".into(), Json::UInt(cost.sram_bytes.as_u64())),
                        (
                            "launch_overhead_ps".into(),
                            Json::UInt(launch_overhead.as_picos()),
                        ),
                    ],
                );
                // Engine occupancy (§3: DPE matrix math, SIMD vector
                // work, RE irregular embedding gathers) and memory-system
                // byte counters.
                let engine = match category {
                    OpCategory::Gemm => "chip.occupancy.dpe_ps",
                    OpCategory::Simd => "chip.occupancy.simd_ps",
                    OpCategory::Sparse => "chip.occupancy.re_ps",
                    OpCategory::DataMovement => "chip.occupancy.dma_ps",
                };
                tel.counter_add(engine, cost.time.as_picos());
                tel.counter_add("chip.llc.bytes", cost.sram_bytes.as_u64());
                tel.counter_add("chip.lpddr.bytes", cost.dram_bytes.as_u64());
                tel.hist_record("chip.node_time", cost.time);
            }
            nodes.push(NodeCost {
                node: idx,
                name: node.name.clone(),
                category,
                cost,
                launch_overhead,
            });
        }
        tel.end_span(cursor);

        // One perf-counter event per executed node, so chip-level
        // experiments carry real work into the `--bench-perf` gate.
        mtia_core::perfcount::add_events(plan.order.len() as u64);

        // Sharding check (§4.1): model + runtime buffers vs device DRAM.
        let runtime_buffers = activation_bytes * 2;
        let needs_sharding = graph.model_bytes() + runtime_buffers > self.spec.dram.capacity;

        ExecutionReport {
            model: graph.name().to_string(),
            batch: graph.batch(),
            nodes,
            placement,
            weight_resident_fraction,
            tbe_hit_rate,
            needs_sharding,
        }
    }

    /// Steady-state TBE hit rate for the graph's embedding traffic given an
    /// embedding-cache budget.
    pub fn tbe_hit_rate(&self, graph: &Graph, cache_bytes: Bytes) -> f64 {
        let mut total_rows = 0u64;
        let mut row_bytes = 0u64;
        for node in graph.nodes() {
            if let OpKind::Tbe(p) = node.op {
                total_rows += p.num_tables * p.rows_per_table;
                row_bytes = row_bytes.max(p.embedding_dim * graph.node_dtype(node).size_bytes());
            }
        }
        if total_rows == 0 || row_bytes == 0 {
            return 1.0;
        }
        let cached_rows = cache_bytes.as_u64() / row_bytes;
        zipf_hit_rate_cached(total_rows, cached_rows, self.zipf_skew)
    }

    /// Convenience: total batch latency under the optimized plan.
    pub fn run_optimized(&self, graph: &Graph) -> ExecutionReport {
        self.run(graph, &Plan::optimized_for(graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtia_core::spec::chips;
    use mtia_core::units::SimTime;
    use mtia_model::models::dlrm::DlrmConfig;
    use mtia_model::models::zoo;

    fn sim() -> ChipSim {
        ChipSim::new(chips::mtia2i())
    }

    #[test]
    fn runs_small_dlrm() {
        let g = DlrmConfig::small(512).build();
        let r = sim().run_default(&g);
        assert!(r.total_time() > SimTime::ZERO);
        assert!(r.throughput_samples_per_s() > 0.0);
        assert_eq!(r.nodes.len(), g.nodes().len());
        assert!(!r.needs_sharding);
    }

    #[test]
    fn optimized_plan_is_at_least_as_fast() {
        let g = zoo::fig6_models().remove(7).graph(); // HC3
        let s = sim();
        let default = s.run_default(&g).total_time();
        let optimized = s.run_optimized(&g).total_time();
        assert!(optimized <= default, "{optimized} > {default}");
    }

    #[test]
    fn dense_sram_hit_rate_above_95_percent() {
        // §4.2: "For dense networks, we can achieve over a 95% SRAM hit
        // rate" once activations are pinned and weights mostly resident.
        let g = zoo::fig6_models().remove(0).graph(); // LC1
        let r = sim().run_optimized(&g);
        assert!(
            r.dense_sram_hit_rate() > 0.95,
            "dense hit rate {}",
            r.dense_sram_hit_rate()
        );
    }

    #[test]
    fn tbe_hit_rate_in_paper_band() {
        // §4.2: 40–60 % of sparse accesses served from SRAM.
        for m in zoo::fig6_models() {
            let g = m.graph();
            let r = sim().run_optimized(&g);
            assert!(
                r.tbe_hit_rate > 0.30 && r.tbe_hit_rate < 0.70,
                "{}: tbe hit {}",
                m.name,
                r.tbe_hit_rate
            );
        }
    }

    #[test]
    fn ecc_costs_throughput_on_memory_bound_models() {
        let g = zoo::fig6_models().remove(8).graph(); // HC4, big tables
        let with_ecc = sim().run_optimized(&g);
        let without = ChipSim::new(chips::mtia2i())
            .with_ecc(EccMode::Disabled)
            .run_optimized(&g);
        let penalty =
            1.0 - without.total_time().as_secs_f64() / with_ecc.total_time().as_secs_f64();
        assert!(penalty > 0.0, "ECC must cost something on HC4");
        assert!(
            penalty < 0.15,
            "penalty bounded by the bandwidth share: {penalty}"
        );
    }

    #[test]
    fn launch_overhead_scales_with_node_count() {
        let g = DlrmConfig::small(512).build();
        let r = sim().run_default(&g);
        let per_node = r.launch_overhead().as_secs_f64() / r.nodes.len() as f64;
        assert!(per_node < 0.5e-6, "replace overhead per node {per_node}");
        assert!(r.launch_overhead() > SimTime::ZERO);
    }

    #[test]
    fn huge_model_flags_sharding() {
        let models = zoo::table1_models();
        let hstu = &models[4]; // 2 TB tables ≫ 64 GB DRAM
        let r = sim().run_default(&hstu.graph());
        assert!(r.needs_sharding);
    }

    #[test]
    fn overclocked_chip_is_faster() {
        // §5.2: 1.1 → 1.35 GHz gave 5–20 % end-to-end gains.
        let g = zoo::fig6_models().remove(5).graph(); // HC1, compute-heavy
        let deployed = ChipSim::new(chips::mtia2i()).run_optimized(&g);
        let design = ChipSim::new(chips::mtia2i_design_freq()).run_optimized(&g);
        let gain = design.total_time().as_secs_f64() / deployed.total_time().as_secs_f64() - 1.0;
        assert!(gain > 0.03, "overclock gain {gain}");
        assert!(gain < 0.25, "bounded by the frequency ratio: {gain}");
    }

    #[test]
    fn memory_hints_soften_activation_spill() {
        // §4.2: skip-writeback hints halve the DRAM round-trip of spilled
        // single-use activations.
        let g = zoo::fig6_models().remove(7).graph(); // HC3
        let s = sim();
        let mut spill_with_hints = Plan::optimized_for(&g);
        spill_with_hints.activation_bytes = Some(mtia_core::units::Bytes::from_gib(1));
        let mut spill_without = spill_with_hints.clone();
        spill_without.memory_hints = false;
        let with_hints = s.run(&g, &spill_with_hints).total_time();
        let without = s.run(&g, &spill_without).total_time();
        assert!(
            with_hints < without,
            "hints must help on spilled activations: {with_hints} !< {without}"
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_nests() {
        let g = DlrmConfig::small(256).build();
        let s = sim();
        let plan = Plan::default_for(&g);
        let untraced = s.run(&g, &plan);
        let mut tel = Telemetry::new_enabled();
        let traced = s.run_with_telemetry(&g, &plan, &mut tel);
        // Telemetry only observes: the report is identical.
        assert_eq!(untraced, traced);
        tel.tracer.validate_nesting().expect("well nested");
        let run = &tel.tracer.roots()[0];
        assert_eq!(run.children.len(), g.nodes().len());
        assert_eq!(run.end, traced.total_time());
        assert!(tel.metrics.counter("chip.llc.bytes") > 0);
        let occupancy: u64 = [
            "chip.occupancy.dpe_ps",
            "chip.occupancy.simd_ps",
            "chip.occupancy.re_ps",
            "chip.occupancy.dma_ps",
        ]
        .iter()
        .map(|k| tel.metrics.counter(k))
        .sum();
        assert_eq!(occupancy, traced.kernel_time().as_picos());
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn wrong_plan_size_panics() {
        let g = DlrmConfig::small(8).build();
        let mut plan = Plan::default_for(&g);
        plan.order.pop();
        let _ = sim().run(&g, &plan);
    }

    #[test]
    fn out_of_range_zipf_skew_is_a_config_error() {
        for skew in [0.0, 2.0, -0.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    sim().with_zipf_skew(skew),
                    Err(ConfigError::OutOfRange {
                        what: "zipf skew",
                        ..
                    })
                ),
                "skew {skew} must be rejected"
            );
        }
        for skew in [1e-9, 1.0, 1.999] {
            assert!(sim().with_zipf_skew(skew).is_ok(), "skew {skew} is valid");
        }
    }
}
