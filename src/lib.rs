//! **mtia** — a simulator-based reproduction of *"Meta's Second Generation
//! AI Chip: Model-Chip Co-Design and Productionization Experiences"*
//! (ISCA 2025).
//!
//! The paper's contribution is a proprietary inference ASIC (MTIA 2i) and
//! the co-design/productionization practice around it. This workspace
//! rebuilds every layer as an executable model:
//!
//! * [`core`] — units, the published chip/server specifications (Table 2),
//!   TCO and power models.
//! * [`sim`] — the chip performance simulator: PE grid, SRAM (LLC/LLS),
//!   LPDDR + ECC, NoC (incl. the §5.5 deadlock), kernel cost models, job
//!   launch, host link, and the GPU comparator.
//! * [`model`] — graph IR, DLRM/DHEN/HSTU/LLM generators, the Table 1 and
//!   Fig. 6 model zoos, quantization, rANS/LZSS compression, memory-error
//!   injection.
//! * [`compiler`] — fusion passes, delayed broadcast, memory-aware
//!   scheduling, FC kernel variants, the autotuning performance database.
//! * [`autotune`] — the §4.1 pipeline: data placement, batch size,
//!   coalescing, sharding.
//! * [`serving`] — discrete-event serving: traffic, coalescer, remote/merge
//!   scheduling (Fig. 5), host limits, A/B testing (§5.6).
//! * [`fleet`] — §5 production studies: ECC, overclocking, power budget,
//!   firmware rollout, chip sizing.
//!
//! # Quickstart
//!
//! ```
//! use mtia::prelude::*;
//!
//! // Build a production-like ranking model and run it on MTIA 2i.
//! let model = &zoo::fig6_models()[0];
//! let compiled = compile(&model.graph(), CompilerOptions::all());
//! let report = compiled.run(&ChipSim::new(chips::mtia2i()));
//! assert!(report.throughput_samples_per_s() > 0.0);
//! println!("{report}");
//! ```
//!
//! See `examples/` for end-to-end walkthroughs and `cargo bench` for the
//! per-table/figure reproduction harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mtia_autotune as autotune;
pub use mtia_compiler as compiler;
pub use mtia_core as core;
pub use mtia_fleet as fleet;
pub use mtia_model as model;
pub use mtia_serving as serving;
pub use mtia_sim as sim;

/// The most commonly used items, re-exported for examples and quick
/// experiments.
pub mod prelude {
    pub use mtia_autotune::{Autotuner, TunedModel};
    pub use mtia_compiler::{compile, Compiled, CompilerOptions};
    pub use mtia_core::seed::{derive, DEFAULT_SEED};
    pub use mtia_core::spec::{chips, EccMode};
    pub use mtia_core::tco::{PlatformMetrics, ServerCost};
    pub use mtia_core::units::{Bandwidth, Bytes, SimTime, Watts};
    pub use mtia_core::DType;
    pub use mtia_model::models::{dhen, dlrm, hstu, llm, zoo};
    pub use mtia_model::Graph;
    pub use mtia_sim::chip::{ChipSim, Plan};
    pub use mtia_sim::gpu::GpuSim;
    pub use mtia_sim::ExecutionReport;
}
