//! The MTIA 2i chip performance simulator.
//!
//! A kernel-granular roofline simulator of the MTIA accelerators driven
//! entirely by the published Table 2 microarchitecture: the 8×8 PE grid's
//! DPE/SIMD/RE engines, per-PE Local Memory, the shared 256 MB SRAM with
//! its LLC/LLS partitioning, the LPDDR5 controller with the §5.1 ECC
//! penalty, the NoC with traffic shaping and broadcast reads, the
//! eager-mode job-launch path, and the host PCIe link with its GZIP
//! decompression engine. A matching GPU roofline model provides the
//! baseline for all relative results. The serving layers above run their
//! event loops on `mtia_core::des`.
//!
//! # Quick tour
//!
//! ```
//! use mtia_sim::chip::ChipSim;
//! use mtia_core::spec::chips;
//! use mtia_model::models::dlrm::DlrmConfig;
//!
//! let graph = DlrmConfig::small(512).build();
//! let report = ChipSim::new(chips::mtia2i()).run_optimized(&graph);
//! assert!(report.throughput_samples_per_s() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chip;
pub mod control;
pub mod costcache;
pub mod faults;
pub mod gpu;
pub mod host;
pub mod kernels;
pub mod mem;
pub mod noc;
pub mod pe_pipeline;
pub mod report;

pub use chip::{ChipSim, LaunchMode, Plan};
pub use faults::{
    DeviceFaultState, DeviceId, FaultClock, FaultEvent, FaultKind, FaultPlan, FaultPlanConfig,
};
pub use gpu::{GpuReport, GpuSim};
pub use kernels::{Bottleneck, FcVariant, OpCost, Stationarity};
pub use pe_pipeline::{gemm_pipeline_config, simulate_pipeline, PipelineConfig, PipelineStats};
pub use report::ExecutionReport;
