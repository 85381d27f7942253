//! Foundation types for the MTIA 2i reproduction: strongly-typed units,
//! element data types, the published chip/server specifications, and the
//! TCO/power accounting used by every experiment.
//!
//! This crate is dependency-free and (apart from the small execution
//! utility in [`pool`]) purely descriptive; the behavioural models live
//! in `mtia-sim` and above.
//!
//! # Quick tour
//!
//! ```
//! use mtia_core::spec::chips;
//! use mtia_core::dtype::DType;
//! use mtia_core::units::Bytes;
//!
//! let chip = chips::mtia2i();
//! assert_eq!(chip.pe_count(), 64);
//! assert_eq!(chip.sram.capacity, Bytes::from_mib(256));
//! // Peak rates are derived from the microarchitecture, not hard-coded:
//! let int8 = chip.gemm_peak(DType::Int8, false);
//! assert!((int8.as_tflops() - 354.0).abs() < 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod des;
pub mod dtype;
pub mod error;
pub mod eventq;
pub mod fnv;
pub mod incident;
pub mod perfcount;
pub mod pool;
pub mod power;
pub mod seed;
pub mod spec;
pub mod tco;
pub mod telemetry;
pub mod units;

pub use dtype::DType;
pub use error::ConfigError;
pub use incident::{DetectionMethod, SdcIncident};
pub use spec::{ChipFeature, ChipSpec, EccMode, GpuSpec, ServerSpec};
pub use telemetry::{LatencyHistogram, Telemetry};
pub use units::{Bandwidth, Bytes, CostUnits, FlopCount, FlopRate, Hertz, Joules, SimTime, Watts};
