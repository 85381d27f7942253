//! The MTIA graph compiler: the optimization layer between the PyTorch-level
//! model graphs (`mtia-model`) and the chip simulator (`mtia-sim`).
//!
//! Implements the §4.2/§6 optimizations the paper credits for most of the
//! case-study gains — vertical fusion, sibling-transpose-FC fusion,
//! horizontal LayerNorm batching, the MHA layout rewrite, delayed in-batch
//! broadcast, liveness-minimizing operator scheduling — plus the §4.1
//! FC kernel-variant generator with its exhaustive tuner and
//! approximate-nearest-neighbour performance database.
//!
//! # Quick tour
//!
//! ```
//! use mtia_compiler::{compile, CompilerOptions};
//! use mtia_model::models::dlrm::DlrmConfig;
//! use mtia_sim::chip::ChipSim;
//! use mtia_core::spec::chips;
//!
//! let graph = DlrmConfig::small(256).build();
//! let compiled = compile(&graph, CompilerOptions::all());
//! let report = compiled.run(&ChipSim::new(chips::mtia2i()));
//! assert!(report.throughput_samples_per_s() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pass;
pub mod passes;
pub mod perfdb;
pub mod plan;
pub mod scheduling;

pub use pass::{Pass, PassManager};
pub use perfdb::{exhaustive_tune, FcShape, PerfDb, TuneOutcome};
pub use plan::{compile, Compiled, CompilerOptions};
pub use scheduling::min_liveness_order;
