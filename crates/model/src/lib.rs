//! Model-side substrates of the MTIA 2i reproduction: a graph IR with the
//! paper's operator vocabulary, generators for Meta's production model
//! families (DLRM, DHEN, HSTU, plus a Llama-style LLM for the suitability
//! study), dynamic INT8 quantization, real rANS/LZSS compression, and the
//! §5.1 memory-error injection tool.
//!
//! # Quick tour
//!
//! ```
//! use mtia_model::models::dlrm::DlrmConfig;
//!
//! let graph = DlrmConfig::small(256).build();
//! assert_eq!(graph.validate(), Ok(()));
//! println!("{graph}"); // name, nodes, MFLOPS/sample, parameter bytes
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod error_inject;
pub mod graph;
pub mod integrity;
pub mod models;
pub mod ops;
pub mod quant;
pub mod tensor;

pub use graph::{Graph, GraphError, GraphStats, Node, NodeId, TensorDef, TensorId, TensorKind};
pub use integrity::{ChecksummedTable, IntegrityViolation, OutputGuard};
pub use ops::{OpCategory, OpKind, TbeParams};
pub use tensor::{DenseTensor, Shape};
