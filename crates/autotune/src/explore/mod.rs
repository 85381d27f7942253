//! Search-driven co-design: the §3.6/E18 design axes as a searchable
//! space.
//!
//! The paper presents its design point — 256 MiB SRAM, an 8×8 PE grid,
//! LPDDR over HBM, 1.35 GHz, 384 KiB Local Memory per PE — as the
//! output of hand-driven co-design iterations (Fig. 4). This module
//! turns those levers into a parameterized [`ChipSpecSpace`], prices
//! candidates through a calibrated cost/power model anchored on the
//! shipped module bill, and drives a deterministic seeded
//! successive-halving search with Pareto pruning over any
//! caller-supplied objective. E25 (`reproduce --filter e25_explore`)
//! supplies the multi-model Perf/TCO + Perf/Watt objective and checks
//! that the search rediscovers the paper's point from a cold start.
//!
//! Everything here is byte-identical at any thread count: candidate
//! identity is a seed-free mixed-radix index, sampling is a pure
//! function of `(seed, label)`, and evaluation fans out through
//! [`mtia_core::pool`] with index-ordered results. See
//! [`search`] for the full determinism argument.

pub mod cost;
pub mod pareto;
pub mod search;
pub mod space;

pub use cost::{die_area_mm2, is_thermally_feasible, module_cost, typical_power};
pub use pareto::{dominates, pareto_indices, ObjectivePoint};
pub use search::{explore, EvaluatedPoint, ExploreConfig, ExploreOutcome, GenerationStats};
pub use space::{ChipSpecSpace, DesignPoint, MemTech};
