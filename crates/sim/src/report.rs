//! Execution reports produced by the chip simulator.

use std::collections::BTreeMap;
use std::fmt;

use mtia_core::units::{Bytes, FlopCount, SimTime};
use mtia_model::ops::OpCategory;

use crate::kernels::{Bottleneck, OpCost};
use crate::mem::sram::DataPlacement;

/// Cost of one executed node. Its name is the graph's:
/// `graph.nodes()[cost.node].name`.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCost {
    /// Node index in the graph.
    pub node: usize,
    /// Operator category.
    pub category: OpCategory,
    /// The kernel cost.
    pub cost: OpCost,
    /// Job launch/replace overhead charged to this node.
    pub launch_overhead: SimTime,
}

/// The result of executing one graph on one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Model name.
    pub model: String,
    /// Batch size.
    pub batch: u64,
    /// Per-node costs in execution order.
    pub nodes: Vec<NodeCost>,
    /// Data placement used.
    pub placement: DataPlacement,
    /// Fraction of FC weights LLC-resident.
    pub weight_resident_fraction: f64,
    /// TBE SRAM hit rate.
    pub tbe_hit_rate: f64,
    /// Whether model + runtime buffers exceed one device's DRAM (§4.1's
    /// sharding trigger).
    pub needs_sharding: bool,
}

impl ExecutionReport {
    /// Total time for one batch, including launch overheads.
    pub fn total_time(&self) -> SimTime {
        self.nodes
            .iter()
            .map(|n| n.cost.time + n.launch_overhead)
            .sum()
    }

    /// Kernel time only (no launch overhead).
    pub fn kernel_time(&self) -> SimTime {
        self.nodes.iter().map(|n| n.cost.time).sum()
    }

    /// Total launch overhead — what op fusion amortizes (§6).
    pub fn launch_overhead(&self) -> SimTime {
        self.nodes.iter().map(|n| n.launch_overhead).sum()
    }

    /// Samples processed per second at this batch size.
    pub fn throughput_samples_per_s(&self) -> f64 {
        self.batch as f64 / self.total_time().as_secs_f64()
    }

    /// Total arithmetic work.
    pub fn flops(&self) -> FlopCount {
        self.nodes.iter().map(|n| n.cost.flops).sum()
    }

    /// Effective compute rate achieved.
    pub fn achieved_flops_per_s(&self) -> f64 {
        self.flops().as_f64() / self.total_time().as_secs_f64()
    }

    /// Total DRAM traffic per batch.
    pub fn dram_bytes(&self) -> Bytes {
        self.nodes.iter().map(|n| n.cost.dram_bytes).sum()
    }

    /// SRAM hit rate of dense (non-TBE) traffic — §4.2 reports > 95 %.
    pub fn dense_sram_hit_rate(&self) -> f64 {
        let (mut sram, mut dram) = (0.0, 0.0);
        for n in &self.nodes {
            if n.category != OpCategory::Sparse {
                sram += n.cost.sram_bytes.as_f64();
                dram += n.cost.dram_bytes.as_f64();
            }
        }
        if sram + dram == 0.0 {
            1.0
        } else {
            sram / (sram + dram)
        }
    }

    /// Time attributed to each bottleneck class.
    pub fn bottleneck_breakdown(&self) -> BTreeMap<String, SimTime> {
        let mut map: BTreeMap<String, SimTime> = BTreeMap::new();
        for n in &self.nodes {
            let key = format!("{:?}", n.cost.bottleneck);
            *map.entry(key).or_insert(SimTime::ZERO) += n.cost.time;
        }
        map
    }

    /// Summed time of an arbitrary subset of nodes (used to split remote /
    /// merge jobs for the serving scheduler).
    pub fn time_of(&self, nodes: impl IntoIterator<Item = usize>) -> SimTime {
        let set: std::collections::HashSet<usize> = nodes.into_iter().collect();
        self.nodes
            .iter()
            .filter(|n| set.contains(&n.node))
            .map(|n| n.cost.time + n.launch_overhead)
            .sum()
    }

    /// The single most time-consuming bottleneck class.
    pub fn dominant_bottleneck(&self) -> Option<Bottleneck> {
        let mut totals: BTreeMap<u8, (SimTime, Bottleneck)> = BTreeMap::new();
        for n in &self.nodes {
            let key = n.cost.bottleneck as u8;
            let e = totals
                .entry(key)
                .or_insert((SimTime::ZERO, n.cost.bottleneck));
            e.0 += n.cost.time;
        }
        totals.into_values().max_by_key(|(t, _)| *t).map(|(_, b)| b)
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} @ batch {}: {} per batch ({:.0} samples/s), dense SRAM hit {:.1}%, \
             TBE hit {:.1}%, DRAM {}/batch",
            self.model,
            self.batch,
            self.total_time(),
            self.throughput_samples_per_s(),
            self.dense_sram_hit_rate() * 100.0,
            self.tbe_hit_rate * 100.0,
            self.dram_bytes(),
        )?;
        for (k, v) in self.bottleneck_breakdown() {
            writeln!(f, "  {k:<18} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Bottleneck;
    use crate::mem::sram::place_model;
    use mtia_core::spec::chips;
    use mtia_core::units::FlopCount;

    fn node(i: usize, time_us: u64, bottleneck: Bottleneck, category: OpCategory) -> NodeCost {
        NodeCost {
            node: i,
            category,
            cost: crate::kernels::OpCost {
                time: SimTime::from_micros(time_us),
                flops: FlopCount::from_mflops(time_us as f64),
                dram_bytes: Bytes::new(1000 * time_us),
                sram_bytes: Bytes::new(9000 * time_us),
                instructions: 10,
                bottleneck,
            },
            launch_overhead: SimTime::from_nanos(400),
        }
    }

    fn report() -> ExecutionReport {
        let chip = chips::mtia2i();
        ExecutionReport {
            model: "demo".to_string(),
            batch: 128,
            nodes: vec![
                node(0, 10, Bottleneck::Compute, OpCategory::Gemm),
                node(1, 30, Bottleneck::Dram, OpCategory::Sparse),
                node(2, 5, Bottleneck::Compute, OpCategory::Simd),
            ],
            placement: place_model(&chip.sram, Bytes::from_mib(10), Bytes::from_mib(10), 0.75),
            weight_resident_fraction: 1.0,
            tbe_hit_rate: 0.5,
            needs_sharding: false,
        }
    }

    #[test]
    fn totals_add_up() {
        let r = report();
        assert_eq!(r.kernel_time(), SimTime::from_micros(45));
        assert_eq!(r.launch_overhead(), SimTime::from_nanos(1200));
        assert_eq!(
            r.total_time(),
            SimTime::from_micros(45) + SimTime::from_nanos(1200)
        );
        assert!(r.throughput_samples_per_s() > 0.0);
    }

    #[test]
    fn subset_timing() {
        let r = report();
        let t01 = r.time_of([0, 1]);
        let t2 = r.time_of([2]);
        assert_eq!(t01 + t2, r.total_time());
        assert_eq!(r.time_of([]), SimTime::ZERO);
    }

    #[test]
    fn dominant_bottleneck_is_the_heaviest() {
        let r = report();
        assert_eq!(r.dominant_bottleneck(), Some(Bottleneck::Dram));
        let breakdown = r.bottleneck_breakdown();
        assert_eq!(breakdown["Dram"], SimTime::from_micros(30));
        assert_eq!(breakdown["Compute"], SimTime::from_micros(15));
    }

    #[test]
    fn dense_hit_rate_excludes_sparse_nodes() {
        let r = report();
        // Dense nodes: 0 and 2 → sram 9000×15, dram 1000×15 → 90 %.
        assert!((r.dense_sram_hit_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_the_essentials() {
        let s = report().to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("batch 128"));
        assert!(s.contains("TBE hit 50.0%"));
        assert!(s.contains("Dram"));
    }
}
