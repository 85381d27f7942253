//! The parameterized chip design space: the five §3.6/E18 axes with
//! explicit discrete ranges, a mixed-radix enumeration, and a lossless
//! round-trip into [`ChipSpec`].

use mtia_core::error::ConfigError;
use mtia_core::spec::{chips, ChipSpec};
use mtia_core::units::{Bandwidth, Bytes, Hertz};

/// Off-chip memory technology (§3.6: "avoiding HBM to reduce cost and
/// power").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemTech {
    /// LPDDR5 at 204.8 GB/s, 128 GB, no inline ECC (the shipped choice).
    Lpddr,
    /// A hypothetical two-stack HBM system with inline ECC: 1 TB/s but
    /// only 48 GB — five times the bandwidth at three-eighths the
    /// capacity of the LPDDR SKU.
    Hbm,
}

impl MemTech {
    fn label(self) -> &'static str {
        match self {
            MemTech::Lpddr => "lpddr",
            MemTech::Hbm => "hbm",
        }
    }
}

/// SRAM partition granule: capacities must align to the 32 MiB LLC/LLS
/// granule of the shipped chip (§3.1).
pub const SRAM_GRANULE_MIB: u64 = 32;

/// One fully specified candidate chip: integer-valued coordinates on the
/// five design axes. Integer (not float) coordinates keep `Ord`/`Hash`
/// exact, which the deterministic search driver relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DesignPoint {
    /// Shared-SRAM (LLC/LLS) capacity in MiB.
    pub sram_mib: u64,
    /// PE grid rows.
    pub pe_rows: u32,
    /// PE grid columns.
    pub pe_cols: u32,
    /// Off-chip memory technology.
    pub mem: MemTech,
    /// Core clock in MHz.
    pub freq_mhz: u32,
    /// Local Memory per PE in KiB.
    pub local_mem_kib: u64,
}

impl DesignPoint {
    /// The paper's hand-picked MTIA 2i design point (Table 2, as
    /// deployed after the §5.2 overclock): 256 MiB SRAM, an 8×8 PE
    /// grid, LPDDR, 1.35 GHz, 384 KiB Local Memory per PE.
    pub fn paper() -> Self {
        DesignPoint {
            sram_mib: 256,
            pe_rows: 8,
            pe_cols: 8,
            mem: MemTech::Lpddr,
            freq_mhz: 1350,
            local_mem_kib: 384,
        }
    }

    /// A short stable label, e.g. `sram256 8x8 lpddr 1350MHz lm384`.
    pub fn label(&self) -> String {
        format!(
            "sram{} {}x{} {} {}MHz lm{}",
            self.sram_mib,
            self.pe_rows,
            self.pe_cols,
            self.mem.label(),
            self.freq_mhz,
            self.local_mem_kib
        )
    }

    /// Validates the point against the physical ranges the cost and
    /// performance models are calibrated for.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(32..=1024).contains(&self.sram_mib) {
            return Err(ConfigError::OutOfRange {
                what: "explore SRAM capacity (MiB)",
                valid: "[32, 1024]",
            });
        }
        if !self.sram_mib.is_multiple_of(SRAM_GRANULE_MIB) {
            return Err(ConfigError::MisalignedCapacity {
                what: "explore SRAM",
                capacity: self.sram_mib * 1024 * 1024,
                granule: SRAM_GRANULE_MIB * 1024 * 1024,
            });
        }
        if !(1..=16).contains(&self.pe_rows) || !(1..=16).contains(&self.pe_cols) {
            return Err(ConfigError::OutOfRange {
                what: "explore PE grid",
                valid: "1..=16 rows and columns",
            });
        }
        if !(800..=2000).contains(&self.freq_mhz) {
            return Err(ConfigError::OutOfRange {
                what: "explore frequency (MHz)",
                valid: "[800, 2000]",
            });
        }
        if !(64..=1024).contains(&self.local_mem_kib) {
            return Err(ConfigError::OutOfRange {
                what: "explore Local Memory per PE (KiB)",
                valid: "[64, 1024]",
            });
        }
        Ok(())
    }

    /// Fraction of the shared-SRAM and DRAM bandwidth a chip with
    /// `lm_kib` of Local Memory per PE can actually sustain. Local
    /// Memory is the landing buffer for memory bursts: below the
    /// shipped 384 KiB the double-buffer depth no longer covers the
    /// latency–bandwidth product, bursts shorten, and (for LPDDR
    /// especially) page locality degrades — transfers stall between
    /// bursts. Beyond the knee the links are already saturated and
    /// extra capacity buys nothing but leakage.
    fn burst_efficiency(lm_kib: u64) -> f64 {
        (0.55 + 0.45 * lm_kib as f64 / 384.0).min(1.0)
    }

    /// Builds the candidate [`ChipSpec`] from the shipped 128 GB SKU.
    ///
    /// Local Memory bandwidth co-scales with its capacity (proportional
    /// banking: a macro twice the size has twice the banks) and the
    /// shared-SRAM and DRAM bandwidths are derated by the burst
    /// efficiency the Local Memory can sustain, all anchored at the
    /// shipped 384 KiB; [`ChipSpec::at_frequency`] then scales the
    /// frequency-proportional rates. The spec keeps the base chip's
    /// name: only its capacities and rates change.
    pub fn chip_spec(&self) -> ChipSpec {
        let base = chips::mtia2i_128gb();
        let burst = Self::burst_efficiency(self.local_mem_kib);
        let mut spec = base.with_sram_capacity(Bytes::from_mib(self.sram_mib));
        spec.pe_rows = self.pe_rows;
        spec.pe_cols = self.pe_cols;
        spec.pe.local_memory = Bytes::from_kib(self.local_mem_kib);
        spec.pe.local_memory_bw = base
            .pe
            .local_memory_bw
            .scale(self.local_mem_kib as f64 / 384.0);
        spec.sram.bandwidth = spec.sram.bandwidth.scale(burst);
        if self.mem == MemTech::Hbm {
            spec = spec.with_hbm(Bandwidth::from_tb_per_s(1.0), Bytes::from_gib(48));
        }
        spec.dram.bandwidth = spec.dram.bandwidth.scale(burst);
        spec.at_frequency(Hertz::from_mhz(self.freq_mhz as f64))
    }
}

/// The discrete design space: one explicit value list per axis.
///
/// Enumeration is purely positional — a mixed-radix decode of the
/// candidate index over the axes in declared order — so candidate
/// `i` is the same point on every run, at every thread count, under
/// every seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipSpecSpace {
    /// SRAM capacities (MiB).
    pub sram_mib: Vec<u64>,
    /// PE grids as (rows, cols).
    pub pe_grid: Vec<(u32, u32)>,
    /// Memory technologies.
    pub mem: Vec<MemTech>,
    /// Clock frequencies (MHz).
    pub freq_mhz: Vec<u32>,
    /// Local Memory per PE (KiB).
    pub local_mem_kib: Vec<u64>,
}

impl ChipSpecSpace {
    /// The full E18 search space the paper's co-design levers span: the
    /// §3.6 SRAM ablation capacities, quarter- to double-size PE grids,
    /// LPDDR vs HBM, the §5.2 frequency ladder, and half- to
    /// quadruple-size Local Memory.
    pub fn paper() -> Self {
        ChipSpecSpace {
            sram_mib: vec![64, 128, 256, 512],
            pe_grid: vec![(4, 4), (8, 4), (8, 8), (16, 8)],
            mem: vec![MemTech::Lpddr, MemTech::Hbm],
            freq_mhz: vec![1100, 1350, 1600],
            local_mem_kib: vec![128, 256, 384, 512],
        }
    }

    /// A tiny 8-point space bracketing the paper point on three axes —
    /// the CI smoke and golden-fixture scenario, small enough to verify
    /// the optimum by hand.
    pub fn tiny() -> Self {
        ChipSpecSpace {
            sram_mib: vec![128, 256],
            pe_grid: vec![(8, 8)],
            mem: vec![MemTech::Lpddr],
            freq_mhz: vec![1100, 1350],
            local_mem_kib: vec![256, 384],
        }
    }

    /// Validates every axis: non-empty, and every value in range (so a
    /// search never constructs an invalid [`ChipSpec`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.sram_mib.is_empty()
            || self.pe_grid.is_empty()
            || self.mem.is_empty()
            || self.freq_mhz.is_empty()
            || self.local_mem_kib.is_empty()
        {
            return Err(ConfigError::OutOfRange {
                what: "explore axis",
                valid: "every axis needs at least one value",
            });
        }
        for i in 0..self.len() {
            self.candidate(i).validate()?;
        }
        Ok(())
    }

    /// Number of candidate points (the product of the axis lengths).
    pub fn len(&self) -> usize {
        self.sram_mib.len()
            * self.pe_grid.len()
            * self.mem.len()
            * self.freq_mhz.len()
            * self.local_mem_kib.len()
    }

    /// Whether the space has no candidates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes candidate `index` (mixed radix, axes in declared order;
    /// the Local-Memory axis varies fastest).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn candidate(&self, index: usize) -> DesignPoint {
        assert!(index < self.len(), "candidate index out of range");
        let mut rest = index;
        let lm = self.local_mem_kib[rest % self.local_mem_kib.len()];
        rest /= self.local_mem_kib.len();
        let freq = self.freq_mhz[rest % self.freq_mhz.len()];
        rest /= self.freq_mhz.len();
        let mem = self.mem[rest % self.mem.len()];
        rest /= self.mem.len();
        let (rows, cols) = self.pe_grid[rest % self.pe_grid.len()];
        rest /= self.pe_grid.len();
        let sram = self.sram_mib[rest];
        DesignPoint {
            sram_mib: sram,
            pe_rows: rows,
            pe_cols: cols,
            mem,
            freq_mhz: freq,
            local_mem_kib: lm,
        }
    }

    /// Every candidate, in enumeration order.
    pub fn enumerate(&self) -> Vec<DesignPoint> {
        (0..self.len()).map(|i| self.candidate(i)).collect()
    }

    /// Candidate indices one axis step away from `index` (±1 position on
    /// each axis), in a fixed order: axes in declared order, the lower
    /// neighbor before the upper.
    pub fn neighbors(&self, index: usize) -> Vec<usize> {
        let d = self.candidate(index);
        let s = self
            .sram_mib
            .iter()
            .position(|&v| v == d.sram_mib)
            .expect("decoded coordinate on axis");
        let g = self
            .pe_grid
            .iter()
            .position(|&v| v == (d.pe_rows, d.pe_cols))
            .expect("decoded coordinate on axis");
        let m = self
            .mem
            .iter()
            .position(|&v| v == d.mem)
            .expect("decoded coordinate on axis");
        let f = self
            .freq_mhz
            .iter()
            .position(|&v| v == d.freq_mhz)
            .expect("decoded coordinate on axis");
        let l = self
            .local_mem_kib
            .iter()
            .position(|&v| v == d.local_mem_kib)
            .expect("decoded coordinate on axis");
        let coords = [s, g, m, f, l];
        let radices = [
            self.sram_mib.len(),
            self.pe_grid.len(),
            self.mem.len(),
            self.freq_mhz.len(),
            self.local_mem_kib.len(),
        ];
        let mut out = Vec::new();
        for axis in 0..coords.len() {
            for step in [-1isize, 1] {
                let pos = coords[axis] as isize + step;
                if pos < 0 || pos >= radices[axis] as isize {
                    continue;
                }
                let mut c = coords;
                c[axis] = pos as usize;
                let idx = (((c[0] * radices[1] + c[1]) * radices[2] + c[2]) * radices[3] + c[3])
                    * radices[4]
                    + c[4];
                out.push(idx);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point_is_the_shipped_sku() {
        // The paper point's spec is the shipped 128 GB SKU, bit for bit.
        assert_eq!(DesignPoint::paper().chip_spec(), chips::mtia2i_128gb());
    }

    #[test]
    fn enumeration_is_mixed_radix_in_declared_axis_order() {
        let s = ChipSpecSpace::tiny();
        assert_eq!(s.len(), 8);
        // Local Memory varies fastest, SRAM slowest.
        assert_eq!(s.candidate(0).local_mem_kib, 256);
        assert_eq!(s.candidate(1).local_mem_kib, 384);
        assert_eq!(s.candidate(0).sram_mib, 128);
        assert_eq!(s.candidate(7).sram_mib, 256);
        let all = s.enumerate();
        for (i, d) in all.iter().enumerate() {
            assert!(!all[..i].contains(d), "{d:?} enumerated twice");
        }
    }

    #[test]
    fn neighbors_step_one_axis_at_a_time() {
        let s = ChipSpecSpace::paper();
        let paper = s
            .enumerate()
            .iter()
            .position(|&d| d == DesignPoint::paper())
            .unwrap();
        let n = s.neighbors(paper);
        // Interior on sram/grid/freq/lm axes, edge on mem (lpddr is
        // first): 2+2+1+2+2 neighbors.
        assert_eq!(n.len(), 9);
        let d = s.candidate(paper);
        for &i in &n {
            let e = s.candidate(i);
            let diffs = [
                d.sram_mib != e.sram_mib,
                (d.pe_rows, d.pe_cols) != (e.pe_rows, e.pe_cols),
                d.mem != e.mem,
                d.freq_mhz != e.freq_mhz,
                d.local_mem_kib != e.local_mem_kib,
            ];
            assert_eq!(diffs.iter().filter(|&&x| x).count(), 1, "{e:?}");
        }
    }

    #[test]
    fn validation_rejects_out_of_range_axes_with_typed_errors() {
        let mut bad = ChipSpecSpace::tiny();
        bad.freq_mhz = vec![1100, 2400];
        assert_eq!(
            bad.validate(),
            Err(ConfigError::OutOfRange {
                what: "explore frequency (MHz)",
                valid: "[800, 2000]",
            })
        );

        let mut misaligned = ChipSpecSpace::tiny();
        misaligned.sram_mib = vec![100];
        assert!(matches!(
            misaligned.validate(),
            Err(ConfigError::MisalignedCapacity { .. })
        ));

        let mut empty = ChipSpecSpace::tiny();
        empty.mem = vec![];
        assert!(matches!(
            empty.validate(),
            Err(ConfigError::OutOfRange { .. })
        ));

        assert_eq!(ChipSpecSpace::paper().validate(), Ok(()));
        assert_eq!(ChipSpecSpace::tiny().validate(), Ok(()));
    }

    #[test]
    fn hbm_candidate_swaps_the_memory_system() {
        let mut p = DesignPoint::paper();
        p.mem = MemTech::Hbm;
        let spec = p.chip_spec();
        assert!(spec.dram.inline_ecc);
        assert!(spec.dram.bandwidth.as_gb_per_s() > 900.0);
    }

    #[test]
    fn local_memory_bandwidth_coscales_with_capacity() {
        let mut small = DesignPoint::paper();
        small.local_mem_kib = 192;
        let spec = small.chip_spec();
        let shipped = chips::mtia2i_128gb();
        let ratio =
            spec.pe.local_memory_bw.as_gb_per_s() / shipped.pe.local_memory_bw.as_gb_per_s();
        assert!((ratio - 0.5).abs() < 1e-12);
    }
}
