//! Hardware specifications for MTIA 1, MTIA 2i, the GPU comparator, and the
//! Grand-Teton-style servers that host them.
//!
//! Every number in [`chips::mtia2i`] and [`chips::mtia1`] comes straight from
//! Table 2 of the paper (plus §3 prose for the NoC, Control Core, and host
//! interface). Peak compute rates are *derived* from the microarchitecture
//! (MAC tiles × PEs × frequency) and unit-tested against the table, so the
//! simulator cannot silently drift from the published specification.
//!
//! # Examples
//!
//! ```
//! use mtia_core::spec::chips;
//! use mtia_core::dtype::DType;
//!
//! let chip = chips::mtia2i();
//! let fp16 = chip.gemm_peak(DType::Fp16, false);
//! assert!((fp16.as_tflops() - 177.0).abs() / 177.0 < 0.01);
//! ```

use std::fmt;

use crate::dtype::DType;
use crate::units::{Bandwidth, Bytes, FlopRate, Hertz, Watts};

/// A value carried per element data type (e.g. SIMD lanes per cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerDtype<T> {
    /// Value for [`DType::Int8`].
    pub int8: T,
    /// Value for [`DType::Fp16`].
    pub fp16: T,
    /// Value for [`DType::Bf16`].
    pub bf16: T,
    /// Value for [`DType::Fp32`].
    pub fp32: T,
}

impl<T: Copy> PerDtype<T> {
    /// Creates a table with the same value for every data type.
    pub fn splat(v: T) -> Self {
        PerDtype {
            int8: v,
            fp16: v,
            bf16: v,
            fp32: v,
        }
    }

    /// Looks up the value for `dtype`.
    pub fn get(&self, dtype: DType) -> T {
        match dtype {
            DType::Int8 => self.int8,
            DType::Fp16 => self.fp16,
            DType::Bf16 => self.bf16,
            DType::Fp32 => self.fp32,
        }
    }
}

/// Optional hardware features, several of which were added in MTIA 2i
/// specifically to remove the instruction-issue bottleneck (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipFeature {
    /// Reduction-Engine min/max + SIMD row-wise scaling for dynamic INT8.
    DynamicInt8,
    /// Lossless ANS weight compression.
    AnsCompression,
    /// 2:4 structured weight sparsity in the DPE.
    Sparsity2To4,
    /// Hardware-accelerated eager-mode job launch (WQ broadcast + WQE).
    FastEagerMode,
    /// Multi-context GEMM custom instructions (avoid re-writing custom regs).
    MultiContextGemm,
    /// Auto-increment offsets for matmul instructions in tight loops.
    AutoIncrementOffset,
    /// `DMA_IN` taking an index and computing the address (TBE acceleration).
    IndexedDma,
    /// Unaligned DMA addresses (absent in MTIA 1).
    UnalignedDma,
    /// SIMD accumulation of up to 128 embedding rows per instruction.
    Accum128Rows,
    /// GZIP decompression engine on the PCIe path (up to 25 GB/s).
    GzipPcie,
    /// NoC broadcast-read support (one DRAM read feeds all PE columns).
    BroadcastRead,
    /// DMA prefetch from DRAM into SRAM ahead of Local Memory loads.
    DmaPrefetch,
}

/// Per-processing-element microarchitecture (Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct PeSpec {
    /// Fast Local Memory per PE (384 KB on MTIA 2i, 128 KB on MTIA 1).
    pub local_memory: Bytes,
    /// Local Memory bandwidth available to the fixed-function units.
    pub local_memory_bw: Bandwidth,
    /// Number of MAC tiles in the Dot Product Engine (2 on MTIA 2i).
    pub dpe_mac_tiles: u32,
    /// MACs per tile (32 × 32 = 1024).
    pub dpe_macs_per_tile: u32,
    /// INT8 MACs run at full rate; FP16/BF16 at half rate.
    pub dpe_fp16_rate_factor: f64,
    /// SIMD-engine lanes (ops/cycle) per data type.
    pub simd_engine_lanes: PerDtype<u32>,
    /// RISC-V vector-extension lanes (ops/cycle) per data type (64 B regs).
    pub vector_lanes: PerDtype<u32>,
    /// Custom instructions the scalar core can issue per cycle.
    pub scalar_issue_per_cycle: f64,
    /// Maximum embedding rows accumulated per SIMD instruction.
    pub max_accum_rows: u32,
}

impl PeSpec {
    /// MAC operations per cycle for `dtype` (each MAC is 2 ops).
    pub fn dpe_ops_per_cycle(&self, dtype: DType) -> f64 {
        let macs = (self.dpe_mac_tiles * self.dpe_macs_per_tile) as f64;
        let rate = if dtype.is_integer() {
            1.0
        } else {
            self.dpe_fp16_rate_factor
        };
        macs * 2.0 * rate
    }
}

/// The shared on-chip SRAM (§3.6): partitioned at a fixed granularity into a
/// hardware-managed cache (LLC) and software-managed scratch (LLS).
#[derive(Debug, Clone, PartialEq)]
pub struct SramSpec {
    /// Total capacity (256 MB on MTIA 2i).
    pub capacity: Bytes,
    /// Aggregate bandwidth (2.7 TB/s on MTIA 2i).
    pub bandwidth: Bandwidth,
    /// Partition granularity between LLC and LLS (32 MB).
    pub partition_granule: Bytes,
}

impl SramSpec {
    /// Number of partition granules.
    pub fn granules(&self) -> u32 {
        (self.capacity.as_u64() / self.partition_granule.as_u64()) as u32
    }
}

/// Off-chip LPDDR5 DRAM.
#[derive(Debug, Clone, PartialEq)]
pub struct DramSpec {
    /// Capacity (64–128 GB on MTIA 2i; we model the base 64 GB SKU unless
    /// overridden).
    pub capacity: Bytes,
    /// Raw bandwidth before any ECC penalty (204.8 GB/s on MTIA 2i).
    pub bandwidth: Bandwidth,
    /// Whether the DRAM devices provide built-in ECC (LPDDR does not; the
    /// memory controller must compute it, costing bandwidth — §5.1).
    pub inline_ecc: bool,
}

/// Network-on-chip parameters (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct NocSpec {
    /// Aggregate bisection bandwidth. The paper gives only the 3.3× ratio
    /// over MTIA 1; absolute values are anchored so the SRAM's 2.7 TB/s can
    /// be delivered with headroom.
    pub bisection_bw: Bandwidth,
    /// Leaky-bucket traffic-shaping burst allowance per initiator.
    pub shaper_burst: Bytes,
    /// Maximum packet (fragment) size used to smooth traffic.
    pub max_fragment: Bytes,
    /// Whether a single read can be broadcast to all PE columns.
    pub broadcast_read: bool,
}

/// Host interface: PCIe, DMA, decompression (§3.1, §3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct HostIfSpec {
    /// PCIe bandwidth per direction (8 × Gen5 = 32 GB/s on MTIA 2i).
    pub pcie_bw: Bandwidth,
    /// GZIP decompression throughput, if the engine is present.
    pub decompress_bw: Option<Bandwidth>,
}

/// Control core: coordinates job launch across the PE grid (§3.1, §3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlSpec {
    /// Number of control cores (4 RISC-V cores on MTIA 2i, 1 ARM on MTIA 1).
    pub cores: u32,
    /// Whether WQ descriptors can be broadcast to PEs (vs sent one by one).
    pub wq_broadcast: bool,
    /// Whether PEs have a Work Queue Engine that DMAs WQ requests.
    pub pe_wqe: bool,
}

/// Complete chip specification (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Marketing name, e.g. `"MTIA 2i"`.
    pub name: String,
    /// Process node, e.g. `"TSMC 5nm"`.
    pub process: String,
    /// Operating frequency (1.35 GHz deployed for MTIA 2i after the §5.2
    /// overclocking study; the design point was 1.1 GHz).
    pub frequency: Hertz,
    /// Original design frequency, before any overclocking.
    pub design_frequency: Hertz,
    /// PE grid rows.
    pub pe_rows: u32,
    /// PE grid columns.
    pub pe_cols: u32,
    /// Per-PE microarchitecture.
    pub pe: PeSpec,
    /// Shared on-chip SRAM.
    pub sram: SramSpec,
    /// Off-chip DRAM.
    pub dram: DramSpec,
    /// Network-on-chip.
    pub noc: NocSpec,
    /// Host interface.
    pub host_if: HostIfSpec,
    /// Control core.
    pub control: ControlSpec,
    /// Thermal design power.
    pub tdp: Watts,
    /// Typical power under production load.
    pub typical_power: Watts,
    /// Die area in mm².
    pub die_area_mm2: f64,
    /// Optional feature set.
    features: Vec<ChipFeature>,
}

impl ChipSpec {
    /// Total number of PEs.
    pub fn pe_count(&self) -> u32 {
        self.pe_rows * self.pe_cols
    }

    /// Whether the chip implements `feature`.
    pub fn has_feature(&self, feature: ChipFeature) -> bool {
        self.features.contains(&feature)
    }

    /// All features the chip implements.
    pub fn features(&self) -> &[ChipFeature] {
        &self.features
    }

    /// Peak GEMM rate for `dtype`, optionally with 2:4 sparsity (which
    /// doubles effective throughput when supported).
    pub fn gemm_peak(&self, dtype: DType, sparsity: bool) -> FlopRate {
        let per_pe = self.pe.dpe_ops_per_cycle(dtype);
        let raw = per_pe * self.pe_count() as f64 * self.frequency.as_hz();
        let factor = if sparsity && self.has_feature(ChipFeature::Sparsity2To4) {
            2.0
        } else {
            1.0
        };
        FlopRate::from_flops_per_s(raw * factor)
    }

    /// Peak SIMD-engine rate for `dtype` across the whole chip.
    pub fn simd_engine_peak(&self, dtype: DType) -> FlopRate {
        let lanes = self.pe.simd_engine_lanes.get(dtype) as f64;
        FlopRate::from_flops_per_s(lanes * self.pe_count() as f64 * self.frequency.as_hz())
    }

    /// Peak RISC-V vector-extension rate for `dtype` across the whole chip.
    pub fn vector_peak(&self, dtype: DType) -> FlopRate {
        let lanes = self.pe.vector_lanes.get(dtype) as f64;
        FlopRate::from_flops_per_s(lanes * self.pe_count() as f64 * self.frequency.as_hz())
    }

    /// Combined non-GEMM vector rate (SIMD engine + vector core can be
    /// pipelined on distinct kernel phases; the better of the two is the
    /// realistic per-kernel peak).
    pub fn simd_best_peak(&self, dtype: DType) -> FlopRate {
        let a = self.simd_engine_peak(dtype);
        let b = self.vector_peak(dtype);
        if a.as_flops_per_s() >= b.as_flops_per_s() {
            a
        } else {
            b
        }
    }

    /// Aggregate Local Memory bandwidth across all PEs.
    pub fn total_local_memory_bw(&self) -> Bandwidth {
        self.pe.local_memory_bw * self.pe_count() as f64
    }

    /// Returns a copy of this spec clocked at `frequency`, scaling the
    /// frequency-proportional rates (compute, SRAM, NoC, Local Memory) but
    /// leaving the DRAM and PCIe interfaces untouched — exactly what chip
    /// overclocking (§5.2) changes.
    #[must_use]
    pub fn at_frequency(&self, frequency: Hertz) -> ChipSpec {
        let ratio = frequency.ratio(self.frequency);
        let mut spec = self.clone();
        spec.frequency = frequency;
        spec.sram.bandwidth = spec.sram.bandwidth.scale(ratio);
        spec.noc.bisection_bw = spec.noc.bisection_bw.scale(ratio);
        spec.pe.local_memory_bw = spec.pe.local_memory_bw.scale(ratio);
        spec
    }

    /// Effective DRAM bandwidth under `ecc`, applying the controller-based
    /// ECC penalty from §5.1 when enabled on DRAM without inline ECC.
    pub fn effective_dram_bw(&self, ecc: EccMode) -> Bandwidth {
        self.dram
            .bandwidth
            .scale(ecc.bandwidth_factor(self.dram.inline_ecc))
    }

    /// A hypothetical variant with a different shared-SRAM capacity —
    /// for the §3.6 design-choice ablation.
    #[must_use]
    pub fn with_sram_capacity(&self, capacity: Bytes) -> ChipSpec {
        let mut spec = self.clone();
        spec.sram.capacity = capacity;
        spec
    }

    /// A hypothetical variant with different off-chip memory (e.g. an HBM
    /// stack instead of LPDDR) — for the §3.6 design-choice ablation.
    /// HBM carries inline ECC, so the §5.1 controller penalty vanishes.
    #[must_use]
    pub fn with_hbm(&self, bandwidth: Bandwidth, capacity: Bytes) -> ChipSpec {
        let mut spec = self.clone();
        spec.dram = DramSpec {
            capacity,
            bandwidth,
            inline_ecc: true,
        };
        spec
    }
}

impl fmt::Display for ChipSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} PEs @ {}, SRAM {} @ {}, DRAM {} @ {})",
            self.name,
            self.process,
            self.pe_count(),
            self.frequency,
            self.sram.capacity,
            self.sram.bandwidth,
            self.dram.capacity,
            self.dram.bandwidth,
        )
    }
}

/// ECC configuration for the LPDDR controller (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EccMode {
    /// No ECC: full bandwidth, memory errors flow into the model.
    Disabled,
    /// Controller-computed ECC: read-modify-write overhead costs 10–15 % of
    /// throughput. We model the midpoint, 12.5 %.
    #[default]
    ControllerEcc,
}

impl EccMode {
    /// Fraction of raw DRAM bandwidth that remains usable.
    pub fn bandwidth_factor(self, inline_ecc: bool) -> f64 {
        match self {
            EccMode::Disabled => 1.0,
            // Inline (on-die) ECC would be free; controller ECC is not.
            EccMode::ControllerEcc if inline_ecc => 1.0,
            EccMode::ControllerEcc => 1.0 - crate::calib::CONTROLLER_ECC_PENALTY,
        }
    }
}

/// A GPU comparator used for all relative Perf/TCO and Perf/Watt results.
///
/// The paper never names its GPU; this is a parametric HBM-class inference
/// GPU whose headline numbers are typical of the A100 generation the MTIA 2i
/// deployment overlapped with. See [`crate::calib`] for how the TCO anchors
/// are backed out of the paper's published ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// Dense FP16 tensor-core peak.
    pub fp16_peak: FlopRate,
    /// Dense INT8 tensor-core peak.
    pub int8_peak: FlopRate,
    /// HBM bandwidth.
    pub hbm_bw: Bandwidth,
    /// HBM capacity.
    pub hbm_capacity: Bytes,
    /// On-chip L2 cache.
    pub l2_capacity: Bytes,
    /// L2 bandwidth.
    pub l2_bw: Bandwidth,
    /// Board TDP.
    pub tdp: Watts,
    /// Typical production power.
    pub typical_power: Watts,
    /// Kernel-launch overhead per kernel (host-driven launch path).
    pub kernel_launch_overhead: crate::units::SimTime,
}

/// A server platform hosting accelerators (§3.4: Grand Teton).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Platform name.
    pub name: String,
    /// CPU sockets.
    pub cpu_sockets: u32,
    /// Cores per CPU socket.
    pub cores_per_socket: u32,
    /// Host DRAM per socket.
    pub host_dram_per_socket: Bytes,
    /// Host DRAM bandwidth per socket.
    pub host_dram_bw_per_socket: Bandwidth,
    /// Ethernet NIC bandwidth per socket.
    pub nic_bw_per_socket: Bandwidth,
    /// Accelerators per server.
    pub accelerators: u32,
    /// Accelerators sharing one PCIe switch (sharding locality domain).
    pub accels_per_pcie_switch: u32,
    /// Non-accelerator power draw (CPUs, DRAM, fans, NICs, motherboard).
    pub host_power: Watts,
}

impl ServerSpec {
    /// Host DRAM bandwidth available per accelerator when all accelerators
    /// are drawing on it simultaneously — the §3.4 bottleneck.
    pub fn host_dram_bw_per_accel(&self) -> Bandwidth {
        (self.host_dram_bw_per_socket * self.cpu_sockets as f64) / self.accelerators as f64
    }
}

/// Canonical chip and server instances.
pub mod chips {
    use super::*;
    use crate::units::SimTime;

    /// MTIA 2i as deployed (Table 2, right column; 1.35 GHz after the §5.2
    /// overclocking study).
    pub fn mtia2i() -> ChipSpec {
        ChipSpec {
            name: "MTIA 2i".to_string(),
            process: "TSMC 5nm".to_string(),
            frequency: Hertz::from_ghz(1.35),
            design_frequency: Hertz::from_ghz(1.1),
            pe_rows: 8,
            pe_cols: 8,
            pe: PeSpec {
                local_memory: Bytes::from_kib(384),
                local_memory_bw: Bandwidth::from_tb_per_s(1.0),
                dpe_mac_tiles: 2,
                dpe_macs_per_tile: 32 * 32,
                dpe_fp16_rate_factor: 0.5,
                // The SIMD Engine sustains 64 lanes for every dtype (5.5
                // TOPS chip-wide): 2× FP16 and 4× BF16/FP32 vs the vector
                // core (§3.2).
                simd_engine_lanes: PerDtype::splat(64),
                // 64 B vector registers: 64/size_bytes lanes.
                vector_lanes: PerDtype {
                    int8: 64,
                    fp16: 32,
                    bf16: 16,
                    fp32: 16,
                },
                scalar_issue_per_cycle: 0.5,
                max_accum_rows: 128,
            },
            sram: SramSpec {
                capacity: Bytes::from_mib(256),
                bandwidth: Bandwidth::from_tb_per_s(2.7),
                partition_granule: Bytes::from_mib(32),
            },
            dram: DramSpec {
                capacity: Bytes::from_gib(64),
                bandwidth: Bandwidth::from_gb_per_s(204.8),
                inline_ecc: false,
            },
            noc: NocSpec {
                bisection_bw: Bandwidth::from_tb_per_s(3.0),
                shaper_burst: Bytes::from_kib(64),
                max_fragment: Bytes::from_kib(4),
                broadcast_read: true,
            },
            host_if: HostIfSpec {
                pcie_bw: Bandwidth::from_gb_per_s(32.0),
                decompress_bw: Some(Bandwidth::from_gb_per_s(25.0)),
            },
            control: ControlSpec {
                cores: 4,
                wq_broadcast: true,
                pe_wqe: true,
            },
            tdp: Watts::new(85.0),
            typical_power: Watts::new(65.0),
            die_area_mm2: 25.6 * 16.4,
            features: vec![
                ChipFeature::DynamicInt8,
                ChipFeature::AnsCompression,
                ChipFeature::Sparsity2To4,
                ChipFeature::FastEagerMode,
                ChipFeature::MultiContextGemm,
                ChipFeature::AutoIncrementOffset,
                ChipFeature::IndexedDma,
                ChipFeature::UnalignedDma,
                ChipFeature::Accum128Rows,
                ChipFeature::GzipPcie,
                ChipFeature::BroadcastRead,
                ChipFeature::DmaPrefetch,
            ],
        }
    }

    /// MTIA 2i with the 128 GB LPDDR SKU (Table 2 lists 64–128 GB; the
    /// larger SKU serves the big-embedding ranking models).
    pub fn mtia2i_128gb() -> ChipSpec {
        let mut spec = mtia2i();
        spec.dram.capacity = Bytes::from_gib(128);
        spec
    }

    /// MTIA 2i at its original 1.1 GHz design frequency (pre-overclocking).
    pub fn mtia2i_design_freq() -> ChipSpec {
        let spec = mtia2i();
        let design = spec.design_frequency;
        spec.at_frequency(design)
    }

    /// MTIA 2i with the §3.3 instruction-issue enhancements removed —
    /// the "initial kernel implementation" baseline that was bottlenecked by
    /// the custom-instruction issue rate.
    pub fn mtia2i_without_issue_enhancements() -> ChipSpec {
        let mut spec = mtia2i();
        spec.name = "MTIA 2i (no issue enhancements)".to_string();
        spec.features.retain(|f| {
            !matches!(
                f,
                ChipFeature::MultiContextGemm
                    | ChipFeature::AutoIncrementOffset
                    | ChipFeature::IndexedDma
                    | ChipFeature::Accum128Rows
                    | ChipFeature::DmaPrefetch
            )
        });
        spec.pe.max_accum_rows = 32;
        spec
    }

    /// MTIA 1 (Table 2, left column).
    pub fn mtia1() -> ChipSpec {
        ChipSpec {
            name: "MTIA 1".to_string(),
            process: "TSMC 7nm".to_string(),
            frequency: Hertz::from_mhz(800.0),
            design_frequency: Hertz::from_mhz(800.0),
            pe_rows: 8,
            pe_cols: 8,
            pe: PeSpec {
                local_memory: Bytes::from_kib(128),
                local_memory_bw: Bandwidth::from_gb_per_s(400.0),
                dpe_mac_tiles: 1,
                dpe_macs_per_tile: 32 * 32,
                dpe_fp16_rate_factor: 0.5,
                // MTIA 1's SIMD engine matches its vector core widths.
                simd_engine_lanes: PerDtype {
                    int8: 64,
                    fp16: 32,
                    bf16: 16,
                    fp32: 16,
                },
                vector_lanes: PerDtype {
                    int8: 64,
                    fp16: 32,
                    bf16: 16,
                    fp32: 16,
                },
                scalar_issue_per_cycle: 0.5,
                max_accum_rows: 32,
            },
            sram: SramSpec {
                capacity: Bytes::from_mib(128),
                bandwidth: Bandwidth::from_gb_per_s(800.0),
                partition_granule: Bytes::from_mib(16),
            },
            dram: DramSpec {
                capacity: Bytes::from_gib(32),
                bandwidth: Bandwidth::from_gb_per_s(176.0),
                inline_ecc: false,
            },
            noc: NocSpec {
                bisection_bw: Bandwidth::from_gb_per_s(900.0),
                shaper_burst: Bytes::from_kib(64),
                max_fragment: Bytes::from_kib(4),
                broadcast_read: false,
            },
            host_if: HostIfSpec {
                pcie_bw: Bandwidth::from_gb_per_s(16.0),
                decompress_bw: None,
            },
            control: ControlSpec {
                cores: 1,
                wq_broadcast: false,
                pe_wqe: false,
            },
            tdp: Watts::new(35.0),
            typical_power: Watts::new(25.0),
            die_area_mm2: 19.3 * 19.1,
            features: vec![],
        }
    }

    /// The parametric GPU comparator: an H100-generation inference GPU,
    /// the contemporary of the 2024 MTIA 2i deployment.
    pub fn gpu_baseline() -> GpuSpec {
        GpuSpec {
            name: "GPU baseline".to_string(),
            fp16_peak: FlopRate::from_tflops(989.0),
            int8_peak: FlopRate::from_tflops(1979.0),
            hbm_bw: Bandwidth::from_tb_per_s(3.35),
            hbm_capacity: Bytes::from_gib(80),
            l2_capacity: Bytes::from_mib(50),
            l2_bw: Bandwidth::from_tb_per_s(12.0),
            tdp: Watts::new(700.0),
            typical_power: Watts::new(560.0),
            kernel_launch_overhead: SimTime::from_micros(2),
        }
    }

    /// An A100-generation comparator, for sensitivity analysis of the
    /// GPU-baseline calibration.
    pub fn gpu_a100() -> GpuSpec {
        GpuSpec {
            name: "GPU baseline (A100-class)".to_string(),
            fp16_peak: FlopRate::from_tflops(312.0),
            int8_peak: FlopRate::from_tflops(624.0),
            hbm_bw: Bandwidth::from_tb_per_s(2.0),
            hbm_capacity: Bytes::from_gib(80),
            l2_capacity: Bytes::from_mib(40),
            l2_bw: Bandwidth::from_tb_per_s(6.0),
            tdp: Watts::new(400.0),
            typical_power: Watts::new(330.0),
            kernel_launch_overhead: SimTime::from_micros(2),
        }
    }

    /// Grand-Teton-style MTIA 2i server: 2 CPUs, 24 accelerators (§3.4).
    pub fn mtia_server() -> ServerSpec {
        ServerSpec {
            name: "Grand Teton (MTIA 2i)".to_string(),
            cpu_sockets: 2,
            cores_per_socket: 96,
            host_dram_per_socket: Bytes::from_gib(12 * 96),
            host_dram_bw_per_socket: Bandwidth::from_gb_per_s(460.0),
            nic_bw_per_socket: Bandwidth::from_gb_per_s(50.0),
            accelerators: 24,
            accels_per_pcie_switch: 12,
            host_power: Watts::new(crate::calib::MTIA_SERVER_HOST_POWER_W),
        }
    }

    /// Grand-Teton-style GPU server: 2 CPUs, 8 GPUs.
    pub fn gpu_server() -> ServerSpec {
        ServerSpec {
            name: "Grand Teton (GPU)".to_string(),
            cpu_sockets: 2,
            cores_per_socket: 96,
            host_dram_per_socket: Bytes::from_gib(12 * 96),
            host_dram_bw_per_socket: Bandwidth::from_gb_per_s(460.0),
            nic_bw_per_socket: Bandwidth::from_gb_per_s(50.0),
            accelerators: 8,
            accels_per_pcie_switch: 4,
            host_power: Watts::new(crate::calib::GPU_SERVER_HOST_POWER_W),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::chips::*;
    use super::*;

    fn close(actual: f64, expected: f64, tol: f64) -> bool {
        (actual - expected).abs() / expected.abs() <= tol
    }

    #[test]
    fn mtia2i_gemm_peaks_match_table2() {
        let chip = mtia2i();
        // 354 TOPS INT8, 177 TFLOPS FP16/BF16 (Table 2), derived from
        // 64 PEs × 2 tiles × 1024 MACs × 2 ops × 1.35 GHz.
        assert!(close(
            chip.gemm_peak(DType::Int8, false).as_tflops(),
            354.0,
            0.01
        ));
        assert!(close(
            chip.gemm_peak(DType::Fp16, false).as_tflops(),
            177.0,
            0.01
        ));
        assert!(close(
            chip.gemm_peak(DType::Bf16, false).as_tflops(),
            177.0,
            0.01
        ));
        // 2:4 sparsity doubles: 708 / 354.
        assert!(close(
            chip.gemm_peak(DType::Int8, true).as_tflops(),
            708.0,
            0.01
        ));
        assert!(close(
            chip.gemm_peak(DType::Fp16, true).as_tflops(),
            354.0,
            0.01
        ));
    }

    #[test]
    fn mtia2i_simd_peaks_match_table2() {
        let chip = mtia2i();
        // Vector core: 5.5 INT8, 2.8 FP16, 1.4 BF16/FP32 TOPS.
        assert!(close(chip.vector_peak(DType::Int8).as_tflops(), 5.5, 0.01));
        assert!(close(chip.vector_peak(DType::Fp16).as_tflops(), 2.8, 0.02));
        assert!(close(chip.vector_peak(DType::Fp32).as_tflops(), 1.4, 0.02));
        // SIMD engine: 5.5 TOPS for all dtypes.
        for dt in DType::ALL {
            assert!(close(chip.simd_engine_peak(dt).as_tflops(), 5.5, 0.01));
        }
    }

    #[test]
    fn mtia2i_gemm_to_simd_ratio_is_32() {
        let chip = mtia2i();
        let ratio = chip.gemm_peak(DType::Fp16, false).as_flops_per_s()
            / chip.simd_engine_peak(DType::Fp32).as_flops_per_s();
        assert!(close(ratio, 32.0, 0.01), "GEMM:SIMD ratio was {ratio}");
    }

    #[test]
    fn mtia1_peaks_match_table2() {
        let chip = mtia1();
        // Table 2 lists 102.4 INT8 / 51.2 FP16 TOPS for MTIA 1; the derived
        // value 64 × 1024 × 2 × 0.8 GHz = 104.9 is within rounding of that.
        assert!(close(
            chip.gemm_peak(DType::Int8, false).as_tflops(),
            102.4,
            0.03
        ));
        assert!(close(
            chip.gemm_peak(DType::Fp16, false).as_tflops(),
            51.2,
            0.03
        ));
        assert!(close(chip.vector_peak(DType::Int8).as_tflops(), 3.2, 0.03));
        assert!(close(chip.vector_peak(DType::Fp16).as_tflops(), 1.6, 0.03));
        assert!(!chip.has_feature(ChipFeature::Sparsity2To4));
    }

    #[test]
    fn generational_ratios_match_paper() {
        // §1: >3× peak FLOPS, >3× SRAM bandwidth, >3× NoC bandwidth,
        // 2× DRAM capacity, ~1.4× DRAM bandwidth, 3× local memory.
        let gen1 = mtia1();
        let gen2 = mtia2i();
        let flops_ratio = gen2.gemm_peak(DType::Int8, false).as_flops_per_s()
            / gen1.gemm_peak(DType::Int8, false).as_flops_per_s();
        assert!(flops_ratio > 3.0, "FLOPS ratio {flops_ratio}");
        let sram_bw_ratio =
            gen2.sram.bandwidth.as_bytes_per_s() / gen1.sram.bandwidth.as_bytes_per_s();
        assert!(sram_bw_ratio > 3.0, "SRAM BW ratio {sram_bw_ratio}");
        let noc_ratio =
            gen2.noc.bisection_bw.as_bytes_per_s() / gen1.noc.bisection_bw.as_bytes_per_s();
        assert!(close(noc_ratio, 3.3, 0.05), "NoC ratio {noc_ratio}");
        assert_eq!(gen2.dram.capacity.as_u64(), gen1.dram.capacity.as_u64() * 2);
        let dram_bw_ratio =
            gen2.dram.bandwidth.as_bytes_per_s() / gen1.dram.bandwidth.as_bytes_per_s();
        assert!(close(dram_bw_ratio, 204.8 / 176.0, 0.01));
        assert_eq!(
            gen2.pe.local_memory.as_u64(),
            gen1.pe.local_memory.as_u64() * 3
        );
    }

    #[test]
    fn sram_to_dram_bandwidth_gap_is_13x() {
        // §3.6: "2.7 TB/s ... whereas LPDDR offers just 204 GB/s — a 13×
        // difference".
        let chip = mtia2i();
        let gap = chip.sram.bandwidth.as_bytes_per_s() / chip.dram.bandwidth.as_bytes_per_s();
        assert!(close(gap, 13.2, 0.02), "gap {gap}");
    }

    #[test]
    fn sram_partitions_into_eight_granules() {
        assert_eq!(mtia2i().sram.granules(), 8);
    }

    #[test]
    fn at_frequency_scales_core_rates_only() {
        let base = mtia2i_design_freq();
        assert!(close(base.frequency.as_ghz(), 1.1, 1e-9));
        let oc = base.at_frequency(Hertz::from_ghz(1.35));
        let ratio = 1.35 / 1.1;
        assert!(close(
            oc.gemm_peak(DType::Fp16, false).as_flops_per_s()
                / base.gemm_peak(DType::Fp16, false).as_flops_per_s(),
            ratio,
            1e-6
        ));
        assert!(close(
            oc.sram.bandwidth.as_bytes_per_s() / base.sram.bandwidth.as_bytes_per_s(),
            ratio,
            1e-6
        ));
        // DRAM and PCIe are unchanged by overclocking the core.
        assert_eq!(oc.dram.bandwidth, base.dram.bandwidth);
        assert_eq!(oc.host_if.pcie_bw, base.host_if.pcie_bw);
    }

    #[test]
    fn ecc_penalty_only_applies_without_inline_ecc() {
        let chip = mtia2i();
        let raw = chip.effective_dram_bw(EccMode::Disabled);
        let ecc = chip.effective_dram_bw(EccMode::ControllerEcc);
        let penalty = 1.0 - ecc.as_bytes_per_s() / raw.as_bytes_per_s();
        // §5.1: 10–15 % throughput penalty.
        assert!((0.10..=0.15).contains(&penalty), "penalty {penalty}");

        let mut inline = chip.clone();
        inline.dram.inline_ecc = true;
        assert_eq!(
            inline.effective_dram_bw(EccMode::ControllerEcc),
            inline.effective_dram_bw(EccMode::Disabled)
        );
    }

    #[test]
    fn issue_enhancement_stripping() {
        let full = mtia2i();
        let bare = mtia2i_without_issue_enhancements();
        assert!(full.has_feature(ChipFeature::AutoIncrementOffset));
        assert!(!bare.has_feature(ChipFeature::AutoIncrementOffset));
        assert!(!bare.has_feature(ChipFeature::IndexedDma));
        assert_eq!(bare.pe.max_accum_rows, 32);
        // Non-issue features are retained.
        assert!(bare.has_feature(ChipFeature::Sparsity2To4));
    }

    #[test]
    fn server_per_accel_resources_match_section_3_4() {
        // §3.4: 8 cores, 96 GB host DRAM at 38 GB/s, 4.17 GB/s NIC per
        // accelerator.
        let server = mtia_server();
        let per_accel = |total: f64| total / server.accelerators as f64;
        assert_eq!(
            per_accel((server.cpu_sockets * server.cores_per_socket) as f64),
            8.0
        );
        assert!(close(
            server.host_dram_bw_per_accel().as_gb_per_s(),
            38.3,
            0.01
        ));
        assert!(close(
            per_accel(server.nic_bw_per_socket.as_gb_per_s() * server.cpu_sockets as f64),
            4.17,
            0.01
        ));
        assert_eq!(server.accelerators, 24);
        assert_eq!(server.accels_per_pcie_switch, 12);
    }

    #[test]
    fn per_dtype_lookup() {
        let t = PerDtype {
            int8: 1,
            fp16: 2,
            bf16: 3,
            fp32: 4,
        };
        assert_eq!(t.get(DType::Int8), 1);
        assert_eq!(t.get(DType::Fp16), 2);
        assert_eq!(t.get(DType::Bf16), 3);
        assert_eq!(t.get(DType::Fp32), 4);
        assert_eq!(PerDtype::splat(7).get(DType::Bf16), 7);
    }

    #[test]
    fn chip_display_mentions_name() {
        let s = mtia2i().to_string();
        assert!(s.contains("MTIA 2i"));
        assert!(s.contains("64 PEs"));
    }
}
