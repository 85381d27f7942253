//! Host-side resources in the dense 24-accelerator server (§3.4).
//!
//! Packing 24 accelerators per server amortizes host costs but makes host
//! DRAM bandwidth the bottleneck "when running low-complexity models on all
//! 24 accelerators at the same time". The mitigations modelled here are the
//! paper's: eliminating redundant input-tensor copies and offloading the
//! FP32→FP16 cast to the accelerator, halving transferred bytes.

use mtia_core::spec::ServerSpec;
use mtia_core::units::{Bytes, SimTime};

/// Host-pipeline configuration for one model deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostPipeline {
    /// Input bytes per sample as produced by feature extraction (FP32).
    pub input_bytes_per_sample: Bytes,
    /// Host-memory copies each input byte makes before reaching PCIe
    /// (2 naive: extract → staging → pinned; 1 after copy elimination).
    pub memory_copies: u32,
}

impl HostPipeline {
    /// The unoptimized pipeline.
    pub fn naive(input_bytes_per_sample: Bytes) -> Self {
        HostPipeline {
            input_bytes_per_sample,
            memory_copies: 2,
        }
    }

    /// The §3.4-optimized pipeline: one copy pass, with the FP32→FP16
    /// cast offloaded to the accelerator.
    pub fn optimized(input_bytes_per_sample: Bytes) -> Self {
        HostPipeline {
            input_bytes_per_sample,
            memory_copies: 1,
        }
    }

    /// Bytes of host-DRAM traffic per sample: each copy pass reads and
    /// writes the buffer once. The optimized pipeline folds the FP16
    /// conversion into its single remaining pass, so the host never touches
    /// a second full-width copy.
    pub fn host_bytes_per_sample(&self) -> Bytes {
        self.input_bytes_per_sample * (2 * self.memory_copies) as u64
    }
}

/// Host-bound throughput for one accelerator's share of the server, in
/// samples/second.
pub fn host_bound_samples_per_s(server: &ServerSpec, pipeline: &HostPipeline) -> f64 {
    let bw = server.host_dram_bw_per_accel();
    bw.as_bytes_per_s() / pipeline.host_bytes_per_sample().as_f64()
}

/// Effective per-accelerator throughput: the slower of device and host.
pub fn effective_samples_per_s(
    server: &ServerSpec,
    pipeline: &HostPipeline,
    device_samples_per_s: f64,
) -> f64 {
    device_samples_per_s.min(host_bound_samples_per_s(server, pipeline))
}

/// Host time to stage one batch of `batch` samples.
pub fn host_time_per_batch(server: &ServerSpec, pipeline: &HostPipeline, batch: u64) -> SimTime {
    let rate = host_bound_samples_per_s(server, pipeline);
    SimTime::from_secs_f64(batch as f64 / rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtia_core::spec::chips;

    #[test]
    fn low_complexity_models_are_host_bound_naive() {
        // §3.4: host DRAM bandwidth bottlenecks low-complexity models on
        // all 24 accelerators. Retrieval-class input: ~8 KB/sample FP32
        // (user + ad feature blobs).
        let server = chips::mtia_server();
        let pipeline = HostPipeline::naive(Bytes::from_kib(8));
        let host = host_bound_samples_per_s(&server, &pipeline);
        // A low-complexity model sustains ~2M samples/s on the device.
        let device = 2_000_000.0;
        let effective = effective_samples_per_s(&server, &pipeline, device);
        assert!(
            effective < device,
            "host must bind: host {host}, device {device}"
        );
        assert_eq!(effective, host);
    }

    #[test]
    fn optimizations_halve_host_traffic() {
        let naive = HostPipeline::naive(Bytes::from_kib(4));
        let optimized = HostPipeline::optimized(Bytes::from_kib(4));
        let ratio =
            naive.host_bytes_per_sample().as_f64() / optimized.host_bytes_per_sample().as_f64();
        assert!(
            (ratio - 2.0).abs() < 1e-9,
            "copy elimination halves traffic: {ratio}"
        );
        let server = chips::mtia_server();
        assert!(
            host_bound_samples_per_s(&server, &optimized)
                > 1.9 * host_bound_samples_per_s(&server, &naive)
        );
    }

    #[test]
    fn high_complexity_models_are_device_bound() {
        let server = chips::mtia_server();
        let pipeline = HostPipeline::optimized(Bytes::from_kib(4));
        // HC models run ~50k samples/s per device.
        let device = 50_000.0;
        assert_eq!(effective_samples_per_s(&server, &pipeline, device), device);
    }

    #[test]
    fn batch_staging_time_scales() {
        let server = chips::mtia_server();
        let pipeline = HostPipeline::optimized(Bytes::from_kib(4));
        let t1 = host_time_per_batch(&server, &pipeline, 512);
        let t2 = host_time_per_batch(&server, &pipeline, 1024);
        let ratio = t2.as_secs_f64() / t1.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-6);
    }
}
