//! Availability / latency reports for fault-injected serving runs.

use std::fmt;

use mtia_core::telemetry::LatencyHistogram;

/// Outcome of one policy run under one fault trace.
#[derive(Debug, Clone, Default)]
pub struct ResilienceReport {
    /// Which dispatch policy produced this report.
    pub policy: &'static str,
    /// The seed the run (fault plan + arrivals + jitter) derives from.
    pub seed: u64,
    /// [`FaultPlan::fingerprint`](mtia_sim::faults::FaultPlan::fingerprint)
    /// of the injected trace — equal fingerprints mean "compared under
    /// identical fault traces".
    pub fault_fingerprint: u64,
    /// Requests that arrived (including ones later shed/dropped).
    pub offered: u64,
    /// Requests that completed their merge.
    pub completed: u64,
    /// Requests rejected up front by the degradation controller.
    pub shed: u64,
    /// Requests abandoned mid-flight (retry budget or deadline
    /// exhausted, or failed with no retry policy).
    pub dropped: u64,
    /// Requests still incomplete at the end of the horizon (e.g. jobs
    /// lost inside a hung §5.5 device under the naive policy).
    pub stuck: u64,
    /// Individual job retries issued.
    pub retries: u64,
    /// Hedged duplicate jobs issued.
    pub hedges: u64,
    /// Injected job failures observed (DBE, transient, link loss kills).
    pub job_failures: u64,
    /// End-to-end latency of completed requests (post-warmup).
    pub request_latency: LatencyHistogram,
    /// Merge-ticket queueing delay, enqueue → dispatch (post-warmup).
    pub merge_wait: LatencyHistogram,
    /// Remote-phase latency, arrival → last remote completion (post-warmup).
    pub remote_latency: LatencyHistogram,
    /// Post-warmup completions per second of the measured window.
    pub throughput_per_s: f64,
    /// Σ dispatched job occupancy / (devices × end), capped at 1.
    pub utilization: f64,
    /// Mean fraction of the pool that was dispatchable.
    pub availability: f64,
}

impl ResilienceReport {
    /// Completed / offered, counting shed and dropped and stuck requests
    /// as failures.
    pub fn success_rate(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.completed as f64 / self.offered as f64
    }
}

impl fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} policy (seed {}, trace {:016x})",
            self.policy, self.seed, self.fault_fingerprint
        )?;
        writeln!(
            f,
            "  requests: {} offered, {} ok ({:.2}%), {} shed, {} dropped, {} stuck",
            self.offered,
            self.completed,
            100.0 * self.success_rate(),
            self.shed,
            self.dropped,
            self.stuck
        )?;
        writeln!(
            f,
            "  faults:   {} job failures absorbed with {} retries, {} hedges",
            self.job_failures, self.retries, self.hedges
        )?;
        writeln!(f, "  latency:  {}", self.request_latency)?;
        write!(f, "  availability: {:.2}%", 100.0 * self.availability)
    }
}

/// Side-by-side result of the naive baseline and the resilient policy
/// under the same fault trace.
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// FIFO baseline: no health checks, no retries, no shedding.
    pub naive: ResilienceReport,
    /// Health-aware dispatch with retry/hedge/degradation.
    pub resilient: ResilienceReport,
}

impl PolicyComparison {
    /// Whether both runs really saw the same injected trace.
    pub fn same_trace(&self) -> bool {
        self.naive.fault_fingerprint == self.resilient.fault_fingerprint
    }

    /// Resilient P99 relative to naive P99 (`< 1` means the resilient
    /// policy also improved the tail).
    pub fn p99_ratio(&self) -> f64 {
        let naive = self.naive.request_latency.p99();
        let resilient = self.resilient.request_latency.p99();
        resilient.ratio(naive.max(mtia_core::SimTime::from_picos(1)))
    }
}

impl fmt::Display for PolicyComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.naive)?;
        writeln!(f, "{}", self.resilient)?;
        write!(
            f,
            "  identical traces: {} | success {:.2}% → {:.2}% | p99 {} → {}",
            self.same_trace(),
            100.0 * self.naive.success_rate(),
            100.0 * self.resilient.success_rate(),
            self.naive.request_latency.p99(),
            self.resilient.request_latency.p99(),
        )
    }
}
