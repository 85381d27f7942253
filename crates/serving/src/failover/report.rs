//! Availability scorecards for failover runs.

use mtia_core::SimTime;

use mtia_core::telemetry::LatencyHistogram;

/// What one cell-failover run produced. All counters are exact event
/// counts; latency histograms exclude the warmup window.
#[derive(Debug, Clone, Default)]
pub struct FailoverReport {
    /// Placement policy name (`"naive"` / `"domain-aware"`).
    pub placement: &'static str,
    /// Whether promotion/restore/re-replication machinery was on.
    pub failover_enabled: bool,
    /// The run's base seed.
    pub seed: u64,
    /// Fingerprint of the injected fault plan (trace identity).
    pub fault_fingerprint: u64,
    /// Requests offered (admitted + shed, minus horizon truncation).
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by the degradation controller.
    pub shed: u64,
    /// Requests lost forever: deadline expired while their shard had no
    /// serving replica, or killed with failover disabled.
    pub lost: u64,
    /// In-flight jobs killed by a fault and requeued (failover only).
    pub requeued: u64,
    /// Replica promotions (a secondary took over a lost primary).
    pub promotions: u64,
    /// Warm restarts completed from checkpoint.
    pub restores: u64,
    /// Replicas rebuilt onto spare devices.
    pub rereplications: u64,
    /// Checkpoints taken across all shards.
    pub checkpoints: u64,
    /// Order-sensitive fold of every checkpoint fingerprint: a single
    /// word witnessing that two runs checkpointed identical state.
    pub checkpoint_fingerprint: u64,
    /// Total shard-outage time summed over shards (a shard counts as
    /// out while it has no serving-capable replica).
    pub unavailable: SimTime,
    /// Longest single shard outage — the measured recovery time.
    pub recovery_time: SimTime,
    /// End-to-end latency of completed requests.
    pub request_latency: LatencyHistogram,
    /// Latency of requests that arrived while their shard was below
    /// full replication (the incident window).
    pub incident_latency: LatencyHistogram,
    /// Mean dispatchable fraction of the device pool over the run.
    pub device_availability: f64,
}

impl FailoverReport {
    /// Completed fraction of offered load — the availability headline.
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.completed as f64 / self.offered as f64
    }

    /// Requests neither completed nor accounted (shed/lost) — zero in a
    /// fully-drained run; used by tests as a conservation check.
    pub fn unaccounted(&self) -> u64 {
        self.offered - self.completed - self.shed - self.lost
    }
}

/// Naive vs domain-aware failover on byte-identical traces.
#[derive(Debug, Clone)]
pub struct FailoverComparison {
    /// Contiguous placement, failover machinery off.
    pub naive: FailoverReport,
    /// Anti-affinity placement, failover machinery on.
    pub domain_aware: FailoverReport,
}

impl FailoverComparison {
    /// Both arms saw the same fault trace (fingerprints match).
    pub fn same_trace(&self) -> bool {
        self.naive.fault_fingerprint == self.domain_aware.fault_fingerprint
    }

    /// Goodput advantage of domain-aware failover, in percentage points.
    pub fn goodput_gain_pp(&self) -> f64 {
        (self.domain_aware.goodput() - self.naive.goodput()) * 100.0
    }
}
