//! Scorecards for global-routing runs.

use mtia_core::SimTime;

use mtia_core::telemetry::LatencyHistogram;

use super::TIMELINE_BUCKET;

/// What one global-serving run produced. All counters are exact event
/// counts over a fully-drained run, so the conservation identity
/// `offered == served_full + served_degraded + shed + lost` holds
/// exactly ([`GlobalReport::unaccounted`] returns the residue).
#[derive(Debug, Clone, Default)]
pub struct GlobalReport {
    /// Routing arm name (`"static-local"`, `"global-router"`,
    /// `"outlier-hedge"`, `"naive-retry"` or `"overload-resilient"`; see
    /// [`RoutingPolicy::name`](super::RoutingPolicy::name)).
    pub policy: &'static str,
    /// The run's base seed.
    pub seed: u64,
    /// Fingerprint of the injected fault plan (trace identity).
    pub fault_fingerprint: u64,
    /// Fingerprint of the regional arrival trace (trace identity).
    pub trace_fingerprint: u64,
    /// Requests offered at region ingress.
    pub offered: u64,
    /// Requests served at full fidelity.
    pub served_full: u64,
    /// Requests served in tier-2 degraded mode (stale/truncated — still
    /// a response, so they count toward goodput).
    pub served_degraded: u64,
    /// Low-priority requests shed by tier 1 of the ladder.
    pub shed: u64,
    /// Requests lost: unroutable at ingress, killed in flight by a
    /// fault, or queued past the deadline.
    pub lost: u64,
    /// Of `lost`: no reachable dispatchable pod existed at ingress.
    pub lost_unroutable: u64,
    /// Of `lost`: in flight on capacity that a fault took down.
    pub lost_killed: u64,
    /// Of `lost`: waited in a pod queue past the deadline.
    pub lost_deadline: u64,
    /// Requests routed to a pod outside their ingress region.
    pub spillover: u64,
    /// Hedge copies issued for requests outstanding past the pod's
    /// quantile deadline (GrayResilient arm only; zero elsewhere).
    pub hedges_issued: u64,
    /// Served requests whose *winning* copy was the hedge, not the
    /// primary — the direct payoff of re-issuing.
    pub hedge_wins: u64,
    /// Duplicate copies that completed (or were killed) after their
    /// request had already been answered — exact double-work
    /// accounting; these never count as served.
    pub duplicates_suppressed: u64,
    /// Duplicate copies dropped *before* dispatch because their request
    /// was already answered while they queued — hedges that cost
    /// nothing but a queue slot.
    pub hedges_cancelled: u64,
    /// Retry copies minted by the client-side attempt timer (the
    /// retrying arms only; zero elsewhere).
    pub retries_issued: u64,
    /// Retry copies the per-pod token-bucket budget refused to mint —
    /// demand the defense deliberately dropped instead of amplifying.
    pub retries_shed: u64,
    /// Circuit-breaker transitions into `Open` (per (ingress, pod)
    /// edge; both `Closed → Open` and a failed half-open probe count).
    pub breaker_opens: u64,
    /// Copies cancelled at admission because their remaining deadline
    /// budget could not cover the target pod's expected queue + service
    /// time (deadline propagation).
    pub cancelled_at_admission: u64,
    /// Autoscaler capacity transitions: every reserve-device activation
    /// or deactivation counts one.
    pub scale_events: u64,
    /// Sustained latency outliers demoted by the peer-relative detector
    /// (device-level probation events, not request counts).
    pub outlier_demotions: u64,
    /// Device-down transitions from fail-stop faults (per-device
    /// capacity kills, as opposed to fail-slow degradation).
    pub device_downs: u64,
    /// Simulated events processed by the DES loop over the whole run —
    /// the raw-throughput denominator `--bench-perf` reports events/sec
    /// against. Purely observational; never feeds back into routing.
    pub events: u64,
    /// End-to-end latency of served requests (both tiers).
    pub request_latency: LatencyHistogram,
    /// End-to-end latency of cross-region (spillover) requests only —
    /// includes the two WAN crossings.
    pub spillover_latency: LatencyHistogram,
    /// Longest single window during which any pod sat at zero capacity
    /// — the measured pod-recovery time.
    pub recovery_time: SimTime,
    /// Minimum over all arrival instants of the fleet's free-capacity
    /// fraction (free slots over up slots) — how close the surviving
    /// fleet came to saturation.
    pub capacity_headroom: f64,
    /// `routed[ingress_region][pod]`: exact request counts per
    /// (ingress, destination) pair — the witness the partition property
    /// test audits.
    pub routed: Vec<Vec<u64>>,
    /// Goodput timeline: per arrival-time bucket
    /// ([`TIMELINE_BUCKET`] wide), how many requests
    /// *arrived* in the bucket and how many of those were eventually
    /// served (either tier). Keyed by arrival instant, not completion,
    /// so windows line up across arms — the witness behind the
    /// metastability verdict (goodput staying depressed *after* a
    /// trigger clears).
    pub timeline: Vec<TimelineBucket>,
}

/// One arrival-time bucket of the goodput timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineBucket {
    /// Requests that arrived in this bucket.
    pub offered: u64,
    /// Of those, requests eventually served (full or degraded).
    pub served: u64,
}

impl GlobalReport {
    /// A report with every counter zero, empty histograms and timeline,
    /// full headroom, and a zeroed `regions × pods` routing matrix —
    /// what a run counts into, and what a merge folds cells into.
    /// Identity fields not passed here (fingerprints, `offered`) start
    /// at zero.
    pub(super) fn empty(policy: &'static str, seed: u64, regions: usize, pods: usize) -> Self {
        GlobalReport {
            policy,
            seed,
            capacity_headroom: 1.0,
            routed: vec![vec![0; pods]; regions],
            ..GlobalReport::default()
        }
    }

    /// Served fraction of offered load (full + degraded) — the
    /// brownout-not-blackout headline. Shed low-priority work is a
    /// deliberate ladder decision, not a failure, but it still isn't a
    /// response: it counts against goodput, which is why tier 1 alone
    /// cannot mask a real capacity hole.
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        (self.served_full + self.served_degraded) as f64 / self.offered as f64
    }

    /// Requests in no terminal bucket — zero in a fully-drained run;
    /// the conservation check the property tests assert on.
    pub fn unaccounted(&self) -> u64 {
        self.offered - self.served_full - self.served_degraded - self.shed - self.lost
    }

    /// Goodput over the half-open arrival window `[from, to)`, from the
    /// timeline. `1.0` when the window offered nothing.
    pub fn windowed_goodput(&self, from: SimTime, to: SimTime) -> f64 {
        let bucket = TIMELINE_BUCKET.as_picos();
        let lo = (from.as_picos() / bucket) as usize;
        let hi = (to.as_picos() / bucket) as usize;
        let (mut offered, mut served) = (0u64, 0u64);
        for b in self.timeline.iter().take(hi).skip(lo) {
            offered += b.offered;
            served += b.served;
        }
        if offered == 0 {
            return 1.0;
        }
        served as f64 / offered as f64
    }

    /// The report's recovery metric: the earliest arrival instant at or
    /// after `heal` from which goodput, measured over `window`, returns
    /// to within `tolerance_pp` percentage points of the pre-trigger
    /// level `baseline` and *stays* there for every subsequent window of
    /// the timeline. `None` means the run never recovered — the
    /// metastable signature.
    pub fn recovered_at(
        &self,
        heal: SimTime,
        window: SimTime,
        baseline: f64,
        tolerance_pp: f64,
    ) -> Option<SimTime> {
        let bucket = TIMELINE_BUCKET;
        let step = (window.as_picos() / bucket.as_picos()).max(1) as usize;
        let start = (heal.as_picos() / bucket.as_picos()) as usize;
        let floor = baseline - tolerance_pp / 100.0;
        let mut candidate: Option<usize> = None;
        let mut b = start;
        while b < self.timeline.len() {
            let from = SimTime::from_picos(b as u64 * bucket.as_picos());
            let to = SimTime::from_picos((b + step) as u64 * bucket.as_picos());
            if self.windowed_goodput(from, to) >= floor {
                candidate.get_or_insert(b);
            } else {
                candidate = None;
            }
            b += step;
        }
        candidate.map(|b| SimTime::from_picos(b as u64 * bucket.as_picos()))
    }
}

/// Static-local vs global-router on byte-identical traces.
#[derive(Debug, Clone)]
pub struct GlobalComparison {
    /// Static per-region assignment, no health/ladder/spillover.
    pub naive: GlobalReport,
    /// The health-aware global router.
    pub router: GlobalReport,
}

impl GlobalComparison {
    /// Both arms saw the same arrival trace *and* the same fault plan
    /// (both fingerprints match).
    pub fn same_trace(&self) -> bool {
        self.naive.fault_fingerprint == self.router.fault_fingerprint
            && self.naive.trace_fingerprint == self.router.trace_fingerprint
    }

    /// Goodput advantage of the global router, in percentage points.
    pub fn goodput_gain_pp(&self) -> f64 {
        (self.router.goodput() - self.naive.goodput()) * 100.0
    }
}
