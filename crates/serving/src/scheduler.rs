//! Remote/merge job scheduling on shared accelerators (§6, Fig. 5).
//!
//! Models are partitioned into **remote (sparse)** networks and a **merge
//! (dense)** network. Each batched request runs its remote jobs first;
//! their pooled outputs feed one merge job. Jobs from different requests
//! share the same devices through a FIFO queue, which under load produces
//! the `remote-remote-merge-merge` interleaving the paper observed — a
//! later request's remote jobs delay an earlier request's merge. The Fig. 5
//! fix: consolidating weighted and unweighted TBE instances halves the
//! number of remote jobs per request (total remote service time unchanged),
//! raising merge-job occupancy and cutting P99 by 13 ms.
//!
//! This module holds the workload and its measurements; the simulation
//! is the [`crate::resilience::sim`] engine's naive arm on a fault-free
//! plan, so Fig. 5 and the §5.5 fault study run one event loop.

use mtia_core::error::ConfigError;
use mtia_core::telemetry::{LatencyHistogram, Telemetry};
use mtia_core::SimTime;
use mtia_sim::faults::FaultPlan;

use crate::resilience::sim::{
    simulate_resilient_remote_merge_traced, DispatchPolicy, ResilienceConfig,
};
use crate::traffic::ArrivalProcess;

/// Configuration of one remote/merge deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteMergeConfig {
    /// Accelerators serving this model (remote and merge jobs share them).
    pub devices: u32,
    /// Remote jobs per batched request (4 before Fig. 5's consolidation,
    /// 2 after: weighted and unweighted TBE instances merged).
    pub remote_jobs_per_request: u32,
    /// Total remote execution time per request, split evenly across the
    /// remote jobs ("the execution time of the merge and remote jobs on the
    /// PE grid remains the same in both cases").
    pub remote_total_time: SimTime,
    /// Merge-job execution time per request.
    pub merge_time: SimTime,
    /// Serving-stack overhead charged per dispatched job (RPC hop, queue
    /// management, descriptor setup). This is what consolidation halves:
    /// "the execution time of the merge and remote jobs on the PE grid
    /// remains the same in both cases, so the gains were realized higher in
    /// the serving stack" (§6).
    pub dispatch_overhead: SimTime,
}

impl RemoteMergeConfig {
    /// Checks the shape every simulation of this deployment needs.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] on zero `devices` or zero
    /// `remote_jobs_per_request`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.devices == 0 {
            return Err(ConfigError::OutOfRange {
                what: "remote/merge devices",
                valid: "at least one device",
            });
        }
        if self.remote_jobs_per_request == 0 {
            return Err(ConfigError::OutOfRange {
                what: "remote jobs per request",
                valid: "at least one remote job",
            });
        }
        Ok(())
    }

    /// Duration of remote job `index` (0-based) of one request.
    ///
    /// The integer division's picosecond remainder is spread over the
    /// first `remainder` jobs, so the per-job durations sum *exactly*
    /// to `remote_total_time` — "the execution time of the merge and
    /// remote jobs on the PE grid remains the same in both cases" must
    /// hold on the simulator's own clock, whatever the job count.
    pub fn remote_job_time_for(&self, index: u32) -> SimTime {
        let jobs = self.remote_jobs_per_request.max(1) as u64;
        let base = self.remote_total_time.as_picos() / jobs;
        let remainder = self.remote_total_time.as_picos() % jobs;
        let extra = u64::from((index as u64) < remainder);
        SimTime::from_picos(base + extra)
    }
}

/// Results of a remote/merge serving simulation.
#[derive(Debug, Clone, Default)]
pub struct RemoteMergeStats {
    /// End-to-end request latency (arrival → merge completion).
    pub request_latency: LatencyHistogram,
    /// Merge-job queueing delay (ready → dispatch).
    pub merge_wait: LatencyHistogram,
    /// Remote-phase latency (arrival → last remote completion).
    pub remote_latency: LatencyHistogram,
    /// Completed requests.
    pub completed: u64,
    /// Sustained completions per second over the measured window.
    pub throughput_per_s: f64,
    /// Mean device utilization: dispatched job time (overhead included)
    /// over devices × the run's length, capped at 1.
    pub utilization: f64,
}

/// Simulates the deployment for `horizon`, measuring after `warmup`.
///
/// # Panics
///
/// Panics if [`RemoteMergeConfig::validate`] rejects `config`.
pub fn simulate_remote_merge(
    config: RemoteMergeConfig,
    arrivals: &mut dyn ArrivalProcess,
    horizon: SimTime,
    warmup: SimTime,
) -> RemoteMergeStats {
    simulate_remote_merge_traced(
        config,
        arrivals,
        horizon,
        warmup,
        &mut Telemetry::disabled(),
    )
}

/// [`simulate_remote_merge`] with observability: when `tel` is enabled,
/// records the engine's `serving.resilient` root span (policy `naive`)
/// holding a flat child span per completed request (arrival → merge
/// completion, overlapping freely as real lifecycles do), post-warmup
/// latency/merge-wait histograms, and completion/dispatch counters. The
/// returned stats are byte-identical to the untraced run.
///
/// # Panics
///
/// Panics if [`RemoteMergeConfig::validate`] rejects `config`.
pub fn simulate_remote_merge_traced(
    config: RemoteMergeConfig,
    arrivals: &mut dyn ArrivalProcess,
    horizon: SimTime,
    warmup: SimTime,
    tel: &mut Telemetry,
) -> RemoteMergeStats {
    // No faults, no maintenance: the naive arm's health, retry and
    // shedding settings are never consulted.
    let naive = ResilienceConfig {
        hedge: None,
        degradation: None,
        ..ResilienceConfig::production(config, 0)
    };
    let report = simulate_resilient_remote_merge_traced(
        &naive,
        DispatchPolicy::Naive,
        arrivals,
        &FaultPlan::empty(0),
        horizon,
        warmup,
        tel,
    );
    RemoteMergeStats {
        request_latency: report.request_latency,
        merge_wait: report.merge_wait,
        remote_latency: report.remote_latency,
        completed: report.completed,
        throughput_per_s: report.throughput_per_s,
        utilization: report.utilization,
    }
}

/// Runs `replicas` independent Monte-Carlo replications of the
/// deployment on the [`mtia_core::pool`] workers and merges their
/// measurements into one [`RemoteMergeStats`].
///
/// Replica `i` draws its Poisson arrivals from the stream
/// `derive_indexed(root_seed, "remote-merge/replica", i)` — a pure
/// function of the replica index, never a shared sequential RNG — so
/// the merged result is byte-identical at any thread count. Latency
/// histograms combine exactly via [`LatencyHistogram::merge`];
/// `completed` sums; throughput and utilization average over replicas.
///
/// # Panics
///
/// Panics if `replicas` is zero or the configuration is invalid.
pub fn simulate_remote_merge_replicas(
    config: RemoteMergeConfig,
    rate: f64,
    horizon: SimTime,
    warmup: SimTime,
    root_seed: u64,
    replicas: u32,
) -> RemoteMergeStats {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    assert!(replicas > 0, "need at least one replica");
    let runs = mtia_core::pool::parallel_map((0..replicas).collect(), |i, _| {
        let seed = mtia_core::seed::derive_indexed(root_seed, "remote-merge/replica", i as u64);
        let mut arrivals = crate::traffic::PoissonArrivals::new(rate, StdRng::seed_from_u64(seed));
        simulate_remote_merge(config, &mut arrivals, horizon, warmup)
    });
    let mut merged = RemoteMergeStats::default();
    for run in &runs {
        merged.request_latency.merge(&run.request_latency);
        merged.merge_wait.merge(&run.merge_wait);
        merged.remote_latency.merge(&run.remote_latency);
        merged.completed += run.completed;
        merged.throughput_per_s += run.throughput_per_s;
        merged.utilization += run.utilization;
    }
    merged.throughput_per_s /= runs.len() as f64;
    merged.utilization /= runs.len() as f64;
    merged
}

/// Bisects the maximum Poisson arrival rate whose simulated P99 stays
/// within `slo`. Returns (rate, stats at that rate).
///
/// # Panics
///
/// Panics if [`RemoteMergeConfig::validate`] rejects `config`.
pub fn max_rate_under_slo(
    config: RemoteMergeConfig,
    slo: SimTime,
    horizon: SimTime,
    seed: u64,
) -> (f64, RemoteMergeStats) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    config.validate().expect("a valid remote/merge workload");

    let per_request_work = config.remote_total_time
        + config.merge_time
        + config.dispatch_overhead * (config.remote_jobs_per_request + 1) as u64;
    let service_bound = config.devices as f64 / per_request_work.as_secs_f64();
    let (mut lo, mut hi) = (service_bound * 0.05, service_bound * 1.2);
    let warmup = horizon.scale(0.2);
    let run = |rate: f64| {
        let mut arrivals = crate::traffic::PoissonArrivals::new(rate, StdRng::seed_from_u64(seed));
        simulate_remote_merge(config, &mut arrivals, horizon, warmup)
    };
    for _ in 0..12 {
        let mid = 0.5 * (lo + hi);
        let stats = run(mid);
        let ok = stats.request_latency.p99() <= slo && stats.request_latency.count() > 0;
        if ok {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let stats = run(lo);
    (lo, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::PoissonArrivals;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base_config(remote_jobs: u32) -> RemoteMergeConfig {
        RemoteMergeConfig {
            devices: 2,
            remote_jobs_per_request: remote_jobs,
            remote_total_time: SimTime::from_millis(8),
            merge_time: SimTime::from_millis(10),
            dispatch_overhead: SimTime::from_millis(1),
        }
    }

    fn run_at(config: RemoteMergeConfig, rate: f64, seed: u64) -> RemoteMergeStats {
        let mut arrivals = PoissonArrivals::new(rate, StdRng::seed_from_u64(seed));
        simulate_remote_merge(
            config,
            &mut arrivals,
            SimTime::from_secs(60),
            SimTime::from_secs(5),
        )
    }

    #[test]
    fn per_job_times_sum_exactly_to_the_total() {
        // 10 ms does not divide by 3: the remainder (1 ps) must land on
        // the early jobs, not vanish to truncation.
        let mut config = base_config(3);
        config.remote_total_time = SimTime::from_picos(10_000_000_001);
        let sum: u64 = (0..config.remote_jobs_per_request)
            .map(|i| config.remote_job_time_for(i).as_picos())
            .sum();
        assert_eq!(sum, config.remote_total_time.as_picos());
        // Jobs differ by at most 1 ps and are non-increasing in index.
        let times: Vec<u64> = (0..3)
            .map(|i| config.remote_job_time_for(i).as_picos())
            .collect();
        assert!(times.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
        // Exact divisions degenerate to the mean for every index.
        let exact = base_config(4);
        for i in 0..4 {
            assert_eq!(exact.remote_job_time_for(i), SimTime::from_millis(2));
        }
        // Many more jobs than picoseconds: every job still schedules.
        let mut tiny = base_config(7);
        tiny.remote_total_time = SimTime::from_picos(3);
        let sum: u64 = (0..7).map(|i| tiny.remote_job_time_for(i).as_picos()).sum();
        assert_eq!(sum, 3);
    }

    #[test]
    fn validate_rejects_zero_devices() {
        let mut config = base_config(2);
        assert_eq!(config.validate(), Ok(()));
        config.devices = 0;
        assert!(matches!(
            config.validate(),
            Err(ConfigError::OutOfRange {
                what: "remote/merge devices",
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_zero_remote_jobs() {
        let config = base_config(0);
        assert!(matches!(
            config.validate(),
            Err(ConfigError::OutOfRange {
                what: "remote jobs per request",
                ..
            })
        ));
    }

    #[test]
    #[should_panic(expected = "a valid remote/merge workload")]
    fn slo_search_rejects_an_empty_deployment() {
        let mut config = base_config(2);
        config.devices = 0;
        max_rate_under_slo(config, SimTime::from_millis(100), SimTime::from_secs(1), 1);
    }

    #[test]
    fn clean_runs_keep_the_pinned_stats() {
        // Pinned from the standalone event loop Fig. 5 ran before it
        // became the resilience engine's naive arm. 10 000 000 001 ps does
        // not divide by 3: every remote job carries its own share of the
        // remainder, which moves the mean and the utilization bits.
        type Pin = (u64, u32, u64, u64, u64, u64, u64, u64, u64, u64);
        let pins: [Pin; 3] = [
            (
                8_000_000_000,
                2,
                1205,
                25_118_864_315,
                89_125_093_813,
                29_166_030_779,
                35_481_338_923,
                11_220_184_543,
                0x3fe4_4a20_dcd6_c4cd,
                0x404d_ac50_ce33_fb26,
            ),
            (
                8_000_000_000,
                4,
                1204,
                31_622_776_601,
                112_201_845_430,
                36_364_627_906,
                50_118_723_362,
                12_589_254_117,
                0x3fe6_30a8_1c15_7a7b,
                0x404d_a3bb_76e8_cd75,
            ),
            (
                10_000_000_001,
                3,
                1202,
                35_481_338_923,
                125_892_541_179,
                42_116_853_663,
                63_095_734_448,
                15_848_931_924,
                0x3fe7_1f6b_aced_d608,
                0x404d_95a6_6576_bb73,
            ),
        ];
        for pin in pins {
            let (total_ps, jobs) = (pin.0, pin.1);
            let mut config = base_config(jobs);
            config.remote_total_time = SimTime::from_picos(total_ps);
            let mut arrivals = PoissonArrivals::new(60.0, StdRng::seed_from_u64(21));
            let s = simulate_remote_merge(
                config,
                &mut arrivals,
                SimTime::from_secs(20),
                SimTime::from_secs(2),
            );
            let got: Pin = (
                total_ps,
                jobs,
                s.completed,
                s.request_latency.p50().as_picos(),
                s.request_latency.p99().as_picos(),
                s.request_latency.mean().as_picos(),
                s.merge_wait.p99().as_picos(),
                s.remote_latency.p50().as_picos(),
                s.utilization.to_bits(),
                s.throughput_per_s.to_bits(),
            );
            assert_eq!(got, pin, "{total_ps} ps / {jobs} jobs");
        }
    }

    #[test]
    fn replicated_simulation_is_thread_count_invariant() {
        let config = base_config(4);
        let run = |threads: usize| {
            mtia_core::pool::set_threads(threads);
            let stats = simulate_remote_merge_replicas(
                config,
                40.0,
                SimTime::from_secs(20),
                SimTime::from_secs(2),
                9,
                4,
            );
            mtia_core::pool::set_threads(0);
            stats
        };
        let serial = run(1);
        let threaded = run(4);
        assert_eq!(serial.completed, threaded.completed);
        assert_eq!(serial.request_latency.p99(), threaded.request_latency.p99());
        assert_eq!(
            serial.request_latency.mean(),
            threaded.request_latency.mean()
        );
        assert_eq!(serial.utilization, threaded.utilization);
        // And the merged sample count covers all four replicas.
        assert!(serial.request_latency.count() > 4 * 100);
    }

    #[test]
    fn light_load_latency_is_service_time() {
        let config = base_config(4);
        let stats = run_at(config, 5.0, 1);
        assert!(stats.completed > 100);
        // At 5 req/s on 2 devices, latency ≈ remote(2 waves of 2ms) + merge.
        let p50 = stats.request_latency.p50();
        assert!(
            p50 >= SimTime::from_millis(14) && p50 <= SimTime::from_millis(24),
            "p50 {p50}"
        );
        assert!(stats.utilization < 0.3);
    }

    #[test]
    fn throughput_matches_offered_load_when_stable() {
        let stats = run_at(base_config(4), 40.0, 2);
        assert!(
            (stats.throughput_per_s - 40.0).abs() / 40.0 < 0.1,
            "throughput {}",
            stats.throughput_per_s
        );
    }

    #[test]
    fn consolidation_reduces_p99_under_load() {
        // Fig. 5: halving the remote-job count (same total service time)
        // reduces measured P99 request latency.
        let rate = 85.0; // high utilization on 2 devices
        let baseline = run_at(base_config(4), rate, 3);
        let consolidated = run_at(base_config(2), rate, 3);
        let p99_base = baseline.request_latency.p99();
        let p99_cons = consolidated.request_latency.p99();
        assert!(
            p99_cons < p99_base,
            "consolidated p99 {p99_cons} !< baseline {p99_base}"
        );
        // Merge jobs specifically wait less.
        assert!(consolidated.merge_wait.p99() <= baseline.merge_wait.p99());
    }

    #[test]
    fn consolidation_raises_throughput_at_slo() {
        // Fig. 5's headline: higher throughput at the P99 ≤ 100 ms SLO.
        let slo = SimTime::from_millis(100);
        let horizon = SimTime::from_secs(30);
        let (rate4, _) = max_rate_under_slo(base_config(4), slo, horizon, 7);
        let (rate2, _) = max_rate_under_slo(base_config(2), slo, horizon, 7);
        assert!(
            rate2 > rate4 * 1.02,
            "consolidated {rate2:.1}/s !> baseline {rate4:.1}/s"
        );
    }

    #[test]
    fn remote_latency_precedes_request_latency() {
        let stats = run_at(base_config(4), 40.0, 5);
        assert!(stats.remote_latency.p50() < stats.request_latency.p50());
    }

    #[test]
    fn traced_run_matches_untraced() {
        let config = base_config(4);
        let horizon = SimTime::from_secs(10);
        let warmup = SimTime::from_secs(1);
        let mut a1 = PoissonArrivals::new(30.0, StdRng::seed_from_u64(11));
        let untraced = simulate_remote_merge(config, &mut a1, horizon, warmup);
        let mut a2 = PoissonArrivals::new(30.0, StdRng::seed_from_u64(11));
        let mut tel = Telemetry::new_enabled();
        let traced = simulate_remote_merge_traced(config, &mut a2, horizon, warmup, &mut tel);
        assert_eq!(untraced.completed, traced.completed);
        assert_eq!(untraced.request_latency, traced.request_latency);
        assert_eq!(untraced.utilization, traced.utilization);
        tel.tracer
            .validate_nesting()
            .expect("request spans contained");
        assert_eq!(tel.metrics.counter("serving.completed"), traced.completed);
        // Every completed request shows up as a child span of the root.
        assert_eq!(
            tel.tracer.roots()[0].children.len() as u64,
            traced.completed
        );
        let hist = tel.metrics.histogram("serving.request_latency").unwrap();
        assert_eq!(hist.p99(), traced.request_latency.p99());
    }

    #[test]
    fn overload_breaches_any_slo() {
        let config = base_config(4);
        // Offered load ≈ 2× capacity (capacity ≈ 111/s on 2 devices).
        let stats = run_at(config, 220.0, 6);
        assert!(stats.request_latency.p99() > SimTime::from_millis(500));
        assert!(stats.utilization > 0.95);
    }
}
