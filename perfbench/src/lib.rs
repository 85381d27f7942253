//! Host-time benchmark of the chip → pod → region → planet stack.
//!
//! One command runs one named workload ([`workloads::Workload`]) in its
//! own process from a workload seed, checks the outputs, and prints every
//! metric by name and unit. Each run repeats complete jobs (inputs built,
//! simulated, checked) for a fixed number of seconds and reports the
//! median job (CPU time: the mean job).
//!
//! - **Untraced** runs report the end-to-end metrics ([`END_TO_END`]) at
//!   the host's thread count.
//! - **Traced** runs report the per-layer metrics ([`PER_LAYER`]). They
//!   time each call into a layer's public API as a span, on one pool
//!   thread so that spans nest and self times add up to the job's wall
//!   time. They also rerun the job untraced at one thread and at the
//!   host's thread count, so the tracing overhead and the 1-vs-N-thread
//!   identity of the simulated statistics are measured in the same run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod procfs;
pub mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use mtia_core::pool;
use mtia_core::telemetry::Json;

use job::{merge_layers, Ctx, JobOutcome, LayerTotals};
use workloads::{planet, Scale, Workload};

/// The end-to-end metrics of an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    // Median job wall time: inputs built, simulated and checked.
    ("wall_s", "s"),
    // Median input-building part of a job: topology and config
    // construction, trace generation, model graphs and compile.
    ("setup_s", "s"),
    // Mean process user+sys CPU seconds per job, all threads. A mean,
    // not a median: /proc/self/stat counts 10 ms ticks, and only the
    // total over all jobs resolves below one tick.
    ("cpu_s", "s"),
    // VmHWM of the run's own process.
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of a traced run: name and unit. Host seconds
/// are per traced job, at one pool thread unless the name says
/// otherwise. A metric of a layer the workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("trace.build_s", "s"),
    ("trace.requests", "count"),
    ("trace.rss_mb", "MiB"),
    ("des.s", "s"),
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("des.events_per_request", "ratio"),
    ("shard.cell_s_sum", "s"),
    ("shard.overhead_s", "s"),
    ("shard.parallel_efficiency", "ratio"),
    ("pool.threads", "count"),
    ("overload.naive_retry_s", "s"),
    ("overload.budget_breaker_s", "s"),
    ("overload.autoscale_s", "s"),
    ("overload.retries_issued", "count"),
    ("overload.cancelled_at_admission", "count"),
    ("overload.breaker_opens", "count"),
    ("model.s", "s"),
    ("compile.s", "s"),
    ("compile.graphs", "count"),
    ("chip.s", "s"),
    ("chip.runs", "count"),
    ("chip.nodes", "count"),
    ("chip.nodes_per_s", "1/s"),
    ("costcache.hits", "count"),
    ("costcache.misses", "count"),
    ("costcache.hit_rate", "ratio"),
    ("costcache.entries", "count"),
    ("explore.overhead_s", "s"),
    ("explore.evaluated", "count"),
    ("explore.infeasible", "count"),
    ("explore.memo_hit_rate", "ratio"),
    ("failover.s", "s"),
    ("failover.events", "count"),
    ("failover.events_per_s", "1/s"),
    ("failover.requests", "count"),
    ("resilience.s", "s"),
    ("resilience.requests", "count"),
    ("resilience.requests_per_s", "1/s"),
    ("scheduler.s", "s"),
    ("scheduler.requests", "count"),
    ("scheduler.requests_per_s", "1/s"),
    ("check.s", "s"),
    ("check.count", "count"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_1t_wall_s", "s"),
    ("bench.layer_sum_ratio", "ratio"),
    ("bench.tracing_overhead_s", "s"),
    ("bench.jobs", "count"),
    ("failed_check_share", "ratio"),
];

/// ROADMAP item 1's bar: layer self times must cover this share of the
/// traced wall time.
pub const LAYER_SUM_FLOOR: f64 = 0.95;

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed all inputs derive from.
    pub seed: u64,
    /// Seconds to keep starting jobs for.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Input size.
    pub scale: Scale,
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Debug, Clone)]
pub struct Output {
    /// Output checks attempted, summed over jobs.
    pub attempted: u64,
    /// The failed checks, by name.
    pub failures: Vec<String>,
    /// The simulated-statistics digest (of the first job).
    pub digest: u64,
    /// Jobs run.
    pub jobs: usize,
    /// Wall time of every job, in run order.
    pub job_walls: Vec<f64>,
    /// The reported metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl Output {
    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::obj(vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]);
                (m.name.to_string(), value)
            })
            .collect();
        Json::obj(vec![
            ("correct".to_string(), Json::Bool(self.failures.is_empty())),
            ("attempted".to_string(), Json::UInt(self.attempted)),
            ("failed".to_string(), Json::UInt(self.failures.len() as u64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Runs one job from a cold kernel-cost cache and measures it.
pub fn run_job(workload: Workload, seed: u64, scale: Scale, traced: bool) -> JobOutcome {
    mtia_sim::costcache::reset();
    let cpu_before = procfs::cpu_seconds();
    let ctx = Ctx::new(traced);
    let start = Instant::now();
    workload.run(seed, scale, &ctx);
    let wall_s = start.elapsed().as_secs_f64();
    let mut out = ctx.finish(wall_s, procfs::cpu_seconds() - cpu_before);
    let cache = mtia_sim::costcache::stats();
    out.counts.insert("costcache.hits", cache.hits as f64);
    out.counts.insert("costcache.misses", cache.misses as f64);
    out.counts
        .insert("costcache.entries", mtia_sim::costcache::entries() as f64);
    out
}

/// Runs jobs on `threads` pool threads for about `budget_s` seconds:
/// another job starts while it would end at most half a job past the
/// budget. Always at least one.
fn run_jobs(opts: &Options, threads: usize, traced: bool, budget_s: f64) -> Vec<JobOutcome> {
    pool::set_threads(threads);
    let start = Instant::now();
    let mut jobs = Vec::new();
    loop {
        let job = run_job(opts.workload, opts.seed, opts.scale, traced);
        let last = job.wall_s;
        jobs.push(job);
        if start.elapsed().as_secs_f64() + last / 2.0 > budget_s {
            break;
        }
    }
    jobs
}

fn median_of(jobs: &[JobOutcome], f: impl Fn(&JobOutcome) -> f64) -> f64 {
    procfs::median(&jobs.iter().map(f).collect::<Vec<_>>())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Collects every job's checks, plus one check that all jobs produced
/// the same digest.
fn gather_checks(phases: &[&[JobOutcome]], what: &str) -> (u64, Vec<String>, u64) {
    let all: Vec<&JobOutcome> = phases.iter().flat_map(|p| p.iter()).collect();
    let digest = all[0].digest;
    let mut attempted = 1;
    let mut failures = Vec::new();
    for job in &all {
        attempted += job.attempted;
        failures.extend(job.failures.iter().cloned());
    }
    if all.iter().any(|j| j.digest != digest) {
        failures.push(format!("digest differs across {what}"));
    }
    (attempted, failures, digest)
}

/// Measures one run as `opts` says.
pub fn measure(opts: &Options) -> Output {
    let threads = pool::configured_threads();
    if opts.traced {
        measure_traced(opts, threads)
    } else {
        let jobs = run_jobs(opts, threads, false, opts.seconds);
        let (attempted, failures, digest) = gather_checks(&[&jobs], "repeated jobs");
        let values = [
            median_of(&jobs, |j| j.wall_s),
            median_of(&jobs, |j| j.setup_s),
            jobs.iter().map(|j| j.cpu_s).sum::<f64>() / jobs.len() as f64,
            procfs::peak_rss_mib(),
        ];
        Output {
            attempted,
            failures,
            digest,
            jobs: jobs.len(),
            job_walls: jobs.iter().map(|j| j.wall_s).collect(),
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| Metric { name, value, unit })
                .collect(),
        }
    }
}

fn measure_traced(opts: &Options, threads: usize) -> Output {
    let share = opts.seconds / 3.0;
    let untraced_n = run_jobs(opts, threads, false, share);
    let untraced_1 = run_jobs(opts, 1, false, share);
    let traced = run_jobs(opts, 1, true, share);
    let cell_s_sum = if opts.workload == Workload::Planet {
        planet::serial_cell_seconds(opts.seed, opts.scale)
    } else {
        0.0
    };
    pool::set_threads(threads);

    let (mut attempted, mut failures, digest) = gather_checks(
        &[&untraced_n, &untraced_1, &traced],
        "repeated jobs, thread counts and tracing",
    );

    let n = traced.len() as f64;
    let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for job in &traced {
        merge_layers(&mut layers, &job.layers);
    }
    let self_s = |layer: &str| layers.get(layer).map_or(0.0, |t| t.self_s / n);
    let events = |layer: &str| layers.get(layer).map_or(0.0, |t| t.events as f64 / n);
    let count = |name: &str| median_of(&traced, |j| j.counts.get(name).copied().unwrap_or(0.0));
    let host_n = |name: &str| median_of(&untraced_n, |j| j.host.get(name).copied().unwrap_or(0.0));
    let traced_wall = median_of(&traced, |j| j.wall_s);
    let layer_sum_ratio = ratio(
        layers.values().map(|t| t.self_s).sum(),
        traced.iter().map(|j| j.wall_s).sum(),
    );
    attempted += 1;
    if layer_sum_ratio < LAYER_SUM_FLOOR {
        failures.push(format!(
            "layer self times cover {layer_sum_ratio:.3} of the traced wall time"
        ));
    }
    let threads_f = threads as f64;
    let des_n = host_n("des_wall_s");
    let untraced_1_wall = median_of(&untraced_1, |j| j.wall_s);
    let planet_only = |x: f64| if cell_s_sum > 0.0 { x } else { 0.0 };
    let jobs = untraced_n.len() + untraced_1.len() + traced.len();
    let failed_share = ratio(failures.len() as f64, attempted as f64);
    let values: [(&str, f64); PER_LAYER.len()] = [
        ("trace.build_s", self_s("trace")),
        ("trace.requests", count("trace.requests")),
        ("trace.rss_mb", count("trace.rss_mb")),
        ("des.s", self_s("des")),
        ("des.events", events("des")),
        ("des.events_per_s", ratio(events("des"), self_s("des"))),
        (
            "des.events_per_request",
            ratio(events("des"), count("des.requests")),
        ),
        ("shard.cell_s_sum", cell_s_sum),
        (
            "shard.overhead_s",
            planet_only(des_n - cell_s_sum / threads_f),
        ),
        (
            "shard.parallel_efficiency",
            planet_only(ratio(cell_s_sum, threads_f * des_n)),
        ),
        ("pool.threads", threads_f),
        ("overload.naive_retry_s", host_n("overload.naive_retry_s")),
        (
            "overload.budget_breaker_s",
            host_n("overload.budget_breaker_s"),
        ),
        ("overload.autoscale_s", host_n("overload.autoscale_s")),
        ("overload.retries_issued", count("overload.retries_issued")),
        (
            "overload.cancelled_at_admission",
            count("overload.cancelled_at_admission"),
        ),
        ("overload.breaker_opens", count("overload.breaker_opens")),
        ("model.s", self_s("model")),
        ("compile.s", self_s("compile")),
        ("compile.graphs", count("compile.graphs")),
        ("chip.s", self_s("chip")),
        ("chip.runs", count("chip.runs")),
        ("chip.nodes", events("chip")),
        ("chip.nodes_per_s", ratio(events("chip"), self_s("chip"))),
        ("costcache.hits", count("costcache.hits")),
        ("costcache.misses", count("costcache.misses")),
        (
            "costcache.hit_rate",
            ratio(
                count("costcache.hits"),
                count("costcache.hits") + count("costcache.misses"),
            ),
        ),
        ("costcache.entries", count("costcache.entries")),
        ("explore.overhead_s", self_s("explore")),
        ("explore.evaluated", count("explore.evaluated")),
        ("explore.infeasible", count("explore.infeasible")),
        (
            "explore.memo_hit_rate",
            ratio(count("explore.memo_hits"), count("explore.requested")),
        ),
        ("failover.s", self_s("failover")),
        ("failover.events", events("failover")),
        (
            "failover.events_per_s",
            ratio(events("failover"), self_s("failover")),
        ),
        ("failover.requests", count("failover.requests")),
        ("resilience.s", self_s("resilience")),
        ("resilience.requests", count("resilience.requests")),
        (
            "resilience.requests_per_s",
            ratio(count("resilience.requests"), self_s("resilience")),
        ),
        ("scheduler.s", self_s("scheduler")),
        ("scheduler.requests", count("scheduler.requests")),
        (
            "scheduler.requests_per_s",
            ratio(count("scheduler.requests"), self_s("scheduler")),
        ),
        ("check.s", self_s("check")),
        ("check.count", median_of(&traced, |j| j.attempted as f64)),
        ("bench.traced_wall_s", traced_wall),
        ("bench.untraced_1t_wall_s", untraced_1_wall),
        ("bench.layer_sum_ratio", layer_sum_ratio),
        ("bench.tracing_overhead_s", traced_wall - untraced_1_wall),
        ("bench.jobs", jobs as f64),
        ("failed_check_share", failed_share),
    ];

    Output {
        attempted,
        failures,
        digest,
        jobs,
        job_walls: [&untraced_n, &untraced_1, &traced]
            .iter()
            .flat_map(|p| p.iter().map(|j| j.wall_s))
            .collect(),
        metrics: PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), (computed, value))| {
                assert_eq!(name, computed, "values follow PER_LAYER's order");
                Metric { name, value, unit }
            })
            .collect(),
    }
}
