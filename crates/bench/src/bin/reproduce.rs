//! Runs table/figure reproductions and prints them in paper order — the
//! source of `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p mtia-bench --bin reproduce [-- OPTIONS]
//!
//! OPTIONS:
//!   --threads N          worker threads for the experiment pool
//!                        (default: auto; 1 = serial)
//!   --filter STR         comma-separated substring terms selecting
//!                        experiments by name; "quick" = the fast
//!                        determinism subset
//!   --list               print the experiment names and exit
//!   --determinism-check  run the selection at 1 thread and at N
//!                        threads and fail unless the rendered output
//!                        is byte-identical
//!   --bench-perf PATH    time each selected experiment at 1 thread and
//!                        at N threads and write a JSON report (wall
//!                        clock, speedup, simulated DES events and
//!                        events/sec, peak RSS, and the hit/miss
//!                        counts of the Zipf hit-rate memo)
//!   --perf-baseline PATH compare the --bench-perf results against a
//!                        checked-in baseline JSON and fail when any
//!                        gated experiment's single-thread events/sec
//!                        regresses by more than 25%; only entries
//!                        simulating ≥100k events are gated (smaller
//!                        ones are timing noise). Setting
//!                        MTIA_PERF_ALLOW_REGRESSION=1 downgrades the
//!                        failure to a warning (for hosts with known
//!                        slower/noisier clocks; the JSON still records
//!                        the measured rates)
//!   --trace-out DIR      write the pinned-seed scenario traces
//!                        (canonical + Chrome trace_event JSON) and a
//!                        per-experiment metrics dump into DIR
//!   --telemetry-smoke    verify tracing is a pure observer: traced and
//!                        untraced scenario results byte-identical,
//!                        canonical exports stable, overhead < 10 %
//!   --chaos-smoke        run the seeded chaos-schedule suite — the
//!                        cell-level scenarios against a domain-aware
//!                        failover cell plus the region-level suite
//!                        (pod loss, rolling pod loss, region outage,
//!                        WAN partition) against the global router —
//!                        and fail if accounting leaks a request or
//!                        goodput dips below 90 %
//!   --explore-smoke      exhaustively search the tiny pinned space and
//!                        fail unless the optimum is the paper's design
//!                        point (the CI rung behind the golden fixture);
//!                        then sweep the whole paper space as an oracle
//!                        and fail unless its best is (or dominates)
//!                        the paper's point and the seeded E25 search
//!                        reports no Perf/TCO above it; prints the
//!                        search-to-sweep gap
//! ```
//!
//! Experiments are pure `(config, seed)` functions, so every mode prints
//! byte-identical tables at any `--threads` value; only wall-clock (and
//! the cache/timing telemetry in the JSON report) changes.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use mtia_bench::experiments::{self, ExperimentEntry};
use mtia_bench::render_reports;
use mtia_core::pool;
use mtia_core::telemetry::json::{self, Json};

struct Options {
    threads: usize,
    filter: Option<String>,
    list: bool,
    determinism_check: bool,
    bench_perf: Option<String>,
    perf_baseline: Option<String>,
    trace_out: Option<String>,
    telemetry_smoke: bool,
    chaos_smoke: bool,
    explore_smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--threads N] [--filter STR] [--list] \
         [--determinism-check] [--bench-perf PATH] \
         [--perf-baseline PATH] [--trace-out DIR] \
         [--telemetry-smoke] [--chaos-smoke] [--explore-smoke]"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options {
        threads: 0,
        filter: None,
        list: false,
        determinism_check: false,
        bench_perf: None,
        perf_baseline: None,
        trace_out: None,
        telemetry_smoke: false,
        chaos_smoke: false,
        explore_smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.threads = v.parse().unwrap_or_else(|_| usage());
            }
            "--filter" => opts.filter = Some(args.next().unwrap_or_else(|| usage())),
            "--list" => opts.list = true,
            "--determinism-check" => opts.determinism_check = true,
            "--bench-perf" => opts.bench_perf = Some(args.next().unwrap_or_else(|| usage())),
            "--perf-baseline" => opts.perf_baseline = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-out" => opts.trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--telemetry-smoke" => opts.telemetry_smoke = true,
            "--chaos-smoke" => opts.chaos_smoke = true,
            "--explore-smoke" => opts.explore_smoke = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opts
}

fn selection(opts: &Options) -> Vec<ExperimentEntry> {
    let entries = match &opts.filter {
        Some(f) => experiments::filtered(f),
        None => experiments::registry(),
    };
    if entries.is_empty() {
        let near = opts
            .filter
            .as_deref()
            .map(experiments::near_misses)
            .unwrap_or_default();
        if near.is_empty() {
            eprintln!("no experiments match the filter");
        } else {
            eprintln!(
                "no experiments match the filter; did you mean: {}?",
                near.join(", ")
            );
        }
        eprintln!("run with --list to see every experiment name");
        std::process::exit(2);
    }
    entries
}

/// One timed pass over a selection: rendered output, wall clock, the
/// Zipf-memo counters, and the simulated-DES-event delta (both
/// process-global: the memo is reset before the run and the event
/// count is snapshotted around it).
struct TimedRun {
    out: String,
    wall: f64,
    cache: mtia_core::memo::CacheStats,
    events: u64,
}

/// Runs `entries` and reports wall-clock plus the Zipf-memo and
/// DES-event deltas for the run (the memo is process-global, so it is
/// reset first for honest cold-start numbers).
fn timed_run(entries: &[ExperimentEntry], threads: usize) -> TimedRun {
    mtia_sim::costcache::reset();
    let events_before = mtia_core::perfcount::events();
    pool::set_threads(threads);
    let start = Instant::now();
    let reports = experiments::run_entries(entries.to_vec());
    let wall = start.elapsed().as_secs_f64();
    pool::set_threads(0);
    TimedRun {
        out: render_reports(&reports),
        wall,
        cache: mtia_sim::costcache::stats(),
        events: mtia_core::perfcount::events() - events_before,
    }
}

/// Resets the process's peak-RSS high-water mark (`VmHWM`) to the
/// current RSS by writing `5` to `/proc/self/clear_refs`. False where
/// the write is refused or the file does not exist (off Linux).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident-set size from `/proc/self/status` (`VmHWM`), in bytes:
/// the high-water mark since the last [`reset_peak_rss`], or since
/// process start if it was never reset. `None` off Linux.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".to_string()
    }
}

/// One experiment's measured rates, kept for the baseline gate.
struct PerfRow {
    name: &'static str,
    events: u64,
    events_per_sec_1t: f64,
}

/// Experiments below this simulated-event count are not regression-gated:
/// their wall clock is milliseconds and the events/sec quotient is
/// dominated by scheduler/allocator noise, not simulator throughput.
const PERF_GATE_MIN_EVENTS: u64 = 100_000;

/// Maximum tolerated single-thread events/sec drop vs the baseline.
const PERF_GATE_MAX_REGRESSION: f64 = 0.25;

/// Emits the BENCH_PERF.json payload: per-experiment wall clock at one
/// thread and at `threads`, speedup, byte-identity, simulated DES
/// events with single-thread events/sec, peak RSS (the high-water mark
/// is reset before each experiment; `null` when it cannot be), and
/// Zipf-memo hit rates. Hand-rolled JSON — the workspace takes no serde dependency.
fn bench_perf(
    entries: &[ExperimentEntry],
    threads: usize,
    path: &str,
    measured: &mut Vec<PerfRow>,
) -> bool {
    let mut rows = String::new();
    let mut total_1t = 0.0;
    let mut total_nt = 0.0;
    let mut total_events = 0u64;
    let mut total_hits = 0u64;
    let mut total_misses = 0u64;
    let mut all_identical = true;
    let mut max_peak_rss = None;
    for (i, entry) in entries.iter().enumerate() {
        let one = std::slice::from_ref(entry);
        let peak_reset = reset_peak_rss();
        let run_1t = timed_run(one, 1);
        let run_nt = timed_run(one, threads);
        let identical = run_1t.out == run_nt.out && run_1t.events == run_nt.events;
        all_identical &= identical;
        total_1t += run_1t.wall;
        total_nt += run_nt.wall;
        total_events += run_1t.events;
        total_hits += run_nt.cache.hits;
        total_misses += run_nt.cache.misses;
        // Single-thread rate, best-of-runs: on a one-core host both legs
        // run at one thread, so taking the faster (min-time practice)
        // roughly halves the scheduler jitter the regression gate sees.
        let mut wall_1t = run_1t.wall;
        if threads == 1 {
            wall_1t = wall_1t.min(run_nt.wall);
        }
        let events_per_sec_1t = run_1t.events as f64 / wall_1t.max(1e-9);
        let peak_rss = if peak_reset { peak_rss_bytes() } else { None };
        max_peak_rss = max_peak_rss.max(peak_rss);
        measured.push(PerfRow {
            name: entry.name,
            events: run_1t.events,
            events_per_sec_1t,
        });
        eprintln!(
            "  {:<24} 1t {:>8.3}s  {}t {:>8.3}s  speedup {:>5.2}x  \
             {:>10} ev ({:>9.0}/s)  cache {:>5.1}%  {}",
            entry.name,
            run_1t.wall,
            threads,
            run_nt.wall,
            run_1t.wall / run_nt.wall,
            run_1t.events,
            events_per_sec_1t,
            run_nt.cache.hit_rate() * 100.0,
            if identical { "identical" } else { "MISMATCH" },
        );
        write!(
            rows,
            "{}    {{\"name\": \"{}\", \"wall_s_1t\": {}, \"wall_s_nt\": {}, \
             \"speedup\": {}, \"identical\": {}, \
             \"events\": {}, \"events_per_sec_1t\": {}, \
             \"events_per_sec_nt\": {}, \"peak_rss_bytes\": {}, \
             \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {}}}}}",
            if i == 0 { "" } else { ",\n" },
            entry.name,
            json_f64(run_1t.wall),
            json_f64(run_nt.wall),
            json_f64(run_1t.wall / run_nt.wall),
            identical,
            run_1t.events,
            json_f64(events_per_sec_1t),
            json_f64(run_nt.events as f64 / run_nt.wall.max(1e-9)),
            peak_rss.map_or("null".to_string(), |b| b.to_string()),
            run_nt.cache.hits,
            run_nt.cache.misses,
            json_f64(run_nt.cache.hit_rate()),
        )
        .expect("string write");
    }
    let json = format!(
        "{{\n  \"threads\": {},\n  \"host_parallelism\": {},\n  \
         \"experiments\": [\n{}\n  ],\n  \"total_wall_s_1t\": {},\n  \
         \"total_wall_s_nt\": {},\n  \"overall_speedup\": {},\n  \
         \"total_events\": {},\n  \"overall_events_per_sec_1t\": {},\n  \
         \"peak_rss_bytes\": {},\n  \"all_identical\": {}\n}}\n",
        threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows,
        json_f64(total_1t),
        json_f64(total_nt),
        json_f64(total_1t / total_nt),
        total_events,
        json_f64(total_events as f64 / total_1t.max(1e-9)),
        max_peak_rss.map_or("null".to_string(), |b: u64| b.to_string()),
        all_identical,
    );
    if total_hits == 0 {
        eprintln!(
            "warning: Zipf-memo hit rate is 0% across the selected \
             experiments ({total_misses} misses) — the selection never \
             repeats an embedding-cache budget, so the memo is dead \
             weight for it"
        );
    }
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {path}");
    all_identical
}

/// Reads the `(name, events, events_per_sec_1t)` triples of a
/// `--bench-perf` JSON file. A row missing any of the three is an
/// error, so no experiment silently drops out of the gate.
fn parse_baseline(body: &str) -> Result<Vec<(String, u64, f64)>, String> {
    let doc = json::parse(body)?;
    let Some(Json::Arr(rows)) = doc.get("experiments") else {
        return Err("no \"experiments\" array".to_string());
    };
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let Some(Json::Str(name)) = row.get("name") else {
                return Err(format!("experiment {i} has no string \"name\""));
            };
            let Some(&Json::UInt(events)) = row.get("events") else {
                return Err(format!("{name} has no integer \"events\""));
            };
            let eps = match row.get("events_per_sec_1t") {
                Some(&Json::Num(eps)) => eps,
                Some(&Json::UInt(eps)) => eps as f64,
                _ => return Err(format!("{name} has no numeric \"events_per_sec_1t\"")),
            };
            Ok((name.clone(), events, eps))
        })
        .collect()
}

/// Gates the measured run against a checked-in baseline. Every entry
/// whose baseline simulates ≥[`PERF_GATE_MIN_EVENTS`] events must
/// simulate exactly as many events again, and stay within
/// [`PERF_GATE_MAX_REGRESSION`] of its baseline single-thread
/// events/sec. Event counts are deterministic, so a changed count
/// always fails: an inflated count would otherwise pass as a faster
/// rate. `MTIA_PERF_ALLOW_REGRESSION=1` downgrades a rate failure to a
/// warning.
fn perf_baseline_gate(measured: &[PerfRow], path: &str) -> bool {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("failed to read perf baseline {path}: {e}");
            return false;
        }
    };
    let baseline = match parse_baseline(&body) {
        Ok(rows) if !rows.is_empty() => rows,
        Ok(_) => {
            eprintln!("perf baseline {path} contains no experiment rows");
            return false;
        }
        Err(e) => {
            eprintln!("perf baseline {path} is malformed: {e}");
            return false;
        }
    };
    let mut gated = 0;
    let mut regressed = Vec::new();
    let mut recounted = Vec::new();
    for row in measured {
        let Some((_, base_events, base_eps)) =
            baseline.iter().find(|(name, _, _)| name == row.name)
        else {
            continue;
        };
        if *base_events < PERF_GATE_MIN_EVENTS || *base_eps <= 0.0 {
            continue;
        }
        gated += 1;
        let ratio = row.events_per_sec_1t / base_eps;
        let verdict = if row.events != *base_events {
            recounted.push(row.name);
            "EVENTS CHANGED"
        } else if ratio < 1.0 - PERF_GATE_MAX_REGRESSION {
            regressed.push(row.name);
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!(
            "  perf gate {:<24} {:>9} events vs {:>9}, {:>9.0}/s vs {:>9.0}/s ({:+.1}%)  {}",
            row.name,
            row.events,
            base_events,
            row.events_per_sec_1t,
            base_eps,
            (ratio - 1.0) * 100.0,
            verdict,
        );
    }
    if gated == 0 {
        eprintln!(
            "perf gate: no baseline experiment cleared the \
             {PERF_GATE_MIN_EVENTS}-event floor — nothing gated"
        );
        return true;
    }
    if !recounted.is_empty() {
        eprintln!(
            "perf gate FAILED: simulated event counts differ from {path} for: {}; \
             counts are deterministic, so refresh BENCH_BASELINE.json (copy a \
             representative BENCH_PERF.json) if the change is intended",
            recounted.join(", "),
        );
        return false;
    }
    if regressed.is_empty() {
        eprintln!("perf gate passed: {gated} experiment(s) within 25% of baseline events/sec");
        return true;
    }
    let allow = std::env::var("MTIA_PERF_ALLOW_REGRESSION").is_ok_and(|v| v == "1");
    eprintln!(
        "perf gate {}: events/sec regressed >25% vs {path} for: {}{}",
        if allow { "overridden" } else { "FAILED" },
        regressed.join(", "),
        if allow {
            " (MTIA_PERF_ALLOW_REGRESSION=1)"
        } else {
            "; rerun with MTIA_PERF_ALLOW_REGRESSION=1 to override on a \
             known-slow host, or refresh BENCH_BASELINE.json if the \
             slowdown is intended"
        },
    );
    allow
}

/// Writes the pinned-seed scenario traces (canonical + Chrome
/// `trace_event` JSON, for chrome://tracing or Perfetto) plus one
/// metrics dump per selected experiment into `dir`.
fn trace_out(entries: &[ExperimentEntry], dir: &str) -> bool {
    use mtia_bench::traces;
    use mtia_core::telemetry::Telemetry;
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("failed to create {dir}: {e}");
        return false;
    }
    let mut ok = true;
    let mut write_file = |path: String, body: &str| {
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("failed to write {path}: {e}");
            ok = false;
        } else {
            eprintln!("wrote {path}");
        }
    };
    for scenario in traces::scenarios() {
        let mut tel = Telemetry::new_enabled();
        (scenario.run)(&mut tel);
        write_file(
            format!("{dir}/{}.trace.json", scenario.name),
            &tel.to_canonical_json(),
        );
        write_file(
            format!("{dir}/{}.chrome.json", scenario.name),
            &tel.to_chrome_json(),
        );
    }
    // Per-experiment metrics: wall clock + the Zipf-memo counters each
    // experiment produced on a cold memo.
    let mut rows = String::new();
    for (i, entry) in entries.iter().enumerate() {
        let run = timed_run(std::slice::from_ref(entry), 1);
        write!(
            rows,
            "{}    {{\"name\": \"{}\", \"wall_s\": {}, \"events\": {}, \
             \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {}}}}}",
            if i == 0 { "" } else { ",\n" },
            entry.name,
            json_f64(run.wall),
            run.events,
            run.cache.hits,
            run.cache.misses,
            json_f64(run.cache.hit_rate()),
        )
        .expect("string write");
    }
    write_file(
        format!("{dir}/experiments.metrics.json"),
        &format!("{{\n  \"experiments\": [\n{rows}\n  ]\n}}\n"),
    );
    ok
}

/// Checks tracing is a pure observer: traced and untraced scenario
/// results are byte-identical, canonical exports are stable across
/// runs, and the traced wall clock stays within the overhead budget.
fn telemetry_smoke() -> bool {
    let report = mtia_bench::traces::run_telemetry_smoke(5);
    for (name, ok) in &report.identical {
        eprintln!(
            "  {name:<12} traced == untraced: {}",
            if *ok { "identical" } else { "MISMATCH" }
        );
    }
    for (name, ok) in &report.stable {
        eprintln!(
            "  {name:<12} canonical export:   {}",
            if *ok { "stable" } else { "UNSTABLE" }
        );
    }
    eprintln!(
        "  wall clock: untraced {:.4}s, traced {:.4}s ({:+.1}% overhead)",
        report.untraced_s,
        report.traced_s,
        report.overhead() * 100.0
    );
    let passed = report.passed(0.10);
    eprintln!(
        "telemetry smoke {}",
        if passed { "passed" } else { "FAILED" }
    );
    passed
}

/// Runs the seeded chaos suite: the cell-level scenarios against the
/// paper-shape pod with domain-aware placement and failover on, plus
/// the region-level suite against the global router on the toy global
/// fleet. Passes when accounting conserves everywhere, no cell-level
/// scenario loses a request forever, and goodput holds (region storms
/// may legitimately kill in-flight work, so global lines gate on
/// conservation + goodput only).
fn chaos_smoke() -> bool {
    let report = mtia_bench::chaos::run_chaos_smoke(mtia_core::seed::DEFAULT_SEED);
    for line in &report.lines {
        let r = &line.report;
        eprintln!(
            "  {:<18} goodput {:>6.2}%  lost {}  unavailable {:.2}s  recovery {:.2}s  \
             promo/restore/rerepl {}/{}/{}",
            line.name,
            r.goodput() * 100.0,
            r.lost,
            r.unavailable.as_secs_f64(),
            r.recovery_time.as_secs_f64(),
            r.promotions,
            r.restores,
            r.rereplications,
        );
    }
    for line in &report.global_lines {
        let r = &line.report;
        eprintln!(
            "  {:<24} goodput {:>6.2}%  shed {}  lost {}  spillover {}  recovery {:.2}s  \
             headroom {:.1}%",
            line.name,
            r.goodput() * 100.0,
            r.shed,
            r.lost,
            r.spillover,
            r.recovery_time.as_secs_f64(),
            r.capacity_headroom * 100.0,
        );
    }
    let passed = report.passed(0.90);
    eprintln!("chaos smoke {}", if passed { "passed" } else { "FAILED" });
    passed
}

/// The CI explore rungs. First it exhaustively searches the tiny pinned
/// space and requires the optimum to be exactly the paper's design
/// point (the rung that backs the golden-frontier fixture). Then it
/// sweeps the whole paper space as an oracle: the sweep's best must be
/// the shipped point or Pareto-dominate it, and the seeded E25 search
/// must report no Perf/TCO above the sweep's best.
fn explore_smoke() -> bool {
    use mtia_bench::experiments::explore_exps::{self, Verdict};

    let run = explore_exps::e25_tiny_run();
    let best = &run.outcome.best;
    eprintln!(
        "  tiny-space optimum: {} perf/TCO {:.4} (paper {:.4})",
        best.design.label(),
        best.score.perf_per_tco,
        run.paper_score.perf_per_tco,
    );
    let tiny_ok = run.verdict == Verdict::Rediscovered;

    let sweep = explore_exps::e25_sweep_run();
    let search = explore_exps::e25_run();
    let optimum = &sweep.outcome.best;
    let found = &search.outcome.best;
    eprintln!(
        "  paper-space sweep optimum: {} perf/TCO {:.4} over {} candidates \
         ({} infeasible; paper {:.4})",
        optimum.design.label(),
        optimum.score.perf_per_tco,
        sweep.outcome.evaluated.len() + sweep.outcome.infeasible,
        sweep.outcome.infeasible,
        sweep.paper_score.perf_per_tco,
    );
    eprintln!(
        "  seeded search best: {} perf/TCO {:.4}; search-to-sweep gap {:.4}",
        found.design.label(),
        found.score.perf_per_tco,
        optimum.score.perf_per_tco - found.score.perf_per_tco,
    );
    let sweep_ok = sweep.verdict != Verdict::FellShort;
    let search_ok = found.score.perf_per_tco <= optimum.score.perf_per_tco;
    if !sweep_ok {
        eprintln!("  the sweep's optimum neither is nor dominates the shipped point");
    }
    if !search_ok {
        eprintln!("  the seeded search beat the exhaustive sweep: the two disagree");
    }

    let passed = tiny_ok && sweep_ok && search_ok;
    eprintln!("explore smoke {}", if passed { "passed" } else { "FAILED" });
    passed
}

fn main() -> ExitCode {
    let opts = parse_args();
    let entries = selection(&opts);
    if opts.list {
        for e in &entries {
            println!("{}", e.name);
        }
        return ExitCode::SUCCESS;
    }
    let threads = if opts.threads == 0 {
        pool::configured_threads()
    } else {
        opts.threads
    };

    let mut failed = false;
    if opts.determinism_check {
        let run_1t = timed_run(&entries, 1);
        let run_nt = timed_run(&entries, threads);
        if run_1t.out == run_nt.out {
            eprintln!(
                "determinism check passed: {} experiments byte-identical at 1 \
                 and {threads} threads ({:.3}s -> {:.3}s)",
                entries.len(),
                run_1t.wall,
                run_nt.wall,
            );
        } else {
            eprintln!("determinism check FAILED: output differs between 1 and {threads} threads");
            failed = true;
        }
    }
    if let Some(path) = &opts.bench_perf {
        let mut measured = Vec::new();
        failed |= !bench_perf(&entries, threads, path, &mut measured);
        if let Some(baseline) = &opts.perf_baseline {
            failed |= !perf_baseline_gate(&measured, baseline);
        }
    } else if opts.perf_baseline.is_some() {
        eprintln!("--perf-baseline requires --bench-perf");
        usage();
    }
    if opts.telemetry_smoke {
        failed |= !telemetry_smoke();
    }
    if opts.chaos_smoke {
        failed |= !chaos_smoke();
    }
    if opts.explore_smoke {
        failed |= !explore_smoke();
    }
    if let Some(dir) = &opts.trace_out {
        failed |= !trace_out(&entries, dir);
    }
    if opts.determinism_check
        || opts.bench_perf.is_some()
        || opts.telemetry_smoke
        || opts.chaos_smoke
        || opts.explore_smoke
        || opts.trace_out.is_some()
    {
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    pool::set_threads(threads);
    println!("# MTIA 2i reproduction — every table and figure\n");
    println!(
        "Generated by `cargo run --release -p mtia-bench --bin reproduce`.\n\
         Absolute numbers come from the simulator stack; the *shape* of each\n\
         result (who wins, by what factor, where thresholds fall) is the\n\
         reproduction target."
    );
    let reports = experiments::run_entries(entries);
    print!("{}", render_reports(&reports));
    ExitCode::SUCCESS
}
