//! CLI contract tests for the `reproduce` binary, driven through the
//! real executable (`CARGO_BIN_EXE_reproduce`).

use std::process::Command;

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

#[test]
fn zero_match_filter_exits_nonzero_with_near_miss_suggestions() {
    let out = reproduce()
        .args(["--filter", "fig55", "--list"])
        .output()
        .expect("spawn reproduce");
    assert!(
        !out.status.success(),
        "zero-match filter must exit nonzero, got {:?}",
        out.status
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no experiments match the filter"),
        "stderr missing diagnostic: {stderr}"
    );
    assert!(
        stderr.contains("did you mean") && stderr.contains("fig5"),
        "stderr missing near-miss suggestion: {stderr}"
    );
}

#[test]
fn zero_match_filter_with_no_near_miss_still_fails() {
    let out = reproduce()
        .args(["--filter", "zzzzzzzzzzzz", "--list"])
        .output()
        .expect("spawn reproduce");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no experiments match the filter"));
    assert!(!stderr.contains("did you mean"));
    assert!(stderr.contains("--list"));
}

#[test]
fn list_prints_filtered_names() {
    let out = reproduce()
        .args(["--filter", "fig5", "--list"])
        .output()
        .expect("spawn reproduce");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim(), "fig5");
}

#[test]
fn trace_out_writes_scenario_traces() {
    let dir = std::env::temp_dir().join(format!("mtia-traces-{}", std::process::id()));
    let out = reproduce()
        .args(["--filter", "quick", "--trace-out"])
        .arg(&dir)
        .output()
        .expect("spawn reproduce");
    assert!(
        out.status.success(),
        "trace-out failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for name in ["quickstart", "fig5_cell", "rollout", "failover"] {
        let canonical = dir.join(format!("{name}.trace.json"));
        let chrome = dir.join(format!("{name}.chrome.json"));
        for path in [&canonical, &chrome] {
            let body = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
            mtia_core::telemetry::json::parse(&body)
                .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));
        }
    }
    let metrics = dir.join("experiments.metrics.json");
    let body = std::fs::read_to_string(&metrics).expect("experiments.metrics.json");
    assert!(body.contains("\"fig5\"") && body.contains("\"e19_rung\""));
    assert!(body.contains("\"e21_rung\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_smoke_passes_and_reports_every_scenario() {
    let out = reproduce()
        .args(["--filter", "quick", "--chaos-smoke"])
        .output()
        .expect("spawn reproduce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "chaos smoke failed: {stderr}");
    assert!(stderr.contains("chaos smoke passed"), "stderr: {stderr}");
    for scenario in ["single-host-loss", "rolling-rack-loss", "partition-at-peak"] {
        assert!(stderr.contains(scenario), "missing {scenario}: {stderr}");
    }
}

#[test]
fn malformed_perf_baseline_fails_the_gate() {
    let dir = std::env::temp_dir().join(format!("mtia-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let baseline = dir.join("baseline.json");
    // The fig5 row lacks its rate; the other row parses but names an
    // experiment the filter does not run, so only the parse can fail.
    std::fs::write(
        &baseline,
        r#"{"experiments": [
            {"name": "fig5", "events": 1206259},
            {"name": "e21_rung", "events": 8600, "events_per_sec_1t": 1.0}
        ]}"#,
    )
    .expect("write baseline");
    let out = reproduce()
        .args(["--filter", "fig5", "--bench-perf"])
        .arg(dir.join("perf.json"))
        .arg("--perf-baseline")
        .arg(&baseline)
        .output()
        .expect("spawn reproduce");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "a malformed baseline must fail: {stderr}"
    );
    assert!(
        stderr.contains("malformed") && stderr.contains("fig5 has no numeric"),
        "stderr must name the cause: {stderr}"
    );
}

#[test]
fn help_prints_usage_to_stdout_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = reproduce().arg(flag).output().expect("spawn reproduce");
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: reproduce"), "{flag}: {stdout}");
        assert!(stdout.contains("--explore-smoke"), "{flag}: {stdout}");
    }
}

#[test]
fn rejected_arguments_are_named_before_the_usage() {
    let cases: [(&[&str], &str); 4] = [
        (&["--bogus"], "reproduce: unknown flag --bogus"),
        (&["--threads", "x"], r#"reproduce: bad --threads value "x""#),
        (&["--threads"], "reproduce: --threads needs a value"),
        (
            &["--perf-baseline", "b.json"],
            "reproduce: --perf-baseline requires --bench-perf",
        ),
    ];
    for (args, message) in cases {
        let out = reproduce().args(args).output().expect("spawn reproduce");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let mut lines = stderr.lines();
        assert_eq!(lines.next(), Some(message), "{args:?}: {stderr}");
        assert!(
            lines
                .next()
                .is_some_and(|l| l.starts_with("usage: reproduce")),
            "{args:?}: {stderr}"
        );
    }
}

/// The stderr of `--bench-perf` over the experiments `filter` selects.
fn bench_perf_stderr(filter: &str) -> String {
    let dir = std::env::temp_dir().join(format!("mtia-memo-{filter}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = reproduce()
        .args(["--filter", filter, "--bench-perf"])
        .arg(dir.join("perf.json"))
        .output()
        .expect("spawn reproduce");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{filter}: {stderr}");
    stderr
}

#[test]
fn a_selection_that_never_reaches_the_zipf_memo_gets_no_dead_weight_warning() {
    // Table 2 is a spec table: no Zipf-memo lookups at all.
    let stderr = bench_perf_stderr("table2");
    assert!(!stderr.contains("dead weight"), "stderr: {stderr}");
}

#[test]
fn a_zipf_memo_that_misses_and_never_hits_is_dead_weight() {
    // E6 looks up each embedding-cache budget once: misses, no hits.
    let stderr = bench_perf_stderr("e6_sram_hit_rates");
    assert!(stderr.contains("dead weight"), "stderr: {stderr}");
}
