//! Self-tests of the benchmark: metric names, the manifest, the result
//! line, and every workload completing its checks at a tiny size.
//!
//! Workloads run through the built binary, one process each, because a
//! run sets process-wide state (pool threads, the kernel-cost cache, the
//! event counter) that parallel tests would otherwise share.

use std::path::Path;
use std::process::Command;

use mtia_core::telemetry::json::{parse, Json};
use mtia_perfbench::workloads::Workload;
use mtia_perfbench::{END_TO_END, PER_LAYER};

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(name, _)| *name)
        .collect();
    for name in &names {
        assert!(valid_name(name), "metric name {name:?}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "metric names must be unique");
}

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    let Json::Arr(items) = list else {
        panic!("expected an array");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            other => panic!("metric entry without name/unit: {other:?}"),
        })
        .collect()
}

fn declared(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_lists_exactly_the_emitted_metrics_and_workloads() {
    let m = manifest();
    assert_eq!(
        names_and_units(m.get("end_to_end").expect("end_to_end")),
        declared(&END_TO_END)
    );
    assert_eq!(
        names_and_units(m.get("per_layer").expect("per_layer")),
        declared(&PER_LAYER)
    );
    let Some(Json::Arr(workloads)) = m.get("workloads") else {
        panic!("workloads array");
    };
    let listed: Vec<&Json> = workloads.iter().filter_map(|w| w.get("name")).collect();
    let expected: Vec<Json> = Workload::ALL
        .iter()
        .map(|w| Json::Str(w.name().to_string()))
        .collect();
    assert_eq!(listed, expected.iter().collect::<Vec<_>>());
}

/// Runs the benchmark binary and returns (exit success, stdout).
fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// Runs a tiny job of `workload` and checks its result line.
fn tiny_run(workload: Workload, trace: &str, expected: &[(&str, &str)]) {
    let (ok, stdout) = bench(&[
        "--workload",
        workload.name(),
        "--seconds",
        "0",
        "--trace",
        trace,
        "--scale",
        "tiny",
    ]);
    assert!(ok, "{} exited with an error:\n{stdout}", workload.name());
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("the result line parses");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed"), Some(&Json::UInt(0)), "{stdout}");
    assert!(matches!(result.get("attempted"), Some(Json::UInt(n)) if *n >= 1));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics object in {last}");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| match (m.get("value"), m.get("unit")) {
            (Some(Json::Num(_) | Json::UInt(_)), Some(Json::Str(u))) => (name.clone(), u.clone()),
            other => panic!("metric {name} is not a number with a unit: {other:?}"),
        })
        .collect();
    assert_eq!(got, declared(expected));
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for w in Workload::ALL {
        tiny_run(w, "0", &END_TO_END);
    }
}

#[test]
fn every_workload_passes_its_checks_traced() {
    for w in Workload::ALL {
        tiny_run(w, "1", &PER_LAYER);
    }
}

#[test]
fn usage_errors_exit_nonzero_without_a_result() {
    for args in [
        &[][..],
        &["--workload", "nope"][..],
        &["--workload", "pod", "--trace", "2"][..],
        &["--workload", "pod", "--seed"][..],
    ] {
        let (ok, stdout) = bench(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}
