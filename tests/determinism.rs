//! Tier-1 determinism gate for the parallel experiment runtime.
//!
//! Experiments are pure `(config, seed)` functions and the pool collects
//! results in submission order, so the rendered output must be
//! byte-identical at any thread count. This runs the `--filter quick`
//! subset — fig5 (serving Monte-Carlo sweeps), one E19 SDC ladder rung,
//! the E21 failover rung, the E22 global-router rung, the E23
//! gray-failure rung, the E24 sharded-planet rung, the E25 explore
//! rung, and the E26 metastable-storm rung — the same selection
//! `scripts/ci.sh` smoke-checks — plus the E22, E23, E24, E25, and E26
//! comparisons at 1/2/8 threads. The serial render is also pinned to
//! `tests/goldens/quick_tables.golden`, so any change to a quick-subset
//! table fails here. To re-pin after an intentional change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test determinism quick_subset
//! git diff tests/goldens/   # review every shifted row before committing
//! ```

use std::path::PathBuf;

use mtia_bench::experiments;
use mtia_bench::render_reports;
use mtia_core::pool;
use mtia_core::telemetry::diff_canonical;

fn render_at(threads: usize) -> String {
    pool::set_threads(threads);
    let reports = experiments::run_entries(experiments::quick_subset());
    pool::set_threads(0);
    render_reports(&reports)
}

#[test]
fn quick_subset_is_byte_identical_across_thread_counts() {
    let serial = render_at(1);
    let threaded = render_at(4);
    assert!(!serial.is_empty());
    assert!(
        serial == threaded,
        "reproduce output differs between 1 and 4 threads:\n\
         --- 1 thread ---\n{serial}\n--- 4 threads ---\n{threaded}"
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/quick_tables.golden");
    if std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &serial).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDENS=1 cargo test --test determinism quick_subset",
            path.display()
        )
    });
    if let Some(diff) = diff_canonical(&expected, &serial) {
        panic!("quick-subset tables drift (UPDATE_GOLDENS=1 re-pins after intentional changes):\n{diff}");
    }
}

#[test]
fn filter_quick_selects_the_gated_subset() {
    let names: Vec<&str> = experiments::filtered("quick")
        .iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(
        names,
        vec![
            "fig5", "e19_rung", "e21_rung", "e22_rung", "e23_rung", "e24_rung", "e25_rung",
            "e26_rung"
        ]
    );
}

/// The E22 regional replay must be byte-identical at any thread count:
/// the trace is built once, both arms replay it, and the rendered
/// comparison (fingerprints included) cannot depend on pool scheduling.
#[test]
fn e22_comparison_is_byte_identical_across_thread_counts() {
    use mtia_bench::experiments::global_exps;

    let render = |threads: usize| {
        pool::set_threads(threads);
        let report = global_exps::e22_rung();
        pool::set_threads(0);
        format!("{report}")
    };
    let one = render(1);
    let two = render(2);
    let eight = render(8);
    assert!(!one.is_empty());
    assert_eq!(one, two, "E22 rung differs between 1 and 2 threads");
    assert_eq!(one, eight, "E22 rung differs between 1 and 8 threads");
}

/// The E23 gray-failure replay — per-device queues, the outlier
/// detector, and hedge timers — must likewise be byte-identical at any
/// thread count, fingerprints included.
#[test]
fn e23_comparison_is_byte_identical_across_thread_counts() {
    use mtia_bench::experiments::gray_exps;

    let render = |threads: usize| {
        pool::set_threads(threads);
        let report = gray_exps::e23_rung();
        pool::set_threads(0);
        format!("{report}")
    };
    let one = render(1);
    let two = render(2);
    let eight = render(8);
    assert!(!one.is_empty());
    assert_eq!(one, two, "E23 rung differs between 1 and 2 threads");
    assert_eq!(one, eight, "E23 rung differs between 1 and 8 threads");
}

/// The E24 cell-sharded planetary replay is the experiment whose whole
/// point is intra-experiment parallelism, so its rendered report —
/// per-cell rows, merged counters, folded fingerprints — must be
/// byte-identical at any worker count.
#[test]
fn e24_planet_rung_is_byte_identical_across_thread_counts() {
    use mtia_bench::experiments::planet_exps;

    let render = |threads: usize| {
        pool::set_threads(threads);
        let report = planet_exps::e24_rung();
        pool::set_threads(0);
        format!("{report}")
    };
    let one = render(1);
    let two = render(2);
    let eight = render(8);
    assert!(!one.is_empty());
    assert_eq!(one, two, "E24 rung differs between 1 and 2 threads");
    assert_eq!(one, eight, "E24 rung differs between 1 and 8 threads");
}

/// The E25 explore rung fans candidate evaluations out through the
/// pool, so the rendered frontier, verdict, and telemetry — memo hit
/// counts included — must be byte-identical at any worker count.
#[test]
fn e25_explore_rung_is_byte_identical_across_thread_counts() {
    use mtia_bench::experiments::explore_exps;

    let render = |threads: usize| {
        pool::set_threads(threads);
        let report = explore_exps::e25_rung();
        pool::set_threads(0);
        format!("{report}")
    };
    let one = render(1);
    let two = render(2);
    let eight = render(8);
    assert!(!one.is_empty());
    assert_eq!(one, two, "E25 rung differs between 1 and 2 threads");
    assert_eq!(one, eight, "E25 rung differs between 1 and 8 threads");
}

/// The E26 metastable-storm rung runs three arms — retry budgets,
/// breaker windows, deadline cancellation, and the autoscaler all
/// active — so its rendered scorecard (goodput levels, recovery times,
/// counters, fingerprints) must be byte-identical at any worker count.
#[test]
fn e26_overload_rung_is_byte_identical_across_thread_counts() {
    use mtia_bench::experiments::overload_exps;

    let render = |threads: usize| {
        pool::set_threads(threads);
        let report = overload_exps::e26_rung();
        pool::set_threads(0);
        format!("{report}")
    };
    let one = render(1);
    let two = render(2);
    let eight = render(8);
    assert!(!one.is_empty());
    assert_eq!(one, two, "E26 rung differs between 1 and 2 threads");
    assert_eq!(one, eight, "E26 rung differs between 1 and 8 threads");
}
