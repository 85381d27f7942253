//! Integration tests closing the §4.1 autotuner coverage gaps: selection
//! tie-breaking and monotonicity in the batch tuner, smallest-feasible
//! and split-conservation invariants in the sharder, and the
//! near-tie/fill preference rule in the coalescing sweep.

use mtia_autotune::batch::{tune_batch_size, DEFAULT_CANDIDATES};
use mtia_autotune::coalescing::{max_rate, predict, tune_coalescing, CoalescingConfig};
use mtia_autotune::sharding::{sharded_throughput, split_for_shards, tune_sharding, ShardingPlan};
use mtia_core::spec::chips;
use mtia_core::units::SimTime;
use mtia_model::models::dlrm::DlrmConfig;
use mtia_model::models::zoo;
use mtia_sim::chip::ChipSim;

fn sim() -> ChipSim {
    ChipSim::new(chips::mtia2i())
}

/// The ranking-model service profile the coalescing unit tests use:
/// 2 ms fixed + 20 µs per sample.
fn service(batch: u64) -> SimTime {
    SimTime::from_micros(2000) + SimTime::from_micros(20) * batch
}

// ---------------------------------------------------------------- batch

#[test]
fn batch_latency_is_monotone_in_batch_size() {
    let choice = tune_batch_size(
        &sim(),
        SimTime::from_millis(100),
        &DEFAULT_CANDIDATES,
        |b| DlrmConfig::small(b).build(),
    );
    let latencies: Vec<_> = choice.sweep.iter().map(|c| c.latency).collect();
    for pair in latencies.windows(2) {
        assert!(
            pair[0] < pair[1],
            "latency must grow with batch size: {latencies:?}"
        );
    }
    // Feasibility is therefore a prefix of the sorted candidate grid.
    let first_infeasible = choice.sweep.iter().position(|c| !c.feasible);
    if let Some(i) = first_infeasible {
        assert!(choice.sweep[i..].iter().all(|c| !c.feasible));
    }
}

#[test]
fn batch_sweep_preserves_candidate_order() {
    // Candidates are evaluated and reported in the order given, not
    // sorted — the argmin/argmax tie-breaks are defined over this order.
    let candidates = [1024, 64, 512];
    let choice = tune_batch_size(&sim(), SimTime::from_millis(100), &candidates, |b| {
        DlrmConfig::small(b).build()
    });
    let order: Vec<u64> = choice.sweep.iter().map(|c| c.batch).collect();
    assert_eq!(order, candidates);
}

#[test]
fn infeasible_fallback_argmin_is_stable_under_duplicates() {
    // With an impossible budget the tuner falls back to the lowest-
    // latency snapshot. Duplicated candidates produce exact latency
    // ties; the pick must be the *first* minimal entry in candidate
    // order (argmin tie-breaking), and re-running must reproduce the
    // identical choice.
    let candidates = [512, 128, 128, 1024];
    let a = tune_batch_size(&sim(), SimTime::from_nanos(1), &candidates, |b| {
        DlrmConfig::small(b).build()
    });
    assert!(a.sweep.iter().all(|c| !c.feasible));
    assert_eq!(a.batch, 128);
    assert_eq!(a.sweep[1].latency, a.sweep[2].latency, "duplicate tie");
    let b = tune_batch_size(&sim(), SimTime::from_nanos(1), &candidates, |b| {
        DlrmConfig::small(b).build()
    });
    assert_eq!(a, b, "batch tuning must be deterministic");
}

#[test]
fn budget_boundary_is_inclusive() {
    // A candidate whose latency exactly equals the budget is feasible
    // (`latency <= budget`), so tuning with budget == latency(512)
    // must select a batch of at least 512.
    let probe = tune_batch_size(&sim(), SimTime::from_millis(100), &[512], |b| {
        DlrmConfig::small(b).build()
    });
    let exact_budget = probe.sweep[0].latency;
    let choice = tune_batch_size(&sim(), exact_budget, &DEFAULT_CANDIDATES, |b| {
        DlrmConfig::small(b).build()
    });
    assert!(
        choice.sweep.iter().any(|c| c.batch == 512 && c.feasible),
        "boundary candidate must stay feasible"
    );
    assert!(choice.batch >= 512);
}

// ------------------------------------------------------------- sharding

#[test]
fn tune_sharding_returns_smallest_feasible_shard_count() {
    let hc4 = zoo::fig6_models()
        .into_iter()
        .find(|m| m.name == "HC4")
        .unwrap();
    let g = hc4.graph();
    let s = sim();
    let plan = tune_sharding(&s, &g, 12);
    assert!(plan.shards > 1, "HC4 tables exceed one device");
    let dram = s.spec().dram.capacity;
    let stats = g.stats();
    let dense = stats.weight_bytes + g.peak_activation_bytes() * 2;
    // The chosen count fits; one fewer must not.
    assert!(dense + stats.table_bytes / plan.shards as u64 <= dram);
    assert!(dense + stats.table_bytes / (plan.shards - 1) as u64 > dram);
}

#[test]
fn split_conserves_work_across_shard_counts() {
    let hc3 = zoo::fig6_models()
        .into_iter()
        .find(|m| m.name == "HC3")
        .unwrap();
    let g = hc3.graph();
    for shards in [1u32, 2, 4, 8] {
        let (remote, merge) = split_for_shards(&g, shards);
        assert_eq!(remote.validate(), Ok(()));
        assert_eq!(merge.validate(), Ok(()));
        // Dense work is untouched; sparse work splits ~1/shards.
        assert_eq!(merge.stats().gemm_nodes, g.stats().gemm_nodes);
        assert_eq!(remote.stats().sparse_nodes, g.stats().sparse_nodes);
        let expected = g.stats().table_bytes.as_f64() / shards as f64;
        let got = remote.stats().table_bytes.as_f64();
        assert!(
            (got - expected).abs() / expected < 0.05,
            "{shards} shards: {got} vs {expected}"
        );
    }
}

#[test]
fn sharded_throughput_single_matches_unsharded_run() {
    let g = DlrmConfig::small(512).build();
    let s = sim();
    let via_plan = sharded_throughput(&s, &g, ShardingPlan::single());
    let direct = mtia_compiler::compile(&g, mtia_compiler::CompilerOptions::all())
        .run(&s)
        .throughput_samples_per_s();
    assert_eq!(via_plan, direct);
}

#[test]
#[should_panic(expected = "shard count must be positive")]
fn split_for_zero_shards_panics() {
    let g = DlrmConfig::small(128).build();
    let _ = split_for_shards(&g, 0);
}

// ----------------------------------------------------------- coalescing

#[test]
fn max_rate_is_monotone_in_slo() {
    let config = CoalescingConfig {
        window: SimTime::from_millis(10),
        parallel_windows: 1,
    };
    let mut prev = 0.0;
    for slo_ms in [20u64, 50, 100, 200] {
        let rate = max_rate(config, 512, SimTime::from_millis(slo_ms), &service)
            .expect("profile meets these SLOs at trickle rates");
        assert!(
            rate >= prev,
            "rate must grow with the SLO: {rate} at {slo_ms} ms after {prev}"
        );
        prev = rate;
    }
}

#[test]
fn max_rate_respects_the_slo_at_its_answer() {
    let config = CoalescingConfig {
        window: SimTime::from_millis(20),
        parallel_windows: 2,
    };
    let slo = SimTime::from_millis(100);
    let rate = max_rate(config, 512, slo, &service).unwrap();
    assert!(predict(config, rate, 512, &service).p99 <= slo);
    // Slightly above the bisected rate must violate (the answer is tight
    // to within the bisection tolerance).
    assert!(predict(config, rate * 1.05, 512, &service).p99 > slo);
}

#[test]
fn impossible_slo_yields_none() {
    let config = CoalescingConfig {
        window: SimTime::from_millis(10),
        parallel_windows: 1,
    };
    // Even one request pays >= 2 ms service; a 1 ms SLO can never be met.
    assert_eq!(
        max_rate(config, 512, SimTime::from_millis(1), &service),
        None
    );
}

#[test]
fn tuner_prefers_fill_among_near_tied_rates() {
    // Re-derive the tuner's grid and check its documented rule: the
    // winner sustains >= 98 % of the best rate, and no configuration in
    // that near-tie band fills batches better.
    let slo = SimTime::from_millis(100);
    let choice = tune_coalescing(512, slo, &service);
    let mut best_rate = 0.0f64;
    let mut band = Vec::new();
    for window_ms in [1u64, 2, 5, 10, 20, 50, 100] {
        for parallel_windows in [1u32, 2, 4] {
            let config = CoalescingConfig {
                window: SimTime::from_millis(window_ms),
                parallel_windows,
            };
            if let Some(rate) = max_rate(config, 512, slo, &service) {
                best_rate = best_rate.max(rate);
                band.push((config, rate));
            }
        }
    }
    assert!(choice.max_rate_per_s >= best_rate * 0.98);
    for (config, rate) in band {
        if rate >= best_rate * 0.98 {
            let fill = predict(config, rate, 512, &service).fill;
            assert!(
                fill <= choice.prediction.fill + 1e-9,
                "{config:?} fills {fill:.4} > chosen {:.4}",
                choice.prediction.fill
            );
        }
    }
}

#[test]
fn tuning_is_deterministic() {
    let a = tune_coalescing(512, SimTime::from_millis(100), &service);
    let b = tune_coalescing(512, SimTime::from_millis(100), &service);
    assert_eq!(a, b);
}
