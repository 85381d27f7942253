//! E25: search-driven co-design over the §3.6/E18 design axes.
//!
//! Fig. 4 shows the design point the paper's engineers reached by hand;
//! ROADMAP item 3 asks whether a *search* over the same levers lands in
//! the same place. This experiment wires the `autotune::explore` engine
//! to the E6/F6 platform objective — mean relative Perf/TCO and
//! Perf/Watt vs the fixed GPU baseline over the E18a model set — with
//! the candidate's module priced by the calibrated area/power model.
//! The acceptance bar (`reproduce --filter e25_explore`,
//! `tests/paper_claims.rs`) is that a cold-start seeded search
//! rediscovers or Pareto-dominates the shipped point, byte-identically
//! at any thread count.

use mtia_autotune::explore::{
    self, ChipSpecSpace, DesignPoint, ExploreConfig, ExploreOutcome, ObjectivePoint,
};
use mtia_core::tco::{PlatformMetrics, ServerCost};
use mtia_core::units::{CostUnits, Watts};
use mtia_core::{calib, spec::chips};
use mtia_model::models::zoo;
use mtia_serving::cluster::{host_bound_samples_per_s, HostPipeline};
use mtia_sim::chip::ChipSim;

use crate::platform::{self, ServingFactors};
use crate::{fx, pct, ExperimentReport, Table};

/// The representative model set the objective averages over: a spread
/// of launched low- and high-complexity ranking models *including* the
/// capacity-hungry ones (LC5 at ~100 GiB, HC4 at ~200 GiB). Capacity
/// is a first-class axis of the §3.6 memory-technology argument — a
/// candidate that trades DRAM capacity for bandwidth must shard these
/// models across more devices and pay for it in replicas.
const OBJECTIVE_MODELS: [&str; 5] = ["LC3", "LC5", "HC1", "HC3", "HC4"];

/// DRAM held back per device for activations, staging buffers, and the
/// runtime — not available for model weights and tables.
const DRAM_RESERVE_GIB: u64 = 8;

/// Throughput retained per additional shard in a replica: the
/// remote/merge split serializes a gather against the merge network, so
/// each extra device costs a fraction of the replica's throughput
/// (matches the §7 sharding penalty the E6 comparison pays).
const SHARD_EFFICIENCY: f64 = 0.85;

/// Everything about one model that does not depend on the candidate:
/// the compiled graph (compilation is chip-independent), the host-side
/// ceiling, and the GPU baseline metrics.
struct ModelCase {
    compiled: mtia_compiler::Compiled,
    model_bytes: mtia_core::units::Bytes,
    host_overhead: f64,
    host_limit_per_device: f64,
    gpu_metrics: PlatformMetrics,
}

fn model_cases() -> Vec<ModelCase> {
    let models = zoo::fig6_models();
    OBJECTIVE_MODELS
        .iter()
        .map(|name| {
            let m = models.iter().find(|m| &m.name == name).unwrap();
            let g = m.graph();
            let per_sample_in = platform::input_bytes_per_sample(&g);
            let host_limit_per_device = host_bound_samples_per_s(
                &chips::mtia_server(),
                &HostPipeline::optimized(per_sample_in),
            );
            // The GPU side of the comparison is candidate-independent.
            let cmp = platform::compare_model(m);
            ModelCase {
                model_bytes: g.model_bytes(),
                compiled: mtia_compiler::compile(&g, mtia_compiler::CompilerOptions::all()),
                host_overhead: m.host_overhead,
                host_limit_per_device,
                gpu_metrics: PlatformMetrics::new(ServerCost::gpu_server(), cmp.gpu_server_tput),
            }
        })
        .collect()
}

/// Server cost of a 24-module server built from the candidate, in the
/// same calibrated units as [`ServerCost::mtia_server`].
fn candidate_server_cost(d: &DesignPoint) -> ServerCost {
    ServerCost::new(
        CostUnits::new(calib::SERVER_BASE_COST + 24.0 * explore::module_cost(d)),
        Watts::new(calib::MTIA_SERVER_HOST_POWER_W) + explore::typical_power(d).scale(24.0),
    )
}

/// Devices one replica of the model occupies on the candidate: model
/// weights and tables over the per-device DRAM left after the runtime
/// reserve.
fn devices_per_replica(model_bytes: mtia_core::units::Bytes, dram_capacity: f64) -> f64 {
    let usable = dram_capacity - (DRAM_RESERVE_GIB * 1024 * 1024 * 1024) as f64;
    (model_bytes.as_f64() / usable).ceil().max(1.0)
}

/// Scores one candidate against the precomputed model cases: mean
/// relative Perf, Perf/TCO, and Perf/Watt over the model set, or `None`
/// if the candidate exceeds the thermal budget.
///
/// Capacity accounting: a model that does not fit one candidate device
/// shards, so a 24-module server holds `24 / devices` replicas, each
/// paying [`SHARD_EFFICIENCY`] per extra device for the remote/merge
/// serialization (the same shape as the E6 sharded path). The host
/// ceiling scales with the devices a replica spans, as in E6.
fn score(cases: &[ModelCase], d: &DesignPoint) -> Option<ObjectivePoint> {
    if !explore::is_thermally_feasible(d) {
        return None;
    }
    let spec = d.chip_spec();
    let dram_capacity = spec.dram.capacity.as_f64();
    let sim = ChipSim::new(spec);
    let serving = ServingFactors::tuned();
    let cost = candidate_server_cost(d);
    let mut sums = ObjectivePoint {
        perf: 0.0,
        perf_per_tco: 0.0,
        perf_per_watt: 0.0,
    };
    for case in cases {
        let devices = devices_per_replica(case.model_bytes, dram_capacity);
        let shard_penalty = SHARD_EFFICIENCY.powf(devices - 1.0);
        let tput = case.compiled.run(&sim).throughput_samples_per_s();
        let replica = (tput * shard_penalty * serving.batch_fill * serving.scheduling
            / (1.0 + case.host_overhead))
            .min(case.host_limit_per_device * devices);
        let server_tput = replica * 24.0 / devices;
        let rel = PlatformMetrics::new(cost, server_tput).relative_to(&case.gpu_metrics);
        sums.perf += rel.perf;
        sums.perf_per_tco += rel.perf_per_tco;
        sums.perf_per_watt += rel.perf_per_watt;
    }
    let n = cases.len() as f64;
    Some(ObjectivePoint {
        perf: sums.perf / n,
        perf_per_tco: sums.perf_per_tco / n,
        perf_per_watt: sums.perf_per_watt / n,
    })
}

/// How the search verdict relates the discovered best to the paper's
/// hand-picked point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The search landed exactly on the paper's design point.
    Rediscovered,
    /// The search found a point that Pareto-dominates the paper's.
    Dominates,
    /// The search fell short of the paper's point — a regression.
    FellShort,
}

/// A full explore run: the outcome, the paper point's own score, and
/// the verdict.
pub struct ExploreRun {
    /// The search outcome.
    pub outcome: ExploreOutcome,
    /// The paper point's score under the same objective.
    pub paper_score: ObjectivePoint,
    /// Best-vs-paper verdict.
    pub verdict: Verdict,
}

fn run_search(space: &ChipSpecSpace, config: &ExploreConfig) -> ExploreRun {
    let cases = model_cases();
    let outcome = explore::explore(space, config, |d| score(&cases, d))
        .expect("explore space is valid and contains feasible candidates");
    let paper_score = score(&cases, &DesignPoint::paper()).expect("the shipped point is feasible");
    let verdict = if outcome.best.design == DesignPoint::paper() {
        Verdict::Rediscovered
    } else if explore::dominates(&outcome.best.score, &paper_score) {
        Verdict::Dominates
    } else {
        Verdict::FellShort
    };
    ExploreRun {
        outcome,
        paper_score,
        verdict,
    }
}

/// Runs the search on any space and configuration (hidden; its caller
/// is `tests/golden_frontier.rs`, which searches a perturbed space to
/// show that the frontier golden catches a moved axis).
#[doc(hidden)]
pub fn debug_exhaustive(space: &ChipSpecSpace, config: &ExploreConfig) -> ExploreRun {
    run_search(space, config)
}

/// The full E25 run: the paper space under the seeded
/// successive-halving configuration.
pub fn e25_run() -> ExploreRun {
    run_search(&ChipSpecSpace::paper(), &ExploreConfig::paper())
}

/// The exhaustive sweep of the paper space under the E25 objective:
/// every candidate is evaluated, so its best is the true optimum — the
/// oracle `reproduce --explore-smoke` holds [`e25_run`]'s search to.
pub fn e25_sweep_run() -> ExploreRun {
    let space = ChipSpecSpace::paper();
    run_search(&space, &ExploreConfig::exhaustive(space.len()))
}

/// The tiny pinned scenario behind the CI smoke and the golden
/// frontier fixture: exhaustive over [`ChipSpecSpace::tiny`], so the
/// optimum is the true optimum.
pub fn e25_tiny_run() -> ExploreRun {
    let space = ChipSpecSpace::tiny();
    run_search(&space, &ExploreConfig::exhaustive(space.len()))
}

fn verdict_label(v: Verdict) -> &'static str {
    match v {
        Verdict::Rediscovered => "rediscovered the shipped design point",
        Verdict::Dominates => "Pareto-dominates the shipped design point",
        Verdict::FellShort => "FELL SHORT of the shipped design point",
    }
}

/// Renders an explore run as the E25 report tables (frontier,
/// best-vs-paper with verdict, per-generation telemetry) — shared by
/// the `e25_explore` and `e25_rung` registry entries.
pub fn report_tables(run: &ExploreRun, id: &'static str) -> ExperimentReport {
    let mut frontier = Table::new(
        "discovered Pareto frontier (Perf/TCO × Perf/Watt)",
        "§3.6/Fig. 4: the design levers the paper tuned by hand, searched; \
         every surviving point is a real trade-off, everything dominated \
         was pruned",
        &["design point", "perf", "perf/TCO", "perf/W"],
    );
    for p in &run.outcome.frontier {
        frontier.row(&[
            p.design.label(),
            pct(p.score.perf),
            pct(p.score.perf_per_tco),
            pct(p.score.perf_per_watt),
        ]);
    }

    let mut best = Table::new(
        "best discovered vs the paper's hand-picked spec",
        "the acceptance bar: a cold-start search must rediscover (or \
         dominate) the point the paper reached through co-design \
         iterations",
        &[
            "design point",
            "module cost",
            "typical W",
            "perf/TCO",
            "perf/W",
        ],
    );
    let paper = DesignPoint::paper();
    best.row(&[
        format!("paper: {}", paper.label()),
        fx(explore::module_cost(&paper), 2),
        fx(explore::typical_power(&paper).as_f64(), 1),
        pct(run.paper_score.perf_per_tco),
        pct(run.paper_score.perf_per_watt),
    ]);
    let b = &run.outcome.best;
    best.row(&[
        format!("search: {}", b.design.label()),
        fx(explore::module_cost(&b.design), 2),
        fx(explore::typical_power(&b.design).as_f64(), 1),
        pct(b.score.perf_per_tco),
        pct(b.score.perf_per_watt),
    ]);
    best.row(&[
        "verdict".to_string(),
        String::new(),
        String::new(),
        String::new(),
        verdict_label(run.verdict).to_string(),
    ]);

    let mut gens = Table::new(
        "per-generation search telemetry",
        "seeded successive halving: each generation evaluates survivor \
         neighborhoods plus immigrants; the memo hit rate is the \
         engine's own (deterministic) evaluation cache",
        &[
            "gen",
            "requested",
            "evaluated",
            "memo hits",
            "infeasible",
            "dominated",
            "frontier",
            "best perf/TCO",
        ],
    );
    for g in &run.outcome.generations {
        gens.row(&[
            format!("{}", g.generation),
            format!("{}", g.requested),
            format!("{}", g.evaluated),
            format!("{}", g.cache_hits),
            format!("{}", g.infeasible),
            format!("{}", g.dominated),
            format!("{}", g.frontier_size),
            pct(g.best_perf_per_tco),
        ]);
    }
    gens.row(&[
        "total".to_string(),
        format!(
            "{}",
            run.outcome
                .generations
                .iter()
                .map(|g| g.requested)
                .sum::<usize>()
        ),
        format!("{}", run.outcome.evaluated.len() + run.outcome.infeasible),
        format!("hit rate {}", pct(run.outcome.cache_hit_rate())),
        format!("{}", run.outcome.infeasible),
        String::new(),
        format!("{}", run.outcome.frontier.len()),
        pct(run.outcome.best.score.perf_per_tco),
    ]);

    ExperimentReport {
        id,
        tables: vec![frontier, best, gens],
    }
}

/// E25: the full paper-space search.
pub fn e25_explore() -> ExperimentReport {
    report_tables(&e25_run(), "E25")
}

/// The quick-subset rung: the tiny exhaustive scenario (8 candidates ×
/// 3 models), fast enough for the tier-1 determinism gate.
pub fn e25_rung() -> ExperimentReport {
    report_tables(&e25_tiny_run(), "E25 (tiny rung)")
}

/// Canonical line-oriented rendering of an outcome for golden-fixture
/// diffs: one `point` line per frontier member plus `best`/`telemetry`
/// trailers, every float printed with fixed precision.
pub fn canonical_frontier(run: &ExploreRun) -> String {
    let mut out = String::new();
    for p in &run.outcome.frontier {
        out.push_str(&format!(
            "point {} perf={:.6} perf_tco={:.6} perf_w={:.6}\n",
            p.design.label(),
            p.score.perf,
            p.score.perf_per_tco,
            p.score.perf_per_watt
        ));
    }
    out.push_str(&format!(
        "best {} perf_tco={:.6}\n",
        run.outcome.best.design.label(),
        run.outcome.best.score.perf_per_tco
    ));
    out.push_str(&format!(
        "paper perf_tco={:.6} verdict={}\n",
        run.paper_score.perf_per_tco,
        match run.verdict {
            Verdict::Rediscovered => "rediscovered",
            Verdict::Dominates => "dominates",
            Verdict::FellShort => "fell-short",
        }
    ));
    out.push_str(&format!(
        "telemetry evaluated={} infeasible={} hit_rate={:.4}\n",
        run.outcome.evaluated.len(),
        run.outcome.infeasible,
        run.outcome.cache_hit_rate()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_space_optimum_is_the_paper_point() {
        let run = e25_tiny_run();
        assert_eq!(run.verdict, Verdict::Rediscovered);
        assert_eq!(run.outcome.best.design, DesignPoint::paper());
        // Exhaustive: every candidate evaluated, none cached.
        assert_eq!(
            run.outcome.evaluated.len() + run.outcome.infeasible,
            ChipSpecSpace::tiny().len()
        );
    }

    #[test]
    fn paper_point_score_matches_the_calibrated_tco_band() {
        let cases = model_cases();
        let s = score(&cases, &DesignPoint::paper()).unwrap();
        // The E18a subset leans high-complexity, so its mean sits near
        // (not exactly on) the nine-model Fig. 6 headline band.
        assert!(
            s.perf_per_tco > 1.3 && s.perf_per_tco < 2.6,
            "perf/TCO {}",
            s.perf_per_tco
        );
        assert!(s.perf_per_watt > 0.7, "perf/W {}", s.perf_per_watt);
    }

    #[test]
    fn candidate_server_cost_matches_calibration_at_the_paper_point() {
        let c = candidate_server_cost(&DesignPoint::paper());
        let shipped = ServerCost::mtia_server();
        assert!((c.capex.as_f64() - shipped.capex.as_f64()).abs() < 1e-9);
        assert!((c.power.as_f64() - shipped.power.as_f64()).abs() < 1e-9);
    }
}
