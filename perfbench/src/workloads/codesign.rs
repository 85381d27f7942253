//! `codesign`: the E25 objective over `ChipSpecSpace::paper()`. Five
//! production models are compiled once per job. The job then sweeps all
//! 384 candidates exhaustively and runs seeded successive-halving
//! searches, each seed derived from the workload seed. Like every job, it
//! starts from a cold kernel-cost cache.
//!
//! Why it exists: it is the only workload made of compile, `ChipSim`,
//! the kernel-cost cache and the design search, with no DES. Changes to
//! those layers show here; the prediction for DES changes is no change.
//!
//! The objective is rebuilt from the public API with the same inputs and
//! arithmetic as the E25 experiment, whose scoring function is private.

use mtia_autotune::explore::{self, ChipSpecSpace, DesignPoint, ExploreConfig, ObjectivePoint};
use mtia_core::calib;
use mtia_core::seed::{derive, derive_indexed};
use mtia_core::spec::chips;
use mtia_core::tco::{PlatformMetrics, ServerCost};
use mtia_core::units::{Bytes, CostUnits, Watts};
use mtia_model::graph::TensorKind;
use mtia_model::models::zoo;
use mtia_serving::cluster::{host_bound_samples_per_s, HostPipeline};
use mtia_sim::chip::ChipSim;

use mtia_bench::platform::{self, ServingFactors};

use super::Scale;
use crate::job::Ctx;

/// DRAM held back per device for activations and the runtime (E25).
const DRAM_RESERVE_GIB: u64 = 8;
/// Throughput kept per extra shard of a replica (E25).
const SHARD_EFFICIENCY: f64 = 0.85;

/// The candidate-independent part of one objective model.
struct ModelCase {
    compiled: mtia_compiler::Compiled,
    model_bytes: Bytes,
    host_overhead: f64,
    host_limit_per_device: f64,
    gpu_metrics: PlatformMetrics,
}

struct Shape {
    models: &'static [&'static str],
    space: ChipSpecSpace,
    searches: u64,
    search: ExploreConfig,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            models: &["LC3", "LC5", "HC1", "HC3", "HC4"],
            space: ChipSpecSpace::paper(),
            searches: 4,
            search: ExploreConfig::paper(),
        },
        Scale::Tiny => {
            let space = ChipSpecSpace::tiny();
            Shape {
                models: &["LC3", "HC1", "HC3"],
                searches: 1,
                search: ExploreConfig {
                    population: space.len(),
                    generations: 2,
                    survivors: 2,
                    ..ExploreConfig::paper()
                },
                space,
            }
        }
    }
}

fn model_cases(names: &[&str], ctx: &Ctx) -> Vec<ModelCase> {
    let models = ctx.span("model", zoo::fig6_models);
    names
        .iter()
        .map(|name| {
            let m = models
                .iter()
                .find(|m| &m.name == name)
                .expect("objective models are in the Fig. 6 zoo");
            let (graph, host_limit_per_device, gpu_metrics) = ctx.span("model", || {
                let g = m.graph();
                let inputs: Bytes = g
                    .tensors()
                    .iter()
                    .filter(|t| t.kind == TensorKind::Input)
                    .map(|t| t.bytes())
                    .sum();
                let per_sample_in = inputs / g.batch().max(1);
                let host_limit = host_bound_samples_per_s(
                    &chips::mtia_server(),
                    &HostPipeline::optimized(per_sample_in),
                );
                let gpu_tput = platform::compare_model(m).gpu_server_tput;
                (
                    g,
                    host_limit,
                    PlatformMetrics::new(ServerCost::gpu_server(), gpu_tput),
                )
            });
            let compiled = ctx.span("compile", || {
                mtia_compiler::compile(&graph, mtia_compiler::CompilerOptions::all())
            });
            ctx.count("compile.graphs", 1.0);
            ModelCase {
                model_bytes: graph.model_bytes(),
                compiled,
                host_overhead: m.host_overhead,
                host_limit_per_device,
                gpu_metrics,
            }
        })
        .collect()
}

/// Server cost of a 24-module server built from the candidate.
fn candidate_server_cost(d: &DesignPoint) -> ServerCost {
    ServerCost::new(
        CostUnits::new(calib::SERVER_BASE_COST + 24.0 * explore::module_cost(d)),
        Watts::new(calib::MTIA_SERVER_HOST_POWER_W) + explore::typical_power(d).scale(24.0),
    )
}

/// The E25 objective: mean relative Perf, Perf/TCO and Perf/Watt over
/// the model set, or `None` over the thermal envelope.
fn score(cases: &[ModelCase], d: &DesignPoint, ctx: &Ctx) -> Option<ObjectivePoint> {
    if !explore::is_thermally_feasible(d) {
        return None;
    }
    let spec = d.chip_spec();
    let dram_capacity = spec.dram.capacity.as_f64();
    let sim = ctx.span("chip", || ChipSim::new(spec));
    let serving = ServingFactors::tuned();
    let cost = candidate_server_cost(d);
    let usable = dram_capacity - (DRAM_RESERVE_GIB * 1024 * 1024 * 1024) as f64;
    let mut sums = ObjectivePoint {
        perf: 0.0,
        perf_per_tco: 0.0,
        perf_per_watt: 0.0,
    };
    for case in cases {
        let devices = (case.model_bytes.as_f64() / usable).ceil().max(1.0);
        let shard_penalty = SHARD_EFFICIENCY.powf(devices - 1.0);
        let tput = ctx
            .span("chip", || case.compiled.run(&sim))
            .throughput_samples_per_s();
        ctx.count("chip.runs", 1.0);
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

/// One job: compile the models, sweep the space, run
/// the seeded searches, check the verdicts and digest the outcomes.
pub fn run(seed: u64, scale: Scale, ctx: &Ctx) {
    let s = shape(scale);
    let cases = model_cases(s.models, ctx);
    ctx.end_setup();

    let objective = |d: &DesignPoint| score(&cases, d, ctx);
    let root = derive(seed, "codesign");
    let configs: Vec<ExploreConfig> = std::iter::once(ExploreConfig::exhaustive(s.space.len()))
        .chain((0..s.searches).map(|k| ExploreConfig {
            seed: derive_indexed(root, "search", k),
            ..s.search
        }))
        .collect();
    let outcomes: Vec<_> = configs
        .iter()
        .map(|config| {
            ctx.span("explore", || explore::explore(&s.space, config, objective))
                .expect("the paper space is valid and has feasible candidates")
        })
        .collect();

    for o in &outcomes {
        ctx.count("explore.infeasible", o.infeasible as f64);
        for g in &o.generations {
            ctx.count("explore.evaluated", g.evaluated as f64);
            ctx.count("explore.requested", g.requested as f64);
            ctx.count("explore.memo_hits", g.cache_hits as f64);
        }
    }
    ctx.span("check", || {
        let paper = DesignPoint::paper();
        let paper_score = objective(&paper).expect("the shipped point is feasible");
        ctx.fold(
            "paper",
            format_args!(
                "{} {} {}",
                paper_score.perf, paper_score.perf_per_tco, paper_score.perf_per_watt
            ),
        );
        for (i, o) in outcomes.iter().enumerate() {
            let verdict_ok =
                o.best.design == paper || explore::dominates(&o.best.score, &paper_score);
            ctx.check(
                "codesign: search does not fall short of the shipped point",
                verdict_ok,
            );
            ctx.check(
                "codesign: every fresh evaluation is kept as feasible or infeasible",
                o.evaluated.len() + o.infeasible
                    == o.generations.iter().map(|g| g.evaluated).sum::<usize>(),
            );
            ctx.fold(&format!("search{i}.best"), o.best.design.label());
            ctx.fold(&format!("search{i}.infeasible"), o.infeasible);
            for p in &o.frontier {
                ctx.fold(
                    &format!("search{i}.frontier"),
                    format_args!(
                        "{} {} {} {}",
                        p.design.label(),
                        p.score.perf,
                        p.score.perf_per_tco,
                        p.score.perf_per_watt
                    ),
                );
            }
        }
        // The sweep saw every candidate: no search may beat it.
        let sweep_best = outcomes[0].best.score.perf_per_tco;
        ctx.check(
            "codesign: the exhaustive sweep finds the best Perf/TCO",
            outcomes
                .iter()
                .all(|o| o.best.score.perf_per_tco <= sweep_best),
        );
    });
}
