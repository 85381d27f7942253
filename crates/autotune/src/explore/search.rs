//! The deterministic search driver: seeded successive halving over
//! batched generations with Pareto pruning.
//!
//! # Determinism argument
//!
//! Every source of order in the driver is explicit:
//!
//! * candidate identity is a space *index* (mixed-radix, seed-free);
//! * generation sampling takes a prefix of
//!   [`seed::shuffled_indices`] — a pure function of `(seed, label,
//!   |space|)`, never a shared mutable RNG;
//! * batches are sorted ascending by index before evaluation and run
//!   through [`pool::parallel_map`], which returns results in
//!   submission order at any thread count;
//! * all bookkeeping lives in `BTreeMap`/`Vec` (no hash-order
//!   iteration), and every ranking tie-breaks by ascending index.
//!
//! The objective itself must be a pure function of the design point;
//! the process-wide Zipf memo (`sim::costcache`) underneath it
//! memoizes pure values only, so hit/miss scheduling cannot change any
//! result. The engine keeps its own evaluation memo across generations,
//! whose hit counts — unlike the Zipf memo's — are deterministic and
//! safe to render.

use std::collections::BTreeMap;

use mtia_core::error::ConfigError;
use mtia_core::{pool, seed};

use super::pareto::{pareto_indices, ObjectivePoint};
use super::space::{ChipSpecSpace, DesignPoint};

/// Search-driver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Root seed for generation sampling.
    pub seed: u64,
    /// Candidates requested per generation.
    pub population: usize,
    /// Number of batched generations.
    pub generations: usize,
    /// Survivor count entering generation 1; halved each generation
    /// after that (successive halving), floored at 1.
    pub survivors: usize,
}

impl ExploreConfig {
    /// The E25 configuration: four generations of 48 over the
    /// 384-point paper space, 16 initial survivors.
    pub fn paper() -> Self {
        ExploreConfig {
            seed: seed::DEFAULT_SEED,
            population: 48,
            generations: 4,
            survivors: 16,
        }
    }

    /// An exhaustive single-generation sweep of a space with `len`
    /// candidates — generation 0 evaluates every point, so the result
    /// is the true optimum and enlarging the space can never worsen it.
    pub fn exhaustive(len: usize) -> Self {
        ExploreConfig {
            seed: seed::DEFAULT_SEED,
            population: len.max(1),
            generations: 1,
            survivors: 1,
        }
    }
}

/// One evaluated feasible candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluatedPoint {
    /// Candidate index in the space's enumeration.
    pub index: usize,
    /// The design coordinates.
    pub design: DesignPoint,
    /// Its objective score.
    pub score: ObjectivePoint,
}

/// Telemetry for one generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationStats {
    /// Generation number (0-based).
    pub generation: usize,
    /// Candidates the generation requested (before memo lookup).
    pub requested: usize,
    /// Fresh objective evaluations.
    pub evaluated: usize,
    /// Requests satisfied by the engine's evaluation memo.
    pub cache_hits: usize,
    /// Fresh evaluations rejected as infeasible (e.g. over the thermal
    /// budget).
    pub infeasible: usize,
    /// Evaluated feasible points currently Pareto-dominated
    /// (cumulative).
    pub dominated: usize,
    /// Current Pareto-frontier size.
    pub frontier_size: usize,
    /// Best Perf/TCO seen so far.
    pub best_perf_per_tco: f64,
}

/// The search result.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreOutcome {
    /// Every feasible evaluated candidate, ascending by index.
    pub evaluated: Vec<EvaluatedPoint>,
    /// Total candidates rejected as infeasible.
    pub infeasible: usize,
    /// The discovered Pareto frontier over (Perf/TCO, Perf/Watt),
    /// sorted by Perf/TCO descending (ties by ascending index).
    pub frontier: Vec<EvaluatedPoint>,
    /// The best candidate by Perf/TCO (ties by ascending index).
    pub best: EvaluatedPoint,
    /// Per-generation telemetry.
    pub generations: Vec<GenerationStats>,
}

impl ExploreOutcome {
    /// Engine-memo hit rate across the whole search: deterministic
    /// (unlike the process-wide Zipf memo's counters) because it
    /// counts *requests* resolved by the per-search memo, a pure
    /// function of the generation schedule.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: usize = self.generations.iter().map(|g| g.cache_hits).sum();
        let requested: usize = self.generations.iter().map(|g| g.requested).sum();
        if requested == 0 {
            0.0
        } else {
            hits as f64 / requested as f64
        }
    }
}

/// Runs the search. `objective` returns `None` for infeasible
/// candidates (the thermal gate); it must be a pure function of the
/// design point.
///
/// When `config.population >= space.len()`, generation 0 evaluates the
/// entire space, so the returned best is the global optimum; in that
/// regime enlarging the space can never worsen the best objective
/// (search monotonicity, pinned by the property suite).
///
/// # Errors
///
/// Returns a [`ConfigError`] if the space fails validation, the
/// configuration is degenerate (zero population or generations), or no
/// feasible candidate was found.
pub fn explore<F>(
    space: &ChipSpecSpace,
    config: &ExploreConfig,
    objective: F,
) -> Result<ExploreOutcome, ConfigError>
where
    F: Fn(&DesignPoint) -> Option<ObjectivePoint> + Sync,
{
    space.validate()?;
    if config.population == 0 || config.generations == 0 {
        return Err(ConfigError::OutOfRange {
            what: "explore config",
            valid: "population and generations must be at least 1",
        });
    }
    let len = space.len();
    let mut memo: BTreeMap<usize, Option<ObjectivePoint>> = BTreeMap::new();
    let mut generations = Vec::with_capacity(config.generations);
    let mut survivors: Vec<usize> = Vec::new();

    for g in 0..config.generations {
        let requested = if g == 0 {
            if len <= config.population {
                (0..len).collect()
            } else {
                let mut batch: Vec<usize> =
                    seed::shuffled_indices(config.seed, "explore/gen0", len)[..config.population]
                        .to_vec();
                batch.sort_unstable();
                batch
            }
        } else {
            // Survivor neighborhoods first (in rank order) — already
            // evaluated neighbors become engine-memo hits — then fresh
            // seeded immigrants to keep exploring.
            let mut batch: Vec<usize> = Vec::new();
            let mut in_batch: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
            for &s in &survivors {
                for n in space.neighbors(s) {
                    if in_batch.insert(n) {
                        batch.push(n);
                    }
                }
            }
            batch.truncate(config.population);
            if batch.len() < config.population {
                let label = format!("explore/gen{g}");
                for idx in seed::shuffled_indices(config.seed, &label, len) {
                    if batch.len() >= config.population {
                        break;
                    }
                    if !memo.contains_key(&idx) && in_batch.insert(idx) {
                        batch.push(idx);
                    }
                }
            }
            batch.sort_unstable();
            batch
        };

        let fresh: Vec<usize> = requested
            .iter()
            .copied()
            .filter(|i| !memo.contains_key(i))
            .collect();
        let cache_hits = requested.len() - fresh.len();
        let scores = pool::parallel_map(fresh.clone(), |_, idx| objective(&space.candidate(idx)));
        let mut infeasible_new = 0;
        for (idx, score) in fresh.iter().copied().zip(scores) {
            if score.is_none() {
                infeasible_new += 1;
            }
            memo.insert(idx, score);
        }

        // Rank the feasible pool: Perf/TCO descending, index ascending.
        let feasible: Vec<(usize, ObjectivePoint)> = memo
            .iter()
            .filter_map(|(&i, s)| s.map(|s| (i, s)))
            .collect();
        let mut ranked: Vec<usize> = (0..feasible.len()).collect();
        ranked.sort_by(|&a, &b| {
            feasible[b]
                .1
                .perf_per_tco
                .partial_cmp(&feasible[a].1.perf_per_tco)
                .expect("objective scores must be finite")
                .then(feasible[a].0.cmp(&feasible[b].0))
        });
        let keep = (config.survivors >> g).max(1);
        survivors = ranked.iter().take(keep).map(|&r| feasible[r].0).collect();

        let front = pareto_indices(&feasible.iter().map(|&(_, s)| s).collect::<Vec<_>>());
        generations.push(GenerationStats {
            generation: g,
            requested: requested.len(),
            evaluated: fresh.len(),
            cache_hits,
            infeasible: infeasible_new,
            dominated: feasible.len() - front.len(),
            frontier_size: front.len(),
            best_perf_per_tco: ranked
                .first()
                .map(|&r| feasible[r].1.perf_per_tco)
                .unwrap_or(0.0),
        });
    }

    let evaluated: Vec<EvaluatedPoint> = memo
        .iter()
        .filter_map(|(&i, s)| {
            s.map(|score| EvaluatedPoint {
                index: i,
                design: space.candidate(i),
                score,
            })
        })
        .collect();
    let infeasible = memo.len() - evaluated.len();
    if evaluated.is_empty() {
        return Err(ConfigError::OutOfRange {
            what: "explore objective",
            valid: "at least one thermally feasible candidate",
        });
    }
    let mut frontier: Vec<EvaluatedPoint> =
        pareto_indices(&evaluated.iter().map(|e| e.score).collect::<Vec<_>>())
            .into_iter()
            .map(|i| evaluated[i])
            .collect();
    frontier.sort_by(|a, b| {
        b.score
            .perf_per_tco
            .partial_cmp(&a.score.perf_per_tco)
            .expect("objective scores must be finite")
            .then(a.index.cmp(&b.index))
    });
    let best = *evaluated
        .iter()
        .max_by(|a, b| {
            a.score
                .perf_per_tco
                .partial_cmp(&b.score.perf_per_tco)
                .expect("objective scores must be finite")
                .then(b.index.cmp(&a.index))
        })
        .expect("at least one feasible candidate");
    Ok(ExploreOutcome {
        evaluated,
        infeasible,
        frontier,
        best,
        generations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic separable objective with its optimum at the paper
    /// point: each axis contributes a concave bump centered on the
    /// shipped coordinate.
    fn bump(d: &DesignPoint) -> Option<ObjectivePoint> {
        let p = DesignPoint::paper();
        let dist = (d.sram_mib as f64 - p.sram_mib as f64).abs() / 256.0
            + ((d.pe_rows * d.pe_cols) as f64 - 64.0).abs() / 64.0
            + if d.mem == p.mem { 0.0 } else { 1.0 }
            + (d.freq_mhz as f64 - p.freq_mhz as f64).abs() / 1350.0
            + (d.local_mem_kib as f64 - p.local_mem_kib as f64).abs() / 384.0;
        let v = 2.0 - dist;
        Some(ObjectivePoint {
            perf: v,
            perf_per_tco: v,
            perf_per_watt: v,
        })
    }

    #[test]
    fn exhaustive_search_finds_the_global_optimum() {
        let space = ChipSpecSpace::paper();
        let out = explore(&space, &ExploreConfig::exhaustive(space.len()), bump).unwrap();
        assert_eq!(out.best.design, DesignPoint::paper());
        assert_eq!(out.evaluated.len(), space.len());
        assert_eq!(out.generations[0].cache_hits, 0);
    }

    #[test]
    fn sampled_search_climbs_to_the_optimum() {
        let space = ChipSpecSpace::paper();
        let out = explore(&space, &ExploreConfig::paper(), bump).unwrap();
        assert_eq!(out.best.design, DesignPoint::paper());
        assert!(out.evaluated.len() + out.infeasible < space.len());
        // Later generations revisit survivors' neighborhoods, so the
        // engine memo must see hits.
        assert!(out.generations.iter().any(|g| g.cache_hits > 0));
        assert!(out.cache_hit_rate() > 0.0);
    }

    #[test]
    fn infeasible_candidates_are_counted_not_ranked() {
        let space = ChipSpecSpace::tiny();
        let gate = |d: &DesignPoint| {
            if d.sram_mib > 128 {
                None
            } else {
                bump(d)
            }
        };
        let out = explore(&space, &ExploreConfig::exhaustive(space.len()), gate).unwrap();
        assert_eq!(out.infeasible, 4);
        assert!(out.evaluated.iter().all(|e| e.design.sram_mib == 128));
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        let space = ChipSpecSpace::tiny();
        let cfg = ExploreConfig {
            population: 0,
            ..ExploreConfig::paper()
        };
        assert!(matches!(
            explore(&space, &cfg, bump),
            Err(ConfigError::OutOfRange { .. })
        ));
        let all_infeasible = |_: &DesignPoint| -> Option<ObjectivePoint> { None };
        assert!(matches!(
            explore(
                &space,
                &ExploreConfig::exhaustive(space.len()),
                all_infeasible
            ),
            Err(ConfigError::OutOfRange { .. })
        ));
    }
}
