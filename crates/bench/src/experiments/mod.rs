//! One module per paper table/figure/quantified claim. Each `run()`
//! returns an [`ExperimentReport`] — one table per reported row group,
//! mirroring what the paper reports.
//!
//! [`ExperimentReport`]: crate::ExperimentReport

pub mod ab;
pub mod ablations;
pub mod chip_exps;
pub mod explore_exps;
pub mod failover_exps;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fleet_exps;
pub mod frontier;
pub mod global_exps;
pub mod gray_exps;
pub mod llm;
pub mod locality;
pub mod overload_exps;
pub mod planet_exps;
pub mod quant;
pub mod sdc_exps;
pub mod tables;
pub mod tuning;

use mtia_core::pool;

use crate::ExperimentReport;

/// One named, independently runnable experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentEntry {
    /// Stable name used by `reproduce --filter`.
    pub name: &'static str,
    /// The experiment function. Must be pure: every experiment seeds its
    /// own RNG streams, so entries can run concurrently in any order.
    pub run: fn() -> ExperimentReport,
}

/// Every experiment, in paper order, with its `--filter` name.
pub fn registry() -> Vec<ExperimentEntry> {
    vec![
        ExperimentEntry {
            name: "table1",
            run: tables::table1,
        },
        ExperimentEntry {
            name: "table2",
            run: tables::table2,
        },
        ExperimentEntry {
            name: "fig4",
            run: fig4::run,
        },
        ExperimentEntry {
            name: "fig5",
            run: fig5::run,
        },
        ExperimentEntry {
            name: "fig6",
            run: fig6::run,
        },
        ExperimentEntry {
            name: "e1_job_launch",
            run: chip_exps::e1_job_launch,
        },
        ExperimentEntry {
            name: "e2_gemm_efficiency",
            run: chip_exps::e2_gemm_efficiency,
        },
        ExperimentEntry {
            name: "e3_llm_roofline",
            run: llm::e3_llm_roofline,
        },
        ExperimentEntry {
            name: "e4_kernel_tuning",
            run: tuning::e4_kernel_tuning,
        },
        ExperimentEntry {
            name: "e5_coalescing",
            run: tuning::e5_coalescing,
        },
        ExperimentEntry {
            name: "e6_sram_hit_rates",
            run: locality::e6_sram_hit_rates,
        },
        ExperimentEntry {
            name: "e7_broadcast_gemm",
            run: chip_exps::e7_broadcast_gemm,
        },
        ExperimentEntry {
            name: "e8_quantization",
            run: quant::e8_quantization,
        },
        ExperimentEntry {
            name: "e9_ecc_study",
            run: fleet_exps::e9_ecc_study,
        },
        ExperimentEntry {
            name: "e10_overclocking",
            run: fleet_exps::e10_overclocking,
        },
        ExperimentEntry {
            name: "e11_power_budget",
            run: fleet_exps::e11_power_budget,
        },
        ExperimentEntry {
            name: "e12_chip_size",
            run: fleet_exps::e12_chip_size,
        },
        ExperimentEntry {
            name: "e13_firmware",
            run: fleet_exps::e13_firmware,
        },
        ExperimentEntry {
            name: "e14_ab_testing",
            run: ab::e14_ab_testing,
        },
        ExperimentEntry {
            name: "e15_fusion_gains",
            run: locality::e15_fusion_gains,
        },
        ExperimentEntry {
            name: "e16_compression",
            run: quant::e16_compression,
        },
        ExperimentEntry {
            name: "e17_complexity_frontier",
            run: frontier::run,
        },
        ExperimentEntry {
            name: "e18_ablations",
            run: ablations::run,
        },
        ExperimentEntry {
            name: "e19_sdc_defense",
            run: sdc_exps::e19_sdc_defense,
        },
        ExperimentEntry {
            name: "e21_failover",
            run: failover_exps::e21_failover,
        },
        ExperimentEntry {
            name: "e22_global",
            run: global_exps::e22_global,
        },
        ExperimentEntry {
            name: "e23_gray",
            run: gray_exps::e23_gray,
        },
        ExperimentEntry {
            name: "e24_planet",
            run: planet_exps::e24_planet,
        },
        ExperimentEntry {
            name: "e25_explore",
            run: explore_exps::e25_explore,
        },
        ExperimentEntry {
            name: "e26_overload",
            run: overload_exps::e26_overload,
        },
    ]
}

/// The fast subset behind `--filter quick` and the determinism gate:
/// fig5 (serving Monte-Carlo sweeps), a single E19 SDC ladder rung, the
/// E21 toy-tree failover rung, the E22 toy-fleet global-router rung,
/// the E23 toy-fleet gray-failure rung, the E24 sharded-planet rung
/// (also the perf gate's stable events/sec row), the E25 tiny-space
/// explore rung, and the E26 toy-fleet metastable-storm rung.
pub fn quick_subset() -> Vec<ExperimentEntry> {
    vec![
        ExperimentEntry {
            name: "fig5",
            run: fig5::run,
        },
        ExperimentEntry {
            name: "e19_rung",
            run: sdc_exps::e19_single_rung,
        },
        ExperimentEntry {
            name: "e21_rung",
            run: failover_exps::e21_rung,
        },
        ExperimentEntry {
            name: "e22_rung",
            run: global_exps::e22_rung,
        },
        ExperimentEntry {
            name: "e23_rung",
            run: gray_exps::e23_rung,
        },
        ExperimentEntry {
            name: "e24_rung",
            run: planet_exps::e24_rung,
        },
        ExperimentEntry {
            name: "e25_rung",
            run: explore_exps::e25_rung,
        },
        ExperimentEntry {
            name: "e26_rung",
            run: overload_exps::e26_rung,
        },
    ]
}

/// Registry entries whose name contains any comma-separated term of
/// `filter` (case-insensitive). `"quick"` selects [`quick_subset`].
pub fn filtered(filter: &str) -> Vec<ExperimentEntry> {
    if filter.eq_ignore_ascii_case("quick") {
        return quick_subset();
    }
    let terms: Vec<String> = filter
        .split(',')
        .map(|t| t.trim().to_ascii_lowercase())
        .filter(|t| !t.is_empty())
        .collect();
    registry()
        .into_iter()
        .filter(|e| terms.iter().any(|t| e.name.contains(t.as_str())))
        .collect()
}

/// Levenshtein edit distance, for near-miss filter suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Experiment names close to the (zero-match) `filter` terms: within a
/// small edit distance, or sharing a ≥ 3-character prefix. Ordered by
/// distance, at most three. Backs the `reproduce --filter` error path,
/// so a typo like `fig55` fails with "did you mean: fig5?".
pub fn near_misses(filter: &str) -> Vec<&'static str> {
    let terms: Vec<String> = filter
        .split(',')
        .map(|t| t.trim().to_ascii_lowercase())
        .filter(|t| !t.is_empty())
        .collect();
    let mut scored: Vec<(usize, &'static str)> = registry()
        .iter()
        .filter_map(|e| {
            let best = terms
                .iter()
                .map(|t| {
                    let d = edit_distance(t, e.name);
                    let prefix =
                        t.len() >= 3 && (e.name.starts_with(t.as_str()) || t.starts_with(e.name));
                    if prefix {
                        d.min(1)
                    } else {
                        d
                    }
                })
                .min()?;
            (best <= 3).then_some((best, e.name))
        })
        .collect();
    scored.sort();
    scored.truncate(3);
    scored.into_iter().map(|(_, name)| name).collect()
}

/// Runs `entries` on the [`pool`] workers, reports in entry order.
///
/// Experiments are pure (self-seeded), so the result — and everything
/// rendered from it — is byte-identical at any thread count; only
/// wall-clock changes.
pub fn run_entries(entries: Vec<ExperimentEntry>) -> Vec<ExperimentReport> {
    pool::parallel_map(entries, |_, e| (e.run)())
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_cover_the_paper_order() {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 30);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate experiment name");
    }

    #[test]
    fn filter_selects_by_substring() {
        let figs = filtered("fig");
        assert_eq!(
            figs.iter().map(|e| e.name).collect::<Vec<_>>(),
            vec!["fig4", "fig5", "fig6"]
        );
        let multi = filtered("table1, e19");
        assert_eq!(
            multi.iter().map(|e| e.name).collect::<Vec<_>>(),
            vec!["table1", "e19_sdc_defense"]
        );
        assert!(filtered("no_such_experiment").is_empty());
        assert_eq!(filtered("quick").len(), quick_subset().len());
    }

    #[test]
    fn near_misses_suggest_close_names() {
        assert_eq!(near_misses("fig55").first(), Some(&"fig5"));
        assert!(near_misses("tabel1").contains(&"table1"));
        let prefix = near_misses("e19_sdc");
        assert_eq!(prefix, vec!["e19_sdc_defense"]);
        assert!(near_misses("zzzzzzzzzzzz").is_empty());
        assert!(near_misses("").is_empty());
    }
}
