//! Per-layer numbers read from a fit's `RunReport`, which the pipeline
//! builds on every fit whatever sink is attached.

use safe_obs::{stages, RunReport, StageTelemetry};

fn stages_named<'a>(
    report: &'a RunReport,
    name: &'a str,
) -> impl Iterator<Item = &'a StageTelemetry> + 'a {
    report
        .setup
        .iter()
        .chain(report.iterations.iter().flat_map(|it| it.stages.iter()))
        .filter(move |s| s.stage == name)
}

fn ms(report: &RunReport, stage: &str) -> f64 {
    stages_named(report, stage).map(|s| s.micros).sum::<u64>() as f64 / 1000.0
}

fn counter(report: &RunReport, stage: &str, name: &str) -> f64 {
    stages_named(report, stage)
        .filter_map(|s| s.counter(name))
        .sum::<u64>() as f64
}

/// `Σ features_out / Σ features_in` of a stage (1 when nothing went in).
fn keep_ratio(report: &RunReport, stage: &str) -> f64 {
    let (inp, out) = stages_named(report, stage).fold((0u64, 0u64), |(i, o), s| {
        (i + s.features_in, o + s.features_out)
    });
    if inp == 0 {
        1.0
    } else {
        out as f64 / inp as f64
    }
}

/// `hits / (hits + misses)` summed over `stage_names` (0 when the cache
/// was never consulted).
fn hit_ratio(report: &RunReport, stage_names: &[&str], hits: &str, misses: &str) -> f64 {
    let sum = |name: &str| {
        stage_names
            .iter()
            .map(|s| counter(report, s, name))
            .sum::<f64>()
    };
    let (h, m) = (sum(hits), sum(misses));
    if h + m == 0.0 {
        0.0
    } else {
        h / (h + m)
    }
}

/// Stage times, counts and ratios of one fit that took `wall_secs`.
pub fn from_report(report: &RunReport, wall_secs: f64) -> Vec<(&'static str, f64)> {
    let boosters = [stages::GBM_TRAIN, stages::RANK_TOPK];
    let booster_count = |name: &str| {
        boosters
            .iter()
            .map(|s| counter(report, s, name))
            .sum::<f64>()
    };
    let mut parts = vec![
        ("gbm.miner_ms", ms(report, stages::GBM_TRAIN)),
        (
            "core.combine.path_extract_ms",
            ms(report, stages::PATH_EXTRACT),
        ),
        (
            "core.combine.rank_combos_ms",
            ms(report, stages::RANK_COMBOS),
        ),
        ("core.generate.generate_ms", ms(report, stages::GENERATE)),
        ("core.selection.iv_filter_ms", ms(report, stages::IV_FILTER)),
        (
            "core.selection.redundancy_ms",
            ms(report, stages::REDUNDANCY),
        ),
        (
            "core.selection.staged_prune_ms",
            ms(report, stages::STAGED_PRUNE),
        ),
        ("core.selection.rank_topk_ms", ms(report, stages::RANK_TOPK)),
        ("data.audit_ms", ms(report, stages::AUDIT)),
    ];
    let attributed: f64 = parts.iter().map(|(_, v)| v).sum();
    parts.push(("core.loop.unattributed_ms", wall_secs * 1000.0 - attributed));
    let completed = report
        .iterations
        .iter()
        .filter(|it| it.status == "completed")
        .count();
    parts.extend([
        (
            "core.selection.iv_keep_ratio",
            keep_ratio(report, stages::IV_FILTER),
        ),
        (
            "core.selection.iv_cache_hit_ratio",
            hit_ratio(
                report,
                &[stages::IV_FILTER],
                "cache_iv_hits",
                "cache_iv_misses",
            ),
        ),
        (
            "core.selection.pairs_compared",
            counter(report, stages::REDUNDANCY, "pairs_compared"),
        ),
        (
            "core.selection.pearson_cache_hit_ratio",
            hit_ratio(
                report,
                &[stages::REDUNDANCY],
                "cache_pearson_hits",
                "cache_pearson_misses",
            ),
        ),
        (
            "core.selection.redundancy_keep_ratio",
            keep_ratio(report, stages::REDUNDANCY),
        ),
        (
            "core.selection.rows_scored",
            counter(report, stages::STAGED_PRUNE, "rows_scored"),
        ),
        (
            "core.combine.cells_evaluated",
            counter(report, stages::RANK_COMBOS, "cells_evaluated"),
        ),
        (
            "core.generate.features_out",
            stages_named(report, stages::GENERATE)
                .map(|s| s.features_out)
                .sum::<u64>() as f64,
        ),
        (
            "core.generate.degenerate_discarded",
            counter(report, stages::GENERATE, "degenerate_discarded"),
        ),
        ("core.loop.iterations_completed", completed as f64),
        ("gbm.histogram_builds", booster_count("histogram_builds")),
        (
            "gbm.histogram_subtractions",
            booster_count("histogram_subtractions"),
        ),
        ("gbm.nodes_grown", booster_count("nodes_grown")),
        (
            "gbm.bin_cache_hit_ratio",
            hit_ratio(report, &boosters, "cache_bin_hits", "cache_bin_misses"),
        ),
    ]);
    parts
}

/// The metrics that add up to a fit's wall time (the first ten values
/// `from_report` returns).
pub const WALL_PARTS: [&str; 10] = [
    "gbm.miner_ms",
    "core.combine.path_extract_ms",
    "core.combine.rank_combos_ms",
    "core.generate.generate_ms",
    "core.selection.iv_filter_ms",
    "core.selection.redundancy_ms",
    "core.selection.staged_prune_ms",
    "core.selection.rank_topk_ms",
    "data.audit_ms",
    "core.loop.unattributed_ms",
];

#[cfg(test)]
mod tests {
    use super::*;
    use safe_obs::IterationTelemetry;

    fn stage(
        name: &str,
        micros: u64,
        flow: (u64, u64),
        counters: &[(&str, u64)],
    ) -> StageTelemetry {
        StageTelemetry {
            stage: name.into(),
            micros,
            features_in: flow.0,
            features_out: flow.1,
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn the_wall_parts_add_up_to_the_fit() {
        let report = RunReport {
            setup: vec![stage(stages::AUDIT, 500, (0, 0), &[])],
            iterations: vec![IterationTelemetry {
                iteration: 0,
                status: "completed".into(),
                micros: 9_000,
                stages: vec![
                    stage(
                        stages::GBM_TRAIN,
                        4_000,
                        (0, 0),
                        &[("cache_bin_hits", 1), ("cache_bin_misses", 3)],
                    ),
                    stage(stages::IV_FILTER, 2_000, (10, 4), &[]),
                    stage(stages::REDUNDANCY, 1_000, (4, 2), &[("pairs_compared", 6)]),
                    stage(stages::RANK_TOPK, 1_500, (2, 2), &[]),
                ],
                waterfall: Default::default(),
            }],
            ..RunReport::default()
        };
        let values = from_report(&report, 0.010);
        let get = |name: &str| values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        let parts: f64 = WALL_PARTS
            .iter()
            .map(|m| get(m).expect("every wall part is reported"))
            .sum();
        assert!((parts - 10.0).abs() < 1e-9, "{parts}");
        assert_eq!(get("core.loop.unattributed_ms"), Some(1.0));
        assert_eq!(get("core.selection.iv_keep_ratio"), Some(0.4));
        assert_eq!(get("gbm.bin_cache_hit_ratio"), Some(0.25));
        assert_eq!(get("core.loop.iterations_completed"), Some(1.0));
        let mut names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric is reported twice");
        assert!(names.iter().all(|n| crate::metrics::lookup(n).is_some()));
    }
}
