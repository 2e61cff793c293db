//! Fig. 3 — feature importance of generated (orange, `[G]`) vs original
//! (blue, `[O]`) features.
//!
//! Protocol per Section V-A3: combine the M original features with the
//! top-ranked generated features (up to M), train a Random Forest on the
//! combined set, and plot per-feature importance. Here the "plot" is an
//! ASCII bar chart; the paper's finding — generated features dominate the
//! top ranks — is summarized numerically at the end.

use safe_bench::{engineer_split, Flags, Method};
use safe_data::dataset::FeatureMeta;
use safe_datagen::benchmarks::generate_benchmark_scaled;
use safe_gbm::importance::{FeatureImportance, ImportanceKind};

fn main() {
    let flags = Flags::from_env();
    let scale: f64 = flags.get_or("scale", 0.05);
    let seed: u64 = flags.get_or("seed", 42);
    let top_show: usize = flags.get_or("top", 15);
    let datasets = flags.datasets();

    println!("Fig. 3: feature importance, generated [G] vs original [O] (scale={scale})\n");

    for id in datasets {
        let spec = id.spec();
        let split = generate_benchmark_scaled(id, scale, seed);
        let m = split.train.n_cols();

        // SAFE plan; keep originals + up to M top generated features.
        let eng = match engineer_split(Method::Safe, &split, seed) {
            Ok(e) => e,
            Err(err) => {
                eprintln!("{}: SAFE failed: {err}", spec.name);
                continue;
            }
        };
        let mut combined = split.train.clone();
        let mut added = 0usize;
        for (i, meta) in eng.train.meta().iter().enumerate() {
            if added >= m {
                break;
            }
            if meta.origin.is_generated() {
                let col = eng.train.column(i).expect("in range").to_vec();
                if combined.push_column(meta.clone(), col).is_ok() {
                    added += 1;
                }
            }
        }

        // Random-forest importance (gain over a forest of best-split trees):
        // approximated with the GBM ensemble's gain importance over the
        // combined matrix — same statistic family the paper plots.
        let forest = safe_gbm::booster::Gbm::new(safe_gbm::config::GbmConfig {
            n_rounds: 60,
            max_depth: 8,
            subsample: 0.8,
            colsample: 0.7,
            seed,
            ..Default::default()
        })
        .fit(&combined, None);
        let Ok(model) = forest else {
            eprintln!("{}: forest failed", spec.name);
            continue;
        };
        let imp: FeatureImportance = model.importance(ImportanceKind::TotalGain);
        let order = imp.ranking();
        let max_score = imp.scores[order[0]].max(1e-12);

        println!("== {} ({} original + {} generated) ==", spec.name, m, added);
        for &f in order.iter().take(top_show) {
            let meta: &FeatureMeta = &combined.meta()[f];
            let tag = if meta.origin.is_generated() { "[G]" } else { "[O]" };
            let bar_len = ((imp.scores[f] / max_score) * 40.0).round() as usize;
            println!(
                "  {tag} {:<28} {:<40} {:.3}",
                truncate(&meta.name, 28),
                "#".repeat(bar_len),
                imp.scores[f]
            );
        }
        // Paper's summary statistic: share of generated features in the top
        // 2·added ranks and mean importance by origin.
        let top_k = (2 * added).max(1).min(order.len());
        let gen_in_top = order[..top_k]
            .iter()
            .filter(|&&f| combined.meta()[f].origin.is_generated())
            .count();
        let (mut sum_gen, mut n_gen, mut sum_orig, mut n_orig) = (0.0, 0usize, 0.0, 0usize);
        for f in 0..combined.n_cols() {
            if combined.meta()[f].origin.is_generated() {
                sum_gen += imp.scores[f];
                n_gen += 1;
            } else {
                sum_orig += imp.scores[f];
                n_orig += 1;
            }
        }
        let mean_gen = if n_gen > 0 { sum_gen / n_gen as f64 } else { 0.0 };
        let mean_orig = if n_orig > 0 { sum_orig / n_orig as f64 } else { 0.0 };
        println!(
            "  -> generated in top-{top_k}: {gen_in_top}/{top_k}; mean importance generated {mean_gen:.3} vs original {mean_orig:.3}\n"
        );
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}
