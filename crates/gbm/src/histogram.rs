//! Gradient histograms and best-split search.

/// Accumulated first/second-order statistics of one histogram bin.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistBin {
    /// Sum of gradients of rows in this bin.
    pub grad: f64,
    /// Sum of hessians of rows in this bin.
    pub hess: f64,
    /// Row count.
    pub count: u32,
}

/// Build the gradient histogram of one feature over the rows of a node
/// into `hist`, which holds one cell per bin. Every cell is zeroed first,
/// so a recycled buffer gives the same bits as a fresh one.
pub fn build_histogram(
    hist: &mut [HistBin],
    feature_bins: &[u16],
    rows: &[u32],
    grads: &[f64],
    hesss: &[f64],
) {
    hist.fill(HistBin::default());
    for &r in rows {
        let r = r as usize;
        let b = feature_bins[r] as usize;
        let cell = &mut hist[b];
        cell.grad += grads[r];
        cell.hess += hesss[r];
        cell.count += 1;
    }
}

/// Derive a sibling histogram by subtraction: `parent − child`, per bin, in
/// place on the parent's storage (which becomes the sibling's histogram).
///
/// This is the histogram-subtraction trick: a node's histogram is exactly
/// the per-bin sum of its children's, so after building only the *smaller*
/// child the larger one costs `O(n_bins)` instead of `O(n_rows)`. The
/// subtraction result is used consistently on both the cached and cold
/// training paths, so differential bit-identity is unaffected by the
/// floating-point difference between `parent − child` and direct
/// accumulation.
pub fn subtract_sibling(parent: &mut [HistBin], child: &[HistBin]) {
    debug_assert_eq!(parent.len(), child.len());
    for (p, c) in parent.iter_mut().zip(child) {
        p.grad -= c.grad;
        p.hess -= c.hess;
        p.count -= c.count;
    }
}

/// Leaf objective term `G² / (H + λ)`.
#[inline]
fn score(g: f64, h: f64, lambda: f64) -> f64 {
    g * g / (h + lambda)
}

/// Optimal leaf weight `−G / (H + λ)`.
#[inline]
pub fn leaf_weight(g: f64, h: f64, lambda: f64) -> f64 {
    -g / (h + lambda)
}

/// A candidate split of one node on one feature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitInfo {
    /// Feature index.
    pub feature: usize,
    /// Split bin: rows with `bin ≤ split_bin` go left.
    pub split_bin: u16,
    /// Loss reduction (already γ-penalized).
    pub gain: f64,
    /// Whether the missing bin travels left.
    pub default_left: bool,
}

/// Scan a feature histogram for its best split.
///
/// The last value bin carries the missing-value mass separately
/// (`missing = hist[n_value_bins]`); each split position is evaluated with
/// the missing mass on either side (sparsity-aware default direction) and
/// the better direction kept.
///
/// `totals` are the node's (G, H, count). Returns `None` when no split
/// clears `gamma`, `min_child_weight`, or non-empty-children constraints.
pub fn best_split_for_feature(
    feature: usize,
    hist: &[HistBin],
    n_value_bins: usize,
    totals: (f64, f64, u32),
    lambda: f64,
    gamma: f64,
    min_child_weight: f64,
) -> Option<SplitInfo> {
    let (g_total, h_total, n_total) = totals;
    let parent_score = score(g_total, h_total, lambda);
    let missing = hist
        .get(n_value_bins)
        .copied()
        .unwrap_or_default();

    let mut best: Option<SplitInfo> = None;
    let mut g_left = 0.0;
    let mut h_left = 0.0;
    let mut n_left: u32 = 0;

    // Split positions: after each value bin except the last.
    for b in 0..n_value_bins.saturating_sub(1) {
        let cell = hist[b];
        g_left += cell.grad;
        h_left += cell.hess;
        n_left += cell.count;

        // With no missing rows both default directions carry identical
        // child statistics, and the strict `>` below would keep the first
        // (`false`) candidate anyway — so scanning `true` is pure waste.
        // An empty missing bin has exactly zero grad/hess (it is either a
        // sum over zero rows or a subtraction of two bitwise-equal sums),
        // so skipping it is bit-identical, not just approximately equal.
        let directions: &[bool] = if missing.count == 0 { &[false] } else { &[false, true] };
        for &default_left in directions {
            let (gl, hl, nl) = if default_left {
                (g_left + missing.grad, h_left + missing.hess, n_left + missing.count)
            } else {
                (g_left, h_left, n_left)
            };
            let gr = g_total - gl;
            let hr = h_total - hl;
            let nr = n_total - nl;
            if nl == 0 || nr == 0 {
                continue;
            }
            if hl < min_child_weight || hr < min_child_weight {
                continue;
            }
            let gain = 0.5 * (score(gl, hl, lambda) + score(gr, hr, lambda) - parent_score) - gamma;
            if gain <= 0.0 {
                continue;
            }
            if best.map(|s| gain > s.gain).unwrap_or(true) {
                best = Some(SplitInfo {
                    feature,
                    split_bin: b as u16,
                    gain,
                    default_left,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn built(bins: &[u16], rows: &[u32], grads: &[f64], hesss: &[f64], n: usize) -> Vec<HistBin> {
        let mut hist = vec![HistBin::default(); n];
        build_histogram(&mut hist, bins, rows, grads, hesss);
        hist
    }

    fn totals_of(hist: &[HistBin]) -> (f64, f64, u32) {
        hist.iter().fold((0.0, 0.0, 0), |(g, h, n), b| {
            (g + b.grad, h + b.hess, n + b.count)
        })
    }

    #[test]
    fn histogram_accumulates() {
        let bins = vec![0u16, 1, 1, 2];
        let rows = vec![0u32, 1, 2, 3];
        let grads = vec![1.0, 2.0, 3.0, 4.0];
        let hesss = vec![0.1, 0.2, 0.3, 0.4];
        let h = built(&bins, &rows, &grads, &hesss, 4);
        assert_eq!(h[0].count, 1);
        assert_eq!(h[1].count, 2);
        assert!((h[1].grad - 5.0).abs() < 1e-15);
        assert!((h[1].hess - 0.5).abs() < 1e-15);
        assert_eq!(h[3].count, 0);
    }

    #[test]
    fn histogram_respects_row_subset() {
        let bins = vec![0u16, 0, 1, 1];
        let rows = vec![0u32, 2];
        let grads = vec![1.0; 4];
        let hesss = vec![1.0; 4];
        let h = built(&bins, &rows, &grads, &hesss, 3);
        assert_eq!(h[0].count, 1);
        assert_eq!(h[1].count, 1);
    }

    #[test]
    fn a_recycled_buffer_is_zeroed_before_it_is_filled() {
        let bins = vec![0u16, 2, 1, 2];
        let rows = vec![0u32, 1, 3];
        let grads = vec![0.5, -1.25, 2.0, 0.125];
        let hesss = vec![0.25, 0.5, 0.125, 1.0];
        let mut recycled = vec![HistBin { grad: 9.0, hess: -3.0, count: 7 }; 4];
        build_histogram(&mut recycled, &bins, &rows, &grads, &hesss);
        assert_eq!(recycled, built(&bins, &rows, &grads, &hesss, 4));
        assert_eq!(recycled[3], HistBin::default(), "an unvisited bin is cleared");
    }

    #[test]
    fn finds_obvious_split() {
        // Bin 0 pure-negative gradient, bin 1 pure-positive.
        let hist = vec![
            HistBin { grad: -5.0, hess: 2.0, count: 10 },
            HistBin { grad: 5.0, hess: 2.0, count: 10 },
            HistBin::default(), // missing bin, empty
        ];
        let split =
            best_split_for_feature(3, &hist, 2, totals_of(&hist), 1.0, 0.0, 0.0).unwrap();
        assert_eq!(split.feature, 3);
        assert_eq!(split.split_bin, 0);
        assert!(split.gain > 0.0);
    }

    #[test]
    fn no_split_on_uniform_gradient() {
        // Same gradient density everywhere: zero gain.
        let hist = vec![
            HistBin { grad: 1.0, hess: 1.0, count: 5 },
            HistBin { grad: 1.0, hess: 1.0, count: 5 },
            HistBin { grad: 1.0, hess: 1.0, count: 5 },
            HistBin::default(),
        ];
        assert!(
            best_split_for_feature(0, &hist, 3, totals_of(&hist), 1.0, 0.0, 0.0).is_none()
        );
    }

    #[test]
    fn gamma_blocks_weak_splits() {
        let hist = vec![
            HistBin { grad: -1.0, hess: 1.0, count: 5 },
            HistBin { grad: 1.0, hess: 1.0, count: 5 },
            HistBin::default(),
        ];
        let t = totals_of(&hist);
        let free = best_split_for_feature(0, &hist, 2, t, 1.0, 0.0, 0.0).unwrap();
        assert!(best_split_for_feature(0, &hist, 2, t, 1.0, free.gain + 1.0, 0.0).is_none());
    }

    #[test]
    fn min_child_weight_blocks_thin_children() {
        let hist = vec![
            HistBin { grad: -1.0, hess: 0.1, count: 1 },
            HistBin { grad: 5.0, hess: 10.0, count: 50 },
            HistBin::default(),
        ];
        let t = totals_of(&hist);
        assert!(best_split_for_feature(0, &hist, 2, t, 1.0, 0.0, 1.0).is_none());
    }

    #[test]
    fn missing_mass_chooses_helpful_direction() {
        // Missing rows have strongly positive gradients, matching bin 1:
        // sending them right must win.
        let hist = vec![
            HistBin { grad: -5.0, hess: 2.0, count: 10 },
            HistBin { grad: 5.0, hess: 2.0, count: 10 },
            HistBin { grad: 4.0, hess: 1.0, count: 5 }, // missing bin
        ];
        let split =
            best_split_for_feature(0, &hist, 2, totals_of(&hist), 1.0, 0.0, 0.0).unwrap();
        assert!(!split.default_left);

        // Flip: missing gradients look like the left child.
        let hist2 = vec![
            HistBin { grad: -5.0, hess: 2.0, count: 10 },
            HistBin { grad: 5.0, hess: 2.0, count: 10 },
            HistBin { grad: -4.0, hess: 1.0, count: 5 },
        ];
        let split2 =
            best_split_for_feature(0, &hist2, 2, totals_of(&hist2), 1.0, 0.0, 0.0).unwrap();
        assert!(split2.default_left);
    }

    #[test]
    fn single_bin_feature_cannot_split() {
        let hist = vec![HistBin { grad: 3.0, hess: 4.0, count: 9 }, HistBin::default()];
        assert!(
            best_split_for_feature(0, &hist, 1, totals_of(&hist), 1.0, 0.0, 0.0).is_none()
        );
    }

    #[test]
    fn leaf_weight_is_newton_step() {
        assert!((leaf_weight(4.0, 3.0, 1.0) + 1.0).abs() < 1e-15);
        assert_eq!(leaf_weight(0.0, 5.0, 1.0), 0.0);
    }

    /// Reference scan that always evaluates both default directions — the
    /// pre-fix behavior. With an empty missing bin the fixed fast path must
    /// pin the exact same split (bin, direction, gain bits).
    fn reference_both_directions(
        feature: usize,
        hist: &[HistBin],
        n_value_bins: usize,
        totals: (f64, f64, u32),
        lambda: f64,
        gamma: f64,
        min_child_weight: f64,
    ) -> Option<SplitInfo> {
        let (g_total, h_total, n_total) = totals;
        let parent_score = g_total * g_total / (h_total + lambda);
        let missing = hist.get(n_value_bins).copied().unwrap_or_default();
        let mut best: Option<SplitInfo> = None;
        let (mut g_left, mut h_left, mut n_left) = (0.0, 0.0, 0u32);
        for b in 0..n_value_bins.saturating_sub(1) {
            let cell = hist[b];
            g_left += cell.grad;
            h_left += cell.hess;
            n_left += cell.count;
            for default_left in [false, true] {
                let (gl, hl, nl) = if default_left {
                    (g_left + missing.grad, h_left + missing.hess, n_left + missing.count)
                } else {
                    (g_left, h_left, n_left)
                };
                let (gr, hr, nr) = (g_total - gl, h_total - hl, n_total - nl);
                if nl == 0 || nr == 0 || hl < min_child_weight || hr < min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
                    - gamma;
                if gain <= 0.0 {
                    continue;
                }
                if best.map(|s| gain > s.gain).unwrap_or(true) {
                    best = Some(SplitInfo { feature, split_bin: b as u16, gain, default_left });
                }
            }
        }
        best
    }

    /// Regression: skipping the missing-direction rescan when a feature has
    /// no NaNs must pin identical splits to the double-scan it replaced,
    /// across a grid of histogram shapes.
    #[test]
    fn empty_missing_bin_skip_pins_identical_splits() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
        };
        for n_value_bins in [1usize, 2, 3, 8, 17] {
            for trial in 0..50 {
                let mut hist: Vec<HistBin> = (0..n_value_bins)
                    .map(|_| HistBin {
                        grad: next() * 5.0,
                        hess: next().abs() + 0.01,
                        count: 1 + (trial % 7) as u32,
                    })
                    .collect();
                hist.push(HistBin::default()); // empty missing bin
                let t = totals_of(&hist);
                for (lambda, gamma, mcw) in
                    [(1.0, 0.0, 0.0), (0.5, 0.1, 0.0), (1.0, 0.0, 0.5)]
                {
                    let fast = best_split_for_feature(2, &hist, n_value_bins, t, lambda, gamma, mcw);
                    let slow =
                        reference_both_directions(2, &hist, n_value_bins, t, lambda, gamma, mcw);
                    match (fast, slow) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            assert_eq!(a.split_bin, b.split_bin);
                            assert_eq!(a.default_left, b.default_left);
                            assert_eq!(a.gain.to_bits(), b.gain.to_bits());
                        }
                        (a, b) => panic!("fast={a:?} slow={b:?} diverged"),
                    }
                }
            }
        }
    }

    #[test]
    fn subtraction_recovers_sibling_exactly_for_disjoint_rows() {
        // Parent rows = left ∪ right with left ⊂ parent in parent order: the
        // subtracted sibling must equal the directly built one bit-for-bit
        // when every bin's mass moves wholesale (count reaches zero), and to
        // within accumulation error otherwise.
        let bins = vec![0u16, 1, 2, 0, 1, 2, 3, 3];
        let rows: Vec<u32> = (0..8).collect();
        let grads = vec![0.5, -1.25, 2.0, 0.125, -0.75, 1.5, -2.25, 0.0625];
        let hesss = vec![0.25, 0.5, 0.125, 1.0, 0.75, 0.3125, 0.5, 0.25];
        let left: Vec<u32> = vec![0, 3, 6, 7]; // bins 0,0,3,3 — full bins move
        let right: Vec<u32> = vec![1, 2, 4, 5];
        let parent = built(&bins, &rows, &grads, &hesss, 5);
        let left_h = built(&bins, &left, &grads, &hesss, 5);
        let right_h = built(&bins, &right, &grads, &hesss, 5);
        let mut derived = parent.clone();
        subtract_sibling(&mut derived, &left_h);
        for (d, r) in derived.iter().zip(&right_h) {
            assert_eq!(d.count, r.count);
            assert!((d.grad - r.grad).abs() < 1e-12, "{} vs {}", d.grad, r.grad);
            assert!((d.hess - r.hess).abs() < 1e-12);
        }
        // Bins fully drained by the child are exactly zero, not epsilon.
        assert_eq!(derived[0].count, 0);
        assert_eq!(derived[0].grad.to_bits(), 0.0f64.to_bits());
        assert_eq!(derived[3].count, 0);
        assert_eq!(derived[3].grad.to_bits(), 0.0f64.to_bits());
    }
}
