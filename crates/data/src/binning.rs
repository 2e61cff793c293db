//! Equal-frequency and equal-width binning.
//!
//! Algorithm 3 of the paper packs each candidate feature into β bins "at the
//! same frequency" before computing Information Value; the discretization
//! operators in `safe-ops` reuse the same edges machinery.

use crate::error::DataError;

/// How to place bin edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinStrategy {
    /// Bins hold (approximately) equal numbers of records.
    EqualFrequency,
    /// Bins span equal value ranges.
    EqualWidth,
}

/// Interior cut points defining `edges.len() + 1` bins over the real line.
/// A value `v` lands in bin `i` = number of edges `< v` is... concretely:
/// bin of `v` = index of first edge `>= v`, else `edges.len()`.
/// `NaN` values are assigned to a dedicated extra bin (index `edges.len()+1`
/// is *not* used; see [`BinEdges::assign_with_missing`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BinEdges {
    edges: Vec<f64>,
}

/// Result of assigning a column: per-row bin index plus the bin count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinAssignments {
    /// Bin index per row; missing values get index `n_bins - 1` when a
    /// missing bin was requested.
    pub bins: Vec<usize>,
    /// Total number of distinct bin indices (including the missing bin if
    /// present).
    pub n_bins: usize,
}

impl BinEdges {
    /// Construct from explicit, sorted, deduplicated cut points.
    pub fn from_cuts(mut cuts: Vec<f64>) -> Self {
        cuts.retain(|c| c.is_finite());
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        BinEdges { edges: cuts }
    }

    /// Fit edges on a column. Non-finite values are ignored during fitting.
    ///
    /// Equal-frequency edges are the β-quantile cut points of the finite
    /// values, deduplicated — heavily tied columns therefore yield fewer than
    /// β bins, matching standard WoE-binning practice. The cut of chunk `k`
    /// is the order statistic at rank `k·n/β − 1` of the `n` finite values
    /// sorted by `f64::total_cmp`; recursive selection finds those ranks and
    /// the maximum in O(n log β) without sorting the column.
    pub fn fit(values: &[f64], n_bins: usize, strategy: BinStrategy) -> Result<Self, DataError> {
        if n_bins == 0 {
            return Err(DataError::ZeroBins);
        }
        crate::failpoint!("binning/fit", DataError::Injected("binning/fit"));
        let mut clean: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if clean.is_empty() {
            return Ok(BinEdges { edges: Vec::new() });
        }
        match strategy {
            BinStrategy::EqualFrequency => {
                let n = clean.len();
                // Rank of the upper edge of the k-th of n_bins
                // equal-population chunks, then the maximum's.
                let mut ranks: Vec<usize> = (1..n_bins)
                    .map(|k| (k * n) / n_bins)
                    .filter(|&pos| pos != 0 && pos < n)
                    .map(|pos| pos - 1)
                    .chain([n - 1])
                    .collect();
                ranks.dedup();
                select_ranks(&mut clean, 0, &ranks);
                let max = clean[n - 1];
                // A cut at (or past) the max would create an empty top bin —
                // every value falls at or below it.
                let cuts = ranks.iter().map(|&r| clean[r]).filter(|&cut| cut < max).collect();
                Ok(BinEdges::from_cuts(cuts))
            }
            BinStrategy::EqualWidth => {
                let min = clean.iter().copied().fold(f64::INFINITY, f64::min);
                let max = clean.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if min == max {
                    return Ok(BinEdges { edges: Vec::new() });
                }
                let width = (max - min) / n_bins as f64;
                let cuts = (1..n_bins).map(|k| min + width * k as f64).collect();
                Ok(BinEdges::from_cuts(cuts))
            }
        }
    }

    /// The interior cut points.
    pub fn cuts(&self) -> &[f64] {
        &self.edges
    }

    /// Number of bins for finite values.
    pub fn n_value_bins(&self) -> usize {
        self.edges.len() + 1
    }

    /// Bin index of a single finite value: count of edges strictly below `v`
    /// (values equal to an edge fall in the lower bin, i.e. bins are
    /// `(-inf, e0], (e0, e1], ..., (e_last, +inf)`).
    pub fn bin_of(&self, v: f64) -> usize {
        debug_assert!(v.is_finite());
        // Binary search for the partition point of edges < v.
        self.edges.partition_point(|&e| e < v)
    }

    /// Assign every row; missing (`NaN`/inf) values go to a dedicated final
    /// bin which exists only when at least one missing value occurs.
    pub fn assign_with_missing(&self, values: &[f64]) -> BinAssignments {
        let value_bins = self.n_value_bins();
        let mut any_missing = false;
        let bins: Vec<usize> = values
            .iter()
            .map(|&v| {
                if v.is_finite() {
                    self.bin_of(v)
                } else {
                    any_missing = true;
                    value_bins
                }
            })
            .collect();
        BinAssignments {
            bins,
            n_bins: value_bins + usize::from(any_missing),
        }
    }
}

/// Reorder `values` so that `values[r - offset]` holds the value that
/// sorting by `f64::total_cmp` puts at rank `r - offset`, for every `r` in
/// `ranks` (ascending and distinct, each in `offset..offset + len`).
///
/// Selecting the middle rank splits the slice into the values below and
/// above it, and each side recurses on its own ranks. Values equal under
/// `total_cmp` have equal bits, so each selected slot holds exactly the
/// bits the full sort would put there.
fn select_ranks(values: &mut [f64], offset: usize, ranks: &[usize]) {
    let mid = ranks.len() / 2;
    let Some(&rank) = ranks.get(mid) else {
        return;
    };
    let (below, _, above) = values.select_nth_unstable_by(rank - offset, f64::total_cmp);
    select_ranks(below, offset, &ranks[..mid]);
    select_ranks(above, rank + 1, &ranks[mid + 1..]);
}

/// Convenience: fit-and-assign in one step (what Algorithm 3 does per
/// candidate feature).
pub fn bin_column(
    values: &[f64],
    n_bins: usize,
    strategy: BinStrategy,
) -> Result<BinAssignments, DataError> {
    Ok(BinEdges::fit(values, n_bins, strategy)?.assign_with_missing(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_frequency_balances_populations() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let a = bin_column(&values, 4, BinStrategy::EqualFrequency).unwrap();
        assert_eq!(a.n_bins, 4);
        let mut counts = vec![0usize; a.n_bins];
        for &b in &a.bins {
            counts[b] += 1;
        }
        assert_eq!(counts, vec![25, 25, 25, 25]);
    }

    #[test]
    fn equal_frequency_uneven_sizes_differ_by_at_most_one_chunk() {
        let values: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let a = bin_column(&values, 3, BinStrategy::EqualFrequency).unwrap();
        let mut counts = vec![0usize; a.n_bins];
        for &b in &a.bins {
            counts[b] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "counts {counts:?}");
    }

    #[test]
    fn ties_collapse_bins() {
        let values = vec![1.0; 50];
        let a = bin_column(&values, 10, BinStrategy::EqualFrequency).unwrap();
        assert_eq!(a.n_bins, 1);
        assert!(a.bins.iter().all(|&b| b == 0));
    }

    #[test]
    fn equal_width_spans_range() {
        let values = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        let edges = BinEdges::fit(&values, 5, BinStrategy::EqualWidth).unwrap();
        assert_eq!(edges.cuts(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(edges.bin_of(0.0), 0);
        assert_eq!(edges.bin_of(2.0), 0); // edge value falls low
        assert_eq!(edges.bin_of(2.0001), 1);
        assert_eq!(edges.bin_of(10.0), 4);
    }

    #[test]
    fn missing_values_get_their_own_bin() {
        let values = vec![1.0, 2.0, f64::NAN, 3.0, 4.0];
        let a = bin_column(&values, 2, BinStrategy::EqualFrequency).unwrap();
        let missing_bin = a.n_bins - 1;
        assert_eq!(a.bins[2], missing_bin);
        assert!(a.bins.iter().enumerate().all(|(i, &b)| i == 2 || b < missing_bin));
    }

    #[test]
    fn no_missing_bin_when_no_missing_values() {
        let values = vec![1.0, 2.0, 3.0, 4.0];
        let a = bin_column(&values, 2, BinStrategy::EqualFrequency).unwrap();
        assert_eq!(a.n_bins, 2);
    }

    #[test]
    fn zero_bins_rejected() {
        assert_eq!(
            bin_column(&[1.0], 0, BinStrategy::EqualWidth).unwrap_err(),
            DataError::ZeroBins
        );
    }

    #[test]
    fn all_missing_column_yields_single_missing_bin() {
        let values = vec![f64::NAN, f64::NAN];
        let a = bin_column(&values, 4, BinStrategy::EqualFrequency).unwrap();
        assert_eq!(a.n_bins, 2); // one (empty) value bin + missing bin
        assert!(a.bins.iter().all(|&b| b == 1));
    }

    #[test]
    fn constant_equal_width_collapses() {
        let values = vec![5.0; 10];
        let edges = BinEdges::fit(&values, 8, BinStrategy::EqualWidth).unwrap();
        assert_eq!(edges.n_value_bins(), 1);
    }

    #[test]
    fn bin_of_agrees_with_linear_scan() {
        let edges = BinEdges::from_cuts(vec![1.0, 3.0, 7.0]);
        for v in [-5.0, 1.0, 1.5, 3.0, 3.1, 6.9, 7.0, 7.1, 100.0] {
            let linear = edges.cuts().iter().filter(|&&e| e < v).count();
            assert_eq!(edges.bin_of(v), linear, "v={v}");
        }
    }
}
