//! Order statistics over one metric's samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads printed here are the ones a
//! comparison script computes from the same numbers.

/// Median, quartiles and range of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = median_sorted(&sorted)?;
        let (q1, q3) = match quartiles_sorted(&sorted) {
            Some([q1, _, q3]) => (q1, q3),
            None => (median, median),
        };
        Some(Summary {
            median,
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        })
    }
}

/// Median of already sorted values: the middle one, or the mean of the two
/// middle ones for an even count.
pub fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// The three cut points of `statistics.quantiles(sorted, n=4)`; `None` for
/// fewer than two values, where Python raises.
pub fn quartiles_sorted(sorted: &[f64]) -> Option<[f64; 3]> {
    const N: usize = 4;
    let ld = sorted.len();
    if ld < 2 {
        return None;
    }
    let m = (ld + 1) as i64;
    let mut cuts = [0.0; 3];
    for (k, cut) in cuts.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / N as i64).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * N as i64) as f64;
        let j = j as usize;
        *cut = (sorted[j - 1] * (N as f64 - delta) + sorted[j] * delta) / N as f64;
    }
    Some(cuts)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Expected values are what CPython's statistics module returns.
    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(
            quartiles_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0]),
            Some([1.5, 3.0, 4.5])
        );
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(
            quartiles_sorted(&[1.0, 2.0, 3.0, 4.0]),
            Some([1.25, 2.5, 3.75])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_sorted(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles_sorted(&[1.0]), None);
    }

    #[test]
    fn summary_sorts_and_falls_back_for_one_value() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!(
            (s.median, s.q1, s.q3, s.min, s.max, s.n),
            (3.0, 1.5, 4.5, 1.0, 5.0, 5)
        );
        let one = Summary::of(&[2.5]).expect("non-empty");
        assert_eq!((one.median, one.q1, one.q3, one.n), (2.5, 2.5, 2.5, 1));
        assert!(Summary::of(&[]).is_none());
    }
}
