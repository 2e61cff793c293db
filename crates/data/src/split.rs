//! Deterministic shuffling and dataset splitting.
//!
//! The paper's Table IV fixes explicit #train/#valid/#test sizes per dataset;
//! [`train_valid_test_split`] reproduces that protocol (with the "no
//! validation set for small data" convention handled by passing 0).

use crate::dataset::Dataset;
use crate::error::DataError;

/// A train/valid/test partition of one dataset. `valid` is `None` when the
/// validation fraction/size was zero (small benchmark datasets in the paper
/// reuse training data for validation).
#[derive(Debug, Clone)]
pub struct DatasetSplit {
    /// Training partition.
    pub train: Dataset,
    /// Optional validation partition.
    pub valid: Option<Dataset>,
    /// Held-out test partition.
    pub test: Dataset,
}

/// Fisher–Yates shuffle of `0..n` driven by a splitmix64 stream seeded with
/// `seed` — deterministic across platforms without pulling `rand` into this
/// low-level crate.
pub fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

/// Split into train/test by fraction (`test_fraction` of rows go to test).
pub fn train_test_split(
    ds: &Dataset,
    test_fraction: f64,
    seed: u64,
) -> Result<(Dataset, Dataset), DataError> {
    if !(0.0..1.0).contains(&test_fraction) {
        return Err(DataError::InvalidSplit(format!(
            "test_fraction {test_fraction} not in [0, 1)"
        )));
    }
    let n = ds.n_rows();
    if n == 0 {
        return Err(DataError::EmptyDataset);
    }
    let idx = shuffled_indices(n, seed);
    let n_test = ((n as f64) * test_fraction).round() as usize;
    let (test_idx, train_idx) = idx.split_at(n_test);
    Ok((ds.select_rows(train_idx), ds.select_rows(test_idx)))
}

/// Split into explicit train/valid/test sizes, paper-style. `n_valid` may be
/// 0, yielding `valid: None`. Sizes must not exceed the row count.
pub fn train_valid_test_split(
    ds: &Dataset,
    n_train: usize,
    n_valid: usize,
    n_test: usize,
    seed: u64,
) -> Result<DatasetSplit, DataError> {
    let total = n_train + n_valid + n_test;
    if total > ds.n_rows() {
        return Err(DataError::InvalidSplit(format!(
            "requested {total} rows but dataset has {}",
            ds.n_rows()
        )));
    }
    if n_train == 0 || n_test == 0 {
        return Err(DataError::InvalidSplit(
            "train and test sizes must be positive".into(),
        ));
    }
    let idx = shuffled_indices(ds.n_rows(), seed);
    let train = ds.select_rows(&idx[..n_train]);
    let valid = if n_valid > 0 {
        Some(ds.select_rows(&idx[n_train..n_train + n_valid]))
    } else {
        None
    };
    let test = ds.select_rows(&idx[n_train + n_valid..n_train + n_valid + n_test]);
    Ok(DatasetSplit { train, valid, test })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    fn labeled(n: usize) -> Dataset {
        let col: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let labels: Vec<u8> = (0..n).map(|i| (i % 3 == 0) as u8).collect();
        Dataset::from_columns(vec!["x".into()], vec![col], Some(labels)).unwrap()
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let a = shuffled_indices(100, 7);
        let b = shuffled_indices(100, 7);
        let c = shuffled_indices(100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn train_test_sizes() {
        let ds = labeled(100);
        let (train, test) = train_test_split(&ds, 0.25, 1).unwrap();
        assert_eq!(test.n_rows(), 25);
        assert_eq!(train.n_rows(), 75);
    }

    #[test]
    fn train_test_disjoint_and_complete() {
        let ds = labeled(50);
        let (train, test) = train_test_split(&ds, 0.3, 3).unwrap();
        let mut all: Vec<f64> = train
            .column(0)
            .unwrap()
            .iter()
            .chain(test.column(0).unwrap())
            .copied()
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, (0..50).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn invalid_fraction_rejected() {
        let ds = labeled(10);
        assert!(train_test_split(&ds, 1.0, 0).is_err());
        assert!(train_test_split(&ds, -0.1, 0).is_err());
    }

    #[test]
    fn three_way_split_paper_protocol() {
        let ds = labeled(100);
        let split = train_valid_test_split(&ds, 60, 20, 20, 5).unwrap();
        assert_eq!(split.train.n_rows(), 60);
        assert_eq!(split.valid.as_ref().unwrap().n_rows(), 20);
        assert_eq!(split.test.n_rows(), 20);
    }

    #[test]
    fn zero_valid_gives_none() {
        let ds = labeled(100);
        let split = train_valid_test_split(&ds, 70, 0, 30, 5).unwrap();
        assert!(split.valid.is_none());
    }

    #[test]
    fn oversized_split_rejected() {
        let ds = labeled(10);
        assert!(train_valid_test_split(&ds, 8, 2, 2, 0).is_err());
    }
}
