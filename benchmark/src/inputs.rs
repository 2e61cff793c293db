//! Seeded inputs. The workload seed picks every dataset; the program under
//! test only ever sees the generated tables.

use safe_data::dataset::Dataset;
use safe_data::split::DatasetSplit;
use safe_datagen::benchmarks::BenchmarkId;
use safe_datagen::DatasetSpec;

/// A Table IV dataset at a chosen split size (same generator personality
/// and width as the paper's table; row counts set per workload).
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub id: BenchmarkId,
    pub n_train: usize,
    pub n_valid: usize,
    pub n_test: usize,
    /// Leading training rows SAFE is fitted on. The whole training split
    /// trains the downstream model that measures the plan's quality.
    pub fit_rows: usize,
}

impl Shape {
    pub fn generate(&self, seed: u64) -> DatasetSplit {
        let mut spec: DatasetSpec = self.id.spec();
        spec.n_train = self.n_train;
        spec.n_valid = self.n_valid;
        spec.n_test = self.n_test;
        self.id.generate_with_spec(&spec, seed)
    }

    /// The table SAFE is fitted on and the validation split.
    pub fn fit_input(&self, seed: u64) -> (Dataset, Option<Dataset>) {
        let DatasetSplit { train, valid, .. } = self.generate(seed);
        if self.fit_rows < train.n_rows() {
            let rows: Vec<usize> = (0..self.fit_rows).collect();
            (train.select_rows(&rows), valid)
        } else {
            (train, valid)
        }
    }
}

/// gina at its Table IV size (2,800 train, 668 test, 970 columns), with
/// SAFE fitted on 5% of the training rows (140 × 970).
pub const WIDE: Shape = Shape {
    id: BenchmarkId::Gina,
    n_train: 2_800,
    n_valid: 0,
    n_test: 668,
    fit_rows: 140,
};

/// vehicle at a quarter of its Table IV size (15,000 train, 4,632 valid,
/// 5,000 test; 100 columns).
pub const TALL: Shape = Shape {
    id: BenchmarkId::Vehicle,
    n_train: 15_000,
    n_valid: 4_632,
    n_test: 5_000,
    fit_rows: 15_000,
};

/// vehicle with the quarter-size training splits and the full 20,000-row
/// test split, which is what gets scored.
pub const SCORED: Shape = Shape {
    id: BenchmarkId::Vehicle,
    n_train: 15_000,
    n_valid: 4_632,
    n_test: 20_000,
    fit_rows: 15_000,
};

/// Seed of the `index`-th dataset of a run (SplitMix64 of the run seed).
pub fn dataset_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Row-major copy of `ds` in the column order `names` (the artifact's
/// input schema), as single requests and `score_rows` batches take it.
pub fn row_major(ds: &Dataset, names: &[String]) -> Result<Vec<f64>, String> {
    let cols: Vec<&[f64]> = names
        .iter()
        .map(|n| ds.column_by_name(n).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut rows = Vec::with_capacity(ds.n_rows() * cols.len());
    for i in 0..ds.n_rows() {
        rows.extend(cols.iter().map(|c| c[i]));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_decides_the_inputs() {
        let small = Shape {
            id: BenchmarkId::Banknote,
            n_train: 60,
            n_valid: 0,
            n_test: 30,
            fit_rows: 20,
        };
        let a = small.generate(dataset_seed(42, 0));
        let b = small.generate(dataset_seed(42, 0));
        let c = small.generate(dataset_seed(42, 1));
        assert_eq!(a.train, b.train);
        assert_ne!(a.train, c.train);
        assert_eq!((a.train.n_rows(), a.test.n_rows()), (60, 30));
        assert_ne!(dataset_seed(7, 0), dataset_seed(8, 0));
        let (fit_train, valid) = small.fit_input(dataset_seed(42, 0));
        assert_eq!(fit_train.row(19), a.train.row(19));
        assert_eq!((fit_train.n_rows(), valid), (20, None));
    }
}
