//! Error type shared by the data layer.

use std::fmt;

/// Errors produced by dataset construction, I/O and binning.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A column had a different length than the dataset's row count.
    ColumnLengthMismatch {
        /// Name of the offending column.
        name: String,
        /// Expected number of rows.
        expected: usize,
        /// Actual number of rows provided.
        actual: usize,
    },
    /// Labels vector length did not match the row count.
    LabelLengthMismatch {
        /// Expected number of rows.
        expected: usize,
        /// Actual label count.
        actual: usize,
    },
    /// A label value other than 0 or 1 was supplied.
    InvalidLabel {
        /// Row index of the bad label.
        row: usize,
        /// The raw value encountered.
        value: f64,
    },
    /// A row-major input row had the wrong number of fields. Distinct from
    /// [`DataError::Csv`]: no parser is involved, the caller handed over a
    /// ragged row directly.
    RowShapeMismatch {
        /// 0-based index of the offending row.
        row: usize,
        /// Expected field count (the dataset's column count).
        expected: usize,
        /// Actual field count provided.
        actual: usize,
    },
    /// A feature name was used twice.
    DuplicateFeature(String),
    /// A raw-slice accessor (`column`, `columns`) was called on a column
    /// whose storage is chunked/spilled; use `Dataset::read_column`.
    ColumnNotResident(String),
    /// Requested feature does not exist.
    UnknownFeature(String),
    /// Column index out of range.
    ColumnOutOfRange {
        /// The requested index.
        index: usize,
        /// Number of columns available.
        len: usize,
    },
    /// The operation requires a non-empty dataset.
    EmptyDataset,
    /// Binning was asked for zero bins.
    ZeroBins,
    /// CSV parsing failed.
    Csv {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// Underlying I/O failure (message only, to keep the error `Clone`).
    Io(String),
    /// A split fraction was outside (0, 1) or fractions summed past 1.
    InvalidSplit(String),
    /// A fault-injection point fired (tests only; see the `failpoints`
    /// feature). Carries the failpoint name.
    Injected(&'static str),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::ColumnLengthMismatch {
                name,
                expected,
                actual,
            } => write!(
                f,
                "column '{name}' has {actual} rows but dataset has {expected}"
            ),
            DataError::LabelLengthMismatch { expected, actual } => {
                write!(f, "labels have {actual} entries but dataset has {expected} rows")
            }
            DataError::InvalidLabel { row, value } => {
                write!(f, "label at row {row} is {value}, expected 0 or 1")
            }
            DataError::RowShapeMismatch { row, expected, actual } => {
                write!(f, "row {row} has {actual} fields, expected {expected}")
            }
            DataError::DuplicateFeature(name) => write!(f, "duplicate feature name '{name}'"),
            DataError::ColumnNotResident(name) => write!(
                f,
                "column '{name}' is chunked/spilled; use read_column instead of raw slices"
            ),
            DataError::UnknownFeature(name) => write!(f, "unknown feature '{name}'"),
            DataError::ColumnOutOfRange { index, len } => {
                write!(f, "column index {index} out of range (dataset has {len})")
            }
            DataError::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
            DataError::ZeroBins => write!(f, "number of bins must be at least 1"),
            DataError::Csv { line, message } => write!(f, "csv parse error at line {line}: {message}"),
            DataError::Io(msg) => write!(f, "io error: {msg}"),
            DataError::InvalidSplit(msg) => write!(f, "invalid split: {msg}"),
            DataError::Injected(name) => write!(f, "injected fault at '{name}'"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DataError::ColumnLengthMismatch {
            name: "age".into(),
            expected: 10,
            actual: 9,
        };
        let msg = e.to_string();
        assert!(msg.contains("age"));
        assert!(msg.contains("10"));
        assert!(msg.contains('9'));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: DataError = io.into();
        assert!(matches!(e, DataError::Io(_)));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn errors_are_cloneable_and_comparable() {
        let a = DataError::ZeroBins;
        let b = a.clone();
        assert_eq!(a, b);
    }
}
