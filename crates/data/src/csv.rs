//! Minimal CSV reader/writer for labeled numeric tables.
//!
//! Industrial SAFE ingests data from a feature store; this reproduction reads
//! plain CSV: a header row of feature names, numeric cells, an optional label
//! column (named `label` by convention), and empty cells / `NA` / `nan`
//! parsed as missing (`f64::NAN`). RFC-4180-style double-quoting is
//! supported for header cells — engineered feature names like `mul(x0,x1)`
//! contain commas, so the writer quotes them and the reader unquotes.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::chunk::{ChunkOptions, ChunkStoreBuilder};
use crate::dataset::{Dataset, FeatureMeta};
use crate::error::DataError;

/// Split one CSV line with RFC-4180 double-quote handling: `"a,b"` is one
/// cell `a,b`, doubled quotes inside a quoted cell unescape to one quote.
fn split_line(line: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    current.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if current.is_empty() => in_quotes = true,
            ',' if !in_quotes => {
                cells.push(std::mem::take(&mut current));
            }
            other => current.push(other),
        }
    }
    cells.push(current);
    cells
}

/// Quote a header cell when it contains a comma or quote.
fn quote_cell(name: &str) -> String {
    if name.contains(',') || name.contains('"') {
        format!("\"{}\"", name.replace('"', "\"\""))
    } else {
        name.to_string()
    }
}

/// Parse one cell: empty, `NA`, `NaN` (any case) → NaN; otherwise f64.
fn parse_cell(token: &str, line: usize) -> Result<f64, DataError> {
    let t = token.trim();
    if t.is_empty() || t.eq_ignore_ascii_case("na") || t.eq_ignore_ascii_case("nan") {
        return Ok(f64::NAN);
    }
    t.parse::<f64>().map_err(|_| DataError::Csv {
        line,
        message: format!("cannot parse '{t}' as a number"),
    })
}

/// Incremental CSV row parser shared by the resident reader
/// ([`read_csv_str`]) and the streaming out-of-core reader
/// ([`read_csv_chunked`]). Both paths run the exact same header handling,
/// cell parsing, and validation, so streamed ingest is byte-identical to
/// materialized ingest by construction.
struct RowParser {
    names: Vec<String>,
    label_idx: Option<usize>,
    features: Vec<f64>,
    n_labels: usize,
}

impl RowParser {
    fn new(header: &str, label_column: Option<&str>) -> Result<RowParser, DataError> {
        let names: Vec<String> = split_line(header)
            .into_iter()
            .map(|s| s.trim().to_string())
            .collect();
        let label_idx = match label_column {
            Some(name) => Some(
                names
                    .iter()
                    .position(|n| n == name)
                    .ok_or_else(|| DataError::UnknownFeature(name.to_string()))?,
            ),
            None => None,
        };
        Ok(RowParser {
            names,
            label_idx,
            features: Vec::new(),
            n_labels: 0,
        })
    }

    fn n_features(&self) -> usize {
        self.names.len() - usize::from(self.label_idx.is_some())
    }

    fn feature_names(&self) -> Vec<String> {
        self.names
            .iter()
            .enumerate()
            .filter(|(j, _)| Some(*j) != self.label_idx)
            .map(|(_, n)| n.clone())
            .collect()
    }

    /// Parse one data line. `Ok(None)` for blank lines; otherwise the
    /// feature cells (valid until the next call) and the label cell.
    fn parse_line(
        &mut self,
        line: &str,
        line_no: usize,
    ) -> Result<Option<(&[f64], Option<u8>)>, DataError> {
        if line.trim().is_empty() {
            return Ok(None);
        }
        let cells: Vec<String> = split_line(line);
        if cells.len() != self.names.len() {
            return Err(DataError::Csv {
                line: line_no,
                message: format!("expected {} cells, found {}", self.names.len(), cells.len()),
            });
        }
        self.features.clear();
        let mut label = None;
        for (j, cell) in cells.iter().map(|c| c.as_str()).enumerate() {
            if Some(j) == self.label_idx {
                let v = parse_cell(cell, line_no)?;
                if v != 0.0 && v != 1.0 {
                    return Err(DataError::InvalidLabel {
                        row: self.n_labels,
                        value: v,
                    });
                }
                self.n_labels += 1;
                label = Some(v as u8);
            } else {
                self.features.push(parse_cell(cell, line_no)?);
            }
        }
        Ok(Some((&self.features, label)))
    }
}

/// Read a dataset from CSV text. If `label_column` is `Some(name)` that
/// column is pulled out as binary labels (cells must be 0 or 1).
pub fn read_csv_str(content: &str, label_column: Option<&str>) -> Result<Dataset, DataError> {
    let mut lines = content.lines().enumerate();
    let (_, header) = lines.next().ok_or(DataError::Csv {
        line: 1,
        message: "empty file".into(),
    })?;
    let mut parser = RowParser::new(header, label_column)?;
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); parser.n_features()];
    let mut labels: Vec<u8> = Vec::new();

    for (i, line) in lines {
        let line_no = i + 1;
        if let Some((features, label)) = parser.parse_line(line, line_no)? {
            for (c, &v) in features.iter().enumerate() {
                columns[c].push(v);
            }
            if let Some(l) = label {
                labels.push(l);
            }
        }
    }

    let has_labels = parser.label_idx.is_some();
    let feature_names = parser.feature_names();
    let n_rows = columns.first().map(|c| c.len()).unwrap_or(0);
    let mut ds = Dataset::with_rows(n_rows);
    for (name, col) in feature_names.into_iter().zip(columns) {
        ds.push_column(FeatureMeta::original(name), col)?;
    }
    if has_labels {
        ds.set_labels(labels)?;
    }
    Ok(ds)
}

/// Read a dataset from a CSV file on disk.
pub fn read_csv(path: impl AsRef<Path>, label_column: Option<&str>) -> Result<Dataset, DataError> {
    let mut file = File::open(path)?;
    let mut content = String::new();
    file.read_to_string(&mut content)?;
    read_csv_str(&content, label_column)
}

/// Stream a CSV file into a chunked [`Dataset`] without ever materializing
/// the full table: each parsed row goes straight into a
/// [`ChunkStoreBuilder`], which holds at most one chunk of staging data and
/// spills finished chunks under `opts.spill_dir`. Labels (1 byte/row) stay
/// resident.
///
/// Parsing is byte-identical to [`read_csv`]-then-[`Dataset`]: both paths
/// share one row parser, and `BufRead::lines` strips `\n`/`\r\n` exactly
/// like the `str::lines` call the resident reader uses (pinned by the
/// streaming-ingest differential tests).
pub fn read_csv_chunked(
    path: impl AsRef<Path>,
    label_column: Option<&str>,
    opts: ChunkOptions,
) -> Result<Dataset, DataError> {
    let file = File::open(path)?;
    let mut lines = BufReader::new(file).lines();
    let header = lines.next().transpose()?.ok_or(DataError::Csv {
        line: 1,
        message: "empty file".into(),
    })?;
    let mut parser = RowParser::new(&header, label_column)?;
    let mut builder = ChunkStoreBuilder::new(parser.n_features(), opts)?;
    let mut labels: Vec<u8> = Vec::new();
    for (i, line) in lines.enumerate() {
        let line_no = i + 2; // physical line number; header was line 1
        let line = line?;
        if let Some((features, label)) = parser.parse_line(&line, line_no)? {
            builder.push_row(features)?;
            if let Some(l) = label {
                labels.push(l);
            }
        }
    }
    let has_labels = parser.label_idx.is_some();
    let names = parser.feature_names();
    Dataset::from_chunk_store(names, builder.finish()?, has_labels.then_some(labels))
}

/// Append the CSV header and all data rows of `ds` to `out`, iterating the
/// table chunk-wise — works on both backends without materializing spilled
/// columns beyond one chunk at a time.
fn write_csv_into(ds: &Dataset, out: &mut String) -> Result<(), DataError> {
    let names: Vec<String> = ds
        .feature_names()
        .iter()
        .map(|n| quote_cell(n))
        .collect();
    out.push_str(&names.join(","));
    if ds.labels().is_some() {
        out.push_str(",label");
    }
    out.push('\n');
    let labels = ds.labels();
    ds.for_each_row_chunk(&mut |range, cols| {
        for (r, i) in range.enumerate() {
            let cells: Vec<String> = cols
                .iter()
                .map(|col| {
                    let v = col[r];
                    if v.is_finite() {
                        // Shortest round-trippable representation.
                        format!("{v}")
                    } else {
                        String::new()
                    }
                })
                .collect();
            out.push_str(&cells.join(","));
            if let Some(labels) = labels {
                out.push(',');
                out.push_str(if labels[i] == 1 { "1" } else { "0" });
            }
            out.push('\n');
        }
    })
}

/// Serialize a dataset to CSV text. Labels, when present, are written as a
/// trailing `label` column. NaN is written as an empty cell.
pub fn write_csv_string(ds: &Dataset) -> String {
    let mut out = String::new();
    // The only failure mode is spill I/O on a chunked backend; surface it
    // as a truncated document rather than a panic (callers that care about
    // out-of-core data use `write_csv`, which propagates the error).
    let _ = write_csv_into(ds, &mut out);
    out
}

/// Write a dataset to a CSV file (both backends; spilled columns stream
/// through chunk-wise).
pub fn write_csv(ds: &Dataset, path: impl AsRef<Path>) -> Result<(), DataError> {
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    let mut out = String::new();
    write_csv_into(ds, &mut out)?;
    writer.write_all(out.as_bytes())?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_labeled_csv() {
        let text = "a,b,label\n1.0,2.5,0\n3,4,1\n";
        let ds = read_csv_str(text, Some("label")).unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(ds.feature_names(), vec!["a", "b"]);
        assert_eq!(ds.column(0).unwrap(), &[1.0, 3.0]);
        assert_eq!(ds.labels().unwrap(), &[0, 1]);
    }

    #[test]
    fn label_column_can_be_interior() {
        let text = "a,label,b\n1,1,2\n3,0,4\n";
        let ds = read_csv_str(text, Some("label")).unwrap();
        assert_eq!(ds.feature_names(), vec!["a", "b"]);
        assert_eq!(ds.column(1).unwrap(), &[2.0, 4.0]);
        assert_eq!(ds.labels().unwrap(), &[1, 0]);
    }

    #[test]
    fn missing_values_parse_as_nan() {
        let text = "a,b\n1,\nNA,2\nnan,3\n";
        let ds = read_csv_str(text, None).unwrap();
        assert!(ds.column(1).unwrap()[0].is_nan());
        assert!(ds.column(0).unwrap()[1].is_nan());
        assert!(ds.column(0).unwrap()[2].is_nan());
        assert!(ds.labels().is_none());
    }

    #[test]
    fn bad_number_reports_line() {
        let text = "a\n1\nbogus\n";
        let err = read_csv_str(text, None).unwrap_err();
        match err {
            DataError::Csv { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn ragged_row_rejected() {
        let text = "a,b\n1,2\n3\n";
        assert!(matches!(
            read_csv_str(text, None).unwrap_err(),
            DataError::Csv { line: 3, .. }
        ));
    }

    #[test]
    fn non_binary_label_rejected() {
        let text = "a,label\n1,2\n";
        assert!(matches!(
            read_csv_str(text, Some("label")).unwrap_err(),
            DataError::InvalidLabel { .. }
        ));
    }

    #[test]
    fn missing_label_column_rejected() {
        let text = "a,b\n1,2\n";
        assert!(matches!(
            read_csv_str(text, Some("y")).unwrap_err(),
            DataError::UnknownFeature(_)
        ));
    }

    #[test]
    fn round_trip_preserves_data() {
        let text = "a,b,label\n1,2,0\n,4,1\n";
        let ds = read_csv_str(text, Some("label")).unwrap();
        let written = write_csv_string(&ds);
        let back = read_csv_str(&written, Some("label")).unwrap();
        assert_eq!(back.n_rows(), ds.n_rows());
        assert_eq!(back.labels(), ds.labels());
        assert_eq!(back.column(1).unwrap(), ds.column(1).unwrap());
        assert!(back.column(0).unwrap()[1].is_nan());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("safe_data_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let ds = read_csv_str("a,label\n1,0\n2,1\n", Some("label")).unwrap();
        write_csv(&ds, &path).unwrap();
        let back = read_csv(&path, Some("label")).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn empty_file_is_an_error() {
        assert!(read_csv_str("", None).is_err());
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use crate::chunk::ChunkOptions;
    use crate::column::ColumnRead;

    fn tmp_csv(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("safe_data_csv_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text.as_bytes()).unwrap();
        path
    }

    /// Bit-level comparison of a streamed chunked ingest against the
    /// resident reader: same shape, names, labels, and per-column value
    /// bits (NaN == NaN at the bit level, which `PartialEq` can't see).
    /// `file` names the temp CSV; tests run in parallel, so each passes its
    /// own.
    fn assert_ingest_identical(file: &str, text: &str, label: Option<&str>, opts: ChunkOptions) {
        let path = tmp_csv(file, text);
        let resident = read_csv(&path, label).unwrap();
        let chunked = read_csv_chunked(&path, label, opts).unwrap();
        assert_eq!(chunked.n_rows(), resident.n_rows());
        assert_eq!(chunked.feature_names(), resident.feature_names());
        assert_eq!(chunked.labels(), resident.labels());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for c in 0..resident.n_cols() {
            resident.column_view(c).unwrap().gather_into(&mut a).unwrap();
            chunked.column_view(c).unwrap().gather_into(&mut b).unwrap();
            let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "column {c} bytes differ");
        }
    }

    #[test]
    fn streamed_ingest_matches_resident_reader() {
        let text = "a,b,label\n1.0,2.5,0\n3,4,1\n-0.125,9e3,0\n0.1,0.2,1\n7,8,0\n";
        assert_ingest_identical("matches.csv", text, Some("label"), ChunkOptions::in_memory(2));
    }

    #[test]
    fn streamed_ingest_handles_nan_and_missing_cells() {
        let text = "a,b\n1,\nNA,2\nnan,3\n,\n5,NaN\n";
        assert_ingest_identical("nan.csv", text, None, ChunkOptions::in_memory(2));
    }

    #[test]
    fn streamed_ingest_handles_crlf_endings() {
        let text = "a,b,label\r\n1,2,0\r\n3,,1\r\nNA,4,0\r\n";
        assert_ingest_identical("crlf.csv", text, Some("label"), ChunkOptions::in_memory(2));
    }

    #[test]
    fn streamed_ingest_with_spill_round_trips() {
        let spill = std::env::temp_dir().join("safe_data_csv_stream_spill");
        std::fs::create_dir_all(&spill).unwrap();
        let mut text = String::from("x,y,label\n");
        for i in 0..100 {
            text.push_str(&format!("{},{},{}\n", i, (i * 7 % 13) as f64 * 0.5, i % 2));
        }
        let opts = ChunkOptions::spilled(8, 2, &spill);
        assert_ingest_identical("spill.csv", &text, Some("label"), opts);
    }

    #[test]
    fn streamed_ingest_reports_same_errors() {
        for text in ["a,b\n1,2\n3\n", "a\n1\nbogus\n", "a,label\n1,2\n", ""] {
            let path = tmp_csv("err.csv", text);
            let resident = read_csv(&path, text.contains("label").then_some("label"));
            let streamed = read_csv_chunked(
                &path,
                text.contains("label").then_some("label"),
                ChunkOptions::in_memory(4),
            );
            assert_eq!(
                resident.unwrap_err(),
                streamed.unwrap_err(),
                "error mismatch for {text:?}"
            );
        }
    }

    #[test]
    fn chunked_dataset_writes_same_csv_bytes() {
        let text = "a,b,label\n1,2,0\n,4,1\n5.5,6,0\n";
        let path = tmp_csv("write.csv", text);
        let resident = read_csv(&path, Some("label")).unwrap();
        let chunked = read_csv_chunked(&path, Some("label"), ChunkOptions::in_memory(2)).unwrap();
        assert_eq!(write_csv_string(&chunked), write_csv_string(&resident));
    }
}

#[cfg(test)]
mod quoting_tests {
    use super::*;
    use crate::dataset::{Dataset, FeatureMeta};

    #[test]
    fn split_line_handles_quoted_commas() {
        assert_eq!(split_line("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(split_line(r#""mul(x0,x1)",b"#), vec!["mul(x0,x1)", "b"]);
        assert_eq!(split_line(r#""say ""hi""",2"#), vec![r#"say "hi""#, "2"]);
        assert_eq!(split_line(""), vec![""]);
    }

    #[test]
    fn quote_cell_round_trips() {
        for name in ["plain", "mul(x0,x1)", "we\"ird"] {
            let quoted = quote_cell(name);
            assert_eq!(split_line(&quoted), vec![name.to_string()]);
        }
    }

    #[test]
    fn engineered_names_survive_csv_round_trip() {
        let mut ds = Dataset::with_rows(2);
        ds.push_column(FeatureMeta::original("x0"), vec![1.0, 2.0]).unwrap();
        ds.push_column(
            FeatureMeta::generated("mul(x0,x1)", "mul", vec!["x0".into(), "x1".into()]),
            vec![3.0, 4.0],
        )
        .unwrap();
        ds.set_labels(vec![0, 1]).unwrap();
        let text = write_csv_string(&ds);
        let back = read_csv_str(&text, Some("label")).unwrap();
        assert_eq!(back.feature_names(), vec!["x0", "mul(x0,x1)"]);
        assert_eq!(back.column(1).unwrap(), &[3.0, 4.0]);
    }
}
