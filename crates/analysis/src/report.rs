//! Schema-consistent experiment output: named row tables and one shared
//! CSV emission point.
//!
//! Every experiment in the bench harness produces its results as
//! [`TableSpec`]s — a target file name, a header row, and data rows — and
//! the driver writes them all through [`write_tables`] and prints them all
//! through [`TableSpec::render`]. Routing every experiment through one
//! writer keeps the output schema uniform (RFC 4180 escaping, header-first
//! layout, one directory per invocation), makes the console table the CSV
//! table, and gives the harness a single place to assert on: the registry
//! smoke test compares `TableSpec` rows across thread counts without
//! touching the filesystem.

use crate::csv::{csv_digest, write_csv};
use std::fmt::Write as _;
use std::path::Path;

/// Tables with more rows than this render a sample (see
/// [`TableSpec::render`]).
const RENDER_ALL_UP_TO: usize = 24;
/// Rows in a rendered sample, first and last included.
const SAMPLE_ROWS: usize = 11;

/// One named output table: the in-memory form of an experiment CSV.
///
/// # Examples
///
/// ```
/// use pp_analysis::TableSpec;
///
/// let mut t = TableSpec::new("fig2.csv", &["t", "median"]);
/// t.push(vec!["0".into(), "1.00".into()]);
/// assert_eq!(t.rows.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    /// File name the table is written to (relative to the output
    /// directory), e.g. `"fig2.csv"`.
    pub file: String,
    /// Header cells.
    pub headers: Vec<String>,
    /// Data rows; every row should have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl TableSpec {
    /// Creates an empty table targeting `file` with the given headers.
    pub fn new(file: impl Into<String>, headers: &[&str]) -> Self {
        TableSpec {
            file: file.into(),
            headers: headers.iter().map(|h| (*h).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width — schema
    /// consistency is the point of routing output through one type.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "{}: row width {} != header width {}",
            self.file,
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// FNV-1a-64 of the bytes [`write_tables`] writes for this table.
    pub fn digest(&self) -> u64 {
        csv_digest(&self.headers, &self.rows)
    }

    /// The console view of the table: every column right-aligned under its
    /// CSV header with a dashed rule beneath, each cell exactly as the CSV
    /// holds it. A table of more than 24 rows (a time series) shows 11
    /// evenly spaced rows, first and last included, and then a line giving
    /// the row count and the file.
    ///
    /// # Examples
    ///
    /// ```
    /// use pp_analysis::TableSpec;
    ///
    /// let mut t = TableSpec::new("t.csv", &["n", "estimate"]);
    /// t.push(vec!["1000".into(), "10.2".into()]);
    /// assert_eq!(t.render(), "   n  estimate\n----  --------\n1000      10.2\n");
    /// ```
    pub fn render(&self) -> String {
        let count = self.rows.len();
        let shown: Vec<&[String]> = if count > RENDER_ALL_UP_TO {
            (0..SAMPLE_ROWS)
                .map(|k| self.rows[(count - 1) * k / (SAMPLE_ROWS - 1)].as_slice())
                .collect()
        } else {
            self.rows.iter().map(Vec::as_slice).collect()
        };
        let width = |i: usize| {
            shown
                .iter()
                .map(|row| row[i].chars().count())
                .chain([self.headers[i].chars().count()])
                .max()
                .unwrap_or(0)
        };
        let widths: Vec<usize> = (0..self.headers.len()).map(width).collect();
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        let mut out = String::new();
        for line in [self.headers.as_slice(), &rule].into_iter().chain(shown) {
            let cells: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(cell, &w)| format!("{cell:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        if count > RENDER_ALL_UP_TO {
            let _ = writeln!(out, "({SAMPLE_ROWS} of {count} rows; all in {})", self.file);
        }
        out
    }
}

/// Writes every table under `dir` (creating it as needed) and returns the
/// written paths in table order.
///
/// # Errors
///
/// Returns the first I/O error from directory creation or file writing.
pub fn write_tables(dir: impl AsRef<Path>, tables: &[TableSpec]) -> std::io::Result<Vec<String>> {
    let dir = dir.as_ref();
    let mut paths = Vec::with_capacity(tables.len());
    for table in tables {
        let path = dir.join(&table.file);
        write_csv(&path, &table.headers, &table.rows)?;
        paths.push(path.display().to_string());
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_every_table_and_returns_paths() {
        let dir = std::env::temp_dir().join(format!("pp_analysis_report_{}", std::process::id()));
        let mut a = TableSpec::new("a.csv", &["x", "y"]);
        a.push(vec!["1".into(), "2".into()]);
        let mut b = TableSpec::new("b.csv", &["z"]);
        b.push(vec!["3".into()]);
        let paths = write_tables(&dir, &[a, b]).unwrap();
        assert_eq!(paths.len(), 2);
        let contents = std::fs::read_to_string(&paths[0]).unwrap();
        assert_eq!(contents, "x,y\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_aligns_columns_under_the_csv_headers() {
        let mut t = TableSpec::new("t.csv", &["a", "long_header"]);
        t.push(vec!["12345".into(), "x".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[1].len());
        assert_eq!(lines[1].len(), lines[2].len());
        assert!(lines[1].chars().all(|c| c == '-' || c == ' '));
    }

    #[test]
    fn render_samples_long_tables_first_and_last_included() {
        let mut t = TableSpec::new("series.csv", &["t"]);
        for i in 0..=RENDER_ALL_UP_TO {
            t.push(vec![i.to_string()]);
        }
        let s = t.render();
        let lines: Vec<&str> = s.lines().map(str::trim).collect();
        assert_eq!(
            lines[2..],
            [
                "0",
                "2",
                "4",
                "7",
                "9",
                "12",
                "14",
                "16",
                "19",
                "21",
                "24",
                "(11 of 25 rows; all in series.csv)"
            ]
        );
        t.rows.pop();
        assert_eq!(t.render().lines().count(), 2 + RENDER_ALL_UP_TO);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn push_rejects_ragged_rows() {
        let mut t = TableSpec::new("t.csv", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }
}
