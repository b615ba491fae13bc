//! Aligned text tables and CSV emission.
//!
//! Every figure/table binary in `emca-bench` prints its series as an
//! aligned table (for humans) and writes the same data as CSV under
//! `results/` (for plotting).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned table builder.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Creates a table from a declared CSV header line (`"a,b,c"`), so a
    /// results file's columns are spelled once: in the schema its
    /// scenario declares.
    pub fn with_header(title: impl Into<String>, header: &str) -> Self {
        Table::new(title, &header.split(',').collect::<Vec<_>>())
    }

    /// Appends a row of pre-formatted cells.
    ///
    /// # Panics
    /// When the row's width differs from the header's: a padded or
    /// truncated row would write a rectangular CSV with shifted columns
    /// that no later check can see.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert!(
            cells.len() == self.headers.len(),
            "table {:?}: row has {} cells, header has {} columns",
            self.title,
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// The column headers, in order.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let line = |out: &mut String, cells: &[String]| {
            let mut first = true;
            for (cell, w) in cells.iter().zip(&widths) {
                if !first {
                    out.push_str("  ");
                }
                first = false;
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-ish quoting for commas/quotes).
    pub fn to_csv(&self) -> String {
        fn quote(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// Formats a float with `prec` decimal places (tiny helper to keep table
/// construction code terse).
pub fn fnum(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["users", "throughput"]);
        t.row(vec!["1".into(), "3.5".into()]);
        t.row(vec!["256".into(), "0.42".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        assert!(lines[1].contains("users"));
        assert!(lines[4].trim_start().starts_with("256"));
    }

    #[test]
    #[should_panic(expected = "table \"demo\": row has 1 cells, header has 3 columns")]
    fn short_rows_are_rejected() {
        Table::new("demo", &["a", "b", "c"]).row(vec!["1".into()]);
    }

    #[test]
    #[should_panic(expected = "table \"demo\": row has 3 cells, header has 2 columns")]
    fn long_rows_are_rejected() {
        Table::new("demo", &["a", "b"]).row(vec!["1".into(), "2".into(), "3".into()]);
    }

    #[test]
    fn with_header_splits_the_declared_line() {
        let mut t = Table::with_header("t", "a,b,c");
        t.row(vec!["1".into(), "x,y".into(), "say \"hi\"".into()]);
        assert_eq!(t.to_csv(), "a,b,c\n1,\"x,y\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn csv_quotes_when_needed() {
        let mut t = Table::new("", &["name", "note"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn csv_roundtrip_file() {
        let dir = std::env::temp_dir().join("emca_metrics_table_test");
        let path = dir.join("t.csv");
        let mut t = Table::new("x", &["k", "v"]);
        t.row(vec!["1".into(), "2".into()]);
        t.write_csv(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.starts_with("k,v"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fnum(1.23456, 2), "1.23");
    }
}
