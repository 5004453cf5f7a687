//! Minimal ASCII table formatter for experiment output.

use std::fmt;

/// A right-aligned ASCII table, the output format of every harness
/// binary in `reese-bench`.
///
/// The first column is left-aligned (row labels); all other columns are
/// right-aligned (numbers). Column widths are computed from content.
///
/// # Example
///
/// ```
/// use reese_stats::Table;
///
/// let mut t = Table::new(vec!["bench", "baseline", "reese"]);
/// t.row(vec!["gcc".into(), "1.82".into(), "1.57".into()]);
/// let s = t.to_string();
/// assert!(s.contains("gcc"));
/// assert!(s.contains("1.57"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "table needs at least one column");
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows
    /// are truncated to the header width.
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Self {
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Convenience: appends a row of a label plus `f64` values formatted
    /// with `prec` decimal places.
    pub fn row_f64(&mut self, label: &str, values: &[f64], prec: usize) -> &mut Self {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.prec$}")));
        self.row(cells)
    }

    /// Renders the table as CSV (RFC 4180 quoting where needed), for
    /// piping experiment results into plotting tools.
    ///
    /// # Example
    ///
    /// ```
    /// let mut t = reese_stats::Table::new(vec!["a", "b"]);
    /// t.row(vec!["x,y".into(), "1".into()]);
    /// assert_eq!(t.to_csv(), "a,b\n\"x,y\",1\n");
    /// ```
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| cell(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.header);
        for row in &self.rows {
            write_row(row);
        }
        out
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate().take(ncols) {
                if i == 0 {
                    write!(f, "{:<width$}", cell, width = widths[0])?;
                } else {
                    write!(f, "  {:>width$}", cell, width = widths[i])?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_alignment() {
        let mut t = Table::new(vec!["name", "v"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["bb".into(), "22".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // values right-aligned in the value column
        assert!(lines[2].ends_with(" 1"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        // Should not panic when rendered.
        let _ = t.to_string();
    }

    #[test]
    fn row_f64_formats_precision() {
        let mut t = Table::new(vec!["bench", "ipc"]);
        t.row_f64("gcc", &[1.23456], 2);
        assert!(t.to_string().contains("1.23"));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_header_panics() {
        Table::new(Vec::<String>::new());
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        let mut t = Table::new(vec!["name", "v"]);
        t.row(vec!["plain".into(), "1".into()]);
        t.row(vec!["has,comma".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "name,v\nplain,1\n\"has,comma\",\"say \"\"hi\"\"\"\n");
    }
}
