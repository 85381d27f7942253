//! The table/figure reproduction harness.
//!
//! Every table and figure in the paper's evaluation has a corresponding
//! experiment in [`experiments`] that regenerates its rows from the
//! simulator stack, plus a `cargo bench` target that prints it. The
//! `reproduce` binary runs the complete set (the source of
//! `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod platform;
pub mod traces;

use std::fmt;

/// A printable experiment result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title, e.g. `"Figure 6: Perf/TCO and Perf/Watt of nine models"`.
    pub title: String,
    /// What the paper reports, for side-by-side comparison.
    pub paper_anchor: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, paper_anchor: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            paper_anchor: paper_anchor.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n## {}", self.title)?;
        writeln!(f, "_Paper_: {}\n", self.paper_anchor)?;
        // Column widths.
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}", w = w))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        writeln!(f, "{}", fmt_row(&self.header))?;
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "| {} |", dashes.join(" | "))?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// A named experiment producing one or more tables.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"F6"`.
    pub id: &'static str,
    /// The produced tables.
    pub tables: Vec<Table>,
}

impl ExperimentReport {
    /// Prints every table to stdout.
    pub fn print(&self) {
        for t in &self.tables {
            print!("{t}");
        }
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tables {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// Renders reports exactly as the `reproduce` binary prints them — one
/// `# Experiment <id>` section per report. Byte-identity comparisons
/// across thread counts diff this string.
pub fn render_reports(reports: &[ExperimentReport]) -> String {
    use fmt::Write;
    let mut out = String::new();
    for report in reports {
        write!(out, "\n---\n\n# Experiment {}\n{report}", report.id).expect("string write");
    }
    out
}

/// Formats a ratio as a percentage string ("180%").
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Formats a float with `d` decimals.
pub fn fx(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("Demo", "anchor", &["a", "bb"]);
        t.row(&["1".to_string(), "2".to_string()]);
        let s = t.to_string();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| a | bb |"));
        assert!(s.contains("| 1 | 2  |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("Demo", "", &["a"]);
        t.row(&["1".to_string(), "2".to_string()]);
    }

    #[test]
    fn format_helpers() {
        assert_eq!(pct(1.795), "180%");
        assert_eq!(fx(1.2345, 2), "1.23");
    }
}
