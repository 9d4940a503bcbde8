//! Textual reporting: fixed-width tables and paper-style summaries.

use crate::sim_user::IterationRecord;
use sider_maxent::ConvergenceReport;

/// A simple fixed-width text table (for experiment binaries' stdout).
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "table row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (j, cell) in row.iter().enumerate() {
                widths[j] = widths[j].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(j, c)| format!("{:>w$}", c, w = widths[j]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format the per-iteration ICA/PCA scores like the paper's Table I
/// ("ICA scores (sorted with absolute value) for each of the iterative
/// steps").
pub fn format_score_table(records: &[IterationRecord], method: &str) -> String {
    let mut t = TextTable::new(&["Iteration", &format!("{method} scores")]);
    for r in records {
        let scores = r
            .scores
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(vec![format!("{}", r.iteration), scores]);
    }
    t.render()
}

/// One-line summary of a convergence report.
pub fn format_convergence(report: &ConvergenceReport) -> String {
    let status = if report.converged {
        "converged"
    } else if report.hit_time_cutoff {
        "time cutoff"
    } else {
        "sweep budget exhausted"
    };
    let detail = report
        .last
        .map(|i| {
            format!(
                ", max|Δλ|={:.2e}, max moment change={:.2e}, max residual={:.2e}",
                i.max_lambda_change, i.max_moment_change, i.max_residual
            )
        })
        .unwrap_or_default();
    format!(
        "{status} after {} sweeps in {:.3}s{detail}",
        report.sweeps,
        report.elapsed.as_secs_f64()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(&["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "x".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[0].contains("long-header"));
    }

    #[test]
    fn table_len_and_empty() {
        let mut t = TextTable::new(&["x"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_row_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn score_table_formats_iterations() {
        let records = vec![crate::sim_user::IterationRecord {
            iteration: 1,
            scores: vec![0.041, 0.037, -0.015],
            axis_labels: ["a".into(), "b".into()],
            marked_clusters: vec![],
            stopped: false,
        }];
        let out = format_score_table(&records, "ICA");
        assert!(out.contains("0.041"));
        assert!(out.contains("-0.015"));
        assert!(out.contains("ICA scores"));
    }

    #[test]
    fn convergence_formatting() {
        use sider_maxent::solver::SweepInfo;
        let r = ConvergenceReport {
            sweeps: 12,
            converged: true,
            hit_time_cutoff: false,
            elapsed: std::time::Duration::from_millis(250),
            last: Some(SweepInfo {
                sweep: 12,
                max_lambda_change: 1e-3,
                max_moment_change: 2e-4,
                max_residual: 5e-7,
            }),
        };
        let s = format_convergence(&r);
        assert!(s.contains("converged after 12 sweeps"));
        assert!(s.contains("1.00e-3"));
    }
}
