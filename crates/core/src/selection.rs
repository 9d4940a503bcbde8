//! Selection statistics — the SIDER side panels.
//!
//! The SIDER UI (paper Fig. 7) shows, for the current selection, summary
//! statistics next to the full data's, and a pairplot of "the attributes
//! maximally different with respect to the current selection as compared
//! to the full dataset". This module ranks the attributes for that
//! pairplot.

use sider_data::Dataset;
use sider_stats::descriptive::{mean, sample_sd};

/// How one attribute differs between a selection and the rest of the data.
#[derive(Debug, Clone)]
pub struct AttributeDiff {
    /// Column index.
    pub column: usize,
    /// Column name.
    pub name: String,
    /// Mean / sd within the selection.
    pub selection: (f64, f64),
    /// Mean / sd of the remaining rows.
    pub rest: (f64, f64),
    /// Standardized mean difference
    /// `|μ_sel − μ_rest| / √((σ²_sel + σ²_rest)/2 + ε)` (Cohen's d with a
    /// small floor for constant attributes).
    pub score: f64,
}

/// Attributes ranked by how much the selection differs from the rest of
/// the data (descending standardized mean difference). This drives the
/// SIDER pairplot panel.
pub fn most_differing_attributes(dataset: &Dataset, selection: &[usize]) -> Vec<AttributeDiff> {
    let in_sel: Vec<bool> = {
        let mut v = vec![false; dataset.n()];
        for &i in selection {
            if i < dataset.n() {
                v[i] = true;
            }
        }
        v
    };
    let mut out: Vec<AttributeDiff> = (0..dataset.d())
        .map(|j| {
            let mut sel_vals = Vec::new();
            let mut rest_vals = Vec::new();
            for i in 0..dataset.n() {
                if in_sel[i] {
                    sel_vals.push(dataset.matrix[(i, j)]);
                } else {
                    rest_vals.push(dataset.matrix[(i, j)]);
                }
            }
            let (ms, ss) = (mean(&sel_vals), sample_sd(&sel_vals));
            let (mr, sr) = (mean(&rest_vals), sample_sd(&rest_vals));
            let pooled = ((ss * ss + sr * sr) / 2.0).sqrt();
            let score = (ms - mr).abs() / (pooled + 1e-12);
            AttributeDiff {
                column: j,
                name: dataset.column_names[j].clone(),
                selection: (ms, ss),
                rest: (mr, sr),
                score,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sider_linalg::Matrix;

    fn dataset() -> Dataset {
        // Column 0: selection is shifted; column 1: identical everywhere;
        // column 2: mildly different.
        let mut rows = Vec::new();
        for i in 0..40 {
            let sel = i < 10;
            rows.push(vec![
                if sel {
                    10.0 + (i % 3) as f64 * 0.1
                } else {
                    0.0 + (i % 3) as f64 * 0.1
                },
                5.0 + (i % 2) as f64,
                if sel { 1.0 } else { 0.5 } + (i % 5) as f64 * 0.2,
            ]);
        }
        Dataset::unlabeled("t", Matrix::from_rows(&rows))
    }

    #[test]
    fn most_differing_ranks_shifted_column_first() {
        let ds = dataset();
        let sel: Vec<usize> = (0..10).collect();
        let diffs = most_differing_attributes(&ds, &sel);
        assert_eq!(diffs[0].column, 0, "{diffs:?}");
        assert!(diffs[0].score > 10.0);
        // The constant-difference column ranks last.
        assert_eq!(diffs[2].column, 1);
        assert!(diffs[2].score < 0.5);
    }

    #[test]
    fn empty_selection_is_harmless() {
        let ds = dataset();
        let diffs = most_differing_attributes(&ds, &[]);
        assert_eq!(diffs.len(), 3);
        assert!(diffs.iter().all(|d| d.score.is_finite()));
    }

    #[test]
    fn out_of_range_indices_ignored() {
        let ds = dataset();
        let guarded = most_differing_attributes(&ds, &[0, 1, 999]);
        let plain = most_differing_attributes(&ds, &[0, 1]);
        assert_eq!(format!("{guarded:?}"), format!("{plain:?}"));
    }
}
