//! Labeled dataset container.

use sider_linalg::Matrix;
use sider_stats::Rng;

/// One labeling of the rows (datasets can carry several, e.g. X̂₅ has the
/// A–D clusters of dims 1–3 and the E–G clusters of dims 4–5).
#[derive(Debug, Clone, PartialEq)]
pub struct LabelSet {
    /// What this labeling describes ("genre", "cluster-123", …).
    pub title: String,
    /// Display name per class id.
    pub class_names: Vec<String>,
    /// Class id per row.
    pub assignments: Vec<usize>,
}

impl LabelSet {
    /// Indices of rows in class `c`.
    pub fn class_indices(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == c).then_some(i))
            .collect()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Per-class sizes.
    pub fn class_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.n_classes()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

/// A data matrix with column names and zero or more labelings.
///
/// Labels are ground truth used *only* for evaluation (Jaccard indices in
/// the use cases) — never shown to the algorithm, matching the paper:
/// "we did not provide the class labels in advance, they were only used
/// retrospectively".
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name for reports.
    pub name: String,
    /// The `n × d` data matrix.
    pub matrix: Matrix,
    /// Column names (length `d`).
    pub column_names: Vec<String>,
    /// Row labelings (possibly empty).
    pub labels: Vec<LabelSet>,
}

impl Dataset {
    /// Build an unlabeled dataset with default column names `X1…Xd`.
    pub fn unlabeled(name: impl Into<String>, matrix: Matrix) -> Self {
        let d = matrix.cols();
        Dataset {
            name: name.into(),
            matrix,
            column_names: (1..=d).map(|j| format!("X{j}")).collect(),
            labels: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of columns.
    pub fn d(&self) -> usize {
        self.matrix.cols()
    }

    /// The first labeling, if any.
    pub fn primary_labels(&self) -> Option<&LabelSet> {
        self.labels.first()
    }

    /// Replicate every row `copies` times with iid Gaussian noise of the
    /// given standard deviation — the paper's proposed fix for the slow
    /// harmonic convergence of overlapping zero-variance constraints
    /// (§II-A-2): "replicate each data point 10 times with random noise
    /// added to each replicate. When a data point would be selected to a
    /// constraint then all of its replicates would be included as well.
    /// This would set a lower limit on the variance of the background
    /// model and hence, be expected to speed up the convergence."
    ///
    /// Returns the expanded dataset together with, per original row, the
    /// indices of its replicates (to expand selections as the paper
    /// prescribes). Labels are replicated alongside.
    pub fn replicate_with_noise(
        &self,
        copies: usize,
        sigma: f64,
        rng: &mut Rng,
    ) -> (Dataset, Vec<Vec<usize>>) {
        assert!(copies >= 1, "replicate_with_noise: copies must be ≥ 1");
        let (n, d) = self.matrix.shape();
        let mut m = Matrix::zeros(n * copies, d);
        let mut groups = Vec::with_capacity(n);
        let mut row_out = 0;
        for i in 0..n {
            let mut group = Vec::with_capacity(copies);
            for _ in 0..copies {
                for j in 0..d {
                    m[(row_out, j)] = self.matrix[(i, j)] + rng.normal(0.0, sigma);
                }
                group.push(row_out);
                row_out += 1;
            }
            groups.push(group);
        }
        let labels = self
            .labels
            .iter()
            .map(|ls| LabelSet {
                title: ls.title.clone(),
                class_names: ls.class_names.clone(),
                assignments: ls
                    .assignments
                    .iter()
                    .flat_map(|&a| std::iter::repeat_n(a, copies))
                    .collect(),
            })
            .collect();
        (
            Dataset {
                name: format!("{}-x{copies}", self.name),
                matrix: m,
                column_names: self.column_names.clone(),
                labels,
            },
            groups,
        )
    }

    /// Restrict to the given row indices.
    pub fn select_rows(&self, idx: &[usize]) -> Dataset {
        Dataset {
            name: self.name.clone(),
            matrix: self.matrix.select_rows(idx),
            column_names: self.column_names.clone(),
            labels: self
                .labels
                .iter()
                .map(|ls| LabelSet {
                    title: ls.title.clone(),
                    class_names: ls.class_names.clone(),
                    assignments: idx.iter().map(|&i| ls.assignments[i]).collect(),
                })
                .collect(),
        }
    }

    /// Sanity check: finite matrix, consistent label/column lengths.
    pub fn validate(&self) -> Result<(), String> {
        if !self.matrix.is_finite() {
            return Err("matrix contains non-finite values".into());
        }
        if self.column_names.len() != self.d() {
            return Err(format!(
                "{} column names for {} columns",
                self.column_names.len(),
                self.d()
            ));
        }
        for ls in &self.labels {
            if ls.assignments.len() != self.n() {
                return Err(format!(
                    "label set '{}' has {} assignments for {} rows",
                    ls.title,
                    ls.assignments.len(),
                    self.n()
                ));
            }
            if let Some(&max) = ls.assignments.iter().max() {
                if max >= ls.class_names.len() {
                    return Err(format!(
                        "label set '{}' uses class id {} beyond {} names",
                        ls.title,
                        max,
                        ls.class_names.len()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let m = Matrix::from_rows(&[
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ]);
        let mut ds = Dataset::unlabeled("test", m);
        ds.labels.push(LabelSet {
            title: "halves".into(),
            class_names: vec!["lo".into(), "hi".into()],
            assignments: vec![0, 0, 1, 1],
        });
        ds
    }

    #[test]
    fn construction_and_shape() {
        let ds = sample();
        assert_eq!(ds.n(), 4);
        assert_eq!(ds.d(), 2);
        assert_eq!(ds.column_names, vec!["X1", "X2"]);
        assert!(ds.validate().is_ok());
    }

    #[test]
    fn label_set_queries() {
        let ds = sample();
        let ls = ds.primary_labels().unwrap();
        assert_eq!(ls.class_indices(1), vec![2, 3]);
        assert_eq!(ls.n_classes(), 2);
        assert_eq!(ls.class_sizes(), vec![2, 2]);
    }

    #[test]
    fn select_rows_remaps_labels() {
        let ds = sample().select_rows(&[1, 3]);
        assert_eq!(ds.n(), 2);
        assert_eq!(ds.labels[0].assignments, vec![0, 1]);
    }

    #[test]
    fn replicate_with_noise_expands_rows_and_labels() {
        let ds = sample();
        let mut rng = Rng::seed_from_u64(7);
        let (big, groups) = ds.replicate_with_noise(3, 0.01, &mut rng);
        assert_eq!(big.n(), 12);
        assert!(big.validate().is_ok());
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0], vec![0, 1, 2]);
        // Replicates jitter around their source.
        for (i, group) in groups.iter().enumerate() {
            for &r in group {
                assert!((big.matrix[(r, 0)] - ds.matrix[(i, 0)]).abs() < 0.1);
                assert_eq!(big.labels[0].assignments[r], ds.labels[0].assignments[i]);
            }
        }
    }

    #[test]
    fn validate_catches_inconsistencies() {
        let mut ds = sample();
        ds.labels[0].assignments.pop();
        assert!(ds.validate().is_err());

        let mut ds2 = sample();
        ds2.labels[0].assignments[0] = 9;
        assert!(ds2.validate().is_err());

        let mut ds3 = sample();
        ds3.matrix[(0, 0)] = f64::NAN;
        assert!(ds3.validate().is_err());
    }
}
