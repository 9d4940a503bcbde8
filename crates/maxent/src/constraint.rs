//! Constraints on the background distribution (paper §II-A).
//!
//! A primitive constraint is `C = (c, I, w)` with `c ∈ {lin, quad}`, row
//! set `I` and direction `w ∈ R^d`. Its target value `v̂ = f_c(X̂, I, w)` is
//! computed from the observed data once, at construction time; the solver
//! then drives the model expectation `E_p[f_c(X, I, w)]` to `v̂`.
//!
//! User-level knowledge is expressed as bundles of primitives:
//!
//! * [`margin_constraints`] — mean + variance of every column (2d).
//! * [`cluster_constraints`] — mean + variance along every eigenvector of a
//!   marked point cluster (2d per cluster).
//! * [`one_cluster_constraints`] — the cluster constraint for `I = [n]`;
//!   equivalent to telling the system the data's overall covariance.
//! * [`twod_constraints`] — mean + variance along the two axes of the
//!   projection currently on screen (4).
//!
//! Every primitive of a bundle holds the bundle's one row set behind an
//! [`Arc`], so a bundle's rows are stored once however many primitives
//! (and clones of them) refer to them.

use crate::error::MaxEntError;
use crate::rowset::RowSet;
use crate::Result;
use sider_linalg::{vector, Matrix, SymEigen};
use std::sync::Arc;

/// Whether a primitive constraint is on the first or second moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintKind {
    /// `f_lin(X, I, w) = Σ_{i∈I} wᵀx_i` (Eq. 2).
    Linear,
    /// `f_quad(X, I, w) = Σ_{i∈I} (wᵀ(x_i − m̂_I))²` (Eq. 3).
    Quadratic,
}

/// A primitive constraint with its data-derived target.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Moment kind.
    pub kind: ConstraintKind,
    /// Rows the constraint sums over, shared by every primitive of the
    /// bundle that made it.
    pub rows: Arc<RowSet>,
    /// Direction `w` (unit norm for bundle-generated constraints, but any
    /// non-zero vector is accepted).
    pub w: Vec<f64>,
    /// Target `v̂ = f_c(X̂, I, w)`.
    pub target: f64,
    /// `δ = m̂_Iᵀ w`, where `m̂_I` is the observed mean of the rows (a
    /// constant of the constraint — *not* a random quantity; see the
    /// discussion below Eq. 4). The quadratic update rules read it.
    pub delta: f64,
    /// Human-readable tag for diagnostics (`margin[3]-quad`, …).
    pub label: String,
}

impl Constraint {
    /// Build a linear constraint `E[Σ_{i∈I} wᵀx_i] = Σ_{i∈I} wᵀx̂_i`.
    pub fn linear(
        data: &Matrix,
        rows: RowSet,
        w: Vec<f64>,
        label: impl Into<String>,
    ) -> Result<Self> {
        Self::build(
            ConstraintKind::Linear,
            data,
            Arc::new(rows),
            w,
            None,
            label.into(),
        )
    }

    /// Build a quadratic constraint
    /// `E[Σ_{i∈I} (wᵀ(x_i − m̂_I))²] = Σ_{i∈I} (wᵀ(x̂_i − m̂_I))²`.
    pub fn quadratic(
        data: &Matrix,
        rows: RowSet,
        w: Vec<f64>,
        label: impl Into<String>,
    ) -> Result<Self> {
        Self::build(
            ConstraintKind::Quadratic,
            data,
            Arc::new(rows),
            w,
            None,
            label.into(),
        )
    }

    /// Build a primitive, checking its inputs. A bundle passes the
    /// selection's mean `mhat` (computed once for all its primitives);
    /// `None` computes it here.
    fn build(
        kind: ConstraintKind,
        data: &Matrix,
        rows: Arc<RowSet>,
        w: Vec<f64>,
        mhat: Option<&[f64]>,
        label: String,
    ) -> Result<Self> {
        let (n, d) = data.shape();
        if n == 0 || d == 0 {
            return Err(MaxEntError::EmptyData);
        }
        rows.validate(n)?;
        if w.len() != d {
            return Err(MaxEntError::BadDirection {
                expected: d,
                got: w.len(),
            });
        }
        if !vector::is_finite(&w) || vector::norm2(&w) == 0.0 {
            return Err(MaxEntError::ZeroDirection);
        }
        let delta = match mhat {
            Some(m) => vector::dot(m, &w),
            None => vector::dot(&observed_mean(data, &rows), &w),
        };
        let target: f64 = match kind {
            ConstraintKind::Linear => rows.iter().map(|i| vector::dot(data.row(i), &w)).sum(),
            ConstraintKind::Quadratic => rows
                .iter()
                .map(|i| {
                    let p = vector::dot(data.row(i), &w) - delta;
                    p * p
                })
                .sum(),
        };
        if !target.is_finite() {
            return Err(MaxEntError::NotFinite);
        }
        Ok(Constraint {
            kind,
            rows,
            w,
            target,
            delta,
            label,
        })
    }

    /// Evaluate the raw constraint function on an arbitrary dataset — used
    /// by tests to verify that sampled data reproduce the targets.
    pub fn evaluate(&self, data: &Matrix) -> f64 {
        match self.kind {
            ConstraintKind::Linear => self
                .rows
                .iter()
                .map(|i| vector::dot(data.row(i), &self.w))
                .sum(),
            ConstraintKind::Quadratic => self
                .rows
                .iter()
                .map(|i| {
                    let p = vector::dot(data.row(i), &self.w) - self.delta;
                    p * p
                })
                .sum(),
        }
    }
}

/// Observed mean `m̂_I` of the selected rows.
pub fn observed_mean(data: &Matrix, rows: &RowSet) -> Vec<f64> {
    let d = data.cols();
    let mut m = vec![0.0; d];
    for i in rows.iter() {
        vector::axpy(1.0, data.row(i), &mut m);
    }
    if !rows.is_empty() {
        vector::scale(&mut m, 1.0 / rows.len() as f64);
    }
    m
}

/// Margin constraints: one linear + one quadratic constraint per column
/// over the full data (2d constraints). Encoding the marginal mean and
/// variance of each attribute.
pub fn margin_constraints(data: &Matrix) -> Result<Vec<Constraint>> {
    let (n, d) = data.shape();
    let rows = Arc::new(RowSet::all(n));
    let mhat = observed_mean(data, &rows);
    let mut out = Vec::with_capacity(2 * d);
    for j in 0..d {
        let mut w = vec![0.0; d];
        w[j] = 1.0;
        out.extend(pair(data, &rows, w, &mhat, &format!("margin[{j}]"))?);
    }
    Ok(out)
}

/// The linear and the quadratic primitive of one bundle direction `w`
/// (labels `{label}-lin`, `{label}-quad`), sharing the bundle's row set
/// and mean.
fn pair(
    data: &Matrix,
    rows: &Arc<RowSet>,
    w: Vec<f64>,
    mhat: &[f64],
    label: &str,
) -> Result<[Constraint; 2]> {
    Ok([
        Constraint::build(
            ConstraintKind::Linear,
            data,
            Arc::clone(rows),
            w.clone(),
            Some(mhat),
            format!("{label}-lin"),
        )?,
        Constraint::build(
            ConstraintKind::Quadratic,
            data,
            Arc::clone(rows),
            w,
            Some(mhat),
            format!("{label}-quad"),
        )?,
    ])
}

/// Cluster constraints for a marked point set: linear + quadratic
/// constraints along every eigenvector of the cluster's scatter matrix
/// (2d constraints, paper §II-A "Cluster constraint").
///
/// The eigenvectors come from the symmetric eigendecomposition of the
/// centered scatter `Σ_{i∈I} (x̂_i−m̂)(x̂_i−m̂)ᵀ`, which equals the SVD right
/// vectors of the centered cluster and — unlike a thin SVD — always yields
/// a complete orthonormal basis even when `|I| < d` (the null directions
/// then carry zero-variance quadratic constraints; see the convergence
/// discussion in §II-A-2).
pub fn cluster_constraints(
    data: &Matrix,
    rows: RowSet,
    tag: impl Into<String>,
) -> Result<Vec<Constraint>> {
    let (n, d) = data.shape();
    if n == 0 || d == 0 {
        return Err(MaxEntError::EmptyData);
    }
    rows.validate(n)?;
    let tag = tag.into();
    let rows = Arc::new(rows);
    let mhat = observed_mean(data, &rows);
    let mut scatter = Matrix::zeros(d, d);
    for i in rows.iter() {
        let centered = vector::sub(data.row(i), &mhat);
        scatter.add_outer(1.0, &centered, &centered);
    }
    let eig = SymEigen::decompose(&scatter)?;
    let mut out = Vec::with_capacity(2 * d);
    for k in 0..d {
        out.extend(pair(
            data,
            &rows,
            eig.vectors.col(k),
            &mhat,
            &format!("{tag}-ev{k}"),
        )?);
    }
    Ok(out)
}

/// 1-cluster constraint: the cluster constraint applied to the full
/// dataset. Models the data by its principal components, accounting for
/// correlations (unlike margins).
pub fn one_cluster_constraints(data: &Matrix) -> Result<Vec<Constraint>> {
    cluster_constraints(data, RowSet::all(data.rows()), "1cluster")
}

/// 2-D constraints: linear + quadratic constraints for the two directions
/// spanning the current projection (4 constraints) over the selected rows.
pub fn twod_constraints(
    data: &Matrix,
    rows: RowSet,
    axis1: &[f64],
    axis2: &[f64],
    tag: impl Into<String>,
) -> Result<Vec<Constraint>> {
    let (n, d) = data.shape();
    if n == 0 || d == 0 {
        return Err(MaxEntError::EmptyData);
    }
    rows.validate(n)?;
    let tag = tag.into();
    let rows = Arc::new(rows);
    let mhat = observed_mean(data, &rows);
    let mut out = Vec::with_capacity(4);
    for (name, axis) in [("x", axis1), ("y", axis2)] {
        out.extend(pair(
            data,
            &rows,
            axis.to_vec(),
            &mhat,
            &format!("{tag}-2d{name}"),
        )?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, 0.0],
            vec![2.0, 2.0],
        ])
    }

    #[test]
    fn linear_target_is_projection_sum() {
        let c = Constraint::linear(&data(), RowSet::from_indices(&[0, 3]), vec![1.0, 0.0], "t")
            .unwrap();
        assert_eq!(c.target, 3.0); // 1 + 2
        assert_eq!(c.delta, 1.5); // m̂ = (1.5, 1.0)
    }

    #[test]
    fn quadratic_target_centers_on_observed_mean() {
        let c = Constraint::quadratic(&data(), RowSet::from_indices(&[0, 3]), vec![1.0, 0.0], "t")
            .unwrap();
        // values 1, 2; mean 1.5; squared deviations 0.25 + 0.25
        assert_eq!(c.target, 0.5);
        assert_eq!(c.delta, 1.5);
    }

    #[test]
    fn evaluate_on_observed_data_equals_target() {
        let d = data();
        let rows = RowSet::from_indices(&[1, 2, 3]);
        for c in [
            Constraint::linear(&d, rows.clone(), vec![0.3, -0.7], "l").unwrap(),
            Constraint::quadratic(&d, rows, vec![0.3, -0.7], "q").unwrap(),
        ] {
            assert!((c.evaluate(&d) - c.target).abs() < 1e-12);
        }
    }

    #[test]
    fn margin_constraints_have_2d_entries() {
        let cs = margin_constraints(&data()).unwrap();
        assert_eq!(cs.len(), 4);
        assert_eq!(cs[0].kind, ConstraintKind::Linear);
        assert_eq!(cs[1].kind, ConstraintKind::Quadratic);
        // Column-0 linear target = column sum.
        assert_eq!(cs[0].target, 3.0);
        // All margins cover the full data.
        assert!(cs.iter().all(|c| c.rows.len() == 4));
    }

    #[test]
    fn cluster_constraints_span_full_basis() {
        let cs = cluster_constraints(&data(), RowSet::from_indices(&[0, 1]), "c").unwrap();
        assert_eq!(cs.len(), 4);
        // Directions must be orthonormal and span R².
        let w0 = &cs[0].w;
        let w1 = &cs[2].w;
        assert!((vector::norm2(w0) - 1.0).abs() < 1e-12);
        assert!((vector::norm2(w1) - 1.0).abs() < 1e-12);
        assert!(vector::dot(w0, w1).abs() < 1e-12);
    }

    #[test]
    fn small_cluster_produces_zero_variance_direction() {
        // Two points: variance along the orthogonal direction is zero —
        // the adversarial situation of paper Fig. 5a.
        let cs = cluster_constraints(&data(), RowSet::from_indices(&[0, 1]), "c").unwrap();
        let quad_targets: Vec<f64> = cs
            .iter()
            .filter(|c| c.kind == ConstraintKind::Quadratic)
            .map(|c| c.target)
            .collect();
        assert!(quad_targets.iter().any(|&t| t.abs() < 1e-12));
        assert!(quad_targets.iter().any(|&t| t > 0.5));
    }

    #[test]
    fn one_cluster_covers_all_rows() {
        let cs = one_cluster_constraints(&data()).unwrap();
        assert_eq!(cs.len(), 4);
        assert!(cs.iter().all(|c| c.rows.len() == 4));
    }

    #[test]
    fn twod_constraints_use_given_axes() {
        let cs = twod_constraints(&data(), RowSet::all(4), &[1.0, 0.0], &[0.0, 1.0], "v").unwrap();
        assert_eq!(cs.len(), 4);
        assert_eq!(cs[0].w, vec![1.0, 0.0]);
        assert_eq!(cs[2].w, vec![0.0, 1.0]);
    }

    #[test]
    fn rejects_bad_inputs() {
        let d = data();
        assert!(matches!(
            Constraint::linear(&d, RowSet::new(vec![]), vec![1.0, 0.0], "t"),
            Err(MaxEntError::EmptyRowSet)
        ));
        assert!(matches!(
            Constraint::linear(&d, RowSet::all(4), vec![1.0], "t"),
            Err(MaxEntError::BadDirection { .. })
        ));
        assert!(matches!(
            Constraint::linear(&d, RowSet::all(4), vec![0.0, 0.0], "t"),
            Err(MaxEntError::ZeroDirection)
        ));
        assert!(matches!(
            Constraint::linear(&d, RowSet::from_indices(&[7]), vec![1.0, 0.0], "t"),
            Err(MaxEntError::RowOutOfBounds { .. })
        ));
    }

    #[test]
    fn observed_mean_of_subset() {
        let m = observed_mean(&data(), &RowSet::from_indices(&[0, 1]));
        assert_eq!(m, vec![0.5, 0.5]);
    }

    #[test]
    fn a_bundles_primitives_share_one_row_set() {
        let d = data();
        let bundles = [
            ("margins", margin_constraints(&d).unwrap()),
            ("one-cluster", one_cluster_constraints(&d).unwrap()),
            (
                "cluster",
                cluster_constraints(&d, RowSet::from_indices(&[0, 1, 3]), "c").unwrap(),
            ),
            (
                "twod",
                twod_constraints(&d, RowSet::all(4), &[1.0, 0.0], &[0.0, 1.0], "v").unwrap(),
            ),
        ];
        for (name, cs) in &bundles {
            assert!(
                cs.iter().all(|c| Arc::ptr_eq(&c.rows, &cs[0].rows)),
                "{name}"
            );
        }
        // Two bundles over equal rows still hold a row set each.
        assert!(!Arc::ptr_eq(&bundles[0].1[0].rows, &bundles[1].1[0].rows));
    }

    #[test]
    fn labels_propagate() {
        let cs = margin_constraints(&data()).unwrap();
        assert_eq!(cs[0].label, "margin[0]-lin");
        assert_eq!(cs[3].label, "margin[1]-quad");
    }
}
