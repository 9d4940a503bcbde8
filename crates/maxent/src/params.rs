//! Per-class Gaussian parameters of the background distribution.
//!
//! Each equivalence class shares one Gaussian `N(m, Σ)` with natural
//! parameters `(h, P)` where `P = Σ⁻¹` and `h = P·m` (paper Eq. 8). The
//! solver keeps **both** representations in sync — the natural side is
//! updated by constraint terms, the dual side via Woodbury — so no matrix
//! inversion is ever needed during optimization.

use sider_linalg::Matrix;

/// Parameters of one equivalence class.
#[derive(Debug, Clone)]
pub struct ClassParams {
    /// Number of rows sharing these parameters.
    pub count: usize,
    /// Natural linear parameter `h = Σ⁻¹m` (θ₁ in the paper).
    pub h: Vec<f64>,
    /// Dual mean `m = Σ·h`.
    pub m: Vec<f64>,
    /// Dual covariance `Σ`.
    pub sigma: Matrix,
    /// Natural precision `P = Σ⁻¹` (θ₂ in the paper).
    pub prec: Matrix,
}

impl ClassParams {
    /// Prior parameters: `m = 0`, `Σ = P = I` (the spherical unit Gaussian
    /// of Eq. 1).
    pub fn prior(d: usize, count: usize) -> Self {
        ClassParams {
            count,
            h: vec![0.0; d],
            m: vec![0.0; d],
            sigma: Matrix::identity(d),
            prec: Matrix::identity(d),
        }
    }

    /// Parameters of a class split off from this one: identical Gaussian,
    /// different row count. Until a constraint multiplier moves, a
    /// sub-class is statistically indistinguishable from its parent — this
    /// is what makes warm-starting after a partition refinement exact.
    pub fn split_off(&self, count: usize) -> Self {
        ClassParams {
            count,
            ..self.clone()
        }
    }

    /// Recompute the dual mean from the natural parameters: `m = Σ·h`.
    /// The solver gets `m` from its fused Sherman–Morrison pass; this is
    /// the reference its tests compare that pass with.
    #[cfg(test)]
    pub(crate) fn refresh_mean(&mut self) {
        self.m = self.sigma.matvec(&self.h);
    }

    /// Internal-consistency check: `Σ·P ≈ I` and `m ≈ Σ·h`, within `tol`.
    #[cfg(test)]
    fn is_consistent(&self, tol: f64) -> bool {
        let d = self.sigma.rows();
        let id = Matrix::identity(d);
        if self.sigma.matmul(&self.prec).max_abs_diff(&id) > tol {
            return false;
        }
        let m2 = self.sigma.matvec(&self.h);
        self.m.iter().zip(&m2).all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_is_standard_normal() {
        let p = ClassParams::prior(3, 7);
        assert_eq!(p.count, 7);
        assert_eq!(p.m, vec![0.0; 3]);
        assert_eq!(p.sigma, Matrix::identity(3));
        assert_eq!(p.prec, Matrix::identity(3));
        assert!(p.is_consistent(1e-12));
    }

    #[test]
    fn refresh_mean_applies_sigma() {
        let mut p = ClassParams::prior(2, 1);
        p.h = vec![1.0, 2.0];
        p.sigma = Matrix::from_diag(&[0.5, 0.25]);
        p.refresh_mean();
        assert_eq!(p.m, vec![0.5, 0.5]);
    }

    #[test]
    fn consistency_detects_desync() {
        let mut p = ClassParams::prior(2, 1);
        p.prec = Matrix::from_diag(&[2.0, 2.0]); // sigma still identity
        assert!(!p.is_consistent(1e-9));
    }
}
