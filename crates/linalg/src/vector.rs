//! Free functions on `&[f64]` slices.
//!
//! The MaxEnt solver manipulates constraint directions `w ∈ R^d` as plain
//! slices; these helpers keep that code allocation-free where possible.

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Squared Euclidean norm `‖x‖₂²`.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Euclidean distance between `x` and `y`.
#[inline]
pub fn dist(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist: length mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// `y += alpha * x` (BLAS `axpy`).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scale a vector in place: `x *= alpha`.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Normalize `x` to unit Euclidean norm in place.
///
/// Returns the original norm. If the norm is zero (or not finite) the
/// vector is left untouched and `0.0` is returned, so callers can detect
/// the degenerate case.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 && n.is_finite() {
        scale(x, 1.0 / n);
        n
    } else {
        0.0
    }
}

/// Element-wise difference `x - y` into a new vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Arithmetic mean of the entries; `0.0` for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Largest absolute entry; `0.0` for an empty slice.
pub fn max_abs(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// True if every entry is finite.
pub fn is_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm2_sq(&x), 25.0);
    }

    #[test]
    fn dist_is_symmetric_and_zero_on_self() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 6.0, 3.0];
        assert_eq!(dist(&x, &y), 5.0);
        assert_eq!(dist(&y, &x), 5.0);
        assert_eq!(dist(&x, &x), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(&mut x, -3.0);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn normalize_returns_previous_norm() {
        let mut x = [0.0, 3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = [0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, [0.0, 0.0]);
    }

    #[test]
    fn sub_is_elementwise() {
        assert_eq!(sub(&[1.5, 1.5], &[0.5, -0.5]), vec![1.0, 2.0]);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn max_abs_ignores_sign() {
        assert_eq!(max_abs(&[1.0, -7.0, 3.0]), 7.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    #[test]
    fn finiteness_check() {
        assert!(is_finite(&[1.0, 2.0]));
        assert!(!is_finite(&[1.0, f64::NAN]));
        assert!(!is_finite(&[f64::INFINITY]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
