//! Error type shared by all decompositions in this crate.

use std::fmt;

/// Errors produced by the linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// An operation requiring a square matrix received a rectangular one.
    NotSquare { rows: usize, cols: usize },
    /// Dimensions of the operands do not line up.
    DimensionMismatch {
        expected: (usize, usize),
        got: (usize, usize),
    },
    /// LU solve hit an (effectively) zero pivot.
    Singular { pivot: usize },
    /// An iterative method (the divide-and-conquer secular solver) failed
    /// to converge.
    ConvergenceFailure { sweeps: usize },
    /// Cyclic Jacobi spent its whole sweep budget without driving the
    /// off-diagonal mass below tolerance. This is the bottom of the
    /// eigensolver fallback ladder, so it carries enough context to
    /// diagnose the input: matrix size, the off-diagonal Frobenius mass
    /// actually achieved, and the tolerance it had to reach.
    SweepBudgetExhausted {
        sweeps: usize,
        size: usize,
        off_mass: f64,
        tol: f64,
    },
    /// Input contained NaN or infinity.
    NotFinite,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
            LinalgError::DimensionMismatch { expected, got } => write!(
                f,
                "dimension mismatch: expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular (pivot {pivot})")
            }
            LinalgError::ConvergenceFailure { sweeps } => {
                write!(f, "iteration failed to converge after {sweeps} sweeps")
            }
            LinalgError::SweepBudgetExhausted {
                sweeps,
                size,
                off_mass,
                tol,
            } => write!(
                f,
                "Jacobi failed to converge on a {size}x{size} matrix after {sweeps} sweeps: \
                 off-diagonal mass {off_mass:.3e} still above tolerance {tol:.3e}"
            ),
            LinalgError::NotFinite => write!(f, "input contains NaN or infinite entries"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_the_problem() {
        let e = LinalgError::NotSquare { rows: 2, cols: 3 };
        assert!(e.to_string().contains("2x3"));
        let e = LinalgError::DimensionMismatch {
            expected: (4, 4),
            got: (4, 5),
        };
        assert!(e.to_string().contains("expected 4x4"));
        let e = LinalgError::Singular { pivot: 0 };
        assert!(e.to_string().contains("singular"));
        let e = LinalgError::ConvergenceFailure { sweeps: 30 };
        assert!(e.to_string().contains("30"));
        let e = LinalgError::SweepBudgetExhausted {
            sweeps: 64,
            size: 48,
            off_mass: 3.5e-9,
            tol: 1.2e-12,
        };
        let msg = e.to_string();
        assert!(msg.contains("48x48"), "{msg}");
        assert!(msg.contains("64 sweeps"), "{msg}");
        assert!(msg.contains("3.500e-9"), "{msg}");
        assert!(msg.contains("1.200e-12"), "{msg}");
        assert!(LinalgError::NotFinite.to_string().contains("NaN"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            LinalgError::Singular { pivot: 3 },
            LinalgError::Singular { pivot: 3 }
        );
        assert_ne!(
            LinalgError::Singular { pivot: 3 },
            LinalgError::Singular { pivot: 4 }
        );
    }
}
