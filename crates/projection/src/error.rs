//! Error type for projection pursuit.

use sider_linalg::LinalgError;
use std::fmt;

/// Errors from PCA / ICA computations.
#[derive(Debug, Clone, PartialEq)]
pub enum ProjectionError {
    /// Input had no rows or no columns.
    EmptyData,
    /// The data has (numerical) rank below the requested component count.
    RankDeficient { rank: usize, requested: usize },
    /// Underlying linear algebra failed.
    Linalg(LinalgError),
}

impl fmt::Display for ProjectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjectionError::EmptyData => write!(f, "input data is empty"),
            ProjectionError::RankDeficient { rank, requested } => {
                write!(f, "data rank {rank} below requested {requested} components")
            }
            ProjectionError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for ProjectionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProjectionError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for ProjectionError {
    fn from(e: LinalgError) -> Self {
        ProjectionError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        assert!(ProjectionError::EmptyData.to_string().contains("empty"));
        let e: ProjectionError = LinalgError::NotFinite.into();
        assert!(matches!(e, ProjectionError::Linalg(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e = ProjectionError::RankDeficient {
            rank: 1,
            requested: 3,
        };
        assert!(e.to_string().contains("rank 1"));
    }
}
