//! Projection pursuit for SIDER (paper §II-C).
//!
//! Given the whitened data `Ŷ` (which would be a spherical unit Gaussian if
//! the analyst's background model explained the data perfectly), find the
//! 2-D projection in which `Ŷ` deviates most from `N(0, I)`:
//!
//! * [`pca`] — directions where the *variance* differs most from 1, scored
//!   by `(σ² − log σ² − 1)/2` (the KL divergence to the unit Gaussian along
//!   that direction; paper footnote 1). Uses the *uncentered* second
//!   moment so mean shifts count as deviations too.
//! * [`ica`] — FastICA (Hyvärinen's fixed-point iteration, log-cosh
//!   contrast by default, as in the paper) for *non-Gaussian* directions
//!   when variance alone is uninformative, scored by the signed negentropy
//!   proxy `E[G(s)] − E[G(ν)]` reported in the paper's Table I.
//! * [`axes`] — the axis-label formatter producing strings like
//!   `ICA1[0.041] = +0.69 (X3) +0.69 (X2) …`, mirroring the SIDER UI.
//! * [`projector`] — the "most informative 2-D projection" facade used by
//!   the interactive session.

// Indexed `for` loops are the dominant idiom in this crate's numeric
// kernels, where several arrays are indexed in lockstep and the index is
// part of the math; iterator rewrites obscure it.
#![allow(clippy::needless_range_loop)]

pub mod axes;
pub mod error;
pub mod ica;
pub mod pca;
pub mod projector;

pub use error::ProjectionError;
pub use ica::{fastica, fastica_with, ComponentOrder, IcaOpts, IcaResult};
pub use pca::{
    display_score, pca_classic, pca_directions, pca_directions_from_moment, pca_directions_with,
    PcaResult,
};
pub use projector::{
    most_informative_projection_with, project, projection_from_pca, Method, Projection,
};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, ProjectionError>;
