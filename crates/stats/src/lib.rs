//! Statistics substrate for the `sider-rs` workspace.
//!
//! Provides everything the SIDER pipeline needs around the core MaxEnt
//! machinery:
//!
//! * [`rng`] — a deterministic, dependency-free PRNG (xoshiro256++ seeded
//!   via SplitMix64) with Box–Muller Gaussian sampling. All experiment
//!   tables in the repo are bit-reproducible.
//! * [`descriptive`] — means, variances, covariance matrices, quantiles.
//! * [`kmeans`] — k-means++ with silhouette-based model selection; this is
//!   how the *simulated user* "sees" clusters in a 2-D projection.
//! * [`metrics`] — the Jaccard index of a selection against each class and
//!   the best-matching class, used in the paper's use cases (§IV-B, §IV-C).
//! * [`gaussianity`] — the projection "informativeness" scores: the PCA
//!   variance-divergence score `(σ² − log σ² − 1)/2` and the signed
//!   negentropy proxy `E[G(s)] − E[G(ν)]` reported in Table I.
//! * [`ellipse`] — 95 % confidence ellipses drawn by the SIDER UI.

// Indexed `for` loops are the dominant idiom in this crate's numeric
// kernels, where several arrays are indexed in lockstep and the index is
// part of the math; iterator rewrites obscure it.
#![allow(clippy::needless_range_loop)]

pub mod descriptive;
pub mod ellipse;
pub mod gaussianity;
pub mod kmeans;
pub mod metrics;
pub mod rng;

pub use rng::Rng;
