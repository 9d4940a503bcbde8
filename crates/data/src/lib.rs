//! Datasets for the SIDER reproduction.
//!
//! Every dataset used in the paper's examples and evaluation (§I, §II,
//! §IV) is generated here:
//!
//! * [`synthetic::three_d_four_clusters`] — the 3-D, 150-point
//!   introduction example (Fig. 2): three clusters visible in the first
//!   two principal components, one of which splits in a later view.
//! * [`synthetic::xhat5`] — the 5-D running example X̂₅ (Fig. 3): four
//!   clusters A–D in dimensions 1–3 arranged so any axis pair hides one,
//!   three clusters E–G in dimensions 4–5, 75 % membership coupling.
//! * [`synthetic::runtime_dataset`] — the Table II scalability grid
//!   generator (k sampled centroids, points allocated around them).
//! * [`synthetic::adversarial_toy`] — the 3×2 dataset of Fig. 5 / Eq. 11.
//! * [`bnc`] — a *simulator* of the British National Corpus use case
//!   (§IV-B): the real corpus is license-restricted, so we generate word
//!   counts from a genre-tilted Zipf model that reproduces the cluster
//!   geometry the experiment depends on (the [`bnc`] module docs make the
//!   substitution argument).
//! * [`segmentation`] — a simulator of the UCI Image Segmentation use
//!   case (§IV-C) with the same shape: heterogeneous attribute scales,
//!   one pure class (`sky`), one near-pure class (`grass`), a five-class
//!   blob, and a few heavy outliers.
//!
//! All generators are deterministic given a seed.

// Indexed `for` loops are the dominant idiom in this crate's numeric
// kernels, where several arrays are indexed in lockstep and the index is
// part of the math; iterator rewrites obscure it.
#![allow(clippy::needless_range_loop)]

pub mod bnc;
pub mod csv;
pub mod dataset;
pub mod segmentation;
pub mod synthetic;

pub use dataset::{Dataset, LabelSet};
