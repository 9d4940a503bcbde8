//! The SIDER interactive exploration loop (paper Fig. 1 and §III).
//!
//! This crate glues the substrates into the system the paper describes:
//!
//! 1. the computer maintains a **background distribution** modeling the
//!    analyst's belief state ([`sider_maxent`]);
//! 2. it shows a 2-D **projection in which data and background differ
//!    most** ([`sider_projection`] on whitened data) — a [`view::ViewState`]
//!    carrying projected data, a projected background sample, displacement
//!    segments and axis captions, exactly the ingredients of the SIDER UI;
//! 3. the analyst **marks patterns** (point sets perceived as clusters) —
//!    [`session::EdaSession`] turns selections into cluster / 2-D
//!    constraints;
//! 4. the background distribution is **updated** and the loop repeats.
//!
//! Because this reproduction is headless, [`sim_user::SimulatedUser`]
//! stands in for the human: it "sees" clusters in a view via k-means with
//! silhouette-based model selection and marks them. The
//! [`sim_user::explore`] driver runs the full loop and records the
//! per-iteration projection scores — the data behind the paper's Table I.

// Indexed `for` loops are the dominant idiom in this crate's numeric
// kernels, where several arrays are indexed in lockstep and the index is
// part of the math; iterator rewrites obscure it.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod error;
pub mod report;
pub mod selection;
pub mod session;
pub mod sim_user;
pub mod view;
pub mod wire;

pub use error::CoreError;
pub use session::{EdaSession, KnowledgeKind};
pub use sim_user::{explore, ExplorationConfig, IterationRecord, SimulatedUser};
pub use view::ViewState;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
