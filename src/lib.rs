//! `sider` — a complete Rust reproduction of
//! *"Interactive Visual Data Exploration with Subjective Feedback: An
//! Information-Theoretic Approach"* (Puolamäki, Oikarinen, Kang, Lijffijt,
//! De Bie — ICDE 2018).
//!
//! The crate re-exports the whole workspace so downstream users depend on
//! one name:
//!
//! * [`linalg`] — dense linear algebra (eigen/LU/Woodbury).
//! * [`stats`] — RNG, descriptive statistics, k-means, metrics, ellipses.
//! * [`maxent`] — the MaxEnt background distribution with linear and
//!   quadratic constraints (the paper's §II-A engine).
//! * [`par`] — scoped thread pool + deterministic data-parallel
//!   primitives (pool size from `SIDER_THREADS`); results are
//!   bit-identical at any thread count.
//! * [`projection`] — whitened-data projection pursuit: PCA and FastICA.
//! * [`data`] — every dataset of the paper's evaluation (simulated where
//!   the original is not redistributable).
//! * [`plot`] — headless SVG rendering of the SIDER views.
//! * [`core`] — the interactive session: views, selections, constraints,
//!   and a simulated user driving the full loop.
//! * [`json`] — the shared std-only JSON wire format (parser +
//!   deterministic serializer).
//! * [`server`] — the HTTP/1.1 + JSON service exposing the loop over
//!   persistent sessions (`sider serve`).
//! * [`store`] — the durable session store: per-session write-ahead
//!   op-logs with checkpoint compaction and byte-exact crash recovery
//!   (`sider serve --data-dir`).
//! * [`loadgen`] — std-only open-loop load generator replaying a
//!   deterministic mixed workload against a live server
//!   (`sider loadgen`).
//! * [`suggest`] — guided exploration: information-gain ranking of
//!   candidate projections against the current background model
//!   (`sider suggest`, `POST /api/sessions/{id}/suggest`).
//!
//! # Quick start
//!
//! ```
//! use sider::core::{EdaSession, SimulatedUser};
//! use sider::maxent::FitOpts;
//! use sider::projection::Method;
//!
//! // The paper's 3-D introduction example (Fig. 2).
//! let dataset = sider::data::synthetic::three_d_four_clusters(2018);
//! let mut session = EdaSession::new(dataset, 7).unwrap();
//!
//! // 1. Show the most informative projection (3 clusters visible).
//! let view = session.next_view(&Method::Pca).unwrap();
//! assert!(view.scores()[0] > 0.05);
//!
//! // 2. The user marks what she sees; the system absorbs it.
//! let mut user = SimulatedUser::new(6, 5, 42);
//! for cluster in user.perceive_clusters(&view) {
//!     session.add_cluster_constraint(&cluster).unwrap();
//! }
//! session.update_background(&FitOpts::default()).unwrap();
//!
//! // 3. The next view shows what the user does *not* know yet.
//! let next = session.next_view(&Method::Pca).unwrap();
//! assert!(next.scores()[0] < view.scores()[0]);
//!
//! // 4. Later rounds are warm-started: new constraints are appended into
//! //    the persistent solver engine instead of re-solving from scratch.
//! assert!(session.has_warm_solver());
//! for cluster in user.perceive_clusters(&next) {
//!     session.add_cluster_constraint(&cluster).unwrap();
//! }
//! session.update_background(&FitOpts::default()).unwrap();
//! ```

pub use sider_core as core;
pub use sider_data as data;
pub use sider_json as json;
pub use sider_linalg as linalg;
pub use sider_loadgen as loadgen;
pub use sider_maxent as maxent;
pub use sider_par as par;
pub use sider_plot as plot;
pub use sider_projection as projection;
pub use sider_server as server;
pub use sider_stats as stats;
pub use sider_store as store;
pub use sider_suggest as suggest;

pub mod prelude {
    //! Commonly used items in one import.
    pub use sider_core::{explore, EdaSession, ExplorationConfig, SimulatedUser, ViewState};
    pub use sider_data::{Dataset, LabelSet};
    pub use sider_linalg::Matrix;
    pub use sider_maxent::{BackgroundDistribution, FitOpts, RowSet, Solver};
    pub use sider_par::ThreadPool;
    pub use sider_projection::{IcaOpts, Method};
    pub use sider_stats::Rng;
}
