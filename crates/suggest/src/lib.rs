//! Guided exploration: information-gain view recommendation.
//!
//! The SIDER loop (paper §II) always shows the user *the* maximally
//! informative projection, but a real exploration session benefits from a
//! shortlist: "here are the k views most worth looking at next". This
//! crate turns that into a batch-scoring problem over the session's
//! current background model, exactly as *Human-guided Data Exploration
//! Using Randomisation* frames next-view selection:
//!
//! 1. **Generate** a deterministic candidate batch of 2-D projection
//!    planes in *whitened* space ([`recommend`] with a
//!    [`SuggestRequest`]): pairs of PCA directions of the current
//!    whitened second moment, pairs of FastICA directions of the current
//!    whitened data (at most 8 extracted, the top 4 paired), pairs of
//!    attribute axes, and counter-seeded random orthonormal planes
//!    filling the batch.
//! 2. **Score** every candidate by the information gain of the projected
//!    data against the background: per axis, the whitened variance `σ²`
//!    maps to `(σ² − log σ² − 1)/2` — the KL divergence to the unit
//!    Gaussian the background predicts (paper footnote 1), the same
//!    functional the PCA view ordering uses
//!    ([`sider_projection::display_score`]).
//! 3. **Rank** by total gain (descending; candidate index breaks ties)
//!    and return the top `k` as a [`SuggestResponse`].
//!
//! ## Purity
//!
//! A suggest call is a **pure read**. The random candidates draw from
//! [`Rng::substream`] streams keyed by the *request-supplied* seed and
//! the candidate counter — never from the session RNG — and the engine
//! takes `&EdaSession`, so the compiler guarantees no session state
//! changes. This is what lets `sider_server` serve suggest requests on
//! read-only replication followers.
//!
//! ## Determinism
//!
//! The ranked list is byte-identical at any thread and stripe count.
//! [`recommend`] whitens the dataset once per call with the
//! row-independent `whiten_with` kernel, and that one matrix feeds all
//! three consumers: the PCA moment (`second_moment_with`'s fixed chunk
//! tree, bitwise equal to the fused `whitened_second_moment_with` the PCA
//! view uses), FastICA (seeded substream, fixed-order fixed-point step) and
//! every candidate's score. Candidates are scored in groups of four: one
//! pass over a whitened row gives its projections onto the group's eight
//! axes as lanes, each lane the same dot that `Matrix::matvec` computes
//! (and that `whiten_project_with` takes after its own whitening pass), and
//! each square is summed in row order. So a grouped score has the bits of
//! a candidate scored alone, in either build of the kernel (baseline or
//! AVX2, [`sider_linalg::avx2_dispatch!`]). The batch fans over the
//! session's pool by group with `par_map` — a placement-deterministic,
//! order-preserving chunk map. The server e2e and replication suites pin
//! the resulting response bytes.

use sider_core::session::EdaSession;
use sider_core::wire::{SuggestRequest, SuggestResponse, Suggestion};
use sider_core::{CoreError, Result};
use sider_linalg::Matrix;
use sider_projection::{display_score, fastica_with, pca_directions_with, IcaOpts};
use sider_stats::Rng;

/// Substream index reserved for the FastICA initialization draws.
const ICA_SUBSTREAM: u64 = 0x1CA;
/// Substream base for random candidates: candidate `c` draws from
/// `Rng::substream(seed, RANDOM_SUBSTREAM_BASE + c)`.
const RANDOM_SUBSTREAM_BASE: u64 = 1 << 32;
/// PCA directions considered for pairing (caps the quadratic blow-up on
/// wide datasets).
const MAX_PCA_DIRECTIONS: usize = 8;
/// ICA components considered for pairing.
const MAX_ICA_COMPONENTS: usize = 4;
/// Most components FastICA extracts, of which the top
/// `MAX_ICA_COMPONENTS` by `|score|` are paired. Symmetric FastICA slows
/// down with every near-Gaussian component it must also separate, so a
/// full-rank run (19 on segmentation, 100 on BNC) stops at its iteration
/// cap; at rank ≤ 8 the cap changes nothing.
const ICA_COMPONENTS: usize = 8;
/// Attribute axes considered for pairing.
const MAX_ATTR_AXES: usize = 12;
/// Candidates scored together, in one pass over the whitened rows.
const GROUP: usize = 4;
/// Axes scored in one pass: the two of each candidate in a group.
const AXES: usize = 2 * GROUP;

/// One generated candidate plane, before scoring.
struct Candidate {
    source: &'static str,
    label: String,
    /// `2 × d` plane in whitened space.
    axes: Matrix,
}

/// Score a deterministic candidate batch against the session's current
/// background model and return the `k` most informative planes, ranked.
///
/// Pure read: the session is untouched (see the crate docs for why that
/// matters for replication followers). Deterministic: byte-identical
/// output at any pool size for the same session state and request.
pub fn recommend(session: &EdaSession, req: &SuggestRequest) -> Result<SuggestResponse> {
    let d = session.dataset().d();
    if d < 2 {
        return Err(CoreError::BadDataset(
            "suggest needs at least 2 columns to form a projection plane".into(),
        ));
    }
    // One whitening pass serves the PCA moment, FastICA and every score.
    let whitened = session.whitened()?;
    let candidates = generate_candidates(session, &whitened, req.seed, req.batch)?;

    let n = whitened.rows();
    // Fan the batch over the session pool by groups of `GROUP` candidates;
    // each group projects the whitened rows serially, so the only dispatch
    // level is the batch itself (`par_map` is placement-deterministic and
    // order-preserving).
    let pool = session
        .pool()
        .gated(candidates.len().saturating_mul(n * 2 * d));
    let groups: Vec<&[Candidate]> = candidates.chunks(GROUP).collect();
    let sums: Vec<[f64; AXES]> = pool.par_map(&groups, |group| {
        // d × AXES: row j holds coordinate j of each candidate's two axes,
        // then zeros for the candidates a last group lacks.
        let mut axes_t = vec![0.0; d * AXES];
        for (c, cand) in group.iter().enumerate() {
            for (a, axis) in [cand.axes.row(0), cand.axes.row(1)].into_iter().enumerate() {
                for (j, &x) in axis.iter().enumerate() {
                    axes_t[j * AXES + 2 * c + a] = x;
                }
            }
        }
        square_sums(&whitened, &axes_t)
    });
    let scored = sums.iter().flat_map(|s| s.chunks_exact(2)).map(|s| {
        let gains = [
            display_score(s[0] / n as f64),
            display_score(s[1] / n as f64),
        ];
        (gains[0] + gains[1], gains)
    });

    let mut suggestions: Vec<Suggestion> = candidates
        .into_iter()
        .zip(scored)
        .enumerate()
        .map(|(candidate, (c, (gain, axis_gains)))| Suggestion {
            candidate,
            source: c.source,
            label: c.label,
            axes: c.axes,
            gain,
            axis_gains,
        })
        .collect();
    let batch = suggestions.len();
    // Descending gain; the deterministic generation index breaks ties, so
    // the ranking never depends on sort internals.
    suggestions.sort_by(|a, b| {
        b.gain
            .partial_cmp(&a.gain)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.candidate.cmp(&b.candidate))
    });
    suggestions.truncate(req.k);
    Ok(SuggestResponse {
        seed: req.seed,
        batch,
        k: req.k,
        suggestions,
    })
}

sider_linalg::avx2_dispatch! {
    /// Per axis of `axes_t` (`d × AXES`, one axis per column), the sum over
    /// the rows of `y` of the squared projection: the body
    /// [`square_sums_body`] in its AVX2 build when the CPU has it.
    fn square_sums(y: &Matrix, axes_t: &[f64]) -> [f64; AXES] => square_sums_body
}

/// [`square_sums`], two rows at a time: one pass over the axes gives both
/// rows' `AXES` projections as lanes, each a dot from `-0.0` over
/// ascending `j` with `axes[a][j] · y_ij`, exactly as
/// [`Matrix::matvec`] projects a row onto a `2 × d` plane. Each
/// square is added in ascending row order from `+0.0`.
#[inline(always)]
fn square_sums_body(y: &Matrix, axes_t: &[f64]) -> [f64; AXES] {
    let d = y.cols();
    let mut sums = [0.0; AXES];
    let mut pairs = y.as_slice().chunks_exact(2 * d);
    for rows in &mut pairs {
        add_square_sums::<2>(rows, axes_t, &mut sums);
    }
    for row in pairs.remainder().chunks_exact(d) {
        add_square_sums::<1>(row, axes_t, &mut sums);
    }
    sums
}

/// Projects the `M` rows of `y` onto every axis of `axes_t` and adds the
/// squares into `sums`, row by row.
#[inline(always)]
fn add_square_sums<const M: usize>(y: &[f64], axes_t: &[f64], sums: &mut [f64; AXES]) {
    let d = y.len() / M;
    let y: [&[f64]; M] = std::array::from_fn(|m| &y[m * d..][..d]);
    let mut p = [[-0.0; AXES]; M];
    for (j, aj) in axes_t.chunks_exact(AXES).enumerate() {
        for (p, ym) in p.iter_mut().zip(y) {
            let ymj = ym[j];
            for (p, &aij) in p.iter_mut().zip(aj) {
                *p += aij * ymj;
            }
        }
    }
    for p in &p {
        for (s, &p) in sums.iter_mut().zip(p) {
            *s += p * p;
        }
    }
}

/// Build the deterministic candidate batch: PCA pairs, ICA pairs,
/// attribute pairs, then counter-seeded random planes until `batch`
/// candidates exist. Truncation (a small `batch`) keeps the prefix, so
/// the candidate at a given index never depends on the batch size.
fn generate_candidates(
    session: &EdaSession,
    whitened: &Matrix,
    seed: u64,
    batch: usize,
) -> Result<Vec<Candidate>> {
    let d = session.dataset().d();
    let pool = session.pool();
    let mut out: Vec<Candidate> = Vec::with_capacity(batch);

    // PCA directions of the current whitened second moment — the same
    // spectrum the PCA view ranks, so the top pair reproduces the view
    // the session would show next.
    let pca = pca_directions_with(whitened, pool)?;
    let take = pca.directions.rows().min(MAX_PCA_DIRECTIONS);
    push_pairs(&mut out, batch, take, |i, j| Candidate {
        source: "pca",
        label: format!("PCA{} × PCA{}", i + 1, j + 1),
        axes: plane(pca.directions.row(i), pca.directions.row(j)),
    });

    // ICA directions of the current whitened data: non-Gaussian structure
    // that variance cannot see. The fixed-point iteration initializes
    // from a request-local substream, and a session state where FastICA
    // cannot run (e.g. a fully collapsed background) just contributes no
    // candidates — the failure is deterministic too.
    if out.len() < batch {
        let mut rng = Rng::substream(seed, ICA_SUBSTREAM);
        let opts = IcaOpts {
            n_components: Some(ICA_COMPONENTS),
            ..IcaOpts::default()
        };
        if let Ok(ica) = fastica_with(whitened, &opts, &mut rng, pool) {
            let take = ica.directions.rows().min(MAX_ICA_COMPONENTS);
            push_pairs(&mut out, batch, take, |i, j| Candidate {
                source: "ica",
                label: format!("ICA{} × ICA{}", i + 1, j + 1),
                axes: plane(ica.directions.row(i), ica.directions.row(j)),
            });
        }
    }

    // Attribute axes as seen in whitened space: "what does the background
    // still mispredict about (X_i, X_j)?" — labeled with column names.
    let names = &session.dataset().column_names;
    let take = d.min(MAX_ATTR_AXES);
    push_pairs(&mut out, batch, take, |i, j| {
        let mut axes = Matrix::zeros(2, d);
        axes[(0, i)] = 1.0;
        axes[(1, j)] = 1.0;
        Candidate {
            source: "attr",
            label: format!("{} × {}", names[i], names[j]),
            axes,
        }
    });

    // Counter-seeded random planes fill the rest of the batch. Candidate
    // `c` owns substream `RANDOM_SUBSTREAM_BASE + c`, so the plane at a
    // given index is a pure function of (session state, seed, index) —
    // independent of batch size and of every other candidate.
    while out.len() < batch {
        let c = out.len();
        let mut rng = Rng::substream(seed, RANDOM_SUBSTREAM_BASE + c as u64);
        out.push(Candidate {
            source: "random",
            label: format!("random#{c}"),
            axes: random_plane(d, &mut rng),
        });
    }
    out.truncate(batch);
    Ok(out)
}

/// Push the `(i, j)` pairs (`i < j < take`) of a direction family until
/// the batch is full.
fn push_pairs(
    out: &mut Vec<Candidate>,
    batch: usize,
    take: usize,
    make: impl Fn(usize, usize) -> Candidate,
) {
    for i in 0..take {
        for j in (i + 1)..take {
            if out.len() >= batch {
                return;
            }
            out.push(make(i, j));
        }
    }
}

/// Stack two direction slices into a `2 × d` plane.
fn plane(a: &[f64], b: &[f64]) -> Matrix {
    Matrix::from_rows(&[a.to_vec(), b.to_vec()])
}

/// Draw a uniformly random orthonormal 2-plane: two standard-normal
/// vectors, Gram-Schmidt orthonormalized. Degenerate draws (numerically
/// zero norm or near-collinear pair) redraw from the same stream, so the
/// result is still a pure function of the stream.
fn random_plane(d: usize, rng: &mut Rng) -> Matrix {
    loop {
        let v0 = rng.standard_normal_vec(d);
        let n0 = norm(&v0);
        if n0 < 1e-12 {
            continue;
        }
        let u0: Vec<f64> = v0.iter().map(|x| x / n0).collect();
        let v1 = rng.standard_normal_vec(d);
        let dot: f64 = u0.iter().zip(&v1).map(|(a, b)| a * b).sum();
        let w: Vec<f64> = v1.iter().zip(&u0).map(|(x, u)| x - dot * u).collect();
        let n1 = norm(&w);
        if n1 < 1e-9 {
            continue;
        }
        let u1: Vec<f64> = w.iter().map(|x| x / n1).collect();
        return Matrix::from_rows(&[u0, u1]);
    }
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sider_core::wire::suggest_response_to_json;
    use sider_data::segmentation::{segmentation_like, SegmentationOpts};
    use sider_data::synthetic::{runtime_dataset, three_d_four_clusters};
    use sider_data::Dataset;
    use sider_maxent::FitOpts;
    use sider_par::ThreadPool;
    use sider_projection::{pca_directions_from_moment, Method};
    use std::sync::Arc;

    fn session_with(threads: usize) -> EdaSession {
        let mut s = EdaSession::with_pool(
            three_d_four_clusters(2018),
            7,
            Arc::new(ThreadPool::new(threads)),
        )
        .unwrap();
        s.add_margin_constraints().unwrap();
        s.add_cluster_constraint(&(0..40).collect::<Vec<_>>())
            .unwrap();
        s.update_background(&FitOpts::default()).unwrap();
        s
    }

    fn request() -> SuggestRequest {
        SuggestRequest {
            seed: 42,
            batch: 64,
            k: 8,
        }
    }

    #[test]
    fn top_k_is_byte_identical_across_pool_sizes() {
        let serial = recommend(&session_with(1), &request()).unwrap();
        let pooled = recommend(&session_with(4), &request()).unwrap();
        assert_eq!(
            suggest_response_to_json(&serial).dump(),
            suggest_response_to_json(&pooled).dump(),
            "suggest ranking must not depend on the pool size"
        );
    }

    #[test]
    fn suggest_is_a_pure_read() {
        let mut touched = session_with(1);
        let mut untouched = session_with(1);
        let before = touched.knowledge().len();
        recommend(&touched, &request()).unwrap();
        recommend(
            &touched,
            &SuggestRequest {
                seed: 9,
                ..request()
            },
        )
        .unwrap();
        assert_eq!(touched.knowledge().len(), before);
        assert!(!touched.is_dirty());
        // The session RNG never advanced: the next view matches a twin
        // session that never served a suggest call, byte for byte.
        let a = sider_core::wire::view_to_json(
            &touched.next_view(&Method::Ica(IcaOpts::default())).unwrap(),
        );
        let b = sider_core::wire::view_to_json(
            &untouched
                .next_view(&Method::Ica(IcaOpts::default()))
                .unwrap(),
        );
        assert_eq!(a.dump(), b.dump());
    }

    #[test]
    fn ranking_is_sorted_and_echoes_the_request() {
        let resp = recommend(&session_with(1), &request()).unwrap();
        assert_eq!(resp.seed, 42);
        assert_eq!(resp.batch, 64);
        assert_eq!(resp.k, 8);
        assert_eq!(resp.suggestions.len(), 8);
        for pair in resp.suggestions.windows(2) {
            assert!(
                pair[0].gain >= pair[1].gain,
                "suggestions must be ranked by descending gain"
            );
        }
        for s in &resp.suggestions {
            assert!(s.candidate < 64);
            assert_eq!(s.axes.rows(), 2);
            assert_eq!(s.axes.cols(), 3);
            assert!(s.gain.is_finite() && s.gain >= 0.0);
            assert!((s.gain - s.axis_gains[0] - s.axis_gains[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn batch_mixes_all_candidate_families() {
        // d = 3 yields 3 PCA pairs, ≤ 3 ICA pairs, and 3 attribute pairs;
        // a batch of 64 is therefore mostly random planes. Ask for the
        // full batch back to observe every family.
        let req = SuggestRequest {
            seed: 42,
            batch: 64,
            k: 64,
        };
        let resp = recommend(&session_with(1), &req).unwrap();
        assert_eq!(resp.suggestions.len(), 64);
        for family in ["pca", "attr", "random"] {
            assert!(
                resp.suggestions.iter().any(|s| s.source == family),
                "batch should contain a '{family}' candidate"
            );
        }
        // Attribute candidates carry the dataset's column names.
        let attr = resp
            .suggestions
            .iter()
            .find(|s| s.source == "attr")
            .unwrap();
        assert!(attr.label.contains('×'));
    }

    #[test]
    fn request_seed_drives_the_random_candidates() {
        let session = session_with(1);
        let a = recommend(
            &session,
            &SuggestRequest {
                seed: 1,
                batch: 64,
                k: 64,
            },
        )
        .unwrap();
        let b = recommend(
            &session,
            &SuggestRequest {
                seed: 2,
                batch: 64,
                k: 64,
            },
        )
        .unwrap();
        let axes_of = |r: &SuggestResponse| -> Vec<Vec<u64>> {
            let mut v: Vec<_> = r
                .suggestions
                .iter()
                .filter(|s| s.source == "random")
                .map(|s| s.axes.as_slice().iter().map(|x| x.to_bits()).collect())
                .collect();
            v.sort();
            v
        };
        assert_ne!(
            axes_of(&a),
            axes_of(&b),
            "seed must change the random planes"
        );
        // Same seed reproduces the response exactly.
        let c = recommend(
            &session,
            &SuggestRequest {
                seed: 1,
                batch: 64,
                k: 64,
            },
        )
        .unwrap();
        assert_eq!(
            suggest_response_to_json(&a).dump(),
            suggest_response_to_json(&c).dump()
        );
    }

    #[test]
    fn candidate_prefix_is_stable_under_batch_growth() {
        // The candidate at index c is a pure function of (state, seed, c):
        // growing the batch must not re-seed or re-order the prefix.
        let session = session_with(1);
        let small = recommend(
            &session,
            &SuggestRequest {
                seed: 3,
                batch: 64,
                k: 64,
            },
        )
        .unwrap();
        let large = recommend(
            &session,
            &SuggestRequest {
                seed: 3,
                batch: 96,
                k: 96,
            },
        )
        .unwrap();
        let by_candidate = |r: &SuggestResponse, c: usize| -> Vec<u64> {
            let s = r.suggestions.iter().find(|s| s.candidate == c).unwrap();
            s.axes.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        for c in [0usize, 13, 40, 63] {
            assert_eq!(by_candidate(&small, c), by_candidate(&large, c));
        }
    }

    /// Bits of every entry, with every NaN read as one value: the two
    /// builds may carry different NaN payloads.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() })
            .collect()
    }

    #[test]
    fn square_sums_match_row_projections_in_both_builds() {
        // Odd row counts leave one row after the pairs; d = 2 is the
        // narrowest plane, d = 100 BNC's width. A NaN in one axis must
        // stay in its own lane.
        for (n, d) in [(2311, 19), (1335, 100), (7, 2), (1, 3)] {
            let mut rng = Rng::seed_from_u64((n * 7 + d) as u64);
            let y = rng.standard_normal_matrix(n, d);
            let mut planes: Vec<Matrix> = (0..GROUP).map(|_| random_plane(d, &mut rng)).collect();
            planes[1][(1, d - 1)] = f64::NAN;
            let mut axes_t = vec![0.0; d * AXES];
            for (c, plane) in planes.iter().enumerate() {
                for j in 0..d {
                    axes_t[j * AXES + 2 * c] = plane[(0, j)];
                    axes_t[j * AXES + 2 * c + 1] = plane[(1, j)];
                }
            }
            let mut expected = Vec::new();
            for plane in &planes {
                let mut sums = [0.0f64; 2];
                for i in 0..n {
                    let p = plane.matvec(y.row(i));
                    sums[0] += p[0] * p[0];
                    sums[1] += p[1] * p[1];
                }
                expected.extend(sums);
            }
            assert_eq!(expected.iter().filter(|s| s.is_nan()).count(), 1);
            let expected = bits(&expected);
            assert_eq!(bits(&square_sums(&y, &axes_t)), expected, "({n}, {d})");
            assert_eq!(bits(&square_sums_body(&y, &axes_t)), expected, "({n}, {d})");
        }
    }

    /// A session fitted with margins and the first label class as one
    /// cluster statement.
    fn fitted(ds: Dataset) -> EdaSession {
        let class: Vec<usize> = (0..ds.n())
            .filter(|&i| ds.labels[0].assignments[i] == 0)
            .collect();
        let mut s = EdaSession::with_pool(ds, 11, Arc::new(ThreadPool::new(2))).unwrap();
        s.add_margin_constraints().unwrap();
        s.add_cluster_constraint(&class).unwrap();
        s.update_background(&FitOpts::default()).unwrap();
        s
    }

    #[test]
    fn every_suggestion_matches_the_fused_kernel_reference_bitwise() {
        // The reference derives every plane and score from kernels that
        // whiten on their own: PCA from the fused whitened moment, FastICA
        // on `session.whitened()`, and each score from
        // `whiten_project_with` with a row-order sum.
        let segmentation = segmentation_like(
            &SegmentationOpts {
                per_class: 40,
                ..SegmentationOpts::default()
            },
            5,
        );
        // 280×19: 28 PCA + 6 ICA + 66 attribute pairs, then random planes;
        // rank 19 is above ICA_COMPONENTS, so FastICA runs capped. Batches
        // of 1, 5 and 103 leave a last scoring group part empty.
        // 300×24: the 28 PCA pairs fill the batch.
        let (segmentation, runtime) =
            (fitted(segmentation), fitted(runtime_dataset(300, 24, 3, 7)));
        let every_family = vec!["pca", "ica", "attr", "random"];
        let cases = [
            (&segmentation, 104, every_family.clone()),
            (&segmentation, 103, every_family),
            (&segmentation, 5, vec!["pca"]),
            (&segmentation, 1, vec!["pca"]),
            (&runtime, 28, vec!["pca"]),
        ];
        for (session, batch, families) in cases {
            let req = SuggestRequest {
                seed: 17,
                batch,
                k: batch,
            };
            let resp = recommend(session, &req).unwrap();
            assert_eq!(resp.suggestions.len(), batch);
            let (data, bg, pool) = (session.data(), session.background(), session.pool());
            let n = data.rows();

            let moment = bg.whitened_second_moment_with(data, pool).unwrap();
            let pca = pca_directions_from_moment(n, moment).unwrap();
            let mut expected: Vec<(&str, Matrix)> = Vec::new();
            let pairs =
                |take: usize| (0..take).flat_map(move |i| (i + 1..take).map(move |j| (i, j)));
            for (i, j) in pairs(pca.directions.rows().min(MAX_PCA_DIRECTIONS)) {
                expected.push(("pca", plane(pca.directions.row(i), pca.directions.row(j))));
            }
            if expected.len() < batch {
                let mut rng = Rng::substream(req.seed, ICA_SUBSTREAM);
                let whitened = session.whitened().unwrap();
                let opts = IcaOpts {
                    n_components: Some(ICA_COMPONENTS),
                    ..IcaOpts::default()
                };
                let ica = fastica_with(&whitened, &opts, &mut rng, pool).unwrap();
                for (i, j) in pairs(ica.directions.rows().min(MAX_ICA_COMPONENTS)) {
                    expected.push(("ica", plane(ica.directions.row(i), ica.directions.row(j))));
                }
            }
            expected.truncate(batch);

            for s in &resp.suggestions {
                let p = bg
                    .whiten_project_with(data, &s.axes, &ThreadPool::serial())
                    .unwrap();
                let mut sums = [0.0f64; 2];
                for i in 0..n {
                    sums[0] += p[(i, 0)] * p[(i, 0)];
                    sums[1] += p[(i, 1)] * p[(i, 1)];
                }
                let gains = [
                    display_score(sums[0] / n as f64),
                    display_score(sums[1] / n as f64),
                ];
                assert_eq!(bits(&s.axis_gains), bits(&gains), "{}", s.label);
                assert_eq!(s.gain.to_bits(), (gains[0] + gains[1]).to_bits());
                if let Some((source, axes)) = expected.get(s.candidate) {
                    assert_eq!(s.source, *source, "{}", s.label);
                    assert_eq!(
                        bits(s.axes.as_slice()),
                        bits(axes.as_slice()),
                        "{}",
                        s.label
                    );
                }
            }
            for family in families {
                assert!(
                    resp.suggestions.iter().any(|s| s.source == family),
                    "batch {batch} should contain a '{family}' candidate"
                );
            }
        }
    }

    /// Over ten request seeds, FastICA at suggest's own options finds
    /// non-Gaussian directions as strong as a full-rank run given ten
    /// times the iterations: on segmentation at both sizes, capped and
    /// full-rank runs end at or near the same few local optima, so the
    /// capped median of `|score₁| + |score₂|` is at most 1% below.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "ten full-rank FastICA runs of up to 2000 iterations per dataset take minutes in a debug build"
    )]
    fn capped_fastica_keeps_the_median_top_scores_of_full_rank() {
        let small = SegmentationOpts {
            per_class: 40,
            ..SegmentationOpts::default()
        };
        let capped = IcaOpts {
            n_components: Some(ICA_COMPONENTS),
            ..IcaOpts::default()
        };
        let full = IcaOpts {
            max_iter: 2000,
            ..IcaOpts::default()
        };
        for ds in [
            segmentation_like(&SegmentationOpts::default(), 2018),
            segmentation_like(&small, 5),
        ] {
            let shape = (ds.n(), ds.d());
            let session = fitted(ds);
            let whitened = session.whitened().unwrap();
            let median_top2 = |opts: &IcaOpts| {
                let mut top2: Vec<f64> = (0..10)
                    .map(|seed| {
                        let mut rng = Rng::substream(seed, ICA_SUBSTREAM);
                        let ica = fastica_with(&whitened, opts, &mut rng, session.pool()).unwrap();
                        ica.scores[0].abs() + ica.scores[1].abs()
                    })
                    .collect();
                top2.sort_by(f64::total_cmp);
                (top2[4] + top2[5]) / 2.0
            };
            let (at_cap, at_rank) = (median_top2(&capped), median_top2(&full));
            assert!(
                at_cap >= 0.99 * at_rank,
                "{shape:?}: median top-2 |score| {at_cap:.4} at the cap, {at_rank:.4} at full rank"
            );
        }
    }
}
