//! Simulator of the British National Corpus use case (paper §IV-B).
//!
//! The paper computes a vector-space model from the first 2000 words of
//! each of 1335 texts in the four main BNC genres and keeps the 100
//! highest-count words as dimensions. The BNC itself is license-restricted
//! and cannot be bundled, so this module generates a corpus with the same
//! *geometry*, which is all the experiment depends on:
//!
//! * word frequencies follow a Zipf law, as in natural language;
//! * each genre tilts word probabilities through a latent-space model:
//!   genre `g` has an embedding `γ_g`, word `w` an embedding `u_w`, and
//!   the probability of `w` in a text of genre `g` is
//!   `∝ zipf(w) · exp(u_wᵀ(γ_g + ε_text))`;
//! * embeddings are chosen so that **transcribed conversations** are far
//!   from everything (the paper's first selection has Jaccard 0.928 to
//!   that class) while **academic prose** and **broadsheet newspaper**
//!   overlap (their joint selection scores 0.63/0.35), with **prose
//!   fiction** in between.

use crate::dataset::{Dataset, LabelSet};
use sider_linalg::Matrix;
use sider_stats::Rng;

/// The four main BNC genres used in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Genre {
    ProseFiction,
    TranscribedConversations,
    BroadsheetNewspaper,
    AcademicProse,
}

impl Genre {
    /// All genres, in label order.
    pub const ALL: [Genre; 4] = [
        Genre::ProseFiction,
        Genre::TranscribedConversations,
        Genre::BroadsheetNewspaper,
        Genre::AcademicProse,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Genre::ProseFiction => "prose fiction",
            Genre::TranscribedConversations => "transcribed conversations",
            Genre::BroadsheetNewspaper => "broadsheet newspaper",
            Genre::AcademicProse => "academic prose",
        }
    }

    /// Latent-space embedding controlling word-probability tilts.
    /// Conversations sit alone on the first axis; academic and broadsheet
    /// share the second axis (differing only slightly on the third);
    /// fiction points the other way.
    fn embedding(&self) -> [f64; 3] {
        match self {
            Genre::TranscribedConversations => [3.0, 0.0, 0.0],
            Genre::AcademicProse => [0.0, 1.8, 0.45],
            Genre::BroadsheetNewspaper => [0.0, 1.8, -0.45],
            Genre::ProseFiction => [0.0, -1.6, 0.0],
        }
    }
}

/// Options for the corpus simulator.
#[derive(Debug, Clone)]
pub struct BncOpts {
    /// Texts per genre, in [`Genre::ALL`] order. Paper total: 1335.
    pub texts_per_genre: [usize; 4],
    /// Vocabulary size before keeping the top words.
    pub vocabulary: usize,
    /// Tokens drawn per text ("the first 2000 words of each text").
    pub tokens_per_text: usize,
    /// Dimensions kept ("the 100 words with highest counts").
    pub top_words: usize,
    /// Zipf exponent of the base frequencies.
    pub zipf_exponent: f64,
    /// Standard deviation of word embeddings (genre distinctiveness).
    pub word_embedding_sd: f64,
    /// Standard deviation of the per-text jitter added to the genre
    /// embedding (within-genre spread).
    pub text_jitter_sd: f64,
}

impl Default for BncOpts {
    fn default() -> Self {
        BncOpts {
            // 476 + 153 + 418 + 288 = 1335 texts, the paper's total.
            texts_per_genre: [476, 153, 418, 288],
            vocabulary: 1000,
            tokens_per_text: 2000,
            top_words: 100,
            zipf_exponent: 1.05,
            word_embedding_sd: 0.35,
            text_jitter_sd: 0.25,
        }
    }
}

/// Generate the BNC-like corpus: a word-count matrix of shape
/// `(Σ texts) × top_words` with a genre labeling.
pub fn bnc_like_corpus(opts: &BncOpts, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    let v = opts.vocabulary;
    assert!(opts.top_words <= v, "top_words exceeds vocabulary");

    // Base Zipf weights.
    let base: Vec<f64> = (0..v)
        .map(|r| 1.0 / ((r + 1) as f64).powf(opts.zipf_exponent))
        .collect();
    // Word embeddings.
    let word_emb: Vec<[f64; 3]> = (0..v)
        .map(|_| {
            [
                rng.normal(0.0, opts.word_embedding_sd),
                rng.normal(0.0, opts.word_embedding_sd),
                rng.normal(0.0, opts.word_embedding_sd),
            ]
        })
        .collect();

    let n: usize = opts.texts_per_genre.iter().sum();
    let mut counts = Matrix::zeros(n, v);
    let mut assignments = Vec::with_capacity(n);
    let mut row = 0;
    for (g_idx, genre) in Genre::ALL.iter().enumerate() {
        let gamma = genre.embedding();
        for _ in 0..opts.texts_per_genre[g_idx] {
            // Per-text topic vector = genre embedding + jitter.
            let t = [
                gamma[0] + rng.normal(0.0, opts.text_jitter_sd),
                gamma[1] + rng.normal(0.0, opts.text_jitter_sd),
                gamma[2] + rng.normal(0.0, opts.text_jitter_sd),
            ];
            // Unnormalized word probabilities, then a CDF for fast sampling.
            let mut cdf = Vec::with_capacity(v);
            let mut acc = 0.0;
            for w in 0..v {
                let u = &word_emb[w];
                let tilt = (u[0] * t[0] + u[1] * t[1] + u[2] * t[2]).exp();
                acc += base[w] * tilt;
                cdf.push(acc);
            }
            let total = acc;
            for _ in 0..opts.tokens_per_text {
                let target = rng.uniform() * total;
                let w = cdf.partition_point(|&c| c < target).min(v - 1);
                counts[(row, w)] += 1.0;
            }
            assignments.push(g_idx);
            row += 1;
        }
    }

    // Keep the `top_words` globally most frequent words as dimensions.
    let totals: Vec<f64> = (0..v)
        .map(|w| (0..n).map(|i| counts[(i, w)]).sum())
        .collect();
    let mut order: Vec<usize> = (0..v).collect();
    order.sort_by(|&a, &b| totals[b].partial_cmp(&totals[a]).unwrap());
    let kept = &order[..opts.top_words];
    let mut matrix = Matrix::zeros(n, opts.top_words);
    let mut column_names = Vec::with_capacity(opts.top_words);
    for (j, &w) in kept.iter().enumerate() {
        for i in 0..n {
            matrix[(i, j)] = counts[(i, w)];
        }
        column_names.push(format!("w{w}"));
    }

    Dataset {
        name: "bnc-like".into(),
        matrix,
        column_names,
        labels: vec![LabelSet {
            title: "genre".into(),
            class_names: Genre::ALL.iter().map(|g| g.name().to_string()).collect(),
            assignments,
        }],
    }
}

/// Small preset for tests (fast to generate, same geometry).
pub fn bnc_small(seed: u64) -> Dataset {
    bnc_like_corpus(
        &BncOpts {
            texts_per_genre: [60, 20, 52, 36],
            vocabulary: 300,
            tokens_per_text: 500,
            top_words: 40,
            ..BncOpts::default()
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sider_stats::descriptive::mean;

    #[test]
    fn corpus_shape_and_labels() {
        let ds = bnc_small(1);
        assert_eq!(ds.n(), 168);
        assert_eq!(ds.d(), 40);
        assert!(ds.validate().is_ok());
        let ls = ds.primary_labels().unwrap();
        assert_eq!(ls.class_sizes(), vec![60, 20, 52, 36]);
        assert_eq!(ls.class_names[1], "transcribed conversations");
    }

    #[test]
    fn counts_sum_to_at_most_tokens() {
        // Kept columns are a subset of the vocabulary, so row sums are
        // ≤ tokens_per_text but close for top words.
        let ds = bnc_small(2);
        for i in 0..ds.n() {
            let row_sum: f64 = ds.matrix.row(i).iter().sum();
            assert!(row_sum <= 500.0 + 1e-9);
            assert!(row_sum > 100.0, "top words should dominate, got {row_sum}");
        }
    }

    #[test]
    fn counts_are_non_negative_integers() {
        let ds = bnc_small(3);
        for &v in ds.matrix.as_slice() {
            assert!(v >= 0.0);
            assert_eq!(v, v.round());
        }
    }

    #[test]
    fn conversations_are_most_distinctive_genre() {
        // Mean per-class centroid distances: conversations should be the
        // farthest (in standardized space) from every other genre, while
        // academic and broadsheet are the closest pair.
        let ds = bnc_small(4);
        let (z, _) = sider_stats::descriptive::standardize(&ds.matrix);
        let ls = ds.primary_labels().unwrap().clone();
        let centroid = |class: usize| -> Vec<f64> {
            let idx = ls.class_indices(class);
            (0..z.cols())
                .map(|j| {
                    let vals: Vec<f64> = idx.iter().map(|&i| z[(i, j)]).collect();
                    mean(&vals)
                })
                .collect()
        };
        let cents: Vec<Vec<f64>> = (0..4).map(centroid).collect();
        let dist = |a: usize, b: usize| -> f64 {
            cents[a]
                .iter()
                .zip(&cents[b])
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        // Pair distances: 1 = conversations.
        let conv_min = [0, 2, 3]
            .iter()
            .map(|&g| dist(1, g))
            .fold(f64::INFINITY, f64::min);
        let acad_broad = dist(2, 3);
        let all_pairs = [
            dist(0, 2),
            dist(0, 3),
            dist(0, 1),
            dist(1, 2),
            dist(1, 3),
            acad_broad,
        ];
        let max_other = all_pairs.iter().cloned().fold(0.0, f64::max);
        assert!(conv_min * 1.2 > max_other, "conversations not distinctive");
        // Academic vs broadsheet is the closest pair.
        let min_pair = all_pairs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            (acad_broad - min_pair).abs() < 1e-12,
            "acad/broad should overlap most"
        );
    }

    #[test]
    fn deterministic_by_seed() {
        let a = bnc_small(9);
        let b = bnc_small(9);
        assert_eq!(a.matrix.max_abs_diff(&b.matrix), 0.0);
        let c = bnc_small(10);
        assert!(a.matrix.max_abs_diff(&c.matrix) > 0.0);
    }

    #[test]
    fn default_opts_match_paper_totals() {
        let o = BncOpts::default();
        assert_eq!(o.texts_per_genre.iter().sum::<usize>(), 1335);
        assert_eq!(o.tokens_per_text, 2000);
        assert_eq!(o.top_words, 100);
    }
}
