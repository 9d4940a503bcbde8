//! Synthetic datasets from the paper.

use crate::dataset::{Dataset, LabelSet};
use sider_linalg::Matrix;
use sider_stats::Rng;

/// The 3-D introduction dataset (paper §I, Fig. 2): 150 points in four
/// clusters of 50/50/25/25. The two small clusters share their (X1, X2)
/// location and differ only in X3 (partially overlapping there), so the
/// first two principal components show *three* clusters of 50.
///
/// Scaling matters for the storyline: the A/B spread directions carry
/// second moment > 1 (informative against the unit-Gaussian prior, scores
/// ≈ 0.2 like the paper's 0.093) while the X3 split direction stays near
/// second moment 1 (score ≈ 1e−4), so the *initial* informative-PCA view
/// shows three clusters and the C/D split only surfaces after the user's
/// cluster constraints are absorbed — exactly the paper's Fig. 2 flow.
pub fn three_d_four_clusters(seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    let n = 150;
    let mut m = Matrix::zeros(n, 3);
    let mut assignments = Vec::with_capacity(n);
    // (center, per-dim sigma, count)
    let spec: [([f64; 3], [f64; 3], usize); 4] = [
        ([2.6, 0.0, 0.0], [0.15, 0.15, 0.15], 50),   // A
        ([0.0, 2.6, 0.0], [0.15, 0.15, 0.15], 50),   // B
        ([0.0, 0.0, 1.35], [0.15, 0.15, 0.30], 25),  // C
        ([0.0, 0.0, -1.35], [0.15, 0.15, 0.30], 25), // D (overlaps C in X3 tails)
    ];
    let mut row = 0;
    for (k, (center, sigma, count)) in spec.iter().enumerate() {
        for _ in 0..*count {
            for j in 0..3 {
                m[(row, j)] = rng.normal(center[j], sigma[j]);
            }
            assignments.push(k);
            row += 1;
        }
    }
    let mut ds = Dataset::unlabeled("three-d-four-clusters", m);
    ds.labels.push(LabelSet {
        title: "cluster".into(),
        class_names: vec!["A".into(), "B".into(), "C".into(), "D".into()],
        assignments,
    });
    ds
}

/// The 5-D running example X̂₅ (paper §II, Fig. 3).
///
/// * Dimensions 1–3 hold four clusters A–D placed at `0`, `s·e₃`, `s·e₂`,
///   `s·e₁`: in **any** 2-D axis-aligned projection of dims 1–3, cluster A
///   coincides with one of B/C/D (the paper's defining property).
/// * Dimensions 4–5 hold three clusters E (`s·e₄`), F (`s·e₅`), G (origin).
/// * Coupling: a point in B/C/D belongs with 75 % probability to E or F
///   (uniformly); all remaining points (including all of A) are in G.
pub fn xhat5(n: usize, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    let s = 2.0;
    let sigma = 0.25;
    let d = 5;
    let mut m = Matrix::zeros(n, d);
    let abcd_centers: [[f64; 3]; 4] = [
        [0.0, 0.0, 0.0], // A
        [0.0, 0.0, s],   // B
        [0.0, s, 0.0],   // C
        [s, 0.0, 0.0],   // D
    ];
    let efg_centers: [[f64; 2]; 3] = [
        [s, 0.0],   // E
        [0.0, s],   // F
        [0.0, 0.0], // G
    ];
    let mut abcd = Vec::with_capacity(n);
    let mut efg = Vec::with_capacity(n);
    for i in 0..n {
        let a = i % 4; // balanced A–D assignment
        let e = if a != 0 && rng.bernoulli(0.75) {
            if rng.bernoulli(0.5) {
                0
            } else {
                1
            }
        } else {
            2
        };
        for j in 0..3 {
            m[(i, j)] = rng.normal(abcd_centers[a][j], sigma);
        }
        for j in 0..2 {
            m[(i, 3 + j)] = rng.normal(efg_centers[e][j], sigma);
        }
        abcd.push(a);
        efg.push(e);
    }
    let mut ds = Dataset::unlabeled("xhat5", m);
    ds.labels.push(LabelSet {
        title: "dims-1-3".into(),
        class_names: vec!["A".into(), "B".into(), "C".into(), "D".into()],
        assignments: abcd,
    });
    ds.labels.push(LabelSet {
        title: "dims-4-5".into(),
        class_names: vec!["E".into(), "F".into(), "G".into()],
        assignments: efg,
    });
    ds
}

/// Dataset generator of the runtime experiment (paper §IV-A, Table II):
/// sample `k` cluster centroids, then allocate `n` points around them
/// (balanced), in `d` dimensions.
pub fn runtime_dataset(n: usize, d: usize, k: usize, seed: u64) -> Dataset {
    assert!(k >= 1, "runtime_dataset: k must be ≥ 1");
    let mut rng = Rng::seed_from_u64(seed);
    let centroids: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..d).map(|_| rng.normal(0.0, 2.0)).collect())
        .collect();
    let mut m = Matrix::zeros(n, d);
    let mut assignments = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % k;
        for j in 0..d {
            m[(i, j)] = rng.normal(centroids[c][j], 0.5);
        }
        assignments.push(c);
    }
    let mut ds = Dataset::unlabeled(format!("runtime-n{n}-d{d}-k{k}"), m);
    ds.labels.push(LabelSet {
        title: "cluster".into(),
        class_names: (0..k).map(|c| format!("C{c}")).collect(),
        assignments,
    });
    ds
}

/// The adversarial 3×2 dataset of paper Fig. 5a / Eq. 11.
pub fn adversarial_toy() -> Matrix {
    Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sider_stats::descriptive::mean;

    #[test]
    fn three_d_dataset_shape_and_sizes() {
        let ds = three_d_four_clusters(2018);
        assert_eq!(ds.n(), 150);
        assert_eq!(ds.d(), 3);
        assert!(ds.validate().is_ok());
        let sizes = ds.primary_labels().unwrap().class_sizes();
        assert_eq!(sizes, vec![50, 50, 25, 25]);
    }

    #[test]
    fn small_clusters_overlap_only_in_x3() {
        let ds = three_d_four_clusters(1);
        let ls = ds.primary_labels().unwrap();
        let c = ls.class_indices(2);
        let d = ls.class_indices(3);
        // In (X1, X2) the C and D centroids coincide near the origin.
        for &set in &[&c, &d] {
            let x1: Vec<f64> = set.iter().map(|&i| ds.matrix[(i, 0)]).collect();
            let x2: Vec<f64> = set.iter().map(|&i| ds.matrix[(i, 1)]).collect();
            assert!(mean(&x1).abs() < 0.15);
            assert!(mean(&x2).abs() < 0.15);
        }
        // X3 separates them.
        let x3c: Vec<f64> = c.iter().map(|&i| ds.matrix[(i, 2)]).collect();
        let x3d: Vec<f64> = d.iter().map(|&i| ds.matrix[(i, 2)]).collect();
        assert!(mean(&x3c) > 1.0);
        assert!(mean(&x3d) < -1.0);
    }

    #[test]
    fn initial_informative_directions_are_the_ab_plane() {
        // The second moments along X1/X2 exceed 1 (cluster spread) while
        // X3 sits near 1: the initial score-sorted PCA view must be the
        // (X1, X2) plane — this is what makes the C/D split invisible at
        // first, as in paper Fig. 2a.
        let ds = three_d_four_clusters(2018);
        let sm = ds.matrix.gram().scale(1.0 / ds.n() as f64);
        assert!(sm[(0, 0)] > 1.4, "X1 second moment {}", sm[(0, 0)]);
        assert!(sm[(1, 1)] > 1.4, "X2 second moment {}", sm[(1, 1)]);
        assert!(
            (sm[(2, 2)] - 1.0).abs() < 0.35,
            "X3 second moment {}",
            sm[(2, 2)]
        );
    }

    #[test]
    fn xhat5_hiding_property() {
        // In each axis-aligned pair of dims 1–3, cluster A's centroid must
        // coincide with exactly one of B/C/D.
        let ds = xhat5(1000, 42);
        assert_eq!(ds.n(), 1000);
        assert_eq!(ds.d(), 5);
        let ls = &ds.labels[0];
        let centroid = |class: usize, dim: usize| {
            let idx = ls.class_indices(class);
            let v: Vec<f64> = idx.iter().map(|&i| ds.matrix[(i, dim)]).collect();
            mean(&v)
        };
        for (d1, d2) in [(0, 1), (0, 2), (1, 2)] {
            let a = (centroid(0, d1), centroid(0, d2));
            let coincide = (1..4)
                .filter(|&cl| {
                    let c = (centroid(cl, d1), centroid(cl, d2));
                    ((a.0 - c.0).powi(2) + (a.1 - c.1).powi(2)).sqrt() < 0.2
                })
                .count();
            assert_eq!(coincide, 1, "dims ({d1},{d2})");
        }
    }

    #[test]
    fn xhat5_efg_coupling() {
        let ds = xhat5(4000, 7);
        let abcd = &ds.labels[0];
        let efg = &ds.labels[1];
        // A-points are all in G.
        for &i in &abcd.class_indices(0) {
            assert_eq!(efg.assignments[i], 2);
        }
        // B/C/D points: about 75 % in E∪F.
        let bcd: Vec<usize> = (0..ds.n()).filter(|&i| abcd.assignments[i] != 0).collect();
        let in_ef = bcd.iter().filter(|&&i| efg.assignments[i] != 2).count() as f64;
        let frac = in_ef / bcd.len() as f64;
        assert!((frac - 0.75).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn xhat5_validates() {
        assert!(xhat5(100, 3).validate().is_ok());
    }

    #[test]
    fn runtime_dataset_properties() {
        let ds = runtime_dataset(256, 8, 4, 11);
        assert_eq!(ds.n(), 256);
        assert_eq!(ds.d(), 8);
        let sizes = ds.primary_labels().unwrap().class_sizes();
        assert_eq!(sizes, vec![64; 4]);
        assert!(ds.validate().is_ok());
    }

    #[test]
    fn runtime_dataset_k1_single_blob() {
        let ds = runtime_dataset(100, 3, 1, 5);
        assert_eq!(ds.primary_labels().unwrap().n_classes(), 1);
    }

    #[test]
    fn runtime_dataset_deterministic() {
        let a = runtime_dataset(64, 4, 2, 9);
        let b = runtime_dataset(64, 4, 2, 9);
        assert!(a.matrix.max_abs_diff(&b.matrix) == 0.0);
    }

    #[test]
    fn adversarial_matches_eq11() {
        let m = adversarial_toy();
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m.row(2), &[0.0, 0.0]);
    }
}
