//! k-means clustering with k-means++ initialization and silhouette-based
//! model selection.
//!
//! In the paper the *user* looks at a 2-D scatter plot and marks the point
//! sets she perceives as clusters. To run the use-case experiments headless
//! we need a stand-in for that perception; `KMeans` + [`choose_k`] is that
//! stand-in: cluster the projected points for k = 2…k_max, keep the k with
//! the best silhouette.

use crate::rng::Rng;
use sider_linalg::{vector, Matrix};

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansFit {
    /// Cluster index per row.
    pub assignments: Vec<usize>,
    /// `k × d` centroid matrix.
    pub centroids: Matrix,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

/// Configuration for k-means.
#[derive(Debug, Clone)]
pub struct KMeansOpts {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Number of k-means++ restarts; the best inertia wins.
    pub restarts: usize,
}

impl Default for KMeansOpts {
    fn default() -> Self {
        KMeansOpts {
            k: 2,
            max_iter: 100,
            restarts: 4,
        }
    }
}

/// Run k-means on the rows of `data`.
///
/// # Panics
/// Panics if `k` is zero or larger than the number of rows.
pub fn kmeans(data: &Matrix, opts: &KMeansOpts, rng: &mut Rng) -> KMeansFit {
    let n = data.rows();
    assert!(opts.k >= 1 && opts.k <= n, "kmeans: invalid k={}", opts.k);
    let mut best: Option<KMeansFit> = None;
    for _ in 0..opts.restarts.max(1) {
        let fit = kmeans_once(data, opts, rng);
        if best.as_ref().is_none_or(|b| fit.inertia < b.inertia) {
            best = Some(fit);
        }
    }
    best.unwrap()
}

fn kmeans_once(data: &Matrix, opts: &KMeansOpts, rng: &mut Rng) -> KMeansFit {
    let (n, d) = data.shape();
    let k = opts.k;
    let mut centroids = plus_plus_init(data, k, rng);
    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    for it in 0..opts.max_iter {
        iterations = it + 1;
        // Assignment step.
        let mut changed = false;
        for i in 0..n {
            let row = data.row(i);
            let mut best_j = 0;
            let mut best_d = f64::INFINITY;
            for j in 0..k {
                let dist = sq_dist(row, centroids.row(j));
                if dist < best_d {
                    best_d = dist;
                    best_j = j;
                }
            }
            if assignments[i] != best_j {
                assignments[i] = best_j;
                changed = true;
            }
        }
        if !changed && it > 0 {
            break;
        }
        // Update step.
        let mut sums = Matrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for i in 0..n {
            counts[assignments[i]] += 1;
            vector::axpy(1.0, data.row(i), sums.row_mut(assignments[i]));
        }
        for j in 0..k {
            if counts[j] == 0 {
                // Re-seed an empty cluster at the point farthest from its centroid.
                let far = farthest_point(data, &centroids, &assignments);
                sums.set_row(j, data.row(far));
                counts[j] = 1;
            }
            let inv = 1.0 / counts[j] as f64;
            vector::scale(sums.row_mut(j), inv);
        }
        centroids = sums;
    }
    let inertia = (0..n)
        .map(|i| sq_dist(data.row(i), centroids.row(assignments[i])))
        .sum();
    KMeansFit {
        assignments,
        centroids,
        inertia,
        iterations,
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn farthest_point(data: &Matrix, centroids: &Matrix, assignments: &[usize]) -> usize {
    let mut best = 0;
    let mut best_d = -1.0;
    for i in 0..data.rows() {
        let d = sq_dist(data.row(i), centroids.row(assignments[i]));
        if d > best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// k-means++ seeding: first centroid uniform, subsequent proportional to
/// squared distance from the nearest chosen centroid.
fn plus_plus_init(data: &Matrix, k: usize, rng: &mut Rng) -> Matrix {
    let (n, d) = data.shape();
    let mut centroids = Matrix::zeros(k, d);
    let first = rng.below(n);
    centroids.set_row(0, data.row(first));
    let mut dist2: Vec<f64> = (0..n)
        .map(|i| sq_dist(data.row(i), centroids.row(0)))
        .collect();
    for j in 1..k {
        let total: f64 = dist2.iter().sum();
        let idx = if total <= 0.0 {
            rng.below(n)
        } else {
            rng.weighted_index(&dist2)
        };
        centroids.set_row(j, data.row(idx));
        for i in 0..n {
            let nd = sq_dist(data.row(i), centroids.row(j));
            if nd < dist2[i] {
                dist2[i] = nd;
            }
        }
    }
    centroids
}

/// Mean silhouette coefficient of a clustering (−1 … 1, higher = better
/// separated). Returns 0.0 when any cluster is a singleton-free edge case
/// that makes the score undefined (k = 1 or n ≤ k).
pub fn silhouette(data: &Matrix, assignments: &[usize], k: usize) -> f64 {
    let n = data.rows();
    if k < 2 || n <= k {
        return 0.0;
    }
    let mut total = 0.0;
    let mut counted = 0usize;
    let counts = {
        let mut c = vec![0usize; k];
        for &a in assignments {
            c[a] += 1;
        }
        c
    };
    for i in 0..n {
        let own = assignments[i];
        if counts[own] <= 1 {
            continue; // silhouette of a singleton is defined as 0; skip
        }
        // Mean distance to own cluster (a) and to closest other cluster (b).
        let mut sums = vec![0.0; k];
        for j in 0..n {
            if i == j {
                continue;
            }
            sums[assignments[j]] += sq_dist(data.row(i), data.row(j)).sqrt();
        }
        let a = sums[own] / (counts[own] as f64 - 1.0);
        let mut b = f64::INFINITY;
        for c in 0..k {
            if c != own && counts[c] > 0 {
                b = b.min(sums[c] / counts[c] as f64);
            }
        }
        let denom = a.max(b);
        if denom > 0.0 {
            total += (b - a) / denom;
            counted += 1;
        }
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Fit k-means for every `k` in `2..=k_max` and return `(best_fit, k)` by
/// silhouette score. This is the simulated user's "how many clusters do I
/// see" heuristic. A single row is one cluster: it returns the `k = 1`
/// fit.
///
/// # Panics
/// Panics if `data` has no rows.
pub fn choose_k(data: &Matrix, k_max: usize, rng: &mut Rng) -> (KMeansFit, usize) {
    if data.rows() < 2 {
        let one = KMeansOpts {
            k: 1,
            ..KMeansOpts::default()
        };
        return (kmeans(data, &one, rng), 1);
    }
    let k_max = k_max.min(data.rows() - 1).max(2);
    let mut best: Option<(KMeansFit, usize, f64)> = None;
    for k in 2..=k_max {
        let fit = kmeans(
            data,
            &KMeansOpts {
                k,
                ..KMeansOpts::default()
            },
            rng,
        );
        let s = silhouette(data, &fit.assignments, k);
        if best.as_ref().is_none_or(|(_, _, bs)| s > *bs) {
            best = Some((fit, k, s));
        }
    }
    let (fit, k, _) = best.unwrap();
    (fit, k)
}

/// Indices of the rows assigned to cluster `j`.
pub fn cluster_members(assignments: &[usize], j: usize) -> Vec<usize> {
    assignments
        .iter()
        .enumerate()
        .filter_map(|(i, &a)| (a == j).then_some(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs in 2-D.
    fn blobs(rng: &mut Rng) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..40 {
            rows.push(vec![rng.normal(0.0, 0.2), rng.normal(0.0, 0.2)]);
            labels.push(0);
        }
        for _ in 0..40 {
            rows.push(vec![rng.normal(5.0, 0.2), rng.normal(5.0, 0.2)]);
            labels.push(1);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn separates_two_blobs_perfectly() {
        let mut rng = Rng::seed_from_u64(1);
        let (data, labels) = blobs(&mut rng);
        let fit = kmeans(
            &data,
            &KMeansOpts {
                k: 2,
                ..Default::default()
            },
            &mut rng,
        );
        // Clustering should agree with labels up to relabeling.
        let a0 = fit.assignments[0];
        for (i, &l) in labels.iter().enumerate() {
            let expected = if l == 0 { a0 } else { 1 - a0 };
            assert_eq!(fit.assignments[i], expected, "row {i}");
        }
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let mut rng = Rng::seed_from_u64(2);
        let (data, _) = blobs(&mut rng);
        let f2 = kmeans(
            &data,
            &KMeansOpts {
                k: 2,
                ..Default::default()
            },
            &mut rng,
        );
        let f4 = kmeans(
            &data,
            &KMeansOpts {
                k: 4,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(f4.inertia <= f2.inertia);
    }

    #[test]
    fn k_equals_one_gives_grand_centroid() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![2.0, 2.0], vec![4.0, 4.0]]);
        let mut rng = Rng::seed_from_u64(3);
        let fit = kmeans(
            &data,
            &KMeansOpts {
                k: 1,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(fit.centroids.row(0), &[2.0, 2.0]);
        assert!(fit.assignments.iter().all(|&a| a == 0));
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![5.0]]);
        let mut rng = Rng::seed_from_u64(4);
        let fit = kmeans(
            &data,
            &KMeansOpts {
                k: 3,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(fit.inertia < 1e-18);
    }

    #[test]
    fn silhouette_high_for_separated_low_for_merged() {
        let mut rng = Rng::seed_from_u64(5);
        let (data, labels) = blobs(&mut rng);
        let good = silhouette(&data, &labels, 2);
        assert!(good > 0.8, "good {good}");
        // Random labels should score much worse.
        let bad_labels: Vec<usize> = (0..data.rows()).map(|i| i % 2).collect();
        let bad = silhouette(&data, &bad_labels, 2);
        assert!(bad < good - 0.5, "bad {bad} good {good}");
    }

    #[test]
    fn silhouette_degenerate_cases() {
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        assert_eq!(silhouette(&data, &[0, 0], 1), 0.0);
        assert_eq!(silhouette(&data, &[0, 1], 2), 0.0); // n <= k
    }

    #[test]
    fn choose_k_finds_two_blobs() {
        let mut rng = Rng::seed_from_u64(6);
        let (data, _) = blobs(&mut rng);
        let (_, k) = choose_k(&data, 6, &mut rng);
        assert_eq!(k, 2);
    }

    #[test]
    fn choose_k_finds_three_blobs() {
        let mut rng = Rng::seed_from_u64(7);
        let mut rows = Vec::new();
        for c in [[0.0, 0.0], [6.0, 0.0], [3.0, 6.0]] {
            for _ in 0..30 {
                rows.push(vec![rng.normal(c[0], 0.3), rng.normal(c[1], 0.3)]);
            }
        }
        let data = Matrix::from_rows(&rows);
        let (_, k) = choose_k(&data, 6, &mut rng);
        assert_eq!(k, 3);
    }

    #[test]
    fn choose_k_on_one_row_is_one_cluster() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let (fit, k) = choose_k(&data, 6, &mut Rng::seed_from_u64(1));
        assert_eq!(k, 1);
        assert_eq!(fit.assignments, vec![0]);
        assert_eq!(fit.centroids.row(0), data.row(0));
    }

    #[test]
    fn cluster_members_extracts_indices() {
        let a = [0, 1, 0, 2, 1];
        assert_eq!(cluster_members(&a, 0), vec![0, 2]);
        assert_eq!(cluster_members(&a, 1), vec![1, 4]);
        assert_eq!(cluster_members(&a, 3), Vec::<usize>::new());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = Rng::seed_from_u64(9);
        let mut r2 = Rng::seed_from_u64(9);
        let (data, _) = blobs(&mut r1);
        let mut r1b = Rng::seed_from_u64(10);
        let mut r2b = Rng::seed_from_u64(10);
        let (data2, _) = blobs(&mut r2);
        let f1 = kmeans(&data, &KMeansOpts::default(), &mut r1b);
        let f2 = kmeans(&data2, &KMeansOpts::default(), &mut r2b);
        assert_eq!(f1.assignments, f2.assignments);
    }

    #[test]
    #[should_panic(expected = "invalid k")]
    fn zero_k_panics() {
        let data = Matrix::from_rows(&[vec![0.0]]);
        let mut rng = Rng::seed_from_u64(1);
        let _ = kmeans(
            &data,
            &KMeansOpts {
                k: 0,
                ..Default::default()
            },
            &mut rng,
        );
    }
}
