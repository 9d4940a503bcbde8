//! Selection-agreement metrics.
//!
//! The paper's use cases report the **Jaccard index** between a user
//! selection and a ground-truth class (e.g. "Jaccard-index to class 0.928"
//! for the transcribed-conversations selection in §IV-B).

use std::collections::BTreeSet;

/// Jaccard index `|A ∩ B| / |A ∪ B|` between two index sets.
/// Returns 1.0 when both sets are empty (conventional).
pub fn jaccard(a: &[usize], b: &[usize]) -> f64 {
    let sa: BTreeSet<usize> = a.iter().copied().collect();
    let sb: BTreeSet<usize> = b.iter().copied().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

/// Jaccard index of a selection against every class of a labeling; entry
/// `c` is the Jaccard index between `selection` and `{i : labels[i] == c}`.
pub fn jaccard_per_class(selection: &[usize], labels: &[usize], n_classes: usize) -> Vec<f64> {
    (0..n_classes)
        .map(|c| {
            let class: Vec<usize> = labels
                .iter()
                .enumerate()
                .filter_map(|(i, &l)| (l == c).then_some(i))
                .collect();
            jaccard(selection, &class)
        })
        .collect()
}

/// Best-matching class for a selection: `(class, jaccard)`.
pub fn best_class_match(selection: &[usize], labels: &[usize], n_classes: usize) -> (usize, f64) {
    let js = jaccard_per_class(selection, labels, n_classes);
    let (c, j) = js
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(c, &j)| (c, j))
        .unwrap_or((0, 0.0));
    (c, j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_basic() {
        assert_eq!(jaccard(&[1, 2, 3], &[2, 3, 4]), 0.5);
        assert_eq!(jaccard(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard(&[1], &[2]), 0.0);
    }

    #[test]
    fn jaccard_empty_conventions() {
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&[1], &[]), 0.0);
    }

    #[test]
    fn jaccard_ignores_duplicates() {
        assert_eq!(jaccard(&[1, 1, 2], &[1, 2, 2]), 1.0);
    }

    #[test]
    fn jaccard_per_class_scores_each_class() {
        let labels = [0, 0, 1, 1, 2];
        let sel = [0, 1, 2];
        let js = jaccard_per_class(&sel, &labels, 3);
        assert_eq!(js[0], 2.0 / 3.0);
        assert_eq!(js[1], 0.25);
        assert_eq!(js[2], 0.0);
    }

    #[test]
    fn best_class_match_picks_maximum() {
        let labels = [0, 0, 1, 1, 1];
        let sel = [2, 3, 4];
        let (c, j) = best_class_match(&sel, &labels, 2);
        assert_eq!(c, 1);
        assert_eq!(j, 1.0);
    }
}
