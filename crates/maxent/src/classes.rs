//! Row equivalence classes (paper §II-A, first speed-up).
//!
//! Two rows affected by exactly the same constraints have identical natural
//! and dual parameters throughout the optimization, so the solver stores
//! parameters per *class* instead of per row. The number of classes depends
//! on how constraints overlap — not on `n` — which is what makes OPTIM's
//! runtime independent of the number of data points (Table II).

use crate::constraint::Constraint;
use std::collections::HashMap;

/// The partition of `[n]` into constraint-equivalence classes.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Class id of each row.
    pub class_of_row: Vec<u32>,
    /// Number of rows per class.
    pub class_counts: Vec<usize>,
    /// For each constraint `t`, the ids of the classes contained in `Iᵗ`
    /// together with their sizes. (A class is either fully inside `Iᵗ` or
    /// disjoint from it, by construction.)
    pub classes_of_constraint: Vec<Vec<(u32, usize)>>,
    /// One representative row per class (lowest index).
    pub representative: Vec<usize>,
}

/// Outcome of [`Partition::append`]: how the refinement relates the new
/// classes to the old ones.
///
/// Appending constraints only ever *splits* classes — two rows that end up
/// in different classes were either already separated or are now
/// distinguished by a new constraint — so every new class descends from
/// exactly one old class. Class ids of the old partition remain valid: a
/// split class keeps its id for the first sub-class encountered in row
/// order, and freshly created sub-classes get ids appended at the end.
/// That id stability is what lets the solver warm-start per-class
/// parameters and the background distribution reuse cached spectral
/// decompositions for untouched classes.
#[derive(Debug, Clone)]
pub struct Refinement {
    /// For every class of the *new* partition, the id of the old class it
    /// descends from. Classes that kept their id map to themselves.
    pub parent_of_class: Vec<u32>,
    /// Number of classes before the append.
    pub n_old_classes: usize,
}

impl Partition {
    /// Compute the partition induced by `constraints` on `n` rows.
    pub fn new(n: usize, constraints: &[Constraint]) -> Partition {
        // Constraint-membership signature per row.
        let mut memberships: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (t, c) in constraints.iter().enumerate() {
            for i in c.rows.iter() {
                memberships[i].push(t as u32);
            }
        }
        // Group rows by signature. Signatures are built in increasing t, so
        // they are already sorted and canonical.
        let mut class_ids: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut class_of_row = vec![0u32; n];
        let mut class_counts: Vec<usize> = Vec::new();
        let mut representative: Vec<usize> = Vec::new();
        let mut class_signature: Vec<Vec<u32>> = Vec::new();
        for (i, sig) in memberships.into_iter().enumerate() {
            let next_id = class_counts.len() as u32;
            let id = *class_ids.entry(sig.clone()).or_insert_with(|| {
                class_counts.push(0);
                representative.push(i);
                class_signature.push(sig);
                next_id
            });
            class_of_row[i] = id;
            class_counts[id as usize] += 1;
        }
        // Invert: classes touched by each constraint.
        let mut classes_of_constraint: Vec<Vec<(u32, usize)>> = vec![Vec::new(); constraints.len()];
        for (class, sig) in class_signature.iter().enumerate() {
            for &t in sig {
                classes_of_constraint[t as usize].push((class as u32, class_counts[class]));
            }
        }
        Partition {
            class_of_row,
            class_counts,
            classes_of_constraint,
            representative,
        }
    }

    /// Refine the partition in place after appending constraints.
    ///
    /// `constraints` is the *full* constraint list; `first_new` is the index
    /// of the first appended constraint (everything before it was already
    /// reflected in this partition). Only classes intersecting a new
    /// constraint's row set are split; the rest keep their ids, counts and
    /// representatives untouched. Cost is `O(n + Σ_t |Iᵗ_new| + k·classes)`,
    /// independent of the cost of a full rebuild's signature hashing over
    /// all constraints.
    pub fn append(&mut self, constraints: &[Constraint], first_new: usize) -> Refinement {
        let n_old = self.class_counts.len();
        let mut parent_of_class: Vec<u32> = (0..n_old as u32).collect();
        if first_new == constraints.len() {
            return Refinement {
                parent_of_class,
                n_old_classes: n_old,
            };
        }

        // Only rows covered by a new constraint can move: collect their
        // membership signatures over the new constraints (ascending row
        // order — row sets are sorted and signatures are built in
        // increasing t, so both orders are canonical).
        let mut sig_of_row: HashMap<usize, Vec<u32>> = HashMap::new();
        for (t, c) in constraints.iter().enumerate().skip(first_new) {
            for i in c.rows.iter() {
                sig_of_row.entry(i).or_default().push(t as u32);
            }
        }
        let mut covered: Vec<usize> = sig_of_row.keys().copied().collect();
        covered.sort_unstable();
        let mut covered_per_class = vec![0usize; n_old];
        for &i in &covered {
            covered_per_class[self.class_of_row[i] as usize] += 1;
        }

        // Whether a class is fully covered must be judged against its
        // *pre-append* size — `class_counts` is decremented while rows are
        // reassigned below, and reading it mid-mutation would let a
        // partially covered class masquerade as fully covered (merging
        // covered rows with the uncovered remainder).
        let fully_covered: Vec<bool> = (0..n_old)
            .map(|c| covered_per_class[c] == self.class_counts[c])
            .collect();

        // Group covered rows by (old class, signature). A class with
        // uncovered rows keeps its id for that remainder (so its cached
        // parameters stay addressed); a fully covered class keeps its id
        // for the first sub-class in row order (no id is ever orphaned).
        let mut sub_ids: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
        let mut old_id_taken = vec![false; n_old];
        let mut split_classes: Vec<u32> = Vec::new();
        for i in covered {
            let old = self.class_of_row[i];
            let sig = sig_of_row.remove(&i).expect("covered row has signature");
            let id = match sub_ids.entry((old, sig)) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let id = if fully_covered[old as usize] && !old_id_taken[old as usize] {
                        old_id_taken[old as usize] = true;
                        old
                    } else {
                        let id = self.class_counts.len() as u32;
                        self.class_counts.push(0);
                        parent_of_class.push(old);
                        self.representative.push(i);
                        if split_classes.last() != Some(&old) {
                            split_classes.push(old);
                        }
                        id
                    };
                    *e.insert(id)
                }
            };
            if id != old {
                self.class_counts[old as usize] -= 1;
                self.class_counts[id as usize] += 1;
                self.class_of_row[i] = id;
            }
        }

        // Repair representatives of split classes whose representative
        // row moved into a sub-class (one linear pass, only if needed).
        split_classes.sort_unstable();
        split_classes.dedup();
        let stale: Vec<u32> = split_classes
            .iter()
            .copied()
            .filter(|&c| {
                self.class_counts[c as usize] > 0
                    && self.class_of_row[self.representative[c as usize]] != c
            })
            .collect();
        if !stale.is_empty() {
            let mut pending: Vec<bool> = vec![false; self.class_counts.len()];
            for &c in &stale {
                pending[c as usize] = true;
            }
            for (i, &c) in self.class_of_row.iter().enumerate() {
                if pending[c as usize] {
                    self.representative[c as usize] = i;
                    pending[c as usize] = false;
                }
            }
        }

        // Old constraints referencing a split class: replace the class by
        // its descendants (remainder + sub-classes) and refresh counts.
        let descendants: Vec<(u32, Vec<u32>)> = split_classes
            .iter()
            .map(|&old| {
                let mut children: Vec<u32> = if self.class_counts[old as usize] > 0 {
                    vec![old]
                } else {
                    Vec::new()
                };
                children.extend(
                    (n_old..self.class_counts.len())
                        .filter(|&c| parent_of_class[c] == old)
                        .map(|c| c as u32),
                );
                (old, children)
            })
            .collect();
        for list in self.classes_of_constraint.iter_mut() {
            if !list
                .iter()
                .any(|&(c, _)| split_classes.binary_search(&c).is_ok())
            {
                continue;
            }
            let old_list = std::mem::take(list);
            for (class, size) in old_list {
                match split_classes.binary_search(&class) {
                    Err(_) => list.push((class, size)),
                    Ok(pos) => {
                        for &child in &descendants[pos].1 {
                            list.push((child, self.class_counts[child as usize]));
                        }
                    }
                }
            }
        }
        // New constraints: collect the (now fully-interior) classes of
        // their row sets directly.
        for c in &constraints[first_new..] {
            let mut seen: Vec<u32> = Vec::new();
            for i in c.rows.iter() {
                let class = self.class_of_row[i];
                if !seen.contains(&class) {
                    seen.push(class);
                }
            }
            self.classes_of_constraint.push(
                seen.into_iter()
                    .map(|class| (class, self.class_counts[class as usize]))
                    .collect(),
            );
        }

        Refinement {
            parent_of_class,
            n_old_classes: n_old,
        }
    }

    /// Number of equivalence classes.
    pub fn n_classes(&self) -> usize {
        self.class_counts.len()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.class_of_row.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::rowset::RowSet;
    use sider_linalg::Matrix;

    fn data(n: usize) -> Matrix {
        Matrix::from_fn(n, 2, |i, j| (i * 2 + j) as f64)
    }

    fn lin(data: &Matrix, rows: &[usize]) -> Constraint {
        Constraint::linear(data, RowSet::from_indices(rows), vec![1.0, 0.0], "t").unwrap()
    }

    #[test]
    fn no_constraints_one_class() {
        let p = Partition::new(5, &[]);
        assert_eq!(p.n_classes(), 1);
        assert_eq!(p.class_counts, vec![5]);
        assert!(p.class_of_row.iter().all(|&c| c == 0));
    }

    #[test]
    fn disjoint_clusters_make_disjoint_classes() {
        let d = data(6);
        let cs = vec![lin(&d, &[0, 1]), lin(&d, &[2, 3])];
        let p = Partition::new(6, &cs);
        // Classes: {0,1}, {2,3}, {4,5}.
        assert_eq!(p.n_classes(), 3);
        assert_eq!(p.class_of_row[0], p.class_of_row[1]);
        assert_eq!(p.class_of_row[2], p.class_of_row[3]);
        assert_ne!(p.class_of_row[0], p.class_of_row[2]);
        assert_ne!(p.class_of_row[0], p.class_of_row[4]);
    }

    #[test]
    fn overlapping_constraints_split_classes() {
        // Constraints over {0,1} and {1,2}: classes {0}, {1}, {2}, {3…}.
        let d = data(4);
        let cs = vec![lin(&d, &[0, 1]), lin(&d, &[1, 2])];
        let p = Partition::new(4, &cs);
        assert_eq!(p.n_classes(), 4);
        let ids: Vec<u32> = p.class_of_row.clone();
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[1], ids[2]);
        assert_ne!(ids[0], ids[2]);
    }

    #[test]
    fn full_row_constraints_do_not_split() {
        let d = data(5);
        let cs = vec![lin(&d, &[0, 1, 2, 3, 4]), lin(&d, &[0, 1, 2, 3, 4])];
        let p = Partition::new(5, &cs);
        assert_eq!(p.n_classes(), 1);
        assert_eq!(p.classes_of_constraint[0], vec![(0, 5)]);
        assert_eq!(p.classes_of_constraint[1], vec![(0, 5)]);
    }

    #[test]
    fn classes_of_constraint_cover_exactly_the_rowset() {
        let d = data(6);
        let cs = vec![lin(&d, &[0, 1, 2]), lin(&d, &[2, 3])];
        let p = Partition::new(6, &cs);
        for (t, c) in cs.iter().enumerate() {
            let covered: usize = p.classes_of_constraint[t].iter().map(|&(_, n)| n).sum();
            assert_eq!(covered, c.rows.len(), "constraint {t}");
            // Every listed class must be fully inside the row set.
            for &(class, _) in &p.classes_of_constraint[t] {
                for (row, &cl) in p.class_of_row.iter().enumerate() {
                    if cl == class {
                        assert!(c.rows.contains(row));
                    }
                }
            }
        }
    }

    #[test]
    fn representatives_belong_to_their_class() {
        let d = data(6);
        let cs = vec![lin(&d, &[0, 1, 2]), lin(&d, &[2, 3])];
        let p = Partition::new(6, &cs);
        for (class, &rep) in p.representative.iter().enumerate() {
            assert_eq!(p.class_of_row[rep] as usize, class);
        }
    }

    /// `append` must agree with a full rebuild up to class relabeling.
    fn assert_equivalent(incremental: &Partition, rebuilt: &Partition, n: usize, k: usize) {
        assert_eq!(incremental.n_classes(), rebuilt.n_classes());
        // Same grouping of rows.
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    incremental.class_of_row[i] == incremental.class_of_row[j],
                    rebuilt.class_of_row[i] == rebuilt.class_of_row[j],
                    "rows {i},{j} grouped differently"
                );
            }
        }
        // Same per-class bookkeeping under the relabeling.
        for class in 0..incremental.n_classes() {
            let rep = incremental.representative[class];
            assert_eq!(incremental.class_of_row[rep] as usize, class);
            let twin = rebuilt.class_of_row[rep] as usize;
            assert_eq!(incremental.class_counts[class], rebuilt.class_counts[twin]);
        }
        for t in 0..k {
            let mut a: Vec<usize> = incremental.classes_of_constraint[t]
                .iter()
                .map(|&(c, size)| {
                    assert_eq!(size, incremental.class_counts[c as usize]);
                    incremental.representative[c as usize]
                })
                .collect();
            let mut b: Vec<usize> = rebuilt.classes_of_constraint[t]
                .iter()
                .map(|&(c, _)| rebuilt.representative[c as usize])
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "constraint {t} covers different classes");
        }
    }

    #[test]
    fn append_matches_full_rebuild() {
        let d = data(10);
        let old = vec![lin(&d, &[0, 1, 2, 3]), lin(&d, &[3, 4, 5])];
        // Overlapping, nested, disjoint and full-cover appends.
        let new_sets: Vec<Vec<Constraint>> = vec![
            vec![lin(&d, &[0, 1])],
            vec![lin(&d, &[2, 3, 4]), lin(&d, &[7, 8])],
            vec![lin(&d, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9])],
            vec![lin(&d, &[9])],
        ];
        for new in new_sets {
            let mut all = old.clone();
            all.extend(new.iter().cloned());
            let mut incremental = Partition::new(10, &old);
            let refinement = incremental.append(&all, old.len());
            let rebuilt = Partition::new(10, &all);
            assert_equivalent(&incremental, &rebuilt, 10, all.len());
            // Refinement bookkeeping: parents are valid old classes, kept
            // ids map to themselves.
            assert_eq!(refinement.parent_of_class.len(), incremental.n_classes());
            for (class, &parent) in refinement.parent_of_class.iter().enumerate() {
                assert!((parent as usize) < refinement.n_old_classes);
                if class < refinement.n_old_classes {
                    assert_eq!(parent as usize, class);
                }
            }
        }
    }

    #[test]
    fn append_two_partial_covers_of_one_class_in_one_call() {
        // Regression: two new constraints each partially covering the same
        // old class, appended together. Judging "fully covered" against
        // counts mutated mid-append used to merge covered rows with the
        // uncovered remainder.
        let d = data(4);
        let old = vec![lin(&d, &[0, 1, 2])];
        let mut all = old.clone();
        all.push(lin(&d, &[0]));
        all.push(lin(&d, &[1]));
        let mut incremental = Partition::new(4, &old);
        incremental.append(&all, old.len());
        let rebuilt = Partition::new(4, &all);
        assert_eq!(incremental.n_classes(), 4);
        assert_equivalent(&incremental, &rebuilt, 4, all.len());
    }

    #[test]
    fn append_nothing_is_identity() {
        let d = data(6);
        let cs = vec![lin(&d, &[0, 1, 2]), lin(&d, &[2, 3])];
        let mut p = Partition::new(6, &cs);
        let before = p.clone();
        let refinement = p.append(&cs, cs.len());
        assert_eq!(refinement.parent_of_class.len(), refinement.n_old_classes);
        assert_eq!(p.class_of_row, before.class_of_row);
        assert_eq!(p.class_counts, before.class_counts);
        assert_eq!(p.classes_of_constraint, before.classes_of_constraint);
    }

    #[test]
    fn append_chain_matches_rebuild() {
        // Grow a constraint set one statement at a time (the interactive
        // usage pattern) and compare against rebuilds at every step.
        let d = data(12);
        let steps = [
            vec![0usize, 1, 2, 3, 4, 5],
            vec![4, 5, 6, 7],
            vec![0, 11],
            vec![6, 7, 8, 9, 10, 11],
        ];
        let mut all: Vec<Constraint> = Vec::new();
        let mut p = Partition::new(12, &all);
        for rows in &steps {
            let first_new = all.len();
            all.push(lin(&d, rows));
            p.append(&all, first_new);
            let rebuilt = Partition::new(12, &all);
            assert_equivalent(&p, &rebuilt, 12, all.len());
        }
    }

    #[test]
    fn counts_sum_to_n() {
        let d = data(9);
        let cs = vec![lin(&d, &[0, 1, 2, 3]), lin(&d, &[3, 4, 5]), lin(&d, &[8])];
        let p = Partition::new(9, &cs);
        assert_eq!(p.class_counts.iter().sum::<usize>(), 9);
        assert_eq!(p.n_rows(), 9);
    }
}
