//! Sets of row indices `I ⊆ [n]` parameterizing constraints.

use crate::error::MaxEntError;
use crate::Result;

/// An immutable, sorted, duplicate-free set of row indices.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RowSet {
    rows: Vec<u32>,
}

impl RowSet {
    /// Build from arbitrary indices (sorted and deduplicated).
    pub fn new(mut rows: Vec<u32>) -> Self {
        rows.sort_unstable();
        rows.dedup();
        RowSet { rows }
    }

    /// Build from `usize` indices.
    pub fn from_indices(indices: &[usize]) -> Self {
        RowSet::new(indices.iter().map(|&i| i as u32).collect())
    }

    /// The full row set `[0, n)`.
    pub fn all(n: usize) -> Self {
        RowSet {
            rows: (0..n as u32).collect(),
        }
    }

    /// Validate that every index is below `n` and the set is non-empty.
    pub fn validate(&self, n: usize) -> Result<()> {
        if self.rows.is_empty() {
            return Err(MaxEntError::EmptyRowSet);
        }
        if let Some(&max) = self.rows.last() {
            if max as usize >= n {
                return Err(MaxEntError::RowOutOfBounds {
                    row: max as usize,
                    n,
                });
            }
        }
        Ok(())
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, row: usize) -> bool {
        self.rows.binary_search(&(row as u32)).is_ok()
    }

    /// Iterate indices as `usize`.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.iter().map(|&r| r as usize)
    }

    /// Raw sorted indices.
    pub fn as_slice(&self) -> &[u32] {
        &self.rows
    }
}

impl FromIterator<usize> for RowSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        RowSet::new(iter.into_iter().map(|i| i as u32).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_and_dedups() {
        let s = RowSet::new(vec![3, 1, 3, 2, 1]);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn all_covers_range() {
        let s = RowSet::all(4);
        assert_eq!(s.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn contains_uses_membership() {
        let s = RowSet::from_indices(&[0, 5, 9]);
        assert!(s.contains(5));
        assert!(!s.contains(4));
    }

    #[test]
    fn validation_catches_empty_and_out_of_bounds() {
        assert_eq!(
            RowSet::new(vec![]).validate(3),
            Err(MaxEntError::EmptyRowSet)
        );
        assert_eq!(
            RowSet::from_indices(&[4]).validate(3),
            Err(MaxEntError::RowOutOfBounds { row: 4, n: 3 })
        );
        assert!(RowSet::from_indices(&[2]).validate(3).is_ok());
    }

    #[test]
    fn iteration_and_conversion() {
        let s = RowSet::from_indices(&[2, 0]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(s.iter().sum::<usize>(), 2);
    }

    #[test]
    fn from_iterator_collects() {
        let s: RowSet = (0..3).collect();
        assert_eq!(s.len(), 3);
    }
}
