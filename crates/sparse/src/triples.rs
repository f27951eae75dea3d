//! Coordinate-format (COO) sparse matrix storage.
//!
//! Triples are the interchange format of this crate: matrices are assembled
//! from `(row, col, value)` triples, redistributed across virtual ranks as
//! triples, and converted to [`crate::CsrMatrix`] for computation.

use serde::{Deserialize, Serialize};

/// A sparse matrix in coordinate format.
///
/// Duplicate `(row, col)` entries are allowed until conversion to CSR, which
/// requires uniqueness.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Triples<T> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T> Triples<T> {
    /// Create an empty triple list for an `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, entries: Vec::new() }
    }

    /// Create from an existing list of `(row, col, value)` entries.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_entries(nrows: usize, ncols: usize, entries: Vec<(usize, usize, T)>) -> Self {
        for (r, c, _) in &entries {
            assert!(*r < nrows && *c < ncols, "entry ({r},{c}) out of bounds {nrows}x{ncols}");
        }
        Self { nrows, ncols, entries }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (including duplicates, if any).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no stored entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append one entry.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        assert!(
            row < self.nrows && col < self.ncols,
            "entry ({row},{col}) out of bounds {}x{}",
            self.nrows,
            self.ncols
        );
        self.entries.push((row, col, value));
    }

    /// Borrow the entries.
    pub fn entries(&self) -> &[(usize, usize, T)] {
        &self.entries
    }

    /// Consume and return the entries.
    pub fn into_entries(self) -> Vec<(usize, usize, T)> {
        self.entries
    }

    /// Iterate over `(row, col, &value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        self.entries.iter().map(|(r, c, v)| (*r, *c, v))
    }

    /// Sort entries by `(row, col)`.
    pub fn sort(&mut self) {
        self.entries.sort_by_key(|a| (a.0, a.1));
    }

    /// Map values to a new type, keeping the sparsity pattern.
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Triples<U> {
        Triples {
            nrows: self.nrows,
            ncols: self.ncols,
            entries: self.entries.into_iter().map(|(r, c, v)| (r, c, f(v))).collect(),
        }
    }

    /// Keep only the entries for which `pred(row, col, &value)` is true.
    pub fn retain(&mut self, mut pred: impl FnMut(usize, usize, &T) -> bool) {
        self.entries.retain(|(r, c, v)| pred(*r, *c, v));
    }

    /// Swap rows and columns (transpose), preserving values.
    pub fn transpose(self) -> Triples<T> {
        Triples {
            nrows: self.ncols,
            ncols: self.nrows,
            entries: self.entries.into_iter().map(|(r, c, v)| (c, r, v)).collect(),
        }
    }
}

impl<T: Clone> Triples<T> {
    /// The set of `(row, col)` coordinates, sorted.
    pub fn pattern(&self) -> Vec<(usize, usize)> {
        let mut p: Vec<(usize, usize)> = self.entries.iter().map(|(r, c, _)| (*r, *c)).collect();
        p.sort_unstable();
        p
    }
}

impl<T> Extend<(usize, usize, T)> for Triples<T> {
    fn extend<I: IntoIterator<Item = (usize, usize, T)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_and_iter_roundtrip() {
        let mut t = Triples::new(3, 4);
        t.push(0, 1, 10);
        t.push(2, 3, 20);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 4);
        let collected: Vec<_> = t.iter().map(|(r, c, v)| (r, c, *v)).collect();
        assert_eq!(collected, vec![(0, 1, 10), (2, 3, 20)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut t = Triples::new(2, 2);
        t.push(2, 0, 1);
    }

    #[test]
    fn transpose_swaps_coordinates_and_dims() {
        let mut t = Triples::new(2, 5);
        t.push(1, 4, 7);
        t.push(0, 2, 3);
        let tt = t.transpose();
        assert_eq!(tt.nrows(), 5);
        assert_eq!(tt.ncols(), 2);
        assert_eq!(tt.pattern(), vec![(2, 0), (4, 1)]);
    }

    #[test]
    fn map_changes_value_type() {
        let mut t = Triples::new(1, 3);
        t.push(0, 0, 2u32);
        t.push(0, 2, 4u32);
        let m = t.map(|v| v as f64 * 1.5);
        let vals: Vec<f64> = m.iter().map(|(_, _, v)| *v).collect();
        assert_eq!(vals, vec![3.0, 6.0]);
    }

    #[test]
    fn retain_filters_entries() {
        let mut t = Triples::new(4, 4);
        for i in 0..4 {
            t.push(i, i, i as u64);
        }
        t.retain(|_, _, v| *v % 2 == 0);
        assert_eq!(t.pattern(), vec![(0, 0), (2, 2)]);
    }

    #[test]
    fn from_entries_validates_bounds() {
        let t = Triples::from_entries(2, 2, vec![(0, 0, 1), (1, 1, 2)]);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_entries_rejects_bad_bounds() {
        let _ = Triples::from_entries(2, 2, vec![(0, 5, 1)]);
    }

    proptest! {
        #[test]
        fn prop_transpose_is_involution(
            entries in proptest::collection::vec((0usize..20, 0usize..30, 0i64..100), 0..200)
        ) {
            let mut t = Triples::new(20, 30);
            for (r, c, v) in entries {
                t.push(r, c, v);
            }
            let back = t.clone().transpose().transpose();
            prop_assert_eq!(t.pattern(), back.pattern());
            prop_assert_eq!(t.nrows(), back.nrows());
            prop_assert_eq!(t.ncols(), back.ncols());
        }
    }
}
