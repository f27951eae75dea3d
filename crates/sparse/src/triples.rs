//! Coordinate-format (COO) sparse matrix storage.
//!
//! Triples are the interchange format of this crate: matrices are assembled
//! from `(row, col, value)` triples, redistributed across virtual ranks as
//! triples, and converted to [`crate::CsrMatrix`] for computation.

/// A sparse matrix in coordinate format.
///
/// Duplicate `(row, col)` entries are allowed until conversion to CSR, which
/// requires uniqueness.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    fn from_entries_validates_bounds() {
        let t = Triples::from_entries(2, 2, vec![(0, 0, 1), (1, 1, 2)]);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_entries_rejects_bad_bounds() {
        let _ = Triples::from_entries(2, 2, vec![(0, 5, 1)]);
    }
}
