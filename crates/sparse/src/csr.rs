//! Compressed sparse row (CSR) matrices.
//!
//! CSR is the local storage format used for all computation: every block of a
//! [`crate::DistMat2D`] is a `CsrMatrix`, and the local SpGEMM, element-wise
//! kernels and reductions all operate on it.

use crate::triples::Triples;
use serde::{Deserialize, Serialize};

/// A sparse matrix in compressed sparse row format.
///
/// Invariants (checked in debug builds and by [`CsrMatrix::validate`]):
/// * `rowptr.len() == nrows + 1`, `rowptr[0] == 0`, non-decreasing;
/// * `colidx.len() == vals.len() == rowptr[nrows]`;
/// * within each row, column indices are strictly increasing (no duplicates).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<usize>,
    vals: Vec<T>,
}

impl<T> CsrMatrix<T> {
    /// An empty (all-zero) `nrows x ncols` matrix.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            rowptr: vec![0; nrows + 1],
            colidx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Build from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the CSR invariants do not hold.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<usize>,
        vals: Vec<T>,
    ) -> Self {
        let m = Self { nrows, ncols, rowptr, colidx, vals };
        m.validate().expect("invalid CSR arrays");
        m
    }

    /// Build from `(row, col, value)` entries, taken by value and sorted in
    /// place; duplicate coordinates are rejected.
    ///
    /// # Panics
    /// Panics if a coordinate is out of bounds, or if the entries contain
    /// duplicate `(row, col)` coordinates — use [`Triples::merge_duplicates`]
    /// first if duplicates are expected.
    pub fn from_entries(nrows: usize, ncols: usize, entries: Vec<(usize, usize, T)>) -> Self {
        // `Triples::from_entries` is the bounds check.
        let mut entries = Triples::from_entries(nrows, ncols, entries).into_entries();
        entries.sort_by_key(|a| (a.0, a.1));
        for w in entries.windows(2) {
            assert!(
                (w[0].0, w[0].1) != (w[1].0, w[1].1),
                "duplicate coordinate ({}, {}) in triples",
                w[0].0,
                w[0].1
            );
        }
        let mut rowptr = vec![0usize; nrows + 1];
        for (r, _, _) in &entries {
            rowptr[r + 1] += 1;
        }
        for r in 0..nrows {
            rowptr[r + 1] += rowptr[r];
        }
        let mut colidx = Vec::with_capacity(entries.len());
        let mut vals = Vec::with_capacity(entries.len());
        for (_, c, v) in entries {
            colidx.push(c);
            vals.push(v);
        }
        Self { nrows, ncols, rowptr, colidx, vals }
    }

    /// Check the CSR invariants, returning a description of the first
    /// violation if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.rowptr.len() != self.nrows + 1 {
            return Err(format!(
                "rowptr length {} != nrows+1 {}",
                self.rowptr.len(),
                self.nrows + 1
            ));
        }
        if self.rowptr[0] != 0 {
            return Err("rowptr[0] != 0".into());
        }
        if *self.rowptr.last().unwrap() != self.colidx.len() {
            return Err("rowptr[nrows] != colidx.len()".into());
        }
        if self.colidx.len() != self.vals.len() {
            return Err("colidx and vals length mismatch".into());
        }
        for r in 0..self.nrows {
            if self.rowptr[r] > self.rowptr[r + 1] {
                return Err(format!("rowptr decreases at row {r}"));
            }
            let row = &self.colidx[self.rowptr[r]..self.rowptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {r} has unsorted or duplicate columns"));
                }
            }
            if let Some(&last) = row.last() {
                if last >= self.ncols {
                    return Err(format!("row {r} has column {last} >= ncols {}", self.ncols));
                }
            }
        }
        Ok(())
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// Whether the matrix stores no entries.
    pub fn is_empty(&self) -> bool {
        self.colidx.is_empty()
    }

    /// The row pointer array.
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// The column index array.
    pub fn colidx(&self) -> &[usize] {
        &self.colidx
    }

    /// The value array.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Iterate over one row as `(col, &value)` pairs.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, &T)> {
        let range = self.rowptr[r]..self.rowptr[r + 1];
        self.colidx[range.clone()].iter().copied().zip(self.vals[range].iter())
    }

    /// Iterate over the entries of row `r` with `col >= min_col` (binary
    /// search on the sorted column list — the symmetric `A·Aᵀ` kernel walks
    /// only the upper triangle this way).
    pub fn row_from(&self, r: usize, min_col: usize) -> impl Iterator<Item = (usize, &T)> {
        let range = self.rowptr[r]..self.rowptr[r + 1];
        let cols = &self.colidx[range.clone()];
        let start = range.start + cols.partition_point(|&c| c < min_col);
        self.colidx[start..range.end].iter().copied().zip(self.vals[start..range.end].iter())
    }

    /// Number of entries in one row.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.rowptr[r + 1] - self.rowptr[r]
    }

    /// Iterate over all entries as `(row, col, &value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        (0..self.nrows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Consume the matrix, yielding owned `(row, col, value)` entries.
    ///
    /// Lets a reduction move values out instead of cloning them while the
    /// source matrix stays resident — the matrix's storage is dropped as soon
    /// as the iterator is.
    pub fn into_entries(self) -> impl Iterator<Item = (usize, usize, T)> {
        let Self { rowptr, colidx, vals, .. } = self;
        let mut row = 0usize;
        colidx.into_iter().zip(vals).enumerate().map(move |(i, (c, v))| {
            while rowptr[row + 1] <= i {
                row += 1;
            }
            (row, c, v)
        })
    }

    /// Look up the value at `(row, col)` (binary search within the row).
    pub fn get(&self, row: usize, col: usize) -> Option<&T> {
        let range = self.rowptr[row]..self.rowptr[row + 1];
        let cols = &self.colidx[range.clone()];
        cols.binary_search(&col).ok().map(|i| &self.vals[range.start + i])
    }

    /// The sorted `(row, col)` sparsity pattern.
    pub fn pattern(&self) -> Vec<(usize, usize)> {
        self.iter().map(|(r, c, _)| (r, c)).collect()
    }

    /// Map values (same pattern, new value type).
    pub fn map<U>(&self, mut f: impl FnMut(usize, usize, &T) -> U) -> CsrMatrix<U> {
        let mut vals = Vec::with_capacity(self.nnz());
        for (r, c, v) in self.iter() {
            vals.push(f(r, c, v));
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr: self.rowptr.clone(),
            colidx: self.colidx.clone(),
            vals,
        }
    }

    /// Apply a function to every value in place (CombBLAS `Apply`).
    pub fn apply_mut(&mut self, mut f: impl FnMut(usize, usize, &mut T)) {
        for r in 0..self.nrows {
            for i in self.rowptr[r]..self.rowptr[r + 1] {
                let c = self.colidx[i];
                f(r, c, &mut self.vals[i]);
            }
        }
    }
}

impl<T: Clone> CsrMatrix<T> {
    /// [`CsrMatrix::from_entries`] on a borrowed triple list (values cloned).
    pub fn from_triples(triples: &Triples<T>) -> Self {
        Self::from_entries(triples.nrows(), triples.ncols(), triples.entries().to_vec())
    }

    /// Convert back to triples (values cloned).
    pub fn to_triples(&self) -> Triples<T> {
        let mut t = Triples::new(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            t.push(r, c, v.clone());
        }
        t
    }

    /// Transpose (values cloned).
    pub fn transpose(&self) -> CsrMatrix<T> {
        // Counting sort by column.
        let mut rowptr = vec![0usize; self.ncols + 1];
        for &c in &self.colidx {
            rowptr[c + 1] += 1;
        }
        for c in 0..self.ncols {
            rowptr[c + 1] += rowptr[c];
        }
        let mut next = rowptr.clone();
        let mut colidx = vec![0usize; self.nnz()];
        let mut vals: Vec<Option<T>> = vec![None; self.nnz()];
        for (r, c, v) in self.iter() {
            let slot = next[c];
            colidx[slot] = r;
            vals[slot] = Some(v.clone());
            next[c] += 1;
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            rowptr,
            colidx,
            vals: vals.into_iter().map(|v| v.expect("transpose slot unfilled")).collect(),
        }
    }

    /// Extract the contiguous column range `cols` as an `nrows × cols.len()`
    /// matrix with column indices rebased to the slice.
    ///
    /// Within each CSR row the column indices are sorted, so the slice
    /// boundaries are found with two binary searches per row — no transpose
    /// round-trip, which is how the 1D outer-product algorithm carves its
    /// per-rank column blocks.
    pub fn slice_col_range(&self, cols: std::ops::Range<usize>) -> CsrMatrix<T> {
        assert!(cols.end <= self.ncols, "column slice out of bounds");
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colidx = Vec::new();
        let mut vals = Vec::new();
        for r in 0..self.nrows {
            let row_cols = &self.colidx[self.rowptr[r]..self.rowptr[r + 1]];
            let lo = self.rowptr[r] + row_cols.partition_point(|&c| c < cols.start);
            let hi = self.rowptr[r] + row_cols.partition_point(|&c| c < cols.end);
            for i in lo..hi {
                colidx.push(self.colidx[i] - cols.start);
                vals.push(self.vals[i].clone());
            }
            rowptr.push(colidx.len());
        }
        CsrMatrix { nrows: self.nrows, ncols: cols.len(), rowptr, colidx, vals }
    }

    /// Keep only entries for which `pred` returns true (CombBLAS `Prune` keeps
    /// the complement of the pruned set; here the predicate selects survivors).
    pub fn filter(&self, mut pred: impl FnMut(usize, usize, &T) -> bool) -> CsrMatrix<T> {
        let mut t = Triples::new(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            if pred(r, c, v) {
                t.push(r, c, v.clone());
            }
        }
        CsrMatrix::from_triples(&t)
    }

    /// Reduce every row with `f`, starting from `None` (empty rows give `None`).
    ///
    /// This is CombBLAS `Reduce(Row, op)`: the result has one slot per row.
    pub fn reduce_rows<U>(
        &self,
        mut map: impl FnMut(usize, usize, &T) -> U,
        mut combine: impl FnMut(U, U) -> U,
    ) -> Vec<Option<U>> {
        let mut out: Vec<Option<U>> = Vec::with_capacity(self.nrows);
        for r in 0..self.nrows {
            let mut acc: Option<U> = None;
            for (c, v) in self.row(r) {
                let x = map(r, c, v);
                acc = Some(match acc {
                    None => x,
                    Some(a) => combine(a, x),
                });
            }
            out.push(acc);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> CsrMatrix<i64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let t = Triples::from_entries(3, 3, vec![(0, 0, 1), (0, 2, 2), (2, 0, 3), (2, 1, 4)]);
        CsrMatrix::from_triples(&t)
    }

    #[test]
    fn from_triples_builds_valid_csr() {
        let m = small();
        assert!(m.validate().is_ok());
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.rowptr(), &[0, 2, 2, 4]);
        assert_eq!(m.colidx(), &[0, 2, 0, 1]);
        assert_eq!(m.values(), &[1, 2, 3, 4]);
    }

    #[test]
    fn into_entries_matches_borrowed_iteration() {
        let m = small();
        let borrowed: Vec<(usize, usize, i64)> =
            m.iter().map(|(r, c, v)| (r, c, *v)).collect();
        let owned: Vec<(usize, usize, i64)> = m.into_entries().collect();
        assert_eq!(owned, borrowed);
        // Empty matrix and empty-leading/trailing-row edge cases.
        assert_eq!(CsrMatrix::<i64>::zero(3, 3).into_entries().count(), 0);
        let t = Triples::from_entries(4, 2, vec![(2, 1, 9)]);
        let entries: Vec<_> = CsrMatrix::from_triples(&t).into_entries().collect();
        assert_eq!(entries, vec![(2, 1, 9)]);
    }

    #[test]
    fn get_finds_entries_and_misses() {
        let m = small();
        assert_eq!(m.get(0, 2), Some(&2));
        assert_eq!(m.get(2, 1), Some(&4));
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.get(0, 1), None);
    }

    #[test]
    fn row_iteration_is_sorted() {
        let m = small();
        let row0: Vec<_> = m.row(0).map(|(c, v)| (c, *v)).collect();
        assert_eq!(row0, vec![(0, 1), (2, 2)]);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_nnz(2), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate coordinate")]
    fn from_triples_rejects_duplicates() {
        let t = Triples::from_entries(2, 2, vec![(0, 0, 1), (0, 0, 2)]);
        let _ = CsrMatrix::<i64>::from_triples(&t);
    }

    #[test]
    fn transpose_matches_manual() {
        let m = small();
        let t = m.transpose();
        assert!(t.validate().is_ok());
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(0, 0), Some(&1));
        assert_eq!(t.get(2, 0), Some(&2));
        assert_eq!(t.get(0, 2), Some(&3));
        assert_eq!(t.get(1, 2), Some(&4));
        assert_eq!(t.nnz(), 4);
    }

    #[test]
    fn filter_prunes_entries() {
        let m = small();
        let f = m.filter(|_, _, v| *v >= 3);
        assert_eq!(f.nnz(), 2);
        assert_eq!(f.pattern(), vec![(2, 0), (2, 1)]);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn map_and_apply_mut_change_values() {
        let m = small();
        let doubled = m.map(|_, _, v| v * 2);
        assert_eq!(doubled.values(), &[2, 4, 6, 8]);
        let mut m2 = small();
        m2.apply_mut(|r, c, v| *v += (r + c) as i64);
        assert_eq!(m2.get(2, 1), Some(&7));
    }

    #[test]
    fn reduce_rows_max() {
        let m = small();
        let maxes = m.reduce_rows(|_, _, v| *v, i64::max);
        assert_eq!(maxes, vec![Some(2), None, Some(4)]);
    }

    #[test]
    fn zero_matrix_is_valid_and_empty() {
        let z = CsrMatrix::<u32>::zero(5, 7);
        assert!(z.validate().is_ok());
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.nrows(), 5);
        assert_eq!(z.ncols(), 7);
        assert!(z.iter().next().is_none());
    }

    #[test]
    fn to_triples_roundtrip() {
        let m = small();
        let back = CsrMatrix::from_triples(&m.to_triples());
        assert_eq!(m, back);
    }

    #[test]
    fn slice_col_range_rebases_columns() {
        let m = small();
        let s = m.slice_col_range(1..3);
        assert_eq!(s.nrows(), 3);
        assert_eq!(s.ncols(), 2);
        assert_eq!(s.get(0, 1), Some(&2), "column 2 rebased to 1");
        assert_eq!(s.get(2, 0), Some(&4), "column 1 rebased to 0");
        assert_eq!(s.nnz(), 2);
        assert!(s.validate().is_ok());
        let empty = m.slice_col_range(1..1);
        assert_eq!((empty.ncols(), empty.nnz()), (0, 0));
    }

    fn arb_triples() -> impl Strategy<Value = Triples<i64>> {
        proptest::collection::btree_set((0usize..15, 0usize..12), 0..80).prop_map(|coords| {
            let entries: Vec<_> = coords
                .into_iter()
                .enumerate()
                .map(|(i, (r, c))| (r, c, i as i64 + 1))
                .collect();
            Triples::from_entries(15, 12, entries)
        })
    }

    proptest! {
        #[test]
        fn prop_csr_roundtrip_preserves_everything(t in arb_triples()) {
            let m = CsrMatrix::from_triples(&t);
            prop_assert!(m.validate().is_ok());
            prop_assert_eq!(m.nnz(), t.nnz());
            let mut sorted = t.clone();
            sorted.sort();
            let back = m.to_triples();
            prop_assert_eq!(back.entries(), sorted.entries());
        }

        #[test]
        fn prop_transpose_involution(t in arb_triples()) {
            let m = CsrMatrix::from_triples(&t);
            let tt = m.transpose().transpose();
            prop_assert_eq!(m, tt);
        }

        #[test]
        fn prop_col_slices_partition_the_matrix(t in arb_triples(), split in 0usize..=12) {
            let m = CsrMatrix::from_triples(&t);
            let left = m.slice_col_range(0..split);
            let right = m.slice_col_range(split..m.ncols());
            prop_assert!(left.validate().is_ok());
            prop_assert!(right.validate().is_ok());
            prop_assert_eq!(left.nnz() + right.nnz(), m.nnz());
            for (r, c, v) in m.iter() {
                let found = if c < split {
                    left.get(r, c)
                } else {
                    right.get(r, c - split)
                };
                prop_assert_eq!(found, Some(v));
            }
        }

        #[test]
        fn prop_row_from_is_the_row_filtered_by_min_col(t in arb_triples(), min_col in 0usize..=13) {
            let m = CsrMatrix::from_triples(&t);
            for r in 0..m.nrows() {
                let tail: Vec<_> = m.row_from(r, min_col).collect();
                let filtered: Vec<_> = m.row(r).filter(|&(c, _)| c >= min_col).collect();
                prop_assert_eq!(tail, filtered, "row {}", r);
            }
        }

        #[test]
        fn prop_transpose_preserves_values_at_swapped_coords(t in arb_triples()) {
            let m = CsrMatrix::from_triples(&t);
            let tr = m.transpose();
            prop_assert!(tr.validate().is_ok());
            for (r, c, v) in m.iter() {
                prop_assert_eq!(tr.get(c, r), Some(v));
            }
        }
    }
}
