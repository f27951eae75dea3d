//! Compressed sparse row (CSR) matrices.
//!
//! CSR is the local storage format used for all computation: every block of a
//! [`crate::DistMat2D`] is a `CsrMatrix`, and the local SpGEMM, filters,
//! transposes and reductions all operate on it.
//!
//! Every matrix is built one way, by the crate-private `Builder`: rows
//! handed over in order are written into arrays sized for the entries the
//! caller announces, and an unordered entry list is placed by a counting
//! pass over rows, with a column sort only for a row that is then out of
//! order.  The builder is the only code that writes `rowptr`, `colidx` and
//! `vals`, and it checks the invariants of every matrix it returns.

use crate::triples::Triples;

/// A sparse matrix in compressed sparse row format.
///
/// Invariants, checked whenever a matrix is built (in release builds too)
/// and by [`CsrMatrix::validate`]:
/// * `rowptr.len() == nrows + 1`, `rowptr[0] == 0`, non-decreasing;
/// * `colidx.len() == vals.len() == rowptr[nrows]`;
/// * within each row, column indices are strictly increasing (no duplicates)
///   and below `ncols`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<usize>,
    vals: Vec<T>,
}

/// A matrix under construction, and the one way a [`CsrMatrix`] is made.
///
/// Rows in order: [`Builder::new`] sizes the arrays for the entries the
/// caller announces, then [`Builder::row`] hands each row over in ascending
/// column order, or [`Builder::stack`] moves whole runs of rows.  An
/// unordered entry list goes through [`Builder::place`].  [`Builder::finish`]
/// checks the invariants.
#[derive(Debug)]
pub(crate) struct Builder<T> {
    m: CsrMatrix<T>,
}

impl<T> Builder<T> {
    /// An `nrows × ncols` matrix with room for `nnz` entries, its rows to be
    /// handed over in order.
    pub(crate) fn new(nrows: usize, ncols: usize, nnz: usize) -> Self {
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0);
        let (colidx, vals) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        Self { m: CsrMatrix { nrows, ncols, rowptr, colidx, vals } }
    }

    /// Append the next row, its `(column, value)` entries in ascending
    /// column order.
    pub(crate) fn row(&mut self, entries: impl IntoIterator<Item = (usize, T)>) {
        for (col, val) in entries {
            self.m.colidx.push(col);
            self.m.vals.push(val);
        }
        self.m.rowptr.push(self.m.colidx.len());
    }

    /// An `nrows × ncols` matrix of `parts`' rows, the rows of each part
    /// after those of the one before, moved into exactly sized arrays.
    pub(crate) fn stack(nrows: usize, ncols: usize, parts: Vec<Builder<T>>) -> Self {
        let mut out = Self::new(nrows, ncols, parts.iter().map(|p| p.m.colidx.len()).sum());
        for CsrMatrix { rowptr, colidx, vals, .. } in parts.into_iter().map(|p| p.m) {
            let base = out.m.colidx.len();
            out.m.rowptr.extend(rowptr[1..].iter().map(|end| base + end));
            out.m.colidx.extend(colidx);
            out.m.vals.extend(vals);
        }
        out
    }

    /// An `nrows × ncols` matrix of `entries`, in any order; `rowptr` comes
    /// in as [`row_counts`] over their rows.  Each entry goes to the next
    /// free slot of its row, so a row keeps the order its entries came in,
    /// and only a row that is then not in ascending column order is sorted.
    ///
    /// The values are collected in place from their slots, so where `T` is
    /// smaller than `Option<T>` they keep the slots' capacity: 20 bytes per
    /// 16-byte `OverlapEdge` in a transpose of `I`.  Exact transposes made
    /// `graph-tiling`'s input generation fault in fresh pages in most
    /// processes (EXPERIMENTS.md, "One CSR builder"), so only
    /// [`CsrMatrix::from_entries`] copies them to their exact size.
    fn place(
        nrows: usize,
        ncols: usize,
        mut rowptr: Vec<usize>,
        entries: impl IntoIterator<Item = (usize, usize, T)>,
    ) -> Self {
        // rowptr[r] becomes the start of row r, its next free slot.
        let mut nnz = 0;
        for at in &mut rowptr {
            (*at, nnz) = (nnz, nnz + *at);
        }
        let mut colidx = vec![0; nnz];
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(nnz).collect();
        for (r, c, v) in entries {
            (colidx[rowptr[r]], slots[rowptr[r]]) = (c, Some(v));
            rowptr[r] += 1;
        }
        // Each row's cursor now stands where the next row starts.
        rowptr.rotate_right(1);
        rowptr[0] = 0;
        for r in 0..nrows {
            let span = rowptr[r]..rowptr[r + 1];
            if !colidx[span.clone()].is_sorted() {
                let mut row: Vec<_> = span.clone().map(|at| (colidx[at], slots[at].take())).collect();
                row.sort_by_key(|&(c, _)| c);
                for (at, (c, v)) in span.zip(row) {
                    (colidx[at], slots[at]) = (c, v);
                }
            }
        }
        let vals = slots.into_iter().map(|v| v.expect("every slot is placed")).collect();
        Self { m: CsrMatrix { nrows, ncols, rowptr, colidx, vals } }
    }

    /// The matrix.
    ///
    /// # Panics
    /// Panics if an invariant does not hold: a row count other than the one
    /// announced, a column out of range, or a row whose columns do not
    /// strictly ascend (`duplicate coordinate` for a repeated one).
    pub(crate) fn finish(self) -> CsrMatrix<T> {
        if let Err(violation) = self.m.validate() {
            panic!("invalid CSR arrays: {violation}");
        }
        self.m
    }
}

/// The counting pass of [`Builder::place`]: `counts[r]` is the number of
/// `rows` equal to `r`, and `counts[nrows]` is 0.
fn row_counts(nrows: usize, rows: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut counts = vec![0; nrows + 1];
    for r in rows {
        counts[r] += 1;
    }
    counts
}

impl<T> CsrMatrix<T> {
    /// An empty (all-zero) `nrows x ncols` matrix.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        Builder::place(nrows, ncols, vec![0; nrows + 1], []).finish()
    }

    /// Build from `(row, col, value)` entries in any order, taken by value;
    /// duplicate coordinates are rejected.
    ///
    /// # Panics
    /// Panics if a coordinate is out of bounds, or if the entries contain
    /// duplicate `(row, col)` coordinates.
    pub fn from_entries(nrows: usize, ncols: usize, entries: Vec<(usize, usize, T)>) -> Self {
        let counts = row_counts(
            nrows,
            entries.iter().map(|&(r, c, _)| {
                assert!(r < nrows && c < ncols, "entry ({r},{c}) out of bounds {nrows}x{ncols}");
                r
            }),
        );
        // The values keep their slots' capacity; the list is gone once
        // placed, so the matrix takes an exactly sized copy of them.
        let mut m = Builder::place(nrows, ncols, counts, entries).finish();
        m.vals = m.vals.drain(..).collect();
        m
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
                if w[0] == w[1] {
                    return Err(format!("duplicate coordinate ({r}, {})", w[0]));
                }
                if w[0] > w[1] {
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
        let mut out = Builder::new(self.nrows, self.ncols, self.nnz());
        for r in 0..self.nrows {
            out.row(self.row(r).map(|(c, v)| (c, f(r, c, v))));
        }
        out.finish()
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

    /// Transpose (values cloned): the entries are placed by column, and
    /// arrive in each column in row order, so no row is sorted.
    pub fn transpose(&self) -> CsrMatrix<T> {
        let counts = row_counts(self.ncols, self.colidx.iter().copied());
        let entries = self.iter().map(|(r, c, v)| (c, r, v.clone()));
        Builder::place(self.ncols, self.nrows, counts, entries).finish()
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
        let span = |r: usize| {
            let row_cols = &self.colidx[self.rowptr[r]..self.rowptr[r + 1]];
            let lo = self.rowptr[r] + row_cols.partition_point(|&c| c < cols.start);
            lo..self.rowptr[r] + row_cols.partition_point(|&c| c < cols.end)
        };
        let nnz = (0..self.nrows).map(|r| span(r).len()).sum();
        let mut out = Builder::new(self.nrows, cols.len(), nnz);
        for r in 0..self.nrows {
            out.row(span(r).map(|at| (self.colidx[at] - cols.start, self.vals[at].clone())));
        }
        out.finish()
    }

    /// Keep only entries for which `pred` returns true (CombBLAS `Prune` keeps
    /// the complement of the pruned set; here the predicate selects survivors).
    /// `pred` is called once per entry, in CSR order; a bit per entry records
    /// its answer, and the survivors are then copied into exactly sized arrays.
    pub fn filter(&self, mut pred: impl FnMut(usize, usize, &T) -> bool) -> CsrMatrix<T> {
        let mut keep = vec![0u64; self.nnz().div_ceil(64)];
        for (at, (r, c, v)) in self.iter().enumerate() {
            keep[at / 64] |= u64::from(pred(r, c, v)) << (at % 64);
        }
        let len = keep.iter().map(|bits| bits.count_ones() as usize).sum();
        let mut out = Builder::new(self.nrows, self.ncols, len);
        let kept = |at: &usize| keep[at / 64] >> (at % 64) & 1 == 1;
        for r in 0..self.nrows {
            let row = (self.rowptr[r]..self.rowptr[r + 1]).filter(kept);
            out.row(row.map(|at| (self.colidx[at], self.vals[at].clone())));
        }
        out.finish()
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
    use crate::test_util::shuffle;
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
    #[should_panic(expected = "duplicate coordinate (1, 2)")]
    fn from_entries_rejects_duplicates_far_apart() {
        // Row 1 arrives out of order, other entries between its two (1, 2)s.
        let entries = vec![(1, 2, 1), (1, 0, 2), (0, 1, 3), (1, 3, 4), (2, 2, 5), (1, 2, 6)];
        let _ = CsrMatrix::from_entries(3, 4, entries);
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
    fn map_changes_values() {
        let m = small();
        let doubled = m.map(|_, _, v| v * 2);
        assert_eq!(doubled.values(), &[2, 4, 6, 8]);
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

    /// Up to 80 distinct coordinates of a 15 × 12 matrix, in an order
    /// shuffled from a drawn seed: most rows reach the builder out of order.
    fn arb_triples() -> impl Strategy<Value = Triples<i64>> {
        let coords = proptest::collection::btree_set((0usize..15, 0usize..12), 0..80);
        (coords, any::<u64>()).prop_map(|(coords, seed)| {
            let mut entries: Vec<_> = coords
                .into_iter()
                .enumerate()
                .map(|(i, (r, c))| (r, c, i as i64 + 1))
                .collect();
            shuffle(&mut entries, seed);
            Triples::from_entries(15, 12, entries)
        })
    }

    proptest! {
        #[test]
        fn prop_csr_roundtrip_preserves_everything(t in arb_triples()) {
            let m = CsrMatrix::from_triples(&t);
            prop_assert!(m.validate().is_ok());
            prop_assert_eq!(m.nnz(), t.nnz());
            for (r, c, v) in t.iter() {
                prop_assert_eq!(m.get(r, c), Some(v));
            }
            prop_assert_eq!(CsrMatrix::from_entries(15, 12, t.into_entries()), m);
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
