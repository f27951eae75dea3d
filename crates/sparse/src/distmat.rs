//! 2D block-distributed sparse matrices.
//!
//! CombBLAS distributes every matrix over a `sqrt(P) x sqrt(P)` process grid;
//! processor `(i, j)` owns the block of rows `row_dist.range(i)` and columns
//! `col_dist.range(j)`.  [`DistMat2D`] reproduces that layout over the virtual
//! ranks of a [`ProcessGrid`]: each rank's block is an ordinary local
//! [`CsrMatrix`] addressed with block-local indices.

use crate::csr::CsrMatrix;
use crate::triples::Triples;
use dibella_dist::{par_ranks, BlockDist, ProcessGrid};
use rayon::pool;
use serde::{Deserialize, Serialize};

/// A sparse matrix block-distributed over a 2D process grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistMat2D<T> {
    grid: ProcessGrid,
    nrows: usize,
    ncols: usize,
    row_dist: BlockDist,
    col_dist: BlockDist,
    /// One CSR block per rank, indexed by `grid.rank_of(block_row, block_col)`.
    blocks: Vec<CsrMatrix<T>>,
}

impl<T: Clone + Send + Sync> DistMat2D<T> {
    /// Distribute `triples` (with global coordinates) over `grid`.
    pub fn from_triples(grid: ProcessGrid, triples: &Triples<T>) -> Self {
        let nrows = triples.nrows();
        let ncols = triples.ncols();
        let row_dist = BlockDist::new(nrows, grid.rows());
        let col_dist = BlockDist::new(ncols, grid.cols());

        // Route every entry to its owner block.
        let mut per_rank: Vec<Vec<(usize, usize, T)>> =
            (0..grid.nprocs()).map(|_| Vec::new()).collect();
        for (r, c, v) in triples.iter() {
            let bi = row_dist.owner(r);
            let bj = col_dist.owner(c);
            let rank = grid.rank_of(bi, bj);
            per_rank[rank].push((r - row_dist.start(bi), c - col_dist.start(bj), v.clone()));
        }

        // Build the local CSR blocks in parallel, each from its own routed
        // entries by value.
        let blocks: Vec<CsrMatrix<T>> = pool::map_owned(per_rank, |rank, local| {
            let (bi, bj) = grid.coords(rank);
            CsrMatrix::from_entries(row_dist.size(bi), col_dist.size(bj), local)
        });

        Self { grid, nrows, ncols, row_dist, col_dist, blocks }
    }

    /// Assemble a matrix row by row, straight into its blocks: no triple list,
    /// no routing pass, no sort.  `fill_row(r, &mut row)` leaves row `r`'s
    /// `(column, value)` entries in `row` (handed over empty) in strictly
    /// ascending column order.
    ///
    /// Each grid row is cut into `⌈scan_ranks / grid.rows()⌉` runs of
    /// consecutive rows, scanned in parallel.  A run appends every row to raw
    /// CSR arrays, one set per grid column, so rows and columns arrive in
    /// order and nothing is ever sorted; a block is its grid row's runs
    /// concatenated into exactly-sized arrays.  The result does not depend on
    /// `scan_ranks`.
    ///
    /// # Panics
    /// Panics if a column is out of range or a row is not strictly ascending
    /// (the latter through the validation of [`CsrMatrix::from_raw`]).
    pub fn from_sorted_rows(
        grid: ProcessGrid,
        nrows: usize,
        ncols: usize,
        scan_ranks: usize,
        fill_row: impl Fn(usize, &mut Vec<(usize, T)>) + Sync,
    ) -> Self {
        let row_dist = BlockDist::new(nrows, grid.rows());
        let col_dist = BlockDist::new(ncols, grid.cols());
        let runs_per_row = scan_ranks.div_ceil(grid.rows()).max(1);
        let col_starts: Vec<usize> =
            (0..grid.cols()).map(|bj| col_dist.start(bj)).chain([ncols]).collect();

        // Per run and grid column: (row ends, block-local columns, values).
        type Raw<T> = (Vec<usize>, Vec<usize>, Vec<T>);
        let scanned: Vec<Vec<Raw<T>>> = par_ranks(grid.rows() * runs_per_row, |run| {
            let bi = run / runs_per_row;
            let rows = BlockDist::new(row_dist.size(bi), runs_per_row).range(run % runs_per_row);
            let mut parts: Vec<Raw<T>> =
                (0..grid.cols()).map(|_| (Vec::new(), Vec::new(), Vec::new())).collect();
            let mut row = Vec::new();
            for r in rows {
                fill_row(row_dist.start(bi) + r, &mut row);
                // Columns ascend, so the block cursor only moves forward (no
                // division per entry); a row out of order wraps a column
                // past `ncols` here and is rejected by `from_raw` below.
                let mut bj = 0;
                for (c, v) in row.drain(..) {
                    assert!(c < ncols, "column {c} out of range ({ncols} columns)");
                    while c >= col_starts[bj + 1] {
                        bj += 1;
                    }
                    parts[bj].1.push(c.wrapping_sub(col_starts[bj]));
                    parts[bj].2.push(v);
                }
                for (ends, cols, _) in &mut parts {
                    ends.push(cols.len());
                }
            }
            parts
        });

        // Hand every block its parts, in row order.
        let mut per_block: Vec<Vec<Raw<T>>> = (0..grid.nprocs()).map(|_| Vec::new()).collect();
        for (run, parts) in scanned.into_iter().enumerate() {
            for (bj, part) in parts.into_iter().enumerate() {
                per_block[grid.rank_of(run / runs_per_row, bj)].push(part);
            }
        }
        let blocks = pool::map_owned(per_block, |rank, parts| {
            let (bi, bj) = grid.coords(rank);
            let nnz = parts.iter().map(|(_, cols, _)| cols.len()).sum();
            let mut rowptr = Vec::with_capacity(row_dist.size(bi) + 1);
            let (mut colidx, mut vals) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
            rowptr.push(0);
            for (ends, cols, more) in parts {
                let base = colidx.len();
                rowptr.extend(ends.into_iter().map(|end| base + end));
                colidx.extend(cols);
                vals.extend(more);
            }
            CsrMatrix::from_raw(row_dist.size(bi), col_dist.size(bj), rowptr, colidx, vals)
        });
        Self::from_blocks(grid, nrows, ncols, blocks)
    }

    /// An all-zero distributed matrix with the given global dimensions.
    pub fn zero(grid: ProcessGrid, nrows: usize, ncols: usize) -> Self {
        Self::from_triples(grid, &Triples::new(nrows, ncols))
    }

    /// Assemble a distributed matrix from already-built per-rank blocks, **by
    /// value** (no clone): `blocks[rank]` becomes the block of grid position
    /// `grid.coords(rank)`.  This is the constructor the SUMMA kernels and
    /// the block-wise element-wise operations use, since their `par_ranks`
    /// loop already produces the blocks in rank order.
    ///
    /// # Panics
    /// Panics if the block count or any block's dimensions do not match the
    /// distribution.
    pub fn from_blocks(
        grid: ProcessGrid,
        nrows: usize,
        ncols: usize,
        blocks: Vec<CsrMatrix<T>>,
    ) -> Self {
        let row_dist = BlockDist::new(nrows, grid.rows());
        let col_dist = BlockDist::new(ncols, grid.cols());
        assert_eq!(blocks.len(), grid.nprocs(), "one block per rank required");
        for (rank, block) in blocks.iter().enumerate() {
            let (bi, bj) = grid.coords(rank);
            assert_eq!(block.nrows(), row_dist.size(bi), "block ({bi},{bj}) row mismatch");
            assert_eq!(block.ncols(), col_dist.size(bj), "block ({bi},{bj}) col mismatch");
        }
        Self { grid, nrows, ncols, row_dist, col_dist, blocks }
    }

    /// The process grid this matrix is distributed over.
    pub fn grid(&self) -> ProcessGrid {
        self.grid
    }

    /// Global number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Global number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The row distribution over grid rows.
    pub fn row_dist(&self) -> BlockDist {
        self.row_dist
    }

    /// The column distribution over grid columns.
    pub fn col_dist(&self) -> BlockDist {
        self.col_dist
    }

    /// Total number of stored entries across all blocks.
    pub fn nnz(&self) -> usize {
        self.blocks.iter().map(|b| b.nnz()).sum()
    }

    /// Number of stored entries in the block owned by grid position `(i, j)`.
    pub fn block_nnz(&self, block_row: usize, block_col: usize) -> usize {
        self.block(block_row, block_col).nnz()
    }

    /// The local CSR block owned by grid position `(i, j)`.
    pub fn block(&self, block_row: usize, block_col: usize) -> &CsrMatrix<T> {
        &self.blocks[self.grid.rank_of(block_row, block_col)]
    }

    /// All blocks in rank order.
    pub fn blocks(&self) -> &[CsrMatrix<T>] {
        &self.blocks
    }

    /// Gather every entry back into a single triple list with global
    /// coordinates.
    pub fn to_triples(&self) -> Triples<T> {
        let mut out = Triples::new(self.nrows, self.ncols);
        for rank in self.grid.ranks() {
            let (bi, bj) = self.grid.coords(rank);
            let roff = self.row_dist.start(bi);
            let coff = self.col_dist.start(bj);
            for (r, c, v) in self.blocks[rank].iter() {
                out.push(roff + r, coff + c, v.clone());
            }
        }
        out
    }

    /// Gather the whole matrix into a single local CSR.  Every run does this
    /// once: the 2D pipeline on `S` (contig extraction and consensus walk a
    /// local matrix), the 1D baseline on `A`.
    pub fn to_local_csr(&self) -> CsrMatrix<T> {
        CsrMatrix::from_entries(self.nrows, self.ncols, self.to_triples().into_entries())
    }

    /// Look up a value by global coordinates.
    pub fn get(&self, row: usize, col: usize) -> Option<&T> {
        let bi = self.row_dist.owner(row);
        let bj = self.col_dist.owner(col);
        self.block(bi, bj)
            .get(row - self.row_dist.start(bi), col - self.col_dist.start(bj))
    }

    /// Transpose the distributed matrix.  Block `(i, j)` becomes block
    /// `(j, i)` of the result, locally transposed; the grid is transposed
    /// accordingly (square grids stay square).
    pub fn transpose(&self) -> DistMat2D<T> {
        let new_grid = ProcessGrid::new(self.grid.cols(), self.grid.rows());
        let blocks = par_ranks(new_grid.nprocs(), |rank| {
            let (bi, bj) = new_grid.coords(rank);
            // New block (bi, bj) is old block (bj, bi) transposed.
            self.block(bj, bi).transpose()
        });
        DistMat2D {
            grid: new_grid,
            nrows: self.ncols,
            ncols: self.nrows,
            row_dist: self.col_dist,
            col_dist: self.row_dist,
            blocks,
        }
    }

    /// Map every value, preserving the distribution and pattern.
    pub fn map<U: Clone + Send + Sync>(
        &self,
        f: impl Fn(usize, usize, &T) -> U + Sync,
    ) -> DistMat2D<U> {
        let blocks = par_ranks(self.grid.nprocs(), |rank| {
            let (bi, bj) = self.grid.coords(rank);
            let roff = self.row_dist.start(bi);
            let coff = self.col_dist.start(bj);
            self.blocks[rank].map(|r, c, v| f(roff + r, coff + c, v))
        });
        DistMat2D {
            grid: self.grid,
            nrows: self.nrows,
            ncols: self.ncols,
            row_dist: self.row_dist,
            col_dist: self.col_dist,
            blocks,
        }
    }

    /// Keep only entries selected by `pred` (global coordinates).
    pub fn filter(&self, pred: impl Fn(usize, usize, &T) -> bool + Sync) -> DistMat2D<T> {
        let blocks = par_ranks(self.grid.nprocs(), |rank| {
            let (bi, bj) = self.grid.coords(rank);
            let roff = self.row_dist.start(bi);
            let coff = self.col_dist.start(bj);
            self.blocks[rank].filter(|r, c, v| pred(roff + r, coff + c, v))
        });
        DistMat2D {
            grid: self.grid,
            nrows: self.nrows,
            ncols: self.ncols,
            row_dist: self.row_dist,
            col_dist: self.col_dist,
            blocks,
        }
    }

    /// Apply `f` to every value in place.
    pub fn apply_mut(&mut self, f: impl Fn(usize, usize, &mut T) + Sync + Send) {
        let grid = self.grid;
        let row_dist = self.row_dist;
        let col_dist = self.col_dist;
        dibella_dist::par_ranks_mut(&mut self.blocks, |rank, block| {
            let (bi, bj) = grid.coords(rank);
            let roff = row_dist.start(bi);
            let coff = col_dist.start(bj);
            block.apply_mut(|r, c, v| f(roff + r, coff + c, v));
        });
    }

    /// Reduce every global row with `map` and `combine` (CombBLAS
    /// `Reduce(Row, op)`).  Returns one slot per global row; empty rows give
    /// `None`.
    ///
    /// In a real 2D distribution this requires a reduction along each grid
    /// row; the caller can account for that traffic separately (it is
    /// asymptotically dominated by the SpGEMM and the paper folds it into the
    /// in-place element-wise operations).
    pub fn reduce_rows<U: Clone + Send>(
        &self,
        map: impl Fn(usize, usize, &T) -> U + Sync,
        combine: impl Fn(U, U) -> U + Sync + Send,
    ) -> Vec<Option<U>> {
        let mut out: Vec<Option<U>> = vec![None; self.nrows];
        for rank in self.grid.ranks() {
            let (bi, bj) = self.grid.coords(rank);
            let roff = self.row_dist.start(bi);
            let coff = self.col_dist.start(bj);
            for (r, c, v) in self.blocks[rank].iter() {
                let gr = roff + r;
                let x = map(gr, coff + c, v);
                out[gr] = Some(match out[gr].take() {
                    None => x,
                    Some(acc) => combine(acc, x),
                });
            }
        }
        out
    }

    /// Count the stored entries in every global row.
    pub fn row_nnz_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nrows];
        for rank in self.grid.ranks() {
            let (bi, _) = self.grid.coords(rank);
            let roff = self.row_dist.start(bi);
            let block = &self.blocks[rank];
            for r in 0..block.nrows() {
                counts[roff + r] += block.row_nnz(r);
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_triples() -> Triples<i64> {
        // A 6x6 matrix with entries on the diagonal and a few off-diagonals.
        let entries = vec![
            (0, 0, 1),
            (1, 1, 2),
            (2, 2, 3),
            (3, 3, 4),
            (4, 4, 5),
            (5, 5, 6),
            (0, 5, 7),
            (5, 0, 8),
            (2, 4, 9),
        ];
        Triples::from_entries(6, 6, entries)
    }

    #[test]
    fn distribution_preserves_every_entry() {
        let grid = ProcessGrid::square(4);
        let t = sample_triples();
        let d = DistMat2D::from_triples(grid, &t);
        assert_eq!(d.nnz(), t.nnz());
        let mut back = d.to_triples();
        back.sort();
        let mut orig = t.clone();
        orig.sort();
        assert_eq!(back, orig);
    }

    #[test]
    fn blocks_have_consistent_dimensions() {
        let grid = ProcessGrid::square(4);
        let d = DistMat2D::from_triples(grid, &sample_triples());
        for i in 0..2 {
            for j in 0..2 {
                let b = d.block(i, j);
                assert_eq!(b.nrows(), 3);
                assert_eq!(b.ncols(), 3);
                assert!(b.validate().is_ok());
            }
        }
    }

    #[test]
    fn get_uses_global_coordinates() {
        let grid = ProcessGrid::square(4);
        let d = DistMat2D::from_triples(grid, &sample_triples());
        assert_eq!(d.get(0, 5), Some(&7));
        assert_eq!(d.get(5, 0), Some(&8));
        assert_eq!(d.get(2, 4), Some(&9));
        assert_eq!(d.get(1, 2), None);
    }

    #[test]
    fn transpose_swaps_global_coordinates() {
        let grid = ProcessGrid::square(4);
        let d = DistMat2D::from_triples(grid, &sample_triples());
        let t = d.transpose();
        assert_eq!(t.nnz(), d.nnz());
        assert_eq!(t.get(5, 0), Some(&7));
        assert_eq!(t.get(0, 5), Some(&8));
        assert_eq!(t.get(4, 2), Some(&9));
    }

    #[test]
    fn works_on_non_square_grids_and_dims() {
        let grid = ProcessGrid::new(2, 3);
        let t = Triples::from_entries(5, 7, vec![(0, 0, 1), (4, 6, 2), (2, 3, 3)]);
        let d = DistMat2D::from_triples(grid, &t);
        assert_eq!(d.nnz(), 3);
        assert_eq!(d.get(4, 6), Some(&2));
        let back = d.to_local_csr();
        assert_eq!(back.get(2, 3), Some(&3));
    }

    #[test]
    fn map_and_filter_preserve_distribution() {
        let grid = ProcessGrid::square(4);
        let d = DistMat2D::from_triples(grid, &sample_triples());
        let doubled = d.map(|_, _, v| v * 2);
        assert_eq!(doubled.get(0, 5), Some(&14));
        let big = d.filter(|_, _, v| *v >= 5);
        assert_eq!(big.nnz(), 5);
        assert_eq!(big.get(0, 0), None);
    }

    #[test]
    fn apply_mut_modifies_values_in_place() {
        let grid = ProcessGrid::square(4);
        let mut d = DistMat2D::from_triples(grid, &sample_triples());
        d.apply_mut(|r, c, v| *v = (r * 10 + c) as i64);
        assert_eq!(d.get(2, 4), Some(&24));
        assert_eq!(d.get(5, 0), Some(&50));
    }

    #[test]
    fn reduce_rows_matches_local_reduction() {
        let grid = ProcessGrid::square(4);
        let d = DistMat2D::from_triples(grid, &sample_triples());
        let local = d.to_local_csr();
        let dist_max = d.reduce_rows(|_, _, v| *v, i64::max);
        let local_max = local.reduce_rows(|_, _, v| *v, i64::max);
        assert_eq!(dist_max, local_max);
    }

    #[test]
    fn row_nnz_counts_sum_to_nnz() {
        let grid = ProcessGrid::square(9);
        let d = DistMat2D::from_triples(grid, &sample_triples());
        let counts = d.row_nnz_counts();
        assert_eq!(counts.iter().sum::<usize>(), d.nnz());
        assert_eq!(counts[0], 2);
        assert_eq!(counts[5], 2);
    }

    #[test]
    fn from_blocks_takes_blocks_by_value_in_rank_order() {
        let grid = ProcessGrid::square(4);
        let via_triples = DistMat2D::from_triples(grid, &sample_triples());
        let blocks: Vec<CsrMatrix<i64>> =
            via_triples.blocks().to_vec();
        let rebuilt = DistMat2D::from_blocks(grid, 6, 6, blocks);
        assert_eq!(rebuilt, via_triples);
    }

    #[test]
    #[should_panic(expected = "row mismatch")]
    fn from_blocks_rejects_wrong_block_dimensions() {
        let grid = ProcessGrid::square(4);
        let blocks = vec![CsrMatrix::<i64>::zero(2, 3); 4];
        let _ = DistMat2D::from_blocks(grid, 6, 6, blocks);
    }

    #[test]
    fn single_rank_grid_is_just_a_local_matrix() {
        let grid = ProcessGrid::square(1);
        let t = sample_triples();
        let d = DistMat2D::from_triples(grid, &t);
        let local = CsrMatrix::from_triples(&t);
        assert_eq!(d.block(0, 0), &local);
    }

    proptest! {
        #[test]
        fn prop_distribute_gather_roundtrip(
            coords in proptest::collection::btree_set((0usize..20, 0usize..17), 0..120),
            grid_side in 1usize..4,
        ) {
            let entries: Vec<_> = coords
                .into_iter()
                .enumerate()
                .map(|(i, (r, c))| (r, c, i as i64))
                .collect();
            let t = Triples::from_entries(20, 17, entries);
            let grid = ProcessGrid::square(grid_side * grid_side);
            let d = DistMat2D::from_triples(grid, &t);
            prop_assert_eq!(d.nnz(), t.nnz());
            let mut back = d.to_triples();
            back.sort();
            let mut orig = t;
            orig.sort();
            prop_assert_eq!(back, orig);
        }

        #[test]
        fn prop_distributed_transpose_matches_local_transpose(
            coords in proptest::collection::btree_set((0usize..12, 0usize..12), 0..60),
        ) {
            let entries: Vec<_> = coords
                .into_iter()
                .enumerate()
                .map(|(i, (r, c))| (r, c, i as i64))
                .collect();
            let t = Triples::from_entries(12, 12, entries);
            let grid = ProcessGrid::square(4);
            let d = DistMat2D::from_triples(grid, &t);
            let dist_t = d.transpose().to_local_csr();
            let local_t = CsrMatrix::from_triples(&t).transpose();
            prop_assert_eq!(dist_t, local_t);
        }
    }
}
