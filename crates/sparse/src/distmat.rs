//! 2D block-distributed sparse matrices.
//!
//! CombBLAS distributes every matrix over a `sqrt(P) x sqrt(P)` process grid;
//! processor `(i, j)` owns the block of rows `row_dist.range(i)` and columns
//! `col_dist.range(j)`.  [`DistMat2D`] reproduces that layout over the virtual
//! ranks of a [`ProcessGrid`]: each rank's block is an ordinary local
//! [`CsrMatrix`] addressed with block-local indices.
//!
//! Blocks are built by the crate's one CSR builder (see [`crate::csr`]):
//! [`DistMat2D::from_triples`] routes every entry to its block and places
//! each block's unordered list; [`DistMat2D::from_sorted_rows`] hands rows
//! over in order; [`DistMat2D::to_local_csr`] copies each global row, its
//! grid row's block rows side by side, in order.  Only the first sorts, and
//! only the rows that arrive out of order.

use crate::csr::{Builder, CsrMatrix};
use crate::triples::Triples;
use dibella_dist::{par_ranks, BlockDist, ProcessGrid};
use rayon::pool;

/// A sparse matrix block-distributed over a 2D process grid.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// consecutive rows, scanned in parallel.  A run hands every row over in
    /// order to one growing builder per grid column, so rows and columns
    /// arrive in order and nothing is ever sorted; a block is its grid row's
    /// runs stacked into exactly sized arrays.  The result does not depend
    /// on `scan_ranks`.
    ///
    /// # Panics
    /// Panics if a column is out of range or a row is not strictly ascending
    /// (the latter when the block is checked).
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

        // Per run, one part of a block per grid column.
        let scanned: Vec<Vec<Builder<T>>> = par_ranks(grid.rows() * runs_per_row, |run| {
            let bi = run / runs_per_row;
            let rows = BlockDist::new(row_dist.size(bi), runs_per_row).range(run % runs_per_row);
            let mut parts: Vec<Builder<T>> =
                (0..grid.cols()).map(|bj| Builder::new(rows.len(), col_dist.size(bj), 0)).collect();
            let mut row = Vec::new();
            for r in rows {
                fill_row(row_dist.start(bi) + r, &mut row);
                // Columns ascend, so each grid column takes the next run of
                // the row (no division per entry); a row out of order wraps
                // a column past its block's width and fails the check below.
                let mut entries = row.drain(..).peekable();
                for (part, cols) in parts.iter_mut().zip(col_starts.windows(2)) {
                    let run = std::iter::from_fn(|| entries.next_if(|&(c, _)| c < cols[1]));
                    part.row(run.map(|(c, v)| (c.wrapping_sub(cols[0]), v)));
                }
                if let Some((c, _)) = entries.next() {
                    panic!("column {c} out of range ({ncols} columns)");
                }
            }
            parts
        });

        // Hand every block its parts, in row order.
        let mut per_block: Vec<Vec<Builder<T>>> = (0..grid.nprocs()).map(|_| Vec::new()).collect();
        for (run, parts) in scanned.into_iter().enumerate() {
            for (bj, part) in parts.into_iter().enumerate() {
                per_block[grid.rank_of(run / runs_per_row, bj)].push(part);
            }
        }
        let blocks = pool::map_owned(per_block, |rank, parts| {
            let (bi, bj) = grid.coords(rank);
            Builder::stack(row_dist.size(bi), col_dist.size(bj), parts).finish()
        });
        Self::from_blocks(grid, nrows, ncols, blocks)
    }

    /// An all-zero distributed matrix with the given global dimensions.
    pub fn zero(grid: ProcessGrid, nrows: usize, ncols: usize) -> Self {
        Self::from_sorted_rows(grid, nrows, ncols, 1, |_, _| {})
    }

    /// Assemble a distributed matrix from already-built per-rank blocks, **by
    /// value** (no clone): `blocks[rank]` becomes the block of grid position
    /// `grid.coords(rank)`.  This is the constructor the SUMMA kernels use,
    /// since their `par_ranks` loop already produces the blocks in rank order.
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

    /// Every entry as `(row, col, &value)` in global coordinates, block by
    /// block in rank order, each block in CSR order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        self.grid.ranks().flat_map(move |rank| {
            let (bi, bj) = self.grid.coords(rank);
            let (roff, coff) = (self.row_dist.start(bi), self.col_dist.start(bj));
            self.blocks[rank].iter().map(move |(r, c, v)| (roff + r, coff + c, v))
        })
    }

    /// Gather every entry back into a single triple list with global
    /// coordinates, in [`DistMat2D::iter`]'s order.
    pub fn to_triples(&self) -> Triples<T> {
        let mut out = Triples::new(self.nrows, self.ncols);
        out.extend(self.iter().map(|(r, c, v)| (r, c, v.clone())));
        out
    }

    /// Gather the whole matrix into a single local CSR.  Every run does this
    /// once: the 2D pipeline on `S` (contig extraction and consensus walk a
    /// local matrix), the 1D baseline on `A`.  A global row is its grid
    /// row's block rows side by side, so the columns already ascend: the
    /// rows are copied in order into exactly sized arrays, with no sort.
    pub fn to_local_csr(&self) -> CsrMatrix<T> {
        let mut out = Builder::new(self.nrows, self.ncols, self.nnz());
        for bi in 0..self.grid.rows() {
            for r in 0..self.row_dist.size(bi) {
                out.row((0..self.grid.cols()).flat_map(|bj| {
                    let coff = self.col_dist.start(bj);
                    self.block(bi, bj).row(r).map(move |(c, v)| (coff + c, v.clone()))
                }));
            }
        }
        out.finish()
    }

    /// Look up a value by global coordinates.
    pub fn get(&self, row: usize, col: usize) -> Option<&T> {
        let bi = self.row_dist.owner(row);
        let bj = self.col_dist.owner(col);
        self.block(bi, bj)
            .get(row - self.row_dist.start(bi), col - self.col_dist.start(bj))
    }

    /// Transpose the distributed matrix.  Block `(i, j)` becomes block
    /// `(j, i)` of the result, locally transposed, on the same square grid.
    pub fn transpose(&self) -> DistMat2D<T> {
        let blocks = par_ranks(self.grid.nprocs(), |rank| {
            let (bi, bj) = self.grid.coords(rank);
            // New block (bi, bj) is old block (bj, bi) transposed.
            self.block(bj, bi).transpose()
        });
        DistMat2D::from_blocks(self.grid, self.ncols, self.nrows, blocks)
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
        DistMat2D::from_blocks(self.grid, self.nrows, self.ncols, blocks)
    }

    /// Keep only entries selected by `pred` (global coordinates).
    pub fn filter(&self, pred: impl Fn(usize, usize, &T) -> bool + Sync) -> DistMat2D<T> {
        let blocks = par_ranks(self.grid.nprocs(), |rank| {
            let (bi, bj) = self.grid.coords(rank);
            let roff = self.row_dist.start(bi);
            let coff = self.col_dist.start(bj);
            self.blocks[rank].filter(|r, c, v| pred(roff + r, coff + c, v))
        });
        Self::from_blocks(self.grid, self.nrows, self.ncols, blocks)
    }

    /// Reduce every global row with `map` and `combine` (CombBLAS
    /// `Reduce(Row, op)`).  Returns one slot per global row; empty rows give
    /// `None`.
    ///
    /// In a real 2D distribution this requires a reduction along each grid
    /// row; the caller can account for that traffic separately (it is
    /// asymptotically dominated by the SpGEMM and the paper folds it into
    /// Algorithm 2's in-place element-wise steps).
    pub fn reduce_rows<U: Clone + Send>(
        &self,
        map: impl Fn(usize, usize, &T) -> U + Sync,
        combine: impl Fn(U, U) -> U + Sync + Send,
    ) -> Vec<Option<U>> {
        let mut out: Vec<Option<U>> = vec![None; self.nrows];
        for (r, c, v) in self.iter() {
            let x = map(r, c, v);
            out[r] = Some(match out[r].take() {
                None => x,
                Some(acc) => combine(acc, x),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::shuffle;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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
        let local = CsrMatrix::from_triples(&t);
        assert_eq!(CsrMatrix::from_triples(&d.to_triples()), local);
        assert_eq!(d.to_local_csr(), local);
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
    fn works_on_non_square_matrices() {
        let grid = ProcessGrid::square(4);
        let t = Triples::from_entries(5, 7, vec![(0, 0, 1), (4, 6, 2), (2, 3, 3)]);
        let d = DistMat2D::from_triples(grid, &t);
        assert_eq!(d.nnz(), 3);
        assert_eq!(d.get(4, 6), Some(&2));
        let back = d.to_local_csr();
        assert_eq!(back.get(2, 3), Some(&3));
        // The transpose is 7 × 5 on the same grid.
        let tr = d.transpose();
        assert_eq!((tr.nrows(), tr.ncols(), tr.grid()), (7, 5, grid));
        assert_eq!(tr.get(6, 4), Some(&2));
        assert_eq!(tr.get(3, 2), Some(&3));
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
    fn reduce_rows_matches_local_reduction() {
        let grid = ProcessGrid::square(4);
        let d = DistMat2D::from_triples(grid, &sample_triples());
        let local = d.to_local_csr();
        let dist_max = d.reduce_rows(|_, _, v| *v, i64::max);
        let local_max = local.reduce_rows(|_, _, v| *v, i64::max);
        assert_eq!(dist_max, local_max);
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

    /// Distinct coordinates of an `nrows × ncols` matrix, valued by their
    /// sorted position and shuffled from `seed`.
    fn shuffled(
        nrows: usize,
        ncols: usize,
        coords: BTreeSet<(usize, usize)>,
        seed: u64,
    ) -> Triples<i64> {
        let mut entries: Vec<_> =
            coords.into_iter().enumerate().map(|(i, (r, c))| (r, c, i as i64)).collect();
        shuffle(&mut entries, seed);
        Triples::from_entries(nrows, ncols, entries)
    }

    proptest! {
        #[test]
        fn prop_distribute_gather_roundtrip(
            coords in proptest::collection::btree_set((0usize..20, 0usize..17), 0..120),
            seed in any::<u64>(),
            grid_side in 1usize..4,
        ) {
            let t = shuffled(20, 17, coords, seed);
            let grid = ProcessGrid::square(grid_side * grid_side);
            let d = DistMat2D::from_triples(grid, &t);
            prop_assert_eq!(d.nnz(), t.nnz());
            let local = CsrMatrix::from_triples(&t);
            prop_assert_eq!(CsrMatrix::from_triples(&d.to_triples()), local.clone());
            prop_assert_eq!(d.to_local_csr(), local);
            for (r, c, v) in d.iter() {
                prop_assert_eq!(d.get(r, c), Some(v));
            }
        }

        #[test]
        fn prop_distributed_transpose_matches_local_transpose(
            coords in proptest::collection::btree_set((0usize..12, 0usize..12), 0..60),
            seed in any::<u64>(),
        ) {
            let t = shuffled(12, 12, coords, seed);
            let grid = ProcessGrid::square(4);
            let d = DistMat2D::from_triples(grid, &t);
            let dist_t = d.transpose().to_local_csr();
            let local_t = CsrMatrix::from_triples(&t).transpose();
            prop_assert_eq!(dist_t, local_t);
        }
    }
}
