//! The virtual process grid and 1D block distributions.

use std::ops::Range;

/// The square `√P × √P` grid of virtual ranks.
///
/// CombBLAS (and therefore diBELLA 2D) distributes every sparse matrix over a
/// square process grid; rank `r` sits at grid position `(r / √P, r % √P)`.
/// All coordinates are zero-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessGrid {
    side: usize,
}

impl ProcessGrid {
    /// The square grid with exactly `nprocs` ranks.
    ///
    /// # Panics
    /// Panics if `nprocs` is not a perfect square (the paper's algorithms
    /// require `√P` to be integral; use [`ProcessGrid::square_at_most`] to
    /// round down).
    pub fn square(nprocs: usize) -> Self {
        assert!(nprocs > 0, "need at least one rank");
        let side = nprocs.isqrt();
        assert_eq!(
            side * side,
            nprocs,
            "ProcessGrid::square requires a perfect square, got {nprocs}"
        );
        Self { side }
    }

    /// The largest square grid with at most `nprocs` ranks (at least `1 × 1`).
    ///
    /// This mirrors how the pipeline maps a requested process count onto the
    /// square grid the 2D algorithms need.
    pub fn square_at_most(nprocs: usize) -> Self {
        Self { side: nprocs.isqrt().max(1) }
    }

    /// Number of grid rows, `√P`.
    pub fn rows(&self) -> usize {
        self.side
    }

    /// Number of grid columns, `√P`.
    pub fn cols(&self) -> usize {
        self.side
    }

    /// Total number of ranks `P`.
    pub fn nprocs(&self) -> usize {
        self.side * self.side
    }

    /// Grid coordinates `(i, j)` of a rank.
    ///
    /// # Panics
    /// Panics if `rank >= nprocs()`.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.nprocs(), "rank {rank} out of range for {self:?}");
        (rank / self.side, rank % self.side)
    }

    /// The rank at grid position `(i, j)` (row-major).
    ///
    /// # Panics
    /// Panics if the position lies outside the grid.
    pub fn rank_of(&self, i: usize, j: usize) -> usize {
        assert!(i < self.side && j < self.side, "grid position ({i},{j}) out of range for {self:?}");
        i * self.side + j
    }

    /// Iterate over all ranks, `0..P`.
    pub fn ranks(&self) -> Range<usize> {
        0..self.nprocs()
    }
}

/// A 1D block distribution of `total` consecutive indices over `parts` owners.
///
/// The first `total % parts` owners get `⌈total / parts⌉` indices, the rest
/// `⌊total / parts⌋` — the standard balanced block distribution (owners may be
/// empty when `parts > total`).  This is how diBELLA 2D partitions matrix rows
/// and columns over grid rows/columns, and reads/k-mers over ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockDist {
    total: usize,
    parts: usize,
}

impl BlockDist {
    /// Distribute `total` indices over `parts` owners.
    ///
    /// # Panics
    /// Panics if `parts` is zero.
    pub fn new(total: usize, parts: usize) -> Self {
        assert!(parts > 0, "need at least one part");
        Self { total, parts }
    }

    /// Total number of distributed indices.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of owners.
    pub fn nparts(&self) -> usize {
        self.parts
    }

    /// Number of indices owned by `part`.
    ///
    /// # Panics
    /// Panics if `part >= nparts()`.
    pub fn size(&self, part: usize) -> usize {
        assert!(part < self.parts, "part {part} out of range ({} parts)", self.parts);
        self.total / self.parts + usize::from(part < self.total % self.parts)
    }

    /// First index owned by `part`.
    ///
    /// # Panics
    /// Panics if `part >= nparts()`.
    pub fn start(&self, part: usize) -> usize {
        assert!(part < self.parts, "part {part} out of range ({} parts)", self.parts);
        let base = self.total / self.parts;
        let rem = self.total % self.parts;
        part * base + part.min(rem)
    }

    /// The half-open index range owned by `part` (possibly empty).
    pub fn range(&self, part: usize) -> Range<usize> {
        let start = self.start(part);
        start..start + self.size(part)
    }

    /// The owner of a global index.
    ///
    /// # Panics
    /// Panics if `index >= total()`.
    pub fn owner(&self, index: usize) -> usize {
        assert!(index < self.total, "index {index} out of range ({} total)", self.total);
        let base = self.total / self.parts;
        let rem = self.total % self.parts;
        let big = rem * (base + 1);
        if index < big {
            index / (base + 1)
        } else {
            rem + (index - big) / base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_grids_for_paper_process_counts() {
        for (p, side) in [(1usize, 1usize), (4, 2), (9, 3), (16, 4)] {
            let grid = ProcessGrid::square(p);
            assert_eq!(grid.rows(), side);
            assert_eq!(grid.cols(), side);
            assert_eq!(grid.nprocs(), p);
            assert_eq!(grid.ranks().count(), p);
        }
    }

    #[test]
    fn coords_and_rank_of_are_inverse_bijections() {
        for p in [1usize, 4, 9, 16] {
            let grid = ProcessGrid::square(p);
            let mut seen = std::collections::HashSet::new();
            for rank in grid.ranks() {
                let (i, j) = grid.coords(rank);
                assert!(i < grid.rows() && j < grid.cols());
                assert_eq!(grid.rank_of(i, j), rank);
                assert!(seen.insert((i, j)), "coords must be unique");
            }
            assert_eq!(seen.len(), p);
        }
    }

    #[test]
    fn rank_layout_is_row_major() {
        let grid = ProcessGrid::square(9);
        assert_eq!(grid.coords(0), (0, 0));
        assert_eq!(grid.coords(2), (0, 2));
        assert_eq!(grid.coords(3), (1, 0));
        assert_eq!(grid.rank_of(1, 2), 5);
        assert_eq!(grid.rank_of(2, 1), 7);
        assert_eq!(grid.nprocs(), 9);
    }

    #[test]
    fn square_at_most_rounds_down_to_the_largest_square() {
        assert_eq!(ProcessGrid::square_at_most(1).nprocs(), 1);
        assert_eq!(ProcessGrid::square_at_most(3).nprocs(), 1);
        assert_eq!(ProcessGrid::square_at_most(4).nprocs(), 4);
        assert_eq!(ProcessGrid::square_at_most(10).nprocs(), 9);
        assert_eq!(ProcessGrid::square_at_most(16).nprocs(), 16);
        assert_eq!(ProcessGrid::square_at_most(24).nprocs(), 16);
        assert_eq!(ProcessGrid::square_at_most(0).nprocs(), 1, "degenerate input still yields a grid");
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn square_rejects_non_squares() {
        let _ = ProcessGrid::square(6);
    }

    #[test]
    fn block_dist_partitions_exactly() {
        for total in [0usize, 1, 5, 10, 17, 100] {
            for parts in [1usize, 2, 3, 4, 7, 16] {
                let dist = BlockDist::new(total, parts);
                // Ranges tile [0, total) in order without gaps or overlap.
                let mut next = 0usize;
                for part in 0..parts {
                    let range = dist.range(part);
                    assert_eq!(range.start, next, "total={total} parts={parts} part={part}");
                    assert_eq!(range.len(), dist.size(part));
                    next = range.end;
                }
                assert_eq!(next, total);
                // Sizes differ by at most one (balanced distribution).
                let sizes: Vec<usize> = (0..parts).map(|p| dist.size(p)).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "unbalanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn owner_and_range_round_trip() {
        for total in [1usize, 5, 10, 17, 64, 100] {
            for parts in [1usize, 2, 3, 4, 9, 16, 150] {
                let dist = BlockDist::new(total, parts);
                for index in 0..total {
                    let owner = dist.owner(index);
                    assert!(
                        dist.range(owner).contains(&index),
                        "total={total} parts={parts}: owner({index})={owner} but range is {:?}",
                        dist.range(owner)
                    );
                }
                for part in 0..parts {
                    for index in dist.range(part) {
                        assert_eq!(dist.owner(index), part);
                    }
                }
            }
        }
    }

    #[test]
    fn more_parts_than_items_leaves_trailing_parts_empty() {
        let dist = BlockDist::new(3, 8);
        assert_eq!(dist.range(0), 0..1);
        assert_eq!(dist.range(2), 2..3);
        for part in 3..8 {
            assert!(dist.range(part).is_empty());
        }
        assert_eq!(dist.owner(2), 2);
    }

    #[test]
    fn grid_row_and_column_dists_coincide_on_square_grids() {
        // SUMMA requires A's column distribution == B's row distribution; on a
        // square grid both are BlockDist::new(inner, side) and must be equal.
        let grid = ProcessGrid::square(9);
        assert_eq!(BlockDist::new(17, grid.rows()), BlockDist::new(17, grid.cols()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_rejects_out_of_range_indices() {
        let _ = BlockDist::new(4, 2).owner(4);
    }
}
