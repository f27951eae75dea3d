//! 1D outer-product SpGEMM — the communication structure of diBELLA 1D.
//!
//! Section V-B of the paper observes that diBELLA 1D's distributed-hash-table
//! overlap detection "is equivalent to a 1D sparse matrix multiplication using
//! the outer product algorithm": `A` is distributed in block columns, `Aᵀ` in
//! block rows, every rank `k` forms the partial product `A_{:,k} · Aᵀ_{k,:}`
//! locally, and the partial products are then reduced onto the block-row
//! owners of `C`.  The reduction is the expensive part: each rank exchanges
//! `a²m/P` words, compared with `a·m/sqrt(P)` for the 2D algorithm.
//!
//! This module implements that algorithm generically over a [`Semiring`]
//! so that the 1D-vs-2D comparison of Figure 9 and Table I runs the same local
//! kernels and differs only in decomposition and communication.  Like the
//! symmetric SUMMA, it forms, ships and returns the **upper triangle** of `C`
//! only: a k-mer's owner emits each read pair once, to one of the two read
//! owners, as diBELLA 1D does (Ellis et al., ICPP 2019).

use crate::accum::FlopCounter;
use crate::csr::CsrMatrix;
use crate::semiring::Semiring;
use crate::spgemm::{local_spgemm_aat, rows_to_csr};
use crate::triples::Triples;
use dibella_dist::{alltoallv_counted, par_ranks, BlockDist, CommPhase, CommStats};
use rayon::pool;

/// Result of a 1D outer-product SpGEMM: the output matrix distributed in block
/// rows over `nprocs` ranks, plus the gathered global matrix.
pub struct Outer1dResult<T> {
    /// Per-rank block-row partitions of the result (rank `k` owns the rows in
    /// `row_dist.range(k)`).
    pub row_blocks: Vec<CsrMatrix<T>>,
    /// Distribution of output rows over ranks.
    pub row_dist: BlockDist,
}

impl<T: Clone> Outer1dResult<T> {
    /// Assemble the distributed block rows into one global matrix.
    pub fn to_local_csr(&self, ncols: usize) -> CsrMatrix<T> {
        let total_rows = self.row_dist.total();
        let mut t = Triples::new(total_rows, ncols);
        for (rank, block) in self.row_blocks.iter().enumerate() {
            let roff = self.row_dist.start(rank);
            for (r, c, v) in block.iter() {
                t.push(roff + r, c, v.clone());
            }
        }
        CsrMatrix::from_entries(total_rows, ncols, t.into_entries())
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.row_blocks.iter().map(|b| b.nnz()).sum()
    }
}

/// Compute the upper triangle (diagonal included) of the symmetric
/// `C = A·Aᵀ` with the 1D outer-product algorithm over `nprocs` virtual
/// ranks, recording the reduction traffic into `stats` under `phase` at
/// `entry_words` words per exchanged partial entry.
///
/// `A` is split into block columns; rank `k` slices its block directly out of
/// the CSR arrays (two binary searches per row) and forms the partial product
/// `A[:, cols_k] · (A[:, cols_k])ᵀ`, which is itself symmetric, so it runs
/// the upper-triangle [`local_spgemm_aat`] kernel.  The partial products —
/// each pair once — are merged onto block-row owners of `C` with an
/// all-to-all, which is the communication the paper's 1D analysis charges
/// (`W_1D = a²m/P`, `Y_1D = P`).
pub fn outer1d_aat<S>(
    a: &CsrMatrix<S::Left>,
    nprocs: usize,
    entry_words: u64,
    stats: &CommStats,
    phase: CommPhase,
) -> Outer1dResult<S::Out>
where
    S: Semiring<Right = <S as Semiring>::Left>,
{
    assert!(nprocs > 0, "need at least one rank");
    let n = a.nrows();
    let inner_dist = BlockDist::new(a.ncols(), nprocs);
    let out_row_dist = BlockDist::new(n, nprocs);

    // The 1D baseline is compared on communication; its multiply work is
    // tallied nowhere.
    let flops = FlopCounter::new();
    let partials: Vec<CsrMatrix<S::Out>> = par_ranks(nprocs, |rank| {
        let cols = inner_dist.range(rank);
        if cols.is_empty() {
            return CsrMatrix::zero(n, n);
        }
        local_spgemm_aat::<S>(&a.slice_col_range(cols), &flops)
    });

    reduce_partials::<S>(partials, out_row_dist, n, stats, phase, entry_words)
}

/// The 1D reduction: route every partial entry to the block-row owner of its
/// output row with an all-to-all, then merge per destination rank with the
/// semiring's add.
fn reduce_partials<S: Semiring>(
    partials: Vec<CsrMatrix<S::Out>>,
    out_row_dist: BlockDist,
    out_cols: usize,
    stats: &CommStats,
    phase: CommPhase,
    entry_words: u64,
) -> Outer1dResult<S::Out> {
    // Consume each partial: values are *moved* into the send lists and the
    // partial's CSR storage is freed inside the map, so the exchange never
    // holds a cloned copy of the partial products alongside the originals.
    let send = pool::map_owned(partials, |_, partial| partial.into_entries().collect());
    let owner = |&(r, _, _): &(usize, usize, S::Out)| out_row_dist.owner(r);
    let received = alltoallv_counted(send, owner, stats, phase, entry_words);

    // Merge each destination rank's received entries into its block rows.
    let row_blocks: Vec<CsrMatrix<S::Out>> = pool::map_owned(received, |rank, entries| {
        let rows_here = out_row_dist.size(rank);
        let roff = out_row_dist.start(rank);
        // Group by row, then merge each column-sorted run in place with the
        // semiring add (the stable sort keeps equal columns in arrival order).
        let mut by_row: Vec<Vec<(usize, S::Out)>> = vec![Vec::new(); rows_here];
        for (r, c, v) in entries {
            by_row[r - roff].push((c, v));
        }
        for run in &mut by_row {
            run.sort_by_key(|(c, _)| *c);
            run.dedup_by(|(c, v), (kept_c, kept_v)| {
                let same = c == kept_c;
                if same {
                    S::add(kept_v, v.clone());
                }
                same
            });
        }
        rows_to_csr(rows_here, out_cols, by_row)
    });

    Outer1dResult { row_blocks, row_dist: out_row_dist }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;
    use crate::spgemm::local_spgemm;
    use proptest::prelude::*;

    fn random_triples(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> Triples<i64> {
        let mut t = Triples::new(nrows, ncols);
        let mut seen = std::collections::BTreeSet::new();
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        while seen.len() < nnz.min(nrows * ncols) {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let r = (state >> 33) as usize % nrows;
            let c = (state >> 11) as usize % ncols;
            if seen.insert((r, c)) {
                t.push(r, c, ((state % 13) as i64) - 6);
            }
        }
        t
    }

    /// The upper triangle of `A·Aᵀ` through the general kernel against the
    /// materialised transpose.
    fn square(a: &CsrMatrix<i64>) -> CsrMatrix<i64> {
        local_spgemm::<PlusTimes<i64>>(a, &a.transpose(), &FlopCounter::new())
            .filter(|r, c, _| r <= c)
    }

    #[test]
    fn outer1d_aat_matches_the_product_with_the_transpose() {
        let a = CsrMatrix::from_triples(&random_triples(16, 12, 60, 51));
        let expected = square(&a);
        for p in [1usize, 2, 3, 5, 8] {
            let stats = CommStats::new();
            let got = outer1d_aat::<PlusTimes<i64>>(&a, p, 3, &stats, CommPhase::OverlapDetection);
            assert_eq!(got.to_local_csr(a.nrows()), expected, "mismatch at P={p}");
            assert_eq!(got.nnz(), expected.nnz());
        }
    }

    #[test]
    fn outer1d_single_rank_communicates_nothing() {
        let a = CsrMatrix::from_triples(&random_triples(8, 8, 20, 3));
        let stats = CommStats::new();
        let _ = outer1d_aat::<PlusTimes<i64>>(&a, 1, 3, &stats, CommPhase::OverlapDetection);
        assert_eq!(stats.words(CommPhase::OverlapDetection), 0);
        assert_eq!(stats.messages(CommPhase::OverlapDetection), 0);
    }

    #[test]
    fn outer1d_communication_counts_partial_products() {
        // With a dense-ish A*A^T the 1D algorithm must ship roughly the full
        // partial-product volume; just assert it is substantial and grows as P
        // gives each rank a smaller share of the inner dimension.
        let a = CsrMatrix::from_triples(&random_triples(20, 16, 120, 21));
        let stats4 = CommStats::new();
        let _ = outer1d_aat::<PlusTimes<i64>>(&a, 4, 3, &stats4, CommPhase::OverlapDetection);
        let w4 = stats4.words(CommPhase::OverlapDetection);
        assert!(w4 > 0);
        let stats16 = CommStats::new();
        let _ = outer1d_aat::<PlusTimes<i64>>(&a, 16, 3, &stats16, CommPhase::OverlapDetection);
        let w16 = stats16.words(CommPhase::OverlapDetection);
        assert!(w16 >= w4, "more ranks should not reduce total exchanged volume: {w16} vs {w4}");
    }

    #[test]
    fn outer1d_handles_more_ranks_than_inner_dimension() {
        let a = CsrMatrix::from_triples(&random_triples(6, 3, 10, 31));
        let stats = CommStats::new();
        let result = outer1d_aat::<PlusTimes<i64>>(&a, 9, 3, &stats, CommPhase::Other);
        assert_eq!(result.to_local_csr(a.nrows()), square(&a));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_outer1d_aat_equals_local(
            seed in 0u64..500,
            p in 1usize..7,
            n in 4usize..16,
            m in 4usize..16,
        ) {
            let a = CsrMatrix::from_triples(&random_triples(n, m, n * m / 3 + 1, seed));
            let stats = CommStats::new();
            let got = outer1d_aat::<PlusTimes<i64>>(&a, p, 3, &stats, CommPhase::Other);
            prop_assert_eq!(got.to_local_csr(n), square(&a));
        }
    }
}
