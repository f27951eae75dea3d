//! 2D Sparse SUMMA — the distributed SpGEMM of diBELLA 2D.
//!
//! CombBLAS computes `C = A·B` on a `sqrt(P) x sqrt(P)` grid by iterating over
//! `sqrt(P)` stages; in stage `k`, the blocks `A_{i,k}` are broadcast along
//! grid row `i` and the blocks `B_{k,j}` along grid column `j`, and every rank
//! `(i, j)` accumulates `A_{i,k} · B_{k,j}` into its local output block
//! ("owner computes").  Because all virtual ranks share one address space, the
//! broadcasts here move no bytes — but their cost is recorded in
//! [`CommStats`], which is exactly the quantity Table I of the paper models
//! (`W_2D = a·m/sqrt(P)`, `Y_2D = sqrt(P)` for overlap detection).
//!
//! Each rank hands **all** its stage pairs to [`spgemm_stages`] at once, so
//! every output row is accumulated in place across the `sqrt(P)` stages by
//! one reusable per-worker accumulator and extracted exactly once — there is
//! no per-stage sorted merge.  [`summa`] is the one general product; the
//! general form of overlap detection's `A·Aᵀ` goes through it
//! (`summa(a, &a.transpose(), ..)` — [`DistMat2D::transpose`] is a local
//! transpose per block and moves no accounted words).  The transitive
//! reduction does not: it never builds `R²`, and walks the same stages in a
//! masked pass of its own, charged through [`record_stage_broadcasts`] and
//! [`record_arithmetic`].
//! [`summa_aat_sym`] specialises `C = A·Aᵀ`: the product is symmetric, so it
//! multiplies only the grid blocks on or above the diagonal and returns that
//! **upper triangle** — half the useful flops and half the stage broadcasts
//! of the general path, and nothing stored or shipped below the diagonal.
//! Each of its blocks picks its own kernel ([`spgemm_aat_block`]): row-wise
//! where the block's output is about as large as its product count, k-major
//! into a dense slot array where the products outnumber the output
//! coordinates.  The choice is invisible in `C` and in every counter.
//!
//! Every SUMMA records its arithmetic into `CommStats::extras` under
//! phase-suffixed keys (see [`flops_key`] and [`probes_key`]), which is how
//! the pipeline reports flops/s per phase.

use crate::accum::FlopCounter;
use crate::csr::CsrMatrix;
use crate::distmat::DistMat2D;
use crate::semiring::Semiring;
use crate::spgemm::{spgemm_aat_block, spgemm_stages, AatStage};
use dibella_dist::collectives::record_broadcast;
use dibella_dist::{par_ranks, wire, CommPhase, CommStats};

pub use dibella_dist::extras::{flops_key, probes_key};

/// One rank's SUMMA stage list, handed to the accumulate-in-place block
/// multiply at once: the pairs `(left(k), right(k))` for `k` in `0..stages`,
/// minus those with an empty operand.
fn stage_pairs<'m, L, R>(
    stages: usize,
    left: impl Fn(usize) -> &'m CsrMatrix<L>,
    right: impl Fn(usize) -> &'m CsrMatrix<R>,
) -> Vec<(&'m CsrMatrix<L>, &'m CsrMatrix<R>)> {
    (0..stages)
        .map(|k| (left(k), right(k)))
        .filter(|(l, r)| !l.is_empty() && !r.is_empty())
        .collect()
}

/// The stage list of block `(i, j)` of `A·Aᵀ` — `A_{i,k}`, its transpose and
/// `(A_{j,k})ᵀ` for every `k` — given `A` and its blockwise transpose `at`,
/// minus the stages with an empty operand.
pub fn aat_block_stages<'m, T: Clone + Send + Sync>(
    a: &'m DistMat2D<T>,
    at: &'m DistMat2D<T>,
    i: usize,
    j: usize,
) -> Vec<AatStage<'m, T>> {
    (0..a.grid().cols())
        .map(|k| AatStage { left: a.block(i, k), left_t: at.block(k, i), right_t: at.block(k, j) })
        .filter(|st| !st.left.is_empty() && !st.right_t.is_empty())
        .collect()
}

/// Close a SUMMA's books: the finished multiply's [`FlopCounter`] folded into
/// `stats` under `phase`.
pub fn record_arithmetic(stats: &CommStats, phase: CommPhase, flops: &FlopCounter) {
    stats.bump_extra(&flops_key(phase), flops.flops());
    stats.bump_extra(&probes_key(phase), flops.probes());
}

/// Charge the stage broadcasts of the Sparse SUMMA `C = A·B` exactly as MPI
/// would perform them: in stage `k`, `A_{i,k}` travels along grid row `i`
/// (to the row's `grid.cols()` members) and `B_{k,j}` along grid column `j`
/// (to the column's `grid.rows()` members).  Broadcasts are collectives, so
/// an empty block still posts its per-member messages (see
/// [`record_broadcast`]); the accounted message count therefore has the
/// data-independent closed form `stages · (rows·(cols-1) + cols·(rows-1))`
/// and the word count is `(group-1) · Σ nnz ·` [`wire::SPGEMM_ENTRY`] per
/// operand.
///
/// [`summa`] calls this for its operands; a kernel that walks the same
/// stages without calling [`summa`] calls it to be charged the same.
pub fn record_stage_broadcasts<L: Clone + Send + Sync, R: Clone + Send + Sync>(
    a: &DistMat2D<L>,
    b: &DistMat2D<R>,
    stats: &CommStats,
    phase: CommPhase,
) {
    let grid = a.grid();
    for k in 0..grid.cols() {
        for i in 0..grid.rows() {
            let words = a.block_nnz(i, k) as u64 * wire::SPGEMM_ENTRY;
            record_broadcast(stats, phase, words, grid.cols());
        }
        for j in 0..grid.cols() {
            let words = b.block_nnz(k, j) as u64 * wire::SPGEMM_ENTRY;
            record_broadcast(stats, phase, words, grid.rows());
        }
    }
}

/// Compute `C = A·B` over semiring `S` with Sparse SUMMA, recording
/// communication into `stats` under `phase`.
pub fn summa<S: Semiring>(
    a: &DistMat2D<S::Left>,
    b: &DistMat2D<S::Right>,
    stats: &CommStats,
    phase: CommPhase,
) -> DistMat2D<S::Out> {
    let grid = a.grid();
    assert_eq!(grid, b.grid(), "SUMMA operands must share a process grid");
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "inner dimension mismatch: A is {}x{}, B is {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    // A's columns and B's rows must be partitioned identically so that stage k
    // pairs matching blocks.  With a square grid and equal inner dimension the
    // BlockDists coincide by construction.
    assert_eq!(a.col_dist(), b.row_dist(), "inner-dimension distributions must match");

    let stages = grid.cols();
    record_stage_broadcasts(a, b, stats, phase);

    // Owner-computes: every rank hands its sqrt(P) stage pairs to one
    // accumulate-in-place block multiply.  Ranks run in parallel; inside each
    // rank the multiply is row-parallel on the same thread budget.
    let row_dist = a.row_dist();
    let col_dist = b.col_dist();
    let flops = FlopCounter::new();
    let blocks: Vec<CsrMatrix<S::Out>> = par_ranks(grid.nprocs(), |rank| {
        let (i, j) = grid.coords(rank);
        let pairs = stage_pairs(stages, |k| a.block(i, k), |k| b.block(k, j));
        spgemm_stages::<S>(row_dist.size(i), col_dist.size(j), &pairs, &flops)
    });
    record_arithmetic(stats, phase, &flops);

    DistMat2D::from_blocks(grid, a.nrows(), b.ncols(), blocks)
}

/// Compute the **upper triangle** (diagonal included) of the symmetric
/// product `C = A·Aᵀ` with a Sparse SUMMA that multiplies only the grid
/// blocks on or above the grid diagonal:
///
/// * an off-diagonal block `i < j` holds `C_{i,j}` whole, computed against the
///   locally transposed blocks of `A`;
/// * a diagonal block `i = j` holds the upper triangle of `C_{i,i}` — its
///   local triangle is the global one, because the block's row and column
///   offsets coincide;
/// * a block `i > j` is empty: `C_{j,i}` is `C_{i,j}` transposed with the
///   operands of every `multiply` swapped, which a reader of `C_{i,j}` can do
///   for itself.
///
/// Each computed block runs the kernel [`spgemm_aat_block`] picks from the
/// block's own product count.  This halves the multiply work of
/// `summa(a, &a.transpose(), ..)` and its stage broadcasts, which shrink to
/// the ranks that compute: block `A_{i,k}` serves grid row `i`'s columns
/// `j ≥ i` as the left operand and grid column `i`'s rows `i' ≤ i` as the
/// transposed right operand — `(√P − i − 1) + i = √P − 1` accounted copies
/// per block instead of the general path's `2(√P − 1)` — so the phase's words
/// and messages are exactly half the general path's.
///
/// The output is **bit-identical** to the entries of
/// `summa(a, &a.transpose(), ..)` on or above the diagonal at every grid
/// size and thread count: products for any entry arrive in the same
/// (stage-major, ascending inner index) order in both formulations.
pub fn summa_aat_sym<S>(
    a: &DistMat2D<S::Left>,
    stats: &CommStats,
    phase: CommPhase,
) -> DistMat2D<S::Out>
where
    S: Semiring<Right = <S as Semiring>::Left>,
{
    let grid = a.grid();

    // Stage broadcasts to the ranks that compute: a (cols − i)-member group
    // of grid row i and an (i + 1)-member group of grid column i.  Empty
    // blocks still post their broadcasts (collectives; see [`summa`]).
    for k in 0..grid.cols() {
        for i in 0..grid.rows() {
            let words = a.block_nnz(i, k) as u64 * wire::SPGEMM_ENTRY;
            record_broadcast(stats, phase, words, grid.cols() - i);
            record_broadcast(stats, phase, words, i + 1);
        }
    }

    // Every block transposed locally, once, shared by all its consumers.
    let at = a.transpose();

    let row_dist = a.row_dist();
    let flops = FlopCounter::new();
    let blocks: Vec<CsrMatrix<S::Out>> = par_ranks(grid.nprocs(), |rank| {
        let (i, j) = grid.coords(rank);
        if i > j {
            return CsrMatrix::zero(row_dist.size(i), row_dist.size(j));
        }
        let stages = aat_block_stages(a, &at, i, j);
        spgemm_aat_block::<S>(row_dist.size(i), row_dist.size(j), &stages, i == j, &flops)
    });
    record_arithmetic(stats, phase, &flops);

    DistMat2D::from_blocks(grid, a.nrows(), a.nrows(), blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{MinPlusNum, PlusTimes};
    use crate::spgemm::local_spgemm;
    use crate::triples::Triples;
    use dibella_dist::ProcessGrid;
    use proptest::prelude::*;

    /// The general `A·Aᵀ`: [`summa`] against the blockwise transpose.
    fn summa_general_aat(a: &DistMat2D<i64>, stats: &CommStats, phase: CommPhase) -> DistMat2D<i64> {
        summa::<PlusTimes<i64>>(a, &a.transpose(), stats, phase)
    }

    fn local_product(at: &Triples<i64>, bt: &Triples<i64>) -> CsrMatrix<i64> {
        local_spgemm::<PlusTimes<i64>>(
            &CsrMatrix::from_triples(at),
            &CsrMatrix::from_triples(bt),
            &FlopCounter::new(),
        )
    }

    fn random_triples(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> Triples<i64> {
        // Simple deterministic pseudo-random pattern (no rand dependency needed).
        let mut t = Triples::new(nrows, ncols);
        let mut seen = std::collections::BTreeSet::new();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        while seen.len() < nnz.min(nrows * ncols) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (state >> 33) as usize % nrows;
            let c = (state >> 13) as usize % ncols;
            if seen.insert((r, c)) {
                t.push(r, c, ((state % 17) as i64) - 8);
            }
        }
        t
    }

    #[test]
    fn summa_matches_local_spgemm_on_square_grid() {
        let grid = ProcessGrid::square(4);
        let at = random_triples(14, 11, 40, 1);
        let bt = random_triples(11, 9, 35, 2);
        let a = DistMat2D::from_triples(grid, &at);
        let b = DistMat2D::from_triples(grid, &bt);
        let stats = CommStats::new();
        let c = summa::<PlusTimes<i64>>(&a, &b, &stats, CommPhase::OverlapDetection);
        let local = local_product(&at, &bt);
        assert_eq!(c.to_local_csr(), local);
    }

    #[test]
    fn summa_single_rank_has_zero_communication() {
        let grid = ProcessGrid::square(1);
        let at = random_triples(10, 10, 25, 3);
        let a = DistMat2D::from_triples(grid, &at);
        let b = a.transpose();
        let stats = CommStats::new();
        let _ = summa::<PlusTimes<i64>>(&a, &b, &stats, CommPhase::OverlapDetection);
        assert_eq!(stats.words(CommPhase::OverlapDetection), 0);
        assert_eq!(stats.messages(CommPhase::OverlapDetection), 0);
    }

    #[test]
    fn summa_communication_grows_with_grid_size() {
        // The per-rank bandwidth should shrink with sqrt(P) but the aggregate
        // (what CommStats totals) grows; check both qualitatively.
        let at = random_triples(24, 24, 200, 5);
        let bt = random_triples(24, 24, 200, 6);
        let mut totals = Vec::new();
        for p in [1usize, 4, 16] {
            let grid = ProcessGrid::square(p);
            let a = DistMat2D::from_triples(grid, &at);
            let b = DistMat2D::from_triples(grid, &bt);
            let stats = CommStats::new();
            let _ = summa::<PlusTimes<i64>>(&a, &b, &stats, CommPhase::OverlapDetection);
            totals.push((
                stats.words(CommPhase::OverlapDetection),
                stats.messages(CommPhase::OverlapDetection),
            ));
        }
        assert_eq!(totals[0], (0, 0));
        assert!(totals[1].0 > 0);
        assert!(totals[2].0 > totals[1].0);
        // Latency: aggregate messages grow with P, per the 2(sqrt(P)-1) broadcasts per stage.
        assert!(totals[2].1 > totals[1].1);
    }

    #[test]
    fn summa_respects_min_plus_semiring() {
        // Two-hop shortest paths on a small digraph, distributed.
        let grid = ProcessGrid::square(4);
        let entries = vec![(0usize, 1usize, 4u64), (1, 2, 1), (0, 3, 2), (3, 2, 9), (2, 0, 7)];
        let t = Triples::from_entries(4, 4, entries);
        let r = DistMat2D::from_triples(grid, &t);
        let stats = CommStats::new();
        let n = summa::<MinPlusNum<u64>>(&r, &r, &stats, CommPhase::TransitiveReduction);
        let local = local_spgemm::<MinPlusNum<u64>>(
            &CsrMatrix::from_triples(&t),
            &CsrMatrix::from_triples(&t),
            &FlopCounter::new(),
        );
        assert_eq!(n.to_local_csr(), local);
        // 0 -> 2 best two-hop path is via 1 (4+1=5), not via 3 (2+9=11).
        assert_eq!(n.get(0, 2), Some(&5));
    }

    #[test]
    fn summa_records_flops_per_phase() {
        let grid = ProcessGrid::square(4);
        let at = random_triples(16, 16, 80, 9);
        let a = DistMat2D::from_triples(grid, &at);
        let b = DistMat2D::from_triples(grid, &random_triples(16, 16, 80, 10));
        let stats = CommStats::new();
        let _ = summa::<PlusTimes<i64>>(&a, &b, &stats, CommPhase::OverlapDetection);
        assert!(stats.extra(&flops_key(CommPhase::OverlapDetection)) > 0);
        assert!(stats.extra(&probes_key(CommPhase::OverlapDetection)) > 0);
        assert_eq!(stats.extra(&flops_key(CommPhase::TransitiveReduction)), 0);
        // 2 flops per accumulated product.
        assert_eq!(stats.extra(&flops_key(CommPhase::OverlapDetection)) % 2, 0);
    }

    #[test]
    fn summa_flops_are_independent_of_the_grid() {
        let at = random_triples(20, 20, 150, 11);
        let bt = random_triples(20, 20, 150, 12);
        let mut flops = Vec::new();
        for p in [1usize, 4, 16] {
            let grid = ProcessGrid::square(p);
            let a = DistMat2D::from_triples(grid, &at);
            let b = DistMat2D::from_triples(grid, &bt);
            let stats = CommStats::new();
            let _ = summa::<PlusTimes<i64>>(&a, &b, &stats, CommPhase::Other);
            flops.push(stats.extra(&flops_key(CommPhase::Other)));
        }
        assert!(flops[0] > 0);
        assert_eq!(flops[0], flops[1], "useful flops must not depend on the decomposition");
        assert_eq!(flops[0], flops[2]);
    }

    #[test]
    fn summa_against_the_transpose_squares_a_matrix() {
        let grid = ProcessGrid::square(4);
        let at = random_triples(15, 12, 70, 31);
        let a = DistMat2D::from_triples(grid, &at);
        let stats = CommStats::new();
        let c = summa_general_aat(&a, &stats, CommPhase::OverlapDetection);
        let local_a = CsrMatrix::from_triples(&at);
        let want =
            local_spgemm::<PlusTimes<i64>>(&local_a, &local_a.transpose(), &FlopCounter::new());
        assert_eq!(c.to_local_csr(), want);
        assert_eq!(c.nrows(), 15);
        assert_eq!(c.ncols(), 15);
    }

    #[test]
    fn summa_aat_sym_is_bit_identical_to_summa_against_the_transpose_on_paper_grids() {
        let at = random_triples(19, 14, 90, 41);
        for p in [1usize, 4, 9, 16] {
            let grid = ProcessGrid::square(p);
            let a = DistMat2D::from_triples(grid, &at);
            let sym = summa_aat_sym::<PlusTimes<i64>>(&a, &CommStats::new(), CommPhase::Other);
            let general = summa_general_aat(&a, &CommStats::new(), CommPhase::Other);
            // Distributed equality: every block, bit for bit.
            assert_eq!(sym, general.filter(|r, c, _| r <= c), "P={p}");
        }
    }

    #[test]
    fn summa_aat_sym_is_deterministic_across_thread_counts() {
        let at = random_triples(21, 16, 110, 43);
        let grid = ProcessGrid::square(9);
        let a = DistMat2D::from_triples(grid, &at);
        let reference = rayon::pool::with_thread_limit(1, || {
            summa_aat_sym::<PlusTimes<i64>>(&a, &CommStats::new(), CommPhase::Other)
        });
        for threads in [2usize, 4, 8] {
            let got = rayon::pool::with_thread_limit(threads, || {
                summa_aat_sym::<PlusTimes<i64>>(&a, &CommStats::new(), CommPhase::Other)
            });
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn summa_aat_sym_flops_are_half_the_general_path_and_grid_independent() {
        let at = random_triples(24, 18, 160, 45);
        let mut sym_flops = Vec::new();
        let mut general_flops = 0;
        for p in [1usize, 4, 9, 16] {
            let grid = ProcessGrid::square(p);
            let a = DistMat2D::from_triples(grid, &at);
            let stats = CommStats::new();
            let _ = summa_aat_sym::<PlusTimes<i64>>(&a, &stats, CommPhase::Other);
            sym_flops.push(stats.extra(&flops_key(CommPhase::Other)));
            let stats_abt = CommStats::new();
            let _ = summa_general_aat(&a, &stats_abt, CommPhase::Other);
            general_flops = stats_abt.extra(&flops_key(CommPhase::Other));
        }
        assert!(sym_flops[0] > 0);
        for (i, &f) in sym_flops.iter().enumerate() {
            assert_eq!(f, sym_flops[0], "useful flops must not depend on the grid (case {i})");
        }
        // The upper triangle holds half the products plus the diagonal:
        // general = 2·sym − diag, so sym is ~half and never more than
        // (general + diag)/2.
        assert!(sym_flops[0] < general_flops, "symmetric path must do less work");
        assert!(
            sym_flops[0] <= general_flops / 2 + general_flops / 8,
            "expected ~half the flops: sym={} general={general_flops}",
            sym_flops[0]
        );
        assert!(2 * sym_flops[0] >= general_flops, "upper triangle covers every product once");
    }

    #[test]
    fn summa_aat_sym_single_rank_has_zero_communication() {
        let grid = ProcessGrid::square(1);
        let a = DistMat2D::from_triples(grid, &random_triples(12, 9, 40, 47));
        let stats = CommStats::new();
        let _ = summa_aat_sym::<PlusTimes<i64>>(&a, &stats, CommPhase::OverlapDetection);
        assert_eq!(stats.words(CommPhase::OverlapDetection), 0);
        assert_eq!(stats.messages(CommPhase::OverlapDetection), 0);
    }

    #[test]
    fn summa_accounting_matches_the_closed_form() {
        // With empty blocks still posting their (collective) broadcasts, the
        // accounted totals have data-independent closed forms: for a side-s
        // grid, messages = 2·s²·(s−1)·[per stage] = 2·s²·(s−1) summed over
        // the s stages... i.e. s stages × 2·s·(s−1) messages, and words =
        // (s−1)·(nnz(A) + nnz(B))·w at w = wire::SPGEMM_ENTRY per entry.
        let at = random_triples(17, 13, 70, 51);
        let bt = random_triples(13, 11, 55, 52);
        let w = wire::SPGEMM_ENTRY;
        for side in [1usize, 2, 3] {
            let grid = ProcessGrid::square(side * side);
            let a = DistMat2D::from_triples(grid, &at);
            let b = DistMat2D::from_triples(grid, &bt);
            let stats = CommStats::new();
            let _ = summa::<PlusTimes<i64>>(&a, &b, &stats, CommPhase::Other);
            let s = side as u64;
            let words = (s - 1) * (at.nnz() + bt.nnz()) as u64 * w;
            assert_eq!(stats.words(CommPhase::Other), words, "side={side}");
            assert_eq!(stats.messages(CommPhase::Other), s * 2 * s * (s - 1), "side={side}");
            // The symmetric path posts exactly half the general path's
            // broadcasts of A and Aᵀ, in words and in messages, and nothing else.
            let general = CommStats::new();
            let _ = summa_general_aat(&a, &general, CommPhase::Other);
            let sym = CommStats::new();
            let _ = summa_aat_sym::<PlusTimes<i64>>(&a, &sym, CommPhase::Other);
            assert_eq!(2 * sym.words(CommPhase::Other), general.words(CommPhase::Other));
            assert_eq!(2 * sym.messages(CommPhase::Other), general.messages(CommPhase::Other));
            assert_eq!(sym.words(CommPhase::Other), (s - 1) * at.nnz() as u64 * w, "side={side}");
        }
    }

    #[test]
    fn empty_blocks_still_post_their_broadcasts() {
        // The accounting decision, pinned: broadcasts are collectives, so an
        // all-zero operand records its full closed-form message count and
        // zero words (point-to-point sends, by contrast, skip empty buffers —
        // see the collectives tests).
        let grid = ProcessGrid::square(9);
        let a = DistMat2D::<i64>::zero(grid, 12, 12);
        let b = DistMat2D::<i64>::zero(grid, 12, 12);
        let stats = CommStats::new();
        let _ = summa::<PlusTimes<i64>>(&a, &b, &stats, CommPhase::Other);
        assert_eq!(stats.words(CommPhase::Other), 0);
        assert_eq!(stats.messages(CommPhase::Other), 3 * 2 * 3 * 2);
        let stats_sym = CommStats::new();
        let _ = summa_aat_sym::<PlusTimes<i64>>(&a, &stats_sym, CommPhase::Other);
        assert_eq!(stats_sym.words(CommPhase::Other), 0);
        // Half the general path's broadcasts: s·(s−1) per stage × s stages.
        assert_eq!(stats_sym.messages(CommPhase::Other), 3 * 2 * 3);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn summa_rejects_dimension_mismatch() {
        let grid = ProcessGrid::square(4);
        let a = DistMat2D::from_triples(grid, &random_triples(4, 5, 4, 7));
        let b = DistMat2D::from_triples(grid, &random_triples(4, 4, 4, 8));
        let stats = CommStats::new();
        let _ = summa::<PlusTimes<i64>>(&a, &b, &stats, CommPhase::Other);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_summa_equals_local_product(
            seed_a in 0u64..1000,
            seed_b in 0u64..1000,
            grid_side in 1usize..4,
            n in 6usize..20,
            m in 6usize..20,
            k in 6usize..20,
        ) {
            let at = random_triples(n, m, n * m / 3, seed_a);
            let bt = random_triples(m, k, m * k / 3, seed_b);
            let grid = ProcessGrid::square(grid_side * grid_side);
            let a = DistMat2D::from_triples(grid, &at);
            let b = DistMat2D::from_triples(grid, &bt);
            let stats = CommStats::new();
            let c = summa::<PlusTimes<i64>>(&a, &b, &stats, CommPhase::OverlapDetection);
            let local = local_product(&at, &bt);
            prop_assert_eq!(c.to_local_csr(), local);
        }

        #[test]
        fn prop_summa_aat_sym_equals_summa_against_the_transpose(
            seed in 0u64..1000,
            grid_side in 1usize..5,
            n in 6usize..20,
            m in 6usize..18,
        ) {
            let at = random_triples(n, m, (n * m / 3).max(1), seed);
            let grid = ProcessGrid::square(grid_side * grid_side);
            let a = DistMat2D::from_triples(grid, &at);
            let sym = summa_aat_sym::<PlusTimes<i64>>(&a, &CommStats::new(), CommPhase::Other);
            let general = summa_general_aat(&a, &CommStats::new(), CommPhase::Other);
            prop_assert_eq!(sym, general.filter(|r, c, _| r <= c));
        }
    }
}
