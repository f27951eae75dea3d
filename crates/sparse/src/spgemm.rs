//! Local sparse matrix-matrix multiplication over a semiring.
//!
//! CombBLAS' local SpGEMM uses a tuned hybrid hash/heap algorithm; this
//! module implements a row-wise Gustavson SpGEMM on top of the reusable dense
//! SPA ([`DenseSpa`]): one accumulator is created per worker thread of the
//! work-stealing pool and reused across every output row that worker claims —
//! and, through [`spgemm_stages`], across all SUMMA stages of a block
//! product, so no per-row map is ever allocated and no per-stage sorted-merge
//! is performed.  Every kernel folds each product into its slot through
//! [`Semiring::multiply_add`], the row-wise ones by [`DenseSpa`]'s `fold`.
//!
//! There are two row-wise stage kernels: the general `Σ A_s·B_s`
//! ([`spgemm_stages`]) and the upper triangle of `Σ A_s·A_sᵀ`
//! ([`spgemm_stages_aat`]).  Both take their right operands by rows; a
//! product with a transpose is a product with [`CsrMatrix::transpose`]'s
//! result.  A product of a matrix with its own transpose multiplies `Left`
//! by `Left`, which its kernels say in their bound: `Semiring<Right = Left>`.
//! Such a product is symmetric up to swapping the operands of every
//! `multiply`, so its kernels return the **upper triangle** (diagonal
//! included) and nothing below it: the caller that wants `C[j][i]` reads
//! `C[i][j]`.
//!
//! A block of overlap detection's `C = A·Aᵀ` goes through
//! [`spgemm_aat_block`], which runs those kernels where the block's output
//! is about as large as its product count, and a third, **k-major** kernel
//! where it is much smaller (`products ≥ rows × cols`, counted exactly from
//! the operands' row lengths — [`aat_block_is_k_major`]).  The row-wise
//! kernels re-fetch a short row of `Aᵀ` for every (row, inner index) visit
//! and build one `Out` per product; measured on 1.2 kb reads at 0.2% error
//! (600 products per stored entry of `C`) that is 17–30 ns per product, 24 ms
//! of a block's 53 in traversal alone.  The k-major kernel walks inner indices
//! instead, streams both transposed operands once and folds each cross
//! product into a dense slot per output coordinate: 4× faster there, and
//! pointless where the slots would stay empty.  Both sides produce the same
//! CSR and the same tallies.
//!
//! All kernels tally useful flops and the peak row width into a
//! [`FlopCounter`] (a probe is one slot inspection, one per folded product in
//! every kernel); the distributed layers fold those into `CommStats::extras`
//! so every phase reports flops/s.

use crate::accum::{DenseSpa, FlopCounter};
use crate::csr::CsrMatrix;
use crate::semiring::Semiring;
use rayon::pool;

/// One block product's stage list: the `(A_s, B_s)` operand pairs
/// accumulated into one output block.
type Stages<'a, L, R> = [(&'a CsrMatrix<L>, &'a CsrMatrix<R>)];

/// Check every stage's dimensions against the output block and between the
/// pair's operands, panicking on the first disagreement.
fn check_stages<L, R>(out_rows: usize, out_cols: usize, stages: &Stages<'_, L, R>) {
    for (a, b) in stages {
        assert_eq!(a.nrows(), out_rows, "stage with mismatched output row count");
        assert_eq!(b.ncols(), out_cols, "stage with mismatched output column count");
        assert_eq!(
            a.ncols(),
            b.nrows(),
            "inner dimension mismatch: A is {}x{}, B is {}x{}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        );
    }
}

/// Extract the finished output row from `acc` (sorted, leaving `acc` empty
/// for the worker's next row) and tally its work into `flops`.
fn finish_row<T>(acc: &mut DenseSpa<T>, products: u64, flops: &FlopCounter) -> Vec<(usize, T)> {
    flops.record_row(products, acc.len() as u64);
    acc.extract_sorted()
}

/// Multiply-accumulate a whole sequence of stage pairs into one output block:
/// `C = Σ_s A_s · B_s`, parallel over output rows with one reusable
/// accumulator per worker.
///
/// This is the kernel SUMMA uses: every rank passes its `√P` stage pairs at
/// once, so each output row is accumulated in place across all stages and
/// extracted (sorted) exactly once — no per-stage sorted merge.
///
/// # Panics
/// Panics if any stage's dimensions disagree with `out_rows`/`out_cols` or
/// between the pair's operands.
pub fn spgemm_stages<S: Semiring>(
    out_rows: usize,
    out_cols: usize,
    stages: &Stages<'_, S::Left, S::Right>,
    flops: &FlopCounter,
) -> CsrMatrix<S::Out> {
    check_stages(out_rows, out_cols, stages);
    let rows: Vec<Vec<(usize, S::Out)>> = pool::map_indexed_with(
        out_rows,
        || DenseSpa::new(out_cols),
        |acc, i| {
            let mut products = 0u64;
            for (a, b) in stages {
                for (k, aval) in a.row(i) {
                    for (j, bval) in b.row(k) {
                        products += u64::from(acc.fold::<S>(j, aval, bval));
                    }
                }
            }
            finish_row(acc, products, flops)
        },
    );
    rows_to_csr(out_rows, out_cols, rows)
}

/// Compute `C = A · B` over semiring `S`, tallying the work into `flops`.
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn local_spgemm<S: Semiring>(
    a: &CsrMatrix<S::Left>,
    b: &CsrMatrix<S::Right>,
    flops: &FlopCounter,
) -> CsrMatrix<S::Out> {
    spgemm_stages::<S>(a.nrows(), b.ncols(), &[(a, b)], flops)
}

/// Compute the **upper triangle** (diagonal included) of the symmetric
/// product `C = A · Aᵀ` — half the multiply work of
/// `local_spgemm(a, &a.transpose(), ..)`, whose entries on or above the
/// diagonal it equals bit for bit, and only those multiplies are tallied into
/// `flops`.
///
/// `Aᵀ` is materialised once (each of its rows is walked `O(column degree)`
/// times, so a contiguous copy pays for itself); the product is one diagonal
/// block of [`spgemm_aat_block`], which picks its kernel from the product
/// count.
pub fn local_spgemm_aat<S>(a: &CsrMatrix<S::Left>, flops: &FlopCounter) -> CsrMatrix<S::Out>
where
    S: Semiring<Right = <S as Semiring>::Left>,
{
    let at = a.transpose();
    let stage = AatStage { left: a, left_t: &at, right_t: &at };
    spgemm_aat_block::<S>(a.nrows(), a.nrows(), &[stage], true, flops)
}

/// Multiply-accumulate a sequence of stage pairs into the upper triangle
/// (diagonal included) of one **diagonal** block of a symmetric product,
/// `C = Σ_s A_s · (A_s)ᵀ` — the multi-stage generalisation of
/// [`local_spgemm_aat`] that the symmetric Sparse SUMMA runs on its
/// grid-diagonal blocks.
///
/// `n` is the (square) output dimension; each stage's right operand must be
/// the transpose of its left one (same inner dimension, `n` columns).  Row
/// `i` enters every right row at its upper-triangle offset via
/// [`CsrMatrix::row_from`] (a binary search per inner index — which is why
/// this is a kernel of its own and not a flag on [`spgemm_stages`]).
///
/// Exactness: for every inner index shared by rows `i` and `j ≥ i`, the
/// products contributing to `C[i][j]` arrive in the same (stage-major,
/// ascending inner index) order in both this kernel and the general
/// [`spgemm_stages`], so the two agree on the upper triangle entry for entry.
/// Only the upper-triangle multiplies are tallied into `flops`.
pub fn spgemm_stages_aat<S>(
    n: usize,
    stages: &Stages<'_, S::Left, S::Left>,
    flops: &FlopCounter,
) -> CsrMatrix<S::Out>
where
    S: Semiring<Right = <S as Semiring>::Left>,
{
    check_stages(n, n, stages);
    let upper: Vec<Vec<(usize, S::Out)>> = pool::map_indexed_with(
        n,
        || DenseSpa::new(n),
        |acc, i| {
            let mut products = 0u64;
            for (a, at) in stages {
                for (k, aval) in a.row(i) {
                    for (j, bval) in at.row_from(k, i) {
                        products += u64::from(acc.fold::<S>(j, aval, bval));
                    }
                }
            }
            finish_row(acc, products, flops)
        },
    );
    rows_to_csr(n, n, upper)
}

/// One SUMMA stage of a block `C_{i,j} = Σ_k A_{i,k}·(A_{j,k})ᵀ` of the
/// symmetric product, with every operand by rows so that either block kernel
/// of [`spgemm_aat_block`] can run on it.
#[derive(Debug)]
pub struct AatStage<'a, T> {
    /// `A_{i,k}`: output rows × inner.
    pub left: &'a CsrMatrix<T>,
    /// `(A_{i,k})ᵀ`: inner × output rows.
    pub left_t: &'a CsrMatrix<T>,
    /// `(A_{j,k})ᵀ`: inner × output columns (`left_t` again on a diagonal block).
    pub right_t: &'a CsrMatrix<T>,
}

/// The two kernels a block of `A·Aᵀ` can run on (see [`spgemm_aat_block`]).
#[derive(Debug, Clone, Copy)]
enum BlockKernel {
    /// Row-wise: [`spgemm_stages`] / [`spgemm_stages_aat`].
    Gustavson,
    /// Inner-index-major into a dense slot array: [`aat_block_k_major`].
    KMajor,
}

/// One output row as the kernels hand it over: `(column, value)`, ascending.
type SparseRow<T> = Vec<(usize, T)>;

/// Slots (output coordinates) one k-major row tile may hold: the dense
/// array a worker scatters into, and the granularity of the pool's work.
const TILE_SLOTS: usize = 1 << 17;

/// The products a block's stages will multiply, exactly, from the row
/// lengths of its two `Aᵀ` operands: `Σ_k |Aᵀ_{k,i}[k]|·|Aᵀ_{k,j}[k]|`, or the
/// upper triangle's `d(d+1)/2` per inner index on a diagonal block.
fn aat_block_products<T>(stages: &[AatStage<'_, T>], diagonal: bool) -> u64 {
    let per_stage = |st: &AatStage<'_, T>| -> u64 {
        let (l, r) = (st.left_t.rowptr(), st.right_t.rowptr());
        l.windows(2)
            .zip(r.windows(2))
            .map(|(l, r)| {
                let (l, r) = ((l[1] - l[0]) as u64, (r[1] - r[0]) as u64);
                if diagonal { l * (l + 1) / 2 } else { l * r }
            })
            .sum()
    };
    stages.iter().map(per_stage).sum()
}

/// Whether [`spgemm_aat_block`] runs this block k-major: when its stages
/// multiply at least as many products as the output block has coordinates
/// (the module docs say what was measured on either side).  On a block whose
/// output is about as large as its product count — the regime the paper runs
/// in, `n/√P ≥ 10⁴` columns — a dense slot array would be mostly empty, so the
/// rule needs no knob: it bounds the array by the work that fills it.
pub fn aat_block_is_k_major<T>(
    out_rows: usize,
    out_cols: usize,
    stages: &[AatStage<'_, T>],
    diagonal: bool,
) -> bool {
    let area = out_rows as u64 * out_cols as u64;
    area > 0 && aat_block_products(stages, diagonal) >= area
}

/// One block of the symmetric product `C = A·Aᵀ`: `Σ_s left_s · right_tₛ`,
/// on a `diagonal` block only the upper triangle.  The block picks
/// its own kernel by [`aat_block_is_k_major`]; both produce the same CSR and
/// the same tallies in `flops`, so the choice is invisible in every output.
///
/// # Panics
/// Panics if a stage's dimensions disagree with the block's or with each
/// other, or if a `diagonal` block is not square.
pub fn spgemm_aat_block<S>(
    out_rows: usize,
    out_cols: usize,
    stages: &[AatStage<'_, S::Left>],
    diagonal: bool,
    flops: &FlopCounter,
) -> CsrMatrix<S::Out>
where
    S: Semiring<Right = <S as Semiring>::Left>,
{
    let kernel = if aat_block_is_k_major(out_rows, out_cols, stages, diagonal) {
        BlockKernel::KMajor
    } else {
        BlockKernel::Gustavson
    };
    aat_block_with::<S>(kernel, out_rows, out_cols, stages, diagonal, flops)
}

/// [`spgemm_aat_block`] on a given kernel.
fn aat_block_with<S>(
    kernel: BlockKernel,
    out_rows: usize,
    out_cols: usize,
    stages: &[AatStage<'_, S::Left>],
    diagonal: bool,
    flops: &FlopCounter,
) -> CsrMatrix<S::Out>
where
    S: Semiring<Right = <S as Semiring>::Left>,
{
    assert!(!diagonal || out_rows == out_cols, "a diagonal block is square");
    let pairs: Vec<_> = stages.iter().map(|st| (st.left, st.right_t)).collect();
    check_stages(out_rows, out_cols, &pairs);
    for st in stages {
        let transposed = (st.left.ncols(), st.left.nrows());
        assert_eq!((st.left_t.nrows(), st.left_t.ncols()), transposed, "left_t is not shaped like leftᵀ");
    }
    match kernel {
        BlockKernel::Gustavson => {
            if diagonal {
                spgemm_stages_aat::<S>(out_rows, &pairs, flops)
            } else {
                spgemm_stages::<S>(out_rows, out_cols, &pairs, flops)
            }
        }
        BlockKernel::KMajor => {
            let rows = aat_block_k_major::<S>(out_rows, out_cols, stages, diagonal, flops);
            rows_to_csr(out_rows, out_cols, rows)
        }
    }
}

/// The k-major block kernel: for every stage and every inner index `k`, fold
/// the cross product of `left_t`'s row `k` with `right_t`'s row `k` (on a
/// diagonal block, of the row with itself from the diagonal position on)
/// into a dense slot per output coordinate through
/// [`Semiring::multiply_add`], then emit each output row by scanning its
/// slots, which are already in column order.
///
/// Row tiles of at most [`TILE_SLOTS`] slots are the pool's work items, one
/// slot array per worker reused across its tiles; an output row lives in one
/// tile, so the result cannot depend on threads or on the claim order.  Every
/// `(i, j)` still receives its products stage-major in ascending `k`, and
/// tallies one product per fold — the order and the count of the row-wise
/// kernels.
fn aat_block_k_major<S>(
    out_rows: usize,
    out_cols: usize,
    stages: &[AatStage<'_, S::Left>],
    diagonal: bool,
    flops: &FlopCounter,
) -> Vec<SparseRow<S::Out>>
where
    S: Semiring<Right = <S as Semiring>::Left>,
{
    // As few tiles as the slot bound allows, then evened out.
    let ntiles = out_rows.div_ceil((TILE_SLOTS / out_cols.max(1)).max(1));
    let tile_rows = out_rows.div_ceil(ntiles.max(1));
    let tiles: Vec<Vec<SparseRow<S::Out>>> = pool::map_indexed_with(
        ntiles,
        || vec![None; tile_rows * out_cols],
        |slots: &mut Vec<Option<S::Out>>, tile| {
            let first = tile * tile_rows;
            let end = (first + tile_rows).min(out_rows);
            let mut products = 0u64;
            for st in stages {
                let (lptr, lcol, lval) = (st.left_t.rowptr(), st.left_t.colidx(), st.left_t.values());
                let (rptr, rcol, rval) = (st.right_t.rowptr(), st.right_t.colidx(), st.right_t.values());
                for k in 0..st.left_t.nrows() {
                    let (l0, l1) = (lptr[k], lptr[k + 1]);
                    let (r0, r1) = (rptr[k], rptr[k + 1]);
                    let skip = lcol[l0..l1].partition_point(|&i| i < first);
                    for p in l0 + skip..l1 {
                        if lcol[p] >= end {
                            break;
                        }
                        let row = &mut slots[(lcol[p] - first) * out_cols..][..out_cols];
                        // Diagonal: `left_t` is `right_t`, so position `p` of
                        // this row is the diagonal and `p..` the upper triangle.
                        let from = if diagonal { p } else { r0 };
                        for (&j, b) in rcol[from..r1].iter().zip(&rval[from..r1]) {
                            products += u64::from(S::multiply_add(&mut row[j], &lval[p], b));
                        }
                    }
                }
            }
            let mut width = 0;
            let rows = (first..end)
                .map(|i| {
                    let from = if diagonal { i } else { 0 };
                    let row_slots = &mut slots[(i - first) * out_cols..][from..out_cols];
                    let row: SparseRow<S::Out> = row_slots
                        .iter_mut()
                        .enumerate()
                        .filter_map(|(j, slot)| slot.take().map(|v| (from + j, v)))
                        .collect();
                    width = width.max(row.len());
                    row
                })
                .collect();
            flops.record_row(products, width as u64);
            rows
        },
    );
    tiles.into_iter().flatten().collect()
}

/// Assemble per-row `(col, value)` lists into a CSR matrix.
pub(crate) fn rows_to_csr<T: Clone + Send>(
    nrows: usize,
    ncols: usize,
    rows: Vec<Vec<(usize, T)>>,
) -> CsrMatrix<T> {
    assert_eq!(rows.len(), nrows);
    let nnz: usize = rows.iter().map(|r| r.len()).sum();
    let mut rowptr = Vec::with_capacity(nrows + 1);
    rowptr.push(0usize);
    let mut colidx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for row in rows {
        for (c, v) in row {
            colidx.push(c);
            vals.push(v);
        }
        rowptr.push(colidx.len());
    }
    CsrMatrix::from_raw(nrows, ncols, rowptr, colidx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distmat::DistMat2D;
    use crate::semiring::{BoolAndOr, MinPlusNum, PlusTimes};
    use crate::triples::Triples;
    use dibella_dist::ProcessGrid;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn matrix_from(entries: Vec<(usize, usize, i64)>, nrows: usize, ncols: usize) -> CsrMatrix<i64> {
        CsrMatrix::from_triples(&Triples::from_entries(nrows, ncols, entries))
    }

    /// [`local_spgemm`] for tests that do not look at the counters.
    fn product<S: Semiring>(a: &CsrMatrix<S::Left>, b: &CsrMatrix<S::Right>) -> CsrMatrix<S::Out> {
        local_spgemm::<S>(a, b, &FlopCounter::new())
    }

    /// A straightforward dense reference SpGEMM, the oracle the sparse
    /// kernels are validated against.
    fn dense_reference_spgemm<S: Semiring>(
        a: &CsrMatrix<S::Left>,
        b: &CsrMatrix<S::Right>,
    ) -> Vec<Vec<Option<S::Out>>> {
        assert_eq!(a.ncols(), b.nrows());
        let mut dense: Vec<Vec<Option<S::Out>>> = vec![vec![None; b.ncols()]; a.nrows()];
        for (i, k, aval) in a.iter() {
            for (j, bval) in b.row(k) {
                if let Some(prod) = S::multiply(aval, bval) {
                    match &mut dense[i][j] {
                        Some(acc) => S::add(acc, prod),
                        slot @ None => *slot = Some(prod),
                    }
                }
            }
        }
        dense
    }

    /// Compare a sparse result against the dense reference.
    fn matches_dense<T: PartialEq + Clone>(
        sparse: &CsrMatrix<T>,
        dense: &[Vec<Option<T>>],
    ) -> bool {
        if dense.len() != sparse.nrows() {
            return false;
        }
        for (i, dense_row) in dense.iter().enumerate() {
            for (j, d) in dense_row.iter().enumerate() {
                if d.as_ref() != sparse.get(i, j) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn small_plus_times_product() {
        // A = [1 2; 0 3], B = [4 0; 5 6]  =>  C = [14 12; 15 18]
        let a = matrix_from(vec![(0, 0, 1), (0, 1, 2), (1, 1, 3)], 2, 2);
        let b = matrix_from(vec![(0, 0, 4), (1, 0, 5), (1, 1, 6)], 2, 2);
        let c = product::<PlusTimes<i64>>(&a, &b);
        assert_eq!(c.get(0, 0), Some(&14));
        assert_eq!(c.get(0, 1), Some(&12));
        assert_eq!(c.get(1, 0), Some(&15));
        assert_eq!(c.get(1, 1), Some(&18));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn product_with_empty_matrix_is_empty() {
        let a = matrix_from(vec![(0, 0, 1)], 2, 3);
        let b = CsrMatrix::<i64>::zero(3, 4);
        let c = product::<PlusTimes<i64>>(&a, &b);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.nrows(), 2);
        assert_eq!(c.ncols(), 4);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_dimensions_panic() {
        let a = matrix_from(vec![(0, 0, 1)], 2, 3);
        let b = matrix_from(vec![(0, 0, 1)], 2, 2);
        let _ = product::<PlusTimes<i64>>(&a, &b);
    }

    #[test]
    fn min_plus_finds_two_hop_shortest_paths() {
        // Path graph 0 -> 1 -> 2 with weights 2 and 3, plus direct 0 -> 2 with weight 10.
        let entries = vec![(0usize, 1usize, 2u64), (1, 2, 3), (0, 2, 10)];
        let r = CsrMatrix::from_triples(&Triples::from_entries(3, 3, entries));
        let n = product::<MinPlusNum<u64>>(&r, &r);
        // Two-hop path 0 -> 2 via 1 costs 5; the "direct then nothing" path is absent
        // because there is no outgoing edge from 2.
        assert_eq!(n.get(0, 2), Some(&5));
    }

    #[test]
    fn bool_semiring_squares_reachability() {
        let entries = vec![(0usize, 1usize, true), (1, 2, true)];
        let g = CsrMatrix::from_triples(&Triples::from_entries(3, 3, entries));
        let g2 = product::<BoolAndOr>(&g, &g);
        assert_eq!(g2.get(0, 2), Some(&true));
        assert_eq!(g2.nnz(), 1);
    }

    #[test]
    fn symmetric_aat_matches_the_product_with_the_transpose() {
        let a = arb_like_matrix(25, 18, 9);
        let sym = local_spgemm_aat::<PlusTimes<i64>>(&a, &FlopCounter::new());
        let general = product::<PlusTimes<i64>>(&a, &a.transpose()).filter(|r, c, _| r <= c);
        assert_eq!(sym, general);
        assert!(sym.validate().is_ok());
    }

    #[test]
    fn symmetric_aat_counts_roughly_half_the_products() {
        let a = arb_like_matrix(30, 20, 10);
        let full = FlopCounter::new();
        let _ = local_spgemm::<PlusTimes<i64>>(&a, &a.transpose(), &full);
        let half = FlopCounter::new();
        let _ = local_spgemm_aat::<PlusTimes<i64>>(&a, &half);
        assert!(half.flops() > 0);
        assert!(
            half.flops() <= full.flops() / 2 + full.flops() / 8,
            "upper-triangle kernel should perform about half the multiplies \
             ({} vs {})",
            half.flops(),
            full.flops()
        );
    }

    #[test]
    fn staged_aat_kernel_matches_the_single_stage_one() {
        // Split A column-wise into two stages; Σ_s A_s·A_sᵀ over both must
        // equal the one-shot A·Aᵀ.
        let a = arb_like_matrix(14, 10, 4);
        let whole = local_spgemm_aat::<PlusTimes<i64>>(&a, &FlopCounter::new());
        let left = a.filter(|_, c, _| c < 5);
        let right = a.filter(|_, c, _| c >= 5);
        let (lt, rt) = (left.transpose(), right.transpose());
        let flops = FlopCounter::new();
        let staged = spgemm_stages_aat::<PlusTimes<i64>>(
            a.nrows(),
            &[(&left, &lt), (&right, &rt)],
            &flops,
        );
        assert_eq!(staged, whole);
        assert!(flops.flops() > 0);
    }

    #[test]
    fn stages_accumulate_like_separate_products() {
        // C = A0·B0 + A1·B1, accumulated in one spgemm_stages call.
        let a0 = matrix_from(vec![(0, 0, 1), (1, 1, 2)], 2, 2);
        let b0 = matrix_from(vec![(0, 0, 3), (1, 1, 4)], 2, 3);
        let a1 = matrix_from(vec![(0, 0, 5), (1, 0, 6)], 2, 1);
        let b1 = matrix_from(vec![(0, 0, 7), (0, 2, 8)], 1, 3);
        let flops = FlopCounter::new();
        let c = spgemm_stages::<PlusTimes<i64>>(
            2,
            3,
            &[(&a0, &b0), (&a1, &b1)],
            &flops,
        );
        // A0·B0 = [3 0 0; 0 8 0], A1·B1 = [35 0 40; 42 0 48].
        let want = matrix_from(vec![(0, 0, 38), (0, 2, 40), (1, 0, 42), (1, 1, 8), (1, 2, 48)], 2, 3);
        assert_eq!(c, want);
        assert!(flops.flops() > 0);
        assert!(flops.peak_row_width() >= 2);
    }

    #[test]
    fn empty_stage_list_gives_the_zero_matrix() {
        let flops = FlopCounter::new();
        let stages: [(&CsrMatrix<i64>, &CsrMatrix<i64>); 0] = [];
        let c = spgemm_stages::<PlusTimes<i64>>(3, 4, &stages, &flops);
        assert_eq!(c, CsrMatrix::zero(3, 4));
        assert_eq!(flops.flops(), 0);
    }

    /// `A·B` from the definition — on or above the diagonal only when `upper`
    /// — as sorted `(row, column, value)` entries, with the tallies a dense
    /// SPA reports for it: flops, probes (one per product), peak row width.
    fn by_definition(
        a: &CsrMatrix<i64>,
        b: &CsrMatrix<i64>,
        upper: bool,
    ) -> (Vec<(usize, usize, i64)>, (u64, u64, u64)) {
        let mut want = std::collections::BTreeMap::new();
        let mut products = 0u64;
        for (i, k, x) in a.iter() {
            for (j, y) in b.row(k).filter(|&(j, _)| !upper || j >= i) {
                *want.entry((i, j)).or_insert(0) += x * y;
                products += 1;
            }
        }
        let mut widths = vec![0u64; a.nrows()];
        want.keys().for_each(|&(i, _)| widths[i] += 1);
        let peak = widths.into_iter().max().unwrap_or(0);
        (want.into_iter().map(|((i, j), v)| (i, j, v)).collect(), (2 * products, products, peak))
    }

    #[test]
    fn a_block_wider_than_two_to_the_sixteen_equals_the_definition() {
        // Columns on both sides of 2^16 and at both ends of the block; every
        // inner index reaches most of them, so they collide.
        const WIDE: usize = 70_000;
        let far = [0usize, 1, 65_535, 65_536, 65_537, WIDE - 1];
        let entries = |c: &CsrMatrix<i64>| c.iter().map(|(i, j, v)| (i, j, *v)).collect::<Vec<_>>();
        let tallies = |f: &FlopCounter| (f.flops(), f.probes(), f.peak_row_width());

        // General: (3 x 4)·(4 x WIDE).
        let a = matrix_from(
            (0..3).flat_map(|i| (i % 2..4).map(move |k| (i, k, (i + 2 * k) as i64 + 1))).collect(),
            3,
            4,
        );
        let b = matrix_from(
            (0..4)
                .flat_map(|k| far.iter().skip(k % 3).map(move |&j| (k, j, 2 * (j % 7) as i64 - 6 * k as i64 - 1)))
                .collect(),
            4,
            WIDE,
        );
        let flops = FlopCounter::new();
        let c = spgemm_stages::<PlusTimes<i64>>(3, WIDE, &[(&a, &b)], &flops);
        let (want, want_tallies) = by_definition(&a, &b, false);
        assert!(c.validate().is_ok());
        assert_eq!((entries(&c), tallies(&flops)), (want, want_tallies));
        assert_eq!(want_tallies.2, far.len() as u64, "a row must span the whole block");

        // Symmetric: three non-empty rows of a WIDE x 4 operand, so the
        // WIDE x WIDE upper triangle has entries in columns past 2^16.
        let a = matrix_from(
            [3usize, 65_536, WIDE - 1]
                .into_iter()
                .enumerate()
                .flat_map(|(n, i)| (n % 2..4).map(move |k| (i, k, 2 * (n + 3 * k) as i64 - 7)))
                .collect(),
            WIDE,
            4,
        );
        let at = a.transpose();
        let flops = FlopCounter::new();
        let c = spgemm_stages_aat::<PlusTimes<i64>>(WIDE, &[(&a, &at)], &flops);
        let (want, want_tallies) = by_definition(&a, &at, true);
        assert!(c.validate().is_ok());
        assert_eq!((entries(&c), tallies(&flops)), (want, want_tallies));
        assert_eq!((c.nnz(), want_tallies.2), (6, 3));
    }

    #[test]
    fn flop_counter_counts_two_flops_per_product() {
        // A = [1 2], B = [3; 4]: one output entry from two products.
        let a = matrix_from(vec![(0, 0, 1), (0, 1, 2)], 1, 2);
        let b = matrix_from(vec![(0, 0, 3), (1, 0, 4)], 2, 1);
        let flops = FlopCounter::new();
        let c = local_spgemm::<PlusTimes<i64>>(&a, &b, &flops);
        assert_eq!(c.get(0, 0), Some(&11));
        assert_eq!(flops.flops(), 4, "two products, two flops each");
        assert_eq!(flops.peak_row_width(), 1);
        assert!(flops.probes() >= 2);
    }

    #[test]
    fn dense_reference_agrees_on_small_case() {
        let a = matrix_from(vec![(0, 0, 1), (0, 1, 2), (1, 1, 3)], 2, 2);
        let b = matrix_from(vec![(0, 0, 4), (1, 0, 5), (1, 1, 6)], 2, 2);
        let c = product::<PlusTimes<i64>>(&a, &b);
        let dense = dense_reference_spgemm::<PlusTimes<i64>>(&a, &b);
        assert!(matches_dense(&c, &dense));
    }

    #[test]
    fn kernels_are_deterministic_across_thread_counts() {
        let a = arb_like_matrix(40, 37, 1);
        let b = arb_like_matrix(37, 45, 2);
        let both = || {
            (
                product::<PlusTimes<i64>>(&a, &b),
                local_spgemm_aat::<PlusTimes<i64>>(&a, &FlopCounter::new()),
            )
        };
        let reference = rayon::pool::with_thread_limit(1, both);
        for threads in [2usize, 3, 8] {
            let got = rayon::pool::with_thread_limit(threads, both);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    /// `(x, y) ↦ x·y` under `+`, except that a product divisible by three is
    /// annihilated — on an empty slot and on an occupied one alike.
    struct ThreeAnnihilates;

    impl Semiring for ThreeAnnihilates {
        type Left = i64;
        type Right = i64;
        type Out = i64;
        fn multiply(a: &i64, b: &i64) -> Option<i64> {
            Some(a * b).filter(|p| p % 3 != 0)
        }
        fn add(acc: &mut i64, x: i64) {
            *acc += x;
        }
    }

    /// One block on both kernels: the CSR and every tally must agree.
    fn both_kernels<S>(
        rows: usize,
        cols: usize,
        stages: &[AatStage<'_, S::Left>],
        diagonal: bool,
    ) -> (CsrMatrix<S::Out>, u64, u64, u64)
    where
        S: Semiring<Right = <S as Semiring>::Left>,
        S::Out: PartialEq + std::fmt::Debug,
    {
        let run = |kernel| {
            let flops = FlopCounter::new();
            let c = aat_block_with::<S>(kernel, rows, cols, stages, diagonal, &flops);
            assert!(c.validate().is_ok(), "{kernel:?}");
            (c, flops.flops(), flops.probes(), flops.peak_row_width())
        };
        let row_wise = run(BlockKernel::Gustavson);
        assert_eq!(run(BlockKernel::KMajor), row_wise, "{rows}x{cols} diagonal={diagonal}");
        row_wise
    }

    /// Every upper block of `A·Aᵀ` on a `side × side` grid through both
    /// kernels, empty stages included (SUMMA drops them; the kernels must not
    /// need that), and each against the general product of the same stages.
    fn both_kernels_on_every_block<S>(a: &CsrMatrix<S::Left>, side: usize)
    where
        S: Semiring<Right = <S as Semiring>::Left>,
        S::Left: PartialEq,
        S::Out: PartialEq + std::fmt::Debug,
    {
        let da = DistMat2D::from_triples(ProcessGrid::square(side * side), &a.to_triples());
        let at = da.transpose();
        for i in 0..side {
            for j in i..side {
                let stages: Vec<_> = (0..side)
                    .map(|k| AatStage { left: da.block(i, k), left_t: at.block(k, i), right_t: at.block(k, j) })
                    .collect();
                let (rows, cols) = (da.row_dist().size(i), da.row_dist().size(j));
                let (block, ..) = both_kernels::<S>(rows, cols, &stages, i == j);
                let pairs: Vec<_> = stages.iter().map(|st| (st.left, st.right_t)).collect();
                let general =
                    spgemm_stages::<S>(rows, cols, &pairs, &FlopCounter::new())
                        .filter(|r, c, _| i < j || r <= c);
                assert_eq!(block, general, "block ({i}, {j}) of a {side}x{side} grid");
            }
        }
    }

    #[test]
    fn the_rule_counts_products_exactly_and_compares_them_with_the_area() {
        // Inner rows of lengths 3, 0, 2 (left) and 2, 4, 1 (right).
        let lt = matrix_from(vec![(0, 0, 1), (0, 1, 1), (0, 2, 1), (2, 0, 1), (2, 3, 1)], 3, 4);
        let rt = matrix_from(
            vec![(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (1, 2, 1), (1, 3, 1), (2, 4, 1)],
            3,
            5,
        );
        let l = lt.transpose();
        let off = [AatStage { left: &l, left_t: &lt, right_t: &rt }];
        assert_eq!(aat_block_products(&off, false), 3 * 2 + 2);
        let diag = [AatStage { left: &l, left_t: &lt, right_t: &lt }];
        assert_eq!(aat_block_products(&diag, true), 6 + 3, "d(d+1)/2 per inner index");
        // 8 products: k-major up to 8 output coordinates, row-wise beyond.
        assert!(aat_block_is_k_major(4, 2, &off, false));
        assert!(!aat_block_is_k_major(4, 5, &off, false));
        assert!(!aat_block_is_k_major(0, 5, &off, false), "an empty block has no slots to fill");
        assert!(!aat_block_is_k_major(4, 5, &[] as &[AatStage<'_, i64>], false));
    }

    #[test]
    fn kernels_agree_on_a_block_larger_than_one_tile_at_every_thread_count() {
        // 420 x 400 and 420 x 420 outputs: 168 000 and 176 400 slots, two tiles.
        let a = arb_like_matrix(420, 24, 21);
        let b = arb_like_matrix(400, 24, 22);
        let (at, bt) = (a.transpose(), b.transpose());
        assert!(a.nrows() * b.nrows() > TILE_SLOTS);
        let off = [AatStage { left: &a, left_t: &at, right_t: &bt }];
        let diag = [AatStage { left: &a, left_t: &at, right_t: &at }];
        let both = || {
            (
                both_kernels::<PlusTimes<i64>>(420, 400, &off, false),
                both_kernels::<PlusTimes<i64>>(420, 420, &diag, true),
            )
        };
        let reference = rayon::pool::with_thread_limit(1, both);
        assert_eq!(reference.1 .0, product::<PlusTimes<i64>>(&a, &at).filter(|r, c, _| r <= c));
        for threads in [2usize, 4] {
            assert_eq!(rayon::pool::with_thread_limit(threads, both), reference, "threads={threads}");
        }
    }

    #[test]
    fn an_annihilated_product_tallies_nothing_and_leaves_no_entry() {
        // Row 0 = (3, 1, ·), row 1 = (1, 2, 3), row 2 = (·, ·, 3).
        let a = matrix_from(vec![(0, 0, 3), (0, 1, 1), (1, 0, 1), (1, 1, 2), (1, 2, 3), (2, 2, 3)], 3, 3);
        let at = a.transpose();
        let stage = [AatStage { left: &a, left_t: &at, right_t: &at }];
        let (c, flops, probes, width) = both_kernels::<ThreeAnnihilates>(3, 3, &stage, true);
        // C[0][0] = 9̸ + 1: annihilated on first touch, then stored.
        assert_eq!(c.get(0, 0), Some(&1));
        // C[0][1] = 3̸ + 2, C[1][1] = 1 + 4 + 9̸: stored, then annihilated on a hit.
        assert_eq!(c.get(0, 1), Some(&2));
        assert_eq!(c.get(1, 1), Some(&5));
        // C[1][2] = C[2][2] = 9̸ only: no entry at all, in either triangle.
        assert_eq!(c.get(1, 2), None);
        assert_eq!(c.get(2, 1), None);
        assert_eq!(c.get(2, 2), None);
        assert_eq!(c.nnz(), 3);
        // Upper-triangle products that survived: 1, 2, 1, 4.
        assert_eq!((flops, probes, width), (8, 4, 2));
        both_kernels_on_every_block::<ThreeAnnihilates>(&arb_like_matrix(30, 12, 23), 2);
    }

    /// Deterministic pseudo-random matrix without the proptest machinery.
    fn arb_like_matrix(nrows: usize, ncols: usize, seed: u64) -> CsrMatrix<i64> {
        let mut t = Triples::new(nrows, ncols);
        let mut seen = std::collections::BTreeSet::new();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        while seen.len() < (nrows * ncols / 4).max(1) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (state >> 33) as usize % nrows;
            let c = (state >> 13) as usize % ncols;
            if seen.insert((r, c)) {
                t.push(r, c, ((state % 17) as i64) - 8);
            }
        }
        CsrMatrix::from_triples(&t)
    }

    fn arb_matrix(nrows: usize, ncols: usize) -> impl Strategy<Value = CsrMatrix<i64>> {
        proptest::collection::btree_set((0..nrows, 0..ncols), 0..(nrows * ncols).min(60)).prop_map(
            move |coords| {
                let entries: Vec<_> = coords
                    .into_iter()
                    .enumerate()
                    .map(|(i, (r, c))| (r, c, (i % 7) as i64 - 3))
                    .collect();
                CsrMatrix::from_triples(&Triples::from_entries(nrows, ncols, entries))
            },
        )
    }

    fn arb_u64_matrix(nrows: usize, ncols: usize) -> impl Strategy<Value = CsrMatrix<u64>> {
        proptest::collection::btree_set((0..nrows, 0..ncols), 0..(nrows * ncols).min(50)).prop_map(
            move |coords| {
                let entries: Vec<_> = coords
                    .into_iter()
                    .enumerate()
                    .map(|(i, (r, c))| (r, c, (i % 11) as u64 + 1))
                    .collect();
                CsrMatrix::from_triples(&Triples::from_entries(nrows, ncols, entries))
            },
        )
    }

    fn arb_bool_matrix(nrows: usize, ncols: usize) -> impl Strategy<Value = CsrMatrix<bool>> {
        proptest::collection::btree_set((0..nrows, 0..ncols), 0..(nrows * ncols).min(50)).prop_map(
            move |coords| {
                let entries: Vec<_> =
                    coords.into_iter().map(|(r, c)| (r, c, true)).collect();
                CsrMatrix::from_triples(&Triples::from_entries(nrows, ncols, entries))
            },
        )
    }

    /// Run one (a, b) pair through [`spgemm_stages`] and compare against the
    /// dense reference, over a semiring.
    fn check_against_dense<S>(a: &CsrMatrix<S::Left>, b: &CsrMatrix<S::Right>) -> Result<(), TestCaseError>
    where
        S: Semiring,
        S::Out: PartialEq + std::fmt::Debug,
    {
        let dense = dense_reference_spgemm::<S>(a, b);
        let flops = FlopCounter::new();
        let c = spgemm_stages::<S>(a.nrows(), b.ncols(), &[(a, b)], &flops);
        prop_assert!(c.validate().is_ok());
        prop_assert!(matches_dense(&c, &dense), "the kernel disagrees with dense");
        prop_assert_eq!(flops.flops() % 2, 0, "flops are counted in multiply-add pairs");
        Ok(())
    }

    proptest! {
        #[test]
        fn prop_spgemm_matches_dense_reference(
            a in arb_matrix(8, 6),
            b in arb_matrix(6, 9),
        ) {
            let c = product::<PlusTimes<i64>>(&a, &b);
            prop_assert!(c.validate().is_ok());
            let dense = dense_reference_spgemm::<PlusTimes<i64>>(&a, &b);
            prop_assert!(matches_dense(&c, &dense));
        }

        #[test]
        fn prop_stages_match_dense_plus_times(
            a in arb_matrix(8, 6),
            b in arb_matrix(6, 9),
        ) {
            check_against_dense::<PlusTimes<i64>>(&a, &b)?;
        }

        #[test]
        fn prop_stages_match_dense_min_plus(
            a in arb_u64_matrix(7, 6),
            b in arb_u64_matrix(6, 8),
        ) {
            check_against_dense::<MinPlusNum<u64>>(&a, &b)?;
        }

        #[test]
        fn prop_stages_match_dense_bool(
            a in arb_bool_matrix(7, 6),
            b in arb_bool_matrix(6, 8),
        ) {
            check_against_dense::<BoolAndOr>(&a, &b)?;
        }

        #[test]
        fn prop_symmetric_aat_equals_product_with_transpose(
            a in arb_matrix(9, 6),
        ) {
            let sym = local_spgemm_aat::<PlusTimes<i64>>(&a, &FlopCounter::new());
            prop_assert!(sym.validate().is_ok());
            let via_t = product::<PlusTimes<i64>>(&a, &a.transpose()).filter(|r, c, _| r <= c);
            prop_assert_eq!(sym, via_t);
        }

        #[test]
        fn prop_both_block_kernels_agree_on_every_grid_and_thread_count(
            // Sparse enough for empty blocks, stages and inner rows; dense
            // enough that the rule itself goes both ways across cases.
            coords in proptest::collection::btree_set((0usize..23, 0usize..11), 0..120),
            threads in 0usize..3,
        ) {
            let entries: Vec<_> =
                coords.into_iter().enumerate().map(|(n, (r, c))| (r, c, (n % 7) as i64 - 3)).collect();
            let a = matrix_from(entries, 23, 11);
            rayon::pool::with_thread_limit(1 << threads, || {
                for side in 1..=4 {
                    both_kernels_on_every_block::<PlusTimes<i64>>(&a, side);
                    both_kernels_on_every_block::<ThreeAnnihilates>(&a, side);
                }
            });
        }

        #[test]
        fn prop_spgemm_transpose_identity(
            a in arb_matrix(7, 5),
            b in arb_matrix(5, 6),
        ) {
            // (A·B)ᵀ == Bᵀ·Aᵀ over a commutative semiring.
            let ab_t = product::<PlusTimes<i64>>(&a, &b).transpose();
            let bt_at = product::<PlusTimes<i64>>(&b.transpose(), &a.transpose());
            prop_assert_eq!(ab_t, bt_at);
        }
    }
}
