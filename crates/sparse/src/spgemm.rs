//! Local sparse matrix-matrix multiplication over a semiring.
//!
//! CombBLAS' local SpGEMM uses a tuned hybrid hash/heap algorithm; this
//! module implements a row-wise Gustavson SpGEMM on top of the reusable
//! [`Accumulator`] abstraction (dense SPA or linear-probing hash vector, see
//! [`crate::accum`]): one accumulator is created per worker thread of the
//! work-stealing pool and reused across every output row that worker claims —
//! and, through [`spgemm_stages`], across all SUMMA stages of a block
//! product, so no per-row map is ever allocated and no per-stage sorted-merge
//! is performed.
//!
//! There are two stage kernels: the general `Σ A_s·B_s` ([`spgemm_stages`])
//! and the upper-triangle-plus-mirror `Σ A_s·A_sᵀ` ([`spgemm_stages_aat`])
//! that overlap detection's `C = A·Aᵀ` runs on.  Both take their right
//! operands by rows; a product with a transpose is a product with
//! [`CsrMatrix::transpose`]'s result.
//!
//! All kernels tally useful flops, accumulator probes and the peak row width
//! into a [`FlopCounter`]; the distributed layers fold those into
//! `CommStats::extras` so every phase reports flops/s.

use crate::accum::{AccumPolicy, Accumulator, FlopCounter};
use crate::csr::CsrMatrix;
use crate::semiring::{MirrorSemiring, Semiring};
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
fn finish_row<T>(
    acc: &mut Accumulator<T>,
    products: u64,
    flops: &FlopCounter,
) -> Vec<(usize, T)> {
    let width = acc.len() as u64;
    let probes = acc.take_probes();
    let row = acc.extract_sorted();
    flops.record_row(products, probes, width);
    row
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
    policy: AccumPolicy,
    flops: &FlopCounter,
) -> CsrMatrix<S::Out> {
    check_stages(out_rows, out_cols, stages);
    let rows: Vec<Vec<(usize, S::Out)>> = pool::map_indexed_with(
        out_rows,
        || Accumulator::with_policy(out_cols, policy),
        |acc, i| {
            let mut products = 0u64;
            for (a, b) in stages {
                for (k, aval) in a.row(i) {
                    for (j, bval) in b.row(k) {
                        if let Some(prod) = S::multiply(aval, bval) {
                            products += 1;
                            acc.scatter(j, prod, S::add);
                        }
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
    spgemm_stages::<S>(a.nrows(), b.ncols(), &[(a, b)], AccumPolicy::Auto, flops)
}

/// Compute the symmetric product `C = A · Aᵀ` over a [`MirrorSemiring`],
/// multiplying only the **upper triangle** (diagonal included) and mirroring
/// it into the lower one — half the multiply work of
/// `local_spgemm(a, &a.transpose(), ..)`, and only those multiplies are
/// tallied into `flops`.
///
/// `Aᵀ` is materialised once (each of its rows is walked `O(column degree)`
/// times, so a contiguous copy pays for itself) and every worker enters each
/// row at its upper-triangle offset by binary search.
pub fn local_spgemm_aat<S: MirrorSemiring>(
    a: &CsrMatrix<S::Left>,
    flops: &FlopCounter,
) -> CsrMatrix<S::Out> {
    let at = a.transpose();
    spgemm_stages_aat::<S>(a.nrows(), &[(a, &at)], AccumPolicy::Auto, flops)
}

/// Multiply-accumulate a sequence of stage pairs into one **diagonal** block
/// of a symmetric product, `C = Σ_s A_s · (A_s)ᵀ`, computing only the upper
/// triangle (diagonal included) and mirroring it into the lower one — the
/// multi-stage generalisation of [`local_spgemm_aat`] that the symmetric
/// Sparse SUMMA runs on its grid-diagonal blocks.
///
/// `n` is the (square) output dimension; each stage's right operand must be
/// the transpose of its left one (same inner dimension, `n` columns).  Row
/// `i` enters every right row at its upper-triangle offset via
/// [`CsrMatrix::row_from`] (a binary search per inner index — which is why
/// this is a kernel of its own and not a flag on [`spgemm_stages`]).
///
/// Exactness: for every inner index shared by rows `i` and `j ≥ i`, the
/// products contributing to `C[i][j]` and `C[j][i]` arrive in the same
/// (stage-major, ascending inner index) order in both this kernel and the
/// general [`spgemm_stages`], so `C[j][i] = mirror(C[i][j])` entry for entry —
/// see [`MirrorSemiring`].  Only the upper-triangle multiplies are tallied
/// into `flops`.
pub fn spgemm_stages_aat<S: MirrorSemiring>(
    n: usize,
    stages: &Stages<'_, S::Left, S::Left>,
    policy: AccumPolicy,
    flops: &FlopCounter,
) -> CsrMatrix<S::Out> {
    check_stages(n, n, stages);
    let upper: Vec<Vec<(usize, S::Out)>> = pool::map_indexed_with(
        n,
        || Accumulator::with_policy(n, policy),
        |acc, i| {
            let mut products = 0u64;
            for (a, at) in stages {
                for (k, aval) in a.row(i) {
                    for (j, bval) in at.row_from(k, i) {
                        if let Some(prod) = S::multiply(aval, bval) {
                            products += 1;
                            acc.scatter(j, prod, S::add);
                        }
                    }
                }
            }
            finish_row(acc, products, flops)
        },
    );
    mirror_upper_rows::<S>(n, upper)
}

/// Mirror the strict upper triangle of per-row `(col, value)` results into
/// the lower one and assemble the full square CSR block.
///
/// Iterating `i` ascending appends to each lower row in ascending column
/// order, so `lower[j] ++ upper[j]` is sorted without any per-row sort.
fn mirror_upper_rows<S: MirrorSemiring>(
    n: usize,
    upper: Vec<Vec<(usize, S::Out)>>,
) -> CsrMatrix<S::Out> {
    let mut lower: Vec<Vec<(usize, S::Out)>> = vec![Vec::new(); n];
    for (i, row) in upper.iter().enumerate() {
        for (j, v) in row {
            if *j > i {
                lower[*j].push((i, S::mirror(v)));
            }
        }
    }
    let rows: Vec<Vec<(usize, S::Out)>> = lower
        .into_iter()
        .zip(upper)
        .map(|(mut low, up)| {
            low.extend(up);
            low
        })
        .collect();
    rows_to_csr(n, n, rows)
}

/// The cross-diagonal mirror of a computed off-diagonal block of a symmetric
/// product: `C_{j,i} = mirror((C_{i,j})ᵀ)` — transpose the pattern, mirror
/// every value.  This is what the symmetric Sparse SUMMA materialises on each
/// strictly-lower grid rank after receiving its partner's block.
pub fn mirror_block<S: MirrorSemiring>(block: &CsrMatrix<S::Out>) -> CsrMatrix<S::Out> {
    block.transpose().map(|_, _, v| S::mirror(v))
}

/// Assemble per-row `(col, value)` lists into a CSR matrix.
pub fn rows_to_csr<T: Clone + Send>(
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
    use crate::semiring::{BoolAndOr, MinPlusNum, PlusTimes};
    use crate::triples::Triples;
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
        let general = product::<PlusTimes<i64>>(&a, &a.transpose());
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
            AccumPolicy::Auto,
            &flops,
        );
        assert_eq!(staged, whole);
        assert!(flops.flops() > 0);
    }

    #[test]
    fn mirror_block_transposes_and_mirrors() {
        let block = matrix_from(vec![(0, 1, 3), (2, 0, -4), (1, 1, 5)], 3, 2);
        let mirrored = mirror_block::<PlusTimes<i64>>(&block);
        assert_eq!(mirrored.nrows(), 2);
        assert_eq!(mirrored.ncols(), 3);
        // PlusTimes mirrors by identity, so this is a plain transpose.
        assert_eq!(mirrored, block.transpose());
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
            AccumPolicy::Auto,
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
        let c = spgemm_stages::<PlusTimes<i64>>(3, 4, &stages, AccumPolicy::Auto, &flops);
        assert_eq!(c, CsrMatrix::zero(3, 4));
        assert_eq!(flops.flops(), 0);
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

    /// Run one (a, b) pair through both accumulator variants and compare
    /// against the dense reference — the satellite coverage pitting the SPA
    /// and the hash accumulator against each other over a semiring.
    fn check_both_policies<S>(a: &CsrMatrix<S::Left>, b: &CsrMatrix<S::Right>) -> Result<(), TestCaseError>
    where
        S: Semiring,
        S::Out: PartialEq + std::fmt::Debug,
    {
        let dense = dense_reference_spgemm::<S>(a, b);
        for policy in [AccumPolicy::ForceDense, AccumPolicy::ForceHash] {
            let flops = FlopCounter::new();
            let c = spgemm_stages::<S>(a.nrows(), b.ncols(), &[(a, b)], policy, &flops);
            prop_assert!(c.validate().is_ok());
            prop_assert!(matches_dense(&c, &dense), "policy {policy:?} disagrees with dense");
            prop_assert_eq!(
                flops.flops() % 2,
                0,
                "flops are counted in multiply-add pairs"
            );
        }
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
        fn prop_both_accumulators_match_dense_plus_times(
            a in arb_matrix(8, 6),
            b in arb_matrix(6, 9),
        ) {
            check_both_policies::<PlusTimes<i64>>(&a, &b)?;
        }

        #[test]
        fn prop_both_accumulators_match_dense_min_plus(
            a in arb_u64_matrix(7, 6),
            b in arb_u64_matrix(6, 8),
        ) {
            check_both_policies::<MinPlusNum<u64>>(&a, &b)?;
        }

        #[test]
        fn prop_both_accumulators_match_dense_bool(
            a in arb_bool_matrix(7, 6),
            b in arb_bool_matrix(6, 8),
        ) {
            check_both_policies::<BoolAndOr>(&a, &b)?;
        }

        #[test]
        fn prop_symmetric_aat_equals_product_with_transpose(
            a in arb_matrix(9, 6),
        ) {
            let sym = local_spgemm_aat::<PlusTimes<i64>>(&a, &FlopCounter::new());
            prop_assert!(sym.validate().is_ok());
            let via_t = product::<PlusTimes<i64>>(&a, &a.transpose());
            prop_assert_eq!(sym, via_t);
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
