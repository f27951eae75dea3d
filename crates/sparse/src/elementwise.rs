//! Element-wise sparse kernels used by Algorithm 2.
//!
//! The transitive reduction algorithm (Algorithm 2 in the paper) needs, beyond
//! the SpGEMM `N = R²`:
//!
//! * `Reduce(Row, max)` and `Apply` — provided directly on
//!   [`crate::CsrMatrix`].  `DimApply(Row, v, return2nd)` is not a kernel
//!   here: `M` holds one value per row, so `strgraph::transitive` reads
//!   `v[row]` inside the comparison below instead of materialising it;
//! * an element-wise comparison over the intersection of two sparsity patterns
//!   (`I = M >= N`, only where both are nonzero) — [`ewise_intersect`];
//! * `R ∘ ¬I` — removing the flagged transitive edges, i.e. the set difference
//!   `nonzeros(R) \ nonzeros(I)` — [`set_difference`].
//!
//! All kernels are pattern-respecting and never densify.

use crate::csr::CsrMatrix;
use rayon::pool;

/// Element-wise operation over the **intersection** of the patterns of `a` and
/// `b`.  For every coordinate present in both, `f` may produce an output entry
/// (`Some`) or drop it (`None`).
pub fn ewise_intersect<A: Clone + Sync, B: Clone + Sync, C: Clone + Send>(
    a: &CsrMatrix<A>,
    b: &CsrMatrix<B>,
    f: impl Fn(usize, usize, &A, &B) -> Option<C> + Sync,
) -> CsrMatrix<C> {
    assert_eq!(a.nrows(), b.nrows(), "ewise: row count mismatch");
    assert_eq!(a.ncols(), b.ncols(), "ewise: column count mismatch");
    let rows: Vec<Vec<(usize, C)>> = pool::map_indexed(a.nrows(), |r| {
        let mut out = Vec::new();
        let mut bi = b.row(r).peekable();
        for (ca, va) in a.row(r) {
            // Advance b's iterator until its column >= ca.
            while matches!(bi.peek(), Some((cb, _)) if *cb < ca) {
                bi.next();
            }
            if let Some((cb, vb)) = bi.peek() {
                if *cb == ca {
                    if let Some(v) = f(r, ca, va, vb) {
                        out.push((ca, v));
                    }
                }
            }
        }
        out
    });
    crate::spgemm::rows_to_csr(a.nrows(), a.ncols(), rows)
}

/// The set difference `nonzeros(a) \ nonzeros(mask)`: keep every entry of `a`
/// whose coordinate is **not** present in `mask` (line 9 of Algorithm 2,
/// `R ← R ∘ ¬I`).
pub fn set_difference<A: Clone + Sync + Send, M: Clone + Sync>(
    a: &CsrMatrix<A>,
    mask: &CsrMatrix<M>,
) -> CsrMatrix<A> {
    assert_eq!(a.nrows(), mask.nrows(), "set_difference: row count mismatch");
    assert_eq!(a.ncols(), mask.ncols(), "set_difference: column count mismatch");
    let rows: Vec<Vec<(usize, A)>> = pool::map_indexed(a.nrows(), |r| {
        let mask_cols: Vec<usize> = mask.row(r).map(|(c, _)| c).collect();
        a.row(r)
            .filter(|(c, _)| mask_cols.binary_search(c).is_err())
            .map(|(c, v)| (c, v.clone()))
            .collect()
    });
    crate::spgemm::rows_to_csr(a.nrows(), a.ncols(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intersect_only_touches_shared_coordinates() {
        let a = CsrMatrix::from_entries(2, 3, vec![(0, 0, 1i64), (0, 2, 2), (1, 1, 3)]);
        let b = CsrMatrix::from_entries(2, 3, vec![(0, 2, 10i64), (1, 0, 20), (1, 1, 30)]);
        let c = ewise_intersect(&a, &b, |_, _, x, y| Some(x + y));
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(0, 2), Some(&12));
        assert_eq!(c.get(1, 1), Some(&33));
    }

    #[test]
    fn intersect_can_drop_entries() {
        let a = CsrMatrix::from_entries(1, 4, vec![(0, 0, 5i64), (0, 1, 1), (0, 3, 9)]);
        let b = CsrMatrix::from_entries(1, 4, vec![(0, 0, 5i64), (0, 1, 2), (0, 3, 9)]);
        let c = ewise_intersect(&a, &b, |_, _, x, y| if x == y { Some(*x) } else { None });
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(0, 1), None);
    }

    #[test]
    fn set_difference_removes_masked_entries() {
        let a = CsrMatrix::from_entries(2, 3, vec![(0, 0, 1i64), (0, 1, 2), (1, 2, 3)]);
        let mask = CsrMatrix::from_entries(2, 3, vec![(0, 1, true), (1, 0, true)]);
        let d = set_difference(&a, &mask);
        assert_eq!(d.nnz(), 2);
        assert_eq!(d.get(0, 0), Some(&1));
        assert_eq!(d.get(0, 1), None);
        assert_eq!(d.get(1, 2), Some(&3));
    }

    #[test]
    fn set_difference_with_empty_mask_is_identity() {
        let a = CsrMatrix::from_entries(2, 2, vec![(0, 0, 1i64), (1, 1, 2)]);
        let mask = CsrMatrix::<bool>::zero(2, 2);
        assert_eq!(set_difference(&a, &mask), a);
    }

    fn arb_matrix(nrows: usize, ncols: usize) -> impl Strategy<Value = CsrMatrix<i64>> {
        proptest::collection::btree_set((0..nrows, 0..ncols), 0..40).prop_map(move |coords| {
            let entries: Vec<_> = coords
                .into_iter()
                .enumerate()
                .map(|(i, (r, c))| (r, c, i as i64 + 1))
                .collect();
            CsrMatrix::from_entries(nrows, ncols, entries)
        })
    }

    proptest! {
        #[test]
        fn prop_set_difference_pattern_is_a_minus_mask(
            a in arb_matrix(10, 10),
            mask in arb_matrix(10, 10),
        ) {
            let d = set_difference(&a, &mask);
            prop_assert!(d.validate().is_ok());
            let mask_pat: std::collections::BTreeSet<_> = mask.pattern().into_iter().collect();
            let expected: Vec<_> = a
                .pattern()
                .into_iter()
                .filter(|coord| !mask_pat.contains(coord))
                .collect();
            prop_assert_eq!(d.pattern(), expected);
            // Values must be untouched.
            for (r, c, v) in d.iter() {
                prop_assert_eq!(a.get(r, c), Some(v));
            }
        }

        #[test]
        fn prop_intersect_pattern_is_the_set_intersection(
            a in arb_matrix(8, 8),
            b in arb_matrix(8, 8),
        ) {
            let inter = ewise_intersect(&a, &b, |_, _, x, y| Some(x + y));
            let pa: std::collections::BTreeSet<_> = a.pattern().into_iter().collect();
            let pb: std::collections::BTreeSet<_> = b.pattern().into_iter().collect();
            let expected_inter: Vec<_> = pa.intersection(&pb).copied().collect();
            prop_assert_eq!(inter.pattern(), expected_inter);
        }
    }
}
