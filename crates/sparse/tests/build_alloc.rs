//! Memory contract of the builds that copy rows already in order, measured
//! with the shared [`PeakAlloc`] counting allocator: `CsrMatrix::filter`,
//! `DistMat2D::to_local_csr` and `Outer1dResult::to_local_csr` write their
//! result straight into exactly sized arrays, so the peak resident growth of
//! each stays within the result's arrays plus one byte per input entry and
//! one word per row — no triple list, no copy of the survivors, no growing
//! vector.
//!
//! The counters are process-global, so this file holds a single test.

use dibella_dist::{CommPhase, CommStats, ProcessGrid};
use dibella_sparse::outer1d::outer1d_aat;
use dibella_sparse::{CsrMatrix, DistMat2D, PlusTimes, Triples};
use dibella_testutil::PeakAlloc;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

const WORD: u64 = std::mem::size_of::<usize>() as u64;

/// Bytes of an exactly sized matrix's arrays.
fn array_bytes<T>(m: &CsrMatrix<T>) -> u64 {
    let entry = WORD + std::mem::size_of::<T>() as u64;
    (m.nrows() as u64 + 1) * WORD + m.nnz() as u64 * entry
}

/// `n × n`, `per_row` entries a row at pseudo-random columns.
fn matrix(n: usize, per_row: usize) -> Triples<i64> {
    let mut t = Triples::new(n, n);
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for r in 0..n {
        let mut cols = std::collections::BTreeSet::new();
        while cols.len() < per_row {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            cols.insert(state as usize % n);
        }
        for c in cols {
            t.push(r, c, (r * n + c) as i64);
        }
    }
    t
}

/// Run `build` and check its peak growth against the result's arrays plus
/// `input_entries` bytes and a word per row.
fn check<T>(what: &str, input_entries: usize, build: impl FnOnce() -> CsrMatrix<T>) {
    let scope = ALLOC.scope();
    let out = build();
    let peak = scope.peak_resident();
    let bound = array_bytes(&out) + input_entries as u64 + out.nrows() as u64 * WORD;
    assert!(out.nnz() > 0, "{what}: an empty result measures nothing");
    assert!(peak <= bound, "{what}: peak growth {peak} B > {bound} B");
}

#[test]
fn builds_from_ordered_rows_allocate_only_their_result() {
    let t = matrix(3_000, 24);
    let local = CsrMatrix::from_triples(&t);
    check("CsrMatrix::filter", local.nnz(), || local.filter(|r, c, _| (r + c) % 3 != 0));

    let dist = DistMat2D::from_triples(ProcessGrid::square(9), &t);
    check("DistMat2D::to_local_csr", dist.nnz(), || dist.to_local_csr());

    let a = CsrMatrix::from_triples(&matrix(600, 8));
    let stats = CommStats::new();
    let c = outer1d_aat::<PlusTimes<i64>>(&a, 4, &stats, CommPhase::Other);
    check("Outer1dResult::to_local_csr", c.nnz(), || c.to_local_csr(a.nrows()));
}
