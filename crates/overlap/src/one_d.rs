//! The diBELLA 1D overlap-detection baseline.
//!
//! diBELLA 1D (ICPP'19) finds candidate overlaps with a distributed hash table
//! keyed by k-mer; Section V-B of the paper observes that, in communication
//! terms, this "is equivalent to a 1D sparse matrix multiplication using the
//! outer product algorithm" followed by a reduction of the partial candidate
//! lists, and a per-nonzero read exchange before alignment.  This module
//! implements exactly that formulation so that Figure 9's 1D-vs-2D comparison
//! and Table I's cost comparison run the same local kernels and differ only in
//! decomposition and communication — which is the paper's claim.

use crate::detect::charge_read_fetches;
use crate::semiring::OverlapSemiring;
use crate::types::CommonKmers;
use dibella_dist::{BlockDist, CommPhase, CommStats, PhaseCounters};
use dibella_seq::ReadSet;
use dibella_sparse::outer1d::outer1d_aat;
use dibella_sparse::CsrMatrix;

/// Compute the candidate overlap matrix — its strict upper triangle, as the
/// 2D path returns it — with the 1D outer-product algorithm over `nprocs`
/// ranks, recording the reduction traffic.
///
/// Uses the symmetric `A·Aᵀ` kernel: each rank slices its column block
/// directly out of `A`'s CSR arrays and multiplies the upper triangle of the
/// (symmetric) partial product against the slice's transpose, so each read
/// pair is formed, shipped and merged once.
pub fn detect_candidates_1d(
    a: &CsrMatrix<crate::types::KmerOccurrence>,
    nprocs: usize,
    stats: &CommStats,
) -> CsrMatrix<CommonKmers> {
    let result = outer1d_aat::<OverlapSemiring>(a, nprocs, stats, CommPhase::OverlapDetection);
    result.to_local_csr(a.nrows()).filter(|r, c, _| r < c)
}

/// Account for diBELLA 1D's read exchange (Section V-C): every rank owns a
/// block of `C`'s rows and already holds those reads; it must fetch the
/// column read of every nonzero it is responsible for (at most one read per
/// nonzero), from the rank that owns it in the 1D distribution.  `candidates`
/// holds each pair once, so a pair costs at most one fetched read.  Returns
/// each rank's charge, in rank order.
pub fn account_read_exchange_1d(
    reads: &ReadSet,
    candidates: &CsrMatrix<CommonKmers>,
    nprocs: usize,
    stats: &CommStats,
) -> Vec<PhaseCounters> {
    let dist = BlockDist::new(reads.len(), nprocs);
    charge_read_fetches(reads, nprocs, stats, |rank| {
        dist.range(rank).flat_map(|row| candidates.row(row).map(|(col, _)| col)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_a_matrix, OverlapConfig};
    use dibella_dist::ProcessGrid;
    use dibella_seq::{count_kmers_serial, DatasetSpec, KmerSelection, KmerTable};

    fn setup(seed: u64) -> (dibella_seq::SimulatedDataset, KmerTable, OverlapConfig) {
        let ds = DatasetSpec::Tiny.generate(seed);
        let k = 13;
        let sel = KmerSelection { k, min_count: 2, max_count: 60 };
        let table = count_kmers_serial(&ds.reads, &sel);
        (ds, table, OverlapConfig::for_tests(k))
    }

    #[test]
    fn one_d_candidates_match_2d_candidates() {
        let (ds, table, cfg) = setup(11);
        let comm2d = CommStats::new();
        let a = build_a_matrix(&ds.reads, &table, cfg.k, ProcessGrid::square(4), 4);
        let c2d = crate::detect::detect_candidates_2d_with(&a, &comm2d, true).to_local_csr();
        let comm1d = CommStats::new();
        let a_local = a.to_local_csr();
        let c1d = detect_candidates_1d(&a_local, 4, &comm1d);
        assert_eq!(c2d.pattern(), c1d.pattern(), "1D and 2D must find the same candidate pairs");
        // Shared k-mer counts must agree as well (seed choice may differ).
        for (i, j, v) in c2d.iter() {
            assert_eq!(c1d.get(i, j).unwrap().count, v.count);
        }
    }

    #[test]
    fn communication_scaling_matches_the_table1_model() {
        // Table I / Section V-B: per process the 1D reduction ships ~a²m/P
        // words (aggregate ~a²m, independent of P) while 2D SUMMA ships
        // ~am/√P per process (aggregate ~am·√P, growing with P).  Check both
        // trends on the simulated data.
        let (ds, table, cfg) = setup(13);
        let mut agg_1d = Vec::new();
        let mut agg_2d = Vec::new();
        for p in [4usize, 16] {
            let comm2d = CommStats::new();
            let a = build_a_matrix(&ds.reads, &table, cfg.k, ProcessGrid::square(p), p);
            let _ = crate::detect::detect_candidates_2d_with(&a, &comm2d, true);
            agg_2d.push(comm2d.words(CommPhase::OverlapDetection) as f64);
            let comm1d = CommStats::new();
            let a_local = a.to_local_csr();
            let _ = detect_candidates_1d(&a_local, p, &comm1d);
            agg_1d.push(comm1d.words(CommPhase::OverlapDetection) as f64);
        }
        // Both algorithms exchange data once more than one rank is involved.
        assert!(agg_1d.iter().all(|&w| w > 0.0));
        assert!(agg_2d.iter().all(|&w| w > 0.0));
        // 2D aggregate volume grows with √P: going from P=4 to P=16 should
        // increase it substantially (ideally ~(√16-1)/(√4-1) = 3x).
        let ratio_2d = agg_2d[1] / agg_2d[0];
        assert!(
            ratio_2d > 1.8,
            "2D aggregate volume should grow with √P, got ratio {ratio_2d}"
        );
        // The 1D aggregate volume is bounded by the unreduced partial-product
        // size (~a²m), which does not scale with P the way the 2D broadcasts
        // do; sanity-check the bound Σ_k a_k² on this dataset.
        let (ds, table, cfg) = setup(13);
        let a = build_a_matrix(&ds.reads, &table, cfg.k, ProcessGrid::square(1), 1);
        let a_local = a.to_local_csr();
        let at = a_local.transpose();
        let bound: f64 = (0..at.nrows()).map(|k| (at.row_nnz(k) as f64).powi(2)).sum();
        // 4 words per exchanged partial entry; allow for the diagonal terms
        // that never leave their rank.
        assert!(agg_1d[1] <= bound * 4.0, "1D volume {} exceeds the a²m bound {}", agg_1d[1], bound * 4.0);
    }

    #[test]
    fn latency_1d_exceeds_latency_2d_at_scale() {
        // Table I: Y_1D = P messages per rank vs Y_2D = √P per rank.  At P=16
        // the aggregate message counts must reflect that ordering.
        let (ds, table, cfg) = setup(15);
        let p = 16;
        let comm2d = CommStats::new();
        let a = build_a_matrix(&ds.reads, &table, cfg.k, ProcessGrid::square(p), p);
        let _ = crate::detect::detect_candidates_2d_with(&a, &comm2d, true);
        let comm1d = CommStats::new();
        let a_local = a.to_local_csr();
        let _ = detect_candidates_1d(&a_local, p, &comm1d);
        let y2d = comm2d.messages(CommPhase::OverlapDetection);
        let y1d = comm1d.messages(CommPhase::OverlapDetection);
        assert!(y1d > y2d, "1D all-to-all ({y1d} msgs) should exceed 2D broadcasts ({y2d} msgs)");
        assert!(y1d <= (p * (p - 1)) as u64, "1D cannot send more than P(P-1) messages");
    }

    #[test]
    fn read_exchange_1d_counts_only_remote_columns() {
        let (ds, table, cfg) = setup(14);
        let a = build_a_matrix(&ds.reads, &table, cfg.k, ProcessGrid::square(1), 1);
        let a_local = a.to_local_csr();
        let comm = CommStats::new();
        let c = detect_candidates_1d(&a_local, 1, &comm);
        let ex1 = CommStats::new();
        account_read_exchange_1d(&ds.reads, &c, 1, &ex1);
        assert_eq!(ex1.words(CommPhase::ReadExchange), 0, "one rank owns everything");
        let ex4 = CommStats::new();
        account_read_exchange_1d(&ds.reads, &c, 4, &ex4);
        assert!(ex4.words(CommPhase::ReadExchange) > 0);
        assert!(ex4.messages(CommPhase::ReadExchange) <= 4 * 3);
    }
}
