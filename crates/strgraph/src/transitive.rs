//! Algorithm 2: parallel transitive reduction on the overlap matrix.
//!
//! ```text
//! procedure TransitiveReduction(R)
//!   do
//!     prev ← R.nnz
//!     N ← R²                      (MinPlus semiring with orientation checks)
//!     v ← R.Reduce(Row, max)      (longest suffix per row)
//!     v ← v.Apply(+x)             (fuzz for error-shifted endpoints)
//!     M ← R.DimApply(Row, v)      (each nonzero replaced by its row's bound)
//!     I ← M ≥ N                   (on the intersection, with rules (b), (c))
//!     R ← R ∘ ¬I                  (remove the transitive edges)
//!   while nnz ≠ prev
//!   return R as S
//! ```
//!
//! The loop repeats because removing a transitive edge can expose longer
//! chains ("we need to consider neighbors that are three, four, etc. hops
//! away"); the iteration count is a small constant in practice and the
//! geometrically shrinking density makes the total communication essentially
//! that of the first squaring (Section V-D).

use crate::matrix_ops::{ewise_intersect_dist, set_difference_dist};
use crate::trsemiring::{TrMinPlus, TwoHop};
use dibella_dist::{CommPhase, CommStats};
use dibella_overlap::OverlapEdge;
use dibella_sparse::{summa, DistMat2D};
use serde::{Deserialize, Serialize};

/// Parameters of the transitive reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitiveReductionConfig {
    /// The scalar `x` added to the per-row maximum suffix to absorb
    /// error-shifted overlap endpoints (Section IV-E).  The diBELLA 2D release
    /// uses 1000 bases for PacBio CLR data.
    pub fuzz: u32,
    /// Safety bound on the number of reduction rounds.
    pub max_iterations: usize,
}

impl Default for TransitiveReductionConfig {
    fn default() -> Self {
        Self { fuzz: 1000, max_iterations: 16 }
    }
}

impl TransitiveReductionConfig {
    /// Settings for the short synthetic reads used in tests.
    pub fn for_tests() -> Self {
        Self { fuzz: 60, max_iterations: 16 }
    }
}

/// The result of a transitive reduction run.
#[derive(Debug, Clone)]
pub struct TrOutcome {
    /// The string matrix `S` (the reduced overlap matrix).
    pub string_matrix: DistMat2D<OverlapEdge>,
    /// Number of do/while rounds executed (the `t` of Table I).
    pub iterations: usize,
    /// Directed entries removed in total.
    pub removed_edges: usize,
    /// Nonzero count after each round (for convergence diagnostics).
    pub nnz_per_round: Vec<usize>,
}

/// Run Algorithm 2 on the overlap matrix `R`, recording the squaring traffic
/// under [`CommPhase::TransitiveReduction`].
pub fn transitive_reduction(
    r: &DistMat2D<OverlapEdge>,
    config: &TransitiveReductionConfig,
    comm: &CommStats,
) -> TrOutcome {
    let mut r = r.clone();
    let mut iterations = 0usize;
    let mut removed = 0usize;
    let mut nnz_per_round = Vec::new();

    loop {
        let prev = r.nnz();
        if prev == 0 || iterations >= config.max_iterations {
            break;
        }
        iterations += 1;

        // N ← R²: shortest valid two-hop walk per direction.
        let n: DistMat2D<TwoHop> =
            summa::<TrMinPlus>(&r, &r, (2, 2), comm, CommPhase::TransitiveReduction);

        // v ← R.Reduce(Row, max) then v ← v + x.
        let row_bound: Vec<Option<u32>> = r
            .reduce_rows(|_, _, e| e.suffix, u32::max)
            .into_iter()
            .map(|m| m.map(|v| v.saturating_add(config.fuzz)))
            .collect();

        // I ← M ≥ N over the intersection of R and N, honouring rules (b) and
        // (c): only a two-hop walk whose implied direction equals the direct
        // edge's direction can make it transitive.
        let transitive_mask = ewise_intersect_dist(&r, &n, |row, _col, edge, two_hop| {
            let bound = row_bound[row]?;
            let best = two_hop.for_dir(edge.direction())?;
            (bound >= best).then_some(true)
        });

        // Removing (i, j) must also remove (j, i) to keep R pattern-symmetric;
        // the reverse walk exists with mirrored directions, but its suffix sums
        // are measured from the other end and can straddle the fuzz boundary,
        // so symmetrise the mask explicitly.
        let mask_sym = symmetrize_mask(&transitive_mask);

        // R ← R ∘ ¬I.
        let reduced = set_difference_dist(&r, &mask_sym);
        removed += prev - reduced.nnz();
        nnz_per_round.push(reduced.nnz());
        let converged = reduced.nnz() == prev;
        r = reduced;
        if converged {
            break;
        }
    }
    TrOutcome { string_matrix: r, iterations, removed_edges: removed, nnz_per_round }
}

/// Make a boolean mask pattern-symmetric: the result contains `(i, j)` iff the
/// input contains `(i, j)` or `(j, i)`.
fn symmetrize_mask(mask: &DistMat2D<bool>) -> DistMat2D<bool> {
    let transposed = mask.transpose();
    let mut triples = mask.to_triples();
    for (i, j, v) in transposed.to_triples().into_entries() {
        triples.push(i, j, v);
    }
    triples.merge_duplicates(|a, b| *a = *a || b);
    DistMat2D::from_triples(mask.grid(), &triples)
}

/// Check that no transitive edge remains: for every edge `(i, j)` of `s`,
/// there is no valid two-hop walk `i → k → j` with a matching direction whose
/// suffix sum is within the row bound.  Returns the offending edges (empty
/// means the matrix is a fixed point of Algorithm 2).
pub fn remaining_transitive_edges(
    s: &DistMat2D<OverlapEdge>,
    fuzz: u32,
) -> Vec<(usize, usize)> {
    let local = s.to_local_csr();
    let row_bound: Vec<Option<u32>> = local
        .reduce_rows(|_, _, e| e.suffix, u32::max)
        .into_iter()
        .map(|m| m.map(|v| v.saturating_add(fuzz)))
        .collect();
    let mut offending = Vec::new();
    for (i, j, edge) in local.iter() {
        let Some(bound) = row_bound[i] else { continue };
        for (k, e_ik) in local.row(i) {
            if k == j {
                continue;
            }
            if let Some(e_kj) = local.get(k, j) {
                if e_ik.direction().chains_with(e_kj.direction())
                    && e_ik.direction().compose(e_kj.direction()) == edge.direction()
                {
                    let sum = e_ik.suffix.saturating_add(e_kj.suffix);
                    if sum <= bound {
                        offending.push((i, j));
                        break;
                    }
                }
            }
        }
    }
    offending
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{chain_overlap_graph, tiling_overlap_graph, to_dist};
    use dibella_dist::ProcessGrid;

    #[test]
    fn chain_with_skip_edges_reduces_to_the_chain() {
        // Reads 0..5 tile a genome; edges connect neighbours (kept) and
        // neighbours-of-neighbours (transitive, removed).
        let r = chain_overlap_graph(6, 2);
        let dist = to_dist(&r, ProcessGrid::square(4));
        let comm = CommStats::new();
        let out = transitive_reduction(&dist, &TransitiveReductionConfig::for_tests(), &comm);
        // The chain keeps exactly the 5 adjacent overlaps (10 directed entries).
        assert_eq!(out.string_matrix.nnz(), 10, "only adjacent edges should remain");
        for i in 0..5usize {
            assert!(out.string_matrix.get(i, i + 1).is_some(), "chain edge ({i},{}) lost", i + 1);
            assert!(out.string_matrix.get(i + 1, i).is_some());
        }
        assert!(out.removed_edges > 0);
        assert!(comm.words(CommPhase::TransitiveReduction) > 0);
    }

    #[test]
    fn squarings_record_flops_under_the_tr_phase() {
        let r = chain_overlap_graph(8, 2);
        let dist = to_dist(&r, ProcessGrid::square(4));
        let comm = CommStats::new();
        let out = transitive_reduction(&dist, &TransitiveReductionConfig::for_tests(), &comm);
        assert!(out.iterations >= 1);
        let flops =
            comm.extra(&dibella_sparse::summa::flops_key(CommPhase::TransitiveReduction));
        assert!(flops > 0, "R² squarings must tally useful flops");
        assert_eq!(flops % 2, 0, "flops come in multiply-add pairs");
        assert!(
            comm.extra(&dibella_sparse::summa::peak_row_width_key(
                CommPhase::TransitiveReduction
            )) > 0
        );
    }

    #[test]
    fn reduction_is_idempotent() {
        let r = chain_overlap_graph(8, 3);
        let dist = to_dist(&r, ProcessGrid::square(4));
        let comm = CommStats::new();
        let cfg = TransitiveReductionConfig::for_tests();
        let once = transitive_reduction(&dist, &cfg, &comm);
        let twice = transitive_reduction(&once.string_matrix, &cfg, &comm);
        assert_eq!(once.string_matrix.to_local_csr(), twice.string_matrix.to_local_csr());
        assert_eq!(twice.removed_edges, 0);
    }

    #[test]
    fn no_transitive_edges_remain_after_reduction() {
        for span in [2usize, 3, 4] {
            let r = chain_overlap_graph(12, span);
            let dist = to_dist(&r, ProcessGrid::square(4));
            let comm = CommStats::new();
            let out = transitive_reduction(&dist, &TransitiveReductionConfig::for_tests(), &comm);
            let leftovers = remaining_transitive_edges(&out.string_matrix, 60);
            assert!(leftovers.is_empty(), "span {span}: transitive edges remain: {leftovers:?}");
        }
    }

    #[test]
    fn result_is_independent_of_grid_size() {
        let r = chain_overlap_graph(10, 3);
        let cfg = TransitiveReductionConfig::for_tests();
        let mut results = Vec::new();
        for p in [1usize, 4, 9] {
            let dist = to_dist(&r, ProcessGrid::square(p));
            let comm = CommStats::new();
            let out = transitive_reduction(&dist, &cfg, &comm);
            results.push(out.string_matrix.to_local_csr());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn multi_hop_chains_need_multiple_iterations() {
        // With skip edges spanning up to 4 neighbours, one round cannot remove
        // everything: removing the 2-hop skips exposes the 3- and 4-hop skips.
        let r = chain_overlap_graph(14, 4);
        let dist = to_dist(&r, ProcessGrid::square(1));
        let comm = CommStats::new();
        let out = transitive_reduction(&dist, &TransitiveReductionConfig::for_tests(), &comm);
        assert!(out.iterations >= 2, "expected at least two rounds, got {}", out.iterations);
        assert_eq!(out.string_matrix.nnz(), 2 * 13, "only the adjacent edges should survive");
    }

    #[test]
    fn reverse_strand_tiling_is_reduced_correctly() {
        // A tiling where alternating reads are sampled from the reverse strand
        // exercises the orientation rules: the reduced graph must still be the
        // simple chain.
        let n = 8;
        let r = tiling_overlap_graph(n, 2, true);
        let dist = to_dist(&r, ProcessGrid::square(4));
        let comm = CommStats::new();
        let out = transitive_reduction(&dist, &TransitiveReductionConfig::for_tests(), &comm);
        assert_eq!(out.string_matrix.nnz(), 2 * (n - 1));
        for i in 0..n - 1 {
            assert!(out.string_matrix.get(i, i + 1).is_some());
        }
        assert!(remaining_transitive_edges(&out.string_matrix, 60).is_empty());
    }

    #[test]
    fn fuzz_zero_keeps_borderline_edges() {
        // With fuzz = 0 an edge is only transitive if a two-hop walk is at
        // least as short as the row's longest suffix; build a case where the
        // two-hop sum exceeds every direct suffix so nothing is removed.
        let r = chain_overlap_graph(4, 2);
        let dist = to_dist(&r, ProcessGrid::square(1));
        let comm = CommStats::new();
        let strict = TransitiveReductionConfig { fuzz: 0, max_iterations: 8 };
        let out = transitive_reduction(&dist, &strict, &comm);
        // chain_overlap_graph gives skip edges a suffix equal to the sum of the
        // two hops, so even fuzz 0 removes them; the adjacent edges survive.
        assert!(out.string_matrix.nnz() >= 2 * 3);
        for i in 0..3usize {
            assert!(out.string_matrix.get(i, i + 1).is_some());
        }
    }

    #[test]
    fn empty_matrix_is_a_fixed_point() {
        let empty: DistMat2D<OverlapEdge> =
            DistMat2D::zero(ProcessGrid::square(4), 16, 16);
        let comm = CommStats::new();
        let out = transitive_reduction(&empty, &TransitiveReductionConfig::default(), &comm);
        assert_eq!(out.string_matrix.nnz(), 0);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.removed_edges, 0);
    }

    #[test]
    fn triangle_of_mutual_overlaps_keeps_the_two_shortest_edges() {
        // Paper Section II example: v1 -> v2 -> v3 plus the direct v1 -> v3;
        // the direct edge has the longer suffix and must be removed.
        let r = chain_overlap_graph(3, 2);
        let dist = to_dist(&r, ProcessGrid::square(1));
        let comm = CommStats::new();
        let out = transitive_reduction(&dist, &TransitiveReductionConfig::for_tests(), &comm);
        assert!(out.string_matrix.get(0, 1).is_some());
        assert!(out.string_matrix.get(1, 2).is_some());
        assert!(out.string_matrix.get(0, 2).is_none(), "the transitive edge e13 must be removed");
        assert!(out.string_matrix.get(2, 0).is_none());
    }
}
