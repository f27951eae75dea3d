//! Myers' sequential transitive reduction (Bioinformatics 2005).
//!
//! "Myers' transitive reduction algorithm consists of iterating over each node
//! v in the source graph and examining nodes up to two edges away from v to
//! identify all transitive edges that leave or enter v.  These edges are then
//! marked for removal, and they are removed after all nodes have been
//! considered."  (Section III.)  The algorithm is linear in the number of
//! edges for bounded-degree graphs but inherently sequential — it is the
//! baseline the paper's parallel formulation replaces, and the reference we
//! test the parallel algorithm against.

use dibella_overlap::OverlapEdge;
use dibella_sparse::CsrMatrix;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mark {
    Vacant,
    InPlay,
    Eliminated,
}

/// Run Myers' transitive reduction on a (pattern-symmetric) overlap matrix,
/// returning the reduced matrix and the number of directed entries removed.
pub fn myers_transitive_reduction(
    r: &CsrMatrix<OverlapEdge>,
    fuzz: u32,
) -> (CsrMatrix<OverlapEdge>, usize) {
    assert_eq!(r.nrows(), r.ncols(), "the overlap matrix must be square");
    let n = r.nrows();
    let mut mark = vec![Mark::Vacant; n];
    #[expect(clippy::disallowed_types, reason = "membership only: inserted into, never iterated")]
    let mut removed: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();

    for v in 0..n {
        let mut neighbors: Vec<(usize, &OverlapEdge)> = r.row(v).collect();
        if neighbors.is_empty() {
            continue;
        }
        neighbors.sort_by_key(|(_, e)| e.suffix);
        #[expect(clippy::unwrap_used, reason = "guarded by the is_empty() continue above")]
        let longest = neighbors.last().unwrap().1.suffix.saturating_add(fuzz);
        for (w, _) in &neighbors {
            mark[*w] = Mark::InPlay;
        }

        // Examine two-hop walks v -> w -> x in order of increasing first-hop
        // suffix, eliminating x when the walk stays within the bound and the
        // bidirected orientations chain and reproduce the direct edge's.
        for (w, e_vw) in &neighbors {
            if mark[*w] != Mark::InPlay {
                continue;
            }
            for (x, e_wx) in r.row(*w) {
                if x == v || mark[x] != Mark::InPlay {
                    continue;
                }
                let total = e_vw.suffix.saturating_add(e_wx.suffix);
                if total > longest {
                    continue;
                }
                if !e_vw.direction().chains_with(e_wx.direction()) {
                    continue;
                }
                if let Some(e_vx) = r.get(v, x) {
                    if e_vw.direction().compose(e_wx.direction()) == e_vx.direction() {
                        mark[x] = Mark::Eliminated;
                    }
                }
            }
        }

        for (w, _) in &neighbors {
            if mark[*w] == Mark::Eliminated {
                removed.insert((v, *w));
                removed.insert((*w, v));
            }
            mark[*w] = Mark::Vacant;
        }
    }

    let reduced = r.filter(|i, j, _| !removed.contains(&(i, j)));
    let count = r.nnz() - reduced.nnz();
    (reduced, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{chain_overlap_graph, forked_overlap_graph, tiling_overlap_graph};
    use crate::transitive::{remaining_transitive_edges, transitive_reduction, TransitiveReductionConfig};
    use dibella_dist::{CommStats, ProcessGrid};
    use dibella_sparse::DistMat2D;

    #[test]
    fn chain_reduces_to_adjacent_edges() {
        let r = CsrMatrix::from_triples(&chain_overlap_graph(8, 3));
        let (s, removed) = myers_transitive_reduction(&r, 60);
        assert_eq!(s.nnz(), 2 * 7);
        assert_eq!(removed, r.nnz() - s.nnz());
        for i in 0..7usize {
            assert!(s.get(i, i + 1).is_some());
            assert!(s.get(i + 1, i).is_some());
        }
    }

    #[test]
    fn myers_and_parallel_reduction_agree_on_tilings() {
        for (n, span, alt) in [(10usize, 2usize, false), (9, 3, false), (12, 2, true), (11, 4, true)] {
            let triples = tiling_overlap_graph(n, span, alt);
            let local = CsrMatrix::from_triples(&triples);
            let (myers, _) = myers_transitive_reduction(&local, 60);
            let dist = DistMat2D::from_triples(ProcessGrid::square(4), &triples);
            let comm = CommStats::new();
            let parallel =
                transitive_reduction(&dist, &TransitiveReductionConfig::for_tests(), &comm);
            assert_eq!(
                myers.pattern(),
                parallel.string_matrix.to_local_csr().pattern(),
                "n={n} span={span} alt={alt}"
            );
        }
    }

    #[test]
    fn myers_and_parallel_reduction_agree_on_forked_graphs() {
        let triples = forked_overlap_graph(4, 3, 2);
        let local = CsrMatrix::from_triples(&triples);
        let (myers, _) = myers_transitive_reduction(&local, 60);
        let dist = DistMat2D::from_triples(ProcessGrid::square(4), &triples);
        let comm = CommStats::new();
        let parallel = transitive_reduction(&dist, &TransitiveReductionConfig::for_tests(), &comm);
        assert_eq!(myers.pattern(), parallel.string_matrix.to_local_csr().pattern());
    }

    #[test]
    fn myers_output_has_no_remaining_transitive_edges() {
        let triples = chain_overlap_graph(15, 4);
        let local = CsrMatrix::from_triples(&triples);
        let (myers, _) = myers_transitive_reduction(&local, 60);
        let dist = DistMat2D::from_triples(ProcessGrid::square(1), &myers.to_triples());
        assert!(remaining_transitive_edges(&dist, 60).is_empty());
    }

    #[test]
    fn empty_and_single_edge_graphs_are_untouched() {
        let empty = CsrMatrix::<OverlapEdge>::zero(5, 5);
        let (s, removed) = myers_transitive_reduction(&empty, 100);
        assert_eq!(s.nnz(), 0);
        assert_eq!(removed, 0);

        let single = CsrMatrix::from_triples(&chain_overlap_graph(2, 1));
        let (s2, removed2) = myers_transitive_reduction(&single, 100);
        assert_eq!(s2.nnz(), 2);
        assert_eq!(removed2, 0);
    }
}
