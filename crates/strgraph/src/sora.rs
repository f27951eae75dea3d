//! A SORA-style vertex-centric transitive reduction (comparison baseline).
//!
//! SORA (Paul et al., BIBM 2018) computes the same overlap-graph-to-string-
//! graph reduction on Apache Spark with GraphX.  Its execution model is
//! vertex-centric: in every superstep each vertex ships its adjacency list to
//! its neighbours (GraphX `aggregateMessages`), each vertex then decides which
//! of its incident edges are transitive, and a new graph is materialised
//! before the next superstep.  That structure — per-superstep message
//! materialisation of `Σ deg²` adjacency copies and a full graph rebuild,
//! with no semiring fusion — is what diBELLA 2D's sparse-matrix formulation
//! avoids, and it is the source of the 10–29× gap in Table VI.  This module
//! reproduces the execution structure faithfully (including the memory
//! traffic), while the transitivity rule itself matches Algorithm 2 so both
//! implementations compute the same string graph.

use dibella_overlap::OverlapEdge;
use dibella_sparse::CsrMatrix;

/// Execution counters of a SORA-style run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoraStats {
    /// Number of supersteps executed (including the final no-change step).
    pub supersteps: usize,
    /// Total adjacency records materialised as messages across all supersteps.
    pub messages: u64,
    /// Directed entries removed in total.
    pub removed: usize,
}

/// Run the vertex-centric reduction until no edge is removed.
#[expect(
    clippy::disallowed_types,
    reason = "the Table VI baseline is timed as written; both containers are probed by key, \
              never iterated"
)]
pub fn sora_transitive_reduction(
    r: &CsrMatrix<OverlapEdge>,
    fuzz: u32,
) -> (CsrMatrix<OverlapEdge>, SoraStats) {
    use std::collections::{HashMap, HashSet};
    assert_eq!(r.nrows(), r.ncols(), "the overlap matrix must be square");
    let n = r.nrows();
    let mut current = r.clone();
    let mut stats = SoraStats::default();

    loop {
        stats.supersteps += 1;

        // Superstep phase 1: every vertex materialises its adjacency list and
        // sends a copy to each neighbour (the aggregateMessages shuffle).
        let adjacency: Vec<Vec<(usize, OverlapEdge)>> = (0..n)
            .map(|v| current.row(v).map(|(w, e)| (w, *e)).collect())
            .collect();
        let mut inbox: Vec<HashMap<usize, Vec<(usize, OverlapEdge)>>> = vec![HashMap::new(); n];
        for (v, adj) in adjacency.iter().enumerate() {
            for (w, _) in adj {
                // Vertex v sends its full adjacency to neighbour w.
                inbox[*w].insert(v, adj.clone());
                stats.messages += adj.len() as u64;
            }
        }

        // Superstep phase 2: every vertex flags its transitive out-edges using
        // the received neighbour adjacencies (same rule as Algorithm 2).
        let mut flagged: Vec<(usize, usize)> = Vec::new();
        for (u, received) in inbox.iter().enumerate() {
            let own: Vec<(usize, OverlapEdge)> = adjacency[u].clone();
            if own.is_empty() {
                continue;
            }
            let bound =
                own.iter().map(|(_, e)| e.suffix).max().unwrap_or(0).saturating_add(fuzz);
            for (x, e_ux) in &own {
                let mut transitive = false;
                for (v, e_uv) in &own {
                    if v == x {
                        continue;
                    }
                    let Some(v_adj) = received.get(v) else { continue };
                    if let Some((_, e_vx)) = v_adj.iter().find(|(t, _)| t == x) {
                        if e_uv.direction().chains_with(e_vx.direction())
                            && e_uv.direction().compose(e_vx.direction()) == e_ux.direction()
                            && e_uv.suffix.saturating_add(e_vx.suffix) <= bound
                        {
                            transitive = true;
                            break;
                        }
                    }
                }
                if transitive {
                    flagged.push((u, *x));
                }
            }
        }

        if flagged.is_empty() {
            break;
        }
        // Keep the graph pattern-symmetric, as the matrix formulation does.
        let mut to_remove: HashSet<(usize, usize)> = flagged.iter().copied().collect();
        for (u, x) in flagged {
            to_remove.insert((x, u));
        }
        // Superstep phase 3: materialise the new graph.
        let next = current.filter(|i, j, _| !to_remove.contains(&(i, j)));
        stats.removed += current.nnz() - next.nnz();
        current = next;
    }

    (current, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{chain_overlap_graph, tiling_overlap_graph};
    use crate::transitive::{transitive_reduction, TransitiveReductionConfig};
    use dibella_dist::{CommStats, ProcessGrid};
    use dibella_sparse::DistMat2D;

    #[test]
    fn sora_reduces_the_chain_like_algorithm_2() {
        let triples = chain_overlap_graph(10, 3);
        let local = CsrMatrix::from_triples(&triples);
        let (sora, stats) = sora_transitive_reduction(&local, 60);
        assert_eq!(sora.nnz(), 2 * 9);
        assert!(stats.removed > 0);
        assert!(stats.supersteps >= 2, "needs at least one working step plus the fixed-point step");
        assert!(stats.messages > 0);
    }

    #[test]
    fn sora_matches_the_parallel_reduction_on_tilings() {
        for (n, span, alt) in [(8usize, 2usize, false), (10, 3, true)] {
            let triples = tiling_overlap_graph(n, span, alt);
            let local = CsrMatrix::from_triples(&triples);
            let (sora, _) = sora_transitive_reduction(&local, 60);
            let dist = DistMat2D::from_triples(ProcessGrid::square(4), &triples);
            let comm = CommStats::new();
            let parallel =
                transitive_reduction(&dist, &TransitiveReductionConfig::for_tests(), &comm);
            assert_eq!(sora.pattern(), parallel.string_matrix.to_local_csr().pattern());
        }
    }

    #[test]
    fn message_volume_scales_with_degree_squared() {
        // Doubling the span (degree) should roughly quadruple the per-superstep
        // message volume — the structural cost of the vertex-centric model.
        let small = CsrMatrix::from_triples(&chain_overlap_graph(30, 2));
        let big = CsrMatrix::from_triples(&chain_overlap_graph(30, 4));
        let (_, s_small) = sora_transitive_reduction(&small, 60);
        let (_, s_big) = sora_transitive_reduction(&big, 60);
        let per_step_small = s_small.messages as f64 / s_small.supersteps as f64;
        let per_step_big = s_big.messages as f64 / s_big.supersteps as f64;
        assert!(
            per_step_big > per_step_small * 2.5,
            "message volume should grow superlinearly with degree: {per_step_small} -> {per_step_big}"
        );
    }

    #[test]
    fn already_reduced_graph_terminates_in_one_superstep() {
        let triples = chain_overlap_graph(6, 1);
        let local = CsrMatrix::from_triples(&triples);
        let (out, stats) = sora_transitive_reduction(&local, 60);
        assert_eq!(out.nnz(), local.nnz());
        assert_eq!(stats.supersteps, 1);
        assert_eq!(stats.removed, 0);
    }
}
