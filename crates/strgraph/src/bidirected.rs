//! A graph-level view of overlap and string matrices.
//!
//! The matrices of the pipeline *are* the graph (Section II: "A string graph
//! (or matrix) is a graph G = (V, E)"), but walks, degrees and path validity
//! are easier to reason about — and to test against the paper's Figures 2
//! and 3 — through an adjacency-list view.

use dibella_align::BidirectedDir;
use dibella_overlap::OverlapEdge;
use dibella_sparse::{CsrMatrix, DistMat2D};
use serde::{Deserialize, Serialize};

/// An adjacency-list view of a bidirected overlap/string graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BidirectedGraph {
    adjacency: Vec<Vec<(usize, OverlapEdge)>>,
}

impl BidirectedGraph {
    /// Build from a local overlap/string matrix.
    pub fn from_matrix(m: &CsrMatrix<OverlapEdge>) -> Self {
        assert_eq!(m.nrows(), m.ncols(), "overlap matrices are square");
        let adjacency = (0..m.nrows())
            .map(|v| m.row(v).map(|(w, e)| (w, *e)).collect())
            .collect();
        Self { adjacency }
    }

    /// Build from a distributed matrix (gathers the blocks).
    pub fn from_dist_matrix(m: &DistMat2D<OverlapEdge>) -> Self {
        Self::from_matrix(&m.to_local_csr())
    }

    /// Number of vertices (reads).
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of directed edge entries (each overlap contributes two).
    pub fn num_directed_edges(&self) -> usize {
        self.adjacency.iter().map(|a| a.len()).sum()
    }

    /// Degree (number of overlap partners) of a vertex.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// The edge from `v` to `w`, if present.
    pub fn edge(&self, v: usize, w: usize) -> Option<&OverlapEdge> {
        self.adjacency[v].iter().find(|(x, _)| *x == w).map(|(_, e)| e)
    }

    /// Neighbours of `v` with their edges.
    pub fn neighbors(&self, v: usize) -> &[(usize, OverlapEdge)] {
        &self.adjacency[v]
    }

    /// Whether the vertex sequence is a **valid walk** in the bidirected graph
    /// (Figure 2): consecutive edges must exist and each intermediate vertex
    /// must be left in the same orientation it was entered in.
    pub fn is_valid_walk(&self, path: &[usize]) -> bool {
        if path.len() < 2 {
            return true;
        }
        let mut prev_dir: Option<BidirectedDir> = None;
        for pair in path.windows(2) {
            let Some(edge) = self.edge(pair[0], pair[1]) else { return false };
            let dir = edge.direction();
            if let Some(prev) = prev_dir {
                if !prev.chains_with(dir) {
                    return false;
                }
            }
            prev_dir = Some(dir);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{chain_overlap_graph, tiling_overlap_graph};
    use dibella_sparse::Triples;

    fn edge(dir: u8, suffix: u32) -> OverlapEdge {
        OverlapEdge { dir, suffix, score: 10, overlap_len: 100 }
    }

    /// Build the small graphs of Figure 2 by hand: a chain A-B-C-D whose heads
    /// are consistent, and a chain E-F-G-H where the F-G step flips
    /// orientation so that E→F→G is invalid while F→G→H is valid.
    fn figure2_graphs() -> (BidirectedGraph, BidirectedGraph) {
        // Consistent chain: every edge forward/forward.
        let mut upper = Triples::new(4, 4);
        for i in 0..3usize {
            upper.push(i, i + 1, edge(0b11, 100));
            upper.push(i + 1, i, edge(0b00, 100));
        }
        // Lower chain: E-F forward/forward, F-G enters G reversed, G-H must
        // then leave G reversed for F→G→H to be valid.
        let mut lower = Triples::new(4, 4);
        lower.push(0, 1, edge(0b11, 100)); // E -> F (enter F forward)
        lower.push(1, 0, edge(0b00, 100));
        lower.push(1, 2, edge(0b00, 100)); // F -> G leaves F reversed, enters G reversed
        lower.push(2, 1, edge(0b11, 100));
        lower.push(2, 3, edge(0b01, 100)); // G -> H leaves G reversed, enters H forward
        lower.push(3, 2, edge(0b01, 100));
        (
            BidirectedGraph::from_matrix(&CsrMatrix::from_triples(&upper)),
            BidirectedGraph::from_matrix(&CsrMatrix::from_triples(&lower)),
        )
    }

    #[test]
    fn figure2_abcd_is_a_valid_walk() {
        let (upper, _) = figure2_graphs();
        assert!(upper.is_valid_walk(&[0, 1, 2, 3]));
        assert!(upper.is_valid_walk(&[0, 1]));
        assert!(upper.is_valid_walk(&[2]));
    }

    #[test]
    fn figure2_efg_is_invalid_but_fgh_is_valid() {
        let (_, lower) = figure2_graphs();
        // E → F enters F forward, but F → G leaves F reversed: invalid.
        assert!(!lower.is_valid_walk(&[0, 1, 2]));
        // F → G enters G reversed and G → H leaves G reversed: valid.
        assert!(lower.is_valid_walk(&[1, 2, 3]));
    }

    #[test]
    fn missing_edges_invalidate_walks() {
        let g = BidirectedGraph::from_matrix(&CsrMatrix::from_triples(&chain_overlap_graph(5, 1)));
        assert!(g.is_valid_walk(&[0, 1, 2, 3, 4]));
        assert!(!g.is_valid_walk(&[0, 2]), "non-adjacent reads share no edge");
        assert!(!g.is_valid_walk(&[0, 1, 4]));
    }

    #[test]
    fn reverse_strand_tiling_walks_are_valid() {
        let g = BidirectedGraph::from_matrix(&CsrMatrix::from_triples(&tiling_overlap_graph(
            6, 1, true,
        )));
        assert!(g.is_valid_walk(&[0, 1, 2, 3, 4, 5]));
        assert!(g.is_valid_walk(&[5, 4, 3, 2, 1, 0]));
    }

    #[test]
    fn counts_and_degrees() {
        let g = BidirectedGraph::from_matrix(&CsrMatrix::from_triples(&chain_overlap_graph(6, 2)));
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_directed_edges(), 2 * (5 + 4));
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 4);
    }

    #[test]
    fn edge_lookup_matches_matrix() {
        let m = CsrMatrix::from_triples(&chain_overlap_graph(4, 2));
        let g = BidirectedGraph::from_matrix(&m);
        for (i, j, e) in m.iter() {
            assert_eq!(g.edge(i, j), Some(e));
        }
        assert_eq!(g.edge(0, 3), None);
    }
}
