//! Contig layout extraction from the string graph.
//!
//! The paper stops at the string graph ("This conversion makes it easier to
//! cluster sections of the graph into contigs").  This module provides the
//! layout step: maximal unbranched, orientation-consistent walks of the
//! string graph, each of which is the layout of one contig.  The string
//! matrix *is* the graph (Section II: "A string graph (or matrix) is a graph
//! G = (V, E)"), so the walks read `S`'s rows directly, and
//! [`walk_orientations`] states Figure 2's rule for a valid walk once.  The
//! [`consensus`](crate::consensus) module turns those layouts into sequence,
//! closing the OLC loop.  The examples and integration tests use it to show
//! that an error-free tiling of a genome collapses to a single contig whose
//! estimated length matches the genome.

use dibella_align::BidirectedDir;
use dibella_overlap::OverlapEdge;
use dibella_sparse::CsrMatrix;

/// One contig layout: an ordered list of reads and an estimated length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contig {
    /// Read indices in walk order.
    pub reads: Vec<usize>,
    /// Estimated contig length: the first read's length plus the suffixes of
    /// every subsequent edge (the definition of the string-graph walk).
    pub estimated_length: usize,
    /// Whether the walk closes back on its first read — the layout of a
    /// circular replicon (plasmid, bacterial chromosome).  The linearised
    /// layout is where the circle was cut; evaluation on circular references
    /// must not count the cut as a misjoin.
    pub circular: bool,
}

impl Contig {
    /// Number of reads in the layout.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// Whether the contig has no reads.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }
}

/// The orientation of every read along `reads` (`true` = the walk traverses
/// the read as stored), or `None` when `reads` is not a **valid walk** of
/// `s` (Figure 2): each consecutive pair must share an edge, and each
/// intermediate read must be left in the orientation it was entered in.
pub fn walk_orientations(s: &CsrMatrix<OverlapEdge>, reads: &[usize]) -> Option<Vec<bool>> {
    if let [_] = reads {
        return Some(vec![true]);
    }
    let mut orientations = Vec::with_capacity(reads.len());
    let mut prev: Option<BidirectedDir> = None;
    for pair in reads.windows(2) {
        let dir = s.get(pair[0], pair[1])?.direction();
        match prev {
            None => orientations.push(dir.source_forward()),
            Some(p) if !p.chains_with(dir) => return None,
            Some(_) => {}
        }
        orientations.push(dir.dest_forward());
        prev = Some(dir);
    }
    Some(orientations)
}

/// Extract maximal unbranched walks from the string matrix.
///
/// `read_lengths[i]` is the length of read `i` (used for the length
/// estimates); singleton reads (no surviving edges) become single-read
/// contigs.  Every layout is a valid walk of `s` ([`walk_orientations`]
/// returns `Some`).
pub fn extract_contigs(s: &CsrMatrix<OverlapEdge>, read_lengths: &[usize]) -> Vec<Contig> {
    assert_eq!(s.nrows(), s.ncols(), "overlap matrices are square");
    assert_eq!(s.nrows(), read_lengths.len(), "one length per read required");
    let n = s.nrows();
    let mut visited = vec![false; n];
    let mut contigs = Vec::new();

    // Start walks at non-branching path ends (degree != 2), then sweep up any
    // untouched simple cycles.
    let mut starts: Vec<usize> = (0..n).filter(|&v| s.row_nnz(v) != 2).collect();
    starts.extend(0..n);

    for start in starts {
        if visited[start] {
            continue;
        }
        if s.row_nnz(start) > 2 {
            // Branching vertices are emitted as their own (unresolved) contig
            // seed; a full assembler would resolve them with read depth.
            visited[start] = true;
            contigs.push(Contig {
                reads: vec![start],
                estimated_length: read_lengths[start],
                circular: false,
            });
            continue;
        }
        visited[start] = true;
        let mut reads = vec![start];
        let mut length = read_lengths[start];
        let mut prev_dir: Option<BidirectedDir> = None;
        let mut current = start;
        // Choose the first unvisited continuation, in column order, that
        // keeps the walk valid.
        while let Some((w, e)) = s.row(current).find(|&(w, e)| {
            !visited[w]
                && s.row_nnz(w) <= 2
                && prev_dir.is_none_or(|p| p.chains_with(e.direction()))
        }) {
            visited[w] = true;
            reads.push(w);
            length += e.suffix as usize;
            prev_dir = Some(e.direction());
            current = w;
        }
        // The walk is circular if its last read chains back onto its first:
        // the cycle sweep linearised a closed loop at an arbitrary cut point.
        let circular = reads.len() > 2
            && prev_dir.is_some_and(|p| {
                s.get(current, start).is_some_and(|e| p.chains_with(e.direction()))
            });
        contigs.push(Contig { reads, estimated_length: length, circular });
    }
    contigs.sort_by_key(|c| std::cmp::Reverse(c.reads.len()));
    contigs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{
        chain_overlap_graph, forked_overlap_graph, shuffled_tiling_overlap_graph,
        tiling_overlap_graph, to_dist, TILING_STEP,
    };
    use crate::myers::myers_transitive_reduction;
    use crate::transitive::{transitive_reduction, TransitiveReductionConfig};
    use dibella_dist::{CommStats, ProcessGrid};
    use dibella_sparse::Triples;

    fn lengths(n: usize, span: usize) -> Vec<usize> {
        vec![span * TILING_STEP + 2 * TILING_STEP; n]
    }

    fn edge(dir: u8, suffix: u32) -> OverlapEdge {
        OverlapEdge { dir, suffix, score: 10, overlap_len: 100 }
    }

    /// Every read of `0..n` sits in exactly one contig.
    fn assert_partition(contigs: &[Contig], n: usize) {
        let mut seen = vec![false; n];
        for c in contigs {
            for &r in &c.reads {
                assert!(!seen[r], "read {r} in two contigs: {contigs:?}");
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "a read is in no contig: {contigs:?}");
    }

    /// Build the small graphs of Figure 2 by hand: a chain A-B-C-D whose heads
    /// are consistent, and a chain E-F-G-H where the F-G step flips
    /// orientation so that E→F→G is invalid while F→G→H is valid.
    fn figure2_graphs() -> (CsrMatrix<OverlapEdge>, CsrMatrix<OverlapEdge>) {
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
        (CsrMatrix::from_triples(&upper), CsrMatrix::from_triples(&lower))
    }

    #[test]
    fn figure2_abcd_is_a_valid_walk() {
        let (upper, _) = figure2_graphs();
        assert_eq!(walk_orientations(&upper, &[0, 1, 2, 3]), Some(vec![true; 4]));
        assert!(walk_orientations(&upper, &[0, 1]).is_some());
        assert_eq!(walk_orientations(&upper, &[2]), Some(vec![true]));
    }

    #[test]
    fn figure2_efg_is_invalid_but_fgh_is_valid() {
        let (_, lower) = figure2_graphs();
        // E → F enters F forward, but F → G leaves F reversed: invalid.
        assert!(walk_orientations(&lower, &[0, 1, 2]).is_none());
        // F → G enters G reversed and G → H leaves G reversed: valid.
        assert_eq!(walk_orientations(&lower, &[1, 2, 3]), Some(vec![false, false, true]));
    }

    #[test]
    fn missing_edges_invalidate_walks() {
        let s = CsrMatrix::from_triples(&chain_overlap_graph(5, 1));
        assert!(walk_orientations(&s, &[0, 1, 2, 3, 4]).is_some());
        assert!(walk_orientations(&s, &[0, 2]).is_none(), "non-adjacent reads share no edge");
        assert!(walk_orientations(&s, &[0, 1, 4]).is_none());
    }

    #[test]
    fn reverse_strand_tiling_walks_are_valid() {
        // Odd reads are stored reverse-complemented, so a walk along the
        // genome traverses every other read reversed, in either direction.
        let s = CsrMatrix::from_triples(&tiling_overlap_graph(6, 1, true));
        let alternating = Some(vec![true, false, true, false, true, false]);
        assert_eq!(walk_orientations(&s, &[0, 1, 2, 3, 4, 5]), alternating);
        assert_eq!(walk_orientations(&s, &[5, 4, 3, 2, 1, 0]), alternating);
    }

    #[test]
    fn reduced_chain_yields_one_contig_covering_all_reads() {
        let n = 10;
        let r = CsrMatrix::from_triples(&chain_overlap_graph(n, 3));
        let (s, _) = myers_transitive_reduction(&r, 60);
        let contigs = extract_contigs(&s, &lengths(n, 3));
        assert_eq!(contigs[0].reads.len(), n, "the tiling should collapse into one contig");
        assert!(!contigs[0].circular, "a linear chain must not be flagged circular");
        // Reads must appear in tiling order (or its reverse).
        let mut reads = contigs[0].reads.clone();
        if reads[0] > *reads.last().unwrap() {
            reads.reverse();
        }
        assert_eq!(reads, (0..n).collect::<Vec<_>>());
        // Estimated length: first read + (n-1) adjacent suffixes.
        let expected = lengths(n, 3)[0] + (n - 1) * TILING_STEP;
        assert_eq!(contigs[0].estimated_length, expected);
    }

    #[test]
    fn reverse_strand_tiling_still_forms_one_contig() {
        let n = 8;
        let r = CsrMatrix::from_triples(&tiling_overlap_graph(n, 2, true));
        let (s, _) = myers_transitive_reduction(&r, 60);
        let contigs = extract_contigs(&s, &lengths(n, 2));
        assert_eq!(contigs[0].reads.len(), n);
    }

    #[test]
    fn forked_graph_produces_multiple_contigs() {
        let r = CsrMatrix::from_triples(&forked_overlap_graph(4, 3, 1));
        let (s, _) = myers_transitive_reduction(&r, 60);
        let n = s.nrows();
        let contigs = extract_contigs(&s, &vec![600; n]);
        assert!(contigs.len() >= 2, "a fork cannot be a single walk: {contigs:?}");
        assert_partition(&contigs, n);
    }

    /// A circular tiling: every read overlaps the next and the last wraps to
    /// the first (a plasmid / circular chromosome).
    fn circular_overlap_graph(n: usize) -> CsrMatrix<OverlapEdge> {
        let mut t = Triples::new(n, n);
        let edge = |dir: u8| OverlapEdge {
            dir,
            suffix: TILING_STEP as u32,
            score: 100,
            overlap_len: (2 * TILING_STEP) as u32,
        };
        for i in 0..n {
            let j = (i + 1) % n;
            t.push(i, j, edge(0b11));
            t.push(j, i, edge(0b00));
        }
        CsrMatrix::from_triples(&t)
    }

    /// The chain 0-1-2-3-4 with a dead-end spur 2-5: vertex 2 branches.
    fn spur_chain() -> CsrMatrix<OverlapEdge> {
        let spur = OverlapEdge { dir: 0b11, suffix: 100, score: 50, overlap_len: 200 };
        let mut entries = chain_overlap_graph(5, 1).entries().to_vec();
        entries.push((2, 5, spur));
        entries.push((5, 2, OverlapEdge { dir: 0b00, ..spur }));
        CsrMatrix::from_triples(&Triples::from_entries(6, 6, entries))
    }

    #[test]
    fn circular_layout_is_swept_into_one_contig() {
        // Every vertex has degree 2, so no walk end exists: the cycle sweep
        // must still pick the component up exactly once.
        let n = 9;
        let s = circular_overlap_graph(n);
        let contigs = extract_contigs(&s, &vec![3 * TILING_STEP; n]);
        assert_eq!(contigs.len(), 1, "a simple cycle is one contig: {contigs:?}");
        assert!(contigs[0].circular, "the closed walk must be flagged circular");
        // The walk linearises the circle: first read plus n-1 suffixes (the
        // wrap-around edge is where the circle was cut).
        assert_eq!(contigs[0].estimated_length, 3 * TILING_STEP + (n - 1) * TILING_STEP);
        assert_partition(&contigs, n);
    }

    #[test]
    fn single_read_matrix_yields_one_singleton_contig() {
        let s = CsrMatrix::<OverlapEdge>::zero(1, 1);
        let contigs = extract_contigs(&s, &[741]);
        assert_eq!(contigs.len(), 1);
        assert_eq!(contigs[0].reads, vec![0]);
        assert_eq!(contigs[0].estimated_length, 741);
        assert_eq!(contigs[0].len(), 1);
        assert!(!contigs[0].is_empty());
    }

    #[test]
    fn dead_end_branch_splits_the_walk_at_the_branching_vertex() {
        // Vertex 2 branches (degree 3) and must be emitted alone; the spur
        // read and the two chain arms become their own contigs.
        let contigs = extract_contigs(&spur_chain(), &[600; 6]);
        assert_partition(&contigs, 6);
        // The branching vertex is a singleton, and no contig walks across it.
        let of_2 = contigs.iter().find(|c| c.reads.contains(&2)).unwrap();
        assert_eq!(of_2.reads, vec![2], "branching vertices are unresolved singletons");
        let of_5 = contigs.iter().find(|c| c.reads.contains(&5)).unwrap();
        assert_eq!(of_5.reads, vec![5], "the dead-end spur cannot chain through the branch");
        for c in &contigs {
            assert!(
                c.reads.len() <= 2,
                "no walk may cross the degree-3 vertex: {contigs:?}"
            );
        }
    }

    #[test]
    fn isolated_reads_become_singleton_contigs() {
        let mut triples = chain_overlap_graph(4, 1);
        // Add two isolated reads (5 and 6) with no edges by enlarging the matrix.
        let entries = triples.entries().to_vec();
        triples = Triples::from_entries(7, 7, entries);
        let s = CsrMatrix::from_triples(&triples);
        let contigs = extract_contigs(&s, &[500; 7]);
        let singleton_count = contigs.iter().filter(|c| c.reads.len() == 1).count();
        assert!(singleton_count >= 2);
        assert_eq!(contigs.iter().map(|c| c.reads.len()).sum::<usize>(), 7);
    }

    /// `S` of a fixture, reduced by Algorithm 2 on a `nprocs`-rank grid.
    fn reduced(r: &Triples<OverlapEdge>, nprocs: usize) -> CsrMatrix<OverlapEdge> {
        let dist = to_dist(r, ProcessGrid::square(nprocs));
        let config = TransitiveReductionConfig::for_tests();
        transitive_reduction(&dist, &config, &CommStats::new()).string_matrix.to_local_csr()
    }

    #[test]
    fn every_layout_is_a_valid_walk_and_the_layouts_partition_the_reads() {
        let mut graphs: Vec<(String, CsrMatrix<OverlapEdge>)> = Vec::new();
        for nprocs in [1, 4, 16] {
            for seed in [1, 7] {
                let r = shuffled_tiling_overlap_graph(120, 4, seed);
                graphs.push((format!("shuffled tiling {seed}, P = {nprocs}"), reduced(&r, nprocs)));
            }
        }
        graphs.push(("forked".into(), reduced(&forked_overlap_graph(6, 3, 2), 4)));
        graphs.push(("spur".into(), spur_chain()));
        graphs.push(("circular".into(), circular_overlap_graph(9)));
        for (name, s) in &graphs {
            let n = s.nrows();
            let contigs = extract_contigs(s, &vec![600; n]);
            assert_partition(&contigs, n);
            for c in &contigs {
                assert!(
                    walk_orientations(s, &c.reads).is_some(),
                    "{name}: layout {:?} is not a valid walk of S",
                    c.reads
                );
            }
            if name.starts_with("shuffled") {
                assert_eq!(contigs.len(), 1, "{name}: a reduced tiling is one walk");
            }
        }
    }
}
