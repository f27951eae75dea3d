//! Synthetic overlap graphs used by tests, benches and examples.
//!
//! The fixtures model the canonical long-read layout: `n` reads of equal
//! length tiling a genome at a fixed stride, so that reads within `span`
//! positions of each other overlap.  Adjacent overlaps are the edges a string
//! graph should keep; the longer "skip" overlaps are exactly the transitive
//! edges Algorithm 2 must remove.  A variant samples alternating reads from
//! the reverse strand to exercise the bidirected orientation rules.

use crate::contigs::Contig;
use dibella_align::BidirectedDir;
use dibella_dist::ProcessGrid;
use dibella_overlap::OverlapEdge;
use dibella_seq::{DnaSeq, ReadRecord, ReadSet};
use dibella_sparse::{CsrMatrix, DistMat2D, Triples};

/// Stride between consecutive reads in the synthetic tiling (bases).
pub const TILING_STEP: usize = 200;

/// Build the overlap matrix of `n` same-strand reads tiling a genome, with
/// overlap edges between reads up to `span` positions apart.
pub fn chain_overlap_graph(n: usize, span: usize) -> Triples<OverlapEdge> {
    tiling_overlap_graph(n, span, false)
}

/// Build the overlap matrix of `n` reads tiling a genome; when
/// `alternate_strands` is true, odd-indexed reads are stored reverse-
/// complemented, which flips the bidirected head orientations of their edges.
pub fn tiling_overlap_graph(n: usize, span: usize, alternate_strands: bool) -> Triples<OverlapEdge> {
    assert!(span >= 1);
    let read_len = span * TILING_STEP + 2 * TILING_STEP;
    // Walking i -> j follows the genome left to right: each read is
    // traversed "forward" iff it is stored in genome orientation, so a
    // pair's two entries depend only on j - i and on the parity of i.
    let forward = |i: usize| !(alternate_strands && i % 2 == 1);
    let pair = |hops: usize, i: usize| {
        let overlap = (read_len - hops * TILING_STEP) as u32;
        let suffix = (hops * TILING_STEP) as u32;
        let dir_ij = BidirectedDir::new(forward(i), forward(i + hops));
        let edge = |dir: BidirectedDir| OverlapEdge {
            dir: dir.bits(),
            suffix,
            score: overlap as i32,
            overlap_len: overlap,
        };
        (edge(dir_ij), edge(dir_ij.reversed()))
    };
    let table: Vec<[(OverlapEdge, OverlapEdge); 2]> =
        (1..=span).map(|hops| [pair(hops, 0), pair(hops, 1)]).collect();
    // Sized up front and filled in one pass, bounds checked as it goes.
    let pairs: usize = (0..n).map(|i| span.min(n - 1 - i)).sum();
    let mut t = Triples::from_entries(n, n, Vec::with_capacity(2 * pairs));
    for i in 0..n {
        for j in (i + 1)..n.min(i + span + 1) {
            let (ij, ji) = table[j - i - 1][i % 2];
            t.push(i, j, ij);
            t.push(j, i, ji);
        }
    }
    t
}

/// A seed-driven Fisher–Yates shuffle of `0..n`: the same seed gives the
/// same permutation.  The draws come from SplitMix64, so the fixtures need
/// no random-number crate.
pub fn shuffled_ids(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut ids: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        ids.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    ids
}

/// The tiling of [`tiling_overlap_graph`] on both strands, with read `i`
/// renamed to `shuffled_ids(n, seed)[i]`: real reads arrive in random
/// genome order, so overlapping reads sit in any two block ranges.
pub fn shuffled_tiling_overlap_graph(n: usize, span: usize, seed: u64) -> Triples<OverlapEdge> {
    let ids = shuffled_ids(n, seed);
    let entries = (tiling_overlap_graph(n, span, true).into_entries().into_iter())
        .map(|(i, j, edge)| (ids[i], ids[j], edge))
        .collect();
    Triples::from_entries(n, n, entries)
}

/// A branching overlap graph: two tiling chains that share their first
/// `shared` reads (a simple model of a repeat boundary / haplotype fork).
pub fn forked_overlap_graph(arm_len: usize, shared: usize, span: usize) -> Triples<OverlapEdge> {
    assert!(shared >= 1 && arm_len >= 1);
    let n = shared + 2 * arm_len;
    let read_len = span * TILING_STEP + 2 * TILING_STEP;
    // Positions: reads 0..shared are the common prefix; reads
    // shared..shared+arm_len continue arm A; the rest continue arm B from the
    // same fork point.
    let position = |idx: usize| -> (usize, usize) {
        // (arm id, tile index along that arm's coordinate system)
        if idx < shared {
            (0, idx)
        } else if idx < shared + arm_len {
            (1, shared + (idx - shared))
        } else {
            (2, shared + (idx - shared - arm_len))
        }
    };
    let overlaps = |a: usize, b: usize| -> Option<usize> {
        let (arm_a, pos_a) = position(a);
        let (arm_b, pos_b) = position(b);
        // Reads on different private arms never overlap.
        if arm_a != 0 && arm_b != 0 && arm_a != arm_b {
            return None;
        }
        let d = pos_a.abs_diff(pos_b);
        (d <= span && d > 0).then(|| read_len - d * TILING_STEP)
    };
    let mut t = Triples::new(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            if let Some(overlap) = overlaps(i, j) {
                let (_, pi) = position(i);
                let (_, pj) = position(j);
                let hops = pi.abs_diff(pj);
                let suffix = (hops * TILING_STEP) as u32;
                // Order along the genome follows the tile index.
                let (first_fwd, second_fwd) = (true, true);
                let dir = if pi < pj {
                    BidirectedDir::new(first_fwd, second_fwd)
                } else {
                    BidirectedDir::new(false, false)
                };
                t.push(i, j, OverlapEdge { dir: dir.bits(), suffix, score: overlap as i32, overlap_len: overlap as u32 });
                t.push(j, i, OverlapEdge { dir: dir.reversed().bits(), suffix, score: overlap as i32, overlap_len: overlap as u32 });
            }
        }
    }
    t
}

/// A one-contig layout of the given same-strand reads in the given order:
/// `joins[i] = (lead, suffix)` claims that read `i + 1` starts `lead` bases
/// into read `i`, overlaps it from there and overhangs it by its own last
/// `suffix` bases — all in read coordinates, as an alignment would report
/// them — at a score of half a point per overlapping base (two reads at 12%
/// error each align at about that).  Returns the layout, the string matrix
/// holding its edges (both directions) and the read set.
pub fn chain_layout(
    reads: Vec<DnaSeq>,
    joins: &[(usize, usize)],
) -> (Contig, CsrMatrix<OverlapEdge>, ReadSet) {
    let n = reads.len();
    assert_eq!(joins.len() + 1, n, "one join per adjacent pair of reads");
    let mut triples = Triples::new(n, n);
    for (i, &(lead, suffix)) in joins.iter().enumerate() {
        let overlap = (reads[i + 1].len() - suffix) as u32;
        let score = (overlap / 2) as i32;
        let edge = OverlapEdge { dir: 0b11, suffix: suffix as u32, score, overlap_len: overlap };
        triples.push(i, i + 1, edge);
        triples.push(i + 1, i, OverlapEdge { dir: 0b00, suffix: lead as u32, ..edge });
    }
    let contig = Contig {
        reads: (0..n).collect(),
        estimated_length: reads[0].len() + joins.iter().map(|&(_, suffix)| suffix).sum::<usize>(),
        circular: false,
    };
    let records =
        reads.into_iter().enumerate().map(|(i, seq)| ReadRecord { name: format!("r{i}"), seq });
    (contig, CsrMatrix::from_triples(&triples), ReadSet::from_records(records.collect()))
}

/// Distribute a fixture over a process grid.
pub fn to_dist(triples: &Triples<OverlapEdge>, grid: ProcessGrid) -> DistMat2D<OverlapEdge> {
    DistMat2D::from_triples(grid, triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_seq::Strand;

    #[test]
    fn chain_graph_has_expected_edge_count() {
        // n=6, span=2: pairs (i, i+1) x5 and (i, i+2) x4, both directions.
        let t = chain_overlap_graph(6, 2);
        assert_eq!(t.nnz(), 2 * (5 + 4));
        assert_eq!(t.nrows(), 6);
    }

    #[test]
    fn chain_graph_is_pattern_symmetric_with_reversed_dirs() {
        let t = chain_overlap_graph(5, 3);
        let m = dibella_sparse::CsrMatrix::from_triples(&t);
        for (i, j, e) in m.iter() {
            let back = m.get(j, i).expect("mirror entry");
            assert_eq!(BidirectedDir(e.dir).reversed().bits(), back.dir);
            assert_eq!(e.suffix, back.suffix);
        }
    }

    #[test]
    fn skip_edges_have_longer_suffixes_than_adjacent_edges() {
        let t = chain_overlap_graph(4, 3);
        let m = dibella_sparse::CsrMatrix::from_triples(&t);
        let adj = m.get(0, 1).unwrap().suffix;
        let skip2 = m.get(0, 2).unwrap().suffix;
        let skip3 = m.get(0, 3).unwrap().suffix;
        assert!(adj < skip2 && skip2 < skip3);
        assert_eq!(skip2, 2 * adj);
        assert_eq!(skip3, 3 * adj);
    }

    #[test]
    fn shuffled_ids_are_a_seeded_permutation() {
        let ids = shuffled_ids(500, 3);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert!(sorted.into_iter().eq(0..500));
        assert_eq!(ids, shuffled_ids(500, 3));
        assert_ne!(ids, shuffled_ids(500, 4));
        assert_ne!(ids, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn shuffled_tiling_renames_the_tiling() {
        let (n, span, seed) = (40, 5, 9);
        let ids = shuffled_ids(n, seed);
        let tiling = CsrMatrix::from_triples(&tiling_overlap_graph(n, span, true));
        let shuffled = CsrMatrix::from_triples(&shuffled_tiling_overlap_graph(n, span, seed));
        assert_eq!(shuffled.nnz(), tiling.nnz());
        for (i, j, edge) in tiling.iter() {
            assert_eq!(shuffled.get(ids[i], ids[j]), Some(edge));
        }
    }

    #[test]
    fn alternate_strand_graph_uses_all_four_directions() {
        let t = tiling_overlap_graph(6, 2, true);
        let dirs: std::collections::BTreeSet<u8> = t.iter().map(|(_, _, e)| e.dir).collect();
        assert_eq!(dirs.len(), 4, "alternating strands must produce all four edge types");
    }

    /// The tiling as a plain loop builds it, entry by entry.
    fn tiling_reference(n: usize, span: usize, alternate_strands: bool) -> Triples<OverlapEdge> {
        let read_len = span * TILING_STEP + 2 * TILING_STEP;
        let strand_of = |i: usize| {
            if alternate_strands && i % 2 == 1 {
                Strand::Reverse
            } else {
                Strand::Forward
            }
        };
        let mut entries = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n.min(i + span + 1) {
                let hops = j - i;
                let overlap = read_len - hops * TILING_STEP;
                let suffix = (hops * TILING_STEP) as u32;
                let si = strand_of(i) == Strand::Forward;
                let sj = strand_of(j) == Strand::Forward;
                let dir_ij = BidirectedDir::new(si, sj);
                let dir_ji = dir_ij.reversed();
                let score = overlap as i32;
                entries.push((i, j, OverlapEdge { dir: dir_ij.bits(), suffix, score, overlap_len: overlap as u32 }));
                entries.push((j, i, OverlapEdge { dir: dir_ji.bits(), suffix, score, overlap_len: overlap as u32 }));
            }
        }
        Triples::from_entries(n, n, entries)
    }

    #[test]
    fn tiling_equals_the_plain_loop_entry_for_entry() {
        for n in [1usize, 2, 13, 100] {
            for span in [1usize, 3, 12] {
                for alternate_strands in [false, true] {
                    assert_eq!(
                        tiling_overlap_graph(n, span, alternate_strands),
                        tiling_reference(n, span, alternate_strands),
                        "n={n} span={span} alternate_strands={alternate_strands}"
                    );
                }
            }
        }
    }

    #[test]
    fn forked_graph_keeps_arms_disconnected() {
        let t = forked_overlap_graph(3, 2, 2);
        let m = dibella_sparse::CsrMatrix::from_triples(&t);
        // Reads 2..5 are arm A, reads 5..8 are arm B (with shared = 2, arm_len = 3).
        let arm_a: Vec<usize> = (2..5).collect();
        let arm_b: Vec<usize> = (5..8).collect();
        for &a in &arm_a {
            for &b in &arm_b {
                assert!(m.get(a, b).is_none(), "arm reads {a} and {b} must not overlap");
            }
        }
        // But both arms connect to the shared prefix.
        assert!(m.get(1, 2).is_some());
        assert!(m.get(1, 5).is_some());
    }
}
