//! The overlap stage's standing oracle: `C`, then `R` and `S`.
//!
//! **`C` from the definitions.**  For every column of `A`, every pair of reads
//! `i < j` holding that k-mer shares it: one count, and — for the first
//! `MAX_SEEDS` columns in ascending order — one seed with the k-mer's
//! position in `i` as `pos_v` and in `j` as `pos_h`.  Every way of computing
//! the candidates must return exactly that matrix, seeds included: the
//! symmetric and the general 2D SUMMA at P ∈ {1, 4, 9, 16} — a strict upper
//! triangle, since the naive `C` is one, whose grid blocks below the diagonal
//! are empty — and the 1D outer product at 1 / 4 / 7 ranks.  (The 1D reduction merges its partials in
//! ascending column-block order, so bit-identity — not merely the same
//! pattern and counts — is the relation that holds, and the one asserted.)
//!
//! **`R` and `S`.**  Alignment and transitive reduction on a path's
//! candidates must give the overlap matrix and the string matrix of the naive
//! `C` on one rank.  Alignment is all of this file's run time (2–4 s per
//! scenario in a debug build against 0.1 s for a `C`), so where every path ×
//! 1 / 2 / 4 threads is held to the naive `C`, `R` and `S` are taken from one
//! path of each kind, each at its own thread count ([`GRAPH_RUNS`]; the full
//! cross product — 33 alignments per dataset, 11 minutes — passed when this
//! file was written).

use dibella_dist::{with_threads, CommStats, ProcessGrid};
use dibella_overlap::{
    align_candidates_with, build_a_matrix, detect_candidates_1d, detect_candidates_2d_with,
    CommonKmers, KmerOccurrence, OverlapEdge, SharedSeed, MAX_SEEDS,
};
use dibella_pipeline::{PipelineConfig, ScenarioSpec};
use dibella_seq::simulate::build_scenario;
use dibella_seq::{count_kmers_serial, DatasetSpec, ReadSet};
use dibella_sparse::{CsrMatrix, DistMat2D, Triples};
use dibella_strgraph::transitive_reduction;
use std::collections::BTreeMap;

/// `C` from the definitions (module docs), as triples.
fn naive_c(a: &CsrMatrix<KmerOccurrence>) -> Triples<CommonKmers> {
    // Row-major iteration lists each column's holders in ascending read order.
    let mut holders: Vec<Vec<(usize, KmerOccurrence)>> = vec![Vec::new(); a.ncols()];
    for (read, col, occ) in a.iter() {
        holders[col].push((read, *occ));
    }
    let mut c: BTreeMap<(usize, usize), CommonKmers> = BTreeMap::new();
    for column in &holders {
        for (x, &(i, occ_i)) in column.iter().enumerate() {
            for &(j, occ_j) in &column[x + 1..] {
                let entry = c.entry((i, j)).or_default();
                if (entry.count as usize) < MAX_SEEDS {
                    entry.seeds.push(SharedSeed {
                        pos_v: occ_i.pos,
                        pos_h: occ_j.pos,
                        same_strand: occ_i.forward == occ_j.forward,
                    });
                }
                entry.count += 1;
            }
        }
    }
    Triples::from_entries(a.nrows(), a.nrows(), c.into_iter().map(|((i, j), v)| (i, j, v)).collect())
}

type Graphs = (CsrMatrix<OverlapEdge>, CsrMatrix<OverlapEdge>);

/// The (threads, ranks, path) whose candidates are also aligned and reduced.
const GRAPH_RUNS: [(usize, usize, &str); 3] = [(1, 16, "2D-sym"), (2, 9, "2D-general"), (4, 7, "1D")];

/// `R` and `S` from one candidate matrix.
fn r_and_s(reads: &ReadSet, c: &DistMat2D<CommonKmers>, config: &PipelineConfig) -> Graphs {
    let (r, _) = align_candidates_with(reads, c, &config.overlap, None);
    let tr = transitive_reduction(&r, &config.transitive, &CommStats::new());
    (r.to_local_csr(), tr.string_matrix.to_local_csr())
}

/// The reusable checker: every candidate path returns the naive `C` of
/// `reads`, and every path's `R` and `S` are the naive `C`'s.
fn assert_overlap_stage_agrees(reads: &ReadSet, k: usize, label: &str) {
    let config = PipelineConfig::for_small_reads(k, 1);
    let table = count_kmers_serial(reads, &config.kmer);
    let one = ProcessGrid::square(1);
    let a_local = build_a_matrix(reads, &table, k, one, 1).to_local_csr();
    let naive = naive_c(&a_local);
    let want = CsrMatrix::from_triples(&naive);
    assert!(want.nnz() > 0, "{label}: no candidates");
    let want_graphs = r_and_s(reads, &DistMat2D::from_triples(one, &naive), &config);
    assert!(want_graphs.1.nnz() > 0, "{label}: empty string graph");

    for threads in [1usize, 2, 4] {
        with_threads(threads, || {
            for nprocs in [1usize, 4, 9, 16] {
                let grid = ProcessGrid::square(nprocs);
                let a = build_a_matrix(reads, &table, k, grid, nprocs);
                for (symmetric, path) in [(true, "2D-sym"), (false, "2D-general")] {
                    let ctx = format!("{label} {path} P={nprocs} t={threads}");
                    let c = detect_candidates_2d_with(&a, &CommStats::new(), symmetric);
                    assert_eq!(c.to_local_csr(), want, "C ({ctx})");
                    for rank in grid.ranks().filter(|&r| grid.coords(r).0 > grid.coords(r).1) {
                        assert_eq!(c.blocks()[rank].nnz(), 0, "block {:?} ({ctx})", grid.coords(rank));
                    }
                    if GRAPH_RUNS.contains(&(threads, nprocs, path)) {
                        assert_eq!(r_and_s(reads, &c, &config), want_graphs, "R, S ({ctx})");
                    }
                }
            }
            for ranks in [1usize, 4, 7] {
                let ctx = format!("{label} 1D ranks={ranks} t={threads}");
                let c = detect_candidates_1d(&a_local, ranks, &CommStats::new());
                assert_eq!(c, want, "C ({ctx})");
                if GRAPH_RUNS.contains(&(threads, ranks, "1D")) {
                    let c = DistMat2D::from_triples(one, &c.to_triples());
                    assert_eq!(r_and_s(reads, &c, &config), want_graphs, "R, S ({ctx})");
                }
            }
        });
    }
}

#[test]
fn every_overlap_path_agrees_on_the_tiny_dataset() {
    assert_overlap_stage_agrees(&DatasetSpec::Tiny.generate(7).reads, 13, "tiny");
}

#[test]
fn every_overlap_path_agrees_on_every_fast_scenario() {
    for spec in ScenarioSpec::fast_suite() {
        let ds = build_scenario(spec.kind, &spec.params);
        assert_overlap_stage_agrees(&ds.reads, spec.k, spec.kind.label());
    }
}
