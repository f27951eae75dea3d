//! The reads × k-min-mers occurrence matrix (the sketch-space `A`).
//!
//! Mirrors `dibella_overlap::build_a_matrix` — block-partitioned construction
//! over virtual ranks, first-occurrence-per-column entries, the same
//! [`KmerOccurrence`] payload, the same [`DistMat2D`] CSR layout — but the
//! columns are *k-min-mers* whose IDs are assigned by a distributed
//! ownership pass:
//!
//! 1. every construction rank sketches its block of reads;
//! 2. each distinct `(read, key)` pair is sent to the key's owner rank
//!    (`key % nranks`) via the simulated all-to-all, accounted under
//!    [`CommPhase::SketchIndex`];
//! 3. owners count the reads per key and drop keys outside
//!    `[min_reads, max_reads]` (singletons cannot seed a candidate pair;
//!    high-frequency k-min-mers are repeats);
//! 4. surviving keys are allgathered (accounted as one broadcast per owner)
//!    and globally sorted — column IDs are ranks in that sorted order, so
//!    the matrix is bit-identical for any rank or thread count.
//!
//! The result plugs straight into `detect_candidates_2d_with`: the
//! `OverlapSemiring` SUMMA (including the symmetric `A·Aᵀ` path) neither
//! knows nor cares that a column is a k-min-mer rather than a k-mer.

use crate::config::SketchConfig;
use crate::kminmer::{sketch_read, KminmerHit, ReadSketch};
use dibella_dist::{
    alltoallv_counted, par_ranks, record_broadcast, BlockDist, CommPhase, CommStats, ProcessGrid,
};
use dibella_overlap::KmerOccurrence;
use dibella_seq::ReadSet;
use dibella_sparse::DistMat2D;

/// Size and selectivity counters of one sketch-matrix build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchStats {
    /// Nonzeros of the matrix (distinct surviving `(read, k-min-mer)` pairs).
    pub nnz: u64,
    /// Number of k-min-mer columns.
    pub columns: u64,
    /// Total sketch-space k-mer windows scanned across all reads.
    pub total_kmers: u64,
    /// Total minimizers selected across all reads.
    pub minimizers: u64,
    /// Total raw bases across all reads.
    pub raw_bases: u64,
    /// Total sketch-space (HPC) bases across all reads.
    pub sketch_bases: u64,
    /// Distinct k-min-mers dropped for occurring in `< min_reads` reads.
    pub dropped_rare: u64,
    /// Distinct k-min-mers masked as repetitive (`> max_reads` reads).
    pub dropped_repetitive: u64,
}

impl SketchStats {
    /// Achieved minimizer density (selected / scanned sketch-space k-mers).
    pub fn achieved_density(&self) -> f64 {
        if self.total_kmers == 0 {
            0.0
        } else {
            self.minimizers as f64 / self.total_kmers as f64
        }
    }

    /// HPC compression ratio: raw bases per sketch-space base.
    pub fn hpc_ratio(&self) -> f64 {
        if self.sketch_bases == 0 {
            1.0
        } else {
            self.raw_bases as f64 / self.sketch_bases as f64
        }
    }
}

/// Build the reads × k-min-mers occurrence matrix, distributed over `grid`,
/// with the ownership/ID-assignment exchange accounted on `stats` under
/// [`CommPhase::SketchIndex`]; the returned [`SketchStats`] are the build's
/// size and selectivity counters.
///
/// The output is bit-identical for any `construction_ranks >= 1` and any
/// thread count: k-min-mer occurrence counts are global, and column IDs are
/// positions in the globally sorted surviving-key list.
pub fn build_sketch_matrix(
    reads: &ReadSet,
    cfg: &SketchConfig,
    grid: ProcessGrid,
    construction_ranks: usize,
    stats: &CommStats,
) -> (DistMat2D<KmerOccurrence>, SketchStats) {
    assert!(construction_ranks > 0);
    let nranks = construction_ranks;
    let read_dist = BlockDist::new(reads.len(), nranks);

    // Pass 1: every rank sketches its block of reads (HPC + density
    // selection + k-min-mer construction, all read-local).
    let per_rank: Vec<Vec<(usize, ReadSketch)>> = par_ranks(nranks, |rank| {
        read_dist
            .range(rank)
            .map(|read_idx| (read_idx, sketch_read(reads.seq(read_idx), cfg)))
            .collect()
    });

    let mut agg = SketchStats::default();
    let mut sketches: Vec<Vec<KminmerHit>> = vec![Vec::new(); reads.len()];
    for block in &per_rank {
        for (read_idx, sk) in block {
            agg.total_kmers += sk.kmers;
            agg.minimizers += sk.minimizers;
            agg.raw_bases += sk.raw_len;
            agg.sketch_bases += sk.sketch_len;
            sketches[*read_idx] = sk.hits.clone();
        }
    }

    // Pass 2: ownership exchange — each distinct (read, key) pair sends its
    // key to the owner rank `key % nranks` (one u64 word per pair).
    let send = per_rank
        .iter()
        .map(|block| block.iter().flat_map(|(_, sk)| sk.hits.iter().map(|hit| hit.key)).collect())
        .collect();
    let owner = |&key: &u64| (key % nranks as u64) as usize;
    let recv: Vec<Vec<u64>> = alltoallv_counted(send, owner, stats, CommPhase::SketchIndex, 1);

    // Owners count reads per key and apply the occurrence filter.
    let mut survivors: Vec<u64> = Vec::new();
    for keys in &recv {
        // BTreeMap, not HashMap: the dropped_rare/dropped_repetitive tallies
        // below iterate this map, so its order must be deterministic.
        let mut counts: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
        for &key in keys {
            *counts.entry(key).or_insert(0) += 1;
        }
        let mut owned: Vec<u64> = Vec::new();
        for (key, count) in counts {
            if count < cfg.min_reads {
                agg.dropped_rare += 1;
            } else if count > cfg.max_reads {
                agg.dropped_repetitive += 1;
            } else {
                owned.push(key);
            }
        }
        // Allgather of this owner's surviving keys (for the global sort).
        record_broadcast(stats, CommPhase::SketchIndex, owned.len() as u64, nranks);
        survivors.extend(owned);
    }

    // Global ID assignment: column = rank of the key in sorted order.
    survivors.sort_unstable();
    agg.columns = survivors.len() as u64;

    // Pass 3: every read becomes a finished row against the global column
    // map (a read's keys are distinct, so sorting by column is all it needs),
    // appended straight to its 2D blocks.
    let a = DistMat2D::from_sorted_rows(grid, reads.len(), survivors.len(), nranks, |read, row| {
        for hit in &sketches[read] {
            if let Ok(col) = survivors.binary_search(&hit.key) {
                row.push((col, KmerOccurrence { pos: hit.pos, forward: hit.forward }));
            }
        }
        row.sort_unstable_by_key(|&(col, _)| col);
    });
    agg.nnz = a.nnz() as u64;
    (a, agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_dist::with_threads;
    use dibella_seq::DatasetSpec;

    fn setup() -> (ReadSet, SketchConfig) {
        let ds = DatasetSpec::Tiny.generate(41);
        (ds.reads, SketchConfig::for_tests(13))
    }

    #[test]
    fn matrix_has_reads_rows_and_sorted_kminmer_columns() {
        let (reads, cfg) = setup();
        let stats = CommStats::new();
        let grid = ProcessGrid::square(4);
        let (a, info) = build_sketch_matrix(&reads, &cfg, grid, 4, &stats);
        assert_eq!(a.nrows(), reads.len());
        assert_eq!(a.ncols(), info.columns as usize);
        assert_eq!(a.nnz(), info.nnz as usize);
        assert!(a.nnz() > 0, "a 12x dataset must produce shared k-min-mers");
        assert!(info.achieved_density() > 0.0 && info.achieved_density() < 0.5);
        assert!(info.hpc_ratio() > 1.0, "simulated DNA has homopolymer runs");
    }

    #[test]
    fn construction_rank_count_does_not_change_the_matrix() {
        let (reads, cfg) = setup();
        let grid = ProcessGrid::square(4);
        let build = |ranks: usize| {
            let stats = CommStats::new();
            build_sketch_matrix(&reads, &cfg, grid, ranks, &stats).0.to_local_csr()
        };
        let one = build(1);
        assert_eq!(one, build(4));
        assert_eq!(one, build(7));
    }

    #[test]
    fn thread_count_does_not_change_the_matrix() {
        let (reads, cfg) = setup();
        let grid = ProcessGrid::square(4);
        let build = || {
            let stats = CommStats::new();
            build_sketch_matrix(&reads, &cfg, grid, 4, &stats).0.to_local_csr()
        };
        let t1 = with_threads(1, build);
        let t2 = with_threads(2, build);
        let t4 = with_threads(4, build);
        assert_eq!(t1, t2);
        assert_eq!(t1, t4);
    }

    #[test]
    fn exchange_is_accounted_under_sketch_index() {
        // Both collectives of the ownership pass at their exact volumes,
        // recomputed from the definitions.  The all-to-all moves one word per
        // off-rank (read, key) pair, in one message per non-empty off-rank
        // bucket; then every owner posts its allgather to the other P - 1
        // ranks, empty or not (the `record_broadcast` convention), so an owner
        // that skips the collective shows up in the message count.
        let (reads, cfg) = setup();
        for p in [1usize, 4, 9] {
            let stats = CommStats::new();
            let (_, info) = build_sketch_matrix(&reads, &cfg, ProcessGrid::square(4), p, &stats);
            let read_dist = BlockDist::new(reads.len(), p);
            let mut buckets = std::collections::BTreeSet::new();
            let mut pairs = 0u64;
            for read in 0..reads.len() {
                let src = read_dist.owner(read);
                for hit in sketch_read(reads.seq(read), &cfg).hits {
                    let dst = (hit.key % p as u64) as usize;
                    if dst != src {
                        pairs += 1;
                        buckets.insert((src, dst));
                    }
                }
            }
            let (ranks, peers) = (p as u64, p as u64 - 1);
            let phase = stats.snapshot().phase(CommPhase::SketchIndex);
            assert_eq!(phase.words, pairs + info.columns * peers, "words at P = {p}");
            assert_eq!(phase.messages, buckets.len() as u64 + ranks * peers, "messages at P = {p}");
        }
    }

    #[test]
    fn single_rank_construction_is_communication_free() {
        let (reads, cfg) = setup();
        let stats = CommStats::new();
        let grid = ProcessGrid::square(1);
        build_sketch_matrix(&reads, &cfg, grid, 1, &stats);
        let phase = stats.snapshot().phase(CommPhase::SketchIndex);
        assert_eq!(phase.words, 0, "self-traffic and a 1-rank broadcast are free");
        assert_eq!(phase.messages, 0);
    }

    #[test]
    fn singleton_kminmers_get_no_columns() {
        let (reads, mut cfg) = setup();
        cfg.min_reads = 2;
        let stats = CommStats::new();
        let grid = ProcessGrid::square(1);
        let (a, info) = build_sketch_matrix(&reads, &cfg, grid, 3, &stats);
        assert!(info.dropped_rare > 0, "some k-min-mers occur in only one read");
        // Every surviving column appears in at least two rows.
        let mut col_counts = vec![0u32; a.ncols()];
        for (_, col, _) in a.to_local_csr().iter() {
            col_counts[col as usize] += 1;
        }
        assert!(col_counts.iter().all(|&c| c >= cfg.min_reads));
    }

    #[test]
    fn sketch_matrix_is_much_smaller_than_the_exact_a() {
        let ds = DatasetSpec::Small.generate(42);
        let cfg = SketchConfig::for_tests(13);
        let sel = dibella_seq::KmerSelection { k: 13, min_count: 2, max_count: 100 };
        let table = dibella_seq::count_kmers_serial(&ds.reads, &sel);
        let grid = ProcessGrid::square(1);
        let exact = dibella_overlap::build_a_matrix(&ds.reads, &table, 13, grid, 1);
        let stats = CommStats::new();
        let (sketch, _) = build_sketch_matrix(&ds.reads, &cfg, grid, 1, &stats);
        assert!(
            sketch.nnz() * 3 < exact.nnz(),
            "sketch nnz {} must be well under exact nnz {}",
            sketch.nnz(),
            exact.nnz()
        );
    }
}
