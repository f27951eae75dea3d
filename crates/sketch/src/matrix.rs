//! The reads × k-min-mers occurrence matrix (the sketch-space `A`).
//!
//! Built as the exact `A` is (`dibella_overlap::build_a_matrix`), by the same
//! code, with the same [`KmerOccurrence`] entries and [`DistMat2D`] layout;
//! only the keys differ:
//!
//! 1. every construction rank sketches its block of reads and sends each
//!    distinct `(read, key)` pair to the owner `key % nranks`, accounted
//!    under [`CommPhase::SketchIndex`];
//! 2. owners keep the keys found in `[min_reads, max_reads]` reads
//!    ([`count_owned_keys`]; singletons cannot seed a candidate pair,
//!    frequent k-min-mers are repeats);
//! 3. the survivors are allgathered (one broadcast per owner) and numbered
//!    in ascending order ([`ColumnTable`]), so the matrix is bit-identical
//!    for any rank or thread count;
//! 4. every read becomes a row ([`fill_a_row`]).
//!
//! The result plugs straight into `detect_candidates_2d_with`: the
//! `OverlapSemiring` SUMMA (including the symmetric `A·Aᵀ` path) neither
//! knows nor cares that a column is a k-min-mer rather than a k-mer.

use crate::config::SketchConfig;
use crate::kminmer::{sketch_read, ReadSketch};
use dibella_dist::{
    alltoallv_counted, par_ranks, record_broadcast, wire, BlockDist, CommPhase, CommStats,
    ProcessGrid,
};
use dibella_overlap::{fill_a_row, KmerOccurrence};
use dibella_seq::kmer_counter::{count_owned_keys, ColumnTable};
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

    // Every rank sketches its block of reads (HPC + density selection +
    // k-min-mer construction, all read-local); blocks ascend, so the
    // sketches end up indexed by read.
    let sketches: Vec<ReadSketch> = par_ranks(nranks, |rank| {
        read_dist.range(rank).map(|read| sketch_read(reads.seq(read), cfg)).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();

    // Ownership exchange — each distinct (read, key) pair sends its key to
    // the owner rank `key % nranks` (one u64 word per pair).  A read's keys
    // are distinct, so an owner's count of a key is its number of reads.
    let send = (0..nranks)
        .map(|rank| {
            let block = &sketches[read_dist.range(rank)];
            block.iter().flat_map(|sk| sk.hits.iter().map(|hit| hit.key)).collect()
        })
        .collect();
    let owner = |&key: &u64| (key % nranks as u64) as usize;
    let recv = alltoallv_counted(send, owner, stats, CommPhase::SketchIndex, wire::ID);
    let owned = count_owned_keys(recv, cfg.min_reads..=cfg.max_reads);
    for keys in &owned {
        // Allgather of this owner's surviving keys (for the global order).
        record_broadcast(stats, CommPhase::SketchIndex, keys.len() as u64 * wire::ID, nranks);
    }
    let columns = ColumnTable::new(owned.concat());

    let a = DistMat2D::from_sorted_rows(grid, reads.len(), columns.len(), nranks, |read, row| {
        let hits = sketches[read].hits.iter();
        fill_a_row(hits.filter_map(|h| Some((columns.column_of(h.key)?, h.pos, h.forward))), row);
    });
    let mut agg = SketchStats {
        nnz: a.nnz() as u64,
        columns: columns.len() as u64,
        ..SketchStats::default()
    };
    for sk in &sketches {
        agg.total_kmers += sk.kmers;
        agg.minimizers += sk.minimizers;
        agg.raw_bases += sk.raw_len;
        agg.sketch_bases += sk.sketch_len;
    }
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

    /// `A` built the way the sketch path first built it, from the
    /// definitions: a `BTreeMap` count per owner `key % P`, the survivors
    /// sorted and numbered by `binary_search`, each row sorted by column.
    /// Returns `A`'s entries in row order, its column count and the
    /// `SketchIndex` words and messages of the two collectives.
    fn reference_build(
        reads: &ReadSet,
        cfg: &SketchConfig,
        p: usize,
    ) -> (Vec<(usize, usize, KmerOccurrence)>, usize, (u64, u64)) {
        let read_dist = BlockDist::new(reads.len(), p);
        let sketches: Vec<ReadSketch> =
            (0..reads.len()).map(|read| sketch_read(reads.seq(read), cfg)).collect();
        let send = (0..p)
            .map(|rank| {
                let block = &sketches[read_dist.range(rank)];
                block.iter().flat_map(|sk| sk.hits.iter().map(|hit| hit.key)).collect()
            })
            .collect();
        let stats = CommStats::new();
        let owner = |&key: &u64| (key % p as u64) as usize;
        let recv: Vec<Vec<u64>> = alltoallv_counted(send, owner, &stats, CommPhase::SketchIndex, 1);
        let mut survivors = Vec::new();
        for keys in &recv {
            let mut counts = std::collections::BTreeMap::new();
            for &key in keys {
                *counts.entry(key).or_insert(0u32) += 1;
            }
            let reliable = cfg.min_reads..=cfg.max_reads;
            let owned: Vec<u64> = counts
                .into_iter()
                .filter(|(_, n)| reliable.contains(n))
                .map(|(key, _)| key)
                .collect();
            record_broadcast(&stats, CommPhase::SketchIndex, owned.len() as u64, p);
            survivors.extend(owned);
        }
        survivors.sort_unstable();
        let mut entries = Vec::new();
        for (read, sk) in sketches.iter().enumerate() {
            let mut row: Vec<(usize, KmerOccurrence)> = sk
                .hits
                .iter()
                .filter_map(|hit| {
                    let col = survivors.binary_search(&hit.key).ok()?;
                    Some((col, KmerOccurrence { pos: hit.pos, forward: hit.forward }))
                })
                .collect();
            row.sort_unstable_by_key(|&(col, _)| col);
            entries.extend(row.into_iter().map(|(col, occ)| (read, col, occ)));
        }
        let phase = stats.snapshot().phase(CommPhase::SketchIndex);
        (entries, survivors.len(), (phase.words, phase.messages))
    }

    #[test]
    fn matrix_and_exchange_equal_the_reference_build() {
        let (reads, cfg) = setup();
        // A repeat threshold low enough that some keys are masked.
        let masking = SketchConfig { max_reads: 6, ..cfg };
        let all: Vec<u64> = (0..reads.len())
            .flat_map(|read| sketch_read(reads.seq(read), &masking).hits)
            .map(|hit| hit.key)
            .collect();
        let mut support = std::collections::BTreeMap::new();
        for key in all {
            *support.entry(key).or_insert(0u32) += 1;
        }
        assert!(support.values().any(|&n| n > masking.max_reads), "no key is masked");
        for cfg in [cfg, masking] {
            for p in [1usize, 2, 4, 9, 16] {
                let stats = CommStats::new();
                let grid = ProcessGrid::square(4);
                let (a, info) = build_sketch_matrix(&reads, &cfg, grid, p, &stats);
                let (entries, columns, exchange) = reference_build(&reads, &cfg, p);
                let local = a.to_local_csr();
                let got: Vec<_> = local.iter().map(|(read, col, &occ)| (read, col, occ)).collect();
                let ctx = format!("P = {p}, max_reads = {}", cfg.max_reads);
                assert!(got == entries, "A differs at {ctx}");
                assert_eq!((a.ncols(), info.columns), (columns, columns as u64), "{ctx}");
                assert_eq!(info.nnz, entries.len() as u64, "{ctx}");
                let phase = stats.snapshot().phase(CommPhase::SketchIndex);
                assert_eq!((phase.words, phase.messages), exchange, "{ctx}");
            }
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
        let distinct: std::collections::BTreeSet<u64> = (0..reads.len())
            .flat_map(|read| sketch_read(reads.seq(read), &cfg).hits)
            .map(|hit| hit.key)
            .collect();
        assert!(info.columns < distinct.len() as u64, "some k-min-mers occur in only one read");
        // Every surviving column appears in at least two rows.
        let mut col_counts = vec![0u32; a.ncols()];
        for (_, col, _) in a.to_local_csr().iter() {
            col_counts[col] += 1;
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
