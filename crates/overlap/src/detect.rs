//! diBELLA 2D overlap detection: `C = A·Aᵀ`, pairwise alignment, pruning.
//!
//! This module covers lines 4–8 of Algorithm 1: the candidate overlap matrix
//! is produced by Sparse SUMMA with the shared-k-mer semiring, every candidate
//! pair is aligned with the x-drop aligner seeded at a stored shared k-mer,
//! and pairs whose alignment is too weak — or which turn out to be contained
//! or purely internal matches — are pruned.  The surviving entries form the
//! overlap matrix `R`, annotated with the overhang length and bidirected
//! direction that transitive reduction needs.

use crate::semiring::OverlapSemiring;
use crate::types::{CommonKmers, KmerOccurrence, OverlapEdge};
use dibella_align::{
    align_seed_pair_with, classify_alignment, AlignScratch, AlignmentConfig, BidirectedDir,
    OrientCache, OverlapClass, PairAlignment,
};
use dibella_dist::{record_allreduce, BlockDist, CommPhase, CommStats, ProcessGrid};
use dibella_seq::{ReadSet, Strand};
use dibella_sparse::{summa, summa_aat_sym, DistMat2D, Triples};
use rayon::pool;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

/// Configuration of the overlap-detection stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlapConfig {
    /// k-mer (seed) length; the paper uses 17.
    pub k: usize,
    /// Compute `C = A·Aᵀ` with the symmetric SUMMA (`summa_aat_sym`): only
    /// the grid blocks on or above the diagonal are multiplied — half the
    /// useful flops and half the stage broadcasts.  The output is
    /// bit-identical either way; `false` runs the general `summa` on `A` and
    /// its blockwise transpose and drops the lower triangle, the reference
    /// the symmetric kernel is held to.
    pub use_symmetric_summa: bool,
    /// Alignment settings.
    pub alignment: AlignmentConfig,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        Self {
            k: 17,
            use_symmetric_summa: true,
            alignment: AlignmentConfig::default(),
        }
    }
}

impl OverlapConfig {
    /// Settings scaled down for the short synthetic reads used in tests.
    pub fn for_tests(k: usize) -> Self {
        Self { k, alignment: AlignmentConfig::for_tests(), ..Self::default() }
    }
}

/// Counters describing one overlap-detection run.
///
/// Every field is deterministic: independent of worker count, steal
/// schedule, grid and the host's lane word.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OverlapStats {
    /// Candidate pairs (upper triangle of `C`) examined.
    pub candidate_pairs: usize,
    /// Pairs actually aligned: they were not pruned and had a seed lying
    /// within both reads.
    pub aligned_pairs: usize,
    /// Pairs not aligned because both reads were already known to be
    /// contained; nothing such a pair could yield would reach `R`.
    pub pruned_pairs: usize,
    /// Pairs that produced a usable dovetail overlap.
    pub dovetail: usize,
    /// Pairs discarded because one read contains the other.
    pub contained: usize,
    /// Reads found to be contained in some other read; all their edges are
    /// dropped from `R` (they can be reintroduced after layout, Section II).
    pub contained_reads: usize,
    /// Pairs discarded as internal (repeat-induced) matches.
    pub internal: usize,
    /// Pairs discarded for a low alignment score or a short overlap.
    pub below_threshold: usize,
    /// `c` — average nonzeros per row of `C` (both triangles, Table III):
    /// `2 · candidate_pairs / n`.
    pub c_density: f64,
    /// `r` — average nonzeros per row of `R` (Table III).
    pub r_density: f64,
    /// DP cells evaluated (live-band widths summed over every extension row).
    pub aligned_cells: u64,
    /// Extension rows evaluated; `aligned_cells / dp_rows` is the mean band.
    pub dp_rows: u64,
    /// Widest adaptive band of any single extension row.
    pub band_width_peak: u64,
    /// Extensions stopped early by the x-drop test.
    pub xdrop_terminations: u64,
    /// x-drop extension calls (left + right for every seed actually extended;
    /// a pair whose first seed finds the overlap costs two).
    pub extend_calls: u64,
    /// Stored seeds of aligned pairs never extended because an earlier seed
    /// of the pair already gave a dovetail or a containment.
    pub seeds_skipped: u64,
}

/// Word cost of shipping one read of `len` bases (2-bit packed plus a header
/// word), used consistently by the read-exchange accounting and by the
/// analytic model it is compared against.
pub fn read_exchange_words(len: usize) -> u64 {
    (len as u64).div_ceil(32) + 1
}

/// Compute the candidate overlap matrix `C = A·Aᵀ` with Sparse SUMMA and
/// return its **strict upper triangle**: `C` is symmetric and every pair is
/// aligned once, and a read trivially shares all its k-mers with itself.
/// Grid blocks below the diagonal are empty.
///
/// With `use_symmetric_summa` (the [`OverlapConfig`] default), `summa_aat_sym`
/// multiplies only the upper triangle and only the diagonal is removed here;
/// otherwise the general `summa` multiplies `A` by its blockwise transpose,
/// computes both triangles and the lower one is dropped here as well.  Either
/// way every block of `A` is transposed locally and no word of it is
/// re-distributed, and the two kernels produce bit-identical candidate
/// matrices.
pub fn detect_candidates_2d_with(
    a: &DistMat2D<KmerOccurrence>,
    stats: &CommStats,
    use_symmetric_summa: bool,
) -> DistMat2D<CommonKmers> {
    let phase = CommPhase::OverlapDetection;
    // A k-mer occurrence travels as (column index, position+orientation): 2
    // words.
    if use_symmetric_summa {
        summa_aat_sym::<OverlapSemiring>(a, 2, stats, phase).filter(|r, col, _| r != col)
    } else {
        summa::<OverlapSemiring>(a, &a.transpose(), (2, 2), stats, phase).filter(|r, col, _| r < col)
    }
}

/// Account for the sequence exchange of the 2D algorithm (Section V-C).
///
/// Reads start in a 1D block distribution (parallel FASTA I/O); every grid
/// rank then needs the full range of reads of its block row and block column,
/// i.e. about `2n/√P` reads costing `~2nl/√P` words, fetched from at most
/// `√P`-ish source ranks.
pub fn account_read_exchange_2d(reads: &ReadSet, grid: ProcessGrid, stats: &CommStats) {
    let p = grid.nprocs();
    let init = BlockDist::new(reads.len(), p);
    let row_dist = BlockDist::new(reads.len(), grid.rows());
    let col_dist = BlockDist::new(reads.len(), grid.cols());
    for rank in grid.ranks() {
        let (bi, bj) = grid.coords(rank);
        let mut needed: BTreeSet<usize> = row_dist.range(bi).collect();
        needed.extend(col_dist.range(bj));
        let own = init.range(rank);
        let mut words = 0u64;
        let mut sources: BTreeSet<usize> = BTreeSet::new();
        for idx in needed {
            if own.contains(&idx) {
                continue;
            }
            words += read_exchange_words(reads.seq(idx).len());
            sources.insert(init.owner(idx));
        }
        stats.record(CommPhase::ReadExchange, words, sources.len() as u64);
    }
}

/// The classification outcome of one candidate pair's best alignment.
enum PairOutcome {
    /// No stored seed lies within both reads; nothing was aligned.
    Unalignable,
    BelowThreshold,
    Internal,
    /// `contained` is spanned entirely by the other read.
    Contained { contained: usize },
    Dovetail { edge_ij: OverlapEdge, edge_ji: OverlapEdge },
}

pub use dibella_dist::extras::{ALIGNED_CELLS_KEY, BAND_WIDTH_PEAK_KEY, XDROP_TERMINATIONS_KEY};

/// One worker's reusable state: alignment scratch, the oriented-read cache
/// and the counters they accumulate.  A job borrows one from a shared bench
/// and puts it back, so warm buffers and counts carry over from wave to wave
/// and there are never more states than concurrent workers.
#[derive(Default)]
struct WorkerState {
    scratch: AlignScratch,
    orient: OrientCache,
    seeds_skipped: u64,
}

/// Pairs per alignment wave.  Between waves the reads found contained so far
/// are folded into the set that prunes later pairs; 64 and 256 prune alike
/// (29.6% of the unpruned cells on the `clr-long` benchmark workload), 1 024
/// lets 40.1% through, and shorter waves only add barriers.
pub const WAVE_PAIRS: usize = 256;

/// Align every candidate pair, classify the alignments, and assemble the
/// pruned overlap matrix `R`.
///
/// Both `(i, j)` and `(j, i)` entries are produced for every surviving
/// overlap, with mirrored directions and overhangs, so that `R` can be used
/// directly as the (pattern-symmetric) overlap graph of Algorithm 2.  Reads
/// found to be contained in another read are removed from the graph entirely
/// (all their edges are dropped), matching the paper's treatment: "Contained
/// overlaps ... are discarded during transitive reduction regardless of their
/// alignment scores.  They may be reintroduced at later stages."
///
/// The returned [`OverlapStats`] carry the aligner's work counters as well;
/// `R` and every counter are bit-identical for every worker count and steal
/// schedule.  Given a `comm`, the per-wave all-reduce of the contained-read
/// bitmap is accounted on it, and three of those counters are copied into
/// its extras (`aligned_cells`, `band_width_peak`, `xdrop_terminations`).
pub fn align_candidates_with(
    reads: &ReadSet,
    candidates: &DistMat2D<CommonKmers>,
    config: &OverlapConfig,
    comm: Option<&CommStats>,
) -> (DistMat2D<OverlapEdge>, OverlapStats) {
    let (overlaps, stats, _) = align_in_waves(reads, candidates, config, WAVE_PAIRS, comm);
    (overlaps, stats)
}

/// The alignment stage: one job per candidate pair ([`align_pair`]), run in
/// waves of `wave_len` pairs over a length-ordered pair list.
///
/// The candidate pairs are sorted by (longer read's length ↓, shorter read's
/// length ↓, i, j) — a read is contained by a longer one, so containments
/// surface first — and cut into waves; order and wave boundaries depend on
/// the candidate list and the read lengths alone, never on workers, grid or
/// steal schedule.  After each wave the reads it found contained join
/// `contained_reads` (distributed: one bitwise-OR all-reduce of `⌈n/64⌉`
/// words, accounted on `comm`), and a pair whose reads were *both* contained
/// when its wave began is not aligned: its dovetail would be dropped from
/// `R`, its containment would flag a flagged read, anything else is
/// discarded.  `R` and the flags — the third value returned — are therefore
/// exactly those of `wave_len = usize::MAX`, which prunes nothing, and every
/// flagged read keeps the aligned pair that flagged it.  (Pruning on *either*
/// read is not exact: the pair may be the one that flags the other read.)
fn align_in_waves(
    reads: &ReadSet,
    candidates: &DistMat2D<CommonKmers>,
    config: &OverlapConfig,
    wave_len: usize,
    comm: Option<&CommStats>,
) -> (DistMat2D<OverlapEdge>, OverlapStats, Vec<bool>) {
    let mut stats = OverlapStats::default();
    let n = reads.len();

    // Work on the upper triangle only (all a caller need pass); every pair
    // is aligned at most once.
    let mut pairs: Vec<(usize, usize, &CommonKmers)> =
        candidates.iter().filter(|&(i, j, _)| i < j).collect();
    stats.candidate_pairs = pairs.len();
    stats.c_density = if n > 0 { 2.0 * pairs.len() as f64 / n as f64 } else { 0.0 };
    pairs.sort_unstable_by_key(|&(i, j, _)| {
        let (a, b) = (reads.seq(i).len(), reads.seq(j).len());
        (Reverse(a.max(b)), Reverse(a.min(b)), i, j)
    });

    let bench: Mutex<Vec<WorkerState>> = Mutex::new(Vec::new());
    #[expect(
        clippy::expect_used,
        reason = "a poisoned lock is another worker's panic, not an input error, and that \
                  panic is already unwinding the wave"
    )]
    let locked_bench = || bench.lock().expect("the bench is never held across a panic");
    let mut contained_reads = vec![false; n];
    let mut dovetails: Vec<(usize, usize, OverlapEdge, OverlapEdge)> = Vec::new();
    for wave in pairs.chunks(wave_len) {
        let live: Vec<&(usize, usize, &CommonKmers)> =
            wave.iter().filter(|&&(i, j, _)| !(contained_reads[i] && contained_reads[j])).collect();
        stats.pruned_pairs += wave.len() - live.len();
        let outcomes = pool::map_indexed(live.len(), |idx| {
            let idle = locked_bench().pop();
            let mut worker = idle.unwrap_or_default();
            let outcome = align_pair(&mut worker, reads, live[idx], config);
            locked_bench().push(worker);
            outcome
        });
        for (&&(i, j, _), outcome) in live.iter().zip(outcomes) {
            match outcome {
                PairOutcome::Unalignable => continue,
                PairOutcome::BelowThreshold => stats.below_threshold += 1,
                PairOutcome::Internal => stats.internal += 1,
                PairOutcome::Contained { contained } => {
                    stats.contained += 1;
                    contained_reads[contained] = true;
                }
                PairOutcome::Dovetail { edge_ij, edge_ji } => {
                    stats.dovetail += 1;
                    dovetails.push((i, j, edge_ij, edge_ji));
                }
            }
            stats.aligned_pairs += 1;
        }
        if let Some(comm) = comm {
            let words = n.div_ceil(64) as u64;
            record_allreduce(comm, CommPhase::OverlapDetection, words, candidates.grid().nprocs());
        }
    }
    stats.contained_reads = contained_reads.iter().filter(|&&b| b).count();

    // The bench is only ever locked around a pop or a push, so it cannot be
    // poisoned; either way every returned state's counts are intact.
    for worker in bench.into_inner().unwrap_or_else(PoisonError::into_inner) {
        let counters = worker.scratch.counters;
        stats.aligned_cells += counters.cells;
        stats.dp_rows += counters.rows;
        stats.band_width_peak = stats.band_width_peak.max(counters.band_peak);
        stats.xdrop_terminations += counters.terminations;
        stats.extend_calls += counters.calls;
        stats.seeds_skipped += worker.seeds_skipped;
    }
    if let Some(comm) = comm {
        comm.bump_extra(ALIGNED_CELLS_KEY, stats.aligned_cells);
        comm.max_extra(BAND_WIDTH_PEAK_KEY, stats.band_width_peak);
        comm.bump_extra(XDROP_TERMINATIONS_KEY, stats.xdrop_terminations);
    }

    // Emit the dovetails whose endpoints both survive.
    let mut edges: Vec<(usize, usize, OverlapEdge)> = Vec::new();
    for (i, j, edge_ij, edge_ji) in dovetails {
        if !contained_reads[i] && !contained_reads[j] {
            edges.push((i, j, edge_ij));
            edges.push((j, i, edge_ji));
        }
    }
    let triples = Triples::from_entries(n, n, edges);
    let overlaps = DistMat2D::from_triples(candidates.grid(), &triples);
    stats.r_density = if n > 0 { overlaps.nnz() as f64 / n as f64 } else { 0.0 };
    (overlaps, stats, contained_reads)
}

/// Align one candidate pair and classify its best alignment.
///
/// Seeds are extended in stored order and the first whose alignment is a
/// dovetail or a containment settles the pair; the seeds after it are counted
/// in `seeds_skipped`.  A seed that yields a weak or internal alignment — it
/// landed in a repeat copy, or on a chance k-mer match — hands over to the
/// next, which replaces it only on a strictly higher score, so ties keep the
/// earlier seed.
fn align_pair(
    worker: &mut WorkerState,
    reads: &ReadSet,
    &(i, j, common): &(usize, usize, &CommonKmers),
    config: &OverlapConfig,
) -> PairOutcome {
    let (v, h) = (reads.seq(i), reads.seq(j));
    let mut best: Option<(i32, PairOutcome)> = None;
    for (nth, seed) in common.seeds.iter().enumerate() {
        let (strand, seed_h) = if seed.same_strand {
            (Strand::Forward, seed.pos_h as usize)
        } else {
            (Strand::Reverse, h.len() - config.k - seed.pos_h as usize)
        };
        if seed.pos_v as usize + config.k > v.len() || seed_h + config.k > h.len() {
            continue;
        }
        // Orient h once per (pair, strand): forward pairs borrow the stored
        // codes, reverse pairs hit the per-worker cache.
        let h_codes: &[u8] = if seed.same_strand {
            h.codes()
        } else {
            worker.orient.reverse_complement(j, h.codes())
        };
        let aln = align_seed_pair_with(
            v.codes(),
            h_codes,
            seed.pos_v as usize,
            seed_h,
            config.k,
            strand,
            &config.alignment,
            &mut worker.scratch,
        );
        if best.as_ref().is_some_and(|&(score, _)| aln.score <= score) {
            continue;
        }
        let outcome = classify_pair(&aln, i, j, v.len(), h.len(), &config.alignment);
        if matches!(outcome, PairOutcome::Dovetail { .. } | PairOutcome::Contained { .. }) {
            worker.seeds_skipped += (common.seeds.len() - nth - 1) as u64;
            return outcome;
        }
        best = Some((aln.score, outcome));
    }
    best.map_or(PairOutcome::Unalignable, |(_, outcome)| outcome)
}

/// Threshold and classify one alignment of reads `i` (`v`) and `j` (`h`).
fn classify_pair(
    aln: &PairAlignment,
    i: usize,
    j: usize,
    len_v: usize,
    len_h: usize,
    config: &AlignmentConfig,
) -> PairOutcome {
    let aligned_len = aln.aligned_len();
    if aligned_len < config.min_overlap || aln.score < config.score_threshold(aligned_len) {
        return PairOutcome::BelowThreshold;
    }
    let edge = |dir: BidirectedDir, suffix: usize| OverlapEdge {
        dir: dir.bits(),
        suffix: suffix as u32,
        score: aln.score,
        overlap_len: aligned_len as u32,
    };
    match classify_alignment(aln, len_v, len_h, config) {
        OverlapClass::Dovetail { dir_vh, dir_hv, suffix_vh, suffix_hv } => PairOutcome::Dovetail {
            edge_ij: edge(dir_vh, suffix_vh),
            edge_ji: edge(dir_hv, suffix_hv),
        },
        OverlapClass::Contains => PairOutcome::Contained { contained: j },
        OverlapClass::ContainedBy => PairOutcome::Contained { contained: i },
        OverlapClass::Internal => PairOutcome::Internal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amatrix::build_a_matrix;
    use crate::types::{SeedList, SharedSeed};
    use dibella_seq::{count_kmers_serial, DatasetSpec, KmerSelection, KmerTable, SimulatedDataset};

    fn setup(seed: u64) -> (SimulatedDataset, KmerTable, OverlapConfig) {
        let ds = DatasetSpec::Tiny.generate(seed);
        let k = 13;
        let sel = KmerSelection { k, min_count: 2, max_count: 60 };
        let table = count_kmers_serial(&ds.reads, &sel);
        (ds, table, OverlapConfig::for_tests(k))
    }

    /// `C`, `R` and the counters of the whole 2D stage as the driver runs it:
    /// build `A`, account for the read exchange, multiply, align and prune.
    fn overlap_2d(
        ds: &SimulatedDataset,
        table: &KmerTable,
        cfg: &OverlapConfig,
        grid: ProcessGrid,
        comm: &CommStats,
    ) -> (DistMat2D<CommonKmers>, DistMat2D<OverlapEdge>, OverlapStats) {
        let a = build_a_matrix(&ds.reads, table, cfg.k, grid, grid.nprocs());
        account_read_exchange_2d(&ds.reads, grid, comm);
        let candidates = detect_candidates_2d_with(&a, comm, cfg.use_symmetric_summa);
        let (overlaps, stats) = align_candidates_with(&ds.reads, &candidates, cfg, Some(comm));
        (candidates, overlaps, stats)
    }

    #[test]
    fn candidate_matrix_is_reads_by_reads_without_diagonal() {
        let (ds, table, cfg) = setup(1);
        let grid = ProcessGrid::square(4);
        let comm = CommStats::new();
        let a = build_a_matrix(&ds.reads, &table, cfg.k, grid, 4);
        let c = detect_candidates_2d_with(&a, &comm, true);
        assert_eq!(c.nrows(), ds.reads.len());
        assert_eq!(c.ncols(), ds.reads.len());
        assert!(c.nnz() > 0, "a 12x-depth dataset must have candidate overlaps");
        for (i, j, _) in c.to_triples().iter() {
            assert_ne!(i, j, "diagonal must be removed");
        }
        assert!(comm.words(CommPhase::OverlapDetection) > 0);
    }

    #[test]
    fn candidate_matrix_pattern_is_symmetric() {
        // ... so only its strict upper triangle is stored.
        let (ds, table, cfg) = setup(2);
        let grid = ProcessGrid::square(1);
        let comm = CommStats::new();
        let a = build_a_matrix(&ds.reads, &table, cfg.k, grid, 2);
        let c = detect_candidates_2d_with(&a, &comm, true);
        let local = c.to_local_csr();
        assert!(local.nnz() > 0);
        for (i, j, _) in local.iter() {
            assert!(i < j, "C({i},{j}) is on or below the diagonal");
        }
    }

    #[test]
    fn overlap_matrix_entries_mirror_each_other() {
        let (ds, table, cfg) = setup(3);
        let grid = ProcessGrid::square(4);
        let comm = CommStats::new();
        let (_, overlaps, _) = overlap_2d(&ds, &table, &cfg, grid, &comm);
        assert!(overlaps.nnz() > 0, "expected some accepted overlaps");
        let local = overlaps.to_local_csr();
        for (i, j, edge) in local.iter() {
            let mirror = local.get(j, i).expect("mirrored entry must exist");
            assert_eq!(
                BidirectedDir(edge.dir).reversed(),
                BidirectedDir(mirror.dir),
                "directions of ({i},{j}) and ({j},{i}) must be reversals"
            );
            assert_eq!(edge.score, mirror.score);
            assert_eq!(edge.overlap_len, mirror.overlap_len);
        }
    }

    #[test]
    fn accepted_overlaps_correspond_to_true_genome_overlaps() {
        let (ds, table, cfg) = setup(4);
        let grid = ProcessGrid::square(1);
        let comm = CommStats::new();
        let (_, overlaps, _) = overlap_2d(&ds, &table, &cfg, grid, &comm);
        let truth = ds.true_pairs(cfg.alignment.min_overlap / 2);
        let found = overlaps.iter().filter(|&(i, j, _)| i < j).count();
        let true_pos = overlaps.iter().filter(|&(i, j, _)| truth.contains(&(i, j))).count();
        let false_pos = found - true_pos;
        assert!(true_pos > 0, "should recover genuine overlaps");
        assert!(
            false_pos <= true_pos / 5 + 2,
            "too many spurious overlaps: {false_pos} false vs {true_pos} true"
        );
    }

    #[test]
    fn grid_size_does_not_change_the_overlap_set() {
        let (ds, table, cfg) = setup(5);
        let comm1 = CommStats::new();
        let (_, r1, stats1) = overlap_2d(&ds, &table, &cfg, ProcessGrid::square(1), &comm1);
        let comm4 = CommStats::new();
        let (_, r4, stats4) = overlap_2d(&ds, &table, &cfg, ProcessGrid::square(4), &comm4);
        let comm9 = CommStats::new();
        let (_, r9, _) = overlap_2d(&ds, &table, &cfg, ProcessGrid::square(9), &comm9);
        assert_eq!(r1.to_local_csr(), r4.to_local_csr());
        assert_eq!(r1.to_local_csr(), r9.to_local_csr());
        assert_eq!(stats1, stats4);
        // Larger grids communicate, a single rank does not.
        assert_eq!(comm1.words(CommPhase::OverlapDetection), 0);
        assert!(comm4.words(CommPhase::OverlapDetection) > 0);
        assert_eq!(comm1.words(CommPhase::ReadExchange), 0);
        assert!(comm4.words(CommPhase::ReadExchange) > 0);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let (ds, table, cfg) = setup(6);
        let comm = CommStats::new();
        let (_, overlaps, s) = overlap_2d(&ds, &table, &cfg, ProcessGrid::square(4), &comm);
        assert_eq!(
            s.aligned_pairs,
            s.dovetail + s.contained + s.internal + s.below_threshold,
            "every aligned pair must be classified exactly once"
        );
        // The books close: a candidate pair is pruned or aligned.
        assert!(s.pruned_pairs > 0, "the pruning exit must be exercised");
        assert_eq!(s.aligned_pairs + s.pruned_pairs, s.candidate_pairs);
        assert!((s.r_density - overlaps.nnz() as f64 / ds.reads.len() as f64).abs() < 1e-9);
        // Every surviving overlap contributes two directed entries; dovetails
        // touching contained reads are dropped, so this is an upper bound.
        assert!(overlaps.nnz() <= 2 * s.dovetail);
        assert_eq!(overlaps.nnz() % 2, 0);
        // No edge may touch a contained read.
        if s.contained_reads > 0 {
            assert!(overlaps.nnz() < 2 * s.dovetail || s.dovetail == 0);
        }
    }

    #[test]
    fn symmetric_and_general_summa_are_bit_identical_on_real_occurrences() {
        let (ds, table, cfg) = setup(8);
        for p in [1usize, 4, 9, 16] {
            let grid = ProcessGrid::square(p);
            let a = build_a_matrix(&ds.reads, &table, cfg.k, grid, p);
            let comm_sym = CommStats::new();
            let sym = detect_candidates_2d_with(&a, &comm_sym, true);
            let comm_gen = CommStats::new();
            let general = detect_candidates_2d_with(&a, &comm_gen, false);
            assert_eq!(sym, general, "P={p}: candidate matrices must be bit-identical");
            // The symmetric path does about half the multiply work.
            let key = dibella_sparse::summa::flops_key(CommPhase::OverlapDetection);
            let (sf, gf) = (comm_sym.extra(&key), comm_gen.extra(&key));
            assert!(sf > 0 && sf < gf, "P={p}: sym flops {sf} vs general {gf}");
            assert!(2 * sf >= gf, "P={p}: upper triangle covers every product");
        }
    }

    #[test]
    fn both_block_kernels_agree_on_real_occurrences() {
        use dibella_sparse::spgemm::{
            aat_block_is_k_major, spgemm_aat_block, spgemm_stages, spgemm_stages_aat,
        };
        use dibella_sparse::summa::aat_block_stages;
        use dibella_sparse::FlopCounter;
        let (ds, table, cfg) = setup(8);
        let mut k_major = 0;
        for side in 1usize..=4 {
            let a = build_a_matrix(&ds.reads, &table, cfg.k, ProcessGrid::square(side * side), 1);
            let at = a.transpose();
            for (i, j) in (0..side).flat_map(|i| (i..side).map(move |j| (i, j))) {
                let stages = aat_block_stages(&a, &at, i, j);
                let pairs: Vec<_> = stages.iter().map(|st| (st.left, st.right_t)).collect();
                let (rows, cols) = (a.row_dist().size(i), a.row_dist().size(j));
                // The row-wise kernels, called by name ...
                let want_flops = FlopCounter::new();
                let want = if i == j {
                    spgemm_stages_aat::<OverlapSemiring>(rows, &pairs, &want_flops)
                } else {
                    spgemm_stages::<OverlapSemiring>(rows, cols, &pairs, &want_flops)
                };
                // ... against the block's own choice (k-major on all of
                // Tiny's blocks: ~20 shared k-mers per candidate pair).
                let flops = FlopCounter::new();
                let got = spgemm_aat_block::<OverlapSemiring>(rows, cols, &stages, i == j, &flops);
                assert_eq!(got, want, "block ({i}, {j}) of {side}x{side}");
                assert_eq!(
                    (flops.flops(), flops.probes(), flops.peak_row_width()),
                    (want_flops.flops(), want_flops.probes(), want_flops.peak_row_width()),
                    "block ({i}, {j}) of {side}x{side}"
                );
                k_major += usize::from(aat_block_is_k_major(rows, cols, &stages, i == j));
            }
        }
        assert!(k_major >= 10, "the comparison must reach the k-major kernel ({k_major} of 20 blocks)");
    }

    #[test]
    fn overlap_pipeline_output_is_independent_of_the_summa_kernel() {
        let (ds, table, cfg) = setup(10);
        let general_cfg = OverlapConfig { use_symmetric_summa: false, ..cfg };
        let comm_sym = CommStats::new();
        let (_, r_sym, stats_sym) =
            overlap_2d(&ds, &table, &cfg, ProcessGrid::square(4), &comm_sym);
        let comm_gen = CommStats::new();
        let (_, r_gen, stats_gen) =
            overlap_2d(&ds, &table, &general_cfg, ProcessGrid::square(4), &comm_gen);
        assert_eq!(r_sym.to_local_csr(), r_gen.to_local_csr());
        assert_eq!(stats_sym, stats_gen);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        #[test]
        fn prop_symmetric_summa_matches_general_over_the_overlap_semiring(
            coords in proptest::collection::btree_set((0usize..24, 0usize..20), 1..120),
            grid_side in 1usize..5,
        ) {
            use dibella_sparse::Triples;
            // Random occurrence matrix: position and strand vary per entry.
            let entries: Vec<(usize, usize, KmerOccurrence)> = coords
                .into_iter()
                .enumerate()
                .map(|(i, (r, c))| {
                    (r, c, KmerOccurrence { pos: (i * 13 % 251) as u32, forward: i % 3 != 0 })
                })
                .collect();
            let t = Triples::from_entries(24, 20, entries);
            let grid = ProcessGrid::square(grid_side * grid_side);
            let a = DistMat2D::from_triples(grid, &t);
            let sym = detect_candidates_2d_with(&a, &CommStats::new(), true);
            let general = detect_candidates_2d_with(&a, &CommStats::new(), false);
            proptest::prop_assert_eq!(sym, general);
        }
    }

    #[test]
    fn alignment_is_bit_identical_across_thread_counts() {
        let (ds, table, cfg) = setup(11);
        let grid = ProcessGrid::square(4);
        let a = build_a_matrix(&ds.reads, &table, cfg.k, grid, 4);
        let candidates = detect_candidates_2d_with(&a, &CommStats::new(), true);

        let (r1, stats1) = rayon::pool::with_thread_limit(1, || {
            align_candidates_with(&ds.reads, &candidates, &cfg, None)
        });
        assert!(stats1.aligned_cells > 0 && stats1.extend_calls > 0);
        assert!(stats1.pruned_pairs > 0 && stats1.seeds_skipped > 0);
        for threads in [2usize, 4] {
            let (r, stats) = rayon::pool::with_thread_limit(threads, || {
                align_candidates_with(&ds.reads, &candidates, &cfg, None)
            });
            assert_eq!(r.to_local_csr(), r1.to_local_csr(), "threads={threads}: R moved");
            // Every counter, the aligner's work counts included.
            assert_eq!(stats, stats1, "threads={threads}");
        }
    }

    /// Align the single pair (read 0, read 1) carrying `seeds`, on one worker.
    fn align_one_pair(
        reads: &ReadSet,
        seeds: &[SharedSeed],
        cfg: &OverlapConfig,
    ) -> (DistMat2D<OverlapEdge>, OverlapStats) {
        let t = Triples::from_entries(2, 2, vec![(0usize, 1usize, common_kmers(seeds))]);
        let candidates = DistMat2D::from_triples(ProcessGrid::square(1), &t);
        rayon::pool::with_thread_limit(1, || align_candidates_with(reads, &candidates, cfg, None))
    }

    fn common_kmers(seeds: &[SharedSeed]) -> CommonKmers {
        let mut list = SeedList::default();
        seeds.iter().for_each(|&seed| list.push(seed));
        CommonKmers { count: seeds.len() as u32, seeds: list }
    }

    fn two_reads(v: Vec<u8>, h: Vec<u8>) -> ReadSet {
        use dibella_seq::{DnaSeq, ReadRecord};
        ReadSet::from_records(vec![
            ReadRecord { name: "v".into(), seq: DnaSeq::from_codes(v) },
            ReadRecord { name: "h".into(), seq: DnaSeq::from_codes(h) },
        ])
    }

    /// `len` pseudo-random bases drawn from `alphabet`.
    fn lcg_bases(state: &mut u64, len: usize, alphabet: &[u8]) -> Vec<u8> {
        let mut draw = |_| {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            alphabet[(*state >> 33) as usize % alphabet.len()]
        };
        (0..len).map(&mut draw).collect()
    }

    /// Reads `v = Va·REP·Vb·OVL` and `h = OVL·Hb·REP·Hc`: a true dovetail over
    /// `OVL` plus a repeat copy `REP` in the interior of both.  The 100-base
    /// flanks of `v` are drawn from {A, C} and those of `h` from {G, T}, so no
    /// extension gains a base outside a shared segment and a seed's alignment
    /// scores exactly its segment's length.  Returns the reads, a seed inside
    /// `REP`, one inside `OVL`, and a junk seed pairing two flanks.
    fn repeat_and_overlap(rep: usize, ovl: usize) -> (ReadSet, [SharedSeed; 3]) {
        let mut state = 0xC0FFEEu64;
        let rep_seq = lcg_bases(&mut state, rep, &[0, 1, 2, 3]);
        let ovl_seq = lcg_bases(&mut state, ovl, &[0, 1, 2, 3]);
        let mut v = lcg_bases(&mut state, 100, &[0, 1]);
        v.extend(&rep_seq);
        v.extend(lcg_bases(&mut state, 100, &[0, 1]));
        v.extend(&ovl_seq);
        let mut h = ovl_seq;
        h.extend(lcg_bases(&mut state, 100, &[2, 3]));
        h.extend(&rep_seq);
        h.extend(lcg_bases(&mut state, 100, &[2, 3]));
        let seed = |pos_v: usize, pos_h: usize| SharedSeed {
            pos_v: pos_v as u32,
            pos_h: pos_h as u32,
            same_strand: true,
        };
        let seeds =
            [seed(100 + 40, ovl + 100 + 40), seed(200 + rep + 50, 50), seed(20, ovl + 20)];
        (two_reads(v, h), seeds)
    }

    #[test]
    fn a_good_first_seed_settles_the_pair_in_two_extensions() {
        let (reads, [rep_seed, ovl_seed, _]) = repeat_and_overlap(100, 150);
        let cfg = OverlapConfig::for_tests(13);
        let (r, stats) = align_one_pair(&reads, &[ovl_seed, rep_seed], &cfg);
        assert_eq!((stats.aligned_pairs, stats.dovetail), (1, 1));
        assert_eq!((stats.extend_calls, stats.seeds_skipped), (2, 1));
        // Exactly what that seed yields on its own.
        let (alone, alone_stats) = align_one_pair(&reads, &[ovl_seed], &cfg);
        assert_eq!((alone_stats.extend_calls, alone_stats.seeds_skipped), (2, 0));
        assert_eq!(r.nnz(), 2);
        assert_eq!(r.to_local_csr(), alone.to_local_csr());
        let edge = *r.to_local_csr().get(0, 1).expect("the dovetail v → h");
        assert_eq!((edge.score, edge.overlap_len), (150, 150));
    }

    #[test]
    fn a_first_seed_that_finds_no_overlap_hands_over_to_the_second() {
        let (reads, [rep_seed, ovl_seed, junk_seed]) = repeat_and_overlap(100, 150);
        let cfg = OverlapConfig::for_tests(13);
        let (alone, _) = align_one_pair(&reads, &[ovl_seed], &cfg);
        // On their own the two bad seeds classify as internal and as too weak.
        assert_eq!(align_one_pair(&reads, &[rep_seed], &cfg).1.internal, 1);
        assert_eq!(align_one_pair(&reads, &[junk_seed], &cfg).1.below_threshold, 1);
        for first in [rep_seed, junk_seed] {
            let (r, stats) = align_one_pair(&reads, &[first, ovl_seed], &cfg);
            assert_eq!((stats.aligned_pairs, stats.dovetail), (1, 1), "first seed {first:?}");
            assert_eq!((stats.extend_calls, stats.seeds_skipped), (4, 0));
            assert_eq!(r.to_local_csr(), alone.to_local_csr());
        }
    }

    #[test]
    fn a_later_seed_replaces_the_best_only_on_a_strictly_higher_score() {
        let cfg = OverlapConfig::for_tests(13);
        // Repeat copy and overlap of equal length score alike: the earlier
        // seed's internal match stands although the later one is a dovetail.
        let (reads, [rep_seed, ovl_seed, _]) = repeat_and_overlap(120, 120);
        let (r, stats) = align_one_pair(&reads, &[rep_seed, ovl_seed], &cfg);
        assert_eq!((stats.aligned_pairs, stats.internal, stats.dovetail), (1, 1, 0));
        assert_eq!(stats.extend_calls, 4);
        assert_eq!(r.nnz(), 0);
        // Stored the other way round, the dovetail comes first and settles it.
        let (r, stats) = align_one_pair(&reads, &[ovl_seed, rep_seed], &cfg);
        assert_eq!((stats.dovetail, stats.extend_calls, r.nnz()), (1, 2, 2));
        // One base more on the overlap and the later seed wins.
        let (reads, [rep_seed, ovl_seed, _]) = repeat_and_overlap(120, 121);
        let (r, stats) = align_one_pair(&reads, &[rep_seed, ovl_seed], &cfg);
        assert_eq!((stats.internal, stats.dovetail, r.nnz()), (0, 1, 2));
    }

    #[test]
    fn reverse_orientation_cost_is_per_pair_not_per_seed() {
        // One reverse-strand pair whose first seed is junk, so both stored
        // seeds are extended: the oriented-read cache must materialise exactly
        // one reverse complement however many seeds the pair goes through.
        let genome = lcg_bases(&mut 0xDEADBEEFu64, 400, &[0, 1, 2, 3]);
        let h_forward = dibella_seq::DnaSeq::from_codes(genome[100..400].to_vec());
        let reads =
            two_reads(genome[..300].to_vec(), h_forward.reverse_complement().codes().to_vec());
        let k = 13;
        let cfg = OverlapConfig::for_tests(k);

        // pos_h is on h's stored strand: h_oriented[seed_h..] with
        // seed_h = h.len() - k - pos_h must equal v[pos_v..pos_v+k], and
        // h_oriented = rc(h) = genome[100..400].
        let true_seed =
            SharedSeed { pos_v: 220, pos_h: (300 - k) as u32 - 120, same_strand: false };
        let junk_seed = SharedSeed { pos_v: 5, pos_h: 5, same_strand: false };
        assert_eq!(align_one_pair(&reads, &[junk_seed], &cfg).1.below_threshold, 1);

        // One worker aligns the pair, as a pool job would.
        let mut worker = WorkerState::default();
        let common = common_kmers(&[junk_seed, true_seed]);
        let outcome = align_pair(&mut worker, &reads, &(0, 1, &common), &cfg);
        assert!(matches!(outcome, PairOutcome::Dovetail { .. }));
        assert_eq!(worker.scratch.counters.calls, 4, "two seeds, each with left+right extension");
        assert_eq!(
            worker.orient.rc_computed, 1,
            "one reverse pair: exactly one reverse complement regardless of seed count"
        );
    }

    /// `R`, the contained flags and the stage counters at one wave length.
    fn run_waves(
        reads: &ReadSet,
        candidates: &DistMat2D<CommonKmers>,
        cfg: &OverlapConfig,
        wave_len: usize,
    ) -> (dibella_sparse::CsrMatrix<OverlapEdge>, Vec<bool>, OverlapStats) {
        let (r, stats, contained) = align_in_waves(reads, candidates, cfg, wave_len, None);
        assert_eq!(stats.contained_reads, contained.iter().filter(|&&c| c).count());
        (r.to_local_csr(), contained, stats)
    }

    /// Pruning must be invisible in the output: every wave length gives the
    /// `R` and the contained set of one single wave, which prunes nothing.
    /// Returns how many pairs wave length 1 pruned.
    fn assert_pruning_is_exact(reads: &ReadSet, k: usize) -> usize {
        let sel = KmerSelection { k, min_count: 2, max_count: 60 };
        let table = count_kmers_serial(reads, &sel);
        let cfg = OverlapConfig::for_tests(k);
        let a = build_a_matrix(reads, &table, k, ProcessGrid::square(4), 4);
        let candidates = detect_candidates_2d_with(&a, &CommStats::new(), true);
        let (r, contained, unpruned) = run_waves(reads, &candidates, &cfg, usize::MAX);
        assert_eq!(unpruned.pruned_pairs, 0, "a single wave starts with nothing contained");
        let mut pruned_by_one = 0;
        for wave_len in [1usize, 7, WAVE_PAIRS] {
            let (r_w, contained_w, stats) = run_waves(reads, &candidates, &cfg, wave_len);
            assert_eq!(r_w, r, "wave length {wave_len}: R moved");
            assert_eq!(contained_w, contained, "wave length {wave_len}: contained set moved");
            assert_eq!(stats.aligned_pairs + stats.pruned_pairs, unpruned.aligned_pairs);
            if wave_len == 1 {
                pruned_by_one = stats.pruned_pairs;
            }
        }
        pruned_by_one
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        #[test]
        fn prop_pruning_is_exact_under_heavy_containment(seed in 0u64..10_000) {
            use dibella_seq::simulate::{generate_genome, simulate_reads, GenomeConfig, ReadSimConfig};
            // Lengths from 100 to ~1 000 on a 1.5 kb genome: most reads lie
            // inside a longer one.
            let genome = generate_genome(&GenomeConfig {
                length: 1_500,
                repeat_fraction: 0.0,
                repeat_length: 0,
                seed,
            });
            let sim = ReadSimConfig {
                depth: 14.0,
                mean_read_length: 450,
                min_read_length: 100,
                read_length_sd: 250,
                error_rate: 0.02,
                seed: seed + 1,
                ..ReadSimConfig::default()
            };
            let (reads, _) = simulate_reads(&genome, &sim);
            let pruned = assert_pruning_is_exact(&reads, 13);
            proptest::prop_assert!(pruned > 0, "seed {}: nothing was pruned", seed);
        }

        #[test]
        fn prop_pruning_is_exact_on_tiny_datasets(seed in 0u64..10_000) {
            assert_pruning_is_exact(&DatasetSpec::Tiny.generate(seed).reads, 13);
        }
    }

    #[test]
    fn each_wave_costs_one_allreduce_of_the_contained_bitmap() {
        let (ds, table, cfg) = setup(13);
        let grid = ProcessGrid::square(4);
        let a = build_a_matrix(&ds.reads, &table, cfg.k, grid, 4);
        let candidates = detect_candidates_2d_with(&a, &CommStats::new(), true);
        let bitmap_words = ds.reads.len().div_ceil(64) as u64;
        for wave_len in [7usize, WAVE_PAIRS] {
            let comm = CommStats::new();
            let (_, stats, _) =
                align_in_waves(&ds.reads, &candidates, &cfg, wave_len, Some(&comm));
            // A reduce and a broadcast over the 4 ranks, once per wave.
            let waves = (stats.aligned_pairs + stats.pruned_pairs).div_ceil(wave_len) as u64;
            assert!(waves >= 1);
            assert_eq!(comm.words(CommPhase::OverlapDetection), waves * 2 * bitmap_words * 3);
            assert_eq!(comm.messages(CommPhase::OverlapDetection), waves * 2 * 3);
        }
    }

    #[test]
    fn comm_extras_carry_alignment_counters() {
        let (ds, table, cfg) = setup(12);
        let comm = CommStats::new();
        let (_, _, stats) = overlap_2d(&ds, &table, &cfg, ProcessGrid::square(4), &comm);
        assert!(stats.aligned_pairs > 0);
        assert!(stats.aligned_cells > 0 && stats.band_width_peak > 0);
        // The extras repeat the typed counters.
        assert_eq!(comm.extra(ALIGNED_CELLS_KEY), stats.aligned_cells);
        assert_eq!(comm.extra(BAND_WIDTH_PEAK_KEY), stats.band_width_peak);
        assert_eq!(comm.extra(XDROP_TERMINATIONS_KEY), stats.xdrop_terminations);
    }

    #[test]
    fn read_exchange_words_grow_with_grid_and_stay_zero_on_one_rank() {
        let (ds, _, _) = setup(7);
        let one = CommStats::new();
        account_read_exchange_2d(&ds.reads, ProcessGrid::square(1), &one);
        assert_eq!(one.words(CommPhase::ReadExchange), 0);
        let four = CommStats::new();
        account_read_exchange_2d(&ds.reads, ProcessGrid::square(4), &four);
        let nine = CommStats::new();
        account_read_exchange_2d(&ds.reads, ProcessGrid::square(9), &nine);
        assert!(four.words(CommPhase::ReadExchange) > 0);
        // Aggregate exchanged volume grows with the grid (per-rank volume shrinks).
        assert!(nine.words(CommPhase::ReadExchange) > four.words(CommPhase::ReadExchange));
        assert!(nine.words(CommPhase::ReadExchange) / 9 < four.words(CommPhase::ReadExchange) / 4);
    }
}
