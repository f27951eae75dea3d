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
//!     I ← M ≥ N                   (on R's pattern, with rules (b), (c))
//!     R ← R ∘ ¬I ∘ ¬Iᵀ            (remove the transitive edges, both ways)
//!   while nnz ≠ prev
//!   return R as S
//! ```
//!
//! The loop repeats because removing a transitive edge can expose longer
//! chains ("we need to consider neighbors that are three, four, etc. hops
//! away"); the iteration count is a small constant in practice and the
//! geometrically shrinking density makes the total communication essentially
//! that of the first squaring (Section V-D).
//!
//! **`N` is never materialised.**  Algorithm 2 reads `N` only through
//! `I ← M ≥ N` on `R`'s pattern, so each rank `(i, j)` computes its block of
//! `I` in one masked, fused pass (masked SpGEMM; Milaković, Selvitopi, Nisa,
//! Budimlić and Buluç, PPoPP 2022).  For each local row of `R_{i,j}` it
//! stamps the row's columns, walks the `√P` SUMMA stages `R_{i,k}·R_{k,j}`,
//! and folds a valid walk `i → k → j` only when `j` is stamped and the walk's
//! implied direction is the direct edge's — the one of Algorithm 3's four
//! per-direction minima that `I` reads.  It then emits `(i, j, e)` into `I`
//! iff the row bound reaches that minimum.  Suffix sums saturate and `u32::MAX`
//! means "no walk", as in [`TrMinPlus`], which stays the semiring of record:
//! `summa::<TrMinPlus>` followed by the element-wise test is the oracle the
//! pass is held to, entry for entry, in this module's tests.
//!
//! **Packed operand.**  At the top of a round every block of `R` becomes one
//! `u64` per entry, in the block's CSR order: the block-local column in bits
//! 34..64, the two direction bits in 32..34 and the full 32-bit suffix in
//! 0..32 — 8 bytes per entry, where the block holds 8 for the column and 16
//! for the [`OverlapEdge`].  A block wider than 2³⁰ columns fails an
//! assertion; no column is ever truncated.
//!
//! **Counts.**  The pass charges the stage broadcasts through
//! [`record_stage_broadcasts`], the code `summa` charges them with, so Table
//! I's words and messages are those of the squaring.  The flops extra
//! (`sparse.tr_spgemm.flops` in the benchmark) is 2 × the products of `R·R`
//! that pass `ISDIROK`, stamped or not — what `summa::<TrMinPlus>` counts.
//! The probes extra counts one stamp inspection per such product, and the
//! [`FlopCounter`]'s peak row width is the widest row of `R_{i,j}`, the minima
//! a row holds.
//!
//! [`TrMinPlus`]: crate::trsemiring::TrMinPlus

use dibella_align::BidirectedDir;
use dibella_dist::{par_ranks, CommPhase, CommStats};
use dibella_overlap::OverlapEdge;
use dibella_sparse::summa::{record_arithmetic, record_stage_broadcasts};
use dibella_sparse::{CsrMatrix, DistMat2D, FlopCounter};
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
}

/// Run Algorithm 2 on the overlap matrix `R`, recording the squaring traffic
/// and the transpose of `I` under [`CommPhase::TransitiveReduction`].
pub fn transitive_reduction(
    r: &DistMat2D<OverlapEdge>,
    config: &TransitiveReductionConfig,
    comm: &CommStats,
) -> TrOutcome {
    let mut r = r.clone();
    let mut iterations = 0usize;
    let mut removed = 0usize;

    loop {
        let prev = r.nnz();
        if prev == 0 || iterations >= config.max_iterations {
            break;
        }
        iterations += 1;

        // N ← R², v ← R.Reduce(Row, max) + x and I ← M ≥ N, in one pass.
        let transitive = transitive_mask(&r, config.fuzz, comm);

        // R ← R ∘ ¬I ∘ ¬Iᵀ.  The reverse walk of a transitive (i, j) exists
        // with mirrored directions, but its suffix sums are measured from the
        // other end and can straddle the fuzz bound, so I is not symmetric;
        // removing Iᵀ too keeps R pattern-symmetric.  The transpose sends
        // every non-empty off-diagonal block of I to its mirror rank in one
        // message of two words (row, column) per entry — only the pattern
        // travels, the mirror rank holds the values in R; diagonal blocks
        // stay local.
        let grid = transitive.grid();
        let (words, messages) = (grid.ranks().map(|rank| grid.coords(rank)))
            .filter(|(bi, bj)| bi != bj)
            .map(|(bi, bj)| transitive.block_nnz(bi, bj) as u64)
            .filter(|&nnz| nnz > 0)
            .fold((0, 0), |(words, messages), nnz| (words + 2 * nnz, messages + 1));
        comm.record(CommPhase::TransitiveReduction, words, messages);
        let transposed = transitive.transpose();
        let reduced =
            r.filter(|i, j, _| transitive.get(i, j).is_none() && transposed.get(i, j).is_none());
        removed += prev - reduced.nnz();
        let converged = reduced.nnz() == prev;
        r = reduced;
        if converged {
            break;
        }
    }
    TrOutcome { string_matrix: r, iterations, removed_edges: removed }
}

/// `v ← R.Reduce(Row, max)` then `v ← v + x`: each row's bound, `None` for
/// an empty row.
fn row_bounds(r: &DistMat2D<OverlapEdge>, fuzz: u32) -> Vec<Option<u32>> {
    r.reduce_rows(|_, _, e| e.suffix, u32::max)
        .into_iter()
        .map(|m| m.map(|v| v.saturating_add(fuzz)))
        .collect()
}

/// Lowest bit of the block-local column in a packed entry; below it sit the
/// two direction bits (32..34) and the suffix (0..32).
const COL_SHIFT: u32 = 34;

/// The most columns a block may have for its local column to fit a packed
/// entry.
const PACKED_COLS: usize = 1 << (u64::BITS - COL_SHIFT);

/// One block of `R` as packed entries (see the module docs), in CSR order.
///
/// # Panics
/// Panics if the block has more than [`PACKED_COLS`] columns.
fn pack(block: &CsrMatrix<OverlapEdge>) -> Vec<u64> {
    assert!(
        block.ncols() <= PACKED_COLS,
        "a block of {} columns is wider than a packed entry holds ({PACKED_COLS})",
        block.ncols()
    );
    let entries = block.colidx().iter().zip(block.values());
    entries
        .map(|(&col, e)| {
            debug_assert!(e.dir < 4, "a direction has two bits");
            (col as u64) << COL_SHIFT | u64::from(e.dir) << 32 | u64::from(e.suffix)
        })
        .collect()
}

fn packed_col(entry: u64) -> usize {
    (entry >> COL_SHIFT) as usize
}

fn packed_dir(entry: u64) -> BidirectedDir {
    BidirectedDir((entry >> 32) as u8 & 3)
}

fn packed_suffix(entry: u64) -> u32 {
    entry as u32
}

/// A block of `R` as the masked pass reads it: the block's row pointers
/// over its packed entries.
#[derive(Clone, Copy)]
struct PackedBlock<'a> {
    rowptr: &'a [usize],
    entries: &'a [u64],
}

impl PackedBlock<'_> {
    fn row(&self, r: usize) -> &[u64] {
        &self.entries[self.rowptr[r]..self.rowptr[r + 1]]
    }
}

/// One round's `I`, the entries of `R` that a two-hop walk makes transitive,
/// from one masked, fused pass per rank; charges the squaring's stage
/// broadcasts and flops under [`CommPhase::TransitiveReduction`].
fn transitive_mask(
    r: &DistMat2D<OverlapEdge>,
    fuzz: u32,
    comm: &CommStats,
) -> DistMat2D<OverlapEdge> {
    let phase = CommPhase::TransitiveReduction;
    let grid = r.grid();
    assert!(grid.is_square(), "the masked pass walks a square grid's SUMMA stages");
    // Wire size of an entry of R: value and column index, as `summa` charges it.
    record_stage_broadcasts(r, r, (2, 2), comm, phase);

    let bounds = row_bounds(r, fuzz);
    let packed: Vec<Vec<u64>> = par_ranks(grid.nprocs(), |rank| pack(&r.blocks()[rank]));
    let block = |rank: usize| PackedBlock {
        rowptr: r.blocks()[rank].rowptr(),
        entries: &packed[rank],
    };
    let flops = FlopCounter::new();
    let blocks = par_ranks(grid.nprocs(), |rank| {
        let (i, j) = grid.coords(rank);
        let stages: Vec<(PackedBlock<'_>, PackedBlock<'_>)> = (0..grid.cols())
            .map(|k| (block(grid.rank_of(i, k)), block(grid.rank_of(k, j))))
            .filter(|(left, right)| !left.entries.is_empty() && !right.entries.is_empty())
            .collect();
        let bounds = &bounds[r.row_dist().range(i)];
        masked_block(r.block(i, j), &packed[rank], &stages, bounds, &flops)
    });
    record_arithmetic(comm, phase, &flops);
    DistMat2D::from_blocks(grid, r.nrows(), r.ncols(), blocks)
}

/// One rank's block of `I`: `mask` is `R_{i,j}` and `packed` its packed
/// entries, `stages` the pairs `(R_{i,k}, R_{k,j})` with both operands
/// non-empty, and `bounds` the row bounds of grid row `i`.
fn masked_block(
    mask: &CsrMatrix<OverlapEdge>,
    packed: &[u64],
    stages: &[(PackedBlock<'_>, PackedBlock<'_>)],
    bounds: &[Option<u32>],
    flops: &FlopCounter,
) -> CsrMatrix<OverlapEdge> {
    // slot[c] is 1 + the position of column c in the current mask row, or 0
    // when c is not in it; best[p] is the shortest walk found to it so far.
    let mut slot = vec![0u32; mask.ncols()];
    let mut best = Vec::new();
    let mut rowptr = Vec::with_capacity(mask.nrows() + 1);
    rowptr.push(0);
    let (mut colidx, mut vals) = (Vec::new(), Vec::new());
    let (mut products, mut widest) = (0u64, 0u64);
    for (row, &bound) in bounds.iter().enumerate() {
        let span = mask.rowptr()[row]..mask.rowptr()[row + 1];
        let mask_row = &packed[span.clone()];
        for (pos, &entry) in (1..).zip(mask_row) {
            slot[packed_col(entry)] = pos;
        }
        best.clear();
        best.resize(mask_row.len(), u32::MAX);
        for (left, right) in stages {
            for &ik in left.row(row) {
                let (d1, s1) = (packed_dir(ik), packed_suffix(ik));
                for &kj in right.row(packed_col(ik)) {
                    let d2 = packed_dir(kj);
                    // ISDIROK: the walk must traverse the middle read consistently.
                    if !d1.chains_with(d2) {
                        continue;
                    }
                    products += 1;
                    let pos = slot[packed_col(kj)] as usize;
                    if pos != 0 && d1.compose(d2) == packed_dir(mask_row[pos - 1]) {
                        let sum = s1.saturating_add(packed_suffix(kj));
                        best[pos - 1] = best[pos - 1].min(sum);
                    }
                }
            }
        }
        // I ← M ≥ N on this row, and the stamps cleared for the next one.
        for ((&entry, &walk), edge) in mask_row.iter().zip(&best).zip(&mask.values()[span]) {
            slot[packed_col(entry)] = 0;
            if walk != u32::MAX && bound.is_some_and(|bound| bound >= walk) {
                colidx.push(packed_col(entry));
                vals.push(*edge);
            }
        }
        rowptr.push(colidx.len());
        widest = widest.max(mask_row.len() as u64);
    }
    flops.record_row(products, widest);
    CsrMatrix::from_raw(mask.nrows(), mask.ncols(), rowptr, colidx, vals)
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
    use crate::sora::sora_transitive_reduction;
    use crate::trsemiring::{TrMinPlus, TwoHop};
    use dibella_dist::{with_threads, ProcessGrid};
    use dibella_sparse::summa::flops_key;
    use dibella_sparse::{summa, Triples};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Algorithm 2's `I` as the paper computes it, the oracle of the masked
    /// pass: all of `N = R²` through `summa::<TrMinPlus>`, then `M ≥ N`
    /// looked up entry by entry on `R`'s pattern.
    fn oracle_mask(
        r: &DistMat2D<OverlapEdge>,
        fuzz: u32,
        comm: &CommStats,
    ) -> DistMat2D<OverlapEdge> {
        let n: DistMat2D<TwoHop> =
            summa::<TrMinPlus>(r, r, (2, 2), comm, CommPhase::TransitiveReduction);
        let row_bound = row_bounds(r, fuzz);
        r.filter(|i, j, edge| {
            let best = n.get(i, j).and_then(|two_hop| two_hop.for_dir(edge.direction()));
            row_bound[i].zip(best).is_some_and(|(bound, best)| bound >= best)
        })
    }

    /// A pattern-symmetric `n × n` overlap matrix holding each pair with
    /// probability `percent`%, with random directions and suffixes: mostly
    /// short ones, whose two-hop sums the row bounds reach, and some at and
    /// beyond 2³⁰ and within `fuzz` of `u32::MAX`, where the sums and the
    /// bounds saturate.
    fn random_overlaps(n: usize, percent: u32, fuzz: u32, seed: u64) -> Triples<OverlapEdge> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let suffix = |rng: &mut SmallRng| match rng.gen_range(0..10u32) {
            0 => (1 << 30) + rng.gen_range(0..1_000u32),
            1 => u32::MAX - rng.gen_range(0..=2 * fuzz),
            2 => (1 << 31) + rng.gen_range(0..1_000u32),
            _ => rng.gen_range(0..400u32),
        };
        let mut t = Triples::new(n, n);
        for i in 0..n {
            for j in i + 1..n {
                if rng.gen_range(0..100u32) < percent {
                    for (row, col) in [(i, j), (j, i)] {
                        let dir = rng.gen_range(0..4u32) as u8;
                        let suffix = suffix(&mut rng);
                        let edge = OverlapEdge { dir, suffix, score: 1, overlap_len: 1 };
                        t.push(row, col, edge);
                    }
                }
            }
        }
        t
    }

    /// The masked pass's `I`, flops, words and messages against the oracle's;
    /// returns the size of `I`.
    fn assert_mask_matches_the_oracle(t: &Triples<OverlapEdge>, fuzz: u32, nprocs: usize) -> usize {
        let phase = CommPhase::TransitiveReduction;
        let r = to_dist(t, ProcessGrid::square(nprocs));
        let (masked, oracle) = (CommStats::new(), CommStats::new());
        let got = transitive_mask(&r, fuzz, &masked);
        let want = oracle_mask(&r, fuzz, &oracle);
        assert_eq!(got, want, "P={nprocs}");
        assert_eq!(masked.extra(&flops_key(phase)), oracle.extra(&flops_key(phase)), "P={nprocs}");
        assert_eq!(masked.words(phase), oracle.words(phase), "P={nprocs}");
        assert_eq!(masked.messages(phase), oracle.messages(phase), "P={nprocs}");
        got.nnz()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_masked_pass_equals_the_squaring_and_the_filter(
            seed in 0u64..10_000,
            n in 1usize..40,
            percent in 5u32..60,
            fuzz in 0u32..200,
        ) {
            let t = random_overlaps(n, percent, fuzz, seed);
            for nprocs in [1usize, 4, 9, 16] {
                assert_mask_matches_the_oracle(&t, fuzz, nprocs);
            }
        }
    }

    #[test]
    fn masked_pass_matches_the_oracle_on_the_fixtures() {
        for (t, fuzz) in [
            (tiling_overlap_graph(30, 4, true), 60),
            (chain_overlap_graph(25, 3), 0),
            (random_overlaps(60, 30, 100, 1), 100),
        ] {
            for nprocs in [1usize, 4, 9, 16] {
                assert!(assert_mask_matches_the_oracle(&t, fuzz, nprocs) > 0, "I is empty");
            }
        }
    }

    #[test]
    fn result_is_identical_at_every_thread_count() {
        let t = random_overlaps(80, 20, 100, 3);
        let r = to_dist(&t, ProcessGrid::square(9));
        let cfg = TransitiveReductionConfig { fuzz: 100, max_iterations: 16 };
        let run = |threads| {
            with_threads(threads, || {
                let comm = CommStats::new();
                let out = transitive_reduction(&r, &cfg, &comm);
                (out.string_matrix, out.iterations, out.removed_edges, comm.snapshot())
            })
        };
        let reference = run(1);
        for threads in [2usize, 4] {
            assert!(run(threads) == reference, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "wider than a packed entry holds")]
    fn a_block_too_wide_for_a_packed_column_is_refused() {
        let _ = pack(&CsrMatrix::zero(1, PACKED_COLS + 1));
    }

    #[test]
    fn the_widest_packable_block_keeps_its_last_column() {
        let edge = OverlapEdge { dir: 0b10, suffix: u32::MAX, score: 0, overlap_len: 0 };
        let last = PACKED_COLS - 1;
        let block = CsrMatrix::from_raw(1, PACKED_COLS, vec![0, 1], vec![last], vec![edge]);
        let entry = pack(&block)[0];
        assert_eq!(packed_col(entry), last);
        assert_eq!(packed_dir(entry), BidirectedDir(0b10));
        assert_eq!(packed_suffix(entry), u32::MAX);
    }

    #[test]
    fn shuffled_tiling_counts_are_pinned() {
        // The benchmark's graph-tiling shape at smoke size: 2 000 reads,
        // span 12, both strands, read ids shuffled, fuzz 100, P = 16.  The
        // literals were taken from the reduction that built all of N.
        let n = 2_000;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut read_of: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            read_of.swap(i, rng.gen_range(0..=i));
        }
        let mut r = Triples::new(n, n);
        for (i, j, edge) in tiling_overlap_graph(n, 12, true).into_entries() {
            r.push(read_of[i], read_of[j], edge);
        }
        let comm = CommStats::new();
        let cfg = TransitiveReductionConfig { fuzz: 100, max_iterations: 16 };
        let out = transitive_reduction(&to_dist(&r, ProcessGrid::square(16)), &cfg, &comm);
        let phase = CommPhase::TransitiveReduction;
        let flops = comm.extra(&flops_key(phase));
        assert_eq!(flops, 1_152_504);
        assert_eq!(out.removed_edges, 43_846);
        assert_eq!(out.string_matrix.nnz(), 3_998);
        assert_eq!(out.iterations, 2);
        assert_eq!(comm.words(phase), 687_444);
        assert_eq!(comm.messages(phase), 204);
    }

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
    fn transposing_the_mask_is_charged_per_off_diagonal_entry() {
        // n = 6, span 2 on a 2 × 2 grid (rows and columns split 0..3 | 3..6):
        // round 1's I is the 8 skip entries (i, i ± 2).  (1,3) and (2,4) sit
        // in block (0,1), (3,1) and (4,2) in block (1,0); (0,2), (2,0), (3,5)
        // and (5,3) stay on the diagonal.  Round 2 finds nothing, so Iᵀ adds
        // 4 entries × 2 words in 2 messages to the two squarings.
        let r = to_dist(&chain_overlap_graph(6, 2), ProcessGrid::square(4));
        let comm = CommStats::new();
        let out = transitive_reduction(&r, &TransitiveReductionConfig::for_tests(), &comm);
        assert_eq!((out.iterations, out.removed_edges), (2, 8));
        let phase = CommPhase::TransitiveReduction;
        let squarings = CommStats::new();
        for m in [&r, &out.string_matrix] {
            let _: DistMat2D<TwoHop> = summa::<TrMinPlus>(m, m, (2, 2), &squarings, phase);
        }
        assert_eq!(comm.words(phase), squarings.words(phase) + 8);
        assert_eq!(comm.messages(phase), squarings.messages(phase) + 2);
    }

    #[test]
    fn an_asymmetric_mask_still_removes_both_directions() {
        // The 8-read chain with every backward skip's suffix cut from 400 to
        // 300, as an error-shifted endpoint would.  Rows 6 and 7 hold no
        // forward skip, so their bound is 300 + 60 < 400, the two-hop sum:
        // (6,4) and (7,5) are not in I while (4,6) and (5,7) are.  S must
        // lose both directions all the same, as SORA's does.
        let mut r = Triples::new(8, 8);
        for (i, j, mut edge) in chain_overlap_graph(8, 2).into_entries() {
            if i == j + 2 {
                edge.suffix = 300;
            }
            r.push(i, j, edge);
        }
        let cfg = TransitiveReductionConfig::for_tests();
        let (sora, _) = sora_transitive_reduction(&CsrMatrix::from_triples(&r), cfg.fuzz);
        let dist = to_dist(&r, ProcessGrid::square(4));
        let s = transitive_reduction(&dist, &cfg, &CommStats::new()).string_matrix.to_local_csr();
        assert_eq!(s.pattern(), s.transpose().pattern(), "S must be pattern-symmetric");
        assert_eq!(s.pattern(), sora.pattern());
        assert_eq!(s.nnz(), 2 * 7, "only the adjacent edges should survive");
    }

    #[test]
    fn squarings_record_flops_under_the_tr_phase() {
        let r = chain_overlap_graph(8, 2);
        let dist = to_dist(&r, ProcessGrid::square(4));
        let comm = CommStats::new();
        let out = transitive_reduction(&dist, &TransitiveReductionConfig::for_tests(), &comm);
        assert!(out.iterations >= 1);
        let flops = comm.extra(&flops_key(CommPhase::TransitiveReduction));
        assert!(flops > 0, "R² squarings must tally useful flops");
        assert_eq!(flops % 2, 0, "flops come in multiply-add pairs");
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
