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
//! **One round.**  The paper repeats the body until `R` stops shrinking, so
//! that removed edges can expose "neighbors that are three, four, etc. hops
//! away".  The second round never removes anything, so this module runs the
//! body once.  Let `R₂ = R ∖ I ∖ Iᵀ` and let `N₂`, `I₂` be the second
//! round's.  `R₂ ⊆ R`, so every walk `i → k → j` in `R₂` is a walk in `R`,
//! and its saturating suffix sum is the same: `N₂ ≥ N` entry by entry, in
//! every direction, and "no walk" (`u32::MAX`) in `N` stays "no walk" in
//! `N₂`.  Row `i` of `R₂` is a subset of row `i` of `R`, so its bound
//! `max suffix + x` can only fall.  An edge keeps its direction.  So an
//! edge `(i, j)` of `I₂` has `bound(i) ≥ bound₂(i) ≥ N₂(i, j) ≥ N(i, j)`
//! and would already be in `I`, which `R₂` excludes: `I₂ = ∅`.  A 3- or
//! 4-hop skip is removed in the one round because it has a 2-hop witness,
//! not because a later round finds it; the tests hold `S` to
//! [`remaining_transitive_edges`] and a second masked pass over `S` to an
//! empty `I`.
//!
//! **`N` is never materialised.**  Algorithm 2 reads `N` only through
//! `I ← M ≥ N` on `R`'s pattern, so each rank `(i, j)` computes its block of
//! `I` in one masked, fused pass (masked SpGEMM; Milaković, Selvitopi, Nisa,
//! Budimlić and Buluç, PPoPP 2022).  For each local row of `R_{i,j}` it
//! stamps the row's columns, walks the `√P` SUMMA stages `R_{i,k}·R_{k,j}`,
//! and folds a valid walk `i → k → j` only when `j` is stamped and the walk's
//! implied direction is the direct edge's — the one of Algorithm 3's four
//! per-direction minima that `I` reads.  It then marks the entry for `I`
//! iff the row bound reaches that minimum.  Suffix sums saturate and `u32::MAX`
//! means "no walk", as in [`TrMinPlus`], which stays the semiring of record:
//! `summa::<TrMinPlus>` followed by the element-wise test is the oracle the
//! pass is held to, entry for entry, in this module's tests.
//!
//! **Relabelled for locality.**  The pass fetches `R_{k,j}.row(k)` for every
//! entry `(i, k)` of the left operand; with read ids in random genome order
//! those rows lie anywhere in the block, and the pass is bound by memory
//! order, not arithmetic.  So it runs on `Q·R·Qᵀ`, where `Q` permutes ids
//! within each block range and moves no entry to another block.  Diagonal
//! rank `(b, b)` orders the rows of `R_{b,b}` breadth first, one connected
//! component after another, each from a far end that one extra BFS sweep
//! finds (the ordering of distributed Reverse Cuthill–McKee on CombBLAS,
//! Azad, Jacquelin, Buluç and Ng, IPDPS 2017, without its degree sort).
//! Overlapping reads then sit at nearby ids, and consecutive rows fetch
//! nearby rows.  The relabelling is equivariant: `TR(Q·R·Qᵀ) = Q·TR(R)·Qᵀ`.
//!
//! **Packed operand.**  Every block of `R` becomes one `u64` per entry, rows
//! in the relabelled order: the relabelled block-local column in bits 34..64,
//! the two direction bits in 32..34 and the full 32-bit suffix in 0..32 —
//! 8 bytes per entry, where the block holds 8 for the column and 16 for the
//! [`OverlapEdge`].  Each row is stored as two halves: the entries whose
//! source read the walk leaves in reverse, then those it leaves forward, each
//! sorted by column (the column sits in the top bits, so sorting a half's
//! `u64`s sorts it by column), with the split kept beside the row's offset.
//! `ISDIROK` asks a walk `i → k → j` to leave `k` in the orientation it
//! entered `k` with, so for an entry `(i, k)` the pass reads only the half of
//! row `k` that the entry's destination orientation names: every product it
//! reads is a valid walk, and none is read only to be thrown away.  Packing
//! reads each block's CSR rows in storage order and writes each packed row
//! at its relabelled offset; the offsets come from one pass over the row
//! lengths in the new order, so no row of `R` is fetched out of order.
//! Beside each entry the block keeps the entry's position in `R`'s own CSR
//! arrays, so the pass marks `I` in `R`'s coordinates and nothing is
//! permuted back: `I` is `R`'s marked entries, and `S` the entries neither
//! marked nor in `Iᵀ`.  This is the only copy of `R` the reduction makes.  A
//! block wider than 2³⁰ columns or holding more than 2³² entries fails an
//! assertion; no column is ever truncated.
//!
//! **Counts.**  Each diagonal rank broadcasts its order, `n_b` words, along
//! its grid row and its grid column: `2n(√P − 1)` words and `2√P(√P − 1)`
//! messages, charged through [`record_broadcast`].  The pass charges the
//! stage broadcasts through [`record_stage_broadcasts`], the code `summa`
//! charges them with, so Table I's words and messages are those of one
//! squaring.  The transpose of `I` sends every non-empty off-diagonal block
//! to its mirror rank in one message of [`wire::PATTERN_ENTRY`] words per
//! entry.  No entry changes block, so none of these depends on the order.
//! The flops extra (`sparse.tr_spgemm.flops` in the benchmark) is 2 × the
//! products of `R·R` that pass `ISDIROK`, stamped or not — what
//! `summa::<TrMinPlus>` counts, and the total length of the halves the pass
//! reads.  The probes extra counts one stamp inspection per such product, and
//! the [`FlopCounter`]'s peak row width is the widest row of `R_{i,j}`, the
//! minima a row holds.
//!
//! [`TrMinPlus`]: crate::trsemiring::TrMinPlus

use dibella_align::BidirectedDir;
use dibella_dist::{par_ranks, par_ranks_mut, record_broadcast, wire, CommPhase, CommStats};
use dibella_overlap::OverlapEdge;
use dibella_sparse::summa::{record_arithmetic, record_stage_broadcasts};
use dibella_sparse::{CsrMatrix, DistMat2D, FlopCounter};
use std::ops::Range;

/// Parameters of the transitive reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitiveReductionConfig {
    /// The scalar `x` added to the per-row maximum suffix to absorb
    /// error-shifted overlap endpoints (Section IV-E).  The diBELLA 2D release
    /// uses 1000 bases for PacBio CLR data.
    pub fuzz: u32,
    /// No longer read: the reduction is one round (see the module docs).
    /// Kept only because the benchmark's workload definitions name it; it
    /// goes when those names are released.
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
    /// Rounds executed: always 1, or 0 for an empty `R`.
    pub iterations: usize,
    /// Directed entries removed in total.
    pub removed_edges: usize,
    /// Entries of `I` outside the diagonal blocks: the transpose of `I`
    /// sends [`wire::PATTERN_ENTRY`] words for each.
    pub transposed_entries: usize,
    /// Off-diagonal blocks of `I` holding an entry: the transpose of `I`
    /// sends one message for each.
    pub transposed_blocks: usize,
}

/// Run Algorithm 2 on the overlap matrix `R`, recording the order broadcast,
/// the squaring traffic and the transpose of `I` under
/// [`CommPhase::TransitiveReduction`].
///
/// `R` is reduced exactly whatever its pattern.  The relabelling gains its
/// locality on a pattern-symmetric `R`, which is what the pipeline builds
/// (each overlap is stored in both directions); on any other pattern it is
/// still a permutation of each block range, only a less local one.
pub fn transitive_reduction(
    r: &DistMat2D<OverlapEdge>,
    config: &TransitiveReductionConfig,
    comm: &CommStats,
) -> TrOutcome {
    if r.nnz() == 0 {
        return TrOutcome {
            string_matrix: r.clone(),
            iterations: 0,
            removed_edges: 0,
            transposed_entries: 0,
            transposed_blocks: 0,
        };
    }
    // N ← R², v ← R.Reduce(Row, max) + x and I ← M ≥ N, in one pass.  The
    // pass's working set lives until S is built (see `MaskedPass`).
    let pass = MaskedPass::run(r, config.fuzz, comm);
    let transitive = pass.mask(r);

    // R ← R ∘ ¬I ∘ ¬Iᵀ.  The reverse walk of a transitive (i, j) exists with
    // mirrored directions, but its suffix sums are measured from the other
    // end and can straddle the fuzz bound, so I is not symmetric; removing Iᵀ
    // too keeps R pattern-symmetric.  Only the pattern of I travels, the
    // mirror rank holds the values in R; diagonal blocks stay local.
    let grid = transitive.grid();
    let (transposed_entries, transposed_blocks) = (grid.ranks().map(|rank| grid.coords(rank)))
        .filter(|(bi, bj)| bi != bj)
        .map(|(bi, bj)| transitive.block_nnz(bi, bj))
        .filter(|&nnz| nnz > 0)
        .fold((0, 0), |(entries, blocks), nnz| (entries + nnz, blocks + 1));
    let phase = CommPhase::TransitiveReduction;
    comm.record(phase, transposed_entries as u64 * wire::PATTERN_ENTRY, transposed_blocks as u64);
    let transposed = transitive.transpose();
    let reduced = pass.select(r, |rank, row, col, marked| {
        !marked && transposed.blocks()[rank].get(row, col).is_none()
    });
    drop(pass);
    TrOutcome {
        removed_edges: r.nnz() - reduced.nnz(),
        string_matrix: reduced,
        iterations: 1,
        transposed_entries,
        transposed_blocks,
    }
}

/// `v ← R.Reduce(Row, max)` then `v ← v + x`: each row's bound, `None` for
/// an empty row.
fn row_bounds(r: &DistMat2D<OverlapEdge>, fuzz: u32) -> Vec<Option<u32>> {
    r.reduce_rows(|_, _, e| e.suffix, u32::max)
        .into_iter()
        .map(|m| m.map(|v| v.saturating_add(fuzz)))
        .collect()
}

/// The breadth-first order of a diagonal block's rows, as `order[new] =
/// old`: each connected component of the block's graph from a far end of
/// it, components in the order of their lowest row.
///
/// A permutation of the block's rows for any pattern.  On a pattern that is
/// not symmetric the far end may not reach every row the first sweep did;
/// the rows it misses are ordered from `root` and from later roots.
fn bfs_order(block: &CsrMatrix<OverlapEdge>) -> Vec<u32> {
    let mut order = Vec::with_capacity(block.nrows());
    let mut seen = vec![false; block.nrows()];
    for root in 0..block.nrows() {
        if seen[root] {
            continue;
        }
        // One sweep finds the component's far end, a second orders it.
        let start = order.len();
        sweep(block, root, &mut seen, &mut order);
        let far = order[order.len() - 1] as usize;
        for &row in &order[start..] {
            seen[row as usize] = false;
        }
        order.truncate(start);
        sweep(block, far, &mut seen, &mut order);
        if !seen[root] {
            sweep(block, root, &mut seen, &mut order);
        }
    }
    order
}

/// Append `root` and the rows reachable from it that are not yet `seen` to
/// `order`, breadth first: the tail of `order` is the queue.
fn sweep(block: &CsrMatrix<OverlapEdge>, root: usize, seen: &mut [bool], order: &mut Vec<u32>) {
    let mut next = order.len();
    seen[root] = true;
    order.push(root as u32);
    while let Some(&row) = order.get(next) {
        next += 1;
        let span = block.rowptr()[row as usize]..block.rowptr()[row as usize + 1];
        for &col in &block.colidx()[span] {
            if !seen[col] {
                seen[col] = true;
                order.push(col as u32);
            }
        }
    }
}

/// `Q` of the module docs, one block range at a time: `order[b][new]` is the
/// block-local id that relabelled id `new` of range `b` stands for, and
/// `label[b]` the inverse.
struct Relabelling {
    order: Vec<Vec<u32>>,
    label: Vec<Vec<u32>>,
}

impl Relabelling {
    /// Order every block range from its diagonal block, charging each
    /// diagonal rank's broadcast of its order along its grid row and column.
    fn new(r: &DistMat2D<OverlapEdge>, comm: &CommStats, phase: CommPhase) -> Self {
        let grid = r.grid();
        let order = par_ranks(grid.rows(), |b| bfs_order(r.block(b, b)));
        for (b, order) in order.iter().enumerate() {
            assert_eq!(order.len(), r.row_dist().size(b), "block range {b} is not ordered whole");
        }
        let label = (order.iter())
            .map(|order| {
                let mut label = vec![0; order.len()];
                for (new, &old) in (0..).zip(order) {
                    label[old as usize] = new;
                }
                label
            })
            .collect();
        for order in &order {
            let words = order.len() as u64 * wire::ID;
            record_broadcast(comm, phase, words, grid.cols());
            record_broadcast(comm, phase, words, grid.rows());
        }
        Self { order, label }
    }
}

/// Lowest bit of the block-local column in a packed entry; below it sit the
/// two direction bits (32..34) and the suffix (0..32).
const COL_SHIFT: u32 = 34;

/// The most columns a block may have for its local column to fit a packed
/// entry.
const PACKED_COLS: usize = 1 << (u64::BITS - COL_SHIFT);

/// One block of `R` as the masked pass reads it: row `r` holds the entries
/// of relabelled row `r` of the block, packed (see the module docs) with
/// their columns relabelled, and beside each its position in the block's CSR
/// arrays.  A row is two halves, the entries whose source read is traversed
/// in reverse and then those whose source read is traversed forward, each
/// sorted by column: `offsets[2r]` starts row `r`, `offsets[2r + 1]` starts
/// its forward half and `offsets[2r + 2]` ends it.
struct PackedBlock {
    offsets: Vec<u32>,
    entries: Vec<u64>,
    positions: Vec<u32>,
}

impl PackedBlock {
    /// An empty packing, with room for all of `block`.
    ///
    /// # Panics
    /// Panics if the block has more than [`PACKED_COLS`] columns or more
    /// than 2³² entries.
    fn with_room_for(block: &CsrMatrix<OverlapEdge>) -> Self {
        assert!(
            block.ncols() <= PACKED_COLS,
            "a block of {} columns is wider than a packed entry holds ({PACKED_COLS})",
            block.ncols()
        );
        let nnz = block.nnz();
        assert!(u32::try_from(nnz).is_ok(), "a block of {nnz} entries is too long");
        Self {
            offsets: Vec::with_capacity(2 * block.nrows() + 1),
            entries: Vec::with_capacity(block.nnz()),
            positions: Vec::with_capacity(block.nnz()),
        }
    }

    /// Pack `block`, block `(i, j)` of `R`, relabelled by `relabel`.  The
    /// block's rows are read in storage order, each packed row written at
    /// its relabelled offset.
    fn fill(
        &mut self,
        block: &CsrMatrix<OverlapEdge>,
        relabel: &Relabelling,
        (i, j): (usize, usize),
    ) {
        let rowptr = block.rowptr();
        // Each row's start, in the relabelled order; the forward halves'
        // starts are written as the rows are packed.
        let mut start = 0;
        for &row in &relabel.order[i] {
            self.offsets.extend([start, start]);
            start += (rowptr[row as usize + 1] - rowptr[row as usize]) as u32;
        }
        self.offsets.push(start);
        self.entries.resize(block.nnz(), 0);
        self.positions.resize(block.nnz(), 0);
        let label_j = &relabel.label[j];
        let mut row_entries: Vec<(u64, u32)> = Vec::new();
        for (row, &new) in relabel.label[i].iter().enumerate() {
            let span = rowptr[row]..rowptr[row + 1];
            let cols = block.colidx()[span.clone()].iter().zip(&block.values()[span.clone()]);
            row_entries.clear();
            row_entries.extend(
                cols.zip(span).map(|((&col, e), at)| (pack_entry(label_j[col], e), at as u32)),
            );
            // Reverse half first; a row's columns are distinct, so the
            // entry orders each half by column.
            let source_forward = |&(entry, _): &(u64, u32)| packed_dir(entry).source_forward();
            row_entries.sort_unstable_by_key(|pair| (source_forward(pair), pair.0));
            let new = new as usize;
            let reverse = row_entries.partition_point(|p| !source_forward(p));
            self.offsets[2 * new + 1] = self.offsets[2 * new] + reverse as u32;
            let span = self.span(2 * new, 2 * new + 2);
            let slots = self.entries[span.clone()].iter_mut().zip(&mut self.positions[span]);
            for ((entry, at), &packed) in slots.zip(&row_entries) {
                (*entry, *at) = packed;
            }
        }
    }

    /// The entries from offset `from` to offset `to`.
    fn span(&self, from: usize, to: usize) -> Range<usize> {
        self.offsets[from] as usize..self.offsets[to] as usize
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.entries[self.span(2 * r, 2 * r + 2)]
    }

    /// The half of row `r` whose entries leave the source read forward if
    /// `source_forward`, in reverse if not.
    fn half_row(&self, r: usize, source_forward: bool) -> &[u64] {
        let half = 2 * r + usize::from(source_forward);
        &self.entries[self.span(half, half + 1)]
    }

    fn positions(&self, r: usize) -> &[u32] {
        &self.positions[self.span(2 * r, 2 * r + 2)]
    }
}

/// One entry of `R` in relabelled column `col`, packed.
fn pack_entry(col: u32, e: &OverlapEdge) -> u64 {
    debug_assert!(e.dir < 4, "a direction has two bits");
    u64::from(col) << COL_SHIFT | u64::from(e.dir) << 32 | u64::from(e.suffix)
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

/// The masked pass and its working set: the relabelling, the row bounds,
/// the packed blocks and each rank's stamps and marks.
///
/// The large buffers — packed blocks, stamps and marks — are allocated on
/// the calling thread before the pool fills them (packing is split into
/// [`PackedBlock::with_room_for`] and [`PackedBlock::fill`] for this), and
/// [`transitive_reduction`] drops the set only after `S` is built; on the
/// pool the pass allocates only small per-row and per-rank scratch.  Freeing
/// the set then leaves one contiguous hole below `S` in the calling
/// thread's heap rather than gaps among the blocks of `S`.  On
/// `graph-tiling` that hole is what lets the benchmark's next input reuse
/// freed memory (EXPERIMENTS.md, "Heap modes"): packed on the pool, or
/// freed before `S` is built, the same set left every measured process in
/// the slower mode.  `_held` and the two-phase packing serve only that
/// allocator artefact, and go once the input is generated on a fresh heap
/// (ROADMAP item 6 step B).
struct MaskedPass {
    ranks: Vec<RankPass>,
    /// Read only while the pass runs, held to be freed with the rest.
    _held: (Relabelling, Vec<Option<u32>>, Vec<PackedBlock>),
}

/// One rank's share of the pass: the stamps over its block's columns and,
/// once the pass has run, `I` on its block of `R`, by CSR position.
struct RankPass {
    slot: Vec<u32>,
    marks: Vec<bool>,
}

impl MaskedPass {
    /// Relabel and pack `R` and mark `I` on every block; charges the order
    /// broadcasts and the squaring's stage broadcasts and flops under
    /// [`CommPhase::TransitiveReduction`].
    fn run(r: &DistMat2D<OverlapEdge>, fuzz: u32, comm: &CommStats) -> Self {
        let phase = CommPhase::TransitiveReduction;
        let grid = r.grid();
        assert_eq!(r.nrows(), r.ncols(), "rows and columns are relabelled alike");
        let relabel = Relabelling::new(r, comm, phase);
        record_stage_broadcasts(r, r, comm, phase);
        let bounds = row_bounds(r, fuzz);
        let mut packed: Vec<PackedBlock> =
            r.blocks().iter().map(PackedBlock::with_room_for).collect();
        par_ranks_mut(&mut packed, |rank, block| {
            block.fill(&r.blocks()[rank], &relabel, grid.coords(rank));
        });
        let mut ranks: Vec<RankPass> = (r.blocks().iter())
            .map(|block| RankPass { slot: vec![0; block.ncols()], marks: vec![false; block.nnz()] })
            .collect();
        let flops = FlopCounter::new();
        par_ranks_mut(&mut ranks, |rank, pass| {
            let (i, j) = grid.coords(rank);
            let stages: Vec<(&PackedBlock, &PackedBlock)> = (0..grid.cols())
                .map(|k| (&packed[grid.rank_of(i, k)], &packed[grid.rank_of(k, j)]))
                .filter(|(left, right)| !left.entries.is_empty() && !right.entries.is_empty())
                .collect();
            let bounds = &bounds[r.row_dist().range(i)];
            pass.mark(&packed[rank], &relabel.order[i], &stages, bounds, &flops);
        });
        record_arithmetic(comm, phase, &flops);
        Self { ranks, _held: (relabel, bounds, packed) }
    }

    /// `I`: every block's marked entries, in `R`'s own coordinates and CSR
    /// order.
    fn mask(&self, r: &DistMat2D<OverlapEdge>) -> DistMat2D<OverlapEdge> {
        self.select(r, |_, _, _, marked| marked)
    }

    /// The entries of `r` that `keep(rank, row, col, marked)` selects, block
    /// by block, each block allocated at its exact size; `marked` says
    /// whether the entry is in `I`.
    fn select(
        &self,
        r: &DistMat2D<OverlapEdge>,
        keep: impl Fn(usize, usize, usize, bool) -> bool + Sync,
    ) -> DistMat2D<OverlapEdge> {
        let blocks = par_ranks(r.grid().nprocs(), |rank| {
            // `filter` visits the entries in CSR order, the order of the marks.
            let mut marks = self.ranks[rank].marks.iter();
            r.blocks()[rank].filter(|row, col, _| keep(rank, row, col, marks.next() == Some(&true)))
        });
        DistMat2D::from_blocks(r.grid(), r.nrows(), r.ncols(), blocks)
    }
}

impl RankPass {
    /// Mark this rank's block of `I`: `packed` is its block of `R`, whose
    /// row `r` is row `rows[r]` of the block; `stages` the packed pairs
    /// `(R_{i,k}, R_{k,j})` with both operands non-empty, and `bounds` the
    /// row bounds of grid row `i`, in the block's own row order.
    fn mark(
        &mut self,
        packed: &PackedBlock,
        rows: &[u32],
        stages: &[(&PackedBlock, &PackedBlock)],
        bounds: &[Option<u32>],
        flops: &FlopCounter,
    ) {
        // slot[c] is 1 + the position of column c in the current mask row,
        // or 0 when c is not in it; best[p] is the shortest walk found to it
        // so far.
        let slot = &mut self.slot;
        let mut best = Vec::new();
        let (mut products, mut widest) = (0u64, 0u64);
        for (row, &row_of) in rows.iter().enumerate() {
            let mask_row = packed.row(row);
            for (pos, &entry) in (1..).zip(mask_row) {
                slot[packed_col(entry)] = pos;
            }
            best.clear();
            best.resize(mask_row.len(), u32::MAX);
            for (left, right) in stages {
                for &ik in left.row(row) {
                    let (d1, s1) = (packed_dir(ik), packed_suffix(ik));
                    // ISDIROK: the walk must traverse the middle read
                    // consistently, so it leaves k in the orientation it
                    // entered k with: one half of row k.
                    let half = right.half_row(packed_col(ik), d1.dest_forward());
                    products += half.len() as u64;
                    for &kj in half {
                        let d2 = packed_dir(kj);
                        debug_assert!(d1.chains_with(d2));
                        let pos = slot[packed_col(kj)] as usize;
                        if pos != 0 && d1.compose(d2) == packed_dir(mask_row[pos - 1]) {
                            let sum = s1.saturating_add(packed_suffix(kj));
                            best[pos - 1] = best[pos - 1].min(sum);
                        }
                    }
                }
            }
            // I ← M ≥ N on this row, and the stamps cleared for the next one.
            let bound = bounds[row_of as usize];
            for ((&entry, &walk), &at) in mask_row.iter().zip(&best).zip(packed.positions(row)) {
                slot[packed_col(entry)] = 0;
                if walk != u32::MAX && bound.is_some_and(|bound| bound >= walk) {
                    self.marks[at as usize] = true;
                }
            }
            widest = widest.max(mask_row.len() as u64);
        }
        flops.record_row(products, widest);
    }
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
                    if sum != u32::MAX && sum <= bound {
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
    use crate::fixtures::{
        chain_overlap_graph, forked_overlap_graph, shuffled_ids, shuffled_tiling_overlap_graph,
        tiling_overlap_graph, to_dist,
    };
    use crate::sora::sora_transitive_reduction;
    use crate::trsemiring::{TrMinPlus, TwoHop};
    use dibella_dist::{with_threads, BlockDist, ProcessGrid};
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
            summa::<TrMinPlus>(r, r, comm, CommPhase::TransitiveReduction);
        let row_bound = row_bounds(r, fuzz);
        r.filter(|i, j, edge| {
            let best = n.get(i, j).and_then(|two_hop| two_hop.for_dir(edge.direction()));
            row_bound[i].zip(best).is_some_and(|(bound, best)| bound >= best)
        })
    }

    /// The masked pass's `I` on its own, its working set dropped.
    fn transitive_mask(
        r: &DistMat2D<OverlapEdge>,
        fuzz: u32,
        comm: &CommStats,
    ) -> DistMat2D<OverlapEdge> {
        MaskedPass::run(r, fuzz, comm).mask(r)
    }

    /// Block `(i, j)` of `r` packed as the masked pass packs it.
    fn pack(
        r: &DistMat2D<OverlapEdge>,
        relabel: &Relabelling,
        (i, j): (usize, usize),
    ) -> PackedBlock {
        let block = r.block(i, j);
        let mut packed = PackedBlock::with_room_for(block);
        packed.fill(block, relabel, (i, j));
        packed
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

    /// A random permutation of `0..n` that keeps every id in its block range
    /// of a `parts`-way distribution.
    fn shuffled_within_blocks(n: usize, parts: usize, seed: u64) -> Vec<usize> {
        let dist = BlockDist::new(n, parts);
        (0..parts)
            .flat_map(|b| {
                let start = dist.start(b);
                shuffled_ids(dist.size(b), seed + b as u64).into_iter().map(move |q| start + q)
            })
            .collect()
    }

    /// `Q·t·Qᵀ`: entry `(i, j)` moved to `(q[i], q[j])`.
    fn permuted(t: &Triples<OverlapEdge>, q: &[usize]) -> Triples<OverlapEdge> {
        let mut out = Triples::new(t.nrows(), t.ncols());
        for (i, j, edge) in t.iter() {
            out.push(q[i], q[j], *edge);
        }
        out
    }

    /// The graph-tiling shape: reads on both strands, span 12, ids shuffled.
    fn shuffled_tiling(n: usize, seed: u64) -> Triples<OverlapEdge> {
        shuffled_tiling_overlap_graph(n, 12, seed)
    }

    /// The 8-read chain with every backward skip's suffix cut from 400 to
    /// 300, as an error-shifted endpoint would.  Rows 6 and 7 hold no forward
    /// skip, so their bound is 300 + 60 < 400, the two-hop sum: (6,4) and
    /// (7,5) are not in `I` while (4,6) and (5,7) are.
    fn asymmetric_chain() -> Triples<OverlapEdge> {
        let mut r = Triples::new(8, 8);
        for (i, j, mut edge) in chain_overlap_graph(8, 2).into_entries() {
            if i == j + 2 {
                edge.suffix = 300;
            }
            r.push(i, j, edge);
        }
        r
    }

    /// Reduce `t` on `nprocs` ranks and hold `S` to the one-round claim: no
    /// transitive edge remains, and a second masked pass finds nothing.
    fn assert_one_round_suffices(t: &Triples<OverlapEdge>, fuzz: u32, nprocs: usize) -> TrOutcome {
        let cfg = TransitiveReductionConfig { fuzz, max_iterations: 16 };
        let r = to_dist(t, ProcessGrid::square(nprocs));
        let out = transitive_reduction(&r, &cfg, &CommStats::new());
        let s = &out.string_matrix;
        let leftovers = remaining_transitive_edges(s, fuzz);
        assert!(leftovers.is_empty(), "P={nprocs}: transitive edges remain: {leftovers:?}");
        if s.nnz() > 0 {
            assert_eq!(transitive_mask(s, fuzz, &CommStats::new()).nnz(), 0, "P={nprocs}");
        }
        out
    }

    /// The masked pass's `I` and flops against the oracle's, and its words
    /// and messages against the oracle's plus the order broadcast; returns
    /// the size of `I`.
    fn assert_mask_matches_the_oracle(t: &Triples<OverlapEdge>, fuzz: u32, nprocs: usize) -> usize {
        let phase = CommPhase::TransitiveReduction;
        let r = to_dist(t, ProcessGrid::square(nprocs));
        let (masked, oracle) = (CommStats::new(), CommStats::new());
        let got = transitive_mask(&r, fuzz, &masked);
        let want = oracle_mask(&r, fuzz, &oracle);
        assert_eq!(got, want, "P={nprocs}");
        assert_eq!(masked.extra(&flops_key(phase)), oracle.extra(&flops_key(phase)), "P={nprocs}");
        let side = r.grid().rows() as u64;
        let order_words = 2 * r.nrows() as u64 * (side - 1);
        assert_eq!(masked.words(phase), oracle.words(phase) + order_words, "P={nprocs}");
        let order_messages = 2 * side * (side - 1);
        assert_eq!(masked.messages(phase), oracle.messages(phase) + order_messages, "P={nprocs}");
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
                assert_one_round_suffices(&t, fuzz, nprocs);
            }
        }

        #[test]
        fn prop_reduction_commutes_with_relabelling(
            seed in 0u64..10_000,
            n in 1usize..40,
            percent in 5u32..60,
            fuzz in 0u32..200,
        ) {
            let t = random_overlaps(n, percent, fuzz, seed);
            for nprocs in [1usize, 4, 16] {
                assert_reduction_commutes(&t, fuzz, nprocs, &shuffled_ids(n, seed), false);
                let side = ProcessGrid::square(nprocs).rows();
                let q = shuffled_within_blocks(n, side, seed);
                assert_reduction_commutes(&t, fuzz, nprocs, &q, true);
            }
        }
    }

    /// `TR(Q·R·Qᵀ) = Q·TR(R)·Qᵀ` entry for entry; with `keeps_blocks`, `Q`
    /// moves no entry to another block, and the words, messages and flops
    /// must be equal too.
    fn assert_reduction_commutes(
        t: &Triples<OverlapEdge>,
        fuzz: u32,
        nprocs: usize,
        q: &[usize],
        keeps_blocks: bool,
    ) {
        let cfg = TransitiveReductionConfig { fuzz, max_iterations: 16 };
        let reduce = |t: &Triples<OverlapEdge>| {
            let comm = CommStats::new();
            let out = transitive_reduction(&to_dist(t, ProcessGrid::square(nprocs)), &cfg, &comm);
            (out, comm)
        };
        let (plain, plain_comm) = reduce(t);
        let (relabelled, relabelled_comm) = reduce(&permuted(t, q));
        let want = CsrMatrix::from_triples(&permuted(&plain.string_matrix.to_triples(), q));
        assert_eq!(relabelled.string_matrix.to_local_csr(), want, "P={nprocs}");
        assert_eq!(relabelled.removed_edges, plain.removed_edges, "P={nprocs}");
        if keeps_blocks {
            let phase = CommPhase::TransitiveReduction;
            assert_eq!(relabelled_comm.words(phase), plain_comm.words(phase), "P={nprocs}");
            assert_eq!(relabelled_comm.messages(phase), plain_comm.messages(phase), "P={nprocs}");
            let flops = |comm: &CommStats| comm.extra(&flops_key(phase));
            assert_eq!(flops(&relabelled_comm), flops(&plain_comm), "P={nprocs}");
        }
    }

    #[test]
    fn reduction_commutes_with_relabelling_the_shuffled_tiling() {
        let t = shuffled_tiling(600, 3);
        for nprocs in [1usize, 4, 16] {
            assert_reduction_commutes(&t, 100, nprocs, &shuffled_ids(600, 5), false);
            let side = ProcessGrid::square(nprocs).rows();
            assert_reduction_commutes(&t, 100, nprocs, &shuffled_within_blocks(600, side, 5), true);
        }
    }

    #[test]
    fn relabelled_blocks_decode_back_to_r() {
        for (t, nprocs) in [
            (shuffled_tiling(300, 1), 16usize),
            (random_overlaps(50, 20, 100, 2), 4),
            (forked_overlap_graph(6, 4, 3), 9),
            (one_orientation_rows(&random_overlaps(50, 20, 100, 2), |i| i % 3 == 0), 4),
            (Triples::new(7, 7), 4),
        ] {
            let r = to_dist(&t, ProcessGrid::square(nprocs));
            let relabel = Relabelling::new(&r, &CommStats::new(), CommPhase::Other);
            for (b, (order, label)) in relabel.order.iter().zip(&relabel.label).enumerate() {
                let mut sorted = order.clone();
                sorted.sort_unstable();
                let range = 0..r.row_dist().size(b) as u32;
                assert!(sorted.into_iter().eq(range), "block range {b} is not permuted");
                assert!((0..).zip(order).all(|(new, &old)| label[old as usize] == new));
            }
            for (rank, block) in r.blocks().iter().enumerate() {
                let (i, j) = r.grid().coords(rank);
                let packed = pack(&r, &relabel, (i, j));
                for (new_row, &row) in relabel.order[i].iter().enumerate() {
                    // The reverse half, then the forward half, each strictly
                    // ascending by column, split at the reverse-half count.
                    let entries = packed.row(new_row);
                    let reverse = entries.iter().filter(|&&e| !packed_dir(e).source_forward());
                    let halves = [false, true].map(|forward| packed.half_row(new_row, forward));
                    assert_eq!(halves[0].len(), reverse.count());
                    assert_eq!(halves.concat(), entries);
                    for (half, forward) in halves.into_iter().zip([false, true]) {
                        assert!(half.iter().all(|&e| packed_dir(e).source_forward() == forward));
                        assert!(half.windows(2).all(|w| packed_col(w[0]) < packed_col(w[1])));
                    }
                    let mut at: Vec<u32> = packed.positions(new_row).to_vec();
                    for (&entry, &at) in entries.iter().zip(&at) {
                        let at = at as usize;
                        let (col, edge) = (block.colidx()[at], block.values()[at]);
                        assert_eq!(relabel.order[j][packed_col(entry)] as usize, col);
                        assert_eq!(packed_dir(entry), edge.direction());
                        assert_eq!(packed_suffix(entry), edge.suffix);
                    }
                    at.sort_unstable();
                    let span = block.rowptr()[row as usize]..block.rowptr()[row as usize + 1];
                    let at = at.into_iter().map(|at| at as usize);
                    assert!(at.eq(span), "row {row} of ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn breadth_first_order_starts_each_component_at_a_far_end() {
        // Two paths, 0 - 2 - 4 and 5 - 3 - 1 - 6, stored out of order.
        let mut t = Triples::new(7, 7);
        for (a, b) in [(0, 2), (2, 4), (5, 3), (3, 1), (1, 6)] {
            let edge = OverlapEdge { dir: 0b11, suffix: 1, score: 1, overlap_len: 1 };
            t.push(a, b, edge);
            t.push(b, a, edge);
        }
        let order = bfs_order(&CsrMatrix::from_triples(&t));
        assert_eq!(order, [4, 2, 0, 5, 3, 1, 6]);
    }

    #[test]
    fn a_far_end_that_misses_its_root_still_orders_every_row() {
        // 0 → 1 only: the sweep from 0 ends at 1, which reaches nothing.
        let mut t = Triples::new(3, 3);
        t.push(0, 1, OverlapEdge { dir: 0b11, suffix: 1, score: 1, overlap_len: 1 });
        assert_eq!(bfs_order(&CsrMatrix::from_triples(&t)), [1, 0, 2]);
    }

    #[test]
    fn a_pattern_asymmetric_r_is_reduced_exactly() {
        // Most pairs keep only their upper entry, so the diagonal blocks'
        // graphs are directed and far ends miss rows their roots reached.
        for seed in 0..6u64 {
            let mut t = Triples::new(48, 48);
            for (i, j, edge) in random_overlaps(48, 25, 100, seed).into_entries() {
                if i < j || (i + j) % 3 == 0 {
                    t.push(i, j, edge);
                }
            }
            for nprocs in [1usize, 4, 9, 16] {
                let r = to_dist(&t, ProcessGrid::square(nprocs));
                let relabel = Relabelling::new(&r, &CommStats::new(), CommPhase::Other);
                for (b, order) in relabel.order.iter().enumerate() {
                    let mut sorted = order.clone();
                    sorted.sort_unstable();
                    let range = 0..r.row_dist().size(b) as u32;
                    assert!(sorted.into_iter().eq(range), "block range {b} is not permuted");
                }
                assert_mask_matches_the_oracle(&t, 100, nprocs);
                assert_one_round_suffices(&t, 100, nprocs);
                assert_reduction_commutes(&t, 100, nprocs, &shuffled_ids(48, seed), false);
            }
        }
    }

    /// `t` with the source orientation of every entry of row `i` set to
    /// `forward(i)`, so that one half of each packed row is empty.
    fn one_orientation_rows(
        t: &Triples<OverlapEdge>,
        forward: impl Fn(usize) -> bool,
    ) -> Triples<OverlapEdge> {
        let mut out = Triples::new(t.nrows(), t.ncols());
        for (i, j, &edge) in t.iter() {
            let dir = BidirectedDir::new(forward(i), edge.direction().dest_forward());
            out.push(i, j, OverlapEdge { dir: dir.bits(), ..edge });
        }
        out
    }

    #[test]
    fn masked_pass_matches_the_oracle_on_the_fixtures() {
        // The last three leave every reverse half empty, every forward half
        // empty, and one or the other by row: a half the pass reads may be
        // empty, and the one it skips may hold the whole row.
        let (chain, random) = (chain_overlap_graph(25, 3), random_overlaps(60, 30, 100, 4));
        for (t, fuzz) in [
            (tiling_overlap_graph(30, 4, true), 60),
            (chain.clone(), 0),
            (random_overlaps(60, 30, 100, 1), 100),
            (asymmetric_chain(), 60),
            (one_orientation_rows(&chain, |_| true), 60),
            (one_orientation_rows(&chain, |_| false), 60),
            (one_orientation_rows(&random, |i| i % 2 == 0), 100),
        ] {
            for nprocs in [1usize, 4, 9, 16] {
                assert!(assert_mask_matches_the_oracle(&t, fuzz, nprocs) > 0, "I is empty");
            }
        }
    }

    #[test]
    fn one_round_leaves_no_transitive_edge_in_any_fixture() {
        let fixtures = [
            chain_overlap_graph(3, 2),
            chain_overlap_graph(6, 2),
            chain_overlap_graph(12, 2),
            chain_overlap_graph(12, 3),
            chain_overlap_graph(12, 4),
            chain_overlap_graph(14, 4),
            tiling_overlap_graph(8, 2, true),
            tiling_overlap_graph(25, 5, true),
            forked_overlap_graph(6, 4, 3),
            asymmetric_chain(),
        ];
        for t in &fixtures {
            for nprocs in [1usize, 4, 9] {
                let out = assert_one_round_suffices(t, 60, nprocs);
                assert_eq!(out.iterations, 1);
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
        let _ = PackedBlock::with_room_for(&CsrMatrix::zero(1, PACKED_COLS + 1));
    }

    #[test]
    fn the_widest_packable_block_keeps_its_last_column() {
        let edge = OverlapEdge { dir: 0b10, suffix: u32::MAX, score: 0, overlap_len: 0 };
        let last = PACKED_COLS - 1;
        let block = CsrMatrix::from_entries(1, PACKED_COLS, vec![(0, last, edge)]);
        // The width check accepts the block.  `fill` would need a label for
        // each of its 2³⁰ columns, so the entry is packed on its own.
        let packed = PackedBlock::with_room_for(&block);
        assert!(packed.entries.capacity() >= 1);
        let entry = pack_entry(last as u32, &edge);
        assert_eq!(packed_col(entry), last);
        assert_eq!(packed_dir(entry), BidirectedDir(0b10));
        assert_eq!(packed_suffix(entry), u32::MAX);
    }

    #[test]
    fn shuffled_tiling_counts_are_pinned() {
        // The benchmark's graph-tiling shape at smoke size: 2 000 reads,
        // span 12, both strands, read ids shuffled, fuzz 100, P = 16.  R has
        // 47 844 entries.  Words: one squaring, 4 · 47 844 · (√P − 1) =
        // 574 128; the transpose of I, 2 · 32 860 off-diagonal entries =
        // 65 720; the order broadcast, 2n(√P − 1) = 12 000.  Messages: 96
        // stage broadcasts, 12 off-diagonal blocks of I and 24 for the order.
        // Only the off-diagonal share of I depends on the shuffle; flops,
        // removed edges and S are the same under any permutation.
        let r = shuffled_tiling(2_000, 7);
        let comm = CommStats::new();
        let cfg = TransitiveReductionConfig { fuzz: 100, max_iterations: 16 };
        let out = transitive_reduction(&to_dist(&r, ProcessGrid::square(16)), &cfg, &comm);
        let phase = CommPhase::TransitiveReduction;
        let flops = comm.extra(&flops_key(phase));
        assert_eq!(flops, 1_144_512);
        assert_eq!(out.removed_edges, 43_846);
        assert_eq!(out.string_matrix.nnz(), 3_998);
        assert_eq!(out.iterations, 1);
        assert_eq!((out.transposed_entries, out.transposed_blocks), (32_860, 12));
        assert_eq!(comm.words(phase), 574_128 + 65_720 + 12_000);
        assert_eq!(comm.messages(phase), 96 + 12 + 24);
        assert_one_round_suffices(&r, 100, 16);
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
        // I is the 8 skip entries (i, i ± 2).  (1,3) and (2,4) sit in block
        // (0,1), (3,1) and (4,2) in block (1,0); (0,2), (2,0), (3,5) and (5,3)
        // stay on the diagonal.  So Iᵀ adds 4 entries × 2 words in 2 messages
        // to the squaring and to the order broadcast, 2 · 6 words in 4
        // messages.
        let r = to_dist(&chain_overlap_graph(6, 2), ProcessGrid::square(4));
        let comm = CommStats::new();
        let out = transitive_reduction(&r, &TransitiveReductionConfig::for_tests(), &comm);
        assert_eq!((out.iterations, out.removed_edges), (1, 8));
        assert_eq!((out.transposed_entries, out.transposed_blocks), (4, 2));
        let phase = CommPhase::TransitiveReduction;
        let squaring = CommStats::new();
        let _: DistMat2D<TwoHop> = summa::<TrMinPlus>(&r, &r, &squaring, phase);
        assert_eq!(comm.words(phase), squaring.words(phase) + 12 + 8);
        assert_eq!(comm.messages(phase), squaring.messages(phase) + 4 + 2);
    }

    #[test]
    fn an_asymmetric_mask_still_removes_both_directions() {
        // S must lose both directions of every skip all the same, as SORA's
        // does, though I holds only one direction of (4,6) and (5,7).
        let r = asymmetric_chain();
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
        assert_eq!(out.iterations, 1);
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
    fn multi_hop_skips_fall_in_one_round() {
        // Skip edges spanning up to 4 neighbours: each 3- and 4-hop skip
        // (i, i + d) has the 2-hop witness i → i + 1 → i + d, whose suffix
        // sum is the skip's own, so the one masked pass puts every skip in I.
        let t = chain_overlap_graph(14, 4);
        let local = CsrMatrix::from_triples(&t);
        for (i, j, skip) in local.iter().filter(|&(i, j, _)| j >= i + 3) {
            let (first, second) = (local.get(i, i + 1).unwrap(), local.get(i + 1, j).unwrap());
            assert!(first.direction().chains_with(second.direction()));
            assert_eq!(first.direction().compose(second.direction()), skip.direction());
            assert_eq!(first.suffix + second.suffix, skip.suffix, "({i},{j})");
        }
        for nprocs in [1usize, 4] {
            let r = to_dist(&t, ProcessGrid::square(nprocs));
            let mask = transitive_mask(&r, 60, &CommStats::new());
            let skips = local.iter().filter(|&(i, j, _)| i.abs_diff(j) >= 2).count();
            assert_eq!(mask.nnz(), skips, "P={nprocs}: I is every skip, both ways");
            let out = assert_one_round_suffices(&t, 60, nprocs);
            assert_eq!(out.iterations, 1);
            assert_eq!(out.string_matrix.nnz(), 2 * 13, "only the adjacent edges should survive");
        }
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
        assert_eq!(comm.snapshot(), CommStats::new().snapshot(), "nothing travels");
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
