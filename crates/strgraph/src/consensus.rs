//! Banded partial-order-alignment (POA) consensus over contig layouts.
//!
//! The paper's pipeline stops at the string graph — "overlap" and "layout" of
//! OLC — and leaves consensus to downstream tools.  This module closes the
//! loop: every [`Contig`] layout produced by
//! [`extract_contigs`](crate::contigs::extract_contigs) is turned into one
//! consensus [`DnaSeq`].
//!
//! The algorithm is the POA scheme long-read assemblers use per window:
//!
//! 1. the layout's first read seeds a **backbone** — a chain of POA nodes;
//! 2. every subsequent read is placed on the backbone with the coordinates
//!    already stored in its [`OverlapEdge`]s and oriented by the edge's
//!    bidirected direction;
//! 3. the read is aligned to its backbone window with a **banded**
//!    dynamic program ([`banded_fit`], in `dibella_align` beside the x-drop
//!    kernels, with the same linear-gap scheme) and the resulting
//!    operations are threaded into the graph: matches bump node weights,
//!    substitutions branch into *alternative* nodes, insertions create (or
//!    re-weight) *insert* nodes between columns, deletions simply skip
//!    columns — the edge weights record every traversal;
//! 4. the consensus is the **heaviest path** through the resulting DAG,
//!    found by one dynamic-programming sweep over a topological order.
//!
//! A layout of one read needs none of this: its consensus is the read.
//!
//! # The band
//!
//! Where a read starts is looked up, not estimated: the mirror edge's
//! `suffix` counts the bases of the previous read that precede it, and the
//! previous read's own alignment says which backbone column that base sits
//! in.  That is as good as the overlap aligner's end coordinates — usually
//! exact, a few dozen columns off where it wandered — so the first rows of
//! the DP are a ribbon `4·min_band` columns either side of the expected
//! diagonal, and as many rows deep, for the true diagonal to stand out.  From
//! there on drift costs the same for every read length: each row spans
//! `min_band` columns either side of one past the previous row's best column
//! (the adaptive band of abPOA), which follows any amount of accumulated
//! indel drift.  A fit that falls well short of the score the overlap aligner
//! gave the same overlap is retried from a four times wider start.  A read
//! costs `(2·min_band + 1) · read_len` cells plus the start-up ribbon.  The
//! fit runs on the host's widest lane word and keeps each row's band as `i16`
//! words, two bytes a cell, from which the traceback reads its directions;
//! the buffers are reused from read to read, so a row allocates nothing.

use crate::contigs::{walk_orientations, Contig};
use dibella_align::{banded_fit, AlnOp, Band, FitScratch};
use dibella_overlap::OverlapEdge;
use dibella_seq::{DnaSeq, ReadSet};
use dibella_dist::par_ranks;
use dibella_sparse::CsrMatrix;
use serde::{Deserialize, Serialize};

/// Tuning knobs of the consensus stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConsensusConfig {
    /// Half-width, in backbone columns, of the band a read is aligned to the
    /// backbone in (see the module docs), and the least half-width of
    /// [`banded_identity`]'s band.
    pub min_band: usize,
}

impl Default for ConsensusConfig {
    fn default() -> Self {
        Self { min_band: 32 }
    }
}

/// The consensus of one contig, with the counters the pipeline reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContigConsensus {
    /// The consensus sequence (the heaviest path through the POA graph).
    pub consensus: DnaSeq,
    /// Number of reads in the layout.
    pub reads: usize,
    /// Number of nodes in the final POA graph (a single read's graph is its
    /// chain, one node per base, and is not materialised).
    pub poa_nodes: usize,
    /// Total read bases aligned into the graph (backbone included).
    pub aligned_bases: usize,
    /// Cells of the banded dynamic program evaluated for this contig.
    pub dp_cells: usize,
    /// Reads whose alignment to the backbone failed and that were placed by
    /// their edge coordinates alone.
    pub unplaced_reads: usize,
}

// ---------------------------------------------------------------------------
// The POA graph
// ---------------------------------------------------------------------------

/// "Nothing" in the `u32` links of the graph.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct PoaNode {
    base: u8,
    /// Whether this node is an insertion node (no backbone column of its own).
    is_insert: bool,
    weight: u32,
    /// Head of the node's out-edge list in [`PoaGraph::edges`], or [`NIL`].
    first_edge: u32,
    /// Next alternative (substitution) node of the same backbone column, or
    /// [`NIL`]: a column's alternatives hang off its backbone node.
    next_alt: u32,
}

/// One out-edge of a node, linked to the node's next one in creation order.
#[derive(Debug, Clone)]
struct PoaEdge {
    to: u32,
    /// How many reads traversed the edge.
    weight: u32,
    next: u32,
}

/// A partial-order alignment graph: a DAG of 2-bit bases whose heaviest path
/// is the consensus.  Nodes are created by threading reads; the **backbone**
/// is the anchor path reads are banded-aligned against.  Nodes and edges live
/// in two flat arenas, so threading a read allocates nothing per node.
#[derive(Debug, Clone, Default)]
pub struct PoaGraph {
    nodes: Vec<PoaNode>,
    edges: Vec<PoaEdge>,
    /// Anchor column node ids, in contig order.
    backbone: Vec<u32>,
}

impl PoaGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Current backbone length in columns.
    pub fn backbone_len(&self) -> usize {
        self.backbone.len()
    }

    fn add_node(&mut self, base: u8, is_insert: bool) -> usize {
        let id = self.nodes.len();
        assert!(id < NIL as usize, "POA graph outgrew its 32-bit node ids");
        self.nodes.push(PoaNode { base, is_insert, weight: 0, first_edge: NIL, next_alt: NIL });
        id
    }

    /// Out-edges `(target node, traversal count)` of `node`, oldest first.
    fn out_edges(&self, node: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let mut at = self.nodes[node].first_edge;
        std::iter::from_fn(move || {
            let edge = self.edges.get(at as usize)?;
            at = edge.next;
            Some((edge.to as usize, edge.weight))
        })
    }

    fn bump_edge(&mut self, from: usize, to: usize) {
        let mut tail = NIL;
        let mut at = self.nodes[from].first_edge;
        while at != NIL {
            let edge = &mut self.edges[at as usize];
            if edge.to as usize == to {
                edge.weight += 1;
                return;
            }
            tail = at;
            at = edge.next;
        }
        let id = self.edges.len();
        assert!(id < NIL as usize, "POA graph outgrew its 32-bit edge ids");
        self.edges.push(PoaEdge { to: to as u32, weight: 1, next: NIL });
        match tail {
            NIL => self.nodes[from].first_edge = id as u32,
            _ => self.edges[tail as usize].next = id as u32,
        }
    }

    /// Visit `node` while threading: bump its weight and the edge from the
    /// previously visited node.
    fn visit(&mut self, prev: &mut Option<usize>, node: usize) {
        self.nodes[node].weight += 1;
        if let Some(p) = *prev {
            self.bump_edge(p, node);
        }
        *prev = Some(node);
    }

    /// Append `bases` as new backbone columns, visited after `prev`.
    fn extend_backbone(&mut self, mut prev: Option<usize>, bases: &[u8]) {
        for &b in bases {
            let id = self.add_node(b, false);
            self.backbone.push(id as u32);
            self.visit(&mut prev, id);
        }
    }

    /// The node carrying `base` at backbone column `column`, other than the
    /// backbone node itself; created on first use.
    fn alt_node(&mut self, column: usize, base: u8) -> usize {
        let mut at = self.backbone[column] as usize;
        loop {
            let next = self.nodes[at].next_alt;
            if next == NIL {
                let n = self.add_node(base, false);
                self.nodes[at].next_alt = n as u32;
                return n;
            }
            at = next as usize;
            if self.nodes[at].base == base {
                return at;
            }
        }
    }

    /// Thread one aligned read into the graph.  `ops` are window-relative;
    /// `wstart` maps window column 0 to a backbone column.  `tail` holds read
    /// bases that extend past the current backbone end and become new
    /// backbone columns.
    fn thread_ops(&mut self, wstart: usize, ops: &[AlnOp], tail: &[u8]) {
        let mut prev: Option<usize> = None;
        for op in ops {
            match *op {
                AlnOp::Match(col) => {
                    let node = self.backbone[wstart + col] as usize;
                    self.visit(&mut prev, node);
                }
                AlnOp::Sub(col, base) => {
                    let node = self.alt_node(wstart + col, base);
                    self.visit(&mut prev, node);
                }
                AlnOp::Ins(base) => {
                    // Re-use an existing insert node reachable from `prev`
                    // with the same base, so identical insertions accumulate
                    // weight; otherwise create a fresh one.
                    let existing = prev.and_then(|p| {
                        self.out_edges(p)
                            .map(|(t, _)| t)
                            .find(|&t| self.nodes[t].is_insert && self.nodes[t].base == base)
                    });
                    let node = existing.unwrap_or_else(|| self.add_node(base, true));
                    self.visit(&mut prev, node);
                }
                AlnOp::Del(_) => {
                    // The deleted column is simply not visited; the edge from
                    // `prev` to the next visited node records the skip.
                }
            }
        }
        self.extend_backbone(prev, tail);
    }

    /// The heaviest path through the DAG: one DP sweep over a topological
    /// order maximising coverage-adjusted traversal weights (see the scoring
    /// note inside), then a traceback.
    pub fn heaviest_path(&self) -> DnaSeq {
        let n = self.nodes.len();
        if n == 0 {
            return DnaSeq::new();
        }
        // Kahn topological order (node ids are NOT topological: substitution
        // branches link forward to older backbone nodes).
        let mut indeg = vec![0u32; n];
        for edge in &self.edges {
            indeg[edge.to as usize] += 1;
        }
        let mut order: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        order.reserve_exact(n - order.len());
        let mut head = 0;
        while head < order.len() {
            let v = order[head] as usize;
            head += 1;
            for (t, _) in self.out_edges(v) {
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    order.push(t as u32);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "POA graph must be acyclic");

        // score[v] = best path score ending at v (0 = the path starts at v).
        // An edge u→v contributes `2·w(u,v) − outw(u)`: its traversal count
        // against half the local coverage leaving `u`.  A raw heaviest path
        // (summing traversals alone) keeps any sufficiently long minority
        // detour; the coverage penalty makes a detour win only when roughly
        // half the reads took it — a majority vote expressed as a path DP.
        let mut score = vec![0i64; n];
        let mut pred = indeg; // all zero by now; reused as the predecessor table
        pred.fill(NIL);
        for &v in &order {
            let v = v as usize;
            let outw: i64 = self.out_edges(v).map(|(_, w)| w as i64).sum();
            for (t, w) in self.out_edges(v) {
                let cand = score[v] + 2 * w as i64 - outw;
                if cand > score[t] {
                    score[t] = cand;
                    pred[t] = v as u32;
                }
            }
        }
        let mut best = 0;
        for v in 1..n {
            if score[v] > score[best] {
                best = v;
            }
        }
        let mut path = Vec::new();
        let mut v = best;
        loop {
            path.push(self.nodes[v].base);
            if pred[v] == NIL {
                break;
            }
            v = pred[v] as usize;
        }
        path.reverse();
        DnaSeq::from_codes(path)
    }
}

// ---------------------------------------------------------------------------
// Identity against a reference
// ---------------------------------------------------------------------------

/// Percent identity (matches / aligned columns) of a banded global-ish
/// alignment of `a` against `b`.  Used by the assembly-quality metrics to
/// compare a consensus sequence against the reference it should reproduce.
pub fn banded_identity(a: &DnaSeq, b: &DnaSeq, config: &ConsensusConfig) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    // Unlike read threading there is no placement uncertainty here — the two
    // sequences start together — so a ribbon on the diagonal only needs the
    // length difference plus a small allowance for indel drift (2% of the
    // longer sequence), keeping whole-contig identity linear-ish in the
    // contig length.
    let len = a.len().max(b.len());
    let half_width = config.min_band.max(a.len().abs_diff(b.len()) + len / 50);
    let band = Band { half_width, tracked: None };
    let fit = banded_fit(&mut FitScratch::default(), a.codes(), b.codes(), 0, band);
    if fit.columns == 0 {
        return 0.0;
    }
    // Bases on either side that the alignment never covered — `a` bases past
    // its end, `b` bases before its start or after its end — count as
    // unaligned columns, so a truncated or prefix-only alignment cannot
    // report 100%.
    let overhang_a = a.len() - fit.read_consumed;
    let overhang_b = b.len() - (fit.window_end - fit.window_start);
    fit.matches as f64 / (fit.columns + overhang_a + overhang_b) as f64
}

// ---------------------------------------------------------------------------
// Layout-driven consensus
// ---------------------------------------------------------------------------

/// Where a threaded read ended up: together with its alignment operations,
/// enough to tell which backbone column any of its bases sits in.
#[derive(Debug, Clone, Copy)]
struct Placement {
    /// Backbone column the alignment starts at.
    start_col: usize,
    /// Read bases the alignment consumed; the rest sit in consecutive
    /// backbone columns from `tail_col` on.
    consumed: usize,
    tail_col: usize,
}

impl Placement {
    /// Backbone column of the read's base `base` (for an inserted base, the
    /// column it precedes), given the alignment's `ops`.
    fn column_of(&self, ops: &[AlnOp], base: usize) -> usize {
        if base >= self.consumed {
            return self.tail_col + (base - self.consumed);
        }
        let (mut at, mut col) = (0, self.start_col);
        for op in ops {
            match op {
                AlnOp::Del(_) => col += 1,
                _ if at == base => break,
                AlnOp::Ins(_) => at += 1,
                AlnOp::Match(_) | AlnOp::Sub(..) => (at, col) = (at + 1, col + 1),
            }
        }
        col
    }
}

/// Build the consensus of one contig layout.
///
/// `s` is the string matrix the layout was extracted from (its edges provide
/// the placement coordinates), `reads` the read set the layout indexes into.
pub fn consensus_contig(
    contig: &Contig,
    s: &CsrMatrix<OverlapEdge>,
    reads: &ReadSet,
    config: &ConsensusConfig,
) -> ContigConsensus {
    assert!(!contig.is_empty(), "cannot build a consensus of an empty layout");
    if let [only] = contig.reads[..] {
        // Nothing to vote on: the consensus is the read, no graph needed.
        let consensus = reads.seq(only).clone();
        let len = consensus.len();
        return ContigConsensus {
            consensus,
            reads: 1,
            poa_nodes: len,
            aligned_bases: len,
            dp_cells: 0,
            unplaced_reads: 0,
        };
    }
    #[expect(clippy::expect_used, reason = "extract_contigs only emits valid walks of S")]
    let orientations =
        walk_orientations(s, &contig.reads).expect("contig layouts are valid walks of S");
    let mut graph = PoaGraph::new();
    let mut scratch = FitScratch::default();
    let mut window: Vec<u8> = Vec::new();
    let (mut dp_cells, mut unplaced_reads) = (0usize, 0usize);

    let oriented = |idx: usize, forward: bool| -> DnaSeq {
        let seq = reads.seq(contig.reads[idx]);
        if forward {
            seq.clone()
        } else {
            seq.reverse_complement()
        }
    };

    // Backbone: the first read of the layout, base `k` in column `k`.
    let first = oriented(0, orientations[0]);
    let mut aligned_bases = first.len();
    graph.extend_backbone(None, first.codes());
    let mut placed = Placement { start_col: 0, consumed: 0, tail_col: 0 };
    let mut prev_len = first.len();

    for (step, &orientation) in orientations.iter().enumerate().skip(1) {
        let (from, to) = (contig.reads[step - 1], contig.reads[step]);
        #[expect(clippy::expect_used, reason = "extract_contigs only emits edges present in S")]
        let edge = s.get(from, to).expect("contig layouts walk existing string-graph edges");
        let seq = oriented(step, orientation);
        let codes = seq.codes();
        aligned_bases += codes.len();

        // Expected placement: the mirror edge's suffix is how many bases of
        // the previous read precede this one (without it: this read's
        // non-overhanging part ends where the previous read ended), and the
        // previous read's own alignment says which backbone column its base
        // sits in.
        let overlap = codes.len().saturating_sub(edge.suffix as usize);
        let lead = s.get(to, from).map_or(prev_len.saturating_sub(overlap), |e| e.suffix as usize);
        let expected_start = placed.column_of(&scratch.ops, lead).min(graph.backbone_len());

        // The start-up ribbon allows for the overlap aligner's wandering ends
        // (module docs).  That aligner also scored this same overlap: a fit
        // well short of its score missed the overlap, so look again from a
        // wider start, up to a good fraction of the overlap itself.
        let mut half_width = 4 * config.min_band;
        let (wstart, fit) = loop {
            let wstart = expected_start.saturating_sub(half_width);
            window.clear();
            window.extend(graph.backbone[wstart..].iter().map(|&id| graph.nodes[id as usize].base));
            let band = Band { half_width, tracked: Some(config.min_band) };
            let fit = banded_fit(&mut scratch, codes, &window, expected_start - wstart, band);
            dp_cells += fit.cells;
            if 10 * fit.score >= 9 * edge.score || half_width >= overlap / 8 {
                break (wstart, fit);
            }
            half_width = 4 * half_width.max(1);
        };
        // Unrelated sequences align too, at about a tenth of a point per
        // base: a fit worth less than half the overlap's own alignment found
        // something else than the overlap.
        let (consumed, tail_col) = if fit.score > 0 && 2 * fit.score >= edge.score {
            let grown = graph.backbone_len();
            graph.thread_ops(wstart, &scratch.ops, &codes[fit.read_consumed..]);
            let ended = if fit.read_consumed < codes.len() { grown } else { wstart + fit.window_end };
            (fit.read_consumed, ended)
        } else {
            // Unplaced: trust the coordinates, and add only the bases they
            // put past the backbone's end.
            unplaced_reads += 1;
            let extra = (expected_start + codes.len()).saturating_sub(graph.backbone_len());
            let last = graph.backbone.last().map(|&id| id as usize);
            graph.extend_backbone(last, &codes[codes.len() - extra.min(codes.len())..]);
            (0, expected_start)
        };
        placed = Placement { start_col: wstart + fit.window_start, consumed, tail_col };
        prev_len = codes.len();
    }

    ContigConsensus {
        consensus: graph.heaviest_path(),
        reads: contig.reads.len(),
        poa_nodes: graph.num_nodes(),
        aligned_bases,
        dp_cells,
        unplaced_reads,
    }
}

/// Build the consensus of every contig layout, one contig per task on the
/// work-stealing pool, returned in layout order (so the result does not
/// depend on the thread count).
pub fn consensus_contigs(
    contigs: &[Contig],
    s: &CsrMatrix<OverlapEdge>,
    reads: &ReadSet,
    config: &ConsensusConfig,
) -> Vec<ContigConsensus> {
    par_ranks(contigs.len(), |i| consensus_contig(&contigs[i], s, reads, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::chain_layout;
    use dibella_seq::simulate::apply_errors;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The kernel this module had before the adaptive band, verbatim: two
    /// fresh vectors per row, a `Vec<Vec<Dir>>` traceback, the band always on
    /// the diagonal.  Kept as the oracle the new kernel must equal when its
    /// band stays on the diagonal too.
    mod oracle {
        use super::super::AlnOp;
        use dibella_align::scoring::{GAP, MATCH, MISMATCH};

        const NEG: i32 = i32::MIN / 4;

        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Dir {
            Stop,
            Diag,
            Up,
            Left,
        }

        /// Result of a banded fit alignment of a read against a backbone window.
        pub(super) struct BandedFit {
            /// Operations in read order covering read bases `0..read_consumed`.
            pub(super) ops: Vec<AlnOp>,
            /// Read bases consumed by `ops` (the rest extend past the window).
            pub(super) read_consumed: usize,
            /// Window columns spanned by `ops` (leading/trailing window columns the
            /// alignment never reached are *not* included).
            pub(super) window_consumed: usize,
            /// Matches and total aligned columns, for identity computations.
            pub(super) matches: usize,
            pub(super) columns: usize,
        }

        /// Banded "fit" alignment of `read` against `window`: the read may start at
        /// any window column near the expected `offset` (free leading window gap) and
        /// may either end inside the window or consume the window entirely (the
        /// remaining read bases are returned as the unconsumed tail).
        pub(super) fn banded_fit(
            read: &[u8],
            window: &[u8],
            offset: usize,
            band: usize,
        ) -> BandedFit {
            let rn = read.len();
            let wn = window.len();
            if rn == 0 || wn == 0 {
                return BandedFit { ops: Vec::new(), read_consumed: 0, window_consumed: 0, matches: 0, columns: 0 };
            }

            // Row i spans window columns [lo[i], hi[i]] around the expected diagonal.
            let lo_of = |i: usize| (offset + i).saturating_sub(band).min(wn);
            let hi_of = |i: usize| (offset + i + band).min(wn);
            let width = |i: usize| hi_of(i) + 1 - lo_of(i);

            // Scores of the current and previous row; direction of every banded cell.
            let mut dirs: Vec<Vec<Dir>> = Vec::with_capacity(rn + 1);
            let mut prev_row: Vec<i32> = (0..width(0)).map(|_| 0).collect(); // free start
            dirs.push(vec![Dir::Stop; width(0)]);

            // Best "free end" cell: either the window is consumed (column `wn`, the
            // rest of the read becomes the tail the caller appends to the backbone)
            // or the read is (last row, the read ends inside the window).
            let (mut best_i, mut best_j, mut best) = (0usize, 0usize, NEG);
            if wn <= hi_of(0) {
                // Degenerate: the window can be skipped entirely (score 0); only wins
                // when no real alignment scores positive.
                best = 0;
                best_j = wn;
            }

            for i in 1..=rn {
                let lo = lo_of(i);
                let hi = hi_of(i);
                let plo = lo_of(i - 1);
                let phi = hi_of(i - 1);
                let mut row = vec![NEG; hi + 1 - lo];
                let mut dir_row = vec![Dir::Stop; hi + 1 - lo];
                for j in lo..=hi {
                    let mut best = NEG;
                    let mut dir = Dir::Stop;
                    // Diagonal: consume one read and one window base.
                    if j >= 1 && (plo..=phi).contains(&(j - 1)) {
                        let d = prev_row[j - 1 - plo];
                        if d > NEG {
                            let sub = if read[i - 1] == window[j - 1] { MATCH } else { MISMATCH };
                            if d + sub > best {
                                best = d + sub;
                                dir = Dir::Diag;
                            }
                        }
                    }
                    // Up: consume a read base only (insertion into the window).
                    if (plo..=phi).contains(&j) {
                        let u = prev_row[j - plo];
                        if u > NEG && u + GAP > best {
                            best = u + GAP;
                            dir = Dir::Up;
                        }
                    }
                    // Left: consume a window base only (deletion from the read).
                    if j > lo {
                        let l = row[j - 1 - lo];
                        if l > NEG && l + GAP > best {
                            best = l + GAP;
                            dir = Dir::Left;
                        }
                    }
                    row[j - lo] = best;
                    dir_row[j - lo] = dir;
                }
                if (lo..=hi).contains(&wn) {
                    let v = row[wn - lo];
                    if v > best {
                        best = v;
                        best_i = i;
                        best_j = wn;
                    }
                }
                if i == rn {
                    for j in lo..=hi {
                        let v = row[j - lo];
                        if v > best {
                            best = v;
                            best_i = rn;
                            best_j = j;
                        }
                    }
                }
                prev_row = row;
                dirs.push(dir_row);
                if prev_row.iter().all(|&v| v <= NEG) {
                    // The whole band died (pathological placement); fall back to an
                    // empty alignment so the caller treats the read as unplaced.
                    return BandedFit { ops: Vec::new(), read_consumed: 0, window_consumed: 0, matches: 0, columns: 0 };
                }
            }

            // Traceback from the best boundary cell; read bases past `best_i` are
            // the unconsumed tail (an extension of the backbone, when the window was
            // consumed to its end).
            let mut ops_rev: Vec<AlnOp> = Vec::new();
            let (mut i, mut j) = (best_i, best_j);
            let mut matches = 0usize;
            let mut columns = 0usize;
            loop {
                let lo = lo_of(i);
                let d = dirs[i][j - lo];
                match d {
                    Dir::Stop => break,
                    Dir::Diag => {
                        columns += 1;
                        if read[i - 1] == window[j - 1] {
                            matches += 1;
                            ops_rev.push(AlnOp::Match(j - 1));
                        } else {
                            ops_rev.push(AlnOp::Sub(j - 1, read[i - 1]));
                        }
                        i -= 1;
                        j -= 1;
                    }
                    Dir::Up => {
                        columns += 1;
                        ops_rev.push(AlnOp::Ins(read[i - 1]));
                        i -= 1;
                    }
                    Dir::Left => {
                        columns += 1;
                        ops_rev.push(AlnOp::Del(j - 1));
                        j -= 1;
                    }
                }
            }
            ops_rev.reverse();
            // `j` now sits at the traceback's start column, so the alignment spanned
            // window columns `j..best_j`.
            BandedFit { ops: ops_rev, read_consumed: best_i, window_consumed: best_j - j, matches, columns }
        }
    }

    fn random_seq(len: usize, seed: u64) -> DnaSeq {
        let mut rng = SmallRng::seed_from_u64(seed);
        DnaSeq::from_codes((0..len).map(|_| rng.gen_range(0..4u8)).collect())
    }

    /// Build a synthetic layout of reads tiling `genome` at `step`, each
    /// `read_len >= 2 * step` template bases long with sequencing errors at
    /// rate `error`.  The edges carry read coordinates, as an alignment would
    /// measure them: each read is sequenced in three pieces — what precedes
    /// the next read, the middle, what overhangs the previous read.
    fn tiling_layout(
        genome: &DnaSeq,
        read_len: usize,
        step: usize,
        error: f64,
        seed: u64,
    ) -> (Contig, CsrMatrix<OverlapEdge>, ReadSet) {
        let n = (genome.len() - read_len) / step + 1;
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut reads, mut leads, mut suffixes) = (Vec::new(), Vec::new(), Vec::new());
        for start in (0..n).map(|i| i * step) {
            let mut piece = |from, to| apply_errors(&genome.slice(start + from, start + to), error, &mut rng);
            let (lead, middle, suffix) =
                (piece(0, step), piece(step, read_len - step), piece(read_len - step, read_len));
            leads.push(lead.len());
            suffixes.push(suffix.len());
            reads.push(lead.concat(&middle).concat(&suffix));
        }
        let joins: Vec<_> = leads.into_iter().zip(suffixes.into_iter().skip(1)).collect();
        chain_layout(reads, &joins)
    }

    /// The most cells the reads after the first can cost when each is fitted
    /// once: the tracking ribbon on every row, the start-up ribbon on its own.
    fn cells_bound(cfg: &ConsensusConfig, reads: &ReadSet) -> usize {
        let (track, start) = (2 * cfg.min_band + 1, 4 * cfg.min_band);
        (1..reads.len()).map(|i| track * (reads.seq(i).len() + 1) + start * (2 * start + 1)).sum()
    }

    /// `template` with every base deleted (`insert == false`) or followed by
    /// a random inserted base (`insert == true`) at rate `rate`.
    fn indel_only(template: &DnaSeq, rate: f64, insert: bool, seed: u64) -> DnaSeq {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = DnaSeq::new();
        for &b in template.codes() {
            let hit = rng.gen_bool(rate);
            if !(hit && !insert) {
                out.push_code(b);
            }
            if hit && insert {
                out.push_code(rng.gen_range(0..4u8));
            }
        }
        out
    }

    #[test]
    fn single_read_contig_consensus_is_the_read() {
        let seq = random_seq(300, 1);
        let (contig, s, reads) = chain_layout(vec![seq.clone()], &[]);
        let out = consensus_contig(&contig, &s, &reads, &ConsensusConfig::default());
        assert_eq!(out.consensus, seq);
        assert_eq!(out.reads, 1);
        assert_eq!(out.poa_nodes, 300);
        assert_eq!(out.aligned_bases, 300);
        assert_eq!(out.dp_cells, 0, "a single read is not aligned to anything");
    }

    #[test]
    fn error_free_tiling_reconstructs_the_genome_exactly() {
        let genome = random_seq(2_000, 2);
        let (contig, s, reads) = tiling_layout(&genome, 500, 250, 0.0, 3);
        let out = consensus_contig(&contig, &s, &reads, &ConsensusConfig::default());
        assert_eq!(out.consensus, genome, "error-free layout must reproduce the genome");
        assert_eq!(out.reads, contig.reads.len());
        assert!(out.poa_nodes >= genome.len());
        assert_eq!(out.unplaced_reads, 0);
    }

    #[test]
    fn noisy_tiling_consensus_beats_every_single_read() {
        let genome = random_seq(3_000, 4);
        let (contig, s, reads) = tiling_layout(&genome, 600, 60, 0.05, 5);
        let cfg = ConsensusConfig::default();
        let out = consensus_contig(&contig, &s, &reads, &cfg);
        let identity = banded_identity(&out.consensus, &genome, &cfg);
        assert!(
            identity > 0.99,
            "deep noisy pileup should polish to >99% identity, got {identity:.4}"
        );
        // Any single read has ~6% error; the consensus must be far better.
        let read_identity = banded_identity(
            reads.seq(0),
            &genome.slice(0, reads.seq(0).len() + 60),
            &cfg,
        );
        assert!(identity > read_identity, "{identity} vs raw read {read_identity}");
        let len_ratio = out.consensus.len() as f64 / genome.len() as f64;
        assert!((0.97..1.03).contains(&len_ratio), "length ratio {len_ratio}");
        assert_eq!(out.unplaced_reads, 0);
    }

    #[test]
    fn reverse_strand_reads_are_oriented_by_the_edge_direction() {
        use dibella_seq::fasta::ReadRecord;
        let genome = random_seq(900, 6);
        // Read 0 forward [0, 600), read 1 stored reverse-complemented [300, 900).
        let r0 = genome.slice(0, 600);
        let r1 = genome.slice(300, 900).reverse_complement();
        let mut reads = ReadSet::new();
        reads.push(ReadRecord { name: "f".into(), seq: r0 });
        reads.push(ReadRecord { name: "r".into(), seq: r1 });
        let mut t = dibella_sparse::Triples::new(2, 2);
        // Walking 0 -> 1 leaves 0 forward and traverses 1 reversed.
        t.push(0, 1, OverlapEdge { dir: 0b10, suffix: 300, score: 300, overlap_len: 300 });
        t.push(1, 0, OverlapEdge { dir: 0b10, suffix: 300, score: 300, overlap_len: 300 });
        let s = CsrMatrix::from_triples(&t);
        let contig = Contig { reads: vec![0, 1], estimated_length: 900, circular: false };
        let out = consensus_contig(&contig, &s, &reads, &ConsensusConfig::default());
        assert_eq!(out.consensus, genome, "reverse-strand read must be flipped before threading");
    }

    #[test]
    fn consensus_contigs_covers_every_layout() {
        let genome = random_seq(1_200, 7);
        let (contig, s, reads) = tiling_layout(&genome, 400, 200, 0.0, 8);
        let outs = consensus_contigs(&[contig.clone(), contig], &s, &reads, &ConsensusConfig::default());
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], outs[1], "same layout must give the same consensus");
    }

    #[test]
    fn banded_identity_of_identical_and_disjoint_sequences() {
        let cfg = ConsensusConfig::default();
        let a = random_seq(500, 9);
        assert!((banded_identity(&a, &a, &cfg) - 1.0).abs() < 1e-12);
        let all_a = DnaSeq::from_codes(vec![0; 500]);
        let all_t = DnaSeq::from_codes(vec![3; 500]);
        assert!(banded_identity(&all_a, &all_t, &cfg) < 0.5);
        assert_eq!(banded_identity(&DnaSeq::new(), &a, &cfg), 0.0);
    }

    #[test]
    fn banded_identity_penalises_truncation() {
        let cfg = ConsensusConfig::default();
        let a = random_seq(800, 10);
        let half = a.slice(0, 400);
        let id = banded_identity(&a, &half, &cfg);
        assert!(id < 0.6, "aligning a sequence to its half cannot be near-identical: {id}");
        // The reverse direction too: a consensus that reproduces only a
        // prefix of the reference region must be penalised for the reference
        // bases it never reached, not scored on the prefix alone.
        let id_rev = banded_identity(&half, &a, &cfg);
        assert!(
            (0.4..0.6).contains(&id_rev),
            "a perfect half-prefix covers half the reference: {id_rev}"
        );
    }

    #[test]
    fn heaviest_path_prefers_the_majority_base() {
        // Three reads vote A at one position, one votes C: consensus takes A.
        let base = random_seq(400, 11);
        let mut dissent_codes = base.codes().to_vec();
        dissent_codes[200] = (dissent_codes[200] + 1) % 4;
        let mut reads = vec![base.clone(); 3];
        reads.push(DnaSeq::from_codes(dissent_codes));
        // Full-length overlaps: suffix 0 keeps the layout aligned.
        let (contig, s, reads) = chain_layout(reads, &[(0, 0); 3]);
        let out = consensus_contig(&contig, &s, &reads, &ConsensusConfig::default());
        assert_eq!(out.consensus, base, "majority vote must win the branch");
    }

    #[test]
    fn an_unrelated_read_is_placed_by_coordinates_not_appended_whole() {
        // The middle read shares nothing with its neighbours, whatever its
        // edges claim; by those claims it covers genome 1300..4300.
        let genome = random_seq(6_000, 12);
        let reads = vec![genome.slice(0, 4_000), random_seq(3_000, 13), genome.slice(2_000, 6_000)];
        let (contig, s, reads) = chain_layout(reads, &[(1_300, 300), (700, 1_700)]);
        assert_eq!(contig.estimated_length, 6_000);
        let out = consensus_contig(&contig, &s, &reads, &ConsensusConfig::default());
        assert_eq!(out.unplaced_reads, 1);
        let ratio = out.consensus.len() as f64 / contig.estimated_length as f64;
        assert!((0.95..=1.05).contains(&ratio), "length ratio {ratio}");
        // Only the 300 bases the junk claimed past the first read's end made
        // it into the backbone; the genome either side of them is untouched
        // (the third read's path through the junk is anyone's guess).
        assert_eq!(out.consensus.slice(0, 4_000), genome.slice(0, 4_000));
        let n = out.consensus.len();
        assert_eq!(out.consensus.slice(n - 1_600, n), genome.slice(4_400, 6_000));
    }

    #[test]
    fn the_next_read_is_anchored_on_the_previous_reads_alignment() {
        // The middle read stops 150 columns short of the first read's end, so
        // the backbone's end says nothing about where the third read starts.
        let genome = random_seq(4_000, 14);
        let reads =
            vec![genome.slice(0, 3_000), genome.slice(200, 2_850), genome.slice(2_450, 4_000)];
        let (contig, s, reads) = chain_layout(reads, &[(200, 0), (2_250, 1_150)]);
        // A 64-column start-up ribbon: less than those 150 columns.
        let cfg = ConsensusConfig { min_band: 16 };
        let out = consensus_contig(&contig, &s, &reads, &cfg);
        assert_eq!(out.unplaced_reads, 0);
        assert_eq!(out.consensus, genome);
        // ... and both reads were found where they were first looked for.
        assert!(out.dp_cells <= cells_bound(&cfg, &reads), "{} cells", out.dp_cells);
    }

    #[test]
    fn a_misreported_start_is_found_from_a_wider_ribbon() {
        // The edges put the second read 300 columns from where it belongs —
        // beyond the start-up ribbon, so the first fit finds chance matches
        // only, scores far below the edge and is retried wider.
        let genome = random_seq(5_000, 20);
        let reads = vec![genome.slice(0, 4_000), genome.slice(1_000, 5_000)];
        let (contig, s, reads) = chain_layout(reads, &[(1_300, 1_000)]);
        let cfg = ConsensusConfig::default();
        let out = consensus_contig(&contig, &s, &reads, &cfg);
        assert_eq!(out.unplaced_reads, 0);
        assert_eq!(out.consensus, genome);
        assert!(out.dp_cells > cells_bound(&cfg, &reads), "{} cells: no second fit", out.dp_cells);
    }

    #[test]
    fn the_band_follows_indel_drift_many_times_its_width() {
        // 12% deletions (or insertions) and nothing else: about 700 columns
        // of one-sided drift over the overlap, against a 32-column half-width.
        let genome = random_seq(8_000, 15);
        let cfg = ConsensusConfig::default();
        for insert in [false, true] {
            let overlap = indel_only(&genome.slice(1_000, 7_000), 0.12, insert, 16);
            let drift = overlap.len().abs_diff(6_000);
            assert_eq!(drift / 100, 7, "about 720 bases of drift");
            let read = overlap.concat(&genome.slice(7_000, 8_000));

            // The kernel itself: end to end, on the true path all the way.
            let half = cfg.min_band;
            let window = genome.slice(1_000 - half, 7_000);
            let mut scratch = FitScratch::default();
            let band = Band { half_width: half, tracked: Some(half) };
            let fit = banded_fit(&mut scratch, read.codes(), window.codes(), half, band);
            assert_eq!(fit.window_end, window.len(), "the window is consumed");
            assert!(fit.window_start.abs_diff(half) <= 2, "started at {}", fit.window_start);
            assert!(fit.read_consumed.abs_diff(overlap.len()) <= 2, "{}", fit.read_consumed);
            // Every surviving template base matches (give or take chance
            // re-alignments around an indel).
            let survivors = if insert { 6_000 } else { overlap.len() };
            assert!(fit.matches >= survivors - 20, "{} of {survivors}", fit.matches);
            assert!(fit.cells <= (2 * half + 1) * (read.len() + 1));

            let reads = vec![genome.slice(0, 7_000), read];
            let (contig, s, reads) = chain_layout(reads, &[(1_000, 1_000)]);
            let out = consensus_contig(&contig, &s, &reads, &cfg);
            assert_eq!(out.unplaced_reads, 0);
            // One vote each way over the overlap: every base of either read
            // survives, so the insertions stay in and nothing else moves.
            let expected = if insert { 8_000 + drift } else { 8_000 };
            assert!(out.consensus.len().abs_diff(expected) <= 20, "consensus of {}", out.consensus.len());
            assert!(out.dp_cells <= cells_bound(&cfg, &reads), "{} cells", out.dp_cells);
        }
    }

    #[test]
    fn dp_cells_grow_linearly_with_read_length() {
        let cfg = ConsensusConfig::default();
        for read_len in [2_000usize, 8_000, 32_000] {
            let genome = random_seq(read_len * 5 / 4, 18);
            let (contig, s, reads) = tiling_layout(&genome, read_len, read_len / 4, 0.05, 19);
            assert_eq!(contig.reads.len(), 2);
            let out = consensus_contig(&contig, &s, &reads, &cfg);
            assert_eq!(out.unplaced_reads, 0);
            assert!(out.dp_cells <= cells_bound(&cfg, &reads), "{} cells", out.dp_cells);
            assert!(out.dp_cells >= cfg.min_band * reads.seq(1).len(), "{} cells", out.dp_cells);
        }
    }

    /// A read/window pair for the kernel: the read is either unrelated to the
    /// window or a noisy copy of a stretch of it.
    fn kernel_case(seed: u64) -> (Vec<u8>, Vec<u8>, usize, usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let window = random_seq(rng.gen_range(1..400), seed ^ 1);
        let offset = rng.gen_range(0..=window.len() + 3);
        let band = rng.gen_range(0..48);
        let read = if rng.gen_bool(0.2) {
            random_seq(rng.gen_range(0..300), seed ^ 2)
        } else {
            let from = rng.gen_range(0..window.len());
            let to = rng.gen_range(from..=window.len());
            let copy = apply_errors(&window.slice(from, to), rng.gen_range(0.0..0.3), &mut rng);
            // Some reads run past the window's end.
            copy.concat(&random_seq(rng.gen_range(0..60), seed ^ 3))
        };
        (read.codes().to_vec(), window.codes().to_vec(), offset, band)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn prop_on_the_diagonal_the_kernel_equals_the_old_one(seed in any::<u64>()) {
            let (read, window, offset, band) = kernel_case(seed);
            let old = oracle::banded_fit(&read, &window, offset, band);
            let mut scratch = FitScratch::default();
            let on_diagonal = Band { half_width: band, tracked: None };
            let new = banded_fit(&mut scratch, &read, &window, offset, on_diagonal);
            prop_assert_eq!(&scratch.ops, &old.ops);
            prop_assert_eq!(new.read_consumed, old.read_consumed);
            prop_assert_eq!(new.window_end - new.window_start, old.window_consumed);
            prop_assert_eq!((new.matches, new.columns), (old.matches, old.columns));
        }
    }
}
