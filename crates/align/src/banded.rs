//! Banded "fit" alignment of a read against a window of a backbone: the
//! dynamic program the consensus stage threads reads into its POA graph with,
//! and measures the identity of a contig to its reference with.
//!
//! Two kernels compute the same fit.  The scalar one
//! (`banded_fit_scalar`) keeps one direction byte per banded cell.  The lane
//! one (`banded_fit_lanes`) is written once over the lane word of
//! `lanes.rs`, like the x-drop kernel of [`crate::vector`], and keeps each
//! row's band as `i16` words instead.  [`banded_fit`] runs the lane kernel on
//! the widest word the host has, and the scalar one only where the lane one
//! cannot be exact: a fit whose live cells spread wider than the `i16` box.
//! The two return bit-identical [`BandedFit`]s and operations.
//!
//! The lane kernel's row is the x-drop word loop: the diagonal shift, a
//! substitution-table add, the `up + GAP` max, the in-word scan and the
//! cross-word carry.  What differs:
//!
//! * **The band is geometric.**  Row `i` spans the columns `lo..=hi` the
//!   scalar kernel gives it, so the first word masks the lanes left of `lo`
//!   before its scan (a left-gap run must not start outside the band) and the
//!   last word masks the lanes right of `hi` after it.
//! * **Dead is a threshold.**  A lane below `DEAD16` is re-pinned to
//!   `NEG16`, where the scalar kernel tests `score < DEAD`.  A lane with
//!   only dead sources reaches at most `NEG16 + MATCH`, far below.
//! * **The box is checked, not assumed.**  Scores are relative to a per-row
//!   base rebased like [`crate::vector`]'s (`REBASE_AT`).  A live cell more
//!   than about 8 000 below the row's base would fall between
//!   `NEG16 + MATCH` and `DEAD16`; two ops per word fold any such lane into
//!   one per-row test, and a row that fails it hands the whole fit to the
//!   scalar kernel.  Only a ribbon some 4 100 columns wide and as many rows
//!   deep spreads that far.
//! * **No direction bytes.**  The traceback reads each step's direction off
//!   the stored scores with the scalar kernel's tie rule (strict `>` in the
//!   order diagonal, up, left): DIAG if `s == diag + sub`, else UP if
//!   `s == up + GAP`, else LEFT.  One compare of a splatted score against the
//!   neighbour's word answers each question.

#[cfg(target_arch = "x86_64")]
use crate::batch::WideWord;
use crate::batch::Word;
use crate::lanes::{Lanes, GAP16, MATCH16, MISMATCH16};
use crate::scoring::{GAP, MATCH, MISMATCH};
use crate::vector::{NEG16, REBASE_AT};

/// One traceback operation of a fit, in window coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlnOp {
    /// Read base equals window column `col`.
    Match(usize),
    /// Read base substitutes window column `col`.
    Sub(usize, u8),
    /// Read base inserted between window columns.
    Ins(u8),
    /// Window column `col` deleted from the read.
    Del(usize),
}

/// Where [`banded_fit`] puts the band of each row.
#[derive(Debug, Clone, Copy)]
pub struct Band {
    /// Half-width of the ribbon on the expected diagonal: row `i` spans
    /// columns `offset + i ± half_width`.
    pub half_width: usize,
    /// `Some(w)`: only the first `half_width` rows stay on the diagonal — as
    /// many rows as it has columns either side, for the true diagonal to
    /// stand out — and every later row spans `w` columns either side of one
    /// past the previous row's best column.
    pub tracked: Option<usize>,
}

/// Result of a banded fit alignment of a read against a backbone window; the
/// operations themselves are left in [`FitScratch::ops`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BandedFit {
    /// Read bases consumed by the operations (the rest extend past the
    /// window).
    pub read_consumed: usize,
    /// Window columns `window_start..window_end` are the ones the operations
    /// span (leading/trailing window columns the alignment never reached are
    /// *not* included).
    pub window_start: usize,
    /// End (exclusive) of the window columns the operations span.
    pub window_end: usize,
    /// Matches among the aligned columns.
    pub matches: usize,
    /// Total aligned columns, for identity computations.
    pub columns: usize,
    /// Score of the alignment.
    pub score: i32,
    /// DP cells of the band evaluated.
    pub cells: usize,
}

/// Reusable buffers of [`banded_fit`]; one serves every read of a layout.
#[derive(Debug, Default)]
pub struct FitScratch {
    /// The alignment the last fit found, in read order.
    pub ops: Vec<AlnOp>,
    scalar: ScalarScratch,
    lanes: LaneScratch<Word>,
    /// Grown only on a host with AVX2, where `lanes` then stays empty.
    #[cfg(target_arch = "x86_64")]
    lanes_wide: LaneScratch<WideWord>,
}

/// Buffers of the scalar kernel, grown only when it runs.
#[derive(Debug, Default)]
struct ScalarScratch {
    /// Scores of the previous and the current row, one dead cell before the
    /// band and two after it, so a cell can read all its neighbours unchecked.
    prev: Vec<i32>,
    cur: Vec<i32>,
    /// Direction of every banded cell, rows back to back.
    dirs: Vec<u8>,
    /// Per row: the first window column of its band and where its cells
    /// start in `dirs`.
    rows: Vec<(usize, usize)>,
}

/// Buffers of the lane kernel on word `L`.
#[derive(Debug)]
pub(crate) struct LaneScratch<L> {
    /// Every row's band words `ws..=we` and one dead fence word after them,
    /// rows back to back: the next row reads its `up` and `diag` sources
    /// here, the traceback its directions.  Only ever grown, and then to the
    /// size the fit needs, so stale words past a row are never read.
    words: Vec<L>,
    /// `sub[w][c]`: lane `t` scores base `c` of the read against
    /// `window[N·w + t - 1]`; built lazily as the band reaches word `w`.
    sub: Vec<[L; 4]>,
    rows: Vec<LaneRow>,
}

impl<L> Default for LaneScratch<L> {
    fn default() -> Self {
        Self { words: Vec::new(), sub: Vec::new(), rows: Vec::new() }
    }
}

/// Where a row of the lane kernel sits in [`LaneScratch::words`].
#[derive(Debug, Clone, Copy)]
struct LaneRow {
    /// Absolute window word of the row's first stored word.
    first_word: usize,
    /// Index of that word in `words`.
    at: usize,
    /// The row's scores are `base` plus its lanes.
    base: i32,
}

/// Score of a cell no alignment reaches (scalar kernel).
const NEG: i32 = i32::MIN / 4;
/// Anything below this is a dead cell plus a few penalties: still dead.
const DEAD: i32 = NEG / 2;

/// A lane below this is dead, the lane kernel's twin of [`DEAD`].
const DEAD16: i16 = NEG16 / 2;
/// `v + BOX_BIAS` (wrapping) moves the lanes strictly between
/// `NEG16 + MATCH` (the most a cell with only dead sources scores) and
/// [`DEAD16`] — live cells that left the `i16` box — above [`OUT_OF_BOX`], and
/// every other lane the kernel can produce below it.
const BOX_BIAS: i16 = i16::MAX.wrapping_sub(DEAD16).wrapping_add(1);
const OUT_OF_BOX: i16 = (NEG16 + MATCH16).wrapping_add(BOX_BIAS);

// Traceback directions of the scalar kernel, one byte per banded cell.
const STOP: u8 = 0;
const DIAG: u8 = 1;
const UP: u8 = 2;
const LEFT: u8 = 3;

/// Banded "fit" alignment of `read` against `window`: the read may start at
/// any window column of row 0's band (free leading window gap) and may either
/// end inside the window or consume the window entirely (the remaining read
/// bases are the unconsumed tail).  Allocates nothing once `scratch` has
/// grown to the size of the largest read it has seen.
///
/// Runs the lane kernel on the widest word the host has (see the module
/// docs), the scalar kernel where that one cannot be exact; both give the
/// same result.
pub fn banded_fit(
    scratch: &mut FitScratch,
    read: &[u8],
    window: &[u8],
    offset: usize,
    band: Band,
) -> BandedFit {
    lane_fit(scratch, read, window, offset, band)
        .unwrap_or_else(|| banded_fit_scalar(scratch, read, window, offset, band))
}

/// The lane kernel on the host's widest word.
fn lane_fit(
    scratch: &mut FitScratch,
    read: &[u8],
    window: &[u8],
    offset: usize,
    band: Band,
) -> Option<BandedFit> {
    let ops = &mut scratch.ops;
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        return WideWord::fit(&mut scratch.lanes_wide, ops, read, window, offset, band);
    }
    Word::fit(&mut scratch.lanes, ops, read, window, offset, band)
}

/// The scalar kernel: the fallback of [`banded_fit`] and the oracle its lane
/// kernel is tested against.
pub(crate) fn banded_fit_scalar(
    scratch: &mut FitScratch,
    read: &[u8],
    window: &[u8],
    offset: usize,
    band: Band,
) -> BandedFit {
    let FitScratch { ops, scalar: ScalarScratch { prev, cur, dirs, rows }, .. } = scratch;
    ops.clear();
    let rn = read.len();
    let wn = window.len();
    if rn == 0 || wn == 0 {
        return BandedFit::default();
    }
    let half = band.half_width;
    let diagonal = |i: usize| ((offset + i).saturating_sub(half).min(wn), (offset + i + half).min(wn));

    // Row 0: a free start anywhere in its band.
    let (mut plo, mut phi) = diagonal(0);
    prev.clear();
    prev.push(NEG);
    prev.resize(phi - plo + 2, 0);
    prev.extend([NEG, NEG]);
    dirs.clear();
    dirs.resize(phi + 1 - plo, STOP);
    rows.clear();
    rows.push((plo, 0));
    let mut cells = 0;
    // Best column of the previous row (row 0 is flat: take the diagonal).
    let mut track = offset.min(wn);

    // Best "free end" cell: either the window is consumed (column `wn`, the
    // rest of the read becomes the tail the caller appends to the backbone)
    // or the read is (last row, the read ends inside the window).
    let (mut best_i, mut best_j, mut best) = (0usize, 0usize, NEG);
    if wn <= phi {
        // Degenerate: the window can be skipped entirely (score 0); only wins
        // when no real alignment scores positive.
        best = 0;
        best_j = wn;
    }

    for i in 1..=rn {
        // The band: never left of the previous row's (those cells are dead)
        // and at most two columns further right (the padding of `prev`).
        let (lo, hi) = match band.tracked {
            Some(w) if i > half => {
                let hi = (track + 1 + w).min(phi + 2).min(wn);
                ((track + 1).saturating_sub(w).max(plo).min(hi), hi)
            }
            _ => diagonal(i),
        };
        let width = hi + 1 - lo;
        cells += width;
        cur.clear();
        cur.resize(width + 3, NEG);
        let row_dirs = dirs.len();
        dirs.resize(row_dirs + width, STOP);
        rows.push((lo, row_dirs));

        // Column `j` reads the previous row's `j − 1` (diagonal: one read and
        // one window base) at `prev[j − plo]` and its `j` (up: a read base
        // only, an insertion into the window) at `prev[j − plo + 1]`; `left`
        // carries this row's `j − 1` (a window base only, a deletion).
        let mut left = NEG;
        if lo == 0 {
            // Column 0 has no window base: only "up" reaches it.
            let up = prev[1] + GAP;
            if up > DEAD {
                left = up;
                cur[1] = up;
                dirs[row_dirs] = UP;
            }
        }
        let first = lo.max(1);
        let n = hi + 1 - first;
        let r = read[i - 1];
        let sources = prev[first - plo..][..n].iter().zip(&prev[first - plo + 1..][..n]);
        let outputs = cur[first - lo + 1..][..n].iter_mut().zip(&mut dirs[row_dirs + first - lo..]);
        for (((&diag, &up), &w), (out, dir_out)) in sources.zip(&window[first - 1..hi]).zip(outputs) {
            // Ties keep the earlier of diagonal, up, left.
            let mut score = diag + if r == w { MATCH } else { MISMATCH };
            let mut dir = DIAG;
            if up + GAP > score {
                score = up + GAP;
                dir = UP;
            }
            if left + GAP > score {
                score = left + GAP;
                dir = LEFT;
            }
            if score < DEAD {
                score = NEG;
                dir = STOP;
            }
            *out = score;
            *dir_out = dir;
            left = score;
        }

        let row = &cur[1..=width];
        let mut row_best = NEG;
        for (k, &v) in row.iter().enumerate() {
            if v > row_best {
                row_best = v;
                track = lo + k;
            }
        }
        if row_best == NEG {
            // The whole band died (pathological placement): no alignment.
            return BandedFit { cells, ..BandedFit::default() };
        }
        if hi == wn && row[wn - lo] > best {
            best = row[wn - lo];
            best_i = i;
            best_j = wn;
        }
        if i == rn && row_best > best {
            best = row_best;
            best_i = rn;
            best_j = track;
        }
        std::mem::swap(prev, cur);
        (plo, phi) = (lo, hi);
    }

    // Traceback from the best boundary cell; read bases past `best_i` are
    // the unconsumed tail (an extension of the backbone, when the window was
    // consumed to its end).
    let (mut i, mut j) = (best_i, best_j);
    let mut matches = 0usize;
    loop {
        let (lo, row_dirs) = rows[i];
        match dirs[row_dirs + j - lo] {
            DIAG => {
                if read[i - 1] == window[j - 1] {
                    matches += 1;
                    ops.push(AlnOp::Match(j - 1));
                } else {
                    ops.push(AlnOp::Sub(j - 1, read[i - 1]));
                }
                i -= 1;
                j -= 1;
            }
            UP => {
                ops.push(AlnOp::Ins(read[i - 1]));
                i -= 1;
            }
            LEFT => {
                ops.push(AlnOp::Del(j - 1));
                j -= 1;
            }
            _ => break,
        }
    }
    ops.reverse();
    BandedFit {
        read_consumed: best_i,
        window_start: j,
        window_end: best_j,
        matches,
        columns: ops.len(),
        score: best,
        cells,
    }
}

/// The lane kernel on word `L`: [`banded_fit_scalar`]'s result, or `None`
/// when a live cell left the `i16` box.
#[inline(always)]
pub(crate) fn banded_fit_lanes<L: Lanes>(
    scratch: &mut LaneScratch<L>,
    ops: &mut Vec<AlnOp>,
    read: &[u8],
    window: &[u8],
    offset: usize,
    band: Band,
) -> Option<BandedFit> {
    ops.clear();
    let (rn, wn, n) = (read.len(), window.len(), L::N);
    if rn == 0 || wn == 0 {
        return Some(BandedFit::default());
    }
    let half = band.half_width;
    let diagonal = |i: usize| ((offset + i).saturating_sub(half).min(wn), (offset + i + half).min(wn));
    let negv = L::splat(NEG16);

    // The most words the fit can store: a row `d + 1` cells wide straddles
    // at most `⌈d / N⌉ + 1` words, and has its fence.
    let row_words = |d: usize| d.div_ceil(n) + 2;
    let ribbon_rows = if band.tracked.is_some() { rn.min(half) } else { rn };
    let tracked_words = band.tracked.map_or(0, |w| row_words(2 * w));
    let need = (ribbon_rows + 1) * row_words(2 * half) + (rn - ribbon_rows) * tracked_words;
    let LaneScratch { words, sub, rows } = scratch;
    if words.len() < need {
        words.reserve_exact(need - words.len());
        words.resize(need, negv);
    }
    if sub.len() <= wn / n {
        sub.resize(wn / n + 1, [negv; 4]);
    }
    let mut sub_built = 0;
    rows.clear();
    rows.reserve(rn + 1);

    let gap1 = L::splat(GAP16);
    let (match16, mism16) = (L::splat(MATCH16), L::splat(MISMATCH16));
    // Cross-word scan carry, as in the x-drop kernel.
    let ramp = L::from_fn(|t| (t as i16 + 1) * GAP16);
    let word_gap = L::splat(n as i16 * GAP16);
    let lane_ids = L::from_fn(|t| t as i16);
    let (zero, dead, box_bias) = (L::splat(0), L::splat(DEAD16), L::splat(BOX_BIAS));

    // Row 0: a free start anywhere in its band.
    let (mut plo, mut phi) = diagonal(0);
    let (mut pws, mut pwe) = (plo / n, phi / n);
    for (k, word) in words[..pwe + 2 - pws].iter_mut().enumerate() {
        let w = pws + k;
        *word = L::from_fn(|t| if (plo..=phi).contains(&(w * n + t)) { 0 } else { NEG16 });
    }
    rows.push(LaneRow { first_word: pws, at: 0, base: 0 });
    let (mut at, mut base) = (0usize, 0i32);
    let mut cells = 0;
    let mut track = offset.min(wn);
    let (mut best_i, mut best_j, mut best) = (0usize, 0usize, NEG);
    if wn <= phi {
        best = 0;
        best_j = wn;
    }

    for i in 1..=rn {
        let (lo, hi) = match band.tracked {
            Some(w) if i > half => {
                let hi = (track + 1 + w).min(phi + 2).min(wn);
                ((track + 1).saturating_sub(w).max(plo).min(hi), hi)
            }
            _ => diagonal(i),
        };
        cells += hi + 1 - lo;
        let (ws, we) = (lo / n, hi / n);
        let ai = usize::from(read[i - 1]);
        while sub_built <= we {
            // Column j consumes window[j - 1]; column 0 and columns past the
            // window get a code no base has (those cells are outside the band
            // or have a dead diagonal anyway).
            let codes = L::from_fn(|t| match (sub_built * n + t).checked_sub(1) {
                Some(col) if col < wn => i16::from(window[col]),
                _ => -1,
            });
            for (c, table) in sub[sub_built].iter_mut().enumerate() {
                *table = codes.eq_mask(L::splat(c as i16)).select(match16, mism16);
            }
            sub_built += 1;
        }

        // The previous row's words `pws..=pwe + 1` (its fence last) and this
        // row's `ws..=we + 1` right after them; the band never starts left of
        // the previous one and ends at most one word further right, so every
        // source word is one of them.
        let out_at = at + (pwe + 2 - pws);
        let (stored, fresh) = words.split_at_mut(out_at);
        let prev = &stored[at..];
        let out = &mut fresh[..we + 2 - ws];
        let subs = &sub[ws..=we];

        // The first word: its lanes left of `lo` are outside the band, so
        // they are dead before the scan can carry them into `lo`.
        let p = prev[ws - pws];
        let pm1 = if ws > pws { prev[ws - 1 - pws] } else { negv };
        let left_of_lo = lane_ids.lt_mask(L::splat((lo - ws * n) as i16));
        let tmp = p.shift_in(pm1).add(subs[0][ai]).vmax(p.add(gap1));
        let s = left_of_lo.select(negv, tmp).scan();
        let mut carry = s.broadcast_last();
        let mut outside = s.add(box_bias);
        let mut word = s.lt_mask(dead).select(negv, s);
        out[0] = word;
        let mut rowmax = negv;
        let mut pm1 = p;
        // The word loop of the x-drop kernel, with a fixed dead threshold
        // and the box test in place of the x-drop test.
        let rest = prev[ws + 1 - pws..=we - pws].iter().zip(&mut out[1..=we - ws]).zip(&subs[1..]);
        for ((&p, o), sub_w) in rest {
            rowmax = rowmax.vmax(word);
            let tmp = p.shift_in(pm1).add(sub_w[ai]).vmax(p.add(gap1));
            pm1 = p;
            let s = tmp.scan();
            let v = s.vmax(carry.add(ramp));
            carry = s.broadcast_last().vmax(carry.add(word_gap));
            outside = outside.vmax(v.add(box_bias));
            word = v.lt_mask(dead).select(negv, v);
            *o = word;
        }
        // Lanes right of `hi` in the last word must stay dead: a left-gap
        // run spills past the band's right edge.
        let right_of_hi = L::splat((hi - we * n) as i16).lt_mask(lane_ids);
        word = right_of_hi.select(negv, word);
        out[we - ws] = word;
        out[we + 1 - ws] = negv;
        rowmax = rowmax.vmax(word);
        if outside.hmax() > OUT_OF_BOX {
            return None;
        }
        let row_best = rowmax.hmax();
        if row_best == NEG16 {
            // The whole band died (pathological placement): no alignment.
            return Some(BandedFit { cells, ..BandedFit::default() });
        }

        // The row's first best column steers the next band, and ends the
        // fit on the last row.
        if band.tracked.is_some() && i >= half || i == rn {
            let bestv = L::splat(row_best);
            for (k, w) in out.iter().enumerate() {
                let hits = w.eq_mask(bestv).ne_bits(zero);
                if hits != 0 {
                    track = (ws + k) * n + (hits.trailing_zeros() / L::STRIDE) as usize;
                    break;
                }
            }
        }
        if hi == wn {
            let at_wn = lane_ids.eq_mask(L::splat((wn - we * n) as i16)).select(word, negv).hmax();
            if at_wn != NEG16 && base + i32::from(at_wn) > best {
                best = base + i32::from(at_wn);
                best_i = i;
                best_j = wn;
            }
        }
        if i == rn && base + i32::from(row_best) > best {
            best = base + i32::from(row_best);
            best_i = rn;
            best_j = track;
        }

        // Rebase before the relative scores can outgrow i16; dead lanes sink
        // below the sentinel and the max lifts them back.
        if i32::from(row_best) > REBASE_AT {
            let down = L::splat(-row_best);
            for word in &mut out[..=we - ws] {
                *word = word.add(down).vmax(negv);
            }
            base += i32::from(row_best);
        }
        rows.push(LaneRow { first_word: ws, at: out_at, base });
        (at, pws, pwe, plo, phi) = (out_at, ws, we, lo, hi);
    }

    // Traceback from the best boundary cell, each step's direction read off
    // the scores; row 0 is where every alignment starts.
    let (mut i, mut j, mut score) = (best_i, best_j, best);
    let mut matches = 0usize;
    while i > 0 {
        let above = rows[i - 1];
        let r = read[i - 1];
        if j > 0 {
            let same = r == window[j - 1];
            let sub = if same { MATCH } else { MISMATCH };
            if holds(words, above, j - 1, score - sub) {
                ops.push(if same { AlnOp::Match(j - 1) } else { AlnOp::Sub(j - 1, r) });
                matches += usize::from(same);
                (i, j, score) = (i - 1, j - 1, score - sub);
                continue;
            }
        }
        if holds(words, above, j, score - GAP) {
            ops.push(AlnOp::Ins(r));
            i -= 1;
        } else {
            ops.push(AlnOp::Del(j - 1));
            j -= 1;
        }
        score -= GAP;
    }
    ops.reverse();
    Some(BandedFit {
        read_consumed: best_i,
        window_start: j,
        window_end: best_j,
        matches,
        columns: ops.len(),
        score: best,
        cells,
    })
}

/// Whether column `col` of the stored `row` is live and scores `score`.
#[inline(always)]
fn holds<L: Lanes>(words: &[L], row: LaneRow, col: usize, score: i32) -> bool {
    let (w, t) = (col / L::N, col % L::N);
    match i16::try_from(score - row.base) {
        Ok(rel) if rel != NEG16 && w >= row.first_word => {
            let hits = words[row.at + w - row.first_word].eq_mask(L::splat(rel)).ne_bits(L::splat(0));
            hits >> (t as u32 * L::STRIDE) & 1 != 0
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_seq::{simulate::apply_errors, DnaSeq};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, seed: u64) -> DnaSeq {
        let mut rng = SmallRng::seed_from_u64(seed);
        DnaSeq::from_codes((0..len).map(|_| rng.gen_range(0..4u8)).collect())
    }

    /// The scalar fit and its operations, on a fresh scratch.
    fn scalar(read: &[u8], window: &[u8], offset: usize, band: Band) -> (BandedFit, Vec<AlnOp>) {
        let mut scratch = FitScratch::default();
        let fit = banded_fit_scalar(&mut scratch, read, window, offset, band);
        (fit, scratch.ops)
    }

    /// One fit on word `L` through `scratch`, held to the scalar kernel: every
    /// field of the result, and the operations.
    fn check<L: Lanes>(
        scratch: &mut LaneScratch<L>,
        read: &[u8],
        window: &[u8],
        offset: usize,
        band: Band,
    ) -> BandedFit {
        let mut ops = Vec::new();
        let got = L::fit(scratch, &mut ops, read, window, offset, band);
        let (want, want_ops) = scalar(read, window, offset, band);
        assert_eq!(got, Some(want), "{}, {band:?}", L::NAME);
        assert_eq!(ops, want_ops, "{}, {band:?}", L::NAME);
        want
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

    /// Two `kernel_case` pairs under both band kinds; one scratch serves all
    /// four fits, so state left by one fit must never leak into the next.
    fn kernel_cases_match_scalar<L: Lanes>(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 4);
        let scratch = &mut LaneScratch::<L>::default();
        for case in [seed, seed ^ 5] {
            let (read, window, offset, half_width) = kernel_case(case);
            for tracked in [None, Some(rng.gen_range(0..40))] {
                check(scratch, &read, &window, offset, Band { half_width, tracked });
            }
        }
    }

    /// A 9 kb read at 1% error scores past `REBASE_AT` twice, on the tracked
    /// band and on a 129-column ribbon.
    fn long_fits_cross_the_rebase<L: Lanes>() {
        let mut rng = SmallRng::seed_from_u64(31);
        let window = random_seq(9_000, 32);
        let read = apply_errors(&window, 0.01, &mut rng);
        let scratch = &mut LaneScratch::<L>::default();
        for tracked in [Some(32), None] {
            let band = Band { half_width: 64, tracked };
            let fit = check(scratch, read.codes(), window.codes(), 0, band);
            assert!(fit.score > 2 * REBASE_AT, "{fit:?}");
        }
    }

    #[test]
    fn long_fits_cross_the_rebase_on_every_lane_word() {
        for_every_lane_word!(long_fits_cross_the_rebase());
    }

    /// An exact match on a ribbon as wide as the read: column 0, reached by
    /// insertions alone, scores `-i` in row `i` while the diagonal scores
    /// `i`, so by row 4 098 it lies past `DEAD16` below the row's base.  The
    /// lane kernel gives up, and the dispatcher runs the scalar one (whose
    /// buffers grow only when it runs).
    #[test]
    fn the_dispatcher_returns_the_scalar_fit_where_the_lanes_cannot_be_exact() {
        let seq = random_seq(4_200, 34);
        let (seq, band) = (seq.codes(), Band { half_width: seq.len(), tracked: None });
        let mut scratch = FitScratch::default();
        let fit = banded_fit(&mut scratch, seq, seq, 0, band);
        assert!(!scratch.scalar.dirs.is_empty(), "the scalar kernel ran");
        assert_eq!((fit.score, fit.matches, fit.columns), (4_200, 4_200, 4_200));
        assert!(scratch.ops.iter().enumerate().all(|(k, &op)| op == AlnOp::Match(k)));
    }

    /// The box test flags exactly the lanes between the most a dead-sourced
    /// cell scores and `DEAD16`.
    #[test]
    fn the_box_test_flags_exactly_the_live_cells_below_dead16() {
        for v in i16::MIN..=i16::MAX {
            let flagged = v.wrapping_add(BOX_BIAS) > OUT_OF_BOX;
            assert_eq!(flagged, NEG16 + MATCH16 < v && v < DEAD16, "lane {v}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        // Every lane word the target has, held to the scalar kernel.
        #[test]
        fn prop_every_lane_word_fits_like_the_scalar_kernel(seed in any::<u64>()) {
            for_every_lane_word!(kernel_cases_match_scalar(seed));
        }
    }
}
