//! Gapped x-drop seed extension (the SeqAn `extendSeed` substitute).
//!
//! Given a shared k-mer seed between two reads, the aligner extends the seed
//! to the left and to the right with a banded dynamic program that abandons
//! cells whose score falls more than `xdrop` below the best score seen — the
//! classic BLAST-style gapped x-drop extension.  The band adapts to the data:
//! with BELLA's linear-gap scoring ([`crate::scoring`]) the live band stays
//! within roughly `2·xdrop` columns of the optimal path, so extension over a
//! full long-read overlap costs `O(overlap · xdrop)`.
//!
//! ## Two-phase thresholding
//!
//! [`xdrop_extend`] evaluates the x-drop test against the best score of the
//! *completed* rows: every cell of row `i` is thresholded against
//! `best(rows < i) − xdrop`, and the best score is folded in once the row is
//! finished.  This makes the per-row computation independent of evaluation
//! order, which is what lets the vector kernel ([`crate::vector`]) process a
//! word of lanes at a time while staying **bit-identical** to this scalar
//! oracle.  (A row-sequential rule that updates `best` mid-row prunes cells to
//! the right of a new best slightly more aggressively; the two-phase rule
//! keeps a superset of those paths, so it can only find equal-or-better
//! extensions.)
//!
//! The double-buffered scratch ([`XdropScratch`]) makes the steady state
//! allocation-free: the two row buffers are reused across every extension a
//! worker performs.

use crate::scoring::{GAP, MATCH, MISMATCH};

/// Result of extending in one direction: the best score and how far the
/// extension reached into each sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtendResult {
    /// Best score reached (0 means no profitable extension).
    pub score: i32,
    /// Number of bases of the first sequence consumed at the best score.
    pub ext_a: usize,
    /// Number of bases of the second sequence consumed at the best score.
    pub ext_b: usize,
}

/// Cell-level counters of the extension kernels, accumulated across calls.
///
/// The scalar oracle and the vector kernel count identically (they visit the
/// same adaptive band), so the totals are lane-word and thread-count
/// independent; the alignment stage sums them into its `OverlapStats`
/// (`aligned_cells`, `dp_rows`, `band_width_peak`, `xdrop_terminations`,
/// `extend_calls`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtendCounters {
    /// DP cells evaluated (sum of live-band widths over all rows).
    pub cells: u64,
    /// DP rows evaluated (row 0 included), so `cells / rows` is the mean band.
    pub rows: u64,
    /// Widest live band observed in any single row.
    pub band_peak: u64,
    /// Extensions stopped by the x-drop test before consuming all of `a`.
    pub terminations: u64,
    /// Extension calls performed.
    pub calls: u64,
}

impl ExtendCounters {
    /// Fold another counter set into this one (`band_peak` takes the max).
    pub fn merge(&mut self, other: &ExtendCounters) {
        self.cells += other.cells;
        self.rows += other.rows;
        self.band_peak = self.band_peak.max(other.band_peak);
        self.terminations += other.terminations;
        self.calls += other.calls;
    }
}

/// Reusable double buffer for the scalar x-drop row DP.
///
/// One scratch per worker keeps the steady state allocation-free: the two row
/// buffers grow to the widest band ever seen and are then reused by every
/// subsequent call.
#[derive(Debug, Default)]
pub struct XdropScratch {
    prev: Vec<i32>,
    cur: Vec<i32>,
}

impl XdropScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sentinel for a pruned (dead) cell.
const NEG: i32 = i32::MIN / 4;

/// Extend an alignment from position 0 of `a` and `b` simultaneously, with a
/// gapped x-drop dynamic program.  Returns the best-scoring end points.
///
/// Allocates a fresh scratch per call; batched callers use
/// [`xdrop_extend_with`] to reuse buffers across calls.
pub fn xdrop_extend(a: &[u8], b: &[u8], xdrop: i32) -> ExtendResult {
    let mut scratch = XdropScratch::new();
    let mut counters = ExtendCounters::default();
    xdrop_extend_with(a, b, xdrop, &mut scratch, &mut counters)
}

/// [`xdrop_extend`] with caller-provided scratch and counters, allocation-free
/// once warm.  This is the **reference oracle** the vector kernel is
/// proptested against.
pub fn xdrop_extend_with(
    a: &[u8],
    b: &[u8],
    xdrop: i32,
    scratch: &mut XdropScratch,
    counters: &mut ExtendCounters,
) -> ExtendResult {
    counters.calls += 1;
    let m = b.len();
    let mut best = 0i32;
    let (mut best_i, mut best_j) = (0usize, 0usize);

    // Row 0: leading gaps in `a`.  `best` stays 0 throughout the row (all
    // scores are <= 0), so the threshold is simply -xdrop.
    scratch.prev.clear();
    {
        let mut j = 0usize;
        while j <= m {
            let sc = j as i32 * GAP;
            if sc < -xdrop {
                break;
            }
            scratch.prev.push(sc);
            j += 1;
        }
    }
    counters.cells += scratch.prev.len() as u64;
    counters.rows += 1;
    counters.band_peak = counters.band_peak.max(scratch.prev.len() as u64);
    if scratch.prev.is_empty() {
        return ExtendResult { score: 0, ext_a: 0, ext_b: 0 };
    }

    // The live column window is [lo, hi]; `prev[0]` holds column `lo`.
    let mut lo = 0usize;
    let mut hi = scratch.prev.len() - 1;

    for i in 1..=a.len() {
        let prev_lo = lo;
        let prev_hi = hi;
        // The live window can only extend one column right of the previous row.
        let new_lo = prev_lo;
        let new_hi = (prev_hi + 1).min(m);
        let thr = best - xdrop;
        let ai = a[i - 1];

        scratch.cur.clear();
        for j in new_lo..=new_hi {
            let mut sc = NEG;
            if j > prev_lo {
                // j - 1 <= prev_hi holds because j <= prev_hi + 1.
                let diag = scratch.prev[j - 1 - prev_lo];
                if diag > NEG {
                    let sub = if ai == b[j - 1] { MATCH } else { MISMATCH };
                    sc = sc.max(diag + sub);
                }
            }
            if j <= prev_hi {
                let up = scratch.prev[j - prev_lo];
                if up > NEG {
                    sc = sc.max(up + GAP);
                }
            }
            if j > new_lo {
                let left = *scratch.cur.last().unwrap();
                if left > NEG {
                    sc = sc.max(left + GAP);
                }
            }
            // Two-phase x-drop test: threshold against the best of the
            // completed rows only.
            if sc < thr {
                sc = NEG;
            }
            scratch.cur.push(sc);
        }
        counters.cells += scratch.cur.len() as u64;
        counters.rows += 1;
        counters.band_peak = counters.band_peak.max(scratch.cur.len() as u64);

        // Fold the finished row into `best` (first attainment wins ties).
        for (idx, &v) in scratch.cur.iter().enumerate() {
            if v > best {
                best = v;
                best_i = i;
                best_j = new_lo + idx;
            }
        }

        // Trim dead cells from both ends of the window; stop if nothing lives.
        match scratch.cur.iter().position(|&v| v > NEG) {
            None => {
                counters.terminations += 1;
                return ExtendResult { score: best, ext_a: best_i, ext_b: best_j };
            }
            Some(first) => {
                let last = scratch.cur.iter().rposition(|&v| v > NEG).unwrap();
                lo = new_lo + first;
                hi = new_lo + last;
                // Keep only the live range in `prev` for the next row; the
                // swap reuses the buffers without reallocating.
                std::mem::swap(&mut scratch.prev, &mut scratch.cur);
                if first > 0 || last + 1 < scratch.prev.len() {
                    scratch.prev.copy_within(first..=last, 0);
                    scratch.prev.truncate(last - first + 1);
                }
            }
        }
    }
    ExtendResult { score: best, ext_a: best_i, ext_b: best_j }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_seq::DnaSeq;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    #[test]
    fn identical_sequences_extend_fully() {
        let a = seq("ACGTACGTACGTACGT");
        let r = xdrop_extend(a.codes(), a.codes(), 10);
        assert_eq!(r.score, 16);
        assert_eq!(r.ext_a, 16);
        assert_eq!(r.ext_b, 16);
    }

    #[test]
    fn empty_inputs_yield_zero_extension() {
        let a = seq("ACGT");
        let empty: [u8; 0] = [];
        let r = xdrop_extend(a.codes(), &empty, 10);
        assert_eq!(r, ExtendResult { score: 0, ext_a: 0, ext_b: 0 });
        let r2 = xdrop_extend(&empty, &empty, 10);
        assert_eq!(r2.score, 0);
    }

    #[test]
    fn extension_stops_at_divergence() {
        // 10 matching bases then complete divergence (A vs T repeated).
        let a = seq("ACGTACGTACAAAAAAAAAAAAAAAAAAAA");
        let b = seq("ACGTACGTACTTTTTTTTTTTTTTTTTTTT");
        let r = xdrop_extend(a.codes(), b.codes(), 5);
        assert_eq!(r.score, 10);
        assert_eq!(r.ext_a, 10);
        assert_eq!(r.ext_b, 10);
    }

    #[test]
    fn single_mismatch_is_absorbed() {
        let a = seq("ACGTACGTACGTACGTACGT");
        let mut codes = a.codes().to_vec();
        codes[10] = (codes[10] + 1) % 4;
        let b = DnaSeq::from_codes(codes);
        let r = xdrop_extend(a.codes(), b.codes(), 20);
        assert_eq!(r.ext_a, 20);
        assert_eq!(r.ext_b, 20);
        assert_eq!(r.score, 19 - 1);
    }

    #[test]
    fn indel_is_absorbed_with_gap_penalty() {
        // b has one extra base inserted in the middle.
        let a = seq("ACGTACGTACGTACGTACGT");
        let b = seq("ACGTACGTACAGTACGTACGT");
        let r = xdrop_extend(a.codes(), b.codes(), 20);
        assert_eq!(r.ext_a, 20);
        assert_eq!(r.ext_b, 21);
        assert_eq!(r.score, 20 - 1);
    }

    #[test]
    fn xdrop_limits_how_far_a_bad_region_is_crossed() {
        // 5 matches, then 10 mismatches, then 30 matches.  With xdrop = 5 the
        // extension must stop at the divergence; with a large xdrop it crosses
        // the bad region and reaps the matches on the far side.
        let good = "ACGTA";
        let bad_a = "A".repeat(10);
        let bad_b = "C".repeat(10);
        let tail = "GTACGTACGTACGTACGTACGTACGTACGT";
        let a = seq(&format!("{good}{bad_a}{tail}"));
        let b = seq(&format!("{good}{bad_b}{tail}"));
        let tight = xdrop_extend(a.codes(), b.codes(), 5);
        assert_eq!(tight.score, 5);
        assert_eq!(tight.ext_a, 5);
        let loose = xdrop_extend(a.codes(), b.codes(), 100);
        assert_eq!(loose.score, 5 - 10 + 30);
        assert_eq!(loose.ext_a, 45);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_and_counts_cells() {
        let mut rng = SmallRng::seed_from_u64(9);
        let a = DnaSeq::from_codes((0..500).map(|_| rng.gen_range(0..4u8)).collect());
        let mut b_codes = a.codes().to_vec();
        for idx in (0..b_codes.len()).step_by(25) {
            b_codes[idx] = (b_codes[idx] + 1) % 4;
        }
        let b = DnaSeq::from_codes(b_codes);
        let mut scratch = XdropScratch::new();
        let mut counters = ExtendCounters::default();
        let r1 =
            xdrop_extend_with(a.codes(), b.codes(), 30, &mut scratch, &mut counters);
        let cells_one = counters.cells;
        assert!(cells_one > 0);
        assert!(counters.band_peak >= 1);
        assert_eq!(counters.calls, 1);
        // Second call with the same (now warm) scratch: identical result,
        // identical cell count.
        let r2 =
            xdrop_extend_with(a.codes(), b.codes(), 30, &mut scratch, &mut counters);
        assert_eq!(r1, r2);
        assert_eq!(counters.cells, 2 * cells_one);
        assert_eq!(r1, xdrop_extend(a.codes(), b.codes(), 30));
    }

    #[test]
    fn termination_counter_fires_on_xdrop_stops_only() {
        let mut scratch = XdropScratch::new();
        let mut counters = ExtendCounters::default();
        // Full extension: no termination.
        let a = seq("ACGTACGTACGTACGT");
        let _ = xdrop_extend_with(a.codes(), a.codes(), 10, &mut scratch, &mut counters);
        assert_eq!(counters.terminations, 0);
        // Divergence: the window dies before `a` is consumed.
        let c = seq("ACGTACGTACAAAAAAAAAAAAAAAAAAAA");
        let d = seq("ACGTACGTACTTTTTTTTTTTTTTTTTTTT");
        let _ = xdrop_extend_with(c.codes(), d.codes(), 5, &mut scratch, &mut counters);
        assert_eq!(counters.terminations, 1);
    }
}
