//! Vector x-drop extension kernel: one DP row advances a `Lanes` word at a
//! time.
//!
//! This is the lane-packed twin of the scalar oracle in [`crate::xdrop`],
//! written once over the lane word — `__m128i` on x86-64, a plain `[i16; 8]`
//! everywhere else (`lanes.rs`).  DP scores are `i16` lanes, lane `t` of
//! word `w` holding column `N·w + t`; the row buffers are indexed by absolute
//! word, so the adaptive band just slides over them with no per-row
//! repacking:
//!
//! ```text
//!   word w:  | 8w | 8w+1 | 8w+2 | 8w+3 | 8w+4 | 8w+5 | 8w+6 | 8w+7 |   i16 lanes
//! ```
//!
//! Lane adds are wrapping; the value-range guards of [`vector_eligible`] keep
//! every intermediate inside `i16`, so they are *exact* — no saturation,
//! hence scores bit-identical to the oracle.  Dead cells hold the sentinel
//! `NEG16`; a dead lane plus any bounded addend stays far below every
//! threshold, so dead lanes may freely participate in the maxes.
//!
//! The within-row left-gap dependency `run[j] = max(tmp[j], run[j-1] + gap)`
//! is a max-plus prefix scan: log-steps inside a word (`Lanes::scan`) plus a
//! sequential cross-word carry through a `gap`-ramp broadcast.
//!
//! Scores are kept *relative* to a running `i64` base: when the in-band best
//! exceeds `REBASE_AT`, the base absorbs it and every live lane is shifted
//! down (dead lanes are re-pinned at `NEG16`).  That gives unbounded total
//! scores (long perfect matches) with `i16` lanes.
//!
//! The kernel implements exactly the two-phase thresholding of
//! [`crate::xdrop::xdrop_extend`]; the tests at the bottom hold it to the
//! oracle, results and counters, for every lane word the target has.

use crate::lanes::Lanes;
use crate::scoring::ScoringScheme;
use crate::xdrop::{ExtendCounters, ExtendResult};

/// Dead-cell sentinel per lane.  `-16384` leaves headroom on both sides:
/// `NEG16` plus a substitution and two words of gap steps cannot wrap below
/// `i16::MIN`, and live scores stay below `REBASE_AT + match` which cannot
/// collide with it from above.
pub(crate) const NEG16: i16 = -16384;

/// Rebase the relative scores into the `i64` base once the in-band best
/// exceeds this, keeping all lane values well inside `i16`.
const REBASE_AT: i32 = 4096;

/// Can the vector kernel run this scoring scheme bit-exactly?
///
/// The bounds box every intermediate inside `i16` under wrapping lane adds
/// (see the module docs): per-step addends within ±63, relative scores within
/// `[-xdrop, REBASE_AT + 63]` with `xdrop ≤ 3000`, dead sentinel at `-16384`.
/// The default and `for_error_rate` schemes (`match 1, mismatch -1, gap -1`,
/// `xdrop ≤ ~100`) are comfortably inside; exotic schemes (zero/positive gap,
/// huge penalties, huge xdrop) take the scalar oracle instead.
pub fn vector_eligible(scoring: ScoringScheme, xdrop: i32) -> bool {
    (1..=63).contains(&scoring.match_score)
        && (-63..=0).contains(&scoring.mismatch)
        && (-63..=-1).contains(&scoring.gap)
        && (0..=3000).contains(&xdrop)
}

/// Reusable word buffers for the vector kernel.
#[derive(Debug)]
pub(crate) struct VectorScratch<L> {
    prev: Vec<L>,
    cur: Vec<L>,
    /// `sub[4 * w + c]`: lane `t` scores base `c` of `a` against
    /// `b[N·w + t - 1]`.  Rebuilt by every call, lazily as the band reaches
    /// new words, so early-terminating extensions never pay for the full
    /// length of `b`.
    sub: Vec<L>,
}

impl<L> Default for VectorScratch<L> {
    fn default() -> Self {
        Self { prev: Vec::new(), cur: Vec::new(), sub: Vec::new() }
    }
}

/// Vector twin of [`crate::xdrop::xdrop_extend_with`]: same two-phase x-drop
/// semantics, bit-identical [`ExtendResult`], `L::N` cells per word.
///
/// The caller must check [`vector_eligible`] first; the batched engine
/// ([`crate::batch`]) does this and falls back to the scalar oracle.
pub(crate) fn xdrop_extend_vector<L: Lanes>(
    a: &[u8],
    b: &[u8],
    scoring: ScoringScheme,
    xdrop: i32,
    scratch: &mut VectorScratch<L>,
    counters: &mut ExtendCounters,
) -> ExtendResult {
    debug_assert!(vector_eligible(scoring, xdrop));
    counters.calls += 1;
    let m = b.len();
    // Words covering columns 0..=m, plus one guard word at the right so the
    // row after a window ending at column m can still read a NEG word.
    let nw = m / L::N + 2;
    let negv = L::splat(NEG16);
    if scratch.prev.len() < nw {
        scratch.prev.resize(nw, negv);
        scratch.cur.resize(nw, negv);
        scratch.sub.resize(4 * nw, negv);
    }
    let mut sub_built = 0;

    let gap = scoring.gap as i16;
    let gap1 = L::splat(gap);
    let match16 = L::splat(scoring.match_score as i16);
    let mism16 = L::splat(scoring.mismatch as i16);
    // Cross-word scan carry ramp: lane t adds (t + 1) · gap to the carried
    // run value from the previous word.
    let ramp = L::from_fn(|t| ((t as i32 + 1) * scoring.gap) as i16);
    let lane_ids = L::from_fn(|t| t as i16);

    // Best score = base + best_rel; lanes store scores relative to `base`.
    let mut base = 0i64;
    let mut best_rel = 0i32;
    let (mut best_i, mut best_j) = (0usize, 0usize);

    // Row 0: leading gaps in `a`; fills columns 0..=r0_hi (j·gap ≥ -xdrop).
    // gap ≤ -1 so the row-0 width is at most xdrop + 1 ≪ i16 range.
    let r0_width = ((xdrop / -scoring.gap) as usize + 1).min(m + 1);
    let row0_we = (r0_width - 1) / L::N;
    let row0 = |j: usize| if j < r0_width { (j as i32 * scoring.gap) as i16 } else { NEG16 };
    for w in 0..=row0_we {
        scratch.prev[w] = L::from_fn(|t| row0(w * L::N + t));
    }
    scratch.prev[row0_we + 1] = negv;
    counters.cells += r0_width as u64;
    counters.band_peak = counters.band_peak.max(r0_width as u64);

    // Live window [lo, hi] (absolute columns) of the previous row.
    let mut lo = 0usize;
    let mut hi = r0_width - 1;

    for i in 1..=a.len() {
        let wlo = lo;
        let whi = (hi + 1).min(m);
        let ws = wlo / L::N;
        let we = whi / L::N;
        // best_rel ≤ REBASE_AT and xdrop ≤ 3000, so this fits an i16 lane.
        let thr = L::splat((best_rel - xdrop) as i16);
        let ai = a[i - 1] as usize;
        while sub_built <= we {
            // Column j consumes b[j - 1]; j == 0 and j > b.len() lanes get a
            // code no base has and score as mismatch in all four tables
            // (those cells are dead/outside the window anyway).
            let codes = L::from_fn(|t| match (sub_built * L::N + t).checked_sub(1) {
                Some(col) if col < m => i16::from(b[col]),
                _ => -1,
            });
            for c in 0..4 {
                let hit = codes.eq_mask(L::splat(c as i16));
                scratch.sub[4 * sub_built + c] = hit.select(match16, mism16);
            }
            sub_built += 1;
        }

        // Masks for the boundary words: lanes outside [wlo, whi] must stay
        // dead (a left-gap run can spill past the window's right edge).
        let before_lo = lane_ids.lt_mask(L::splat((wlo - ws * L::N) as i16));
        let after_hi = L::splat((whi - we * L::N) as i16).lt_mask(lane_ids);

        // One fused pass: diag/up candidates, the left-gap prefix scan,
        // thresholding and boundary masks — with the row maximum and the
        // live word extent folded in, so the finished row never needs to be
        // re-read.  `carry` holds the pre-threshold run value of the last
        // lane of the previous word (the scan is sequential across words,
        // lane-parallel within).
        let mut carry: i16 = NEG16;
        let mut rowmax = negv;
        let mut first_w = usize::MAX;
        let mut last_w = ws;
        let mut pm1 = if ws == 0 { negv } else { scratch.prev[ws - 1] };
        for w in ws..=we {
            let p = scratch.prev[w];
            // Column Nw+t's diagonal neighbour is column Nw+t-1 of the
            // previous row: shift the band left by one lane across words.
            let diag_src = p.shift_in(pm1);
            pm1 = p;
            let tmp = diag_src.add(scratch.sub[4 * w + ai]).vmax(p.add(gap1));

            // Max-plus prefix scan for run[j] = max(tmp[j], run[j-1] + gap):
            // in-word log-steps, then the cross-word carry via the ramp.
            let v = tmp.scan(gap).vmax(L::splat(carry).add(ramp));
            carry = v.last();

            // Two-phase x-drop test against the previous rows' best.
            let mut word = v.lt_mask(thr).select(negv, v);
            if w == ws {
                word = before_lo.select(negv, word);
            }
            if w == we {
                word = after_hi.select(negv, word);
            }
            scratch.cur[w] = word;
            rowmax = rowmax.vmax(word);
            // Dead lanes hold the exact sentinel, so a word with any live
            // lane has a lane that differs from it.
            if word.ne_bits(negv) != 0 {
                if first_w == usize::MAX {
                    first_w = w;
                }
                last_w = w;
            }
        }
        // NEG fence words the next row's reads rely on.
        scratch.cur[we + 1] = negv;
        if ws > 0 {
            scratch.cur[ws - 1] = negv;
        }
        counters.cells += (whi - wlo + 1) as u64;
        counters.band_peak = counters.band_peak.max((whi - wlo + 1) as u64);

        if first_w == usize::MAX {
            counters.terminations += 1;
            break;
        }

        // Fold the finished row into the best (first attainment in column
        // order), only when some lane strictly improves on it.
        let row_best = i32::from(rowmax.hmax());
        if row_best > best_rel {
            let bestv = L::splat(row_best as i16);
            for w in first_w..=last_w {
                let hits = scratch.cur[w].eq_mask(bestv).ne_bits(L::splat(0));
                if hits != 0 {
                    best_rel = row_best;
                    best_i = i;
                    best_j = w * L::N + (hits.trailing_zeros() / L::STRIDE) as usize;
                    break;
                }
            }
        }

        // Trim: first/last live columns (lane != NEG16 ⇔ live — live lanes
        // are ≥ thr ≥ -xdrop > NEG16), confined to the tracked boundary
        // words.  No explicit re-pinning of the trimmed range is needed:
        // every dead cell inside [wlo, whi] already holds the exact sentinel
        // (the threshold select writes it), and the boundary masks covered
        // the lanes outside it.
        let flive = scratch.cur[first_w].ne_bits(negv);
        let llive = scratch.cur[last_w].ne_bits(negv);
        lo = first_w * L::N + (flive.trailing_zeros() / L::STRIDE) as usize;
        hi = last_w * L::N + ((31 - llive.leading_zeros()) / L::STRIDE) as usize;
        std::mem::swap(&mut scratch.prev, &mut scratch.cur);

        // Rebase before the relative scores can outgrow i16.
        if best_rel > REBASE_AT {
            let down = L::splat(-best_rel as i16);
            for w in lo / L::N..=hi / L::N {
                // Dead lanes must stay exactly at the sentinel: they sink
                // below it and the max lifts them back, while live lanes stay
                // ≥ -xdrop - best_rel, far above it.
                scratch.prev[w] = scratch.prev[w].add(down).vmax(negv);
            }
            base += i64::from(best_rel);
            best_rel = 0;
        }
    }
    ExtendResult { score: (base + i64::from(best_rel)) as i32, ext_a: best_i, ext_b: best_j }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Word;
    use crate::xdrop::{xdrop_extend_with, XdropScratch};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// One extension on `scratch`, held to the scalar oracle: result AND
    /// counters (both engines walk the same adaptive band).
    fn check<L: Lanes>(
        a: &[u8],
        b: &[u8],
        sc: ScoringScheme,
        xdrop: i32,
        scratch: &mut VectorScratch<L>,
    ) -> ExtendResult {
        let (mut cv, mut cs) = (ExtendCounters::default(), ExtendCounters::default());
        let got = xdrop_extend_vector(a, b, sc, xdrop, scratch, &mut cv);
        let want = xdrop_extend_with(a, b, sc, xdrop, &mut XdropScratch::new(), &mut cs);
        assert_eq!((got, cv), (want, cs), "{sc:?}, xdrop {xdrop}");
        got
    }

    /// The fixed cases every lane word must pass.
    fn fixed_cases_match_scalar<L: Lanes>() {
        let scratch = &mut VectorScratch::<L>::default();
        // Identical sequences.
        let a: Vec<u8> = (0..100).map(|i| (i % 4) as u8).collect();
        let sc = ScoringScheme::default();
        assert_eq!(check(&a, &a, sc, 10, scratch).score, 100);

        // Substitutions every 17 bases.
        let mut rng = SmallRng::seed_from_u64(11);
        let a: Vec<u8> = (0..300).map(|_| rng.gen_range(0..4u8)).collect();
        let mut b = a.clone();
        for idx in (0..b.len()).step_by(17) {
            b[idx] = (b[idx] + 1) % 4;
        }
        check(&a, &b, sc, 30, scratch);

        // A long perfect match crosses the i16 rebase boundary: the score
        // grows to 60k ≫ i16::MAX, through repeated rebasing.
        let a: Vec<u8> = (0..20_000).map(|i| ((i * 7 + 3) % 4) as u8).collect();
        let sc = ScoringScheme { match_score: 3, mismatch: -2, gap: -2 };
        let r = check(&a, &a, sc, 40, scratch);
        assert_eq!((r.score, r.ext_a), (60_000, 20_000));

        // Near saturation, with noise and occasional indels.
        let mut rng = SmallRng::seed_from_u64(5);
        let a: Vec<u8> = (0..8000).map(|_| rng.gen_range(0..4u8)).collect();
        let mut b = a.clone();
        for idx in (0..b.len()).step_by(40) {
            b[idx] = (b[idx] + rng.gen_range(1..4u8)) % 4;
        }
        b.remove(1000);
        b.insert(3000, 2);
        let sc = ScoringScheme { match_score: 5, mismatch: -4, gap: -3 };
        check(&a, &b, sc, 200, scratch);
    }

    /// Eight random extensions — sequences, scoring schemes and xdrops —
    /// each bit-identical to the scalar oracle.  One scratch serves all
    /// eight: reuse across calls of wildly different shapes must never leak
    /// state between extensions.
    fn random_cases_match_scalar<L: Lanes>(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut scratch = VectorScratch::<L>::default();
        for _ in 0..8 {
            let sc = ScoringScheme {
                match_score: rng.gen_range(1..8),
                mismatch: rng.gen_range(-8..=0),
                gap: rng.gen_range(-8..=-1),
            };
            let xdrop = rng.gen_range(0..120);
            let a: Vec<u8> = (0..rng.gen_range(0..400)).map(|_| rng.gen_range(0..4u8)).collect();
            // b: a mutated copy of a (prefix-correlated) so extensions go deep.
            let error_pct = rng.gen_range(0..50u32);
            let b: Vec<u8> = (0..rng.gen_range(0..400))
                .map(|j| match a.get(j) {
                    Some(&base) if rng.gen_range(0..100u32) >= error_pct => base,
                    _ => rng.gen_range(0..4u8),
                })
                .collect();
            assert!(vector_eligible(sc, xdrop));
            check(&a, &b, sc, xdrop, &mut scratch);
        }
    }

    #[test]
    fn fixed_cases_match_scalar_for_every_lane_word() {
        fixed_cases_match_scalar::<[i16; 8]>();
        fixed_cases_match_scalar::<Word>();
    }

    #[test]
    fn eligibility_bounds() {
        let d = ScoringScheme::default();
        assert!(vector_eligible(d, 49));
        assert!(vector_eligible(d, 0));
        assert!(!vector_eligible(d, -1));
        assert!(!vector_eligible(d, 3001));
        assert!(!vector_eligible(ScoringScheme { match_score: 0, ..d }, 49));
        assert!(!vector_eligible(ScoringScheme { match_score: 64, ..d }, 49));
        assert!(!vector_eligible(ScoringScheme { mismatch: 1, ..d }, 49));
        assert!(!vector_eligible(ScoringScheme { gap: 0, ..d }, 49));
        assert!(!vector_eligible(ScoringScheme { gap: -64, ..d }, 49));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // The tentpole invariant: every lane word the target has is held to
        // the scalar oracle.
        #[test]
        fn vector_matches_scalar_oracle(seed in 0u64..1_000_000) {
            random_cases_match_scalar::<[i16; 8]>(seed);
            random_cases_match_scalar::<Word>(seed);
        }
    }
}
