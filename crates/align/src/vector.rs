//! Vector x-drop extension kernel: one DP row advances a `Lanes` word at a
//! time.
//!
//! This is the lane-packed twin of the scalar oracle in [`crate::xdrop`],
//! written once over the lane word (`lanes.rs`): `__m256i` (16 lanes) on an
//! x86-64 CPU with AVX2, `__m128i` (8) on any other x86-64, a plain
//! `[i16; 8]` everywhere else.  DP scores are `i16` lanes, lane `t` of word
//! `w` holding column `N·w + t`; the row buffers are indexed by absolute
//! word, so the adaptive band just slides over them with no per-row
//! repacking:
//!
//! ```text
//!   word w:  | Nw | Nw+1 | Nw+2 | Nw+3 |  …  | Nw+N-2 | Nw+N-1 |   i16 lanes
//! ```
//!
//! Lane adds are wrapping; BELLA's ±1 scheme and an x-drop of at most
//! [`MAX_XDROP`] keep every intermediate inside `i16`, so they are *exact* —
//! no saturation, hence scores bit-identical to the oracle.  Dead cells hold
//! the sentinel `NEG16`, exactly; a dead lane plus any bounded addend stays
//! far below every threshold, so dead lanes may freely participate in the
//! maxes.
//!
//! The within-row left-gap dependency `run[j] = max(tmp[j], run[j-1] + GAP)`
//! is a max-plus prefix scan: in-word (`Lanes::scan`) plus a sequential
//! cross-word carry, a broadcast of the word's last run value that every
//! lane of the next word reads through a `GAP` ramp.
//!
//! The word loop is the recurrence and nothing else — per word: one load of
//! the previous row, the diagonal shift, a table add, the scan, the carry,
//! the threshold select, one store, the running row maximum.  Everything
//! else is per row: the live extent is found by stepping in from the window's
//! two end words, termination is a row maximum equal to the sentinel, and of
//! the two boundary masks only the right one exists (see the loop for why the
//! left one could never change a lane).  No closure in the row loop may hold
//! a lane operation: a closure does not inherit the AVX2 entry's target
//! feature, so its intrinsics would stay calls.
//!
//! Scores are kept *relative* to a running `i64` base: when the in-band best
//! exceeds `REBASE_AT`, the base absorbs it and every live lane is shifted
//! down (dead lanes are re-pinned at `NEG16`).  That gives unbounded total
//! scores (long perfect matches) with `i16` lanes.
//!
//! The kernel implements exactly the two-phase thresholding of
//! [`crate::xdrop::xdrop_extend`]; the tests at the bottom hold it to the
//! oracle, results and counters, for every lane word the host has.

use crate::lanes::{Lanes, GAP16, MATCH16, MISMATCH16};
use crate::scoring::{GAP, MATCH, MISMATCH};
use crate::xdrop::{ExtendCounters, ExtendResult};

/// Dead-cell sentinel per lane.  `-16384` leaves headroom on both sides:
/// `NEG16` plus a substitution and two words of gap steps cannot wrap below
/// `i16::MIN`, and live scores stay below `REBASE_AT + MATCH` which cannot
/// collide with it from above.
pub(crate) const NEG16: i16 = -16384;

/// Rebase the relative scores into the `i64` base once the in-band best
/// exceeds this, keeping all lane values well inside `i16`.
pub(crate) const REBASE_AT: i32 = 4096;

/// The largest x-drop the vector kernel is exact for: relative scores stay
/// within `[-MAX_XDROP, REBASE_AT + MATCH]`, far from the sentinel and from
/// wrapping (see the module docs).  The values in use are 49 and 30.
pub const MAX_XDROP: i32 = 3000;

// The lane kernels' box also needs a gap that costs and per-step addends far
// below the sentinel's headroom.
const _: () = assert!(MATCH >= 1 && MATCH <= 63 && MISMATCH >= -63 && MISMATCH <= 0);
const _: () = assert!(GAP >= -63 && GAP <= -1);

/// Reusable word buffers for the vector kernel.
#[derive(Debug)]
pub(crate) struct VectorScratch<L> {
    prev: Vec<L>,
    cur: Vec<L>,
    /// `sub[w][c]`: lane `t` scores base `c` of `a` against
    /// `b[N·w + t - 1]`.  Rebuilt by every call, lazily as the band reaches
    /// new words, so early-terminating extensions never pay for the full
    /// length of `b`.
    sub: Vec<[L; 4]>,
}

impl<L> Default for VectorScratch<L> {
    fn default() -> Self {
        Self { prev: Vec::new(), cur: Vec::new(), sub: Vec::new() }
    }
}

/// Vector twin of [`crate::xdrop::xdrop_extend_with`]: same two-phase x-drop
/// semantics, bit-identical [`ExtendResult`], `L::N` cells per word.
///
/// Panics on an `xdrop` outside `0..=`[`MAX_XDROP`], where `i16` lanes
/// would not be exact.
#[inline(always)]
pub(crate) fn xdrop_extend_vector<L: Lanes>(
    a: &[u8],
    b: &[u8],
    xdrop: i32,
    scratch: &mut VectorScratch<L>,
    counters: &mut ExtendCounters,
) -> ExtendResult {
    assert!((0..=MAX_XDROP).contains(&xdrop), "x-drop {xdrop} outside the vector kernel's 0..={MAX_XDROP}");
    let m = b.len();
    // Words covering columns 0..=m, plus one guard word at the right so the
    // row after a window ending at column m can still read a NEG word.
    let nw = m / L::N + 2;
    let negv = L::splat(NEG16);
    if scratch.prev.len() < nw {
        scratch.prev.resize(nw, negv);
        scratch.cur.resize(nw, negv);
        scratch.sub.resize(nw, [negv; 4]);
    }
    // Bound once: the row loop swaps the two references, never the `Vec`s.
    let (mut prev, mut cur) = (&mut scratch.prev[..nw], &mut scratch.cur[..nw]);
    let sub = &mut scratch.sub[..nw];
    let mut sub_built = 0;

    let gap1 = L::splat(GAP16);
    let (match16, mism16) = (L::splat(MATCH16), L::splat(MISMATCH16));
    // Cross-word scan carry: lane t adds (t + 1) · GAP to the run value
    // carried out of the previous word, which itself ages a word per word.
    let ramp = L::from_fn(|t| (t as i16 + 1) * GAP16);
    let word_gap = L::splat(L::N as i16 * GAP16);
    let lane_ids = L::from_fn(|t| t as i16);

    // Best score = base + best_rel; lanes store scores relative to `base`.
    let mut base = 0i64;
    let mut best_rel = 0i32;
    let (mut best_i, mut best_j) = (0usize, 0usize);

    // Row 0: leading gaps in `a`; fills columns 0..=r0_hi (j·GAP ≥ -xdrop).
    // GAP ≤ -1 so the row-0 width is at most xdrop + 1 ≪ i16 range.
    let r0_width = ((xdrop / -GAP) as usize + 1).min(m + 1);
    let row0_we = (r0_width - 1) / L::N;
    let row0 = |j: usize| if j < r0_width { j as i16 * GAP16 } else { NEG16 };
    for (w, word) in prev[..=row0_we].iter_mut().enumerate() {
        *word = L::from_fn(|t| row0(w * L::N + t));
    }
    prev[row0_we + 1] = negv;
    let (mut rows, mut cells, mut band_peak) = (1u64, r0_width, r0_width);
    let mut terminated = false;

    // Live window [lo, hi] (absolute columns) of the previous row.
    let mut lo = 0usize;
    let mut hi = r0_width - 1;

    for i in 1..=a.len() {
        let whi = (hi + 1).min(m);
        let ws = lo / L::N;
        let we = whi / L::N;
        // best_rel ≤ REBASE_AT and xdrop ≤ MAX_XDROP, so this fits an i16 lane.
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
            for (c, table) in sub[sub_built].iter_mut().enumerate() {
                *table = codes.eq_mask(L::splat(c as i16)).select(match16, mism16);
            }
            sub_built += 1;
        }

        // One pass, a word at a time: diag/up candidates, the left-gap prefix
        // scan and the two-phase x-drop test against the previous rows' best
        // — the recurrence and nothing else.  `carry` is the pre-threshold
        // run value of the last lane of the previous word, in every lane (the
        // scan is sequential across words, lane-parallel within); it never
        // leaves the vector unit and does not wait for `v`.
        //
        // No mask for the lanes left of `lo` in word `ws`: they read only
        // exact-`NEG16` lanes of the previous row (the threshold select, the
        // fences and the rebase's `vmax(NEG16)` write nothing else into a
        // dead lane), so their diag/up candidates are ≤ NEG16 + MATCH, and no
        // left-gap run starts left of `lo` (`carry` starts at `NEG16`) — all
        // far below `thr`, so the threshold select already writes `NEG16`.
        let mut carry = negv;
        let mut rowmax = negv;
        let mut pm1 = if ws == 0 { negv } else { prev[ws - 1] };
        // The last finished word, not yet folded into `rowmax`: the row's
        // last word is masked first.
        let mut word = negv;
        for ((&p, out), sub_w) in prev[ws..=we].iter().zip(&mut cur[ws..=we]).zip(&sub[ws..=we]) {
            rowmax = rowmax.vmax(word);
            // Column Nw+t's diagonal neighbour is column Nw+t-1 of the
            // previous row: shift the band left by one lane across words.
            let tmp = p.shift_in(pm1).add(sub_w[ai]).vmax(p.add(gap1));
            pm1 = p;
            // Max-plus prefix scan for run[j] = max(tmp[j], run[j-1] + GAP):
            // in-word, then the cross-word carry via the ramp.
            let s = tmp.scan();
            let v = s.vmax(carry.add(ramp));
            carry = s.broadcast_last().vmax(carry.add(word_gap));
            word = v.lt_mask(thr).select(negv, v);
            *out = word;
        }
        // Lanes right of `whi` in the last word must stay dead: a left-gap
        // run can spill past the window's right edge.
        let after_hi = L::splat((whi - we * L::N) as i16).lt_mask(lane_ids);
        word = after_hi.select(negv, word);
        cur[we] = word;
        rowmax = rowmax.vmax(word);
        // NEG fence words the next row's reads rely on.
        cur[we + 1] = negv;
        if ws > 0 {
            cur[ws - 1] = negv;
        }
        rows += 1;
        cells += whi - lo + 1;
        band_peak = band_peak.max(whi - lo + 1);

        // Dead lanes hold the exact sentinel and live ones are ≥ thr ≥
        // -xdrop > NEG16, so a dead row is one whose maximum is the sentinel.
        let row_best = i32::from(rowmax.hmax());
        if row_best == i32::from(NEG16) {
            terminated = true;
            break;
        }

        // The live word extent, stepping in from both ends (almost always
        // one step: the window moves a column or two per row).
        let (mut first_w, mut last_w) = (ws, we);
        while cur[first_w].ne_bits(negv) == 0 {
            first_w += 1;
        }
        while cur[last_w].ne_bits(negv) == 0 {
            last_w -= 1;
        }

        // Fold the finished row into the best (first attainment in column
        // order), only when some lane strictly improves on it.
        if row_best > best_rel {
            let bestv = L::splat(row_best as i16);
            for (w, word) in cur[first_w..=last_w].iter().enumerate() {
                let hits = word.eq_mask(bestv).ne_bits(L::splat(0));
                if hits != 0 {
                    best_rel = row_best;
                    best_i = i;
                    best_j = (first_w + w) * L::N + (hits.trailing_zeros() / L::STRIDE) as usize;
                    break;
                }
            }
        }

        // Trim: first/last live columns (lane != NEG16 ⇔ live), confined to
        // the boundary words.  No explicit re-pinning of the trimmed range is
        // needed: every dead cell of the row already holds the exact
        // sentinel (the threshold select and `after_hi` write it).
        let flive = cur[first_w].ne_bits(negv);
        let llive = cur[last_w].ne_bits(negv);
        lo = first_w * L::N + (flive.trailing_zeros() / L::STRIDE) as usize;
        hi = last_w * L::N + ((31 - llive.leading_zeros()) / L::STRIDE) as usize;
        std::mem::swap(&mut prev, &mut cur);

        // Rebase before the relative scores can outgrow i16.
        if best_rel > REBASE_AT {
            let down = L::splat(-best_rel as i16);
            for word in &mut prev[lo / L::N..=hi / L::N] {
                // Dead lanes must stay exactly at the sentinel: they sink
                // below it and the max lifts them back, while live lanes stay
                // ≥ -xdrop - best_rel, far above it.
                *word = word.add(down).vmax(negv);
            }
            base += i64::from(best_rel);
            best_rel = 0;
        }
    }
    counters.calls += 1;
    counters.rows += rows;
    counters.cells += cells as u64;
    counters.band_peak = counters.band_peak.max(band_peak as u64);
    counters.terminations += u64::from(terminated);
    ExtendResult { score: (base + i64::from(best_rel)) as i32, ext_a: best_i, ext_b: best_j }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::{Band, LaneScratch};
    use crate::xdrop::{xdrop_extend_with, XdropScratch};
    use dibella_seq::{simulate::apply_errors, DnaSeq};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// One extension on `scratch`, held to the scalar oracle: result AND
    /// counters (both engines walk the same adaptive band).
    fn check<L: Lanes>(a: &[u8], b: &[u8], xdrop: i32, scratch: &mut VectorScratch<L>) -> ExtendResult {
        let (mut cv, mut cs) = (ExtendCounters::default(), ExtendCounters::default());
        let got = L::extend(a, b, xdrop, scratch, &mut cv);
        let want = xdrop_extend_with(a, b, xdrop, &mut XdropScratch::new(), &mut cs);
        assert_eq!((got, cv), (want, cs), "xdrop {xdrop}");
        got
    }

    /// The fixed cases every lane word must pass.
    fn fixed_cases_match_scalar<L: Lanes>() {
        let scratch = &mut VectorScratch::<L>::default();
        // Identical sequences.
        let a: Vec<u8> = (0..100).map(|i| (i % 4) as u8).collect();
        assert_eq!(check(&a, &a, 10, scratch).score, 100);

        // Substitutions every 17 bases.
        let mut rng = SmallRng::seed_from_u64(11);
        let a: Vec<u8> = (0..300).map(|_| rng.gen_range(0..4u8)).collect();
        let mut b = a.clone();
        for idx in (0..b.len()).step_by(17) {
            b[idx] = (b[idx] + 1) % 4;
        }
        check(&a, &b, 30, scratch);

        // A long perfect match crosses the i16 rebase boundary nine times:
        // the score grows to 40k > i16::MAX.
        let a: Vec<u8> = (0..40_000).map(|i| ((i * 7 + 3) % 4) as u8).collect();
        let r = check(&a, &a, 10, scratch);
        assert_eq!((r.score, r.ext_a), (40_000, 40_000));

        // Noise, occasional indels and a wide band, past the rebase boundary.
        let mut rng = SmallRng::seed_from_u64(5);
        let a: Vec<u8> = (0..8000).map(|_| rng.gen_range(0..4u8)).collect();
        let mut b = a.clone();
        for idx in (0..b.len()).step_by(40) {
            b[idx] = (b[idx] + rng.gen_range(1..4u8)) % 4;
        }
        b.remove(1000);
        b.insert(3000, 2);
        assert!(check(&a, &b, 100, scratch).score > REBASE_AT);

        // The largest x-drop: an unrelated pair keeps the whole DP live.
        let b: Vec<u8> = (0..600).map(|_| rng.gen_range(0..4u8)).collect();
        check(&a[..600], &b, MAX_XDROP, scratch);
    }

    /// Eight random extensions — sequences and xdrops — each bit-identical
    /// to the scalar oracle.  One scratch serves all eight: reuse across
    /// calls of wildly different shapes must never leak state between
    /// extensions.
    fn random_cases_match_scalar<L: Lanes>(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut scratch = VectorScratch::<L>::default();
        for _ in 0..8 {
            let xdrop = rng.gen_range(0..64);
            let a: Vec<u8> = (0..rng.gen_range(0..400)).map(|_| rng.gen_range(0..4u8)).collect();
            // b: a mutated copy of a (prefix-correlated) so extensions go deep.
            let error_pct = rng.gen_range(0..50u32);
            let b: Vec<u8> = (0..rng.gen_range(0..400))
                .map(|j| match a.get(j) {
                    Some(&base) if rng.gen_range(0..100u32) >= error_pct => base,
                    _ => rng.gen_range(0..4u8),
                })
                .collect();
            check(&a, &b, xdrop, &mut scratch);
        }
    }

    #[test]
    fn fixed_cases_match_scalar_for_every_lane_word() {
        for_every_lane_word!(fixed_cases_match_scalar());
    }

    /// The word loop has no mask for the lanes left of `lo`: slide the band's
    /// left edge through every lane of its word (16 junk offsets) while a
    /// 40-column left-gap run — an insertion in `b` — is live to its right.
    fn left_edge_needs_no_mask<L: Lanes>() {
        let mut rng = SmallRng::seed_from_u64(23);
        let a: Vec<u8> = (0..400).map(|_| rng.gen_range(0..4u8)).collect();
        let scratch = &mut VectorScratch::<L>::default();
        for offset in 0..16 {
            let junk = (0..offset).map(|_| rng.gen_range(0..4u8));
            let insert = (0..40).map(|j| (a[200 + j % 7] + 1) % 4);
            let b: Vec<u8> =
                junk.chain(a[..200].iter().copied()).chain(insert).chain(a[200..].iter().copied()).collect();
            let r = check(&a, &b, 100, scratch);
            assert_eq!((r.ext_a, r.ext_b), (400, 440 + offset), "crossed the insertion");
        }
    }

    #[test]
    fn left_edge_needs_no_mask_on_any_lane_word() {
        for_every_lane_word!(left_edge_needs_no_mask());
    }

    /// An x-drop outside the box would wrap lanes: the kernel refuses it.
    #[test]
    #[should_panic(expected = "outside the vector kernel's 0..=3000")]
    fn an_xdrop_outside_the_box_panics() {
        let (a, counters) = ([0u8, 1, 2, 3], &mut ExtendCounters::default());
        xdrop_extend_vector::<[i16; 8]>(&a, &a, MAX_XDROP + 1, &mut VectorScratch::default(), counters);
    }

    /// Mcells/s and ns/row of `L` at five band widths on a 0.2%- and a
    /// 13%-error pair: the per-row / per-cell cost fit of DESIGN.md.  Then
    /// the banded fit on the same pairs, on read threading's tracked band
    /// (half-width 32) and its start-up ribbon (half-width 128).
    fn print_rates<L: Lanes>() {
        let mut rng = SmallRng::seed_from_u64(3);
        let genome = DnaSeq::from_codes((0..12_000).map(|_| rng.gen_range(0..4u8)).collect());
        let scratch = &mut VectorScratch::<L>::default();
        let (fit_scratch, ops) = (&mut LaneScratch::<L>::default(), &mut Vec::new());
        for error in [0.002, 0.13] {
            let (a, b) = (apply_errors(&genome, error, &mut rng), apply_errors(&genome, error, &mut rng));
            let tracked = Band { half_width: 32, tracked: Some(32) };
            let ribbon = Band { half_width: 128, tracked: None };
            for (name, band) in [("tracked 32", tracked), ("ribbon 128", ribbon)] {
                let (mut cells, mut rows) = (0, 0);
                let t0 = std::time::Instant::now();
                while t0.elapsed().as_millis() < 200 {
                    let fit = L::fit(fit_scratch, ops, a.codes(), b.codes(), 0, band);
                    cells += std::hint::black_box(fit).map_or(0, |fit| fit.cells);
                    rows += a.len();
                }
                let ns = t0.elapsed().as_nanos() as f64;
                println!(
                    "{:>8} err {error:<5} fit {name}: band {:>5.1}  {:>6.0} Mcells/s  {:>6.1} ns/row",
                    L::NAME, cells as f64 / rows as f64, cells as f64 * 1e3 / ns, ns / rows as f64
                );
            }
            for xdrop in [10, 20, 49, 100, 200] {
                let mut c = ExtendCounters::default();
                let t0 = std::time::Instant::now();
                while t0.elapsed().as_millis() < 200 {
                    std::hint::black_box(L::extend(a.codes(), b.codes(), xdrop, scratch, &mut c));
                }
                let ns = t0.elapsed().as_nanos() as f64;
                println!(
                    "{:>8} err {error:<5} xdrop {xdrop:>3}: band {:>5.1}  {:>6.0} Mcells/s  {:>6.1} ns/row",
                    L::NAME, c.cells as f64 / c.rows as f64, c.cells as f64 * 1e3 / ns, ns / c.rows as f64
                );
            }
        }
    }

    /// `cargo test --release -p dibella-align print_rates -- --ignored --nocapture`
    #[test]
    #[ignore = "a measurement, not a check"]
    fn print_rates_of_every_lane_word() {
        for_every_lane_word!(print_rates());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // The tentpole invariant: every lane word the target has is held to
        // the scalar oracle.
        #[test]
        fn vector_matches_scalar_oracle(seed in 0u64..1_000_000) {
            for_every_lane_word!(random_cases_match_scalar(seed));
        }
    }
}
