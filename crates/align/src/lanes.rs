//! The lane word of the vector kernels: the x-drop extension
//! ([`crate::vector`]) and the banded fit ([`crate::banded`]).
//!
//! A [`Lanes`] value is `N` DP cells held as `i16` lanes, lane `t` of word
//! `w` being column `N·w + t`.  Each kernel is written once over this trait;
//! the trait exists because the fast words on x86-64 are `__m128i` (SSE2,
//! the baseline) and `__m256i` (AVX2, entered only through its
//! [`Lanes::extend`] and [`Lanes::fit`], on a CPU that reports it), reached
//! only through `std::arch` intrinsics, and a plain `[i16; N]` implements
//! the same operations in safe Rust for every target.  The array word is also the
//! oracle: the tests at the bottom hold every intrinsic method to the array
//! method of the same width on random lanes, op by op.
//!
//! All arithmetic is wrapping and lane-wise; masks are lanes of all-ones
//! (`-1`) or zero.  The kernels score with the crate's one scheme
//! ([`crate::scoring`]), so the gap, its ramps and the substitution scores
//! are lane constants, not per-call splats.

use crate::banded::{banded_fit_lanes, AlnOp, Band, BandedFit, LaneScratch};
use crate::scoring::{GAP, MATCH, MISMATCH};
use crate::vector::{xdrop_extend_vector, VectorScratch, NEG16};
use crate::xdrop::{ExtendCounters, ExtendResult};

/// The scoring scheme in lane arithmetic.
pub(crate) const MATCH16: i16 = MATCH as i16;
pub(crate) const MISMATCH16: i16 = MISMATCH as i16;
pub(crate) const GAP16: i16 = GAP as i16;

/// `N` lane-packed `i16` DP cells.
pub(crate) trait Lanes: Copy {
    /// What bench records call this word.
    const NAME: &'static str;
    /// Lanes per word.
    const N: usize;
    /// Bits each lane occupies in [`Lanes::ne_bits`].
    const STRIDE: u32;
    /// `x` in every lane.
    fn splat(x: i16) -> Self;
    /// Lane `t` holds `f(t)`.
    fn from_fn(f: impl FnMut(usize) -> i16) -> Self;
    /// Wrapping lane-wise sum.
    fn add(self, o: Self) -> Self;
    /// Lane-wise signed maximum (not `max`: arrays are `Ord`).
    fn vmax(self, o: Self) -> Self;
    /// Mask of lanes where `self < o` (signed).
    fn lt_mask(self, o: Self) -> Self;
    /// Mask of lanes where `self == o`.
    fn eq_mask(self, o: Self) -> Self;
    /// `self` is a mask: its all-ones lanes take `set`, its zero lanes `clear`.
    fn select(self, set: Self, clear: Self) -> Self;
    /// Every lane moved up by one, lane 0 taking the last lane of `below`:
    /// column `j - 1` of a row, in the lanes of column `j`.
    fn shift_in(self, below: Self) -> Self;
    /// In-word max-plus prefix scan, `run[t] = max(self[t], run[t-1] + GAP)`
    /// with `run[-1]` = [`NEG16`], for lanes inside the kernels' value box
    /// `[NEG16 + GAP, REBASE_AT + MATCH]` (there nothing wraps and `run[-1]`
    /// never wins).  Outside the box the words differ: the array and SSE2
    /// words take log₂ `N` wrapping shift-add-max steps that move the
    /// sentinel into the vacated lanes, the AVX2 word an unsigned prefix max.
    fn scan(self) -> Self;
    /// [`Lanes::STRIDE`] set bits per lane that differs from `o`, lane 0 lowest.
    fn ne_bits(self, o: Self) -> u32;
    /// The largest lane.
    fn hmax(self) -> i16;
    /// The last lane, in every lane.
    fn broadcast_last(self) -> Self;
    /// [`xdrop_extend_vector`] on this word, entered the way
    /// [`crate::batch`] enters it.
    fn extend(
        a: &[u8],
        b: &[u8],
        xdrop: i32,
        scratch: &mut VectorScratch<Self>,
        counters: &mut ExtendCounters,
    ) -> ExtendResult {
        xdrop_extend_vector(a, b, xdrop, scratch, counters)
    }
    /// [`banded_fit_lanes`] on this word, entered the way
    /// [`crate::banded::banded_fit`] enters it.
    fn fit(
        scratch: &mut LaneScratch<Self>,
        ops: &mut Vec<AlnOp>,
        read: &[u8],
        window: &[u8],
        offset: usize,
        band: Band,
    ) -> Option<BandedFit> {
        banded_fit_lanes(scratch, ops, read, window, offset, band)
    }
}

fn zip<const N: usize>(x: [i16; N], y: [i16; N], f: impl Fn(i16, i16) -> i16) -> [i16; N] {
    std::array::from_fn(|t| f(x[t], y[t]))
}

impl<const N: usize> Lanes for [i16; N] {
    const NAME: &'static str = "portable";
    const N: usize = N;
    const STRIDE: u32 = 1;
    fn splat(x: i16) -> Self {
        [x; N]
    }
    fn from_fn(f: impl FnMut(usize) -> i16) -> Self {
        std::array::from_fn(f)
    }
    fn add(self, o: Self) -> Self {
        zip(self, o, i16::wrapping_add)
    }
    fn vmax(self, o: Self) -> Self {
        zip(self, o, i16::max)
    }
    fn lt_mask(self, o: Self) -> Self {
        zip(self, o, |x, y| -i16::from(x < y))
    }
    fn eq_mask(self, o: Self) -> Self {
        zip(self, o, |x, y| -i16::from(x == y))
    }
    fn select(self, set: Self, clear: Self) -> Self {
        std::array::from_fn(|t| (self[t] & set[t]) | (!self[t] & clear[t]))
    }
    fn shift_in(self, below: Self) -> Self {
        std::array::from_fn(|t| if t == 0 { below[N - 1] } else { self[t - 1] })
    }
    fn scan(self) -> Self {
        let mut v = self;
        let mut step = 1;
        while step < N {
            let g = GAP16.wrapping_mul(step as i16);
            let from = |t: usize| if t >= step { v[t - step] } else { NEG16 };
            v = std::array::from_fn(|t| v[t].max(from(t).wrapping_add(g)));
            step *= 2;
        }
        v
    }
    fn ne_bits(self, o: Self) -> u32 {
        (0..N).fold(0, |bits, t| bits | (u32::from(self[t] != o[t]) << t))
    }
    fn hmax(self) -> i16 {
        self.into_iter().fold(i16::MIN, i16::max)
    }
    fn broadcast_last(self) -> Self {
        [self[N - 1]; N]
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    // SAFETY, for every block below: the intrinsics require the `sse2` target
    // feature, which is part of the x86-64 baseline ISA and so present on
    // every CPU this impl is compiled for; all but the load in `from_fn`
    // work on register values only.
    impl Lanes for __m128i {
        const NAME: &'static str = "sse2";
        const N: usize = 8;
        const STRIDE: u32 = 2;
        #[inline(always)]
        fn splat(x: i16) -> Self {
            unsafe { _mm_set1_epi16(x) }
        }
        #[inline(always)]
        fn from_fn(f: impl FnMut(usize) -> i16) -> Self {
            let lanes: [i16; 8] = std::array::from_fn(f);
            // SAFETY: reads the 16 bytes of the live local `lanes`; the
            // unaligned load has no alignment requirement.
            unsafe { _mm_loadu_si128(lanes.as_ptr().cast()) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            unsafe { _mm_add_epi16(self, o) }
        }
        #[inline(always)]
        fn vmax(self, o: Self) -> Self {
            unsafe { _mm_max_epi16(self, o) }
        }
        #[inline(always)]
        fn lt_mask(self, o: Self) -> Self {
            unsafe { _mm_cmplt_epi16(self, o) }
        }
        #[inline(always)]
        fn eq_mask(self, o: Self) -> Self {
            unsafe { _mm_cmpeq_epi16(self, o) }
        }
        #[inline(always)]
        fn select(self, set: Self, clear: Self) -> Self {
            unsafe { _mm_or_si128(_mm_and_si128(self, set), _mm_andnot_si128(self, clear)) }
        }
        #[inline(always)]
        fn shift_in(self, below: Self) -> Self {
            unsafe { _mm_or_si128(_mm_slli_si128::<2>(self), _mm_srli_si128::<14>(below)) }
        }
        #[inline(always)]
        fn scan(self) -> Self {
            let neg = Self::splat(NEG16);
            let gaps = |steps: i16| Self::splat(GAP16 * steps);
            unsafe {
                let s1 = _mm_or_si128(_mm_slli_si128::<2>(self), _mm_srli_si128::<14>(neg));
                let v = _mm_max_epi16(self, _mm_add_epi16(s1, gaps(1)));
                let s2 = _mm_or_si128(_mm_slli_si128::<4>(v), _mm_srli_si128::<12>(neg));
                let v = _mm_max_epi16(v, _mm_add_epi16(s2, gaps(2)));
                let s4 = _mm_or_si128(_mm_slli_si128::<8>(v), _mm_srli_si128::<8>(neg));
                _mm_max_epi16(v, _mm_add_epi16(s4, gaps(4)))
            }
        }
        #[inline(always)]
        fn ne_bits(self, o: Self) -> u32 {
            // One bit per byte: two per lane.
            unsafe { !_mm_movemask_epi8(_mm_cmpeq_epi16(self, o)) as u32 & 0xFFFF }
        }
        #[inline(always)]
        fn hmax(self) -> i16 {
            // The right shifts move zeros into the upper lanes only; lane 0
            // folds lanes 0..8 and nothing else.
            unsafe {
                let fold = _mm_max_epi16(self, _mm_srli_si128::<8>(self));
                let fold = _mm_max_epi16(fold, _mm_srli_si128::<4>(fold));
                let fold = _mm_max_epi16(fold, _mm_srli_si128::<2>(fold));
                _mm_extract_epi16::<0>(fold) as i16
            }
        }
        #[inline(always)]
        fn broadcast_last(self) -> Self {
            unsafe { _mm_shuffle_epi32::<0xFF>(_mm_shufflehi_epi16::<0xFF>(self)) }
        }
    }

    // SAFETY, for every block below: the intrinsics require the `avx2` target
    // feature.  The trait is crate-private and no `__m256i` method is called
    // before `is_x86_feature_detected!("avx2")` has said yes — `batch.rs`,
    // `banded.rs` and the tests ask first, and `extend` and `fit` ask again;
    // all but the load in `from_fn` work on register values only.
    impl Lanes for __m256i {
        const NAME: &'static str = "avx2";
        const N: usize = 16;
        const STRIDE: u32 = 2;
        #[inline(always)]
        fn splat(x: i16) -> Self {
            unsafe { _mm256_set1_epi16(x) }
        }
        #[inline(always)]
        fn from_fn(f: impl FnMut(usize) -> i16) -> Self {
            let lanes: [i16; 16] = std::array::from_fn(f);
            // SAFETY: reads the 32 bytes of the live local `lanes`; the
            // unaligned load has no alignment requirement.
            unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            unsafe { _mm256_add_epi16(self, o) }
        }
        #[inline(always)]
        fn vmax(self, o: Self) -> Self {
            unsafe { _mm256_max_epi16(self, o) }
        }
        #[inline(always)]
        fn lt_mask(self, o: Self) -> Self {
            unsafe { _mm256_cmpgt_epi16(o, self) }
        }
        #[inline(always)]
        fn eq_mask(self, o: Self) -> Self {
            unsafe { _mm256_cmpeq_epi16(self, o) }
        }
        #[inline(always)]
        fn select(self, set: Self, clear: Self) -> Self {
            unsafe { _mm256_blendv_epi8(clear, set, self) }
        }
        #[inline(always)]
        fn shift_in(self, below: Self) -> Self {
            // [below.high, self.low], then each half shifts in the last lane
            // of the half before it.
            unsafe {
                _mm256_alignr_epi8::<14>(self, _mm256_permute2x128_si256::<0x21>(below, self))
            }
        }
        #[inline(always)]
        fn scan(self) -> Self {
            // run[t] − t·GAP is the prefix max of x[k] − k·GAP.  Flipping the
            // sign bit makes that an *unsigned* max, whose identity is the
            // zero a byte shift moves in — no sentinel fill.  `x − k·GAP`
            // does not wrap inside the value box; outside it this is not the
            // wrapping form of the other words.
            let bias = Self::from_fn(|k| i16::MIN.wrapping_sub(GAP16 * k as i16));
            let unbias = Self::from_fn(|t| i16::MIN.wrapping_add(GAP16 * t as i16));
            unsafe {
                let v = _mm256_add_epi16(self, bias);
                let v = _mm256_max_epu16(v, _mm256_slli_si256::<2>(v));
                let v = _mm256_max_epu16(v, _mm256_slli_si256::<4>(v));
                let v = _mm256_max_epu16(v, _mm256_slli_si256::<8>(v));
                // Lane 7's prefix into every lane of the high half, zero
                // (the identity) into the low half.
                let high = _mm256_set_epi64x(0x0706_0706_0706_0706, 0x0706_0706_0706_0706, -1, -1);
                let low_last = _mm256_shuffle_epi8(_mm256_permute4x64_epi64::<0x55>(v), high);
                _mm256_add_epi16(_mm256_max_epu16(v, low_last), unbias)
            }
        }
        #[inline(always)]
        fn ne_bits(self, o: Self) -> u32 {
            // One bit per byte: two per lane.
            unsafe { !_mm256_movemask_epi8(_mm256_cmpeq_epi16(self, o)) as u32 }
        }
        #[inline(always)]
        fn hmax(self) -> i16 {
            unsafe {
                let (low, high) = (_mm256_castsi256_si128(self), _mm256_extracti128_si256::<1>(self));
                _mm_max_epi16(low, high).hmax()
            }
        }
        #[inline(always)]
        fn broadcast_last(self) -> Self {
            unsafe { _mm256_permute4x64_epi64::<0xFF>(_mm256_shufflehi_epi16::<0xFF>(self)) }
        }
        fn extend(
            a: &[u8],
            b: &[u8],
            xdrop: i32,
            scratch: &mut VectorScratch<Self>,
            counters: &mut ExtendCounters,
        ) -> ExtendResult {
            // The kernel and every method above are `#[inline(always)]`, so
            // the intrinsics inline into this feature-enabled instantiation.
            #[target_feature(enable = "avx2")]
            fn entry(
                a: &[u8],
                b: &[u8],
                xdrop: i32,
                scratch: &mut VectorScratch<__m256i>,
                counters: &mut ExtendCounters,
            ) -> ExtendResult {
                xdrop_extend_vector(a, b, xdrop, scratch, counters)
            }
            assert!(is_x86_feature_detected!("avx2"), "the AVX2 word on a CPU without AVX2");
            // SAFETY: the CPU was just seen to support AVX2.
            unsafe { entry(a, b, xdrop, scratch, counters) }
        }
        fn fit(
            scratch: &mut LaneScratch<Self>,
            ops: &mut Vec<AlnOp>,
            read: &[u8],
            window: &[u8],
            offset: usize,
            band: Band,
        ) -> Option<BandedFit> {
            // As in `extend`: the kernel inlines into this instantiation.
            #[target_feature(enable = "avx2")]
            fn entry(
                scratch: &mut LaneScratch<__m256i>,
                ops: &mut Vec<AlnOp>,
                read: &[u8],
                window: &[u8],
                offset: usize,
                band: Band,
            ) -> Option<BandedFit> {
                banded_fit_lanes(scratch, ops, read, window, offset, band)
            }
            assert!(is_x86_feature_detected!("avx2"), "the AVX2 word on a CPU without AVX2");
            // SAFETY: the CPU was just seen to support AVX2.
            unsafe { entry(scratch, ops, read, window, offset, band) }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::vector::REBASE_AT;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        /// Read the lanes back through `broadcast_last`, `hmax` and `shift_in`.
        fn lanes<V: Lanes, const N: usize>(mut x: V) -> [i16; N] {
            let mut out = [0; N];
            for slot in out.iter_mut().rev() {
                *slot = x.broadcast_last().hmax();
                x = x.shift_in(x);
            }
            out
        }

        fn random<const N: usize>(rng: &mut SmallRng, lo: i16, hi: i16) -> [i16; N] {
            const SALT: [i16; 5] = [NEG16, i16::MIN, i16::MAX, 0, -1];
            std::array::from_fn(|_| match rng.gen_range(0..4u8) {
                0 => SALT[rng.gen_range(0..SALT.len())].clamp(lo, hi),
                _ => rng.gen_range(lo..=hi),
            })
        }

        /// Every method of the intrinsic word `V` against the safe array
        /// word of the same width.  `scan_wraps`: `V::scan` is the wrapping
        /// log-step form, equal to the array's on *any* lanes.
        fn every_op_equals_the_array_op<V: Lanes, const N: usize>(scan_wraps: bool) {
            assert_eq!(V::N, N);
            let load = |x: [i16; N]| V::from_fn(|t| x[t]);
            let mut rng = SmallRng::seed_from_u64(19);
            for round in 0..12_000 {
                let x: [i16; N] = random(&mut rng, i16::MIN, i16::MAX);
                // Mostly-equal pairs put the not-equal bits at the first,
                // last, one or no position.
                let y = match round % 4 {
                    0 => random(&mut rng, i16::MIN, i16::MAX),
                    1 => x,
                    _ => std::array::from_fn(|t| x[t] ^ i16::from(t == round / 4 % N)),
                };
                let (vx, vy) = (load(x), load(y));
                assert_eq!(lanes(vx), x, "from_fn / broadcast_last / shift_in round trip");
                assert_eq!(lanes(vx.add(vy)), x.add(y));
                assert_eq!(lanes(vx.vmax(vy)), x.vmax(y));
                assert_eq!(lanes(vx.lt_mask(vy)), x.lt_mask(y));
                assert_eq!(lanes(vx.eq_mask(vy)), x.eq_mask(y));
                assert_eq!(lanes(vx.shift_in(vy)), x.shift_in(y));
                assert_eq!(lanes(vx.broadcast_last()), x.broadcast_last());
                let ne_bits = |stride: u32| {
                    let differ = (0..N).filter(|&t| x[t] != y[t]);
                    differ.fold(0, |bits, t| bits | (((1 << stride) - 1) << (stride * t as u32)))
                };
                assert_eq!((vx.ne_bits(vy), x.ne_bits(y)), (ne_bits(V::STRIDE), ne_bits(1)));
                assert_eq!(vx.hmax(), x.hmax());
                assert_eq!(lanes(V::splat(x[0])), <[i16; N]>::splat(x[0]));
                let mask = random(&mut rng, i16::MIN, i16::MAX).lt_mask([0; N]);
                assert_eq!(lanes(load(mask).select(vx, vy)), mask.select(x, y));
                if scan_wraps {
                    assert_eq!(lanes(vx.scan()), x.scan());
                }
                // Inside the kernels' value box nothing wraps, and every
                // form of the scan is the left-to-right recurrence.
                let boxed: [i16; N] = random(&mut rng, NEG16 + GAP16, REBASE_AT as i16 + MATCH16);
                let mut carry = NEG16;
                let run = boxed.map(|v| {
                    carry = v.max(carry + GAP16);
                    carry
                });
                assert_eq!(boxed.scan(), run);
                assert_eq!(lanes(load(boxed).scan()), run);
            }
        }

        // The oracle of the two blocks of intrinsics the crate holds.
        #[test]
        fn every_sse2_op_equals_the_array_op() {
            every_op_equals_the_array_op::<__m128i, 8>(true);
        }

        #[test]
        fn every_avx2_op_equals_the_array_op() {
            if is_x86_feature_detected!("avx2") {
                every_op_equals_the_array_op::<__m256i, 16>(false);
            } else {
                println!("skipped: this CPU has no AVX2");
            }
        }
    }
}
