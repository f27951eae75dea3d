//! The lane word of the vector x-drop kernel ([`crate::vector`]).
//!
//! A [`Lanes`] value is `N` DP cells held as `i16` lanes, lane `t` of word
//! `w` being column `N·w + t`.  The kernel is written once over this trait;
//! the trait exists because the fast word on x86-64 is `__m128i`, reached
//! only through `std::arch` intrinsics, and a plain `[i16; 8]` implements the
//! same operations in safe Rust for every target.  The array word is
//! also the oracle: the tests at the bottom hold every intrinsic method to
//! the array method on random lanes, op by op.
//!
//! All arithmetic is wrapping and lane-wise; masks are lanes of all-ones
//! (`-1`) or zero.

use crate::vector::NEG16;

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
    /// In-word max-plus prefix scan, `run[t] = max(self[t], run[t-1] + gap)`
    /// with `run[-1]` = [`NEG16`], in log₂ `N` shift-add-max steps that move
    /// the sentinel into the vacated lanes.  Equals the left-to-right loop
    /// while nothing wraps.
    fn scan(self, gap: i16) -> Self;
    /// [`Lanes::STRIDE`] set bits per lane that differs from `o`, lane 0 lowest.
    fn ne_bits(self, o: Self) -> u32;
    /// The largest lane.
    fn hmax(self) -> i16;
    /// The last lane.
    fn last(self) -> i16;
}

fn zip(x: [i16; 8], y: [i16; 8], f: impl Fn(i16, i16) -> i16) -> [i16; 8] {
    std::array::from_fn(|t| f(x[t], y[t]))
}

impl Lanes for [i16; 8] {
    const NAME: &'static str = "portable";
    const N: usize = 8;
    const STRIDE: u32 = 1;
    fn splat(x: i16) -> Self {
        [x; 8]
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
        std::array::from_fn(|t| if t == 0 { below[7] } else { self[t - 1] })
    }
    fn scan(self, gap: i16) -> Self {
        let mut v = self;
        for step in [1, 2, 4] {
            let g = gap.wrapping_mul(step as i16);
            let from = |t: usize| if t >= step { v[t - step] } else { NEG16 };
            v = std::array::from_fn(|t| v[t].max(from(t).wrapping_add(g)));
        }
        v
    }
    fn ne_bits(self, o: Self) -> u32 {
        (0..8).fold(0, |bits, t| bits | (u32::from(self[t] != o[t]) << t))
    }
    fn hmax(self) -> i16 {
        self.into_iter().fold(i16::MIN, i16::max)
    }
    fn last(self) -> i16 {
        self[7]
    }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{Lanes, NEG16};
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
        fn scan(self, gap: i16) -> Self {
            let neg = Self::splat(NEG16);
            let gaps = |steps: i16| Self::splat(gap.wrapping_mul(steps));
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
        fn last(self) -> i16 {
            unsafe { _mm_extract_epi16::<7>(self) as i16 }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        type Array = [i16; 8];

        fn load(x: Array) -> __m128i {
            <__m128i>::from_fn(|t| x[t])
        }

        /// Read the lanes back through `last` and `shift_in`.
        fn lanes(mut x: __m128i) -> Array {
            let mut out = [0; 8];
            for slot in out.iter_mut().rev() {
                *slot = x.last();
                x = x.shift_in(x);
            }
            out
        }

        fn random(rng: &mut SmallRng, lo: i16, hi: i16) -> Array {
            const SALT: [i16; 5] = [NEG16, i16::MIN, i16::MAX, 0, -1];
            std::array::from_fn(|_| match rng.gen_range(0..4u8) {
                0 => SALT[rng.gen_range(0..SALT.len())].clamp(lo, hi),
                _ => rng.gen_range(lo..=hi),
            })
        }

        // Every `__m128i` method against the safe array word: the oracle of
        // the one block of intrinsics the crate holds.
        #[test]
        fn every_sse2_op_equals_the_array_op() {
            let mut rng = SmallRng::seed_from_u64(19);
            for round in 0..12_000 {
                let x = random(&mut rng, i16::MIN, i16::MAX);
                // Mostly-equal pairs put the not-equal bits at the first,
                // last, one or no position.
                let y = match round % 4 {
                    0 => random(&mut rng, i16::MIN, i16::MAX),
                    1 => x,
                    _ => std::array::from_fn(|t| x[t] ^ i16::from(t == round / 4 % 8)),
                };
                let (vx, vy) = (load(x), load(y));
                assert_eq!(lanes(vx), x, "from_fn / last / shift_in round trip");
                assert_eq!(lanes(vx.add(vy)), x.add(y));
                assert_eq!(lanes(vx.vmax(vy)), x.vmax(y));
                assert_eq!(lanes(vx.lt_mask(vy)), x.lt_mask(y));
                assert_eq!(lanes(vx.eq_mask(vy)), x.eq_mask(y));
                assert_eq!(lanes(vx.shift_in(vy)), x.shift_in(y));
                let ne_bits = |stride: u32| {
                    let differ = (0..8).filter(|&t| x[t] != y[t]);
                    differ.fold(0, |bits, t| bits | (((1 << stride) - 1) << (stride * t as u32)))
                };
                assert_eq!((vx.ne_bits(vy), x.ne_bits(y)), (ne_bits(2), ne_bits(1)));
                assert_eq!((vx.hmax(), vx.last()), (x.hmax(), x.last()));
                assert_eq!(lanes(<__m128i>::splat(x[0])), Array::splat(x[0]));
                let mask = random(&mut rng, i16::MIN, i16::MAX).lt_mask([0; 8]);
                assert_eq!(lanes(load(mask).select(vx, vy)), mask.select(x, y));
                let gap = -1 - (round % 63) as i16;
                assert_eq!(lanes(vx.scan(gap)), x.scan(gap));
                // Inside the kernel's value box nothing wraps, and the log
                // steps are the left-to-right recurrence.
                let boxed = random(&mut rng, NEG16 - 126, 4096 + 63);
                let mut carry = NEG16;
                let run = boxed.map(|v| {
                    carry = v.max(carry + gap);
                    carry
                });
                assert_eq!(boxed.scan(gap), run);
                assert_eq!(lanes(load(boxed).scan(gap)), run);
            }
        }
    }
}
