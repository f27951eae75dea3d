//! Batched seed-and-extend engine: per-worker scratch, oriented-read cache,
//! and vector/scalar dispatch.
//!
//! The overlap stage runs one job per candidate pair on the work-stealing
//! pool; each worker holds one [`AlignScratch`] that amortises every buffer
//! an extension needs — the scalar DP double buffer, the vector-kernel word
//! buffers and equality tables, the reversed-prefix buffers of the left
//! extension, and the reverse-complement cache for opposite-strand pairs.  After the first few work items warm the
//! buffers, the steady state allocates **nothing** per alignment (pinned by
//! the `alloc_steady_state` integration test of this crate).
//!
//! Dispatch: [`ExtendEngine::Auto`] runs the lane-packed vector kernel
//! whenever [`swar_eligible`] accepts the scoring scheme — the 8-lane SSE2
//! kernel ([`crate::sse2`]) on x86-64, the portable 4-lane u64 SWAR kernel
//! ([`crate::simd`]) everywhere else — else (and under
//! [`ExtendEngine::Scalar`]) the scalar oracle.  All kernels produce
//! bit-identical [`ExtendResult`]s, so engine choice never changes pipeline
//! output.

use crate::classify::PairAlignment;
use crate::scoring::{AlignmentConfig, ScoringScheme};
use crate::simd::swar_eligible;
#[cfg(not(target_arch = "x86_64"))]
use crate::simd::{xdrop_extend_swar, SwarScratch};
#[cfg(target_arch = "x86_64")]
use crate::sse2::{xdrop_extend_sse2, Sse2Scratch};
use crate::xdrop::{xdrop_extend_with, ExtendCounters, ExtendResult, XdropScratch};
use dibella_seq::Strand;

/// Scratch type of the vector kernel the current target dispatches to.
#[cfg(target_arch = "x86_64")]
type VectorScratch = Sse2Scratch;
/// Scratch type of the vector kernel the current target dispatches to.
#[cfg(not(target_arch = "x86_64"))]
type VectorScratch = SwarScratch;

/// One eligible extension through the target's vector kernel.
#[inline]
fn vector_extend(
    a: &[u8],
    b: &[u8],
    scoring: ScoringScheme,
    xdrop: i32,
    scratch: &mut VectorScratch,
    counters: &mut ExtendCounters,
) -> ExtendResult {
    #[cfg(target_arch = "x86_64")]
    return xdrop_extend_sse2(a, b, scoring, xdrop, scratch, counters);
    #[cfg(not(target_arch = "x86_64"))]
    xdrop_extend_swar(a, b, scoring, xdrop, scratch, counters)
}

/// Which extension kernel the batched engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtendEngine {
    /// Vector kernel (SSE2 or SWAR) when the scoring scheme is eligible,
    /// scalar otherwise.
    #[default]
    Auto,
    /// Always the scalar oracle (the reference / bench comparison path).
    Scalar,
}

/// Per-worker reusable state for batched alignment.
#[derive(Debug, Default)]
pub struct AlignScratch {
    xdrop: XdropScratch,
    simd: VectorScratch,
    rev_a: Vec<u8>,
    rev_b: Vec<u8>,
    /// Cell/band/termination counters accumulated over every extension this
    /// scratch ran (engine-independent: all kernels count identically).
    pub counters: ExtendCounters,
    /// Extensions dispatched to the vector kernel (SSE2 on x86-64, SWAR
    /// elsewhere).
    pub simd_calls: u64,
    /// Extensions dispatched to the scalar oracle.
    pub scalar_calls: u64,
}

impl AlignScratch {
    /// A fresh scratch with cold buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One x-drop extension through the engine dispatch, reusing `scratch`.
pub fn xdrop_extend_auto(
    a: &[u8],
    b: &[u8],
    scoring: ScoringScheme,
    xdrop: i32,
    engine: ExtendEngine,
    scratch: &mut AlignScratch,
) -> ExtendResult {
    if engine == ExtendEngine::Auto && swar_eligible(scoring, xdrop) {
        scratch.simd_calls += 1;
        vector_extend(a, b, scoring, xdrop, &mut scratch.simd, &mut scratch.counters)
    } else {
        scratch.scalar_calls += 1;
        xdrop_extend_with(a, b, scoring, xdrop, &mut scratch.xdrop, &mut scratch.counters)
    }
}

/// Batched twin of [`crate::xdrop::align_seed_pair`]: operates on raw 2-bit
/// code slices (no `DnaSeq` clones) and reuses the worker scratch for both
/// extensions and the reversed-prefix buffers.
///
/// `h_oriented` must already be oriented for `strand` (the caller caches the
/// reverse complement per (pair, strand) via [`OrientCache`]).
#[allow(clippy::too_many_arguments)]
pub fn align_seed_pair_with(
    v: &[u8],
    h_oriented: &[u8],
    seed_v: usize,
    seed_h: usize,
    k: usize,
    strand: Strand,
    config: &AlignmentConfig,
    engine: ExtendEngine,
    scratch: &mut AlignScratch,
) -> PairAlignment {
    assert!(seed_v + k <= v.len(), "seed exceeds read v");
    assert!(seed_h + k <= h_oriented.len(), "seed exceeds read h");
    let scoring = config.scoring;

    // Right extension over the suffixes beyond the seed.
    let right = xdrop_extend_auto(
        &v[seed_v + k..],
        &h_oriented[seed_h + k..],
        scoring,
        config.xdrop,
        engine,
        scratch,
    );

    // Left extension over the reversed prefixes before the seed, built into
    // the reusable buffers (cleared, not reallocated).
    let s = &mut *scratch;
    s.rev_a.clear();
    s.rev_a.extend(v[..seed_v].iter().rev().copied());
    s.rev_b.clear();
    s.rev_b.extend(h_oriented[..seed_h].iter().rev().copied());
    let left = if engine == ExtendEngine::Auto && swar_eligible(scoring, config.xdrop) {
        s.simd_calls += 1;
        vector_extend(&s.rev_a, &s.rev_b, scoring, config.xdrop, &mut s.simd, &mut s.counters)
    } else {
        s.scalar_calls += 1;
        xdrop_extend_with(&s.rev_a, &s.rev_b, scoring, config.xdrop, &mut s.xdrop, &mut s.counters)
    };

    let score = left.score + right.score + (k as i32) * scoring.match_score;
    PairAlignment {
        score,
        beg_v: seed_v - left.ext_a,
        end_v: seed_v + k + right.ext_a,
        beg_h: seed_h - left.ext_b,
        end_h: seed_h + k + right.ext_b,
        strand,
    }
}

/// Per-worker cache of the reverse-complemented codes of one read.
///
/// All seeds of a reverse-strand pair reuse the same oriented codes; a pair's
/// seeds are extended back to back by one job, so one cache entry per worker
/// suffices to make the orientation cost per *pair* rather than per *seed*
/// (the pre-batching path recomputed `h.reverse_complement()` for every
/// seed).
#[derive(Debug, Default)]
pub struct OrientCache {
    read: Option<usize>,
    rc: Vec<u8>,
    /// Number of reverse complements actually materialised (cache misses).
    pub rc_computed: u64,
}

impl OrientCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reverse-complemented codes of read `read_id`, computed at most once
    /// per consecutive run of requests for the same read.
    pub fn reverse_complement(&mut self, read_id: usize, codes: &[u8]) -> &[u8] {
        if self.read != Some(read_id) {
            self.rc.clear();
            self.rc
                .extend(codes.iter().rev().map(|&c| dibella_seq::complement_code(c)));
            self.read = Some(read_id);
            self.rc_computed += 1;
        }
        &self.rc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_seq::DnaSeq;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn orient_cache_computes_once_per_read_run() {
        let s = DnaSeq::from_codes(vec![0, 1, 2, 3, 0, 1]);
        let mut cache = OrientCache::new();
        let rc1 = cache.reverse_complement(7, s.codes()).to_vec();
        assert_eq!(rc1, s.reverse_complement().codes());
        let _ = cache.reverse_complement(7, s.codes());
        let _ = cache.reverse_complement(7, s.codes());
        assert_eq!(cache.rc_computed, 1, "same read: cache hit");
        let other = DnaSeq::from_codes(vec![2, 2, 1]);
        let _ = cache.reverse_complement(8, other.codes());
        assert_eq!(cache.rc_computed, 2);
    }

    #[test]
    fn engine_dispatch_falls_back_on_ineligible_schemes() {
        let a: Vec<u8> = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let mut scratch = AlignScratch::new();
        // Default scheme: vector-eligible.
        let _ = xdrop_extend_auto(&a, &a, ScoringScheme::default(), 10, ExtendEngine::Auto, &mut scratch);
        assert_eq!((scratch.simd_calls, scratch.scalar_calls), (1, 0));
        // Zero gap penalty: outside the vector exactness box -> scalar.
        let weird = ScoringScheme { match_score: 1, mismatch: -1, gap: 0 };
        let _ = xdrop_extend_auto(&a, &a, weird, 10, ExtendEngine::Auto, &mut scratch);
        assert_eq!((scratch.simd_calls, scratch.scalar_calls), (1, 1));
        // Forced scalar.
        let _ = xdrop_extend_auto(&a, &a, ScoringScheme::default(), 10, ExtendEngine::Scalar, &mut scratch);
        assert_eq!((scratch.simd_calls, scratch.scalar_calls), (1, 2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // PairAlignments are bit-identical between engines, both strands,
        // arbitrary seeds — the end-to-end form of the kernel equivalence.
        #[test]
        fn pair_alignment_engine_equivalence(
            seed in 0u64..1_000_000,
            len in 30usize..250,
            reverse in any::<bool>(),
            xdrop in 1i32..80,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let genome: Vec<u8> = (0..len + 60).map(|_| rng.gen_range(0..4u8)).collect();
            let v = DnaSeq::from_codes(genome[..len].to_vec());
            let h_fwd = DnaSeq::from_codes(genome[30..len + 30].to_vec());
            let (h_oriented, strand) = if reverse {
                // Stored reverse-complemented; orient back for alignment.
                (h_fwd.clone(), Strand::Reverse)
            } else {
                (h_fwd.clone(), Strand::Forward)
            };
            // Seed at a shared position: v[40..52) == h_fwd[10..22).
            let k = 12usize;
            let seed_v = 40usize.min(len - k);
            let seed_h = seed_v.saturating_sub(30);
            let mut config = AlignmentConfig::for_tests();
            config.xdrop = xdrop;
            let mut scratch = AlignScratch::new();
            let auto = align_seed_pair_with(
                v.codes(), h_oriented.codes(), seed_v, seed_h, k, strand,
                &config, ExtendEngine::Auto, &mut scratch,
            );
            let scal = align_seed_pair_with(
                v.codes(), h_oriented.codes(), seed_v, seed_h, k, strand,
                &config, ExtendEngine::Scalar, &mut scratch,
            );
            prop_assert_eq!(auto, scal);
            // And the legacy DnaSeq entry point agrees.
            let legacy = crate::xdrop::align_seed_pair(
                &v, &h_oriented, seed_v, seed_h, k, strand, &config,
            );
            prop_assert_eq!(auto, legacy);
        }
    }
}
