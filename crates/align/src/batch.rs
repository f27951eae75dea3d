//! Batched seed-and-extend engine: per-worker scratch, oriented-read cache,
//! and vector/scalar dispatch.
//!
//! The overlap stage runs one job per candidate pair on the work-stealing
//! pool; each worker holds one [`AlignScratch`] that amortises every buffer
//! an extension needs — the scalar DP double buffer, the vector-kernel word
//! buffers and substitution tables, the reversed-prefix buffers of the left
//! extension, and the reverse-complement cache for opposite-strand pairs.  After the first few work items warm the
//! buffers, the steady state allocates **nothing** per alignment (pinned by
//! the `alloc_steady_state` integration test of this crate).
//!
//! Dispatch is on the engine alone: [`ExtendEngine::Auto`] runs the
//! lane-packed vector kernel ([`crate::vector`]), [`ExtendEngine::Scalar`]
//! the scalar oracle.  The kernel's lane word is the widest the host has
//! ([`vector_kernel`]):
//! `__m256i` on an x86-64 CPU that reports AVX2 (asked per call — a cached
//! flag), else `__m128i`; `[i16; 8]` on every other target.  All of them
//! produce bit-identical [`ExtendResult`]s and counters, so neither the
//! engine nor the host ever changes pipeline output.

use crate::classify::PairAlignment;
use crate::lanes::Lanes;
use crate::scoring::{AlignmentConfig, MATCH};
use crate::vector::VectorScratch;
use crate::xdrop::{xdrop_extend_with, ExtendCounters, ExtendResult, XdropScratch};
use dibella_seq::Strand;

/// The lane word the vector kernel runs on.
#[cfg(target_arch = "x86_64")]
pub(crate) type Word = std::arch::x86_64::__m128i;
/// The lane word the vector kernel runs on.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) type Word = [i16; 8];

/// The wider x86-64 word, for a CPU that reports AVX2.
#[cfg(target_arch = "x86_64")]
pub(crate) type WideWord = std::arch::x86_64::__m256i;

/// Name of the lane word [`ExtendEngine::Auto`] runs on *this host*, as bench
/// records print it (`"avx2"`, `"sse2"` or `"portable"`).
pub fn vector_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        return <WideWord as Lanes>::NAME;
    }
    <Word as Lanes>::NAME
}

/// Which extension kernel the batched engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtendEngine {
    /// The vector kernel on the host's widest lane word; it panics on an
    /// x-drop outside `0..=`[`MAX_XDROP`](crate::vector::MAX_XDROP).
    #[default]
    Auto,
    /// Always the scalar oracle (the reference / bench comparison path).
    Scalar,
}

/// Per-worker reusable state for batched alignment.
#[derive(Debug, Default)]
pub struct AlignScratch {
    xdrop: XdropScratch,
    vector: VectorScratch<Word>,
    /// Grown only on a host with AVX2, where `vector` then stays empty.
    #[cfg(target_arch = "x86_64")]
    vector_wide: VectorScratch<WideWord>,
    rev_a: Vec<u8>,
    rev_b: Vec<u8>,
    /// Cell/band/termination counters accumulated over every extension this
    /// scratch ran (engine-independent: all kernels count identically).
    pub counters: ExtendCounters,
    /// Extensions dispatched to the vector kernel ([`vector_kernel`]).
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
    xdrop: i32,
    engine: ExtendEngine,
    scratch: &mut AlignScratch,
) -> ExtendResult {
    let counters = &mut scratch.counters;
    match engine {
        ExtendEngine::Auto => {
            scratch.simd_calls += 1;
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                return WideWord::extend(a, b, xdrop, &mut scratch.vector_wide, counters);
            }
            Word::extend(a, b, xdrop, &mut scratch.vector, counters)
        }
        ExtendEngine::Scalar => {
            scratch.scalar_calls += 1;
            xdrop_extend_with(a, b, xdrop, &mut scratch.xdrop, counters)
        }
    }
}

/// Align read `v` against read `h` starting from a shared-k-mer seed.
///
/// `seed_v` and `seed_h` are the k-mer start positions on `v` and on the
/// *oriented* `h`; `k` is the seed length.  The seed region is scored as `k`
/// matches and the alignment is extended with [`xdrop_extend_auto`] on both
/// sides.  Operates on raw 2-bit code slices (no `DnaSeq` clones) and reuses
/// the worker scratch for both extensions and the reversed-prefix buffers.
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

    // Right extension over the suffixes beyond the seed.
    let right = xdrop_extend_auto(&v[seed_v + k..], &h_oriented[seed_h + k..], config.xdrop, engine, scratch);

    // Left extension over the reversed prefixes before the seed, built into
    // the reusable buffers (cleared, not reallocated), which leave the
    // scratch for the call so that it can be borrowed whole.
    let mut rev_a = std::mem::take(&mut scratch.rev_a);
    let mut rev_b = std::mem::take(&mut scratch.rev_b);
    rev_a.clear();
    rev_a.extend(v[..seed_v].iter().rev().copied());
    rev_b.clear();
    rev_b.extend(h_oriented[..seed_h].iter().rev().copied());
    let left = xdrop_extend_auto(&rev_a, &rev_b, config.xdrop, engine, scratch);
    scratch.rev_a = rev_a;
    scratch.rev_b = rev_b;

    let score = left.score + right.score + (k as i32) * MATCH;
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

    // CI prints this next to the bench records, whose rates depend on it.
    #[test]
    fn vector_kernel_names_a_lane_word() {
        println!("vector_kernel() = {}", vector_kernel());
        assert!(["avx2", "sse2", "portable"].contains(&vector_kernel()));
    }

    #[test]
    fn engine_dispatch_counts_each_kernel() {
        let a: Vec<u8> = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let mut scratch = AlignScratch::new();
        let _ = xdrop_extend_auto(&a, &a, 10, ExtendEngine::Auto, &mut scratch);
        assert_eq!((scratch.simd_calls, scratch.scalar_calls), (1, 0));
        let _ = xdrop_extend_auto(&a, &a, 10, ExtendEngine::Scalar, &mut scratch);
        assert_eq!((scratch.simd_calls, scratch.scalar_calls), (1, 1));
        assert_eq!(scratch.counters.calls, 2);
    }

    /// One seed-pair alignment on a cold scratch.
    fn pair(
        v: &DnaSeq,
        h_oriented: &DnaSeq,
        seed_v: usize,
        seed_h: usize,
        k: usize,
        strand: Strand,
        engine: ExtendEngine,
    ) -> PairAlignment {
        let (v, h) = (v.codes(), h_oriented.codes());
        let config = AlignmentConfig::for_tests();
        align_seed_pair_with(v, h, seed_v, seed_h, k, strand, &config, engine, &mut AlignScratch::new())
    }

    #[test]
    fn seed_pair_alignment_on_exact_overlap() {
        // v = genome[0..60), h = genome[30..90): a 30-base overlap.
        let mut rng = SmallRng::seed_from_u64(1);
        let genome = DnaSeq::from_codes((0..90).map(|_| rng.gen_range(0..4u8)).collect());
        let v = genome.slice(0, 60);
        let h = genome.slice(30, 90);
        // Shared seed: genome[40..50) = v[40..50) = h[10..20).
        let aln = pair(&v, &h, 40, 10, 10, Strand::Forward, ExtendEngine::Auto);
        assert_eq!(aln.beg_v, 30);
        assert_eq!(aln.end_v, 60);
        assert_eq!(aln.beg_h, 0);
        assert_eq!(aln.end_h, 30);
        assert_eq!(aln.score, 30);
        assert_eq!(aln.strand, Strand::Forward);
    }

    #[test]
    fn seed_pair_alignment_tolerates_errors() {
        let mut rng = SmallRng::seed_from_u64(2);
        let genome = DnaSeq::from_codes((0..600).map(|_| rng.gen_range(0..4u8)).collect());
        let v = genome.slice(0, 400);
        let h_template = genome.slice(200, 600);
        // Introduce ~5% substitution errors into h.
        let mut h_codes = h_template.codes().to_vec();
        for idx in (0..h_codes.len()).step_by(20) {
            h_codes[idx] = (h_codes[idx] + 1) % 4;
        }
        let h = DnaSeq::from_codes(h_codes);
        // Find an exact shared 12-mer to seed from: search a window of v in h.
        // (Position 241 avoids the substituted positions 240 and 260.)
        let seed_v = 241;
        let window = v.slice(seed_v, seed_v + 12).to_ascii();
        let h_ascii = h.to_ascii();
        let seed_h = h_ascii.find(&window).expect("seed window should exist in h");
        let aln = pair(&v, &h, seed_v, seed_h, 12, Strand::Forward, ExtendEngine::Auto);
        // The overlap region is ~200 bases; the alignment should span most of it.
        assert!(aln.end_v - aln.beg_v > 150, "aligned span too short: {aln:?}");
        assert!(aln.score > 100, "score too low: {aln:?}");
        // And it should reach (close to) the ends of the overlapping region.
        assert!(aln.end_v >= 395, "alignment should reach the end of v: {aln:?}");
        assert!(aln.beg_h <= 5, "alignment should reach the start of h: {aln:?}");
    }

    #[test]
    fn reverse_complement_overlap_aligns_on_oriented_h() {
        let mut rng = SmallRng::seed_from_u64(3);
        let genome = DnaSeq::from_codes((0..300).map(|_| rng.gen_range(0..4u8)).collect());
        let v = genome.slice(0, 200);
        let h = genome.slice(100, 300).reverse_complement(); // stored reverse-complemented
        let h_oriented = h.reverse_complement(); // orient back for alignment
        let seed_v = 150;
        let window = v.slice(seed_v, seed_v + 10).to_ascii();
        let seed_h = h_oriented.to_ascii().find(&window).unwrap();
        let aln = pair(&v, &h_oriented, seed_v, seed_h, 10, Strand::Reverse, ExtendEngine::Auto);
        assert_eq!(aln.strand, Strand::Reverse);
        assert_eq!(aln.end_v - aln.beg_v, 100, "the 100-base overlap should align fully");
    }

    #[test]
    #[should_panic(expected = "seed exceeds read v")]
    fn out_of_range_seed_panics() {
        let (v, h) = ("ACGT".parse().unwrap(), "ACGTACGT".parse().unwrap());
        let _ = pair(&v, &h, 3, 0, 5, Strand::Forward, ExtendEngine::Auto);
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
            let v = &genome[..len];
            let h_oriented = &genome[30..len + 30];
            let strand = if reverse { Strand::Reverse } else { Strand::Forward };
            // Seed at a shared position: v[40..52) == h[10..22).
            let k = 12usize;
            let seed_v = 40usize.min(len - k);
            let seed_h = seed_v.saturating_sub(30);
            let mut config = AlignmentConfig::for_tests();
            config.xdrop = xdrop;
            let mut scratch = AlignScratch::new();
            let [auto, scal] = [ExtendEngine::Auto, ExtendEngine::Scalar].map(|engine| {
                align_seed_pair_with(
                    v, h_oriented, seed_v, seed_h, k, strand, &config, engine, &mut scratch,
                )
            });
            prop_assert_eq!(auto, scal);
        }
    }
}
