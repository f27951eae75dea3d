//! Pins the zero-allocation steady state of the batched alignment engine.
//!
//! The shared [`PeakAlloc`] counting allocator wraps the system allocator;
//! after warm-up calls have grown every scratch buffer, further extensions
//! and full seed-pair alignments through the worker scratch must allocate
//! nothing.  This file holds a single `#[test]` on purpose (the counters are
//! global to the process) and counts the calling thread's own allocation
//! calls, which libtest's threads cannot move.

use dibella_align::{
    align_seed_pair_with, xdrop_extend_auto, AlignmentConfig, AlignScratch, ExtendEngine,
    OrientCache,
};
use dibella_seq::{DnaSeq, Strand};
use dibella_testutil::PeakAlloc;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

fn count_allocs(f: impl FnOnce()) -> u64 {
    let scope = ALLOC.scope();
    f();
    scope.thread_allocations()
}

#[test]
fn steady_state_alignment_allocates_nothing() {
    // Deterministic pseudo-random sequences without pulling in rand (which
    // could allocate internally and pollute the counter).
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 32) as u8 % 4
    };
    let genome: Vec<u8> = (0..3000).map(|_| next()).collect();
    let v = DnaSeq::from_codes(genome[..2000].to_vec());
    let h = DnaSeq::from_codes(genome[800..2800].to_vec());
    let h_rc = h.reverse_complement();
    let config = AlignmentConfig::for_tests();

    // A cold scratch holds no buffer, and the first vector extension grows
    // the three buffers (`prev`, `cur`, `sub`) of the one lane word this host
    // runs: the scratch of the other word costs nothing, ever.
    let mut scratch = AlignScratch::new();
    let allocs = count_allocs(|| {
        let (v, h) = (v.codes(), h.codes());
        let _ = xdrop_extend_auto(v, h, 20, ExtendEngine::Auto, &mut scratch);
    });
    assert_eq!(allocs, 3, "one lane word's buffers, each grown once");
    let mut cache = OrientCache::new();

    // Warm-up: grows the DP buffers, substitution tables, reversed-prefix
    // buffers and the orientation cache to their steady-state sizes (the
    // same work shapes the steady loop replays).
    for seed_off in [0usize, 37, 113, 271] {
        let _ = cache.reverse_complement(1, h_rc.codes());
        for engine in [ExtendEngine::Auto, ExtendEngine::Scalar] {
            let _ = align_seed_pair_with(
                v.codes(),
                h.codes(),
                1200 + seed_off,
                400 + seed_off,
                17,
                Strand::Forward,
                &config,
                engine,
                &mut scratch,
            );
        }
    }

    // Steady state: repeat alignments of the same shape (different seeds,
    // both engines, orientation-cache hit included) — zero allocations.
    let allocs = count_allocs(|| {
        for seed_off in [0usize, 37, 113, 271] {
            let oriented = cache.reverse_complement(1, h_rc.codes());
            assert_eq!(oriented.len(), h.len());
            for engine in [ExtendEngine::Auto, ExtendEngine::Scalar] {
                let aln = align_seed_pair_with(
                    v.codes(),
                    h.codes(),
                    1200 + seed_off,
                    400 + seed_off,
                    17,
                    Strand::Forward,
                    &config,
                    engine,
                    &mut scratch,
                );
                assert!(aln.end_v > aln.beg_v);
            }
        }
    });
    assert_eq!(allocs, 0, "warm batched alignment must not allocate");

    // Sanity: the raw extension entry point is allocation-free too (one warm
    // call first — the full-length extension is wider than the seeded ones).
    for engine in [ExtendEngine::Auto, ExtendEngine::Scalar] {
        let _ = xdrop_extend_auto(v.codes(), h.codes(), config.xdrop, engine, &mut scratch);
    }
    let allocs = count_allocs(|| {
        let _ = xdrop_extend_auto(v.codes(), h.codes(), config.xdrop, ExtendEngine::Auto, &mut scratch);
    });
    assert_eq!(allocs, 0, "warm xdrop_extend_auto must not allocate");
}
