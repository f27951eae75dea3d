//! Memory contract of the consensus stage, measured with the shared
//! [`PeakAlloc`] counting allocator: the banded aligner keeps each row's band
//! as `i16` lane words (two bytes a cell, plus a dead fence word a row) in
//! buffers a layout's reads share, and the POA graph keeps its nodes and
//! edges in flat arenas — so a layout of long noisy reads peaks at a few
//! megabytes (the full-width traceback matrix this replaced took about 50 MB
//! on the same layout), and the number of allocation calls does not depend
//! on how long the reads are.
//!
//! The counters are process-global, so this file holds a single test; the
//! allocation calls are the calling thread's own (the consensus of one contig
//! runs on it alone), which libtest's threads cannot move.

use dibella_seq::simulate::apply_errors;
use dibella_seq::DnaSeq;
use dibella_strgraph::fixtures::chain_layout;
use dibella_strgraph::{consensus_contig, ConsensusConfig};
use dibella_testutil::PeakAlloc;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

/// Allocation calls and peak resident bytes of one consensus over seven reads
/// of `read_len` template bases at 13% error, each starting a quarter of a
/// read after the one before.
fn measure(read_len: usize) -> (u64, u64) {
    let mut rng = SmallRng::seed_from_u64(41);
    let step = read_len / 4;
    let genome = DnaSeq::from_codes((0..read_len + 6 * step).map(|_| rng.gen_range(0..4u8)).collect());
    // Each read is sequenced in two pieces, so that the edges can say where
    // the next read starts in read coordinates, as an alignment would.
    let (mut reads, mut joins) = (Vec::new(), Vec::new());
    for start in (0..7).map(|i| i * step) {
        let lead = apply_errors(&genome.slice(start, start + step), 0.13, &mut rng);
        let rest = apply_errors(&genome.slice(start + step, start + read_len), 0.13, &mut rng);
        joins.push((lead.len(), step));
        reads.push(lead.concat(&rest));
    }
    let (contig, s, reads) = chain_layout(reads, &joins[..6]);

    let scope = ALLOC.scope();
    let out = consensus_contig(&contig, &s, &reads, &ConsensusConfig::default());
    let measured = (scope.thread_allocations(), scope.peak_resident());
    assert_eq!(out.unplaced_reads, 0);
    assert!(out.consensus.len().abs_diff(genome.len()) < genome.len() / 20);
    measured
}

#[test]
fn consensus_memory_is_a_few_megabytes_and_its_allocations_do_not_follow_read_length() {
    let (allocations, peak) = measure(7_000);
    assert!(peak < 4 << 20, "7 reads of 7 kb peaked at {peak} bytes");

    // Four times the read length: every buffer is four times the size, which
    // a doubling `Vec` reaches in two more steps — and nothing allocates per
    // row, per cell or per graph node.
    let (allocations_4x, _) = measure(28_000);
    assert!(
        allocations_4x <= allocations + 24,
        "{allocations} allocation calls at 7 kb, {allocations_4x} at 28 kb"
    );
    assert!(allocations < 200, "{allocations} allocation calls for 7 reads");
}
