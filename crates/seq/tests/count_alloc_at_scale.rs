//! Pins the k-mer counter's memory at a paper-scale rank count.
//!
//! Anything the k-mer exchange holds per (source, owner) pair is paid `P²`
//! times — even an empty `Vec` header on each side is 48 B × `P²`, 0.8 GB
//! here — which the benchmark's P = 16 never sees but which keeps the
//! scaling figures from running.  Here `DatasetSpec::Tiny` (80 reads, so
//! 4 016 of 4 096 ranks have nothing to extract) is counted at P = 4 096
//! under the shared counting allocator with a cap linear in the input and
//! in `P`, with no rank-pair term.
//!
//! This file holds a single `#[test]` on purpose: the counter is global.

use dibella_dist::CommStats;
use dibella_seq::{count_kmers_distributed, count_kmers_serial, DatasetSpec, KmerSelection};
use dibella_testutil::PeakAlloc;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

#[test]
fn counting_tiny_at_4096_ranks_stays_linear_in_input_and_ranks() {
    let ds = DatasetSpec::Tiny.generate(5);
    let sel = KmerSelection { k: 13, min_count: 2, max_count: 60 };
    let nprocs = 4096;
    let bases: usize = ds.reads.records().iter().map(|r| r.seq.len()).sum();

    let stats = CommStats::new();
    let scope = ALLOC.scope();
    let table = count_kmers_distributed(&ds.reads, &sel, nprocs, &stats);
    let peak = scope.peak_resident();

    // 64 B per input base (a packed k-mer per window, on both sides of the
    // exchange, plus owner state) and 2 KiB per rank.
    let cap = (64 * bases + (2 << 10) * nprocs) as u64;
    assert!(
        peak <= cap,
        "counting {bases} bases on {nprocs} ranks peaked at {peak} B, over the {cap} B cap: \
         something allocates per (source, owner) pair again"
    );
    let serial = count_kmers_serial(&ds.reads, &sel);
    assert_eq!(table.iter().collect::<Vec<_>>(), serial.iter().collect::<Vec<_>>());
}
