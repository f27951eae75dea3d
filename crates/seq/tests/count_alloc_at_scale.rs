//! Pins the k-mer counter's memory at a paper-scale rank count.
//!
//! Every source rank of a superstep prepares one bucket per owner rank, so
//! anything a bucket allocates up front is paid `P²` times.  PR 18 presized
//! each with a 64-slot floor — 512 B × `P²`, half a gigabyte at P = 1 024 and
//! 8.6 GB at P = 4 096, which OOM-killed `fig4_strong_scaling` while the
//! benchmark's P = 16 never saw it.  Here `DatasetSpec::Tiny` (80 reads, so
//! 944 of 1 024 ranks have nothing to extract) is counted at P = 1 024 under
//! the shared counting allocator with a cap that the floor breaks tenfold.
//!
//! What the cap still tolerates: the exchange's `P × P` empty `Vec` headers
//! (24 B each, on the send and on the receive side — 48 KiB per rank at this
//! P).  They go with the owner-partitioned single send buffer of ROADMAP item
//! 1(a), not with this test.
//!
//! This file holds a single `#[test]` on purpose: the counter is global.

use dibella_dist::CommStats;
use dibella_seq::{count_kmers_distributed, count_kmers_serial, DatasetSpec, KmerSelection};
use dibella_testutil::PeakAlloc;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

#[test]
fn counting_tiny_at_1024_ranks_stays_linear_in_input_and_ranks() {
    let ds = DatasetSpec::Tiny.generate(5);
    let sel = KmerSelection { k: 13, min_count: 2, max_count: 60 };
    let nprocs = 1024;
    let bases: usize = ds.reads.records().iter().map(|r| r.seq.len()).sum();

    let stats = CommStats::new();
    let scope = ALLOC.scope();
    let table = count_kmers_distributed(&ds.reads, &sel, nprocs, &stats);
    let peak = scope.peak_resident();

    // 64 B per input base (a packed k-mer per window, on both sides of the
    // exchange, plus owner state) and 64 KiB per rank.
    let cap = (64 * bases + (64 << 10) * nprocs) as u64;
    assert!(
        peak <= cap,
        "counting {bases} bases on {nprocs} ranks peaked at {peak} B, over the {cap} B cap: \
         something allocates per (source, owner) pair again"
    );
    let serial = count_kmers_serial(&ds.reads, &sel);
    assert_eq!(table.iter().collect::<Vec<_>>(), serial.iter().collect::<Vec<_>>());
}
