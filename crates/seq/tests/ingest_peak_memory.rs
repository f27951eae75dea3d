//! Pins the peak-memory contract of the superstep ingest.
//!
//! The shared [`PeakAlloc`] counting allocator measures *real* resident
//! bytes (not the counter's internal estimate): ingest under an
//! [`IngestBudget`] must stay under the budget, and the same code with no
//! budget (whole text = one chunk, whole set = one superstep) must
//! demonstrably exceed it on the same input (the negative control that
//! proves the budget is binding, not vacuous).  This file holds a single
//! `#[test]` on purpose: the counter is global, and a sibling test
//! allocating concurrently would make the delta meaningless.

use dibella_dist::CommStats;
use dibella_seq::simulate::{generate_genome, simulate_reads, GenomeConfig, ReadSimConfig};
use dibella_seq::{
    count_kmers_distributed, count_kmers_serial, count_kmers_streaming, fasta_batches,
    parse_fasta, write_fasta, IngestBudget, KmerSelection, KmerTable,
};
use dibella_testutil::PeakAlloc;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

/// Hard budget the bounded ingest must honour and the unbounded one must
/// break: well above the bounded working set (one 32 KiB batch + its
/// exchange buffers + k-mer tables over a 10 kb genome), well below the
/// unbounded working set (the full ~1 MB read set plus all ~1M extracted
/// k-mers resident at once).
const BUDGET_BYTES: usize = 8 << 20;

#[test]
fn streaming_ingest_stays_under_a_budget_the_monolithic_path_exceeds() {
    // ~1 MB of read bases at depth 100 over a 10 kb error-free genome: the
    // k-mer tables (sized by the genome) are small relative to the input, so
    // resident memory is dominated by what each ingest path keeps alive.
    let genome = generate_genome(&GenomeConfig {
        length: 10_000,
        repeat_fraction: 0.0,
        repeat_length: 100,
        seed: 71,
    });
    let sim = ReadSimConfig {
        depth: 100.0,
        mean_read_length: 2_000,
        min_read_length: 500,
        read_length_sd: 300,
        error_rate: 0.0,
        seed: 72,
        ..ReadSimConfig::default()
    };
    let (reads, _) = simulate_reads(&genome, &sim);
    let text = write_fasta(&reads);
    drop(reads);
    drop(genome);
    assert!(text.len() > 512 * 1024, "dataset too small to discriminate: {}", text.len());

    let sel = KmerSelection { k: 11, min_count: 2, max_count: 10_000 };
    let nprocs = 4;

    // Streaming ingest under the budget: chunked parse, bounded batches, one
    // superstep per batch.  Real peak resident bytes (allocator-measured,
    // above the baseline of the input text) must stay under the budget.
    let budget = IngestBudget {
        max_batch_reads: 32,
        max_batch_bytes: 32 << 10,
        max_resident_bytes: BUDGET_BYTES,
    };
    let stats = CommStats::new();
    let scope = ALLOC.scope();
    let streamed = count_kmers_streaming(
        || Ok(fasta_batches(&text, 16 << 10, budget)),
        &sel,
        nprocs,
        &budget,
        &stats,
    )
    .unwrap();
    let streaming_peak = scope.peak_resident();
    assert!(
        streaming_peak <= BUDGET_BYTES as u64,
        "streaming ingest peaked at {streaming_peak} real resident bytes, over the \
         {BUDGET_BYTES}-byte budget"
    );
    // The counter's own estimate must also have stayed under the budget (it
    // would have returned Err otherwise) and been recorded.
    let estimated = stats.extra("ingest_resident_bytes_peak");
    assert!(estimated > 0 && estimated <= BUDGET_BYTES as u64);
    assert!(stats.extra("ingest_supersteps") > 1, "must have taken multiple supersteps");

    // Unbounded negative control: same input, whole-text parse and
    // whole-input two-pass counting.  Its peak must exceed the budget — that
    // is the memory wall the bounded supersteps exist to avoid.
    let mono_stats = CommStats::new();
    let scope = ALLOC.scope();
    let mono_reads = parse_fasta(&text).unwrap();
    let mono = count_kmers_distributed(&mono_reads, &sel, nprocs, &mono_stats);
    let mono_peak = scope.peak_resident();
    drop(mono_reads);
    assert!(
        mono_peak > BUDGET_BYTES as u64,
        "monolithic ingest peaked at only {mono_peak} bytes — the {BUDGET_BYTES}-byte budget \
         is not discriminating"
    );

    // Same answer either way — the serial reference's: the budget changes
    // the memory shape, never the k-mer table.
    assert_tables_identical(&streamed, &mono);
    assert_tables_identical(&mono, &count_kmers_serial(&parse_fasta(&text).unwrap(), &sel));
    eprintln!(
        "streaming peak {streaming_peak} B (estimate {estimated} B) vs monolithic peak \
         {mono_peak} B under a {BUDGET_BYTES} B budget"
    );
}

fn assert_tables_identical(a: &KmerTable, b: &KmerTable) {
    assert_eq!(a.len(), b.len(), "table sizes differ");
    for ((ca, ka, na), (cb, kb, nb)) in a.iter().zip(b.iter()) {
        assert_eq!((ca, ka, na), (cb, kb, nb), "tables diverge at column {ca}");
    }
}
