//! Golden end-to-end assembly test: simulate long reads from a known 20 kbp
//! reference, run the full OLC pipeline (overlap → layout → consensus), and
//! hold the result to assembler-grade thresholds — NG50 covering most of the
//! genome and ≥99% consensus identity.  This is the acceptance bar for the
//! consensus stage; the `assembly_quality` bench harness reports the same
//! metrics on the same dataset shape as `BENCH_assembly.json`.

use dibella2d::prelude::*;
use dibella2d::seq::simulate::{generate_genome, simulate_reads, GenomeConfig, ReadSimConfig};

/// A 20 kbp reference read at 15× by ~1.2 kb reads with a narrow length
/// distribution (uniform lengths keep containments rare, so the layouts
/// carry real depth into the POA) at a PacBio-HiFi-like 5% error rate.
fn golden_dataset() -> (dibella2d::seq::DnaSeq, ReadSet, Vec<dibella2d::seq::simulate::ReadOrigin>)
{
    let genome = generate_genome(&GenomeConfig {
        length: 20_000,
        repeat_fraction: 0.02,
        repeat_length: 300,
        seed: 71,
    });
    let sim = ReadSimConfig {
        depth: 15.0,
        mean_read_length: 1_200,
        min_read_length: 900,
        read_length_sd: 100,
        error_rate: 0.05,
        seed: 72,
        ..ReadSimConfig::default()
    };
    let (reads, origins) = simulate_reads(&genome, &sim);
    (genome, reads, origins)
}

#[test]
fn golden_20kbp_assembly_meets_ng50_and_identity_thresholds() {
    let (genome, reads, origins) = golden_dataset();
    let config = PipelineConfig::for_small_reads(15, 4);
    let out = run_dibella_2d_on_reads(&reads, &config).unwrap();

    assert!(!out.contigs.is_empty());
    assert_eq!(out.contigs.len(), out.consensus.len());

    let metrics =
        evaluate_assembly(&out.contigs, &out.consensus, &origins, &genome, &config.consensus);

    // Contiguity: half the genome must be covered by large contigs.  (The
    // current pipeline assembles this dataset into a single near-full-length
    // contig; the threshold leaves room for seed-dependent fragmentation.)
    assert!(
        metrics.ng50 >= genome.len() / 2,
        "NG50 {} below half the genome ({})",
        metrics.ng50,
        genome.len()
    );
    assert!(
        metrics.assembled_bases >= genome.len() * 8 / 10,
        "assembled {} bases of a {} base genome",
        metrics.assembled_bases,
        genome.len()
    );

    // Accuracy: the consensus must polish 5%-error reads to >=99% identity.
    assert!(
        metrics.mean_identity >= 0.99,
        "mean identity {:.4} below 0.99",
        metrics.mean_identity
    );
    assert!(
        metrics.largest_identity >= 0.99,
        "largest-contig identity {:.4} below 0.99",
        metrics.largest_identity
    );

    // The instrument itself: `banded_identity` is what the two numbers above
    // (and the benchmark's `accuracy`) are measured with, so its values on
    // this dataset — the headline pair and all 150 per-contig identities,
    // folded — are pinned to the bit.  They were recorded before the banded
    // kernel behind it was rebuilt; a kernel change may not move them.
    assert_eq!(metrics.mean_identity.to_bits(), 0x3fef_ea6d_441d_c451);
    assert_eq!(metrics.largest_identity.to_bits(), 0x3fef_ea6d_441d_c450);
    let folded = metrics
        .per_contig
        .iter()
        .fold(0u64, |acc, q| acc ^ q.identity.to_bits().rotate_left((q.length % 64) as u32));
    assert_eq!((metrics.per_contig.len(), folded), (150, 0xde45_3cb1_89ca_97a2));

    // Structural correctness: adjacent layout reads must truly overlap on
    // the reference.
    assert_eq!(metrics.misjoins, 0, "misjoined layouts: {:?}", metrics.per_contig);

    // The consensus stage was timed and accounted.
    assert!(out.timings.consensus > 0.0);
    assert!(out.consensus_summary.poa_nodes > 0);

    // Determinism: the pipeline's pool-parallel per-contig consensus must be
    // bit-identical to a serial recomputation, pinned to one worker thread.
    let s_local = out.string_matrix.to_local_csr();
    let serial = dibella2d::dist::with_threads(1, || {
        consensus_contigs(&out.contigs, &s_local, &reads, &config.consensus)
    });
    assert_eq!(out.consensus, serial, "consensus must not depend on the thread count");
}
