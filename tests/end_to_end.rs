//! End-to-end integration tests: the full diBELLA 2D pipeline on simulated
//! long-read datasets, validated against the simulator's ground truth.

use dibella2d::prelude::*;

#[test]
fn pipeline_recovers_most_true_overlaps_on_tiny_dataset() {
    let ds = DatasetSpec::Tiny.generate(101);
    let cfg = PipelineConfig::for_small_reads(13, 4);
    let out = run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap();

    // The pipeline removes contained (and near-contained, within the
    // classification fuzz) reads from the graph, as the paper prescribes, so
    // recall is evaluated among the reads the pipeline kept: for every pair of
    // surviving reads whose genomic intervals overlap comfortably, an edge
    // should be present in R.
    let surviving: Vec<bool> = {
        let r = out.overlap_matrix.to_local_csr();
        (0..r.nrows()).map(|i| r.row_nnz(i) > 0).collect()
    };
    assert!(surviving.iter().filter(|&&s| s).count() > 10, "too few surviving reads");
    let margin = cfg.overlap.alignment.min_overlap * 3;
    let truth: Vec<(usize, usize)> = ds
        .true_pairs(margin)
        .into_iter()
        .filter(|&(i, j)| surviving[i] && surviving[j])
        .collect();
    let found: std::collections::BTreeSet<(usize, usize)> = out
        .overlap_matrix
        .iter()
        .filter(|(i, j, _)| i < j)
        .map(|(i, j, _)| (i, j))
        .collect();
    let recovered = truth.iter().filter(|p| found.contains(p)).count();
    assert!(!truth.is_empty());
    assert!(
        recovered * 10 >= truth.len() * 6,
        "recall too low: {recovered}/{} comfortably-overlapping pairs recovered",
        truth.len()
    );
    // Precision: the accepted overlaps must overwhelmingly be genuine.
    let genuine_pairs = ds.true_pairs(cfg.overlap.alignment.min_overlap / 2);
    let genuine = found.intersection(&genuine_pairs).count();
    assert!(
        genuine * 10 >= found.len() * 9,
        "precision too low: {genuine}/{} accepted overlaps are genuine",
        found.len()
    );
}

#[test]
fn string_graph_is_sparser_than_overlap_graph_and_fixed_point() {
    let ds = DatasetSpec::Tiny.generate(102);
    let cfg = PipelineConfig::for_small_reads(13, 9);
    let out = run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap();
    assert!(out.string_matrix.nnz() > 0);
    assert!(out.string_matrix.nnz() < out.overlap_matrix.nnz());
    // Applying the reduction again must change nothing (fixed point).
    let again = transitive_reduction(&out.string_matrix, &cfg.transitive, &CommStats::new());
    assert_eq!(again.removed_edges, 0);
    assert_eq!(
        again.string_matrix.to_local_csr(),
        out.string_matrix.to_local_csr()
    );
}

#[test]
fn error_free_dataset_assembles_into_a_near_complete_contig() {
    // With no sequencing errors and generous depth, the string graph of a
    // single-chromosome genome should chain almost all non-contained reads
    // into one contig whose length approximates the genome.
    let mut ds = DatasetSpec::Tiny.generate_with_length(6_000, 103);
    // Regenerate reads error-free at higher depth for a clean layout.
    let genome = ds.genome.clone();
    let sim_cfg = dibella2d::seq::simulate::ReadSimConfig {
        depth: 15.0,
        mean_read_length: 900,
        min_read_length: 400,
        read_length_sd: 150,
        error_rate: 0.0,
        seed: 9,
        ..Default::default()
    };
    let (reads, origins) = dibella2d::seq::simulate::simulate_reads(&genome, &sim_cfg);
    ds.reads = reads;
    ds.origins = origins;

    let cfg = PipelineConfig::for_small_reads(15, 4);
    let out = run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap();

    let lengths = ds.reads.lengths();
    let contigs = extract_contigs(&out.string_matrix.to_local_csr(), &lengths);
    let largest = &contigs[0];
    assert!(
        largest.reads.len() >= 8,
        "largest contig should chain many reads, got {}",
        largest.reads.len()
    );
    let ratio = largest.estimated_length as f64 / genome.len() as f64;
    assert!(
        ratio > 0.5 && ratio < 1.5,
        "largest contig length {} should approximate the genome length {}",
        largest.estimated_length,
        genome.len()
    );
}

#[test]
fn one_d_and_two_d_pipelines_agree_while_communication_differs() {
    let ds = DatasetSpec::Tiny.generate(104);
    let cfg = PipelineConfig::for_small_reads(13, 16);
    let out2d = run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap();
    let out1d = run_dibella_1d(&ds.reads, &cfg).unwrap();

    assert_eq!(
        out2d.overlap_matrix.to_local_csr().pattern(),
        out1d.overlap_matrix.to_local_csr().pattern()
    );
    // Latency: the 1D overlap reduction is an all-to-all (Y = P per rank),
    // the 2D SUMMA uses broadcasts (Y = sqrt(P) per rank).
    assert!(
        out1d.comm.phase(CommPhase::OverlapDetection).messages
            > out2d.comm.phase(CommPhase::OverlapDetection).messages
    );
}

#[test]
fn fasta_roundtrip_through_the_full_pipeline() {
    let ds = DatasetSpec::Tiny.generate(105);
    let fasta = write_fasta(&ds.reads);
    let cfg = PipelineConfig::for_small_reads(13, 4);
    let from_text = run_dibella_2d(&fasta, &cfg).expect("pipeline on FASTA text");
    let from_reads = run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap();
    assert_eq!(
        from_text.string_matrix.to_local_csr(),
        from_reads.string_matrix.to_local_csr()
    );
    assert!(from_text.timings.read_fastq > 0.0);
}

#[test]
fn measured_communication_matches_the_table1_model_in_shape() {
    let ds = DatasetSpec::Tiny.generate(106);
    let cfg = PipelineConfig::for_small_reads(13, 16);
    let out = run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap();

    let params = ModelParams {
        n: out.dims.reads,
        m: out.dims.kmers,
        l: out.dims.mean_read_length,
        k: cfg.kmer.k,
        a: out.dims.a_density(),
        c: out.overlap_stats.c_density,
        r: out.overlap_stats.r_density,
    };
    let model = CommModel::new(params, out.grid.nprocs());

    // The model and the measurement use the same word conventions, so each
    // phase should agree within a small factor (load imbalance, block-size
    // rounding and pruning explain the gap).
    let check = |measured: u64, modelled: f64, phase: &str, factor: f64| {
        assert!(modelled > 0.0, "{phase}: model predicts zero traffic");
        let ratio = measured as f64 / modelled;
        assert!(
            ratio > 1.0 / factor && ratio < factor,
            "{phase}: measured {measured} vs model {modelled:.0} (ratio {ratio:.2})"
        );
    };
    check(
        out.comm.phase(CommPhase::KmerCounting).words,
        model.kmer_counting().aggregate_words,
        "k-mer counting",
        2.5,
    );
    check(
        out.comm.phase(CommPhase::OverlapDetection).words,
        model.overlap_2d().aggregate_words,
        "overlap detection",
        3.0,
    );
    check(
        out.comm.phase(CommPhase::ReadExchange).words,
        model.read_exchange_2d().aggregate_words,
        "read exchange",
        2.5,
    );
    check(
        out.comm.phase(CommPhase::TransitiveReduction).words,
        model
            .transitive_reduction_2d(
                out.tr_summary.transposed_entries,
                out.tr_summary.transposed_blocks,
            )
            .aggregate_words,
        "transitive reduction",
        4.0,
    );
}
