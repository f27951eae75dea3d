//! Assemble a FASTA file of long reads end to end: string-graph contig
//! layouts **and** their POA consensus sequences, written as FASTA.
//!
//! This is the "real input" entry point: point it at a FASTA file of long
//! reads (PacBio CLR-like) and it runs the full diBELLA 2D pipeline
//! (overlap → layout → consensus) and writes the contig layout report plus a
//! consensus FASTA next to the input.  Without an argument it first simulates
//! a dataset, writes it to a temporary FASTA file, and assembles that — so
//! the example is runnable out of the box.
//!
//! ```bash
//! cargo run --release --example assemble_fasta -- reads.fa [virtual-ranks]
//! cargo run --release --example assemble_fasta            # simulated input
//! ```

use dibella2d::prelude::*;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nprocs: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);

    let (path, error_rate): (PathBuf, f64) = match args.get(1) {
        Some(p) => (PathBuf::from(p), 0.14),
        None => {
            // No input given: simulate a C. elegans-like dataset (scaled) and
            // write it next to the target directory.
            let ds = DatasetSpec::CElegansLike.generate_with_length(30_000, 11);
            let path = std::env::temp_dir().join("dibella2d_example_reads.fa");
            std::fs::write(&path, write_fasta(&ds.reads)).expect("writing simulated FASTA");
            println!(
                "no input given; simulated {} ({} reads) -> {}",
                ds.label,
                ds.reads.len(),
                path.display()
            );
            (path, ds.config.error_rate)
        }
    };

    let reads = parse_fasta_file(&path).expect("parsing FASTA input");
    println!(
        "assembling {} reads ({:.1} Mbp) from {} on {} virtual ranks",
        reads.len(),
        reads.total_bases() as f64 / 1e6,
        path.display(),
        nprocs
    );

    // Choose k and thresholds for the observed read length: the paper's k=17
    // works for multi-kb reads; shorter simulated reads need a smaller seed.
    let mean_len = reads.mean_read_length();
    let k = if mean_len >= 3_000.0 { 17 } else { 13 };
    let mut config = PipelineConfig::for_benchmark(k, error_rate, nprocs);
    if mean_len < 1_500.0 {
        config = PipelineConfig::for_small_reads(k, nprocs);
    }

    let out = run_dibella_2d_on_reads(&reads, &config).expect("running the pipeline");

    println!("\nstage timings (s):");
    for (label, value) in StageTimings::LABELS.iter().zip(out.timings.values()) {
        println!("  {label:>13}: {value:8.3}");
    }
    println!("  {:>13}: {:8.3}", "Total", out.timings.total());
    println!(
        "\noverlaps: {} accepted, {} contained reads removed, {} internal matches rejected",
        out.overlap_stats.dovetail, out.overlap_stats.contained_reads, out.overlap_stats.internal
    );
    println!(
        "string graph: {} edges after removing {} transitive edges in {} rounds",
        out.string_matrix.nnz(),
        out.tr_summary.removed_edges,
        out.tr_summary.iterations
    );

    // Contig layouts (already extracted by the pipeline's consensus stage).
    let out_path = path.with_extension("contigs.txt");
    let mut report = String::new();
    for (i, contig) in out.contigs.iter().enumerate().filter(|(_, c)| c.reads.len() > 1) {
        report.push_str(&format!(
            "contig_{i}\t{} reads\t~{} bp\t{}\n",
            contig.reads.len(),
            contig.estimated_length,
            contig
                .reads
                .iter()
                .map(|&r| reads.name(r))
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    std::fs::write(&out_path, &report).expect("writing contig report");
    let multi: Vec<usize> = out.contigs.iter().map(|c| c.reads.len()).filter(|&l| l > 1).collect();
    println!(
        "\nwrote {} multi-read contig layouts to {} (largest spans {} reads)",
        multi.len(),
        out_path.display(),
        multi.iter().max().copied().unwrap_or(0)
    );

    // Consensus FASTA: one polished sequence per multi-read contig.
    let mut consensus_reads = dibella2d::seq::ReadSet::new();
    for (i, (contig, cons)) in out.contigs.iter().zip(&out.consensus).enumerate() {
        if contig.reads.len() > 1 {
            consensus_reads.push(dibella2d::seq::ReadRecord {
                name: format!("contig_{i}_reads_{}_len_{}", contig.reads.len(), cons.consensus.len()),
                seq: cons.consensus.clone(),
            });
        }
    }
    let fasta_path = path.with_extension("consensus.fa");
    std::fs::write(&fasta_path, write_fasta(&consensus_reads)).expect("writing consensus FASTA");
    println!(
        "wrote {} consensus sequences ({} bp) to {}",
        consensus_reads.len(),
        consensus_reads.total_bases(),
        fasta_path.display()
    );
}
