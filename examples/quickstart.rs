//! Quickstart: simulate a small long-read dataset, run the diBELLA 2D
//! pipeline, and inspect the resulting string graph, contig layouts and
//! consensus sequences.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use dibella2d::prelude::*;

fn main() {
    // 1. Input.  The paper runs on PacBio CLR FASTA files; here we simulate a
    //    small dataset with the same statistics (depth, read length, error
    //    rate) so the example runs in seconds.
    let dataset = DatasetSpec::EColiLike.generate_with_length(40_000, 7);
    println!(
        "simulated {}: {} reads, mean length {:.0} bp, depth {:.1}x, genome {} bp",
        dataset.label,
        dataset.num_reads(),
        dataset.mean_read_length(),
        dataset.achieved_depth(),
        dataset.genome.len()
    );

    // 2. Configure the pipeline.  `for_benchmark` mirrors the paper's settings
    //    (k = 17, BELLA-style reliable k-mer bounds) adapted to the scaled
    //    read length; `nprocs` is the number of virtual MPI ranks.
    let config = PipelineConfig::for_benchmark(17, dataset.config.error_rate, 16);

    // 3. Run Algorithm 1 plus the consensus stage: k-mer counting, C = A·Aᵀ,
    //    alignment, pruning, the transitive reduction of Algorithm 2, contig
    //    layout and POA consensus.
    let out = run_dibella_2d_on_reads(&dataset.reads, &config).expect("a valid configuration");

    println!("\n== pipeline summary ==");
    println!("reliable k-mers (m):        {}", out.dims.kmers);
    println!("candidate pairs:            {}", out.overlap_stats.candidate_pairs);
    println!("aligned pairs:              {}", out.overlap_stats.aligned_pairs);
    println!("pruned (both contained):    {}", out.overlap_stats.pruned_pairs);
    println!("accepted overlaps:          {}", out.overlap_stats.dovetail);
    println!("contained reads removed:    {}", out.overlap_stats.contained_reads);
    println!("overlap matrix nnz (R):     {}", out.overlap_matrix.nnz());
    println!("string matrix nnz (S):      {}", out.string_matrix.nnz());
    println!("transitive edges removed:   {}", out.tr_summary.removed_edges);
    println!("TR iterations:              {}", out.tr_summary.iterations);

    println!("\n== stage timings (s) ==");
    for (label, value) in StageTimings::LABELS.iter().zip(out.timings.values()) {
        println!("{label:>14}: {value:8.3}");
    }
    println!("{:>14}: {:8.3}", "Total", out.timings.total());

    println!("\n== communication (virtual {} ranks) ==", out.grid.nprocs());
    for (phase, counters) in &out.comm.phases {
        println!(
            "{phase:>22}: {:>12} words, {:>8} messages",
            counters.words, counters.messages
        );
    }

    // 4. The pipeline already extracted the contig layouts and polished one
    //    POA consensus per layout — the full OLC loop.
    println!("\n== contigs & consensus ==");
    println!("contig layouts:             {}", out.contigs.len());
    println!("multi-read contigs:         {}", out.consensus_summary.multi_read_contigs);
    println!("POA graph nodes:            {}", out.consensus_summary.poa_nodes);
    println!(
        "POA DP cells:               {} ({:.1} Mcells/s over the consensus stage)",
        out.consensus_summary.dp_cells,
        out.consensus_summary.dp_cells as f64 / out.timings.consensus.max(1e-9) / 1e6
    );
    println!("unplaced reads:             {}", out.consensus_summary.unplaced_reads);
    if let Some((largest, cons)) = out.contigs.iter().zip(&out.consensus).next() {
        println!(
            "largest contig:             {} reads, {} bp consensus (genome is {} bp)",
            largest.reads.len(),
            cons.consensus.len(),
            dataset.genome.len()
        );
    }

    // 5. Score the assembly against the simulator's known reference.
    let metrics = evaluate_assembly(
        &out.contigs,
        &out.consensus,
        &dataset.origins,
        &dataset.genome,
        &config.consensus,
    );
    println!("NG50:                       {} bp", metrics.ng50);
    println!("consensus identity:         {:.2}%", metrics.mean_identity * 100.0);
    println!("misjoins:                   {}", metrics.misjoins);
}
