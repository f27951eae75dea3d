//! Compare the overlap-detection strategies on one simulated dataset:
//! diBELLA 2D with the exact reliable-k-mer matrix (SpGEMM + alignment),
//! diBELLA 2D with the k-min-mer sketch matrix (same SpGEMM + alignment on a
//! ~density× smaller `A`), diBELLA 1D (outer product + alignment) and a
//! minimap2-style minimizer overlapper (no alignment).
//!
//! Each diBELLA row is one pipeline run.  Its time is the run's stage
//! timings up to and including alignment (k-mer counting or the sketch
//! index, `A`, the read exchange, overlap detection, alignment), and its comm
//! words are the words of the same phases; the transitive reduction and
//! consensus of the 2D runs are left out, so the rows compare like with like.
//! The minimizer row is the wall clock of its one call.
//!
//! ```bash
//! cargo run --release --example compare_overlappers
//! ```

use dibella2d::dist::CommSnapshot;
use dibella2d::overlap::OverlapStats;
use dibella2d::pipeline::timings::timed;
use dibella2d::prelude::*;
use std::collections::BTreeSet;

/// The phases a row's comm words add up: those up to and including
/// alignment.
const OVERLAP_PHASES: [CommPhase; 4] = [
    CommPhase::KmerCounting,
    CommPhase::SketchIndex,
    CommPhase::ReadExchange,
    CommPhase::OverlapDetection,
];

fn main() {
    let dataset = DatasetSpec::EColiLike.generate_with_length(30_000, 21);
    println!(
        "dataset: {} reads, {:.1}x depth, {:.0} bp mean read length\n",
        dataset.num_reads(),
        dataset.achieved_depth(),
        dataset.mean_read_length()
    );
    let config = PipelineConfig::for_benchmark(17, dataset.config.error_rate, 16);

    // Ground truth from the simulator: pairs of reads whose genomic intervals
    // overlap by at least the pipeline's minimum overlap.
    let min_overlap = config.overlap.alignment.min_overlap;
    let truth = dataset.true_pairs(min_overlap);
    println!("ground-truth overlapping pairs (>= {min_overlap} bp): {}\n", truth.len());

    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10} {:>9}",
        "method", "pairs", "recall%", "prec.%", "time (s)", "align (s)", "Mcells/s", "comm words"
    );

    // diBELLA 2D, with the alignment stage (the dominant cost, Figures 5-8)
    // timed on its own.
    let exact = run_dibella_2d_on_reads(&dataset.reads, &config).expect("diBELLA 2D run");
    report_run(
        "diBELLA 2D (SpGEMM)",
        &exact.overlap_matrix,
        &exact.overlap_stats,
        &exact.timings,
        &exact.comm,
        &truth,
    );

    // diBELLA 2D on the k-min-mer sketch matrix — same SUMMA + alignment,
    // but the occurrence matrix has one column per k-min-mer (HPC + density
    // minimizers) instead of one per reliable k-mer, so there is no k-mer
    // counting stage and far fewer nonzeros to broadcast and multiply.
    let sketch_config = PipelineConfig { candidate_source: CandidateSource::KMinMer, ..config };
    let kmm = run_dibella_2d_on_reads(&dataset.reads, &sketch_config)
        .expect("diBELLA 2D k-min-mer run");
    report_run(
        "diBELLA 2D (k-min-mer)",
        &kmm.overlap_matrix,
        &kmm.overlap_stats,
        &kmm.timings,
        &kmm.comm,
        &truth,
    );
    let info = kmm.sketch.expect("a k-min-mer run reports its sketch");
    println!(
        "  \\- sketch A: {} nnz, {} k-min-mer columns, density {:.3}, HPC ratio {:.2}",
        info.nnz,
        info.columns,
        info.achieved_density(),
        info.hpc_ratio(),
    );

    // diBELLA 1D.
    let one_d = run_dibella_1d(&dataset.reads, &config).expect("diBELLA 1D run");
    report_run(
        "diBELLA 1D (hash)",
        &one_d.overlap_matrix,
        &one_d.overlap_stats,
        &one_d.timings,
        &one_d.comm,
        &truth,
    );

    // Minimizer overlapper (shared-memory, no alignment — like minimap2).
    let cfg = MinimizerConfig { min_span: min_overlap, ..MinimizerConfig::default() };
    let (found, elapsed) = timed(|| minimizer_overlaps(&dataset.reads, &cfg));
    let pairs: BTreeSet<(usize, usize)> = found.iter().map(|o| (o.read_a, o.read_b)).collect();
    report("minimizer (no align)", &pairs, &truth, elapsed, "-", "-", 0);

    println!(
        "\nNote: the minimizer overlapper skips base-level alignment, which is why it is fast\n\
         but reports approximate overlaps; the paper makes the same observation about minimap2."
    );
}

/// Print the row of one diBELLA run from its `R`, overlap counters, stage
/// timings and communication counters.
fn report_run(
    name: &str,
    overlaps: &DistMat2D<OverlapEdge>,
    stats: &OverlapStats,
    t: &StageTimings,
    comm: &CommSnapshot,
    truth: &BTreeSet<(usize, usize)>,
) {
    let found: BTreeSet<(usize, usize)> =
        overlaps.iter().filter(|(i, j, _)| i < j).map(|(i, j, _)| (i, j)).collect();
    let secs = t.count_kmer + t.create_spmat + t.exchange_read + t.spgemm + t.alignment;
    // The alignment stage's seconds and DP-cell throughput.
    let rate = stats.aligned_cells as f64 / t.alignment / 1e6;
    let rate = if rate.is_finite() { format!("{rate:.1}") } else { "-".into() };
    let words = OVERLAP_PHASES.iter().map(|&phase| comm.phase(phase).words).sum();
    report(name, &found, truth, secs, &format!("{:.2}", t.alignment), &rate, words);
}

/// Print one row; `align_s` and `rate` are "-" for a method that skips
/// base-level alignment.
fn report(
    name: &str,
    found: &BTreeSet<(usize, usize)>,
    truth: &BTreeSet<(usize, usize)>,
    elapsed: f64,
    align_s: &str,
    rate: &str,
    comm_words: u64,
) {
    let true_pos = found.intersection(truth).count();
    let recall = 100.0 * true_pos as f64 / truth.len().max(1) as f64;
    let precision = 100.0 * true_pos as f64 / found.len().max(1) as f64;
    println!(
        "{name:<22} {:>9} {recall:>8.1} {precision:>8.1} {elapsed:>10.2} {align_s:>10} {rate:>10} {comm_words:>9}",
        found.len()
    );
}
