//! Compare the overlap-detection strategies on one simulated dataset:
//! diBELLA 2D with the exact reliable-k-mer matrix (SpGEMM + alignment),
//! diBELLA 2D with the k-min-mer sketch matrix (same SpGEMM + alignment on a
//! ~density× smaller `A`), diBELLA 1D (outer product + alignment) and a
//! minimap2-style minimizer overlapper (no alignment).
//!
//! ```bash
//! cargo run --release --example compare_overlappers
//! ```

use dibella2d::overlap::{
    account_read_exchange_1d, account_read_exchange_2d, align_candidates_with, build_a_matrix,
    detect_candidates_1d, detect_candidates_2d_with, ALIGNED_CELLS_KEY,
};
use dibella2d::prelude::*;
use dibella2d::seq::count_kmers_distributed;
use dibella2d::sparse::DistMat2D;
use std::time::Instant;

fn main() {
    let dataset = DatasetSpec::EColiLike.generate_with_length(30_000, 21);
    println!(
        "dataset: {} reads, {:.1}x depth, {:.0} bp mean read length\n",
        dataset.num_reads(),
        dataset.achieved_depth(),
        dataset.mean_read_length()
    );
    let nprocs = 16;
    let config = PipelineConfig::for_benchmark(17, dataset.config.error_rate, nprocs);

    // Ground truth from the simulator: pairs of reads whose genomic intervals
    // overlap by at least the pipeline's minimum overlap.
    let min_overlap = config.overlap.alignment.min_overlap;
    let mut truth = std::collections::HashSet::new();
    for i in 0..dataset.num_reads() {
        for j in (i + 1)..dataset.num_reads() {
            if dataset.true_overlap(i, j) >= min_overlap {
                truth.insert((i, j));
            }
        }
    }
    println!("ground-truth overlapping pairs (>= {min_overlap} bp): {}\n", truth.len());

    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10} {:>9}",
        "method", "pairs", "recall%", "prec.%", "time (s)", "align (s)", "Mcells/s", "comm words"
    );

    // diBELLA 2D, with the alignment stage (the dominant cost, Figures 5-8)
    // timed on its own.
    {
        let comm = CommStats::new();
        let table = count_kmers_distributed(&dataset.reads, &config.kmer, nprocs, &comm);
        let start = Instant::now();
        let grid = ProcessGrid::square_at_most(nprocs);
        let a = build_a_matrix(&dataset.reads, &table, config.overlap.k, grid, grid.nprocs());
        account_read_exchange_2d(&dataset.reads, grid, &comm);
        let candidates =
            detect_candidates_2d_with(&a, &comm, config.overlap.use_symmetric_summa);
        let t_align = Instant::now();
        let (overlaps, _) =
            align_candidates_with(&dataset.reads, &candidates, &config.overlap, Some(&comm));
        let align_secs = t_align.elapsed().as_secs_f64();
        let elapsed = start.elapsed().as_secs_f64();
        let snap = comm.snapshot();
        let cells = snap.extras.get(ALIGNED_CELLS_KEY).copied().unwrap_or(0);
        report(
            "diBELLA 2D (SpGEMM)",
            pairs_of(&overlaps),
            &truth,
            elapsed,
            Some((align_secs, cells)),
            snap.total_words(),
        );
    }

    // diBELLA 2D on the k-min-mer sketch matrix — same SUMMA + alignment,
    // but the occurrence matrix has one column per k-min-mer (HPC + density
    // minimizers) instead of one per reliable k-mer, so there is no k-mer
    // counting stage and far fewer nonzeros to broadcast and multiply.
    {
        let comm = CommStats::new();
        let start = Instant::now();
        let grid = ProcessGrid::square_at_most(nprocs);
        let (a, info) =
            build_sketch_matrix(&dataset.reads, &config.sketch, grid, grid.nprocs(), &comm);
        account_read_exchange_2d(&dataset.reads, grid, &comm);
        let candidates =
            detect_candidates_2d_with(&a, &comm, config.overlap.use_symmetric_summa);
        let t_align = Instant::now();
        let (overlaps, _) =
            align_candidates_with(&dataset.reads, &candidates, &config.overlap, Some(&comm));
        let align_secs = t_align.elapsed().as_secs_f64();
        let elapsed = start.elapsed().as_secs_f64();
        let snap = comm.snapshot();
        let cells = snap.extras.get(ALIGNED_CELLS_KEY).copied().unwrap_or(0);
        report(
            "diBELLA 2D (k-min-mer)",
            pairs_of(&overlaps),
            &truth,
            elapsed,
            Some((align_secs, cells)),
            snap.total_words(),
        );
        println!(
            "  \\- sketch A: {} nnz, {} k-min-mer columns, density {:.3}, HPC ratio {:.2}",
            info.nnz,
            info.columns,
            info.achieved_density(),
            info.hpc_ratio(),
        );
    }

    // diBELLA 1D.
    {
        let comm = CommStats::new();
        let table = count_kmers_distributed(&dataset.reads, &config.kmer, nprocs, &comm);
        let start = Instant::now();
        let grid = ProcessGrid::square(1);
        let a = build_a_matrix(&dataset.reads, &table, config.overlap.k, grid, nprocs);
        let candidates_local = detect_candidates_1d(&a.to_local_csr(), nprocs, &comm);
        account_read_exchange_1d(&dataset.reads, &candidates_local, nprocs, &comm);
        let candidates = DistMat2D::from_triples(grid, &candidates_local.to_triples());
        let t_align = Instant::now();
        let (overlaps, _) =
            align_candidates_with(&dataset.reads, &candidates, &config.overlap, Some(&comm));
        let align_secs = t_align.elapsed().as_secs_f64();
        let elapsed = start.elapsed().as_secs_f64();
        let snap = comm.snapshot();
        let cells = snap.extras.get(ALIGNED_CELLS_KEY).copied().unwrap_or(0);
        report(
            "diBELLA 1D (hash)",
            pairs_of(&overlaps),
            &truth,
            elapsed,
            Some((align_secs, cells)),
            snap.total_words(),
        );
    }

    // Minimizer overlapper (shared-memory, no alignment — like minimap2).
    {
        let start = Instant::now();
        let cfg = MinimizerConfig { min_span: min_overlap, ..MinimizerConfig::default() };
        let found = minimizer_overlaps(&dataset.reads, &cfg);
        let elapsed = start.elapsed().as_secs_f64();
        let pairs: std::collections::HashSet<(usize, usize)> =
            found.iter().map(|o| (o.read_a, o.read_b)).collect();
        report("minimizer (no align)", pairs, &truth, elapsed, None, 0);
    }

    println!(
        "\nNote: the minimizer overlapper skips base-level alignment, which is why it is fast\n\
         but reports approximate overlaps; the paper makes the same observation about minimap2."
    );
}

fn pairs_of(
    overlaps: &dibella2d::sparse::DistMat2D<OverlapEdge>,
) -> std::collections::HashSet<(usize, usize)> {
    overlaps
        .to_triples()
        .iter()
        .filter(|(i, j, _)| i < j)
        .map(|(i, j, _)| (i, j))
        .collect()
}

fn report(
    name: &str,
    found: std::collections::HashSet<(usize, usize)>,
    truth: &std::collections::HashSet<(usize, usize)>,
    elapsed: f64,
    alignment: Option<(f64, u64)>,
    comm_words: u64,
) {
    let true_pos = found.intersection(truth).count();
    let recall = 100.0 * true_pos as f64 / truth.len().max(1) as f64;
    let precision = 100.0 * true_pos as f64 / found.len().max(1) as f64;
    // Alignment-stage wall clock and DP-cell throughput ("-" for methods
    // that skip base-level alignment entirely).
    let (align_s, rate) = match alignment {
        Some((secs, cells)) if secs > 0.0 => {
            (format!("{secs:.2}"), format!("{:.1}", cells as f64 / secs / 1e6))
        }
        Some((secs, _)) => (format!("{secs:.2}"), "-".to_string()),
        None => ("-".to_string(), "-".to_string()),
    };
    println!(
        "{name:<22} {:>9} {recall:>8.1} {precision:>8.1} {elapsed:>10.2} {align_s:>10} {rate:>10} {comm_words:>9}",
        found.len()
    );
}
