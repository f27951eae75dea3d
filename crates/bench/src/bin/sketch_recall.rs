//! Sketch-recall harness — the k-min-mer candidate path vs the exact
//! reliable-k-mer path on the baseline scenario.
//!
//! The k-min-mer subsystem (`dibella-sketch`) replaces the occurrence matrix
//! `A` (reads × reliable k-mers) with a sketch-space matrix (reads ×
//! k-min-mers over homopolymer-compressed reads), feeding the *same*
//! `OverlapSemiring` SUMMA and x-drop aligner.  Its value proposition is a
//! cheaper front end: no k-mer counting stage, ~density× fewer nonzeros to
//! broadcast and multiply.  This harness pins the two sides of that trade on
//! the baseline adversarial scenario:
//!
//! * **quality** — of the ground-truth overlapping pairs the exact path
//!   aligns successfully, the k-min-mer path must recover at least 90%;
//! * **cost** — the sketch matrix must carry at least 5x fewer nonzeros than
//!   the exact `A`, with the SpGEMM flops and `OverlapDetection` broadcast
//!   words shrinking alongside, and the staged overlap phase (counting +
//!   matrix + SUMMA + alignment) ending up faster wall-clock.
//!
//! Both claims are hard `assert!`s, so CI fails if a regression lands.  The
//! committed `BENCH_sketch.json` holds the `full` preset (the bench-scale
//! baseline scenario: 15 kb genome, 1.2 kb reads).
//!
//! ```bash
//! cargo run --release -p dibella-bench --bin sketch_recall
//! DIBELLA_PRESET=fast cargo run --release -p dibella-bench --bin sketch_recall
//! DIBELLA_RECORD_DIR=/tmp cargo run --release -p dibella-bench --bin sketch_recall
//! ```

// The bench crate is the sanctioned home of wall-clock reads (see
// clippy.toml); opt back in to Instant::now here.
#![allow(clippy::disallowed_methods)]
#![expect(
    clippy::disallowed_types,
    reason = "pair sets are intersected and counted; nothing is emitted in iteration order"
)]

use dibella_bench::{print_header, print_row, write_record, Fixed, Preset, Record};
use dibella_dist::{CommPhase, CommStats, ProcessGrid};
use dibella_overlap::{
    account_read_exchange_2d, align_candidates_with, build_a_matrix, detect_candidates_2d_with,
};
use dibella_pipeline::{run_dibella_2d_on_reads, CandidateSource, PipelineConfig, ScenarioSpec};
use dibella_seq::count_kmers_distributed;
use dibella_seq::simulate::{build_scenario, ScenarioKind, SimulatedDataset};
use dibella_sketch::build_sketch_matrix;
use dibella_sparse::summa::flops_key;
use std::collections::HashSet;
use std::time::Instant;

/// The candidate-recall floor: of the true pairs the exact path aligns, the
/// fraction the k-min-mer path must also align.
const RECALL_OF_EXACT_FLOOR: f64 = 0.90;

/// The sparsity floor: `exact A nnz / sketch A nnz` must be at least this.
const NNZ_REDUCTION_FLOOR: f64 = 5.0;

/// One staged overlap-phase run: matrix construction through alignment.
struct LegResult {
    /// Occurrence-matrix nonzeros (the SUMMA operand).
    a_nnz: usize,
    /// Occurrence-matrix columns (reliable k-mers or k-min-mers).
    a_cols: usize,
    /// Candidate pairs surviving the SUMMA threshold (upper triangle).
    candidate_pairs: usize,
    /// Aligned overlap pairs (upper triangle).
    pairs: HashSet<(usize, usize)>,
    /// Useful SpGEMM flops recorded under `OverlapDetection`.
    spgemm_flops: u64,
    /// Broadcast words recorded under `OverlapDetection`.
    bcast_words: u64,
    /// Total communication words of the leg, all phases.
    total_words: u64,
    /// Wall-clock of the staged leg (counting + matrix + SUMMA + alignment).
    secs: f64,
}

impl LegResult {
    /// The leg's fields of the record; `true_pairs` of its aligned pairs
    /// are true overlaps.
    fn record(&self, true_pairs: usize) -> Record {
        Record::default()
            .field("a_nnz", self.a_nnz)
            .field("a_cols", self.a_cols)
            .field("candidate_pairs", self.candidate_pairs)
            .field("aligned_pairs", self.pairs.len())
            .field("true_pairs", true_pairs)
            .field("spgemm_flops", self.spgemm_flops)
            .field("bcast_words", self.bcast_words)
            .field("total_words", self.total_words)
            .field("stage_secs", Fixed(self.secs, 4))
    }
}

/// Run one candidate path end to end through alignment, so the exact leg
/// pays for its k-mer counting stage and the sketch leg for its index
/// exchange.
fn run_leg(ds: &SimulatedDataset, config: &PipelineConfig, source: CandidateSource) -> LegResult {
    let comm = CommStats::new();
    let start = Instant::now();
    let grid = ProcessGrid::square_at_most(config.nprocs);
    let a = match source {
        CandidateSource::ExactKmer => {
            let table =
                count_kmers_distributed(&ds.reads, &config.kmer, config.nprocs, &comm);
            build_a_matrix(&ds.reads, &table, config.overlap.k, grid, grid.nprocs())
        }
        CandidateSource::KMinMer => {
            build_sketch_matrix(&ds.reads, &config.sketch, grid, grid.nprocs(), &comm).0
        }
    };
    account_read_exchange_2d(&ds.reads, grid, &comm);
    let candidates = detect_candidates_2d_with(&a, &comm, config.overlap.use_symmetric_summa);
    let (overlaps, _) =
        align_candidates_with(&ds.reads, &candidates, &config.overlap, Some(&comm));
    let secs = start.elapsed().as_secs_f64();
    let snap = comm.snapshot();
    let bcast = snap.phase(CommPhase::OverlapDetection);
    LegResult {
        a_nnz: a.nnz(),
        a_cols: a.ncols(),
        candidate_pairs: candidates.to_triples().iter().filter(|(i, j, _)| i < j).count(),
        pairs: overlaps
            .to_triples()
            .iter()
            .filter(|(i, j, _)| i < j)
            .map(|(i, j, _)| (i, j))
            .collect(),
        spgemm_flops: snap
            .extras
            .get(&flops_key(CommPhase::OverlapDetection))
            .copied()
            .unwrap_or(0),
        bcast_words: bcast.words,
        total_words: snap.total_words(),
        secs,
    }
}

/// Wall-clock of the full 2D pipeline (through consensus) in one mode.
fn pipeline_secs(ds: &SimulatedDataset, config: &PipelineConfig) -> f64 {
    let comm = CommStats::new();
    let start = Instant::now();
    let out = run_dibella_2d_on_reads(&ds.reads, config, &comm).unwrap();
    let secs = start.elapsed().as_secs_f64();
    assert!(out.consensus_summary.consensus_bases > 0, "pipeline produced no consensus");
    secs
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::INFINITY
    }
}

fn main() {
    let preset = Preset::from_env();
    let spec = match preset {
        Preset::Fast => ScenarioSpec::fast(ScenarioKind::Baseline),
        Preset::Full => ScenarioSpec::bench(ScenarioKind::Baseline),
    };
    let ds = build_scenario(spec.kind, &spec.params);
    let config = PipelineConfig::for_small_reads(spec.k, spec.nprocs);
    println!(
        "Sketch recall — k-min-mer candidates vs the exact reliable-k-mer path, {} preset\n\
         baseline scenario: {} bp genome, {} reads, {:.1}x depth, {:.0} bp mean reads\n\
         sketch: k={} kmm={} density={}\n",
        preset.name(),
        ds.genome.len(),
        ds.num_reads(),
        ds.achieved_depth(),
        ds.mean_read_length(),
        config.sketch.k,
        config.sketch.kmm,
        config.sketch.density,
    );

    // Ground truth from the simulator: pairs overlapping by at least the
    // aligner's minimum overlap.
    let min_overlap = config.overlap.alignment.min_overlap;
    let mut truth = HashSet::new();
    for i in 0..ds.num_reads() {
        for j in (i + 1)..ds.num_reads() {
            if ds.true_overlap(i, j) >= min_overlap {
                truth.insert((i, j));
            }
        }
    }

    let exact = run_leg(&ds, &config, CandidateSource::ExactKmer);
    let kmm = run_leg(&ds, &config, CandidateSource::KMinMer);

    // Quality: the k-min-mer path is judged against what the exact path
    // actually delivers (true pairs it aligned), not raw simulator truth —
    // pairs the exact path itself misses are not held against the sketch.
    let exact_true: HashSet<(usize, usize)> = exact.pairs.intersection(&truth).copied().collect();
    let kmm_true: HashSet<(usize, usize)> = kmm.pairs.intersection(&truth).copied().collect();
    let recovered = kmm_true.intersection(&exact_true).count();
    let recall_of_exact = ratio(recovered as f64, exact_true.len() as f64);
    let exact_recall = ratio(exact_true.len() as f64, truth.len() as f64);
    let kmm_recall = ratio(kmm_true.len() as f64, truth.len() as f64);
    let kmm_precision = ratio(kmm_true.len() as f64, kmm.pairs.len() as f64);

    // Cost: the reductions the smaller operand buys, and the staged and
    // end-to-end wall-clock.
    let nnz_reduction = ratio(exact.a_nnz as f64, kmm.a_nnz as f64);
    let flops_reduction = ratio(exact.spgemm_flops as f64, kmm.spgemm_flops as f64);
    let bcast_reduction = ratio(exact.bcast_words as f64, kmm.bcast_words as f64);
    let words_reduction = ratio(exact.total_words as f64, kmm.total_words as f64);
    let stage_speedup = ratio(exact.secs, kmm.secs);
    let exact_e2e = pipeline_secs(&ds, &config);
    let kmm_e2e = pipeline_secs(
        &ds,
        &PipelineConfig { candidate_source: CandidateSource::KMinMer, ..config },
    );
    let e2e_speedup = ratio(exact_e2e, kmm_e2e);

    print_header(&["path", "A nnz", "A cols", "cand", "pairs", "true", "bcast words", "secs"]);
    for (name, leg, true_pairs) in
        [("exact", &exact, exact_true.len()), ("k-min-mer", &kmm, kmm_true.len())]
    {
        print_row(&[
            name.to_string(),
            leg.a_nnz.to_string(),
            leg.a_cols.to_string(),
            leg.candidate_pairs.to_string(),
            leg.pairs.len().to_string(),
            true_pairs.to_string(),
            leg.bcast_words.to_string(),
            format!("{:.2}", leg.secs),
        ]);
    }
    println!(
        "\nground truth: {} pairs (>= {} bp); exact recall {:.1}%, k-min-mer recall {:.1}%\n\
         k-min-mer recovers {recovered}/{} of the exact path's true pairs ({:.1}%)\n\
         reductions: {:.1}x nnz, {:.1}x SpGEMM flops, {:.1}x broadcast words, {:.1}x total words\n\
         wall-clock: {:.2}x staged overlap phase, {:.2}x end-to-end pipeline",
        truth.len(),
        min_overlap,
        100.0 * exact_recall,
        100.0 * kmm_recall,
        exact_true.len(),
        100.0 * recall_of_exact,
        nnz_reduction,
        flops_reduction,
        bcast_reduction,
        words_reduction,
        stage_speedup,
        e2e_speedup,
    );

    assert!(
        recall_of_exact >= RECALL_OF_EXACT_FLOOR,
        "k-min-mer path recovered only {:.1}% of the exact path's {} true pairs \
         (floor {:.0}%)",
        100.0 * recall_of_exact,
        exact_true.len(),
        100.0 * RECALL_OF_EXACT_FLOOR,
    );
    assert!(
        nnz_reduction >= NNZ_REDUCTION_FLOOR,
        "sketch A carries {} nnz vs exact {} — only {nnz_reduction:.1}x reduction \
         (floor {NNZ_REDUCTION_FLOOR:.0}x)",
        kmm.a_nnz,
        exact.a_nnz,
    );
    assert!(
        flops_reduction > 1.0 && bcast_reduction > 1.0,
        "sketch path must shrink SpGEMM flops ({flops_reduction:.2}x) and broadcast \
         words ({bcast_reduction:.2}x)"
    );

    let sketch = &config.sketch;
    let record = Record::default()
        .field("preset", preset.name())
        .field("scenario", "baseline")
        .field("genome_length", ds.genome.len())
        .field("reads", ds.num_reads())
        .field("mean_read_length", Fixed(ds.mean_read_length(), 1))
        .field("k", spec.k)
        .field("nprocs", spec.nprocs)
        .field(
            "sketch_config",
            Record::default()
                .field("k", sketch.k)
                .field("kmm", sketch.kmm)
                .field("density", sketch.density)
                .field("min_reads", sketch.min_reads)
                .field("max_reads", sketch.max_reads),
        )
        .field("truth_pairs", truth.len())
        .field("min_overlap", min_overlap)
        .field("exact", exact.record(exact_true.len()))
        .field("kminmer", kmm.record(kmm_true.len()))
        .field("recall_of_exact_true_pairs", Fixed(recall_of_exact, 4))
        .field("kminmer_precision", Fixed(kmm_precision, 4))
        .field("nnz_reduction", Fixed(nnz_reduction, 2))
        .field("spgemm_flops_reduction", Fixed(flops_reduction, 2))
        .field("bcast_words_reduction", Fixed(bcast_reduction, 2))
        .field("total_words_reduction", Fixed(words_reduction, 2))
        .field("stage_speedup", Fixed(stage_speedup, 2))
        .field("end_to_end_secs_exact", Fixed(exact_e2e, 4))
        .field("end_to_end_secs_kminmer", Fixed(kmm_e2e, 4))
        .field("end_to_end_speedup", Fixed(e2e_speedup, 2));
    write_record("BENCH_sketch.json", &record);
}
