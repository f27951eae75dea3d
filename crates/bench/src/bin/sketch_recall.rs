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
//!   words shrinking alongside.
//!
//! Each path is a `run_dibella_2d_on_reads`, and every number is read off
//! its output.  `stage_secs` is the run's stage timings up to and including
//! alignment (k-mer counting or the sketch index, `A`, the read exchange,
//! SUMMA, alignment), `total_words` the words of the same phases, and the
//! end-to-end seconds the run's total through consensus.  Each path runs
//! `REPEATS` times, alternating with the other; every count must repeat
//! exactly (asserted), and the record holds the median seconds.
//!
//! Both claims are hard `assert!`s, so CI fails if a regression lands.  The
//! committed `BENCH_sketch.json` holds the bench-scale baseline scenario
//! (15 kb genome, 1.2 kb reads).
//!
//! ```bash
//! cargo run --release -p dibella-bench --bin sketch_recall
//! DIBELLA_RECORD_DIR=/tmp cargo run --release -p dibella-bench --bin sketch_recall
//! ```

use dibella_bench::{print_header, print_row, write_record, Fixed, Preset, Record};
use dibella_dist::CommPhase;
use dibella_pipeline::{run_dibella_2d_on_reads, CandidateSource, PipelineConfig, ScenarioSpec};
use dibella_seq::simulate::{build_scenario, ScenarioKind, SimulatedDataset};
use dibella_sparse::summa::flops_key;
use std::collections::BTreeSet;

/// The candidate-recall floor: of the true pairs the exact path aligns, the
/// fraction the k-min-mer path must also align.
const RECALL_OF_EXACT_FLOOR: f64 = 0.90;

/// The sparsity floor: `exact A nnz / sketch A nnz` must be at least this.
const NNZ_REDUCTION_FLOOR: f64 = 5.0;

/// Pipeline runs per path; the record holds the median seconds.
const REPEATS: usize = 5;

/// The numbers of one pipeline run.
#[derive(PartialEq)]
struct LegResult {
    /// Occurrence-matrix nonzeros (the SUMMA operand).
    a_nnz: usize,
    /// Occurrence-matrix columns (reliable k-mers or k-min-mers).
    a_cols: usize,
    /// Candidate pairs surviving the SUMMA threshold (upper triangle).
    candidate_pairs: usize,
    /// Aligned overlap pairs (upper triangle).
    pairs: BTreeSet<(usize, usize)>,
    /// Useful SpGEMM flops recorded under `OverlapDetection`.
    spgemm_flops: u64,
    /// Broadcast words recorded under `OverlapDetection`.
    bcast_words: u64,
    /// Words of the phases up to and including alignment.
    total_words: u64,
    /// Stage seconds up to and including alignment.
    stage_secs: f64,
    /// Stage seconds of the whole run, through consensus.
    end_to_end_secs: f64,
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
            .field("stage_secs", Fixed(self.stage_secs, 4))
    }
}

/// Run the 2D pipeline on one candidate path and read its numbers, so the
/// exact leg pays for its k-mer counting stage and the sketch leg for its
/// index exchange.
fn run_leg(ds: &SimulatedDataset, config: &PipelineConfig, source: CandidateSource) -> LegResult {
    let config = PipelineConfig { candidate_source: source, ..*config };
    let out = run_dibella_2d_on_reads(&ds.reads, &config).unwrap();
    assert!(out.consensus_summary.consensus_bases > 0, "pipeline produced no consensus");
    let t = out.timings;
    let words = [
        CommPhase::KmerCounting,
        CommPhase::SketchIndex,
        CommPhase::ReadExchange,
        CommPhase::OverlapDetection,
    ]
    .map(|phase| out.comm.phase(phase).words);
    LegResult {
        a_nnz: out.dims.a_nnz,
        a_cols: out.dims.kmers,
        candidate_pairs: out.overlap_stats.candidate_pairs,
        pairs: out.overlap_matrix.iter().filter(|(i, j, _)| i < j).map(|(i, j, _)| (i, j)).collect(),
        spgemm_flops: out
            .comm
            .extras
            .get(&flops_key(CommPhase::OverlapDetection))
            .copied()
            .unwrap_or(0),
        bcast_words: out.comm.phase(CommPhase::OverlapDetection).words,
        total_words: words.iter().sum(),
        stage_secs: t.count_kmer + t.create_spmat + t.exchange_read + t.spgemm + t.alignment,
        end_to_end_secs: t.total(),
    }
}

/// One path's runs as one result with the median seconds; panics unless
/// every run has the same counts.
fn median_of(path: &str, runs: Vec<LegResult>) -> LegResult {
    let median = |secs: fn(&LegResult) -> f64| {
        let mut samples: Vec<f64> = runs.iter().map(secs).collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let (stage_secs, end_to_end_secs) = (median(|r| r.stage_secs), median(|r| r.end_to_end_secs));
    let mut runs: Vec<_> =
        runs.into_iter().map(|run| LegResult { stage_secs, end_to_end_secs, ..run }).collect();
    assert!(runs.windows(2).all(|w| w[0] == w[1]), "{path}: counts differ between repeats");
    runs.swap_remove(0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::INFINITY
    }
}

fn main() {
    let spec = ScenarioSpec::bench(ScenarioKind::Baseline);
    let ds = build_scenario(spec.kind, &spec.params);
    let config = PipelineConfig::for_small_reads(spec.k, spec.nprocs);
    println!(
        "Sketch recall — k-min-mer candidates vs the exact reliable-k-mer path\n\
         baseline scenario: {} bp genome, {} reads, {:.1}x depth, {:.0} bp mean reads\n\
         sketch: k={} kmm={} density={}\n",
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
    let truth = ds.true_pairs(min_overlap);

    let (mut exact_runs, mut kmm_runs) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        exact_runs.push(run_leg(&ds, &config, CandidateSource::ExactKmer));
        kmm_runs.push(run_leg(&ds, &config, CandidateSource::KMinMer));
    }
    let exact = median_of("exact", exact_runs);
    let kmm = median_of("k-min-mer", kmm_runs);

    // Quality: the k-min-mer path is judged against what the exact path
    // actually delivers (true pairs it aligned), not raw simulator truth —
    // pairs the exact path itself misses are not held against the sketch.
    let exact_true: BTreeSet<(usize, usize)> = exact.pairs.intersection(&truth).copied().collect();
    let kmm_true: BTreeSet<(usize, usize)> = kmm.pairs.intersection(&truth).copied().collect();
    let recovered = kmm_true.intersection(&exact_true).count();
    let recall_of_exact = ratio(recovered as f64, exact_true.len() as f64);
    let exact_recall = ratio(exact_true.len() as f64, truth.len() as f64);
    let kmm_recall = ratio(kmm_true.len() as f64, truth.len() as f64);
    let kmm_precision = ratio(kmm_true.len() as f64, kmm.pairs.len() as f64);

    // Cost: the reductions the smaller operand buys, and the staged and
    // end-to-end wall-clock (ratios of the medians).
    let nnz_reduction = ratio(exact.a_nnz as f64, kmm.a_nnz as f64);
    let flops_reduction = ratio(exact.spgemm_flops as f64, kmm.spgemm_flops as f64);
    let bcast_reduction = ratio(exact.bcast_words as f64, kmm.bcast_words as f64);
    let words_reduction = ratio(exact.total_words as f64, kmm.total_words as f64);
    let stage_speedup = ratio(exact.stage_secs, kmm.stage_secs);
    let e2e_speedup = ratio(exact.end_to_end_secs, kmm.end_to_end_secs);

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
            format!("{:.2}", leg.stage_secs),
        ]);
    }
    println!(
        "\nground truth: {} pairs (>= {} bp); exact recall {:.1}%, k-min-mer recall {:.1}%\n\
         k-min-mer recovers {recovered}/{} of the exact path's true pairs ({:.1}%)\n\
         reductions: {:.1}x nnz, {:.1}x SpGEMM flops, {:.1}x broadcast words, {:.1}x total words\n\
         wall-clock (median of {REPEATS}): {:.2}x stages through alignment, {:.2}x end-to-end",
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
        .field("preset", Preset::Full.name())
        .field("scenario", "baseline")
        .field("genome_length", ds.genome.len())
        .field("reads", ds.num_reads())
        .field("mean_read_length", Fixed(ds.mean_read_length(), 1))
        .field("k", spec.k)
        .field("nprocs", spec.nprocs)
        .field("repeats", REPEATS)
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
        .field("end_to_end_secs_exact", Fixed(exact.end_to_end_secs, 4))
        .field("end_to_end_secs_kminmer", Fixed(kmm.end_to_end_secs, 4))
        .field("end_to_end_speedup", Fixed(e2e_speedup, 2));
    write_record("BENCH_sketch.json", &record);
}
