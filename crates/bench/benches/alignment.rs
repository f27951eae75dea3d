//! The alignment-stage throughput record written to `BENCH_align.json`.
//!
//! It times the alignment stage (`align_candidates_exec`: length-ordered
//! waves of per-pair jobs, pairs between already-contained reads pruned, a
//! second seed only when the first finds no overlap) on the
//! `DatasetSpec::Small` overlap workload under both engines — the scalar
//! oracle and `ExtendEngine::Auto`'s lane-packed vector kernel (on the lane
//! word `vector_kernel()` names: the widest this host has).  Both engines do identical work, so each is
//! reported as absolute aligned-cells/sec next to the work counters
//! (`aligned_cells`, `dp_rows`, `pruned_pairs`, `seeds_skipped`, `extend_calls`) that
//! say how much of the candidate set was aligned at all.  To keep the bench
//! inside a CI budget the candidate set is subsampled (every
//! `PAIR_STRIDE`-th upper-triangle pair, recorded in the JSON).  CI runs this
//! bench at every push to maintain the perf trajectory
//! (`DIBELLA_RECORD_DIR` overrides the record's directory).

use dibella_align::{vector_kernel, AlignmentConfig, ExtendEngine};
use dibella_bench::{mean_secs, write_record, Fixed, Record};
use dibella_dist::{CommStats, ProcessGrid};
use dibella_overlap::{
    align_candidates_exec, build_a_matrix, detect_candidates_2d_with, CommonKmers, OverlapConfig,
};
use dibella_seq::{count_kmers_serial, DatasetSpec, KmerSelection};
use dibella_sparse::{DistMat2D, Triples};
use std::time::Duration;

/// Every `PAIR_STRIDE`-th candidate pair enters the timed subsample (an
/// upper-triangular matrix, like the real candidate output).  Stride 1 would
/// time the full Small workload (~10 Gcells): fine interactively, far past a
/// CI budget.
const PAIR_STRIDE: usize = 32;

/// The alignment-stage throughput record written to `BENCH_align.json`.
fn main() {
    let budget = Duration::from_millis(600);

    // The real workload: the candidate pairs of the Small benchmark dataset
    // (the same candidates the pipeline's alignment stage receives),
    // subsampled by PAIR_STRIDE to fit the CI budget.
    let ds = dibella_bench::benchmark_dataset(DatasetSpec::Small, 77);
    let k = 17;
    let sel = KmerSelection { k, min_count: 2, max_count: 120 };
    let table = count_kmers_serial(&ds.reads, &sel);
    let a = build_a_matrix(&ds.reads, &table, k, ProcessGrid::square(1), 1);
    let stats = CommStats::new();
    let all_candidates = detect_candidates_2d_with(&a, &stats, true);
    let mut total_pairs = 0usize;
    let mut t = Triples::new(all_candidates.nrows(), all_candidates.ncols());
    for (idx, (i, j, c)) in all_candidates.to_triples().into_entries().into_iter().enumerate() {
        total_pairs += 1;
        if idx % PAIR_STRIDE == 0 {
            t.push(i, j, c);
        }
    }
    let candidates: DistMat2D<CommonKmers> = DistMat2D::from_triples(ProcessGrid::square(1), &t);
    let config = OverlapConfig {
        k,
        alignment: AlignmentConfig::for_error_rate(ds.config.error_rate),
        ..OverlapConfig::default()
    };

    let scalar_secs = mean_secs(budget, 3, || {
        align_candidates_exec(&ds.reads, &candidates, &config, ExtendEngine::Scalar)
    });
    let vector_secs = mean_secs(budget, 3, || {
        align_candidates_exec(&ds.reads, &candidates, &config, ExtendEngine::Auto)
    });

    // One counted run for the work tallies (engine- and thread-deterministic;
    // both engines walk identical bands, so one cell count rates both).
    let (_, ostats, exec) =
        align_candidates_exec(&ds.reads, &candidates, &config, ExtendEngine::Auto);
    let cells = exec.aligned_cells;
    let rate = |secs: f64| if secs > 0.0 { cells as f64 / secs / 1e6 } else { 0.0 };
    let scalar_rate = rate(scalar_secs);
    let vector_rate = rate(vector_secs);
    let kernel = vector_kernel();

    println!(
        "\nalignment stage throughput (DatasetSpec::Small, every {PAIR_STRIDE}th of \
         {total_pairs} candidate pairs)"
    );
    println!(
        "  reads={} sampled_pairs={} aligned_pairs={} pruned_pairs={} seeds_skipped={} \
         extensions={} ({} {kernel} / {} scalar)",
        ds.reads.len(),
        ostats.candidate_pairs,
        ostats.aligned_pairs,
        ostats.pruned_pairs,
        exec.seeds_skipped,
        exec.extend_calls,
        exec.simd_calls,
        exec.scalar_calls
    );
    println!(
        "  DP cells: {cells} in {} rows; peak band width {}; x-drop early stops {}",
        exec.dp_rows, exec.band_width_peak, exec.xdrop_terminations
    );
    println!("  scalar oracle:  {:>10.3} ms  ({scalar_rate:.1} Mcells/s)", scalar_secs * 1e3);
    println!(
        "  {kernel} (Auto):    {:>10.3} ms  ({vector_rate:.1} Mcells/s)",
        vector_secs * 1e3
    );

    let record = Record::default()
        .field("bench", "alignment")
        .field("dataset", DatasetSpec::Small.label())
        .field("threads", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
        .field("vector_kernel", kernel)
        .field("reads", ds.reads.len())
        .field("total_candidate_pairs", total_pairs)
        .field("pair_stride", PAIR_STRIDE)
        .field("sampled_pairs", ostats.candidate_pairs)
        .field("aligned_pairs", ostats.aligned_pairs)
        .field("pruned_pairs", ostats.pruned_pairs)
        .field("seeds_skipped", exec.seeds_skipped)
        .field("extend_calls", exec.extend_calls)
        .field("simd_calls", exec.simd_calls)
        .field("scalar_calls", exec.scalar_calls)
        .field("aligned_cells", cells)
        .field("dp_rows", exec.dp_rows)
        .field("band_width_peak", exec.band_width_peak)
        .field("xdrop_terminations", exec.xdrop_terminations)
        .field("scalar_secs", Fixed(scalar_secs, 6))
        .field("vector_secs", Fixed(vector_secs, 6))
        .field("scalar_mcells_per_sec", Fixed(scalar_rate, 2))
        .field("vector_mcells_per_sec", Fixed(vector_rate, 2));
    write_record("BENCH_align.json", &record);
}
