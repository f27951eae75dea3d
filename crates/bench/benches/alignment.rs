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
//! (`DIBELLA_BENCH_OUT` overrides the path).

// The bench crate is the sanctioned home of wall-clock reads (see
// clippy.toml); opt back in to Instant::now here.
#![allow(clippy::disallowed_methods)]

use dibella_align::{vector_kernel, AlignmentConfig, ExtendEngine};
use dibella_dist::{CommStats, ProcessGrid};
use dibella_overlap::{
    align_candidates_exec, build_a_matrix, detect_candidates_2d_with, CommonKmers, OverlapConfig,
};
use dibella_seq::{count_kmers_serial, DatasetSpec, KmerSelection};
use dibella_sparse::{DistMat2D, Triples};
use std::time::{Duration, Instant};

/// Mean wall-clock seconds of `f`: one warm-up call, then samples until the
/// time budget and at least `min_samples` calls are spent.
fn measure<T>(budget: Duration, min_samples: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut samples = Vec::new();
    let started = Instant::now();
    while started.elapsed() < budget || samples.len() < min_samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

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

    let scalar_secs = measure(budget, 3, || {
        align_candidates_exec(&ds.reads, &candidates, &config, ExtendEngine::Scalar)
    });
    let vector_secs = measure(budget, 3, || {
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

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"alignment\",\n",
            "  \"dataset\": \"{dataset}\",\n",
            "  \"threads\": {threads},\n",
            "  \"vector_kernel\": \"{kernel}\",\n",
            "  \"reads\": {reads},\n",
            "  \"total_candidate_pairs\": {total},\n",
            "  \"pair_stride\": {stride},\n",
            "  \"sampled_pairs\": {pairs},\n",
            "  \"aligned_pairs\": {aligned},\n",
            "  \"pruned_pairs\": {pruned},\n",
            "  \"seeds_skipped\": {skipped},\n",
            "  \"extend_calls\": {calls},\n",
            "  \"simd_calls\": {simd},\n",
            "  \"scalar_calls\": {scalar},\n",
            "  \"aligned_cells\": {cells},\n",
            "  \"dp_rows\": {rows},\n",
            "  \"band_width_peak\": {band},\n",
            "  \"xdrop_terminations\": {stops},\n",
            "  \"scalar_secs\": {scal:.6},\n",
            "  \"vector_secs\": {vecsecs:.6},\n",
            "  \"scalar_mcells_per_sec\": {scalrate:.2},\n",
            "  \"vector_mcells_per_sec\": {vecrate:.2}\n",
            "}}\n"
        ),
        dataset = DatasetSpec::Small.label(),
        threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        kernel = kernel,
        reads = ds.reads.len(),
        total = total_pairs,
        stride = PAIR_STRIDE,
        pairs = ostats.candidate_pairs,
        aligned = ostats.aligned_pairs,
        pruned = ostats.pruned_pairs,
        skipped = exec.seeds_skipped,
        calls = exec.extend_calls,
        simd = exec.simd_calls,
        scalar = exec.scalar_calls,
        cells = cells,
        rows = exec.dp_rows,
        band = exec.band_width_peak,
        stops = exec.xdrop_terminations,
        scal = scalar_secs,
        vecsecs = vector_secs,
        scalrate = scalar_rate,
        vecrate = vector_rate,
    );
    // Default to the workspace root (cargo bench runs with the package dir
    // as cwd); DIBELLA_BENCH_OUT overrides.
    let out_path = std::env::var("DIBELLA_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_align.json").to_string()
    });
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => eprintln!("  could not write {out_path}: {e}"),
    }
}
