//! Ingest-scale harness — peak resident bytes vs dataset size.
//!
//! The paper's datasets (C. elegans 40x, H. sapiens 10x) are far larger than
//! any rank's memory; Section IV's streaming ingest exists so memory is
//! bounded by the *superstep*, not the input.  This harness pins that
//! contract with the [`PeakAlloc`] counting allocator: it sweeps simulated
//! datasets over two orders of magnitude of read count at a **fixed genome**
//! (so the k-mer table — the output — stays constant while the input grows),
//! streams each one from a FASTA file under a fixed [`IngestBudget`], and
//! records the real allocator-measured peak next to that of the same code
//! with no budget (whole file = one chunk, whole read set = one superstep —
//! the "monolithic" columns) on the sizes where that is still affordable.
//!
//! The committed `BENCH_ingest.json` holds the `full` preset: the largest
//! dataset (>= 100k reads, ~100x the repo's usual test scale) completes
//! under a budget the unbounded run already exceeds at a fraction of that
//! size.
//!
//! ```bash
//! cargo run --release -p dibella-bench --bin ingest_scale
//! DIBELLA_INGEST_PRESET=fast cargo run --release -p dibella-bench --bin ingest_scale
//! DIBELLA_INGEST_OUT=/tmp/out.json cargo run --release -p dibella-bench --bin ingest_scale
//! ```

// The bench crate is the sanctioned home of wall-clock reads (see
// clippy.toml); opt back in to Instant::now here.
#![allow(clippy::disallowed_methods)]

use dibella_bench::{print_header, print_row};
use dibella_dist::CommStats;
use dibella_seq::simulate::{generate_genome, simulate_reads, GenomeConfig, ReadSimConfig};
use dibella_seq::{
    count_kmers_distributed, count_kmers_streaming, fasta_batches_file, parse_fasta, write_fasta,
    IngestBudget, KmerSelection, KmerTable,
};
use dibella_testutil::PeakAlloc;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

/// I/O chunk size of the streaming reader.
const CHUNK_BYTES: usize = 64 << 10;

/// Virtual ranks, matching the other medium-scale harnesses.
const NPROCS: usize = 16;

/// One preset of the sweep.
struct Preset {
    name: &'static str,
    genome_length: usize,
    /// Read counts to sweep (approximate; the simulator draws until the
    /// target depth `n*l/g` is covered).
    read_counts: &'static [usize],
    /// The fixed ingest budget every size must survive.
    budget_bytes: usize,
    /// Largest FASTA size (bytes) at which the monolithic negative control
    /// is still run; beyond it the monolithic peak (~16 bytes per input
    /// base, both exchange sides resident) is measured no further.
    monolithic_cutoff_bytes: usize,
}

const FAST: Preset = Preset {
    name: "fast",
    genome_length: 20_000,
    read_counts: &[500, 2_000, 8_000],
    budget_bytes: 16 << 20,
    monolithic_cutoff_bytes: 4 << 20,
};

/// `full`: the largest size is >= 100k reads (~100x the repo's usual Tiny
/// datasets) and ~36 MB of FASTA.
const FULL: Preset = Preset {
    name: "full",
    genome_length: 50_000,
    read_counts: &[2_500, 10_000, 40_000, 120_000],
    budget_bytes: 24 << 20,
    monolithic_cutoff_bytes: 4 << 20,
};

const MEAN_READ_LENGTH: usize = 300;

struct SizeResult {
    reads: usize,
    input_bytes: u64,
    /// Σ max(l − k + 1, 0) over the reads: the layer's unit of work.
    kmer_windows: u64,
    supersteps: u64,
    batch_bytes_peak: u64,
    resident_estimate_peak: u64,
    streaming_peak: u64,
    streaming_secs: f64,
    kmers: usize,
    monolithic_peak: Option<u64>,
    monolithic_secs: Option<f64>,
}

fn main() {
    let preset_name =
        std::env::var("DIBELLA_INGEST_PRESET").unwrap_or_else(|_| "full".to_string());
    let preset = match preset_name.as_str() {
        "fast" => &FAST,
        _ => &FULL,
    };
    let budget = IngestBudget {
        max_batch_reads: 256,
        max_batch_bytes: 256 << 10,
        max_resident_bytes: preset.budget_bytes,
    };
    println!(
        "Ingest scale — superstep ingest, bounded vs unbounded budget, {} preset\n\
         fixed genome {} bp, mean read length {} bp, budget {} MiB, P={}\n",
        preset.name,
        preset.genome_length,
        MEAN_READ_LENGTH,
        preset.budget_bytes >> 20,
        NPROCS,
    );

    // Error-free reads: this is a memory harness, and sequencing errors only
    // add Bloom-filter noise (novel singleton k-mers) without changing what
    // the ingest paths keep resident.
    let genome = generate_genome(&GenomeConfig {
        length: preset.genome_length,
        repeat_fraction: 0.0,
        repeat_length: 100,
        seed: 91,
    });
    let sel = KmerSelection { k: 17, min_count: 2, max_count: u32::MAX };
    let fasta_path = std::env::temp_dir().join("dibella_ingest_scale.fa");

    print_header(&["reads", "input MiB", "steps", "stream MiB", "secs", "mono MiB", "kmers"]);
    let mut results: Vec<SizeResult> = Vec::new();
    for &target_reads in preset.read_counts {
        let depth =
            target_reads as f64 * MEAN_READ_LENGTH as f64 / preset.genome_length as f64;
        let sim = ReadSimConfig {
            depth,
            mean_read_length: MEAN_READ_LENGTH,
            min_read_length: MEAN_READ_LENGTH / 2,
            read_length_sd: MEAN_READ_LENGTH / 6,
            error_rate: 0.0,
            seed: 92,
            ..ReadSimConfig::default()
        };
        let (reads, _) = simulate_reads(&genome, &sim);
        let nreads = reads.len();
        let kmer_windows: u64 =
            reads.lengths().iter().map(|&l| (l + 1).saturating_sub(sel.k) as u64).sum();
        std::fs::write(&fasta_path, write_fasta(&reads)).expect("writing sweep FASTA");
        drop(reads);
        let input_bytes = std::fs::metadata(&fasta_path).expect("stat sweep FASTA").len();

        // Streaming: chunked file reads, bounded batches, one superstep per
        // batch per pass — the file is re-streamed for the counting pass, so
        // the reads are never resident as a whole.
        let started = std::time::Instant::now();
        let scope = ALLOC.scope();
        let (streamed, ingest) = count_kmers_streaming(
            || fasta_batches_file(&fasta_path, CHUNK_BYTES, budget),
            &sel,
            NPROCS,
            &budget,
            &CommStats::new(),
        )
        .expect("streaming ingest failed");
        let streaming_peak = scope.peak_resident();
        let streaming_secs = started.elapsed().as_secs_f64();
        assert!(
            streaming_peak <= preset.budget_bytes as u64,
            "streaming ingest of {nreads} reads peaked at {streaming_peak} real bytes, \
             over the {}-byte budget",
            preset.budget_bytes
        );

        // Unbounded negative control on the affordable sizes: whole file in
        // memory, whole read set, whole-input exchanges.
        let (monolithic_peak, monolithic_secs) = if input_bytes
            <= preset.monolithic_cutoff_bytes as u64
        {
            let mono_stats = CommStats::new();
            let started = std::time::Instant::now();
            let scope = ALLOC.scope();
            let text = std::fs::read_to_string(&fasta_path).expect("reading sweep FASTA");
            let mono_reads = parse_fasta(&text).expect("parsing sweep FASTA");
            let mono = count_kmers_distributed(&mono_reads, &sel, NPROCS, &mono_stats);
            let peak = scope.peak_resident();
            let secs = started.elapsed().as_secs_f64();
            assert_tables_identical(&streamed, &mono);
            (Some(peak), Some(secs))
        } else {
            (None, None)
        };

        let r = SizeResult {
            reads: nreads,
            input_bytes,
            kmer_windows,
            supersteps: ingest.supersteps,
            batch_bytes_peak: ingest.batch_bytes_peak,
            resident_estimate_peak: ingest.resident_bytes_peak,
            streaming_peak,
            streaming_secs,
            kmers: streamed.len(),
            monolithic_peak,
            monolithic_secs,
        };
        print_row(&[
            r.reads.to_string(),
            format!("{:.1}", r.input_bytes as f64 / (1 << 20) as f64),
            r.supersteps.to_string(),
            format!("{:.1}", r.streaming_peak as f64 / (1 << 20) as f64),
            format!("{:.2}", r.streaming_secs),
            r.monolithic_peak
                .map(|p| format!("{:.1}", p as f64 / (1 << 20) as f64))
                .unwrap_or_else(|| "-".to_string()),
            r.kmers.to_string(),
        ]);
        results.push(r);
    }
    std::fs::remove_file(&fasta_path).ok();

    // The budget must be *binding*: at least one measured monolithic run has
    // to exceed it, and the largest streamed dataset has to be bigger than
    // every dataset the monolithic path survived under the budget.
    let worst_mono = results.iter().filter_map(|r| r.monolithic_peak).max().unwrap_or(0);
    assert!(
        worst_mono > preset.budget_bytes as u64,
        "no monolithic run exceeded the {}-byte budget (max was {worst_mono}); \
         the budget is not discriminating",
        preset.budget_bytes
    );
    let largest = results.last().expect("at least one sweep size");
    println!(
        "\nlargest dataset: {} reads ({:.1} MiB) streamed under the {} MiB budget \
         (peak {:.1} MiB); monolithic already needed {:.1} MiB at {} reads",
        largest.reads,
        largest.input_bytes as f64 / (1 << 20) as f64,
        preset.budget_bytes >> 20,
        largest.streaming_peak as f64 / (1 << 20) as f64,
        worst_mono as f64 / (1 << 20) as f64,
        results
            .iter()
            .filter(|r| r.monolithic_peak.is_some())
            .map(|r| r.reads)
            .max()
            .unwrap_or(0),
    );

    let sizes_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"reads\": {reads},\n",
                    "      \"input_bytes\": {input},\n",
                    "      \"kmer_windows\": {windows},\n",
                    "      \"supersteps\": {steps},\n",
                    "      \"batch_bytes_peak\": {batch_peak},\n",
                    "      \"resident_estimate_peak\": {estimate},\n",
                    "      \"streaming_peak_bytes\": {stream_peak},\n",
                    "      \"streaming_secs\": {stream_secs:.4},\n",
                    "      \"streaming_mkmers_per_s\": {stream_rate:.2},\n",
                    "      \"kmers\": {kmers},\n",
                    "      \"monolithic_peak_bytes\": {mono_peak},\n",
                    "      \"monolithic_secs\": {mono_secs},\n",
                    "      \"monolithic_mkmers_per_s\": {mono_rate}\n",
                    "    }}"
                ),
                reads = r.reads,
                input = r.input_bytes,
                windows = r.kmer_windows,
                steps = r.supersteps,
                batch_peak = r.batch_bytes_peak,
                estimate = r.resident_estimate_peak,
                stream_peak = r.streaming_peak,
                stream_secs = r.streaming_secs,
                stream_rate = r.kmer_windows as f64 / r.streaming_secs / 1e6,
                kmers = r.kmers,
                mono_peak =
                    r.monolithic_peak.map(|p| p.to_string()).unwrap_or_else(|| "null".into()),
                mono_secs = r
                    .monolithic_secs
                    .map(|s| format!("{s:.4}"))
                    .unwrap_or_else(|| "null".into()),
                mono_rate = r
                    .monolithic_secs
                    .map(|s| format!("{:.2}", r.kmer_windows as f64 / s / 1e6))
                    .unwrap_or_else(|| "null".into()),
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"preset\": \"{preset}\",\n",
            "  \"genome_length\": {genome_length},\n",
            "  \"mean_read_length\": {mean_len},\n",
            "  \"nprocs\": {nprocs},\n",
            "  \"k\": {k},\n",
            "  \"chunk_bytes\": {chunk},\n",
            "  \"max_batch_reads\": {max_batch_reads},\n",
            "  \"max_batch_bytes\": {max_batch_bytes},\n",
            "  \"budget_bytes\": {budget},\n",
            "  \"monolithic_worst_peak_bytes\": {worst_mono},\n",
            "  \"sizes\": [\n{sizes}\n  ]\n",
            "}}\n"
        ),
        preset = preset.name,
        genome_length = preset.genome_length,
        mean_len = MEAN_READ_LENGTH,
        nprocs = NPROCS,
        k = sel.k,
        chunk = CHUNK_BYTES,
        max_batch_reads = budget.max_batch_reads,
        max_batch_bytes = budget.max_batch_bytes,
        budget = preset.budget_bytes,
        worst_mono = worst_mono,
        sizes = sizes_json.join(",\n"),
    );
    // Default to the workspace root; DIBELLA_INGEST_OUT overrides.
    let out_path = std::env::var("DIBELLA_INGEST_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json").to_string()
    });
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => eprintln!("\ncould not write {out_path}: {e}"),
    }
}

fn assert_tables_identical(a: &KmerTable, b: &KmerTable) {
    assert_eq!(a.len(), b.len(), "streaming and monolithic table sizes differ");
    for ((ca, ka, na), (cb, kb, nb)) in a.iter().zip(b.iter()) {
        assert_eq!((ca, ka, na), (cb, kb, nb), "tables diverge at column {ca}");
    }
}
