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
//! DIBELLA_PRESET=fast cargo run --release -p dibella-bench --bin ingest_scale
//! DIBELLA_RECORD_DIR=/tmp cargo run --release -p dibella-bench --bin ingest_scale
//! ```

// The bench crate is the sanctioned home of wall-clock reads (see
// clippy.toml); opt back in to Instant::now here.
#![allow(clippy::disallowed_methods)]

use dibella_bench::{print_header, print_row, write_record, Fixed, Preset, Record};
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

/// The sweep of one [`Preset`].
struct Sweep {
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

const FAST: Sweep = Sweep {
    genome_length: 20_000,
    read_counts: &[500, 2_000, 8_000],
    budget_bytes: 16 << 20,
    monolithic_cutoff_bytes: 4 << 20,
};

/// `full`: the largest size is >= 100k reads (~100x the repo's usual Tiny
/// datasets) and ~36 MB of FASTA.
const FULL: Sweep = Sweep {
    genome_length: 50_000,
    read_counts: &[2_500, 10_000, 40_000, 120_000],
    budget_bytes: 24 << 20,
    monolithic_cutoff_bytes: 4 << 20,
};

const MEAN_READ_LENGTH: usize = 300;

fn main() {
    let preset = Preset::from_env();
    let sweep = match preset {
        Preset::Fast => &FAST,
        Preset::Full => &FULL,
    };
    let budget = IngestBudget {
        max_batch_reads: 256,
        max_batch_bytes: 256 << 10,
        max_resident_bytes: sweep.budget_bytes,
    };
    println!(
        "Ingest scale — superstep ingest, bounded vs unbounded budget, {} preset\n\
         fixed genome {} bp, mean read length {} bp, budget {} MiB, P={}\n",
        preset.name(),
        sweep.genome_length,
        MEAN_READ_LENGTH,
        sweep.budget_bytes >> 20,
        NPROCS,
    );

    // Error-free reads: this is a memory harness, and sequencing errors only
    // add Bloom-filter noise (novel singleton k-mers) without changing what
    // the ingest paths keep resident.
    let genome = generate_genome(&GenomeConfig {
        length: sweep.genome_length,
        repeat_fraction: 0.0,
        repeat_length: 100,
        seed: 91,
    });
    let sel = KmerSelection { k: 17, min_count: 2, max_count: u32::MAX };
    // Named per process, so concurrent runs do not overwrite each other's input.
    let fasta_path =
        std::env::temp_dir().join(format!("dibella_ingest_scale.{}.fa", std::process::id()));

    print_header(&["reads", "input MiB", "steps", "stream MiB", "secs", "mono MiB", "kmers"]);
    let mut sizes = Vec::new();
    // The largest dataset (reads, input bytes, streaming peak), the worst
    // monolithic peak and the most reads the monolithic run was measured on.
    let (mut largest, mut worst_mono, mut mono_reads_max) = ((0, 0, 0), 0, 0);
    for &target_reads in sweep.read_counts {
        let depth = target_reads as f64 * MEAN_READ_LENGTH as f64 / sweep.genome_length as f64;
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
            streaming_peak <= sweep.budget_bytes as u64,
            "streaming ingest of {nreads} reads peaked at {streaming_peak} real bytes, \
             over the {}-byte budget",
            sweep.budget_bytes
        );

        // Unbounded negative control on the affordable sizes: whole file in
        // memory, whole read set, whole-input exchanges.
        let (monolithic_peak, monolithic_secs) =
            if input_bytes <= sweep.monolithic_cutoff_bytes as u64 {
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

        print_row(&[
            nreads.to_string(),
            format!("{:.1}", input_bytes as f64 / (1 << 20) as f64),
            ingest.supersteps.to_string(),
            format!("{:.1}", streaming_peak as f64 / (1 << 20) as f64),
            format!("{streaming_secs:.2}"),
            monolithic_peak
                .map(|p| format!("{:.1}", p as f64 / (1 << 20) as f64))
                .unwrap_or_else(|| "-".to_string()),
            streamed.len().to_string(),
        ]);
        // Σ max(l − k + 1, 0) over the reads is the layer's unit of work.
        let rate = |secs: f64| Fixed(kmer_windows as f64 / secs / 1e6, 2);
        sizes.push(
            Record::default()
                .field("reads", nreads)
                .field("input_bytes", input_bytes)
                .field("kmer_windows", kmer_windows)
                .field("supersteps", ingest.supersteps)
                .field("batch_bytes_peak", ingest.batch_bytes_peak)
                .field("resident_estimate_peak", ingest.resident_bytes_peak)
                .field("streaming_peak_bytes", streaming_peak)
                .field("streaming_secs", Fixed(streaming_secs, 4))
                .field("streaming_mkmers_per_s", rate(streaming_secs))
                .field("kmers", streamed.len())
                .field("monolithic_peak_bytes", monolithic_peak)
                .field("monolithic_secs", monolithic_secs.map(|s| Fixed(s, 4)))
                .field("monolithic_mkmers_per_s", monolithic_secs.map(rate)),
        );
        largest = (nreads, input_bytes, streaming_peak);
        if let Some(peak) = monolithic_peak {
            worst_mono = worst_mono.max(peak);
            mono_reads_max = mono_reads_max.max(nreads);
        }
    }
    std::fs::remove_file(&fasta_path).ok();

    // The budget must be *binding*: at least one measured monolithic run has
    // to exceed it, and the largest streamed dataset has to be bigger than
    // every dataset the monolithic path survived under the budget.
    assert!(
        worst_mono > sweep.budget_bytes as u64,
        "no monolithic run exceeded the {}-byte budget (max was {worst_mono}); \
         the budget is not discriminating",
        sweep.budget_bytes
    );
    println!(
        "\nlargest dataset: {} reads ({:.1} MiB) streamed under the {} MiB budget \
         (peak {:.1} MiB); monolithic already needed {:.1} MiB at {} reads",
        largest.0,
        largest.1 as f64 / (1 << 20) as f64,
        sweep.budget_bytes >> 20,
        largest.2 as f64 / (1 << 20) as f64,
        worst_mono as f64 / (1 << 20) as f64,
        mono_reads_max,
    );

    let record = Record::default()
        .field("preset", preset.name())
        .field("genome_length", sweep.genome_length)
        .field("mean_read_length", MEAN_READ_LENGTH)
        .field("nprocs", NPROCS)
        .field("k", sel.k)
        .field("chunk_bytes", CHUNK_BYTES)
        .field("max_batch_reads", budget.max_batch_reads)
        .field("max_batch_bytes", budget.max_batch_bytes)
        .field("budget_bytes", sweep.budget_bytes)
        .field("monolithic_worst_peak_bytes", worst_mono)
        .field("sizes", sizes);
    write_record("BENCH_ingest.json", &record);
}

fn assert_tables_identical(a: &KmerTable, b: &KmerTable) {
    assert_eq!(a.len(), b.len(), "streaming and monolithic table sizes differ");
    for ((ca, ka, na), (cb, kb, nb)) in a.iter().zip(b.iter()) {
        assert_eq!((ca, ka, na), (cb, kb, nb), "tables diverge at column {ca}");
    }
}
