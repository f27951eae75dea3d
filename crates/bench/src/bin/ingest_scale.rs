//! Ingest-scale harness — the k-mer counter's rate and peak resident bytes
//! vs dataset size.
//!
//! Sweeps simulated datasets over two orders of magnitude of read count at a
//! **fixed genome** (so the k-mer table — the output — stays constant while
//! the input grows), parses each one from FASTA text, and times
//! `count_kmers_distributed` at P = 16 on the parsed reads, as every
//! pipeline run counts them: the median of [`REPEATS`] calls, with the peak
//! resident bytes of the [`PeakAlloc`] counting allocator.  Parsing is
//! outside the timer.  The binary panics unless every repeat's table is
//! identical and the smallest size's table equals `count_kmers_serial`'s.
//!
//! The committed `BENCH_ingest.json` holds the `full` preset (largest size
//! 120 000 reads, ~36 MB of FASTA).
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
    count_kmers_distributed, count_kmers_serial, parse_fasta, write_fasta, KmerSelection,
};
use dibella_testutil::PeakAlloc;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

/// Virtual ranks, matching the other medium-scale harnesses.
const NPROCS: usize = 16;

/// Counting calls per size; the record holds the median seconds.
const REPEATS: usize = 5;

/// The sweep of one [`Preset`].
struct Sweep {
    genome_length: usize,
    /// Read counts to sweep (approximate; the simulator draws until the
    /// target depth `n*l/g` is covered).
    read_counts: &'static [usize],
}

const FAST: Sweep = Sweep { genome_length: 20_000, read_counts: &[500, 2_000, 8_000] };

/// `full`: the largest size is >= 100k reads (~100x the repo's usual Tiny
/// datasets) and ~36 MB of FASTA.
const FULL: Sweep = Sweep { genome_length: 50_000, read_counts: &[2_500, 10_000, 40_000, 120_000] };

const MEAN_READ_LENGTH: usize = 300;

fn main() {
    let preset = Preset::from_env();
    let sweep = match preset {
        Preset::Fast => &FAST,
        Preset::Full => &FULL,
    };
    println!(
        "Ingest scale — count_kmers_distributed, {} preset, median of {REPEATS}\n\
         fixed genome {} bp, mean read length {} bp, P={}\n",
        preset.name(),
        sweep.genome_length,
        MEAN_READ_LENGTH,
        NPROCS,
    );

    // Error-free reads: sequencing errors add novel k-mers in proportion to
    // the input, some of which recur and pass `min_count`, so the table would
    // grow with the input instead of staying fixed by the genome.
    let genome = generate_genome(&GenomeConfig {
        length: sweep.genome_length,
        repeat_fraction: 0.0,
        repeat_length: 100,
        seed: 91,
    });
    let sel = KmerSelection { k: 17, min_count: 2, max_count: u32::MAX };

    print_header(&["reads", "input MiB", "secs", "Mkmers/s", "peak MiB", "kmers"]);
    let mut sizes = Vec::new();
    for (i, &target_reads) in sweep.read_counts.iter().enumerate() {
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
        let text = write_fasta(&simulate_reads(&genome, &sim).0);
        let input_bytes = text.len();
        let reads = parse_fasta(&text).expect("parsing sweep FASTA");
        drop(text);
        // Σ max(l − k + 1, 0) over the reads is the layer's unit of work.
        let kmer_windows: u64 =
            reads.lengths().iter().map(|&l| (l + 1).saturating_sub(sel.k) as u64).sum();

        let (mut secs, mut peak_bytes, mut table) = (Vec::new(), 0, None);
        for _ in 0..REPEATS {
            let stats = CommStats::new();
            let scope = ALLOC.scope();
            let started = std::time::Instant::now();
            let counted = count_kmers_distributed(&reads, &sel, NPROCS, &stats);
            secs.push(started.elapsed().as_secs_f64());
            peak_bytes = peak_bytes.max(scope.peak_resident());
            let entries: Vec<_> = counted.iter().collect();
            match &table {
                None => table = Some(entries),
                Some(first) => assert!(first == &entries, "a repeat's table differs"),
            }
        }
        let table = table.expect("at least one repeat");
        if i == 0 {
            let serial: Vec<_> = count_kmers_serial(&reads, &sel).iter().collect();
            assert!(table == serial, "the distributed table differs from count_kmers_serial's");
        }
        secs.sort_by(f64::total_cmp);
        let median = secs[REPEATS / 2];
        let rate = kmer_windows as f64 / median / 1e6;

        print_row(&[
            reads.len().to_string(),
            format!("{:.1}", input_bytes as f64 / (1 << 20) as f64),
            format!("{median:.3}"),
            format!("{rate:.2}"),
            format!("{:.1}", peak_bytes as f64 / (1 << 20) as f64),
            table.len().to_string(),
        ]);
        sizes.push(
            Record::default()
                .field("reads", reads.len())
                .field("input_bytes", input_bytes)
                .field("kmer_windows", kmer_windows)
                .field("kmers", table.len())
                .field("secs", Fixed(median, 4))
                .field("mkmers_per_s", Fixed(rate, 2))
                .field("peak_bytes", peak_bytes),
        );
    }

    let record = Record::default()
        .field("preset", preset.name())
        .field("genome_length", sweep.genome_length)
        .field("mean_read_length", MEAN_READ_LENGTH)
        .field("nprocs", NPROCS)
        .field("k", sel.k)
        .field("repeats", REPEATS)
        .field("sizes", sizes);
    write_record("BENCH_ingest.json", &record);
}
