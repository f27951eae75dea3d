//! The kernel-throughput record of the SpGEMM kernels, written to
//! `BENCH_spgemm.json`.
//!
//! It times the kernels the pipelines run on the `DatasetSpec::Small` overlap
//! workload (`C = A·Aᵀ` over the shared-k-mer semiring): the symmetric SUMMA (the upper triangle of `C`) and its general
//! reference `summa(a, aᵀ)` (all of it) at P = 4, the local symmetric and
//! general kernels, and a uniform random `PlusTimes` product for the
//! dense-SPA fast path — all on the row-wise kernels — plus the symmetric
//! SUMMA at P = 16 on a HiFi-shaped input, whose blocks multiply ~20 products
//! per output coordinate and take the k-major kernel (the record says how
//! many took which).  Every
//! entry is absolute — seconds, useful flops and Mflop/s — next to the
//! accumulator probes and the peak row width; the general kernels do about
//! twice the symmetric ones' flops, so compare seconds between the two and
//! Mflop/s across commits.  CI runs this bench at every push to maintain the
//! perf trajectory (`DIBELLA_RECORD_DIR` overrides the record's directory).

use dibella_bench::{median_secs, write_record, Fixed, Record};
use dibella_dist::{CommPhase, CommStats, ProcessGrid};
use dibella_overlap::{build_a_matrix, KmerOccurrence, OverlapSemiring};
use dibella_seq::simulate::{generate_genome, simulate_reads, GenomeConfig, ReadSimConfig};
use dibella_seq::{count_kmers_serial, DatasetSpec, KmerSelection};
use dibella_sparse::accum::FlopCounter;
use dibella_sparse::spgemm::aat_block_is_k_major;
use dibella_sparse::summa::{aat_block_stages, flops_key};
use dibella_sparse::{
    local_spgemm, local_spgemm_aat, summa, summa_aat_sym, CsrMatrix, DistMat2D, PlusTimes,
    Triples,
};
use std::time::Duration;

/// Wire sizes per entry; nothing here reads the word counts they scale.
const WORDS: (u64, u64) = (2, 2);

fn random_matrix(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> CsrMatrix<i64> {
    let mut t = Triples::new(nrows, ncols);
    let mut seen = std::collections::BTreeSet::new();
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    while seen.len() < nnz.min(nrows * ncols / 2) {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = (state >> 33) as usize % nrows;
        let c = (state >> 13) as usize % ncols;
        if seen.insert((r, c)) {
            t.push(r, c, ((state % 19) as i64) - 9);
        }
    }
    CsrMatrix::from_triples(&t)
}

/// One kernel's entry in the record: median seconds and the useful flops of
/// one call.
struct Timed {
    secs: f64,
    flops: u64,
}

impl Timed {
    /// Time `f`, which runs the kernel once and returns the call's useful
    /// flops: one warm-up call, then samples until 400 ms and at least three
    /// calls are spent.
    fn measure(mut f: impl FnMut() -> u64) -> Self {
        let mut flops = 0;
        let secs = median_secs(Duration::from_millis(400), 3, || flops = f());
        Self { secs, flops }
    }

    /// [`Timed::measure`] of a local kernel, which tallies into the counter
    /// it is handed.
    fn local<T>(mut kernel: impl FnMut(&FlopCounter) -> T) -> Self {
        Self::measure(|| {
            let flops = FlopCounter::new();
            std::hint::black_box(kernel(&flops));
            flops.flops()
        })
    }

    /// [`Timed::measure`] of a SUMMA, which tallies into the stats it is
    /// handed under `OverlapDetection`.
    fn distributed<T>(mut kernel: impl FnMut(&CommStats) -> T) -> Self {
        Self::measure(|| {
            let stats = CommStats::new();
            std::hint::black_box(kernel(&stats));
            stats.extra(&flops_key(CommPhase::OverlapDetection))
        })
    }

    fn mflops_per_sec(&self) -> f64 {
        self.flops as f64 / self.secs / 1e6
    }
}

/// `A` of a HiFi-shaped read set (60 kbp genome without repeats, 30× of
/// 1.2 kb reads at 0.2% error, k = 17): ~1 500 reads that share ~600 k-mers
/// per overlapping pair, the dense side of the block-kernel rule that
/// `Small`'s 13%-error reads never reach.
fn hifi_a_matrix(grid: ProcessGrid) -> DistMat2D<KmerOccurrence> {
    let genome = generate_genome(&GenomeConfig {
        length: 60_000,
        repeat_fraction: 0.0,
        repeat_length: 0,
        seed: 77,
    });
    let (reads, _) = simulate_reads(
        &genome,
        &ReadSimConfig {
            depth: 30.0,
            mean_read_length: 1_200,
            min_read_length: 900,
            read_length_sd: 100,
            error_rate: 0.002,
            seed: 78,
            ..ReadSimConfig::default()
        },
    );
    let k = 17;
    let table = count_kmers_serial(&reads, &KmerSelection { k, min_count: 2, max_count: 60 });
    build_a_matrix(&reads, &table, k, grid, 1)
}

/// How many upper-triangle blocks of `summa_aat_sym(a)` run k-major and how
/// many row-wise, by the rule the blocks apply to themselves.
fn kernel_census(a: &DistMat2D<KmerOccurrence>) -> (usize, usize) {
    let at = a.transpose();
    let side = a.grid().rows();
    let (mut k_major, mut row_wise) = (0, 0);
    for (i, j) in (0..side).flat_map(|i| (i..side).map(move |j| (i, j))) {
        let stages = aat_block_stages(a, &at, i, j);
        let (rows, cols) = (a.row_dist().size(i), a.row_dist().size(j));
        if aat_block_is_k_major(rows, cols, &stages, i == j) {
            k_major += 1;
        } else {
            row_wise += 1;
        }
    }
    (k_major, row_wise)
}

/// The kernel-throughput record written to `BENCH_spgemm.json`.
fn main() {
    // The real workload: C = A·Aᵀ over the shared-k-mer semiring on the
    // Small benchmark dataset (what `detect_candidates_2d_with` computes).
    let ds = dibella_bench::benchmark_dataset(DatasetSpec::Small, 77);
    let k = 15;
    let sel = KmerSelection { k, min_count: 2, max_count: 120 };
    let table = count_kmers_serial(&ds.reads, &sel);
    let a = build_a_matrix(&ds.reads, &table, k, ProcessGrid::square(1), 1).to_local_csr();
    let da = DistMat2D::from_triples(ProcessGrid::square(4), &a.to_triples());
    let phase = CommPhase::OverlapDetection;

    // The two paths `OverlapConfig::use_symmetric_summa` selects between.
    let summa_sym = Timed::distributed(|stats| {
        summa_aat_sym::<OverlapSemiring>(&da, WORDS.0, stats, phase)
    });
    let summa_general = Timed::distributed(|stats| {
        summa::<OverlapSemiring>(&da, &da.transpose(), WORDS, stats, phase)
    });
    // Local (single-block) kernels; the general one pays for its transpose.
    let local_sym = Timed::local(|flops| local_spgemm_aat::<OverlapSemiring>(&a, flops));
    let local_general =
        Timed::local(|flops| local_spgemm::<OverlapSemiring>(&a, &a.transpose(), flops));
    // One more counted run for the accumulator tallies and the output size.
    let tally = FlopCounter::new();
    let c_mat = local_spgemm_aat::<OverlapSemiring>(&a, &tally);

    // A uniform random PlusTimes product exercises the dense-SPA fast path.
    let n = 2_000;
    let (ra, rb) = (random_matrix(n, n, 20 * n, 7), random_matrix(n, n, 20 * n, 8));
    let random_2k = Timed::local(|flops| local_spgemm::<PlusTimes<i64>>(&ra, &rb, flops));

    // The dense side of the block-kernel rule: HiFi-shaped reads at P = 16.
    let hifi = hifi_a_matrix(ProcessGrid::square(16));
    let summa_sym_p16 = Timed::distributed(|stats| {
        summa_aat_sym::<OverlapSemiring>(&hifi, WORDS.0, stats, phase)
    });
    let (hifi_k_major, hifi_row_wise) = kernel_census(&hifi);
    let (small_k_major, small_row_wise) = kernel_census(&da);

    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("\nspgemm kernel throughput (DatasetSpec::Small, C = A·Aᵀ, overlap semiring)");
    println!(
        "  threads={threads} reads={} kmers={} nnz(A)={} nnz(C)={}",
        a.nrows(),
        a.ncols(),
        a.nnz(),
        c_mat.nnz()
    );
    let mut record = Record::default()
        .field("bench", "spgemm")
        .field("dataset", DatasetSpec::Small.label())
        .field("threads", threads)
        .field("reads", a.nrows())
        .field("kmers", a.ncols())
        .field("a_nnz", a.nnz())
        .field("c_nnz", c_mat.nnz());
    for (name, t) in [
        ("summa_sym_p4", &summa_sym),
        ("summa_general_p4", &summa_general),
        ("local_sym", &local_sym),
        ("local_general", &local_general),
        ("random_2k", &random_2k),
        ("summa_sym_p16", &summa_sym_p16),
    ] {
        println!(
            "  {name:<18} {:>10.3} ms  {:>10} flops  {:>8.1} Mflop/s",
            t.secs * 1e3,
            t.flops,
            t.mflops_per_sec()
        );
        record = record
            .field(&format!("{name}_secs"), Fixed(t.secs, 6))
            .field(&format!("{name}_flops"), t.flops)
            .field(&format!("{name}_mflops_per_sec"), Fixed(t.mflops_per_sec(), 2));
    }
    println!("  local_sym probes: {}, peak row width: {}", tally.probes(), tally.peak_row_width());
    println!(
        "  summa_sym_p16 is HiFi-shaped: reads={} nnz(A)={}; upper blocks k-major/row-wise: \
         {hifi_k_major}/{hifi_row_wise} (summa_sym_p4: {small_k_major}/{small_row_wise})",
        hifi.nrows(),
        hifi.nnz()
    );
    let record = record
        .field("summa_sym_p16_reads", hifi.nrows())
        .field("summa_sym_p16_a_nnz", hifi.nnz())
        .field("summa_sym_p16_k_major_blocks", hifi_k_major)
        .field("summa_sym_p16_row_wise_blocks", hifi_row_wise)
        .field("summa_sym_p4_k_major_blocks", small_k_major)
        .field("summa_sym_p4_row_wise_blocks", small_row_wise)
        .field("accumulator_probes", tally.probes())
        .field("peak_row_width", tally.peak_row_width());
    write_record("BENCH_spgemm.json", &record);
}
