//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Every table and figure of the paper's evaluation (Section VI–VII) has a
//! binary under `src/bin/` that regenerates it on simulated datasets.  The
//! original experiments ran on hundreds of Cori/Summit nodes; this host is a
//! single machine, so the harness reports two complementary quantities:
//!
//! * **measured** values — wall-clock times of the real computation on this
//!   host and the exact communication volumes recorded by
//!   [`dibella_dist::CommStats`];
//! * **simulated distributed runtimes** — an analytic projection of the
//!   per-process runtime at `P` ranks obtained from the measured serial
//!   compute time, the measured per-rank communication volume and documented
//!   interconnect constants ([`INTERCONNECT_BANDWIDTH_BYTES`],
//!   [`INTERCONNECT_LATENCY_SECS`], chosen to be Cori-Aries-like).  This is
//!   the substitution (documented in DESIGN.md and EXPERIMENTS.md) for the
//!   multi-node hardware the paper used: the *shape* of the scaling curves
//!   and the 1D/2D crossovers come from the measured volumes, not from the
//!   constants.

#![warn(missing_docs)]

use dibella_dist::{CommPhase, CommSnapshot};
use dibella_pipeline::StageTimings;
use dibella_seq::{DatasetSpec, SimulatedDataset};

/// Assumed per-process injection bandwidth of the interconnect (bytes/s).
/// Cray Aries (Cori) delivers roughly 8 GB/s per node.
pub const INTERCONNECT_BANDWIDTH_BYTES: f64 = 8.0e9;

/// Assumed point-to-point message latency of the interconnect (seconds).
pub const INTERCONNECT_LATENCY_SECS: f64 = 2.0e-6;

/// Bytes per word in the communication accounting.
pub const BYTES_PER_WORD: f64 = 8.0;

/// Scale of the benchmark datasets (genome length in bases).  The harnesses
/// accept `DIBELLA_BENCH_SCALE` in the environment to grow or shrink this.
pub fn genome_length_for(spec: DatasetSpec) -> usize {
    // Sizes chosen so that the dominant cost (pairwise alignment, roughly
    // genome_length x depth^2 x band cells) keeps every harness within a few
    // minutes on one core while the higher-depth datasets stay the harder ones.
    let base = match spec {
        DatasetSpec::EColiLike => 60_000,
        DatasetSpec::CElegansLike => 50_000,
        DatasetSpec::HSapiensLike => 150_000,
        DatasetSpec::Small => 60_000,
        DatasetSpec::Tiny => 4_000,
    };
    let scale: f64 = std::env::var("DIBELLA_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    ((base as f64 * scale) as usize).max(2_000)
}

/// Generate (deterministically) the benchmark dataset for a preset.
pub fn benchmark_dataset(spec: DatasetSpec, seed: u64) -> SimulatedDataset {
    spec.generate_with_length(genome_length_for(spec), seed)
}

/// The estimated time to move `words` words and `messages` messages from one
/// rank, with the documented interconnect constants.
pub fn comm_time_secs(words: f64, messages: f64) -> f64 {
    words * BYTES_PER_WORD / INTERCONNECT_BANDWIDTH_BYTES
        + messages * INTERCONNECT_LATENCY_SECS
}

/// Per-phase simulated distributed time at `p` ranks: measured aggregate
/// compute time divided across ranks, plus the per-rank communication time
/// derived from the measured aggregate volumes.
pub fn simulated_phase_time(
    serial_compute_secs: f64,
    comm: &CommSnapshot,
    phase: CommPhase,
    p: usize,
) -> f64 {
    let counters = comm.phase(phase);
    let per_rank_words = counters.words as f64 / p as f64;
    let per_rank_msgs = counters.messages as f64 / p as f64;
    serial_compute_secs / p as f64 + comm_time_secs(per_rank_words, per_rank_msgs)
}

/// Project a measured single-host run onto `p` virtual ranks: the simulated
/// distributed runtime breakdown, derived from the run's stage timings and
/// communication snapshot.  Alignment is perfectly parallel and communicates
/// nothing; parsing is modelled as non-scaling beyond 8 ranks, mirroring the
/// paper's observation that read I/O stops scaling; the read exchange is
/// communication alone.
pub fn project(timings: &StageTimings, comm: &CommSnapshot, p: usize) -> StageTimings {
    let pf = p as f64;
    let io_ranks = pf.min(8.0);
    StageTimings {
        alignment: timings.alignment / pf,
        read_fastq: timings.read_fastq / io_ranks,
        count_kmer: simulated_phase_time(timings.count_kmer, comm, CommPhase::KmerCounting, p),
        create_spmat: timings.create_spmat / pf,
        spgemm: simulated_phase_time(timings.spgemm, comm, CommPhase::OverlapDetection, p),
        exchange_read: comm_time_secs(
            comm.phase(CommPhase::ReadExchange).words as f64 / pf,
            comm.phase(CommPhase::ReadExchange).messages as f64 / pf,
        ),
        tr_reduction: simulated_phase_time(
            timings.tr_reduction,
            comm,
            CommPhase::TransitiveReduction,
            p,
        ),
        consensus: simulated_phase_time(timings.consensus, comm, CommPhase::Consensus, p),
    }
}

/// Useful SpGEMM flops a phase recorded (via `dibella_sparse::summa`'s
/// `FlopCounter` plumbing) and the resulting measured flop rate in Mflop/s
/// given the phase's measured wall-clock seconds.
pub fn phase_flop_rate(comm: &CommSnapshot, phase: CommPhase, secs: f64) -> (u64, f64) {
    let flops =
        comm.extras.get(&dibella_sparse::summa::flops_key(phase)).copied().unwrap_or(0);
    let rate = if secs > 0.0 { flops as f64 / secs / 1e6 } else { 0.0 };
    (flops, rate)
}

/// Aligned DP cells the batched aligner recorded (via the overlap stage's
/// `CommStats::extras` plumbing) and the resulting measured alignment
/// throughput in Mcells/s given the stage's measured wall-clock seconds.
pub fn alignment_cell_rate(comm: &CommSnapshot, secs: f64) -> (u64, f64) {
    let cells = comm.extras.get(dibella_overlap::ALIGNED_CELLS_KEY).copied().unwrap_or(0);
    let rate = if secs > 0.0 { cells as f64 / secs / 1e6 } else { 0.0 };
    (cells, rate)
}

/// Pretty-print a row of pipe-separated cells with a fixed width.
pub fn print_row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("| {} |", line.join(" | "));
}

/// Pretty-print a header row followed by a separator.
pub fn print_header(cells: &[&str]) {
    print_row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = cells.iter().map(|_| "-".repeat(14)).collect();
    println!("|-{}-|", sep.join("-|-"));
}

/// Format a float with 3 significant decimals.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_dist::CommStats;

    #[test]
    fn comm_time_is_linear_in_words_and_messages() {
        let t1 = comm_time_secs(1e6, 0.0);
        let t2 = comm_time_secs(2e6, 0.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        assert!(comm_time_secs(0.0, 1000.0) > 0.0);
    }

    #[test]
    fn projected_breakdown_shrinks_with_more_ranks() {
        let timings = StageTimings {
            read_fastq: 1.0,
            count_kmer: 4.0,
            create_spmat: 1.0,
            spgemm: 8.0,
            exchange_read: 0.0,
            alignment: 20.0,
            tr_reduction: 2.0,
            consensus: 3.0,
        };
        let stats = CommStats::new();
        stats.record(CommPhase::OverlapDetection, 1_000_000, 100);
        let snap = stats.snapshot();
        let t4 = project(&timings, &snap, 4);
        let t64 = project(&timings, &snap, 64);
        assert!(t64.total() < t4.total());
        assert!(t64.alignment < t4.alignment);
        assert!(t4.total() < timings.total());
    }

    #[test]
    fn dataset_presets_generate_at_bench_scale() {
        let ds = benchmark_dataset(DatasetSpec::Tiny, 1);
        assert!(ds.num_reads() > 10);
        assert_eq!(ds.genome.len(), genome_length_for(DatasetSpec::Tiny));
    }

    #[test]
    fn formatting_helpers_do_not_panic() {
        print_header(&["a", "b"]);
        print_row(&[fmt(0.0), fmt(123.456)]);
        print_row(&[fmt(0.001234), fmt(12.5)]);
    }
}
