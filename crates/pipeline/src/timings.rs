//! Per-stage wall-clock timings.
//!
//! The runtime breakdowns of Figures 5–8 stack seven components, bottom to
//! top: Alignment, ReadFastq, CountKmer, CreateSpMat, SpGEMM, ExchangeRead and
//! TrReduction.  [`StageTimings`] carries exactly those components so the
//! breakdown harness can print the same series.

use std::time::{Duration, Instant};

/// Wall-clock time of every pipeline stage, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Parsing the FASTA input (the paper's `ReadFastq`).
    pub read_fastq: f64,
    /// Distributed k-mer counting (`CountKmer`).
    pub count_kmer: f64,
    /// Building `A` and `Aᵀ` (`CreateSpMat`).
    pub create_spmat: f64,
    /// The candidate-overlap SpGEMM `C = A·Aᵀ` (`SpGEMM`).
    pub spgemm: f64,
    /// Completing the sequence exchange before alignment (`ExchangeRead`).
    pub exchange_read: f64,
    /// Seed-and-extend pairwise alignment of every candidate (`Alignment`).
    pub alignment: f64,
    /// Transitive reduction (`TrReduction`).
    pub tr_reduction: f64,
    /// Contig extraction plus POA consensus (`Consensus`) — the stage this
    /// reproduction adds beyond the paper's pipeline to close the OLC loop.
    pub consensus: f64,
}

impl StageTimings {
    /// Total runtime including alignment.
    pub fn total(&self) -> f64 {
        self.read_fastq
            + self.count_kmer
            + self.create_spmat
            + self.spgemm
            + self.exchange_read
            + self.alignment
            + self.tr_reduction
            + self.consensus
    }

    /// Total runtime excluding alignment (the right-hand plots of Figs. 5–8).
    pub fn total_without_alignment(&self) -> f64 {
        self.total() - self.alignment
    }

    /// Total runtime excluding transitive reduction (the Figure 9 comparison
    /// subtracts TR from diBELLA 2D because the 1D pipeline has no TR stage).
    pub fn total_without_tr(&self) -> f64 {
        self.total() - self.tr_reduction
    }

    /// The stage labels in the order the paper's figures stack them (the
    /// post-paper `Consensus` stage appended last).
    pub const LABELS: [&'static str; 8] = [
        "Alignment",
        "ReadFastq",
        "CountKmer",
        "CreateSpMat",
        "SpGEMM",
        "ExchangeRead",
        "TrReduction",
        "Consensus",
    ];

    /// The stage values in the same order as [`StageTimings::LABELS`].
    pub fn values(&self) -> [f64; 8] {
        [
            self.alignment,
            self.read_fastq,
            self.count_kmer,
            self.create_spmat,
            self.spgemm,
            self.exchange_read,
            self.tr_reduction,
            self.consensus,
        ]
    }

    /// Parallel efficiency of this run against a baseline run:
    /// `(t_base · p_base) / (t_this · p_this)`.
    pub fn parallel_efficiency(base_time: f64, base_procs: usize, time: f64, procs: usize) -> f64 {
        (base_time * base_procs as f64) / (time * procs as f64)
    }
}

/// Time a closure, returning its result and the elapsed seconds.
///
/// This is the one sanctioned wall-clock read feeding [`StageTimings`]; the
/// timings it produces stay out of `CommStats` and bench JSON word counts.
#[expect(clippy::disallowed_methods, reason = "StageTimings is the designated timing sink")]
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, as_secs(start.elapsed()))
}

fn as_secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StageTimings {
        StageTimings {
            read_fastq: 1.0,
            count_kmer: 2.0,
            create_spmat: 0.5,
            spgemm: 4.0,
            exchange_read: 0.25,
            alignment: 10.0,
            tr_reduction: 1.25,
            consensus: 2.0,
        }
    }

    #[test]
    fn totals_add_up() {
        let t = sample();
        assert!((t.total() - 21.0).abs() < 1e-12);
        assert!((t.total_without_alignment() - 11.0).abs() < 1e-12);
        assert!((t.total_without_tr() - 19.75).abs() < 1e-12);
    }

    #[test]
    fn labels_and_values_align() {
        let t = sample();
        let values = t.values();
        assert_eq!(StageTimings::LABELS.len(), values.len());
        assert_eq!(values[0], 10.0); // Alignment first, as in the figure legends.
        assert_eq!(values[6], 1.25);
        assert_eq!(values[7], 2.0); // Consensus last (post-paper stage).
        assert!((values.iter().sum::<f64>() - t.total()).abs() < 1e-12);
    }

    #[test]
    fn parallel_efficiency_definition() {
        // Perfect scaling: 4x the processes, a quarter of the time.
        assert!((StageTimings::parallel_efficiency(100.0, 32, 25.0, 128) - 1.0).abs() < 1e-12);
        // Half-efficient scaling.
        assert!((StageTimings::parallel_efficiency(100.0, 32, 50.0, 128) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn timed_measures_elapsed_time() {
        let (value, secs) = timed(|| {
            std::thread::sleep(Duration::from_millis(20));
            42
        });
        assert_eq!(value, 42);
        assert!(secs >= 0.015, "elapsed {secs}s too small");
    }
}
