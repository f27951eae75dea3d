//! The analytic communication model of Table I.
//!
//! Section V derives per-process bandwidth (`W`) and latency (`Y`) costs for
//! the four communicating phases of diBELLA 1D and 2D:
//!
//! | Task                 | W (1D)    | W (2D)     | Y (1D)           | Y (2D) |
//! |----------------------|-----------|------------|------------------|--------|
//! | K-mer counting       | nlk/4P    | nlk/4P     | bP               | bP     |
//! | Overlap detection    | a²m/P     | am/√P      | P                | √P     |
//! | Read exchange        | cnl/P     | 2nl/√P     | min{cnl/P, P}    | √P     |
//! | Transitive reduction | —         | rn/√P      | —                | t√P    |
//!
//! The transitive reduction runs one round (`t = 1`; `crates/strgraph`'s
//! module docs prove a second round removes nothing), so its row is exact:
//! one squaring, the broadcast of each block range's order, and the
//! transpose of the measured off-diagonal `I`.
//!
//! This module evaluates those formulas with the *same unit conventions the
//! instrumentation uses* (8-byte words, 2-bit packed sequences, per-entry wire
//! sizes), so the Table I harness can print model and measurement side by
//! side.  The shapes (the `1/P` vs `1/√P` scaling, the crossovers) are what
//! the reproduction checks; absolute constants depend on wire-format choices.

use serde::{Deserialize, Serialize};

/// The dataset/algorithm parameters of Table II that the model needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Read count `n`.
    pub n: usize,
    /// Reliable k-mer count `m`.
    pub m: usize,
    /// Mean read length `l`.
    pub l: f64,
    /// k-mer length `k`.
    pub k: usize,
    /// `a` — average number of reads containing a reliable k-mer.
    pub a: f64,
    /// `c` — average nonzeros per row of the candidate matrix `C`.
    pub c: f64,
    /// `r` — average nonzeros per row of the overlap matrix `R`.
    pub r: f64,
    /// Number of k-mer exchange passes (`b`; this implementation uses 2).
    pub kmer_passes: usize,
}

impl ModelParams {
    /// Words used to ship one k-mer (2-bit packed).
    pub fn kmer_words(&self) -> u64 {
        (self.k as u64).div_ceil(32)
    }

    /// Words used to ship one read (2-bit packed plus a header word).
    pub fn read_words(&self) -> u64 {
        (self.l.ceil() as u64).div_ceil(32) + 1
    }

    /// Words used to ship one sparse-matrix entry in the overlap SpGEMM.
    pub const SPGEMM_ENTRY_WORDS: u64 = 2;
    /// Words used to ship one partial-product entry in the 1D reduction.
    pub const OUTER1D_ENTRY_WORDS: u64 = 4;
}

/// Predicted aggregate (summed over ranks) and per-process costs for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseCost {
    /// Total words moved across all ranks.
    pub aggregate_words: f64,
    /// Words moved by one (average) rank.
    pub per_process_words: f64,
    /// Total messages across all ranks.
    pub aggregate_messages: f64,
}

/// The Table I model evaluated at a process count.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CommModel {
    /// Parameters the model was evaluated with.
    pub params: ModelParams,
    /// Process count `P`.
    pub p: usize,
}

impl CommModel {
    /// Evaluate the model for `p` processes.
    pub fn new(params: ModelParams, p: usize) -> Self {
        assert!(p >= 1);
        Self { params, p }
    }

    fn sqrt_p(&self) -> f64 {
        (self.p as f64).sqrt()
    }

    /// K-mer counting (same in both pipelines): every rank keeps `1/P` of its
    /// k-mers and ships the rest, in `b` passes.  Only the `min(n, P)` ranks
    /// that hold a read send, one message to each of the other `P − 1`.
    pub fn kmer_counting(&self) -> PhaseCost {
        let pm = &self.params;
        let total_kmers = pm.n as f64 * (pm.l - pm.k as f64 + 1.0).max(0.0);
        let off_node = (self.p as f64 - 1.0) / self.p as f64;
        let passes = pm.kmer_passes as f64;
        let aggregate = passes * total_kmers * off_node * pm.kmer_words() as f64;
        let senders = pm.n.min(self.p) as f64;
        PhaseCost {
            aggregate_words: aggregate,
            per_process_words: aggregate / self.p as f64,
            aggregate_messages: passes * senders * (self.p as f64 - 1.0),
        }
    }

    /// Overlap detection with 2D Sparse SUMMA: `W = a·m/√P` per process.
    pub fn overlap_2d(&self) -> PhaseCost {
        let pm = &self.params;
        let nnz_a = pm.a * pm.m as f64;
        // Both A and Aᵀ blocks are broadcast to √P - 1 peers across the stages.
        let aggregate =
            2.0 * nnz_a * ModelParams::SPGEMM_ENTRY_WORDS as f64 * (self.sqrt_p() - 1.0);
        PhaseCost {
            aggregate_words: aggregate,
            per_process_words: aggregate / self.p as f64,
            aggregate_messages: 2.0 * self.p as f64 * (self.sqrt_p() - 1.0),
        }
    }

    /// Overlap detection with the **symmetric** (upper-triangular) 2D Sparse
    /// SUMMA, the `OverlapConfig::use_symmetric_summa` default: each block of
    /// `A` is broadcast `√P − 1` times in total (vs `2(√P − 1)` for the
    /// general path) and nothing else moves — exactly half of
    /// [`overlap_2d`](Self::overlap_2d).
    pub fn overlap_2d_sym(&self) -> PhaseCost {
        let full = self.overlap_2d();
        PhaseCost {
            aggregate_words: full.aggregate_words / 2.0,
            per_process_words: full.per_process_words / 2.0,
            aggregate_messages: full.aggregate_messages / 2.0,
        }
    }

    /// The alignment stage's share of overlap detection: the candidate pairs
    /// are aligned in waves of [`dibella_overlap::WAVE_PAIRS`], and after each
    /// wave one bitwise-OR all-reduce folds the `⌈n/64⌉`-word contained-read
    /// bitmap — a reduce plus a broadcast over the `P` ranks.  Exact, not
    /// asymptotic: the instrumentation must post exactly this.
    pub fn alignment_waves(&self, candidate_pairs: usize, reads: usize) -> PhaseCost {
        let waves = candidate_pairs.div_ceil(dibella_overlap::WAVE_PAIRS) as f64;
        let peers = self.p as f64 - 1.0;
        let aggregate = waves * 2.0 * reads.div_ceil(64) as f64 * peers;
        PhaseCost {
            aggregate_words: aggregate,
            per_process_words: aggregate / self.p as f64,
            aggregate_messages: waves * 2.0 * peers,
        }
    }

    /// Overlap detection with the 1D outer product: `W = a²m/P` per process
    /// asymptotically; a k-mer held by `a` reads emits each of its
    /// `a(a+1)/2` read pairs once.  (The model ignores the local merging of
    /// duplicate partial products, so it is an upper bound at small `P`.)
    pub fn overlap_1d(&self) -> PhaseCost {
        let pm = &self.params;
        let partial_nnz = pm.a * (pm.a + 1.0) / 2.0 * pm.m as f64;
        let off_node = (self.p as f64 - 1.0) / self.p as f64;
        let aggregate = partial_nnz * off_node * ModelParams::OUTER1D_ENTRY_WORDS as f64;
        PhaseCost {
            aggregate_words: aggregate,
            per_process_words: aggregate / self.p as f64,
            aggregate_messages: self.p as f64 * (self.p as f64 - 1.0),
        }
    }

    /// Read exchange for the 2D pipeline: every rank fetches its block row and
    /// block column of reads, about `2n/√P` reads per rank.
    pub fn read_exchange_2d(&self) -> PhaseCost {
        let pm = &self.params;
        if self.p == 1 {
            return PhaseCost::default();
        }
        let per_rank_reads = 2.0 * pm.n as f64 / self.sqrt_p() - pm.n as f64 / self.p as f64;
        let per_rank = per_rank_reads.max(0.0) * pm.read_words() as f64;
        PhaseCost {
            aggregate_words: per_rank * self.p as f64,
            per_process_words: per_rank,
            aggregate_messages: self.p as f64 * (self.sqrt_p() - 1.0).max(0.0) * 2.0,
        }
    }

    /// Read exchange for the 1D pipeline: at most one read per candidate
    /// pair — `c/2` per row of `C`, `c·n/2P` reads per rank.
    pub fn read_exchange_1d(&self) -> PhaseCost {
        let pm = &self.params;
        let off_node = (self.p as f64 - 1.0) / self.p as f64;
        let pairs_per_rank = pm.c / 2.0 * pm.n as f64 / self.p as f64;
        let per_rank_reads = (pairs_per_rank * off_node).min(pm.n as f64);
        let per_rank = per_rank_reads * pm.read_words() as f64;
        PhaseCost {
            aggregate_words: per_rank * self.p as f64,
            per_process_words: per_rank,
            aggregate_messages: self.p as f64 * ((self.p - 1) as f64).min(pairs_per_rank),
        }
    }

    /// Transitive reduction (2D only), one round: the squaring's stage
    /// broadcasts, `W = r·n/√P` per process at 2 words per entry; each
    /// diagonal rank's broadcast of its block range's order, `n_b` words
    /// along its grid row and its grid column; and the transpose of `I`,
    /// two words per entry of `I` outside the diagonal blocks
    /// (`transposed_entries`) in one message per off-diagonal block holding
    /// one (`transposed_blocks`).  Exact: the instrumentation must post
    /// exactly this.
    pub fn transitive_reduction_2d(
        &self,
        transposed_entries: usize,
        transposed_blocks: usize,
    ) -> PhaseCost {
        let pm = &self.params;
        let nnz_r = pm.r * pm.n as f64;
        let peers = self.sqrt_p() - 1.0;
        let squaring = 2.0 * nnz_r * ModelParams::SPGEMM_ENTRY_WORDS as f64 * peers;
        let order = 2.0 * pm.n as f64 * peers;
        let aggregate = squaring + order + 2.0 * transposed_entries as f64;
        PhaseCost {
            aggregate_words: aggregate,
            per_process_words: aggregate / self.p as f64,
            aggregate_messages: 2.0 * (self.p as f64 + self.sqrt_p()) * peers
                + transposed_blocks as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams {
            n: 10_000,
            m: 200_000,
            l: 8_000.0,
            k: 17,
            a: 5.0,
            c: 100.0,
            r: 8.0,
            kmer_passes: 2,
        }
    }

    #[test]
    fn per_process_words_shrink_with_p() {
        let m4 = CommModel::new(params(), 4);
        let m64 = CommModel::new(params(), 64);
        assert!(m64.kmer_counting().per_process_words < m4.kmer_counting().per_process_words);
        assert!(m64.overlap_2d().per_process_words < m4.overlap_2d().per_process_words);
        assert!(m64.overlap_1d().per_process_words < m4.overlap_1d().per_process_words);
        assert!(m64.read_exchange_2d().per_process_words < m4.read_exchange_2d().per_process_words);
        assert!(
            m64.transitive_reduction_2d(0, 0).per_process_words
                < m4.transitive_reduction_2d(0, 0).per_process_words
        );
    }

    #[test]
    fn scaling_exponents_match_table1() {
        let p1 = 16usize;
        let p2 = 256usize;
        let m1 = CommModel::new(params(), p1);
        let m2 = CommModel::new(params(), p2);
        // 1D overlap detection scales as 1/P: 16x fewer words per process.
        let ratio_1d = m1.overlap_1d().per_process_words / m2.overlap_1d().per_process_words;
        assert!((ratio_1d - 16.0).abs() / 16.0 < 0.1, "1D ratio {ratio_1d}");
        // 2D overlap detection scales as 1/√P... modulo the (√P-1)/P form;
        // the per-process ratio should be near √(P2/P1) = 4 for large P.
        let ratio_2d = m2.overlap_2d().per_process_words / m1.overlap_2d().per_process_words;
        assert!(ratio_2d > 0.2 && ratio_2d < 0.35, "2D per-process ratio {ratio_2d}");
    }

    #[test]
    fn one_d_read_exchange_beats_2d_only_past_the_crossover() {
        // The paper's crossover (Section V-C): the 1D exchange costs `c·n·l/P`
        // against `2·n·l/√P` for 2D, so 1D needs `P > (c/2)²` = 2 500 at
        // c = 100 (`read_exchange_1d` fetches one read per *pair*, so this
        // model's own curves cross at a quarter of it).
        let pm = params();
        // Well below the crossover the 1D per-process read exchange exceeds 2D's.
        let below = CommModel::new(pm, 64);
        assert!(
            below.read_exchange_1d().per_process_words
                > below.read_exchange_2d().per_process_words,
            "below the crossover 2D should exchange fewer read words per process"
        );
        // Far above it the ordering flips (the paper: the 1D algorithm would
        // need (c²/4)-way parallelism to overcome its constant).
        let above = CommModel::new(pm, 10_000);
        assert!(
            above.read_exchange_1d().per_process_words
                < above.read_exchange_2d().per_process_words
        );
    }

    #[test]
    fn latency_orders_match_table1() {
        let m = CommModel::new(params(), 64);
        // Per-process: 1D uses P messages, 2D uses √P-ish.
        let y1d = m.overlap_1d().aggregate_messages / 64.0;
        let y2d = m.overlap_2d().aggregate_messages / 64.0;
        assert!(y1d > y2d);
        assert!((y1d - 63.0).abs() < 1e-9);
        assert!((y2d - 14.0).abs() < 1e-9); // 2(√P - 1) = 14
    }

    #[test]
    fn kmer_counting_messages_come_from_ranks_holding_reads() {
        // Table I's E. coli run: 206 reads.  At P = 256 only 206 ranks hold
        // a read, so 2 · 206 · 255 = 105 060 messages, not 2 · 256 · 255.
        let pm = ModelParams { n: 206, ..params() };
        assert_eq!(CommModel::new(pm, 256).kmer_counting().aggregate_messages, 105_060.0);
        assert_eq!(CommModel::new(pm, 64).kmer_counting().aggregate_messages, 2.0 * 64.0 * 63.0);
        assert_eq!(CommModel::new(pm, 206).kmer_counting().aggregate_messages, 2.0 * 206.0 * 205.0);
        assert_eq!(CommModel::new(pm, 1).kmer_counting().aggregate_messages, 0.0);
    }

    #[test]
    fn alignment_waves_price_one_allreduce_per_wave() {
        // DESIGN.md's `clr-long` figures: 14 waves × 2 bitmap words at P = 16.
        let cost = CommModel::new(params(), 16).alignment_waves(14 * 256 - 3, 128);
        assert_eq!((cost.aggregate_words, cost.aggregate_messages), (840.0, 420.0));
        assert_eq!(CommModel::new(params(), 1).alignment_waves(5_000, 128).aggregate_words, 0.0);
    }

    #[test]
    fn transitive_reduction_prices_one_round() {
        // The benchmark's graph-tiling input at P = 16: n = 80 000 reads,
        // nnz(R) = 1 919 844, and 1 319 932 entries of I in the 12
        // off-diagonal blocks.  One squaring, 4 · nnz(R) · 3 = 23 038 128
        // words; the order broadcast, 2n · 3 = 480 000; the transpose of I,
        // 2 639 864.  Messages: 96 + 24 + 12.
        let pm = ModelParams { n: 80_000, r: 1_919_844.0 / 80_000.0, ..params() };
        let cost = CommModel::new(pm, 16).transitive_reduction_2d(1_319_932, 12);
        assert_eq!(cost.aggregate_words.round(), 26_157_992.0);
        assert_eq!(cost.aggregate_messages, 132.0);
    }

    #[test]
    fn single_process_costs_are_zero() {
        let m = CommModel::new(params(), 1);
        assert_eq!(m.kmer_counting().aggregate_words, 0.0);
        assert_eq!(m.overlap_2d().aggregate_words, 0.0);
        assert_eq!(m.overlap_1d().aggregate_words, 0.0);
        assert_eq!(m.read_exchange_2d().per_process_words, 0.0);
        assert_eq!(m.transitive_reduction_2d(0, 0).aggregate_words, 0.0);
    }

    #[test]
    fn wire_sizes_match_instrumentation_conventions() {
        let pm = params();
        assert_eq!(pm.kmer_words(), 1, "a 17-mer packs into one 8-byte word");
        assert_eq!(pm.read_words(), 8_000 / 32 + 1);
    }
}
