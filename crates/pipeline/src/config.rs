//! Pipeline configuration.

use dibella_align::MAX_XDROP;
use dibella_overlap::OverlapConfig;
use dibella_seq::kmer::MAX_K;
use dibella_seq::KmerSelection;
use dibella_sketch::SketchConfig;
use dibella_strgraph::{ConsensusConfig, TransitiveReductionConfig};

/// Which candidate-generation path feeds the `OverlapSemiring` SUMMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateSource {
    /// The paper's path: the occurrence matrix `A` has one column per
    /// reliable k-mer from the distributed counter.
    ExactKmer,
    /// The sketch-space path: one column per k-min-mer (consecutive
    /// density-selected minimizers over homopolymer-compressed reads),
    /// built by `dibella-sketch` — ~density× fewer nonzeros, no k-mer
    /// counting stage.
    KMinMer,
}

/// Configuration of one diBELLA (1D or 2D) pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Reliable k-mer selection (k, frequency bounds).
    pub kmer: KmerSelection,
    /// Overlap detection and alignment settings.
    pub overlap: OverlapConfig,
    /// Transitive reduction settings.
    pub transitive: TransitiveReductionConfig,
    /// POA consensus settings (the band width; the fit scores with the
    /// aligner's scheme).
    pub consensus: ConsensusConfig,
    /// Minimum mean Phred quality for a FASTQ read to enter the pipeline
    /// (0.0 keeps everything; FASTA input carries no qualities and is never
    /// filtered).
    pub min_mean_quality: f64,
    /// Number of virtual MPI ranks (must be a perfect square for the 2D
    /// pipeline; the largest square not exceeding it is used otherwise).
    pub nprocs: usize,
    /// Which candidate path builds the occurrence matrix the SUMMA consumes
    /// (defaults to the paper's exact reliable-k-mer path).
    pub candidate_source: CandidateSource,
    /// Parameters of the k-min-mer path (used only when
    /// [`PipelineConfig::candidate_source`] is [`CandidateSource::KMinMer`]).
    pub sketch: SketchConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            kmer: KmerSelection::paper_default(),
            overlap: OverlapConfig::default(),
            transitive: TransitiveReductionConfig::default(),
            consensus: ConsensusConfig::default(),
            min_mean_quality: 0.0,
            nprocs: 4,
            candidate_source: CandidateSource::ExactKmer,
            sketch: SketchConfig::default(),
        }
    }
}

impl PipelineConfig {
    /// Check the settings a run cannot survive: the message names the field.
    ///
    /// `k` is carried twice — [`KmerSelection::k`] for the counter,
    /// [`OverlapConfig::k`] for the occurrence matrix — and a table of one
    /// length looked up with windows of another is an empty `A`, not an
    /// error.  The x-drop must lie in the vector kernel's exact box
    /// `0..=`[`MAX_XDROP`], and the score threshold per base must be a
    /// finite number (a NaN threshold is 0 and passes every alignment).  The
    /// [`SketchConfig`] is checked only on the k-min-mer path, the one run
    /// that reads it.  Every pipeline entry point calls this before any stage
    /// runs.
    pub fn validate(&self) -> Result<(), String> {
        let KmerSelection { k, min_count, max_count } = self.kmer;
        if !(1..=MAX_K).contains(&k) {
            return Err(format!("kmer.k must be in 1..={MAX_K}, got {k}"));
        }
        if self.overlap.k != k {
            return Err(format!("overlap.k must equal kmer.k = {k}, got {}", self.overlap.k));
        }
        if min_count > max_count {
            return Err(format!(
                "kmer.min_count = {min_count} must not exceed kmer.max_count = {max_count}"
            ));
        }
        let xdrop = self.overlap.alignment.xdrop;
        if !(0..=MAX_XDROP).contains(&xdrop) {
            return Err(format!("overlap.alignment.xdrop must be in 0..={MAX_XDROP}, got {xdrop}"));
        }
        let min_score_per_base = self.overlap.alignment.min_score_per_base;
        if !min_score_per_base.is_finite() {
            return Err(format!(
                "overlap.alignment.min_score_per_base must be a finite number, got {min_score_per_base}"
            ));
        }
        if self.min_mean_quality.is_nan() {
            // Every comparison with NaN fails, so the filter would drop every read.
            return Err("min_mean_quality must be a number, got NaN".to_string());
        }
        if self.candidate_source == CandidateSource::KMinMer {
            self.validate_sketch()?;
        }
        Ok(())
    }

    /// The k-min-mer settings that would panic a worker or select nothing,
    /// leaving `A` empty.
    fn validate_sketch(&self) -> Result<(), String> {
        let SketchConfig { k, kmm, density, min_reads, max_reads } = self.sketch;
        if !(1..=MAX_K).contains(&k) {
            return Err(format!("sketch.k must be in 1..={MAX_K}, got {k}"));
        }
        if kmm == 0 {
            return Err("sketch.kmm must be at least 1, got 0".to_string());
        }
        if density.is_nan() || density <= 0.0 {
            return Err(format!("sketch.density must be positive, got {density}"));
        }
        if min_reads > max_reads {
            return Err(format!(
                "sketch.min_reads = {min_reads} must not exceed sketch.max_reads = {max_reads}"
            ));
        }
        Ok(())
    }

    /// The paper's experimental setting (`k = 17`, max k-mer frequency 4,
    /// fuzz 1000) at a given virtual process count.
    pub fn paper_default(nprocs: usize) -> Self {
        Self { nprocs, ..Self::default() }
    }

    /// Settings scaled for the short synthetic reads used in tests and small
    /// benchmarks: shorter k-mers, smaller overlap/fuzz thresholds.
    pub fn for_small_reads(k: usize, nprocs: usize) -> Self {
        Self {
            kmer: KmerSelection { k, min_count: 2, max_count: 60 },
            overlap: OverlapConfig::for_tests(k),
            transitive: TransitiveReductionConfig::for_tests(),
            nprocs,
            sketch: SketchConfig::for_tests(k),
            ..Self::default()
        }
    }

    /// Settings for medium-scale benchmark datasets (reads of a few kb,
    /// realistic error rates): the paper's k but thresholds matched to the
    /// scaled read lengths.
    pub fn for_benchmark(k: usize, error_rate: f64, nprocs: usize) -> Self {
        let mut overlap = OverlapConfig {
            k,
            alignment: dibella_align::AlignmentConfig::for_error_rate(error_rate),
            ..OverlapConfig::default()
        };
        overlap.alignment.min_overlap = 300;
        overlap.alignment.classification_fuzz = 400;
        Self {
            kmer: KmerSelection::with_bella_bound(k, 20.0, error_rate),
            overlap,
            transitive: TransitiveReductionConfig { fuzz: 500, max_iterations: 16 },
            nprocs,
            sketch: SketchConfig { k, ..SketchConfig::default() },
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_vi() {
        let cfg = PipelineConfig::paper_default(338);
        assert_eq!(cfg.kmer.k, 17);
        assert_eq!(cfg.kmer.max_count, 4);
        assert_eq!(cfg.transitive.fuzz, 1000);
        assert_eq!(cfg.nprocs, 338);
    }

    #[test]
    fn small_read_config_uses_consistent_k() {
        let cfg = PipelineConfig::for_small_reads(13, 4);
        assert_eq!(cfg.kmer.k, 13);
        assert_eq!(cfg.overlap.k, 13);
        assert!(cfg.overlap.alignment.min_overlap < 200);
    }

    #[test]
    fn benchmark_config_scales_with_error_rate() {
        let clean = PipelineConfig::for_benchmark(17, 0.05, 16);
        let noisy = PipelineConfig::for_benchmark(17, 0.15, 16);
        assert!(clean.overlap.alignment.min_score_per_base > noisy.overlap.alignment.min_score_per_base);
        assert!(clean.kmer.max_count >= 4);
    }
}
