//! The diBELLA 1D baseline pipeline.
//!
//! diBELLA 1D (Ellis et al., ICPP 2019) shares the k-mer counting and
//! alignment stages with the 2D pipeline but performs overlap detection with a
//! distributed hash table (equivalently, a 1D outer-product SpGEMM with a
//! post-multiplication reduction) and exchanges at most one read per candidate
//! nonzero.  It does not implement transitive reduction, which is why the
//! Figure 9 comparison subtracts the TR time from diBELLA 2D.

use crate::config::{CandidateSource, PipelineConfig};
use crate::run2d::PipelineDims;
use crate::timings::{timed, StageTimings};
use dibella_dist::{CommSnapshot, CommStats, ProcessGrid};
use dibella_overlap::{
    account_read_exchange_1d, align_candidates_with, build_a_matrix, detect_candidates_1d,
    OverlapEdge, OverlapStats,
};
use dibella_seq::{count_kmers_distributed, ReadSet};
use dibella_sparse::DistMat2D;

/// Everything a diBELLA 1D run produces.
#[derive(Debug, Clone)]
pub struct Pipeline1dOutput {
    /// The overlap matrix `R` (no transitive reduction in the 1D pipeline).
    pub overlap_matrix: DistMat2D<OverlapEdge>,
    /// Per-stage wall-clock timings (`tr_reduction` is always zero).
    pub timings: StageTimings,
    /// Communication counters for the whole run.
    pub comm: CommSnapshot,
    /// Overlap-stage counters.
    pub overlap_stats: OverlapStats,
    /// Run dimensions.
    pub dims: PipelineDims,
    /// Number of virtual ranks used.
    pub nprocs: usize,
}

/// Run the diBELLA 1D pipeline on an already-parsed read set.
///
/// The run owns its communication counters and reports them in
/// [`Pipeline1dOutput::comm`].  Fails — before anything runs, with the message
/// the 2D entry points return — if [`PipelineConfig::validate`] rejects the
/// configuration, and on the k-min-mer candidate path, which only the 2D
/// pipeline implements.
pub fn run_dibella_1d(
    reads: &ReadSet,
    config: &PipelineConfig,
) -> Result<Pipeline1dOutput, String> {
    config.validate()?;
    if config.candidate_source != CandidateSource::ExactKmer {
        return Err(format!(
            "candidate_source = {:?}: the 1D pipeline detects overlaps on exact k-mers only",
            config.candidate_source
        ));
    }
    let nprocs = config.nprocs.max(1);
    let comm = &CommStats::new();
    let mut timings = StageTimings::default();

    let (table, t_count) = timed(|| count_kmers_distributed(reads, &config.kmer, nprocs, comm));
    timings.count_kmer = t_count;

    // The 1D pipeline's data structures are not 2D-distributed; assemble the
    // occurrence matrix locally (one block) after a block-partitioned build.
    let grid = ProcessGrid::square(1);
    let (a, t_create) =
        timed(|| build_a_matrix(reads, &table, config.overlap.k, grid, nprocs));
    timings.create_spmat = t_create;

    let a_local = a.to_local_csr();
    let (candidates_local, t_spgemm) = timed(|| detect_candidates_1d(&a_local, nprocs, comm));
    timings.spgemm = t_spgemm;

    let (_, t_exchange) =
        timed(|| account_read_exchange_1d(reads, &candidates_local, nprocs, comm));
    timings.exchange_read = t_exchange;

    let candidates = DistMat2D::from_triples(grid, &candidates_local.to_triples());
    let ((overlap_matrix, overlap_stats), t_align) =
        timed(|| align_candidates_with(reads, &candidates, &config.overlap, Some(comm)));
    timings.alignment = t_align;

    Ok(Pipeline1dOutput {
        overlap_matrix,
        timings,
        comm: comm.snapshot(),
        overlap_stats,
        dims: PipelineDims {
            reads: reads.len(),
            kmers: table.len(),
            mean_read_length: reads.mean_read_length(),
            a_nnz: a.nnz(),
        },
        nprocs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run2d::run_dibella_2d_on_reads;
    use dibella_dist::extras::{ALIGNED_CELLS_KEY, BAND_WIDTH_PEAK_KEY, XDROP_TERMINATIONS_KEY};
    use dibella_dist::CommPhase;
    use dibella_seq::DatasetSpec;

    fn tiny_config(nprocs: usize) -> PipelineConfig {
        PipelineConfig::for_small_reads(13, nprocs)
    }

    #[test]
    fn an_invalid_configuration_fails_with_the_validation_message() {
        let mut cfg = tiny_config(4);
        cfg.overlap.k = 11;
        let err = run_dibella_1d(&DatasetSpec::Tiny.generate(52).reads, &cfg).unwrap_err();
        assert!(err.contains("overlap.k must equal kmer.k = 13, got 11"), "unexpected error: {err}");
    }

    #[test]
    fn the_kminmer_path_is_an_error_not_an_exact_kmer_run() {
        let mut cfg = tiny_config(4);
        cfg.candidate_source = CandidateSource::KMinMer;
        let err = run_dibella_1d(&DatasetSpec::Tiny.generate(52).reads, &cfg).unwrap_err();
        assert!(err.contains("candidate_source = KMinMer"), "unexpected error: {err}");
    }

    #[test]
    fn one_d_pipeline_finds_the_same_overlaps_as_2d() {
        let ds = DatasetSpec::Tiny.generate(52);
        let out1d = run_dibella_1d(&ds.reads, &tiny_config(4)).unwrap();
        let out2d = run_dibella_2d_on_reads(&ds.reads, &tiny_config(4)).unwrap();
        assert_eq!(
            out1d.overlap_matrix.to_local_csr().pattern(),
            out2d.overlap_matrix.to_local_csr().pattern(),
            "both pipelines must accept the same overlap set"
        );
        assert_eq!(out1d.overlap_stats.dovetail, out2d.overlap_stats.dovetail);
        // The aligner's counters reach the output, and the extras repeat them.
        let (stats, extras) = (&out1d.overlap_stats, &out1d.comm.extras);
        assert!(stats.aligned_cells > 0);
        assert_eq!(extras.get(ALIGNED_CELLS_KEY), Some(&stats.aligned_cells));
        assert_eq!(extras.get(BAND_WIDTH_PEAK_KEY), Some(&stats.band_width_peak));
        assert_eq!(extras.get(XDROP_TERMINATIONS_KEY), Some(&stats.xdrop_terminations));
    }

    #[test]
    fn one_d_pipeline_has_no_tr_stage() {
        let ds = DatasetSpec::Tiny.generate(53);
        let out = run_dibella_1d(&ds.reads, &tiny_config(4)).unwrap();
        assert_eq!(out.timings.tr_reduction, 0.0);
        assert_eq!(out.comm.phase(CommPhase::TransitiveReduction).words, 0);
        assert!(out.timings.total_without_tr() > 0.0);
    }

    #[test]
    fn one_d_communication_profile_differs_from_2d() {
        let ds = DatasetSpec::Tiny.generate(54);
        let p = 16;
        let comm1d = run_dibella_1d(&ds.reads, &tiny_config(p)).unwrap().comm;
        let comm2d = run_dibella_2d_on_reads(&ds.reads, &tiny_config(p)).unwrap().comm;
        // K-mer counting is the same call in both pipelines.
        assert_eq!(comm1d.phase(CommPhase::KmerCounting), comm2d.phase(CommPhase::KmerCounting));
        // Overlap-detection latency: the 1D all-to-all reduction uses more
        // messages than the 2D broadcasts (Table I: Y = P vs √P per rank).
        assert!(
            comm1d.phase(CommPhase::OverlapDetection).messages
                > comm2d.phase(CommPhase::OverlapDetection).messages
        );
        // Both record read-exchange traffic.
        assert!(comm1d.phase(CommPhase::ReadExchange).words > 0);
        assert!(comm2d.phase(CommPhase::ReadExchange).words > 0);
    }

    #[test]
    fn single_rank_run_is_communication_free() {
        let ds = DatasetSpec::Tiny.generate(55);
        let out = run_dibella_1d(&ds.reads, &tiny_config(1)).unwrap();
        assert_eq!(out.comm.total_words(), 0);
        assert!(out.overlap_matrix.nnz() > 0);
    }
}
