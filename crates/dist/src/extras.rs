//! The single registry of `CommStats::extras` keys.
//!
//! Every auxiliary counter the pipeline records — flop counts, superstep
//! counts, sketch statistics, POA totals — lives in `CommStats::extras` under
//! a string key.  PR 5 fixed a broadcast-accounting bug that boiled down to a
//! typo'd key symbol: two call sites spelled the same logical counter
//! differently, so the report silently read zeros.  To make that class of bug
//! mechanically checkable, **all** extras keys are declared in this one
//! module and nowhere else:
//!
//! * fixed keys are `pub const …_KEY: &str` items;
//! * phase-suffixed families (`spgemm_flops_<Phase>`, `p2p_words_<Phase>`)
//!   are `pub fn …_key(phase) -> String` builders.
//!
//! The `dibella-lint` `extras-key` rule enforces the invariant: a
//! `bump_extra`/`max_extra`/`extra` call site anywhere in the workspace must
//! name one of these constants/builders (or quote a literal that appears in
//! this file verbatim).  Adding a counter means adding it here first, which
//! keeps the writer and every reader agreeing on the symbol.

use crate::comm::CommPhase;

// --- Transitive reduction ---------------------------------------------------

/// Reduction rounds executed by Algorithm 2.
pub const TR_ITERATIONS_KEY: &str = "tr_iterations";

// --- Sparse SUMMA -----------------------------------------------------------

/// SUMMA stages executed (one per grid dimension per multiply).
pub const SUMMA_STAGES_KEY: &str = "summa_stages";

/// The `CommStats::extras` key carrying useful SpGEMM flops for `phase`.
pub fn flops_key(phase: CommPhase) -> String {
    format!("spgemm_flops_{}", phase.name())
}

/// The `CommStats::extras` key carrying accumulator probes for `phase`.
pub fn probes_key(phase: CommPhase) -> String {
    format!("spgemm_probes_{}", phase.name())
}

/// The `CommStats::extras` key carrying the peak accumulated row width for
/// `phase` (a maximum, not a sum).
pub fn peak_row_width_key(phase: CommPhase) -> String {
    format!("spgemm_peak_row_width_{}", phase.name())
}

// --- Point-to-point traffic (symmetric SUMMA's cross-diagonal exchange) -----

/// The `CommStats::extras` key counting point-to-point words for `phase`.
pub fn p2p_words_key(phase: CommPhase) -> String {
    format!("p2p_words_{}", phase.name())
}

/// The `CommStats::extras` key counting point-to-point messages for `phase`.
pub fn p2p_messages_key(phase: CommPhase) -> String {
    format!("p2p_messages_{}", phase.name())
}

// --- Alignment engine -------------------------------------------------------

/// DP cells evaluated by the alignment stage.
pub const ALIGNED_CELLS_KEY: &str = "aligned_cells";
/// Widest adaptive band of any single x-drop extension (a maximum).
pub const BAND_WIDTH_PEAK_KEY: &str = "band_width_peak";
/// Extensions stopped early by the x-drop test.
pub const XDROP_TERMINATIONS_KEY: &str = "xdrop_terminations";

// --- Streaming superstep ingest ---------------------------------------------

/// Supersteps (batches) the streaming k-mer counter consumed per pass
/// (a maximum over the two passes).
pub const INGEST_SUPERSTEPS_KEY: &str = "ingest_supersteps";
/// Peak bytes of any single sealed ingest batch (a maximum).
pub const INGEST_BATCH_BYTES_PEAK_KEY: &str = "ingest_batch_bytes_peak";
/// Peak estimated resident bytes of any ingest superstep (a maximum).
pub const INGEST_RESIDENT_BYTES_PEAK_KEY: &str = "ingest_resident_bytes_peak";

// --- Sketch-space candidate generation ---------------------------------------

/// Nonzeros of the reads × k-min-mers occurrence matrix.
pub const SKETCH_NNZ_KEY: &str = "sketch_nnz";
/// Surviving k-min-mer columns after the occurrence filter.
pub const SKETCH_COLUMNS_KEY: &str = "sketch_columns";
/// Achieved minimizer density in parts per million.
pub const SKETCH_DENSITY_PPM_KEY: &str = "sketch_density_ppm";
/// Raw-to-HPC compression ratio in parts per million.
pub const SKETCH_HPC_RATIO_PPM_KEY: &str = "sketch_hpc_ratio_ppm";
/// K-min-mer keys dropped for occurring in too few reads.
pub const SKETCH_DROPPED_RARE_KEY: &str = "sketch_dropped_rare";
/// K-min-mer keys dropped for occurring in too many reads.
pub const SKETCH_DROPPED_REPETITIVE_KEY: &str = "sketch_dropped_repetitive";

// --- FASTQ ingest and consensus ----------------------------------------------

/// Reads dropped by the FASTQ mean-quality filter.
pub const FASTQ_DROPPED_LOW_QUALITY_KEY: &str = "fastq_dropped_low_quality";
/// Total POA graph nodes across all contigs.
pub const POA_GRAPH_NODES_KEY: &str = "poa_graph_nodes";
/// Total read bases threaded into POA graphs.
pub const POA_ALIGNED_BASES_KEY: &str = "poa_aligned_bases";
/// Cells of the banded read-vs-backbone dynamic program across all contigs.
pub const POA_DP_CELLS_KEY: &str = "poa_dp_cells";
/// Total consensus bases emitted.
pub const CONSENSUS_LENGTH_KEY: &str = "consensus_length";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_keys_are_distinct() {
        let keys = [
            TR_ITERATIONS_KEY,
            SUMMA_STAGES_KEY,
            ALIGNED_CELLS_KEY,
            BAND_WIDTH_PEAK_KEY,
            XDROP_TERMINATIONS_KEY,
            INGEST_SUPERSTEPS_KEY,
            INGEST_BATCH_BYTES_PEAK_KEY,
            INGEST_RESIDENT_BYTES_PEAK_KEY,
            SKETCH_NNZ_KEY,
            SKETCH_COLUMNS_KEY,
            SKETCH_DENSITY_PPM_KEY,
            SKETCH_HPC_RATIO_PPM_KEY,
            SKETCH_DROPPED_RARE_KEY,
            SKETCH_DROPPED_REPETITIVE_KEY,
            FASTQ_DROPPED_LOW_QUALITY_KEY,
            POA_GRAPH_NODES_KEY,
            POA_ALIGNED_BASES_KEY,
            POA_DP_CELLS_KEY,
            CONSENSUS_LENGTH_KEY,
        ];
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "duplicate extras keys in the registry");
    }

    #[test]
    fn phase_families_embed_the_phase_name() {
        let p = CommPhase::OverlapDetection;
        assert_eq!(flops_key(p), "spgemm_flops_OverlapDetection");
        assert_eq!(probes_key(p), "spgemm_probes_OverlapDetection");
        assert_eq!(peak_row_width_key(p), "spgemm_peak_row_width_OverlapDetection");
        assert_eq!(p2p_words_key(p), "p2p_words_OverlapDetection");
        assert_eq!(p2p_messages_key(p), "p2p_messages_OverlapDetection");
        // Families stay disjoint across phases.
        assert_ne!(flops_key(CommPhase::Other), flops_key(p));
    }
}
