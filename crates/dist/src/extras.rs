//! The single registry of `CommStats::extras` keys.
//!
//! The bag holds the five work counters the benchmark's traced run reads
//! from a run's communication snapshot: SpGEMM flops and probes per phase,
//! and the x-drop aligner's cells, widest band and early terminations.  A
//! number that a typed struct on the same output already carries
//! (`TrOutcome::iterations`, `ConsensusSummary`, `SketchStats`, the FASTQ
//! filter's dropped-read count) is not repeated here, with one exception:
//! the three alignment keys repeat `OverlapStats` counters.  They stay only
//! because `benchmark/src/replay.rs` reads them, and go with the bag
//! (ROADMAP item 6, step B).
//!
//! PR 5 fixed a broadcast-accounting bug that boiled down to a typo'd key
//! symbol: two call sites spelled the same logical counter differently, so
//! the report silently read zeros.  To make that class of bug
//! mechanically checkable, **all** extras keys are declared in this one
//! module and nowhere else:
//!
//! * fixed keys are `pub const …_KEY: &str` items;
//! * phase-suffixed families (`spgemm_flops_<Phase>`, `spgemm_probes_<Phase>`)
//!   are `pub fn …_key(phase) -> String` builders.
//!
//! A CI grep (`.github/workflows/ci.yml`, "Extras keys come from the
//! registry") enforces the invariant on writers and readers alike: outside
//! `comm.rs`, whose unit tests exercise the bag itself, every
//! `bump_extra`/`max_extra` call must pass a `…_KEY` constant or a
//! `&…_key(phase)` builder, and no reader (`extra`, `extras.get`,
//! `extras.contains_key`) may name a key by a string literal — a misspelt
//! reader would silently read 0.  Adding a counter means adding it
//! here first, which keeps the writer and every reader agreeing on the symbol.

use crate::comm::CommPhase;

// --- Sparse SUMMA -----------------------------------------------------------

/// The `CommStats::extras` key carrying useful SpGEMM flops for `phase`.
pub fn flops_key(phase: CommPhase) -> String {
    format!("spgemm_flops_{}", phase.name())
}

/// The `CommStats::extras` key carrying accumulator probes for `phase`.
pub fn probes_key(phase: CommPhase) -> String {
    format!("spgemm_probes_{}", phase.name())
}

// --- Alignment stage --------------------------------------------------------

/// DP cells evaluated by the alignment stage.
pub const ALIGNED_CELLS_KEY: &str = "aligned_cells";
/// Widest adaptive band of any single x-drop extension (a maximum).
pub const BAND_WIDTH_PEAK_KEY: &str = "band_width_peak";
/// Extensions stopped early by the x-drop test.
pub const XDROP_TERMINATIONS_KEY: &str = "xdrop_terminations";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_keys_are_distinct() {
        let keys = [
            ALIGNED_CELLS_KEY,
            BAND_WIDTH_PEAK_KEY,
            XDROP_TERMINATIONS_KEY,
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
        // Families stay disjoint across phases.
        assert_ne!(flops_key(CommPhase::Other), flops_key(p));
    }
}
