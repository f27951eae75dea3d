//! Parameters of the sketch-space candidate path.

use serde::{Deserialize, Serialize};

/// Parameters controlling minimizer selection and k-min-mer construction
/// over homopolymer-compressed (HPC) reads.
///
/// Defaults follow mapquik's regime scaled to this repo's simulated read
/// lengths: density-bound selection (density is a *direct* knob, the
/// expected fraction of sketch-space k-mers kept), and short k-min-mers of
/// `kmm` consecutive minimizers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SketchConfig {
    /// Minimizer k-mer length, measured in sketch space (homopolymer-
    /// compressed bases).  Must be `<= dibella_seq::kmer::MAX_K`.
    pub k: usize,
    /// Number of consecutive minimizers per k-min-mer (mapquik's `k`; `2`
    /// keeps recall high at the small simulated scales).
    pub kmm: usize,
    /// Minimizer density: a k-mer is selected iff its canonical hash is
    /// below `density · 2^64`, so this is the expected selected fraction.
    pub density: f64,
    /// A k-min-mer must occur in at least this many reads to get a column
    /// (`2` drops singleton columns, which cannot seed a candidate pair).
    pub min_reads: u32,
    /// A k-min-mer occurring in more than this many reads is masked as
    /// repetitive (the analogue of the exact path's `max_count` and the
    /// minimizer baseline's `max_occurrences`).
    pub max_reads: u32,
}

impl Default for SketchConfig {
    fn default() -> Self {
        Self { k: 17, kmm: 2, density: 0.08, min_reads: 2, max_reads: 200 }
    }
}

impl SketchConfig {
    /// Settings for the short (few-hundred-base) reads used in tests: the
    /// minimizer length matches the exact path's `k` so alignment seed
    /// windows are comparable, and the density is raised so short overlaps
    /// still share consecutive minimizers.
    pub fn for_tests(k: usize) -> Self {
        Self { k, kmm: 2, density: 0.2, min_reads: 2, max_reads: 500 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = SketchConfig::default();
        assert!(cfg.k <= dibella_seq::kmer::MAX_K);
        assert!(cfg.kmm >= 2);
        assert!(cfg.density > 0.0 && cfg.density < 1.0);
        assert!(cfg.min_reads >= 2, "singleton columns cannot seed a pair");
        assert!(cfg.max_reads > cfg.min_reads);
    }

    #[test]
    fn test_preset_matches_requested_k() {
        let cfg = SketchConfig::for_tests(13);
        assert_eq!(cfg.k, 13);
        assert!(cfg.density > SketchConfig::default().density);
    }
}
