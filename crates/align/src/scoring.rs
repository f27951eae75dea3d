//! The scoring scheme and the alignment configuration.
//!
//! Every aligner of the crate — the x-drop kernels and the banded fit — scores
//! with BELLA's linear-gap scheme (Guidi et al., ACDA 2021), which the diBELLA
//! pipelines reuse: `+1` per match, `-1` per mismatch, `-1` per gap base.

/// Score added for a matching base pair.
pub const MATCH: i32 = 1;
/// Score added for a mismatching base pair.
pub const MISMATCH: i32 = -1;
/// Score added per gap base (linear gaps).
pub const GAP: i32 = -1;

/// Full configuration of the pairwise-alignment stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentConfig {
    /// X-drop threshold: extension stops once the running score falls more
    /// than this far below the best score seen.  The vector kernel is exact
    /// for `0..=`[`MAX_XDROP`](crate::vector::MAX_XDROP), and pipeline
    /// configurations outside it are rejected.
    pub xdrop: i32,
    /// Minimum aligned length (on the shorter side) for an overlap to count.
    pub min_overlap: usize,
    /// Minimum score per aligned base; BELLA derives this from the error rate
    /// (an alignment of two reads with per-base error `e` has expected
    /// per-base score `(1-e)² - 2·e·(1-e) - e²·...` ≈ `1 - 2e` for this
    /// scoring scheme), minus a safety margin.
    pub min_score_per_base: f64,
    /// Tolerance (in bases) when classifying overlaps: unaligned overhangs up
    /// to this length are attributed to sequencing error rather than to a
    /// structural difference.
    pub classification_fuzz: usize,
}

impl Default for AlignmentConfig {
    fn default() -> Self {
        Self {
            xdrop: 49,
            min_overlap: 200,
            min_score_per_base: 0.45,
            classification_fuzz: 300,
        }
    }
}

impl AlignmentConfig {
    /// Configuration matched to a dataset's error rate: the per-base score
    /// threshold is placed halfway between the expected score of a true
    /// overlap (`≈ 1 - 4e + 2e²` when both reads carry errors at rate `e`)
    /// and zero (the expectation for unrelated sequence).
    pub fn for_error_rate(error_rate: f64) -> Self {
        let e2 = 2.0 * error_rate - error_rate * error_rate; // combined pair error
        let expected = 1.0 - 2.0 * e2;
        Self { min_score_per_base: (expected / 2.0).max(0.1), ..Self::default() }
    }

    /// Threshold score for an alignment spanning `aligned_len` bases.
    pub fn score_threshold(&self, aligned_len: usize) -> i32 {
        (self.min_score_per_base * aligned_len as f64).floor() as i32
    }

    /// Smaller overlap/fuzz values suitable for the short reads used in unit
    /// and integration tests.
    pub fn for_tests() -> Self {
        Self {
            min_overlap: 30,
            classification_fuzz: 40,
            xdrop: 30,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_threshold_scales_linearly() {
        let cfg = AlignmentConfig { min_score_per_base: 0.5, ..Default::default() };
        assert_eq!(cfg.score_threshold(100), 50);
        assert_eq!(cfg.score_threshold(0), 0);
        assert_eq!(cfg.score_threshold(333), 166);
    }

    #[test]
    fn error_rate_aware_threshold_decreases_with_error() {
        let clean = AlignmentConfig::for_error_rate(0.01);
        let noisy = AlignmentConfig::for_error_rate(0.15);
        assert!(clean.min_score_per_base > noisy.min_score_per_base);
        assert!(noisy.min_score_per_base >= 0.1);
    }
}
