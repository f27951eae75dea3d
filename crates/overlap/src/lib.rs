//! # dibella-overlap — overlap detection as distributed SpGEMM
//!
//! The first half of the diBELLA 2D pipeline (Algorithm 1, lines 4–8):
//!
//! 1. build the `|reads| x |k-mers|` occurrence matrix `A` from the reliable
//!    k-mer table ([`amatrix`]);
//! 2. compute the candidate overlap matrix `C = A·Aᵀ` with the shared-k-mer
//!    semiring ([`semiring`]) via distributed Sparse SUMMA ([`detect`]);
//! 3. run seed-and-extend alignment on every candidate pair, classify the
//!    result, and prune low-scoring / contained / internal matches to obtain
//!    the overlap matrix `R` annotated with bidirected directions and
//!    overhang lengths ([`detect::align_candidates_with`]);
//! 4. account for the sequence exchange that precedes alignment
//!    ([`detect::account_read_exchange_2d`]).
//!
//! Two baselines from the paper's evaluation live here as well:
//!
//! * [`one_d`] — diBELLA 1D's overlap detection, expressed (as the paper
//!   observes) as a 1D outer-product SpGEMM with a post-multiplication
//!   reduction and per-nonzero read exchange;
//! * [`minimizer`] — a minimap2-style minimizer overlapper that estimates
//!   overlaps from shared minimizers without base-level alignment.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod amatrix;
pub mod detect;
pub mod minimizer;
pub mod one_d;
pub mod semiring;
pub mod types;

pub use amatrix::{build_a_matrix, fill_a_row};
pub use detect::{
    account_read_exchange_2d, align_candidates_with, detect_candidates_2d_with, OverlapConfig,
    OverlapStats, ALIGNED_CELLS_KEY, BAND_WIDTH_PEAK_KEY, WAVE_PAIRS, XDROP_TERMINATIONS_KEY,
};
pub use minimizer::{minimizer_overlaps, MinimizerConfig, MinimizerOverlap};
pub use one_d::{account_read_exchange_1d, detect_candidates_1d};
pub use semiring::OverlapSemiring;
pub use types::{CommonKmers, KmerOccurrence, OverlapEdge, SharedSeed, MAX_SEEDS};
