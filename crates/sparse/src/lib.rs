//! # dibella-sparse — sparse matrices and semiring algebra
//!
//! diBELLA 2D expresses both overlap detection and transitive reduction as
//! operations on 2D-distributed sparse matrices with user-defined semirings
//! (the CombBLAS model).  This crate is a from-scratch Rust implementation of
//! the pieces the paper relies on:
//!
//! * [`triples::Triples`] — coordinate (COO) storage used for construction and
//!   redistribution.
//! * [`csr::CsrMatrix`] — compressed sparse row storage used for computation.
//! * [`semiring::Semiring`] — the overloadable add/multiply abstraction; the
//!   overlap-detection and MinPlus transitive-reduction semirings of the paper
//!   live in the higher-level crates and plug in here.
//! * [`accum`] — the reusable per-worker row accumulator (a dense SPA of
//!   `Option` slots, folded through [`Semiring::multiply_add`]) and the
//!   [`accum::FlopCounter`] every kernel tallies useful flops and peak row
//!   width into.
//! * [`spgemm`] — local (single-block) Gustavson SpGEMM over the reusable
//!   accumulator: the general kernel and the upper-triangle `A·Aᵀ` kernel,
//!   each with the multi-stage accumulate-in-place entry point SUMMA uses,
//!   and the k-major kernel a block of `A·Aᵀ` switches to when its products
//!   outnumber its output coordinates.
//! * [`distmat::DistMat2D`] — a matrix block-distributed over a
//!   [`dibella_dist::ProcessGrid`], with the block-wise `filter`,
//!   `transpose` and `reduce_rows` that Algorithm 2's element-wise steps
//!   (`Reduce(Row, max)`, `M ≥ N`, `R ∘ ¬I`) run on.
//! * [`mod@summa`] — 2D Sparse SUMMA (`C = A·B` over a semiring, and the
//!   upper triangle of the symmetric `C = A·Aᵀ`) with communication
//!   accounting, the direct analogue of CombBLAS' SpGEMM used in the paper.
//! * [`outer1d`] — the 1D outer-product `A·Aᵀ` (upper triangle) that models
//!   diBELLA 1D's communication structure (Section V-B).

#![warn(missing_docs)]

pub mod accum;
pub mod csr;
pub mod distmat;
pub mod outer1d;
pub mod semiring;
pub mod spgemm;
pub mod summa;
pub mod triples;

pub use accum::FlopCounter;
pub use csr::CsrMatrix;
pub use distmat::DistMat2D;
pub use semiring::{BoolAndOr, MinPlusNum, PlusTimes, Semiring};
pub use spgemm::{local_spgemm, local_spgemm_aat};
pub use summa::{summa, summa_aat_sym};
pub use triples::Triples;

#[cfg(test)]
/// Helpers shared by this crate's unit tests.
pub(crate) mod test_util {
    /// Shuffle `items` in place, deterministically from `seed` (Fisher–Yates
    /// over SplitMix64), so that an entry list a test builds from a sorted
    /// set reaches the code under test out of order.
    pub(crate) fn shuffle<T>(items: &mut [T], seed: u64) {
        let mut state = seed;
        for i in (1..items.len()).rev() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            items.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
        }
    }
}
