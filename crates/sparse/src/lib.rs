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
//! * [`accum`] — the reusable per-worker row accumulator (a dense SPA) and
//!   the [`accum::FlopCounter`] every kernel tallies useful flops, probes and
//!   peak row width into.
//! * [`spgemm`] — local (single-block) Gustavson SpGEMM over the reusable
//!   accumulator: the general kernel and the upper-triangle `A·Aᵀ` kernel,
//!   each with the multi-stage accumulate-in-place entry point SUMMA uses,
//!   and the k-major kernel a block of `A·Aᵀ` switches to when its products
//!   outnumber its output coordinates.
//! * [`elementwise`] — the element-wise kernels of Algorithm 2: `Apply`,
//!   `Prune`, `Reduce(Row, max)`, `DimApply`, element-wise intersection and
//!   set-difference.
//! * [`distmat::DistMat2D`] — a matrix block-distributed over a
//!   [`dibella_dist::ProcessGrid`].
//! * [`mod@summa`] — 2D Sparse SUMMA (`C = A·B` over a semiring, and the
//!   upper triangle of the symmetric `C = A·Aᵀ`) with communication
//!   accounting, the direct analogue of CombBLAS' SpGEMM used in the paper.
//! * [`outer1d`] — the 1D outer-product `A·Aᵀ` (upper triangle) that models
//!   diBELLA 1D's communication structure (Section V-B).

#![warn(missing_docs)]

pub mod accum;
pub mod csr;
pub mod distmat;
pub mod elementwise;
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
