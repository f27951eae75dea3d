//! # dibella-sketch — k-min-mer candidate generation in front of SUMMA
//!
//! The paper's occurrence matrix `A` has one column per *reliable k-mer*, so
//! every downstream cost (SUMMA broadcast words, SpGEMM flops, alignment
//! candidates) scales with a dense `A`.  The long-read state of the art
//! (mapquik, Ekim et al.) instead indexes sparse **k-min-mers**: tuples of
//! `k` consecutive density-selected minimizers over homopolymer-compressed
//! sequence.  This crate builds that representation as a drop-in candidate
//! source:
//!
//! 1. homopolymer compression with an exact compressed→raw coordinate map
//!    ([`dibella_seq::hpc`]);
//! 2. density-bound minimizer selection ([`dibella_seq::sketch`], where the
//!    primitives are shared with the minimap2-style baseline overlapper);
//! 3. k-min-mer construction in canonical orientation ([`kminmer`]);
//! 4. a distributed ownership/ID-assignment pass and a reads × k-min-mers
//!    [`SketchMatrix`](matrix) with the *same* entry type ([`KmerOccurrence`])
//!    and CSR shape the exact path produces ([`matrix`]), so the
//!    `OverlapSemiring` SUMMA — including the symmetric `A·Aᵀ` path — runs
//!    unchanged on top.
//!
//! The matrix is roughly `density`× smaller in nnz than the exact `A`, which
//! is the single biggest lever on everything downstream.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod kminmer;
pub mod matrix;

pub use config::SketchConfig;
pub use dibella_overlap::KmerOccurrence;
pub use kminmer::{sketch_read, KminmerHit, ReadSketch};
pub use matrix::{build_sketch_matrix, SketchStats};
