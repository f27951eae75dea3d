//! # dibella-align — seed-and-extend pairwise alignment
//!
//! diBELLA 2D follows every candidate overlap (a nonzero of `C = A·Aᵀ`) with a
//! "computationally intensive seed-and-extend pairwise alignment" using SeqAn
//! (Section IV-A/IV-D).  This crate is the SeqAn substitute: a gapped x-drop
//! extension aligner ([`xdrop`]) seeded at a shared k-mer, plus the
//! classification of the resulting alignment into the paper's overlap
//! vocabulary ([`classify`]): contained overlaps, the four bidirected
//! dovetail edge types of Figure 1, and their overhang (suffix) lengths —
//! the two quantities the transitive reduction stores in `R` (Section IV-E).
//!
//! Since the batched-engine rework the crate has three extension kernels:
//! the scalar two-phase oracle ([`xdrop`]), a portable SWAR kernel packing
//! four `i16` DP lanes per `u64` ([`simd`]), and on x86-64 an SSE2 kernel
//! packing eight `i16` lanes per `__m128i` ([`sse2`]).  The batched engine
//! ([`batch`]) dispatches per scoring scheme with per-worker reusable
//! scratch; all kernels are bit-identical wherever the `i16` value-range
//! guards hold.

#![warn(missing_docs)]

pub mod batch;
pub mod classify;
pub mod scoring;
pub mod simd;
#[cfg(target_arch = "x86_64")]
pub mod sse2;
pub mod xdrop;

pub use batch::{align_seed_pair_with, xdrop_extend_auto, AlignScratch, ExtendEngine, OrientCache};
pub use classify::{classify_alignment, BidirectedDir, OverlapClass, PairAlignment};
pub use scoring::{AlignmentConfig, ScoringScheme};
pub use simd::{swar_eligible, xdrop_extend_swar, SwarScratch};
#[cfg(target_arch = "x86_64")]
pub use sse2::{xdrop_extend_sse2, Sse2Scratch};
pub use xdrop::{
    align_seed_pair, xdrop_extend, xdrop_extend_with, ExtendCounters, ExtendResult, XdropScratch,
};
