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
//! There are two extension kernels: the scalar two-phase oracle ([`xdrop`])
//! and one lane-packed vector kernel ([`vector`]), written once over a lane
//! word of `i16` DP cells — sixteen in a `__m256i` on an x86-64 CPU that
//! reports AVX2, eight in a `__m128i` (SSE2) on any other x86-64, eight in a
//! plain `[i16; 8]` everywhere else (`lanes.rs`).  The batched engine
//! ([`batch`]) runs the vector kernel, with per-worker reusable scratch, on
//! the host's word ([`vector_kernel`]); the scalar kernel is the oracle the
//! vector one is held to, bit-identical for every x-drop in
//! `0..=`[`MAX_XDROP`], the vector one's `i16` box.
//!
//! Every kernel scores with BELLA's linear scheme, three constants in
//! [`scoring`] (`+1` match, `-1` mismatch, `-1` gap), so none takes a scoring
//! argument.
//!
//! The consensus stage's banded fit ([`banded`]) is the lane word's second
//! caller: a scalar kernel and one generic lane kernel again; [`banded_fit`]
//! runs the lane kernel and the scalar one only for a fit that leaves the
//! `i16` box.

#![warn(missing_docs)]

/// `$f::<L>($arg…)` for both widths of the safe word and every intrinsic
/// word this host has, so SSE2 stays tested where the dispatch runs AVX2.
#[cfg(test)]
macro_rules! for_every_lane_word {
    ($f:ident($($arg:expr),*)) => {{
        $f::<[i16; 8]>($($arg),*);
        $f::<[i16; 16]>($($arg),*);
        $f::<$crate::batch::Word>($($arg),*);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            $f::<std::arch::x86_64::__m256i>($($arg),*);
        } else {
            println!("skipped the AVX2 word: this CPU has none");
        }
    }};
}

pub mod banded;
pub mod batch;
pub mod classify;
mod lanes;
pub mod scoring;
pub mod vector;
pub mod xdrop;

pub use banded::{banded_fit, AlnOp, Band, BandedFit, FitScratch};
pub use batch::{
    align_seed_pair_with, vector_kernel, xdrop_extend_auto, AlignScratch, OrientCache,
};
pub use classify::{classify_alignment, BidirectedDir, OverlapClass, PairAlignment};
pub use scoring::AlignmentConfig;
pub use vector::MAX_XDROP;
pub use xdrop::{xdrop_extend, xdrop_extend_with, ExtendCounters, ExtendResult, XdropScratch};
