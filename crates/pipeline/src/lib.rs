//! # dibella-pipeline — the diBELLA 2D pipeline (Algorithm 1)
//!
//! This crate assembles the substrates into the end-to-end system the paper
//! evaluates:
//!
//! ```text
//! reads    ← FastaReader()             (or FastqReader() + mean-Q filter)
//! k-mers   ← KmerCounter()
//! A        ← GenerateA(reads, k-mers)
//! C        ← A·Aᵀ                      (candidate overlaps, custom semiring)
//! C        ← Apply(C, Alignment())     (x-drop seed-and-extend)
//! R        ← Prune(C, score < t)
//! S        ← TransitiveReduction(R)    (Algorithm 2)
//! contigs  ← ExtractContigs(S)         (layout: maximal unbranched walks)
//! seq      ← PoaConsensus(contigs)     (consensus: closes the OLC loop)
//! ```
//!
//! * [`config`] — pipeline configuration (k-mer selection, alignment,
//!   transitive reduction, virtual process count).
//! * [`timings`] — per-stage wall-clock timings matching the breakdown of
//!   Figures 5–8 (Alignment, ReadFastq, CountKmer, CreateSpMat, SpGEMM,
//!   ExchangeRead, TrReduction).
//! * [`run2d`] — the diBELLA 2D pipeline.
//! * [`run1d`] — the diBELLA 1D baseline pipeline (overlap detection with the
//!   1D outer-product formulation, no transitive reduction), used for the
//!   Figure 9 comparison.
//! * [`comm_model`] — the analytic communication model of Table I, evaluated
//!   with this reproduction's word conventions so measured and modelled
//!   volumes are directly comparable.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod comm_model;
pub mod config;
pub mod run1d;
pub mod run2d;
pub mod scenario;
pub mod timings;

pub use comm_model::{CommModel, ModelParams};
pub use config::{CandidateSource, PipelineConfig};
pub use run1d::{run_dibella_1d, Pipeline1dOutput};
pub use scenario::{run_scenario, run_scenario_matrix, ScenarioReport, ScenarioSpec};
pub use run2d::{
    run_dibella_2d, run_dibella_2d_fastq, run_dibella_2d_on_reads, ConsensusSummary,
    Pipeline2dOutput,
};
pub use timings::StageTimings;
