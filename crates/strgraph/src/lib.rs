//! # dibella-strgraph — string graphs and parallel transitive reduction
//!
//! The paper's central contribution (Section IV-E, Algorithms 2 and 3): turn
//! the overlap matrix `R` into a string graph `S` by removing transitive
//! edges, entirely with sparse-matrix operations over custom semirings.
//!
//! * [`trsemiring`] — the MinPlus semiring with bidirected-orientation checks
//!   that defines the squaring `N = R²` (Algorithm 3); the reduction's tests
//!   hold the masked pass to it.
//! * [`transitive`] — Algorithm 2 on 2D-distributed matrices: one round of
//!   one masked, fused pass that emits `I` without building `N`, with
//!   communication accounting.
//! * [`myers`] — Myers' sequential transitive-reduction algorithm
//!   (Bioinformatics 2005), the linear-time but inherently sequential
//!   baseline the paper contrasts with.
//! * [`sora`] — a vertex-centric, superstep-materialising reduction in the
//!   style of SORA (Spark/GraphX), the distributed baseline of Table VI.
//! * [`contigs`] — extraction of unbranched paths (contig layouts) from the
//!   string matrix's rows, and the one statement of a valid bidirected walk
//!   (Figure 2).
//! * [`consensus`] — banded partial-order-alignment (POA) consensus over each
//!   contig layout, closing the OLC loop the paper leaves to downstream
//!   tools: layouts become sequence.
//! * [`metrics`] — assembly-quality metrics over the consensus output
//!   (N50/NG50, identity against a known reference, misjoin counts).
//! * [`fixtures`] — hand-built and genome-tiling overlap graphs used by the
//!   tests, benches and examples.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod consensus;
pub mod contigs;
pub mod fixtures;
pub mod metrics;
pub mod myers;
pub mod sora;
pub mod transitive;
pub mod trsemiring;

pub use consensus::{
    banded_identity, consensus_contig, consensus_contigs, ConsensusConfig, ContigConsensus,
    PoaGraph,
};
pub use contigs::{extract_contigs, walk_orientations, Contig};
pub use metrics::{
    evaluate_assembly, evaluate_assembly_truth, n50, ng50, AssemblyMetrics, ContigQuality,
    GroundTruth,
};
pub use myers::myers_transitive_reduction;
pub use sora::{sora_transitive_reduction, SoraStats};
pub use transitive::{transitive_reduction, TransitiveReductionConfig, TrOutcome};
pub use trsemiring::{TrMinPlus, TwoHop};
