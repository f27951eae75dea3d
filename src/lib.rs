//! # dibella2d — a Rust reproduction of diBELLA 2D
//!
//! Parallel string graph construction and transitive reduction for de novo
//! long-read genome assembly, after Guidi et al., *"Parallel String Graph
//! Construction and Transitive Reduction for De Novo Genome Assembly"*
//! (IPDPS 2021).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`dist`] — virtual process grid, collectives, communication accounting;
//! * [`sparse`] — sparse matrices, semirings, Sparse SUMMA, 1D outer-product;
//! * [`seq`] — DNA/k-mer types, FASTA I/O, read simulation, k-mer counting;
//! * [`align`] — x-drop seed-and-extend alignment and overlap classification;
//! * [`overlap`] — overlap detection as distributed SpGEMM plus baselines;
//! * [`sketch`] — the k-min-mer candidate subsystem: homopolymer compression,
//!   density-bound minimizers and the sketch-space occurrence matrix that
//!   feeds the same SUMMA with ~density× fewer nonzeros;
//! * [`strgraph`] — transitive reduction (Algorithm 2), Myers/SORA baselines,
//!   string-graph utilities, contig extraction, POA consensus and
//!   assembly-quality metrics;
//! * [`pipeline`] — the end-to-end diBELLA 2D and 1D pipelines with stage
//!   timings and the Table I communication model.
//!
//! The repository-level documentation complements the API docs:
//! `README.md` (crate map, quick start, how to run the examples and the
//! table/figure reproduction binaries under `crates/bench/src/bin/`),
//! `DESIGN.md` (how the virtual
//! process grid and counted collectives substitute for the MPI runtime) and
//! `EXPERIMENTS.md` (the interconnect constants behind the simulated
//! distributed runtimes, and what to compare against the paper).  `PAPER.md`
//! holds the source paper's abstract.
//!
//! ## Quick start
//!
//! ```
//! use dibella2d::prelude::*;
//!
//! // Simulate a tiny long-read dataset (substitute for PacBio CLR input).
//! let dataset = DatasetSpec::Tiny.generate(1);
//!
//! // Run the diBELLA 2D pipeline on 4 virtual ranks: overlap detection,
//! // string-graph construction, contig layout and POA consensus.
//! let config = PipelineConfig::for_small_reads(13, 4);
//! let comm = CommStats::new();
//! let out = run_dibella_2d_on_reads(&dataset.reads, &config, &comm).unwrap();
//!
//! assert!(out.string_matrix.nnz() > 0);
//! assert!(out.string_matrix.nnz() <= out.overlap_matrix.nnz());
//! assert_eq!(out.contigs.len(), out.consensus.len());
//! assert!(out.consensus_summary.consensus_bases > 0);
//! println!(
//!     "{} reads -> {} overlaps -> {} string-graph edges -> {} contigs ({} bp consensus)",
//!     dataset.reads.len(),
//!     out.overlap_matrix.nnz() / 2,
//!     out.string_matrix.nnz() / 2,
//!     out.consensus_summary.multi_read_contigs,
//!     out.consensus_summary.consensus_bases,
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use dibella_align as align;
pub use dibella_dist as dist;
pub use dibella_overlap as overlap;
pub use dibella_pipeline as pipeline;
pub use dibella_seq as seq;
pub use dibella_sketch as sketch;
pub use dibella_sparse as sparse;
pub use dibella_strgraph as strgraph;

/// The most commonly used types and entry points, in one import.
pub mod prelude {
    pub use dibella_align::{AlignmentConfig, BidirectedDir, OverlapClass};
    pub use dibella_dist::{CommPhase, CommStats, ProcessGrid};
    pub use dibella_overlap::{
        minimizer_overlaps, MinimizerConfig, OverlapConfig, OverlapEdge,
    };
    pub use dibella_pipeline::{
        run_dibella_1d, run_dibella_2d, run_dibella_2d_fastq, run_dibella_2d_on_reads,
        run_scenario, run_scenario_matrix, CandidateSource, CommModel, ModelParams,
        PipelineConfig, ScenarioReport, ScenarioSpec, StageTimings,
    };
    pub use dibella_seq::{
        parse_fasta, parse_fasta_file, parse_fastq_file, parse_fastq_filtered,
        write_fasta, DatasetSpec, DnaSeq, Kmer, KmerSelection, ReadSet, ScenarioKind,
        ScenarioParams, Strand, Topology,
    };
    pub use dibella_sketch::{build_sketch_matrix, sketch_read, SketchConfig, SketchStats};
    pub use dibella_sparse::{CsrMatrix, DistMat2D, Semiring, Triples};
    pub use dibella_strgraph::{
        banded_identity, consensus_contig, consensus_contigs, evaluate_assembly,
        evaluate_assembly_truth, extract_contigs, myers_transitive_reduction,
        sora_transitive_reduction, transitive_reduction, AssemblyMetrics, BidirectedGraph,
        ConsensusConfig, GroundTruth, TransitiveReductionConfig,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let ds = DatasetSpec::Tiny.generate(3);
        let cfg = PipelineConfig::for_small_reads(13, 1);
        let comm = CommStats::new();
        let out = run_dibella_2d_on_reads(&ds.reads, &cfg, &comm).unwrap();
        let graph = BidirectedGraph::from_dist_matrix(&out.string_matrix);
        assert_eq!(graph.num_vertices(), ds.reads.len());
    }
}
