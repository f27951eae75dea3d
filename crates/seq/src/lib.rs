//! # dibella-seq — sequences, k-mers and k-mer counting
//!
//! The genomics substrate of the diBELLA 2D reproduction:
//!
//! * [`dna`] — the DNA alphabet, 2-bit codes, reverse complements and the
//!   [`dna::DnaSeq`] sequence type.
//! * [`kmer`] — fixed-length k-mers packed into a `u64` (k ≤ 31), canonical
//!   forms and k-mer extraction from sequences.
//! * [`fasta`] — FASTA parsing/writing and the [`fasta::ReadSet`] container
//!   used throughout the pipeline.
//! * [`stream`] — the FASTA/FASTQ reader behind those parsers, which pulls
//!   records from any `std::io::BufRead`.
//! * [`simulate`] — synthetic genome and PacBio-CLR-like long-read simulation.
//!   The paper evaluates on proprietary-scale PacBio CLR datasets
//!   (C. elegans 40×, H. sapiens 10×); this module generates scaled-down
//!   datasets with the same depth / read-length / error-rate statistics so
//!   that every downstream code path (k-mer spectrum, overlap density,
//!   transitive reduction) is exercised realistically.
//! * [`kmer_counter`] — the distributed k-mer counter (Section IV-C): one
//!   all-to-all k-mer exchange to hash-assigned owners, each of which counts
//!   what it received exactly, with the paper's two exchanges accounted under
//!   [`dibella_dist::CommPhase::KmerCounting`].
//! * [`hpc`] — homopolymer compression with an exact compressed→raw
//!   coordinate map, the first stage of the sketch-space candidate path.
//! * [`sketch`] — shared sketching primitives: canonical k-mer hashing plus
//!   windowed (minimap2-style) and density-bound (mapquik-style) minimizer
//!   selection, used by both `dibella-overlap` and `dibella-sketch`.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod dna;
pub mod fasta;
pub mod hpc;
pub mod kmer;
pub mod kmer_counter;
pub mod simulate;
pub mod sketch;
pub mod stream;

pub use dna::{complement_code, DnaSeq, Strand};
pub use fasta::{
    parse_fasta, parse_fasta_file, parse_fastq_file, parse_fastq_filtered, write_fasta,
    write_fasta_file, FastqFilterStats, ReadRecord, ReadSet,
};
pub use hpc::HpcSeq;
pub use kmer::{CanonicalKmer, Kmer, KmerIter};
pub use kmer_counter::{count_kmers_distributed, count_kmers_serial, KmerSelection, KmerTable};
pub use sketch::{
    density_minimizers, density_threshold, kmer_hashes, windowed_minimizers, MinimizerPos,
};
pub use simulate::{
    build_scenario, DatasetSpec, LengthModel, ReadSimConfig, ScenarioKind, ScenarioParams,
    SimulatedDataset, Topology,
};
pub use stream::Records;
