//! # dibella-benchmark — the repository's end-to-end benchmark
//!
//! Five workloads drive the assembler through its public API only: four go
//! FASTA text → contigs + consensus (`run_dibella_2d`), one goes overlap
//! triples → string graph → contigs.  Two binaries share this library:
//!
//! * `timed` (system allocator, no spans) reports the end-to-end metrics;
//! * `traced` (counting allocator, a span around each call into a layer)
//!   reports the per-layer metrics and writes a Chrome trace.
//!
//! `run.sh` builds both and is the one command to run; `README.md` explains
//! every workload and metric.

#![warn(missing_docs)]
// Reading the wall clock is this package's job (the root clippy.toml bans it
// for the library crates).
#![allow(clippy::disallowed_methods)]

pub mod cli;
pub mod manifest;
pub mod measure;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;
