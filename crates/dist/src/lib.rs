//! # dibella-dist — the simulated distributed runtime
//!
//! diBELLA 2D (Guidi et al., IPDPS 2021) runs on real MPI over a
//! `√P × √P` process grid.  This reproduction executes on one host, so this
//! crate substitutes the distributed runtime with a **virtual** one — the
//! substitution is documented in the repository's `DESIGN.md`, and the
//! interconnect constants used to project distributed runtimes from the
//! recorded traffic are documented in `EXPERIMENTS.md` (see also the
//! top-level `README.md` for the crate map):
//!
//! * [`ProcessGrid`] — the `√P × √P` (or general `r × c`) grid of virtual
//!   ranks CombBLAS distributes matrices over;
//! * [`BlockDist`] — the 1D block distribution used for rows/columns of 2D
//!   matrices and for read/k-mer partitioning;
//! * [`CommStats`] / [`CommSnapshot`] — exact per-phase word and message
//!   accounting.  Because all virtual ranks share one address space, no bytes
//!   actually move; instead every collective **records** the words and
//!   messages a real MPI run would have moved.  Those volumes are the
//!   measured quantity the paper's Table I cost model is checked against;
//! * [`par_ranks`] / [`par_ranks_mut`] — run a closure for every virtual rank
//!   in parallel on scoped OS threads (the shared-memory stand-in for "every
//!   rank computes its block");
//! * [`collectives`] — simulated `MPI_Alltoallv` ([`alltoallv_counted`]) and
//!   broadcast ([`collectives::record_broadcast`]) with exact volume
//!   accounting.  A driver loop posts each collective once, not once per
//!   rank, so there is no per-rank control flow to compare: what guards the
//!   protocol's shape is that a kernel's accounted messages and words equal
//!   data-independent closed forms, pinned by the tests beside each caller
//!   (`DESIGN.md`, "Static analysis and determinism checking");
//! * [`wire`] — the wire size of everything a charge posts, named once.
//!
//! ## Phases
//!
//! Traffic is attributed to six communicating phases: the four stages of
//! Algorithm 1 that Table I of the paper prices ([`CommPhase::KmerCounting`],
//! [`CommPhase::OverlapDetection`], [`CommPhase::ReadExchange`] and
//! [`CommPhase::TransitiveReduction`]), the k-min-mer index that replaces
//! k-mer counting on the sketch path ([`CommPhase::SketchIndex`]) and the
//! post-paper consensus gather ([`CommPhase::Consensus`]), plus
//! [`CommPhase::Other`] for miscellaneous traffic in tests and tools.
//!
//! ## Example
//!
//! ```
//! use dibella_dist::{alltoallv_counted, BlockDist, CommPhase, CommStats, ProcessGrid};
//!
//! let grid = ProcessGrid::square(4);
//! assert_eq!((grid.rows(), grid.cols()), (2, 2));
//!
//! // Distribute 10 rows over the 2 grid rows.
//! let dist = BlockDist::new(10, grid.rows());
//! assert_eq!(dist.range(0), 0..5);
//! assert_eq!(dist.owner(7), 1);
//!
//! // Exchange data between 2 virtual ranks and account for it: values below
//! // 10 belong to rank 0, the others to rank 1.
//! let stats = CommStats::new();
//! let send = vec![
//!     vec![10u64, 1, 11], // rank 0 keeps [1], sends [10, 11] to rank 1
//!     vec![2, 14, 3],     // rank 1 sends [2, 3] to rank 0, keeps [14]
//! ];
//! let recv = alltoallv_counted(send, |&v| usize::from(v >= 10), &stats, CommPhase::Other, 1);
//! assert_eq!(recv[0], vec![1, 2, 3]);
//! assert_eq!(recv[1], vec![10, 11, 14]);
//! assert_eq!(stats.words(CommPhase::Other), 4); // only off-rank items count
//! assert_eq!(stats.messages(CommPhase::Other), 2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod collectives;
mod comm;
pub mod extras;
mod grid;
mod par;
pub mod wire;

pub use collectives::{alltoallv_counted, record_allreduce, record_broadcast};
pub use comm::{CommPhase, CommSnapshot, CommStats, PhaseCounters};
pub use grid::{BlockDist, ProcessGrid};
pub use par::{par_ranks, par_ranks_mut, with_threads};
