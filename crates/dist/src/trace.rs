//! SPMD collective-protocol tracing and verification.
//!
//! diBELLA 2D is an SPMD program: every rank must execute the **same
//! sequence of collectives** — same phase, same collective kind, same
//! communicator size — or a real MPI run deadlocks (mismatched
//! `MPI_Alltoallv`/`MPI_Bcast` posts) even though this repository's simulated
//! runtime, which shares one address space, would sail through.  The
//! simulation therefore records a [`CollectiveTrace`] per virtual rank while
//! it runs and [`verify_spmd`] checks the protocol invariant afterwards:
//! identical `(phase, kind, participants)` sequences on every rank.
//!
//! Word counts are carried in the trace for diagnostics but deliberately
//! **not** compared: per-rank payloads legitimately differ (data-dependent
//! `alltoallv` buckets, skewed broadcasts), only the control sequence is
//! required to match.
//!
//! Tracing is opt-in via [`crate::CommStats::enable_spmd_trace`]; the pipeline
//! enables it when `debug_assertions` are on and asserts the invariant at the
//! end of every run, so every multi-rank test doubles as a protocol check at
//! zero release-build cost.

use std::fmt;

use crate::comm::CommPhase;

/// The kind of a simulated collective operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// A simulated `MPI_Alltoallv` ([`alltoallv_counted`](crate::alltoallv_counted)).
    Alltoallv,
    /// A simulated row/column broadcast ([`record_broadcast`](crate::record_broadcast)).
    Broadcast,
    /// A simulated point-to-point send ([`record_p2p`](crate::record_p2p)).
    PointToPoint,
    /// A simulated all-reduce ([`record_allreduce`](crate::record_allreduce)).
    AllReduce,
}

impl CollectiveKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Alltoallv => "Alltoallv",
            CollectiveKind::Broadcast => "Broadcast",
            CollectiveKind::PointToPoint => "PointToPoint",
            CollectiveKind::AllReduce => "AllReduce",
        }
    }
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// One collective operation as observed by one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveEvent {
    /// The pipeline phase the collective was attributed to.
    pub phase: CommPhase,
    /// What kind of collective was posted.
    pub kind: CollectiveKind,
    /// How many ranks took part (the communicator size).
    pub participants: usize,
    /// Words this rank sent in the operation — diagnostic only, never
    /// compared by [`verify_spmd`] (payloads are data-dependent).
    pub words: u64,
}

impl CollectiveEvent {
    /// The protocol-relevant part of the event: what [`verify_spmd`] compares.
    pub fn signature(&self) -> (CommPhase, CollectiveKind, usize) {
        (self.phase, self.kind, self.participants)
    }
}

impl fmt::Display for CollectiveEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} x{} ({} words)",
            self.phase, self.kind, self.participants, self.words
        )
    }
}

/// The sequence of collectives one virtual rank observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectiveTrace {
    /// The virtual rank this trace belongs to.
    pub rank: usize,
    /// The collectives, in the order the rank posted them.
    pub events: Vec<CollectiveEvent>,
}

impl CollectiveTrace {
    /// An empty trace for `rank`.
    pub fn new(rank: usize) -> Self {
        CollectiveTrace { rank, events: Vec::new() }
    }
}

/// A violation of the SPMD protocol invariant, with enough context to read
/// off which rank diverged and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmdDivergence {
    /// The rank whose sequence first disagreed with rank `reference_rank`.
    pub rank: usize,
    /// The rank the diverging rank was compared against (the lowest-numbered
    /// trace, normally rank 0).
    pub reference_rank: usize,
    /// Index into the event sequences where the first disagreement sits.
    pub index: usize,
    /// What the reference rank posted at `index` (`None` = its sequence
    /// already ended).
    pub expected: Option<CollectiveEvent>,
    /// What the diverging rank posted at `index` (`None` = its sequence
    /// already ended).
    pub actual: Option<CollectiveEvent>,
    /// The events both ranks agreed on immediately before the divergence
    /// (up to three, for context in the rendered diff).
    pub context: Vec<CollectiveEvent>,
}

impl fmt::Display for SpmdDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SPMD protocol divergence: rank {} disagrees with rank {} at collective #{}",
            self.rank, self.reference_rank, self.index
        )?;
        for (i, event) in self.context.iter().enumerate() {
            let at = self.index - self.context.len() + i;
            writeln!(f, "    #{at}  both: {event}")?;
        }
        match &self.expected {
            Some(event) => writeln!(f, "    #{}  rank {} posted: {event}", self.index, self.reference_rank)?,
            None => writeln!(
                f,
                "    #{}  rank {} posted: <end of sequence>",
                self.index, self.reference_rank
            )?,
        }
        match &self.actual {
            Some(event) => write!(f, "    #{}  rank {} posted: {event}", self.index, self.rank)?,
            None => write!(f, "    #{}  rank {} posted: <end of sequence>", self.index, self.rank)?,
        }
        Ok(())
    }
}

/// Check the SPMD protocol invariant: every rank observed an identical
/// `(phase, kind, participants)` collective sequence.
///
/// Word counts are ignored — per-rank payloads are data-dependent and may
/// legitimately differ; only the control sequence must match.  Returns the
/// first divergence found (lowest diverging rank, earliest index), rendered
/// by its `Display` impl as a readable diff.
///
/// Zero or one traces are vacuously SPMD-consistent.
pub fn verify_spmd(traces: &[CollectiveTrace]) -> Result<(), SpmdDivergence> {
    let Some(reference) = traces.first() else {
        return Ok(());
    };
    for trace in &traces[1..] {
        let len = reference.events.len().max(trace.events.len());
        for index in 0..len {
            let expected = reference.events.get(index);
            let actual = trace.events.get(index);
            let matches = match (expected, actual) {
                (Some(e), Some(a)) => e.signature() == a.signature(),
                _ => false,
            };
            if !matches {
                let context_start = index.saturating_sub(3);
                return Err(SpmdDivergence {
                    rank: trace.rank,
                    reference_rank: reference.rank,
                    index,
                    expected: expected.copied(),
                    actual: actual.copied(),
                    context: reference.events[context_start..index].to_vec(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(phase: CommPhase, kind: CollectiveKind, participants: usize, words: u64) -> CollectiveEvent {
        CollectiveEvent { phase, kind, participants, words }
    }

    fn trace(rank: usize, events: Vec<CollectiveEvent>) -> CollectiveTrace {
        CollectiveTrace { rank, events }
    }

    #[test]
    fn identical_sequences_verify() {
        let events = vec![
            event(CommPhase::KmerCounting, CollectiveKind::Alltoallv, 4, 100),
            event(CommPhase::OverlapDetection, CollectiveKind::Broadcast, 2, 8),
        ];
        let traces: Vec<_> = (0..4).map(|r| trace(r, events.clone())).collect();
        assert!(verify_spmd(&traces).is_ok());
    }

    #[test]
    fn word_counts_may_differ_across_ranks() {
        // Payload skew is legal; only the control sequence must match.
        let traces = vec![
            trace(0, vec![event(CommPhase::KmerCounting, CollectiveKind::Alltoallv, 2, 100)]),
            trace(1, vec![event(CommPhase::KmerCounting, CollectiveKind::Alltoallv, 2, 3)]),
        ];
        assert!(verify_spmd(&traces).is_ok());
    }

    #[test]
    fn empty_and_singleton_inputs_are_vacuously_consistent() {
        assert!(verify_spmd(&[]).is_ok());
        assert!(verify_spmd(&[trace(
            0,
            vec![event(CommPhase::Other, CollectiveKind::Broadcast, 3, 1)]
        )])
        .is_ok());
    }

    #[test]
    fn kind_mismatch_is_reported_at_the_right_index() {
        let shared = event(CommPhase::KmerCounting, CollectiveKind::Alltoallv, 2, 10);
        let traces = vec![
            trace(0, vec![shared, event(CommPhase::OverlapDetection, CollectiveKind::Broadcast, 2, 5)]),
            trace(1, vec![shared, event(CommPhase::OverlapDetection, CollectiveKind::PointToPoint, 2, 5)]),
        ];
        let err = verify_spmd(&traces).unwrap_err();
        assert_eq!(err.rank, 1);
        assert_eq!(err.reference_rank, 0);
        assert_eq!(err.index, 1);
        assert_eq!(err.expected.unwrap().kind, CollectiveKind::Broadcast);
        assert_eq!(err.actual.unwrap().kind, CollectiveKind::PointToPoint);
        assert_eq!(err.context, vec![shared]);
    }

    #[test]
    fn length_mismatch_is_a_divergence() {
        let shared = event(CommPhase::Other, CollectiveKind::Broadcast, 2, 0);
        let traces = vec![trace(0, vec![shared, shared]), trace(1, vec![shared])];
        let err = verify_spmd(&traces).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.expected.is_some());
        assert!(err.actual.is_none());
    }

    #[test]
    fn divergence_diff_is_readable() {
        let shared = event(CommPhase::KmerCounting, CollectiveKind::Alltoallv, 4, 12);
        let traces = vec![
            trace(0, vec![shared, event(CommPhase::OverlapDetection, CollectiveKind::Broadcast, 2, 5)]),
            trace(3, vec![shared, event(CommPhase::TransitiveReduction, CollectiveKind::Broadcast, 2, 5)]),
        ];
        let rendered = verify_spmd(&traces).unwrap_err().to_string();
        assert!(rendered.contains("rank 3 disagrees with rank 0 at collective #1"), "{rendered}");
        assert!(rendered.contains("both: KmerCounting/Alltoallv x4"), "{rendered}");
        assert!(rendered.contains("rank 0 posted: OverlapDetection/Broadcast x2"), "{rendered}");
        assert!(rendered.contains("rank 3 posted: TransitiveReduction/Broadcast x2"), "{rendered}");
    }

    #[test]
    fn participant_count_mismatch_diverges() {
        let traces = vec![
            trace(0, vec![event(CommPhase::Other, CollectiveKind::Broadcast, 3, 1)]),
            trace(1, vec![event(CommPhase::Other, CollectiveKind::Broadcast, 2, 1)]),
        ];
        assert!(verify_spmd(&traces).is_err());
    }
}
