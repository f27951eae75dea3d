//! Per-phase communication accounting.
//!
//! All virtual ranks share one address space, so no bytes actually move;
//! instead every simulated collective records the words (8-byte units) and
//! messages a real MPI run would have moved.  [`CommStats`] is the shared,
//! thread-safe accumulator the pipeline threads through every stage;
//! [`CommSnapshot`] is the frozen copy reports and tests inspect.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard};

/// The communicating stages of Algorithm 1, matching Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommPhase {
    /// The two-pass k-mer exchange of the distributed k-mer counter.
    KmerCounting,
    /// The k-min-mer key exchange and ownership/ID-assignment pass of the
    /// sketch-space candidate subsystem (replaces `KmerCounting` when the
    /// pipeline runs in k-min-mer mode).
    SketchIndex,
    /// The SpGEMM computing the candidate matrix `C = A·Aᵀ` (2D SUMMA
    /// broadcasts or the 1D outer-product reduction).
    OverlapDetection,
    /// The sequence exchange that precedes pairwise alignment.
    ReadExchange,
    /// The repeated squaring of `R` inside Algorithm 2.
    TransitiveReduction,
    /// Gathering each contig's reads to its owner rank for the POA consensus
    /// stage (beyond the paper's pipeline, which stops at the string graph).
    Consensus,
    /// Anything else (tests, tools, experiments).
    Other,
}

impl CommPhase {
    /// All phases, in Table I order (with the post-paper consensus stage
    /// before `Other`).
    pub const ALL: [CommPhase; 7] = [
        CommPhase::KmerCounting,
        CommPhase::SketchIndex,
        CommPhase::OverlapDetection,
        CommPhase::ReadExchange,
        CommPhase::TransitiveReduction,
        CommPhase::Consensus,
        CommPhase::Other,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CommPhase::KmerCounting => "KmerCounting",
            CommPhase::SketchIndex => "SketchIndex",
            CommPhase::OverlapDetection => "OverlapDetection",
            CommPhase::ReadExchange => "ReadExchange",
            CommPhase::TransitiveReduction => "TransitiveReduction",
            CommPhase::Consensus => "Consensus",
            CommPhase::Other => "Other",
        }
    }
}

impl fmt::Display for CommPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// The counters of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Total 8-byte words moved, summed over all ranks.
    pub words: u64,
    /// Total messages sent, summed over all ranks.
    pub messages: u64,
}

/// A frozen copy of a [`CommStats`], safe to keep, clone and compare.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommSnapshot {
    /// Per-phase counters, in phase order.
    pub phases: BTreeMap<CommPhase, PhaseCounters>,
    /// Named auxiliary counters, keyed by the symbols of
    /// [`extras`](crate::extras) (e.g. `"aligned_cells"`).
    pub extras: BTreeMap<String, u64>,
}

impl CommSnapshot {
    /// Counters for one phase (zero if nothing was recorded).
    pub fn phase(&self, phase: CommPhase) -> PhaseCounters {
        self.phases.get(&phase).copied().unwrap_or_default()
    }

    /// Total words across all phases.
    pub fn total_words(&self) -> u64 {
        self.phases.values().map(|c| c.words).sum()
    }

    /// Total messages across all phases.
    pub fn total_messages(&self) -> u64 {
        self.phases.values().map(|c| c.messages).sum()
    }
}

/// Thread-safe accumulator of simulated communication volumes.
///
/// One `CommStats` is threaded through a whole pipeline run; stages record
/// into it via [`CommStats::record`] (or through the
/// [`collectives`](crate::collectives)), and reports take a
/// [`CommSnapshot`] at the end.
#[derive(Debug, Default)]
pub struct CommStats {
    inner: Mutex<CommSnapshot>,
}

impl CommStats {
    /// A fresh accumulator with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters, locked.
    #[expect(
        clippy::unwrap_used,
        reason = "mutex poisoning after another thread's panic is not an input error, and \
                  propagating it would infect every signature with a useless error arm"
    )]
    fn locked(&self) -> MutexGuard<'_, CommSnapshot> {
        self.inner.lock().unwrap()
    }

    /// Add `words` words and `messages` messages to `phase`.
    pub fn record(&self, phase: CommPhase, words: u64, messages: u64) {
        let mut inner = self.locked();
        let counters = inner.phases.entry(phase).or_default();
        counters.words += words;
        counters.messages += messages;
    }

    /// Add `amount` to the named auxiliary counter.
    pub fn bump_extra(&self, key: &str, amount: u64) {
        let mut inner = self.locked();
        *inner.extras.entry(key.to_string()).or_insert(0) += amount;
    }

    /// Raise the named auxiliary counter to `value` if it is larger (a
    /// maximum-tracking extra, e.g. the widest x-drop band).
    pub fn max_extra(&self, key: &str, value: u64) {
        let mut inner = self.locked();
        let slot = inner.extras.entry(key.to_string()).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Current value of the named auxiliary counter (0 if never recorded).
    pub fn extra(&self, key: &str) -> u64 {
        self.locked().extras.get(key).copied().unwrap_or(0)
    }

    /// Words recorded for `phase` so far.
    pub fn words(&self, phase: CommPhase) -> u64 {
        self.locked().phase(phase).words
    }

    /// Messages recorded for `phase` so far.
    pub fn messages(&self, phase: CommPhase) -> u64 {
        self.locked().phase(phase).messages
    }

    /// Total words across all phases so far.
    pub fn total_words(&self) -> u64 {
        self.locked().total_words()
    }

    /// A frozen copy of the current counters.
    pub fn snapshot(&self) -> CommSnapshot {
        self.locked().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_phase() {
        let stats = CommStats::new();
        stats.record(CommPhase::KmerCounting, 100, 4);
        stats.record(CommPhase::KmerCounting, 50, 2);
        stats.record(CommPhase::OverlapDetection, 7, 1);
        assert_eq!(stats.words(CommPhase::KmerCounting), 150);
        assert_eq!(stats.messages(CommPhase::KmerCounting), 6);
        assert_eq!(stats.words(CommPhase::OverlapDetection), 7);
        assert_eq!(stats.words(CommPhase::ReadExchange), 0);
        assert_eq!(stats.total_words(), 157);
    }

    #[test]
    fn snapshot_freezes_and_later_records_do_not_leak_in() {
        let stats = CommStats::new();
        stats.record(CommPhase::ReadExchange, 10, 1);
        stats.bump_extra("tr_iterations", 3);
        let snap = stats.snapshot();
        stats.record(CommPhase::ReadExchange, 99, 9);
        assert_eq!(snap.phase(CommPhase::ReadExchange).words, 10);
        assert_eq!(snap.total_words(), 10);
        assert_eq!(snap.total_messages(), 1);
        assert_eq!(snap.extras.get("tr_iterations"), Some(&3));
        assert_eq!(stats.words(CommPhase::ReadExchange), 109);
    }

    #[test]
    fn extras_accumulate_by_key() {
        let stats = CommStats::new();
        stats.bump_extra("summa_stages", 2);
        stats.bump_extra("summa_stages", 3);
        stats.bump_extra("tr_iterations", 1);
        let snap = stats.snapshot();
        assert_eq!(snap.extras.get("summa_stages"), Some(&5));
        assert!(snap.extras.contains_key("tr_iterations"));
    }

    #[test]
    fn max_extra_keeps_the_maximum_and_extra_reads_back() {
        let stats = CommStats::new();
        stats.max_extra("spgemm_peak_row_width", 12);
        stats.max_extra("spgemm_peak_row_width", 7);
        stats.max_extra("spgemm_peak_row_width", 31);
        assert_eq!(stats.extra("spgemm_peak_row_width"), 31);
        assert_eq!(stats.extra("never_recorded"), 0);
        assert_eq!(stats.snapshot().extras.get("spgemm_peak_row_width"), Some(&31));
    }

    #[test]
    fn phases_display_with_padding() {
        assert_eq!(format!("{:>20}", CommPhase::KmerCounting), "        KmerCounting");
        assert_eq!(CommPhase::ALL.len(), 7);
        // Ord is needed for the BTreeMap key; spot-check Table I ordering.
        assert!(CommPhase::KmerCounting < CommPhase::TransitiveReduction);
    }

    #[test]
    fn stats_are_shareable_across_threads() {
        let stats = CommStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        stats.record(CommPhase::Other, 1, 1);
                    }
                });
            }
        });
        assert_eq!(stats.words(CommPhase::Other), 4000);
        assert_eq!(stats.messages(CommPhase::Other), 4000);
    }
}
