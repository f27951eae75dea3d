//! Schedule-exploration harness for the work-stealing pool.
//!
//! The pool's determinism claim — bit-identical output at any thread count —
//! is usually tested by sweeping 1/2/4 workers and hoping the OS produces
//! interesting interleavings.  This module makes the sweep adversarial and
//! reproducible instead: it drives the pool's [`StealSchedule`] mode (see
//! `rayon::pool`), which pins the chunk count and permutes the chunk-claim
//! order deterministically, with yield points injected before every claim.
//!
//! Two presets cover the two exploration regimes:
//!
//! * [`SchedulePreset::ExhaustiveSmall`] enumerates **every** claim order at
//!   3 and 4 chunks (`3! + 4! = 30` schedules) — small enough to be complete,
//!   large enough that any claim-order dependence shows up;
//! * [`SchedulePreset::RandomizedLarge`] samples seeded shuffles at 8/12/16
//!   chunks, where enumeration is hopeless but coarse chunk interleavings
//!   hide different bugs (e.g. accumulator reuse across distant rows).
//!
//! [`assert_schedule_determinism`] is the entry point: it runs a workload
//! once under the production schedule as the baseline, then once per explored
//! schedule (each under its own worker-count pin), and asserts every output
//! equals the baseline.  CI runs the exhaustive preset on pull requests and
//! the larger randomized preset on pushes to main
//! (`DIBELLA_SCHEDULES=randomized`; see [`SchedulePreset::from_env`]).

use rayon::pool::{with_steal_schedule, with_thread_limit, StealSchedule};

/// One explored schedule: a steal-order permutation plus the worker-count pin
/// to run it under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploredSchedule {
    /// Worker-count pin for the run.
    pub threads: usize,
    /// The chunk-claim schedule.
    pub schedule: StealSchedule,
}

/// A named family of schedules to explore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePreset {
    /// All `3! + 4! = 30` claim-order permutations at 3 and 4 chunks,
    /// alternating 2- and 3-worker pins — exhaustive at its chunk counts.
    ExhaustiveSmall,
    /// `count` seeded shuffles cycling through 8/12/16 chunks and 2/3/4
    /// workers — the sampling regime for chunk counts too large to enumerate.
    RandomizedLarge {
        /// How many seeded schedules to explore.
        count: usize,
    },
}

impl SchedulePreset {
    /// The preset selected by the `DIBELLA_SCHEDULES` environment variable:
    /// `randomized` (optionally `randomized:<count>`) or anything else /
    /// unset for [`SchedulePreset::ExhaustiveSmall`].  This is the CI knob —
    /// exhaustive on pull requests, randomized on pushes to main.
    pub fn from_env() -> Self {
        match std::env::var("DIBELLA_SCHEDULES") {
            Ok(value) if value.starts_with("randomized") => {
                let count = value
                    .split_once(':')
                    .and_then(|(_, n)| n.parse().ok())
                    .unwrap_or(32);
                SchedulePreset::RandomizedLarge { count }
            }
            _ => SchedulePreset::ExhaustiveSmall,
        }
    }

    /// The schedules this preset explores, in a deterministic order.
    pub fn schedules(self) -> Vec<ExploredSchedule> {
        match self {
            SchedulePreset::ExhaustiveSmall => {
                let mut out = Vec::with_capacity(30);
                for (chunks, orders) in [(3usize, 6u64), (4, 24)] {
                    for index in 0..orders {
                        out.push(ExploredSchedule {
                            threads: 2 + (index % 2) as usize,
                            schedule: StealSchedule::exhaustive(chunks, index),
                        });
                    }
                }
                out
            }
            SchedulePreset::RandomizedLarge { count } => (0..count as u64)
                .map(|seed| ExploredSchedule {
                    threads: 2 + (seed % 3) as usize,
                    schedule: StealSchedule::randomized(8 + (seed % 3) as usize * 4, seed),
                })
                .collect(),
        }
    }
}

/// Run `workload` once under the production schedule (the baseline) and once
/// per schedule in `preset`, asserting every adversarial run reproduces the
/// baseline output bit for bit.
///
/// Returns the number of schedules explored (callers pin floors on it, e.g.
/// the pipeline's ≥ 50-schedule re-pin).  Panics with the offending schedule
/// on the first mismatch — the schedule is `Copy` and fully determines the
/// replay, so a failure message is a reproducer.
pub fn assert_schedule_determinism<T, F>(preset: SchedulePreset, workload: F) -> usize
where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    let baseline = workload();
    let schedules = preset.schedules();
    for explored in &schedules {
        let got = with_thread_limit(explored.threads, || {
            with_steal_schedule(explored.schedule, &workload)
        });
        assert!(
            got == baseline,
            "output diverged under {:?} with {} workers:\n  baseline: {:?}\n  explored: {:?}",
            explored.schedule,
            explored.threads,
            baseline,
            got
        );
    }
    schedules.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn exhaustive_small_is_complete_and_distinct() {
        let schedules = SchedulePreset::ExhaustiveSmall.schedules();
        assert_eq!(schedules.len(), 30);
        let mut seen: Vec<StealSchedule> = Vec::new();
        for s in &schedules {
            assert!((2..=3).contains(&s.threads));
            assert!(!seen.contains(&s.schedule), "duplicate schedule {:?}", s.schedule);
            seen.push(s.schedule);
        }
    }

    #[test]
    fn randomized_preset_honours_its_count() {
        assert_eq!(SchedulePreset::RandomizedLarge { count: 26 }.schedules().len(), 26);
    }

    #[test]
    fn determinism_assertion_passes_for_a_deterministic_workload() {
        let explored = assert_schedule_determinism(SchedulePreset::ExhaustiveSmall, || {
            rayon::pool::map_indexed(64, |i| i as u64 * 17)
        });
        assert_eq!(explored, 30);
    }

    #[test]
    #[should_panic(expected = "output diverged under")]
    fn determinism_assertion_catches_an_order_sensitive_workload() {
        // Appending under a lock instead of writing per-index slots is the
        // canonical nondeterminism bug; some permutation must expose it.
        assert_schedule_determinism(SchedulePreset::ExhaustiveSmall, || {
            let out = std::sync::Mutex::new(Vec::new());
            rayon::pool::for_each_index(12, || (), |(), i| out.lock().unwrap().push(i));
            out.into_inner().unwrap()
        });
    }

    #[test]
    fn workload_runs_once_per_schedule_plus_baseline() {
        let runs = AtomicUsize::new(0);
        assert_schedule_determinism(SchedulePreset::RandomizedLarge { count: 5 }, || {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(runs.load(Ordering::Relaxed), 6);
    }
}
