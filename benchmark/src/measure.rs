//! What the two binaries do with one workload: the timed measurement
//! (end-to-end metrics) and the traced measurement (per-layer metrics).

use crate::replay::{traced_pair, Metrics};
use crate::stats::median;
use crate::trace::Span;
use crate::workloads::{quality, run, Input, Output, Quality, Scale, Workload};
use dibella2d::pipeline::timings::timed;
use dibella_testutil::PeakAlloc;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Input generations before every run; `setup_s` is the median of all of
/// them.  Spread over the whole measurement rather than bunched at its start:
/// a generation takes milliseconds, and this host's speed drifts by 20% over
/// seconds.
const SETUPS_PER_RUN: usize = 3;

/// Counts of runs, and whether every check passed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Runs started, the warm-up included.
    pub attempted: u64,
    /// Runs that returned an error, panicked, or differed from the first.
    pub failed: u64,
    /// Why runs failed or a floor broke, for the log.
    pub problems: Vec<String>,
}

impl Checks {
    /// True when no run failed and no floor broke.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn fail_run(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    fn check_floors(&mut self, w: &Workload, scale: Scale, q: &Quality) {
        if q.misjoins != 0 {
            self.problems
                .push(format!("{} misjoins, expected 0", q.misjoins));
        }
        if q.accuracy < w.accuracy_floor(scale) {
            self.problems.push(format!(
                "accuracy {} below the floor {}",
                q.accuracy,
                w.accuracy_floor(scale)
            ));
        }
    }
}

/// One run with panics turned into errors.
fn guarded<T>(body: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|panic| {
        let text = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("no message");
        Err(format!("panicked: {text}"))
    })
}

/// Generate the input [`SETUPS_PER_RUN`] times, adding the seconds each
/// generation took to `seconds`; returns the last one.
fn timed_setup(w: &Workload, seed: u64, scale: Scale, seconds: &mut Vec<f64>) -> Input {
    let mut generate = || {
        let (input, elapsed) = timed(|| std::hint::black_box(w.generate(seed, scale)));
        seconds.push(elapsed);
        input
    };
    for _ in 1..SETUPS_PER_RUN {
        generate();
    }
    generate()
}

/// Result of the timed measurement of one workload.
pub struct TimedReport {
    /// Seconds of each timed run (the warm-up is not among them).
    pub wall_s: Vec<f64>,
    /// Seconds of each input generation.
    pub setup_s: Vec<f64>,
    /// Quality of the first run's output; every later run equalled it.
    pub quality: Option<Quality>,
    /// Run counts and failed checks.
    pub checks: Checks,
}

/// Closed loop, one run at a time: generate the input and run the program on
/// it, again and again until `seconds` have passed.  The first run is a
/// warm-up and is not timed; at least one run after it is.  No spans, and
/// whichever allocator the calling binary installed.
pub fn timed_measurement(w: &Workload, seed: u64, seconds: f64, scale: Scale) -> TimedReport {
    let mut checks = Checks::default();
    let mut wall_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut first: Option<Output> = None;

    let clock = Instant::now();
    let input = loop {
        let input = timed_setup(w, seed, scale, &mut setup_s);
        checks.attempted += 1;
        let (result, elapsed) =
            timed(|| guarded(|| w.pinned(|| run(std::hint::black_box(&input)))));
        match (result, &first) {
            (Ok(output), None) => first = Some(output),
            (Ok(output), Some(first)) if output == *first => wall_s.push(elapsed),
            (Ok(_), Some(_)) => checks.fail_run(format!(
                "run {}: output differs from the first run's",
                checks.attempted
            )),
            (Err(why), _) => checks.fail_run(format!("run {}: {why}", checks.attempted)),
        }
        let done = !wall_s.is_empty() && clock.elapsed().as_secs_f64() >= seconds;
        if done || checks.failed > 0 {
            break input;
        }
    };

    let quality = first.as_ref().map(|output| quality(&input, output));
    if let Some(q) = &quality {
        checks.check_floors(w, scale, q);
    }
    TimedReport {
        wall_s,
        setup_s,
        quality,
        checks,
    }
}

/// Result of the traced measurement of one workload.
pub struct TracedReport {
    /// Median over the pairs of every per-layer metric.
    pub metrics: Metrics,
    /// Spans of the last re-play, for the trace file.
    pub spans: Vec<Span>,
    /// Pairs of (reference run, traced re-play) measured.
    pub pairs: usize,
    /// Run counts and failed checks.
    pub checks: Checks,
}

/// Pairs of (the program's own driver, traced re-play) until `seconds` have
/// passed (at least one pair).  `alloc` must be the binary's global
/// allocator for the allocation peaks to be real.
pub fn traced_measurement(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    alloc: &PeakAlloc,
) -> TracedReport {
    let input = w.generate(seed, scale);
    let mut checks = Checks::default();
    let mut per_pair: Vec<Metrics> = Vec::new();
    let mut spans = Vec::new();
    let mut first: Option<Output> = None;

    let clock = Instant::now();
    while per_pair.is_empty() || clock.elapsed().as_secs_f64() < seconds {
        checks.attempted += 1;
        match guarded(|| w.pinned(|| traced_pair(&input, alloc, per_pair.len() % 2 == 1))) {
            Ok(pair) => {
                if first.as_ref().is_some_and(|f| *f != pair.output) {
                    checks.fail_run(format!(
                        "pair {}: output differs from the first pair's",
                        checks.attempted
                    ));
                    break;
                }
                first.get_or_insert(pair.output);
                per_pair.push(pair.metrics);
                spans = pair.spans;
            }
            Err(why) => {
                checks.fail_run(format!("pair {}: {why}", checks.attempted));
                break;
            }
        }
    }

    let mut metrics = Metrics::new();
    if let Some(one) = per_pair.first() {
        for &name in one.keys() {
            let values: Vec<f64> = per_pair
                .iter()
                .filter_map(|m| m.get(name).copied())
                .collect();
            metrics.insert(name, median(&values));
        }
        let untraced_s = per_pair.iter().map(|m| m["pipeline.untraced_s"]);
        metrics.insert(
            "pipeline.wall_min_s",
            untraced_s.clone().fold(f64::INFINITY, f64::min),
        );
        metrics.insert("pipeline.wall_max_s", untraced_s.fold(0.0, f64::max));
    }
    if let Some(first) = &first {
        let q = quality(&input, first);
        metrics.insert("pipeline.misjoins", q.misjoins as f64);
        checks.check_floors(w, scale, &q);
    }
    TracedReport {
        metrics,
        spans,
        pairs: per_pair.len(),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::PER_LAYER;
    use crate::trace::{find, self_times_ns};
    use crate::workloads::WORKLOADS;

    /// The `--smoke` size: every workload through both measurements and every
    /// check, in seconds.
    #[test]
    fn smoke_size_exercises_every_workload_and_check() {
        // Not the global allocator of the test binary: peaks read zero here.
        let alloc = PeakAlloc::new();
        for w in WORKLOADS {
            let timed = timed_measurement(w, 7, 0.0, Scale::Smoke);
            assert!(
                timed.checks.correct(),
                "{}: {:?}",
                w.name,
                timed.checks.problems
            );
            assert_eq!(
                (timed.checks.attempted, timed.wall_s.len()),
                (2, 1),
                "{}",
                w.name
            );
            assert_eq!(timed.setup_s.len(), 2 * SETUPS_PER_RUN);
            let q = timed.quality.expect("the warm-up run succeeded");
            assert!(
                q.accuracy > 0.0 && q.contiguity > 0.0 && q.misjoins == 0,
                "{}: {q:?}",
                w.name
            );

            let traced = traced_measurement(w, 7, 0.0, Scale::Smoke, &alloc);
            assert!(
                traced.checks.correct(),
                "{}: {:?}",
                w.name,
                traced.checks.problems
            );
            assert_eq!(traced.pairs, 1);
            for name in traced.metrics.keys() {
                assert!(
                    PER_LAYER.iter().any(|m| m.name == *name),
                    "{name} is not declared in PER_LAYER"
                );
            }
            let root = &traced.spans[0];
            assert_eq!((root.name, root.parent), ("pipeline.run", None));
            assert!(traced.spans[1..].iter().all(|s| s.parent == Some(0)));
            let selfs = self_times_ns(&traced.spans);
            let children: u64 = traced.spans[1..]
                .iter()
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            assert_eq!(selfs[0] + children, root.end_ns - root.start_ns);
            assert!(find(&traced.spans, "strgraph.tr").is_some(), "{}", w.name);
            assert!(traced.metrics["strgraph.tr.s_nnz"] > 0.0, "{}", w.name);
        }
    }

    #[test]
    fn a_panicking_run_is_a_failed_run_not_a_crash() {
        let result: Result<(), String> = guarded(|| panic!("boom {}", 7));
        assert_eq!(result.unwrap_err(), "panicked: boom 7");
        let result: Result<(), String> = guarded(|| Err("plain".into()));
        assert_eq!(result.unwrap_err(), "plain");
    }
}
