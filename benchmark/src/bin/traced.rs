//! The traced binary: per-layer metrics, with the counting allocator
//! installed and a span around every call into a layer.  The allocator costs
//! wall time (+25% on `graph-tiling`), which is why no end-to-end time is
//! ever taken from this binary.

use dibella_benchmark::cli::{parse_run_args, print_metric, result_json};
use dibella_benchmark::manifest::PER_LAYER;
use dibella_benchmark::measure::traced_measurement;
use dibella_benchmark::trace::{chrome_trace_json, self_times_ns};
use dibella_testutil::PeakAlloc;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

fn measure(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    let w = args.workload;
    let report = traced_measurement(w, args.seed, args.seconds, args.scale, &ALLOC);
    for problem in &report.checks.problems {
        eprintln!("{}: FAILED: {problem}", w.name);
    }
    if report.pairs == 0 {
        println!(
            "{}",
            result_json(
                false,
                report.checks.attempted,
                report.checks.failed.max(1),
                &[]
            )
        );
        return Ok(ExitCode::FAILURE);
    }

    let selfs = self_times_ns(&report.spans);
    let total = report.spans[0].seconds();
    for (span, self_ns) in report.spans.iter().zip(&selfs) {
        println!(
            "span {:<17} {:<20} {:>10.6} s  self={:>10.6} s  share={:>5.1}%  peak={} bytes",
            w.name,
            span.name,
            span.seconds(),
            *self_ns as f64 * 1e-9,
            100.0 * span.seconds() / total,
            span.peak_bytes
        );
    }
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, chrome_trace_json(&report.spans, w.name, w.threads))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace {} written to {}", w.name, path.display());
    }

    let mut metrics = Vec::new();
    for m in PER_LAYER {
        // A workload that never enters a layer reports 0 for its metrics.
        let value = report.metrics.get(m.name).copied().unwrap_or(0.0);
        print_metric(w.name, m.name, value, m.unit, 0.0, "");
        metrics.push((m.name, value, m.unit));
    }
    println!(
        "runs {} seed={} threads={} pairs={} runs_attempted={} runs_failed={}",
        w.name, args.seed, w.threads, report.pairs, report.checks.attempted, report.checks.failed
    );
    let correct = report.checks.correct();
    println!(
        "{}",
        result_json(
            correct,
            report.checks.attempted,
            report.checks.failed,
            &metrics
        )
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    measure(&args).unwrap_or_else(|why| {
        eprintln!("traced: {why}");
        ExitCode::from(2)
    })
}
