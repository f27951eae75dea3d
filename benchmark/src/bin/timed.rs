//! The timed binary: end-to-end metrics, on the system allocator, without
//! spans.  Also hosts the two bookkeeping modes that need no measurement:
//! `--write-manifest` and `--compare`.

use dibella_benchmark::cli::{compare_sets, parse_run_args, print_metric, result_json};
use dibella_benchmark::manifest::{benchmark_json, END_TO_END};
use dibella_benchmark::measure::timed_measurement;
use dibella_benchmark::stats::{median, quartile_spread};
use dibella_benchmark::workloads::WORKLOADS;
use std::process::ExitCode;

fn compare_files(first: &str, second: &str) -> Result<ExitCode, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (report, bad) = compare_sets(&read(first)?, &read(second)?)?;
    print!("{report}");
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn measure(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    let w = args.workload;
    let report = timed_measurement(w, args.seed, args.seconds, args.scale);
    for problem in &report.checks.problems {
        eprintln!("{}: FAILED: {problem}", w.name);
    }
    let (Some(quality), false) = (report.quality, report.wall_s.is_empty()) else {
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
    };

    let extremes = |v: &[f64]| {
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(0.0, f64::max);
        format!("min={min:.6} max={max:.6} n={}", v.len())
    };
    let mut metrics = Vec::new();
    for m in END_TO_END {
        let (value, spread, details) = match m.name {
            "wall_s" => (
                median(&report.wall_s),
                quartile_spread(&report.wall_s),
                extremes(&report.wall_s),
            ),
            "setup_s" => (
                median(&report.setup_s),
                quartile_spread(&report.setup_s),
                extremes(&report.setup_s),
            ),
            "accuracy" => (quality.accuracy, 0.0, String::new()),
            "contiguity" => (quality.contiguity, 0.0, String::new()),
            other => {
                return Err(format!(
                    "{other} is declared in END_TO_END but not measured"
                ))
            }
        };
        print_metric(w.name, m.name, value, m.unit, spread, &details);
        metrics.push((m.name, value, m.unit));
    }
    println!(
        "runs {} seed={} threads={} misjoins={} runs_attempted={} runs_failed={}",
        w.name,
        args.seed,
        w.threads,
        quality.misjoins,
        report.checks.attempted,
        report.checks.failed
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
    let outcome = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--write-manifest"] => {
            print!("{}", benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        ["--list"] => {
            WORKLOADS.iter().for_each(|w| println!("{}", w.name));
            Ok(ExitCode::SUCCESS)
        }
        ["--compare", first, second] => compare_files(first, second),
        _ => measure(&args),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("timed: {why}");
        ExitCode::from(2)
    })
}
