//! Command-line arguments, the result lines both binaries print, and the
//! `--compare` of two sets of such lines.

use crate::manifest::END_TO_END;
use crate::stats::{compare, Verdict};
use crate::workloads::{find, Scale, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Arguments of one measurement of one workload.
#[derive(Debug)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Seed of the input generator.
    pub seed: u64,
    /// How long to keep measuring.
    pub seconds: f64,
    /// Input size.
    pub scale: Scale,
    /// Where the traced binary writes its trace file, if anywhere.
    pub out_dir: Option<PathBuf>,
}

/// Parse `--workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
/// [--out-dir DIR]`.  `--trace` is accepted and ignored: run.sh has already
/// used it to choose the binary.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = f64::from(crate::manifest::RUN_SECONDS);
    let mut scale = Scale::Full;
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(find(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 0..=600"));
                }
            }
            "--trace" => {
                value()?;
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            "--smoke" => scale = Scale::Smoke,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload NAME is required")?,
        seed,
        seconds,
        scale,
        out_dir,
    })
}

/// One measured metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricLine {
    /// The reported value (a median where there were several samples).
    pub value: f64,
    /// Unit of the value.
    pub unit: String,
    /// Quartile spread of the samples behind the value, as a share of their
    /// median; 0 for a single sample.
    pub spread: f64,
}

/// Print one metric as a `metric` line: workload, name, value, unit, then
/// `key=value` details.  [`parse_metric_lines`] reads these back.
pub fn print_metric(
    workload: &str,
    name: &str,
    value: f64,
    unit: &str,
    spread: f64,
    details: &str,
) {
    println!(
        "metric {workload:<17} {name:<34} {value:>16.6} {unit:<9} spread={spread:.4} {details}"
    );
}

/// The last line of standard output: one JSON object with the run counts and
/// every metric at full precision.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a metric that is either is a bug here.
        assert!(value.is_finite(), "metric {name} is {value}");
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("String write");
    }
    out.push_str("}}");
    out
}

/// Read back the `metric` lines of one set of runs: (workload, metric) → line.
pub fn parse_metric_lines(text: &str) -> Result<BTreeMap<(String, String), MetricLine>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with("metric ")) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("malformed metric line: {line}");
        let [_, workload, name, value, unit, spread, ..] = fields[..] else {
            return Err(bad());
        };
        let spread = spread.strip_prefix("spread=").ok_or_else(bad)?;
        let parsed = MetricLine {
            value: value.parse().map_err(|_| bad())?,
            unit: unit.to_string(),
            spread: spread.parse().map_err(|_| bad())?,
        };
        out.insert((workload.to_string(), name.to_string()), parsed);
    }
    Ok(out)
}

/// True for metrics that are counts made by the program or its checker and
/// must repeat exactly between two runs of one commit.
fn must_repeat_exactly(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "words") || matches!(name, "accuracy" | "contiguity")
}

/// Compare two sets of `metric` lines of the same commit (`--aa`).  Returns
/// the report and whether any pair is outside its bound or any exact count
/// differs.
pub fn compare_sets(first: &str, second: &str) -> Result<(String, bool), String> {
    let a = parse_metric_lines(first)?;
    let b = parse_metric_lines(second)?;
    let mut report = String::new();
    let mut bad = false;
    let mut exact_checked = 0usize;
    let mut exact_differ = Vec::new();
    for ((workload, name), one) in &a {
        let two = b
            .get(&(workload.clone(), name.clone()))
            .ok_or_else(|| format!("{workload}/{name} is missing from the second set"))?;
        if must_repeat_exactly(name, &one.unit) {
            exact_checked += 1;
            if one.value != two.value {
                exact_differ.push(format!("{workload}/{name}: {} vs {}", one.value, two.value));
            }
        }
        let Some(metric) = END_TO_END.iter().find(|m| m.name == name) else {
            continue;
        };
        let verdict = compare(
            metric.better,
            metric.bound,
            one.value,
            two.value,
            one.spread.max(two.spread),
        );
        bad |= verdict == Verdict::Outside;
        writeln!(
            report,
            "aa {workload:<17} {name:<15} {:>16.6} -> {:>16.6} {:<9} change={:+.4} spread={:.4} bound={:.2}  {}",
            one.value,
            two.value,
            one.unit,
            (two.value - one.value) / one.value,
            one.spread.max(two.spread),
            metric.bound,
            verdict.as_str(),
        )
        .expect("String write");
    }
    if a.len() != b.len() {
        return Err("the two sets hold different metrics".into());
    }
    writeln!(
        report,
        "aa exact counts: {} compared, {} differ",
        exact_checked,
        exact_differ.len()
    )
    .expect("String write");
    for line in &exact_differ {
        writeln!(report, "aa   differs: {line}").expect("String write");
    }
    bad |= !exact_differ.is_empty();
    Ok((report, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_run_args(&args(&[
            "--workload",
            "hifi-deep",
            "--seed",
            "42",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.scale),
            ("hifi-deep", 42, 3.0, Scale::Full)
        );
        assert!(
            parse_run_args(&args(&["--seed", "1"])).is_err(),
            "a workload is required"
        );
        assert!(parse_run_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&args(&["--workload", "clr-long", "--seconds", "-1"])).is_err());
        assert!(parse_run_args(&args(&["--workload", "clr-long", "--seed"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            6,
            0,
            &[
                ("wall_s", 1.203_456_789, "s"),
                ("accuracy", 1.0, "fraction"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 6, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.203456789, \"unit\": \"s\"}, \"accuracy\": {\"value\": 1, \"unit\": \"fraction\"}}}"
        );
    }

    const SET: &str = "\
building...
metric clr-long          wall_s                                     2.000000 s         spread=0.0200 min=1.9 max=2.1 n=5
metric clr-long          accuracy                                   0.948100 fraction  spread=0.0000
metric clr-long          align.xdrop.cells                   123456789.000000 count     spread=0.0000
{\"correct\": true}
";

    #[test]
    fn metric_lines_round_trip() {
        let parsed = parse_metric_lines(SET).unwrap();
        assert_eq!(parsed.len(), 3);
        let wall = &parsed[&("clr-long".to_string(), "wall_s".to_string())];
        assert_eq!(
            (wall.value, wall.unit.as_str(), wall.spread),
            (2.0, "s", 0.02)
        );
    }

    #[test]
    fn aa_flags_regressions_and_changed_counts() {
        let (report, bad) = compare_sets(SET, SET).unwrap();
        assert!(!bad, "{report}");
        assert!(report.contains("within bound"));
        assert!(report.contains("exact counts: 2 compared, 0 differ"));

        let slower = SET.replace("2.000000 s", "3.000000 s");
        let (report, bad) = compare_sets(SET, &slower).unwrap();
        assert!(bad && report.contains("outside bound"), "{report}");

        let noisy = slower.replace("spread=0.0200", "spread=0.3000");
        let (report, bad) = compare_sets(SET, &noisy).unwrap();
        assert!(!bad && report.contains("unresolved"), "{report}");

        let recount = SET.replace("123456789", "123456788");
        let (report, bad) = compare_sets(SET, &recount).unwrap();
        assert!(
            bad && report.contains("differs: clr-long/align.xdrop.cells"),
            "{report}"
        );
    }
}
