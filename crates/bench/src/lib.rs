//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Every table of the paper's evaluation (Section VI–VII) has a binary under
//! `src/bin/` that regenerates it on simulated datasets, and its scaling
//! figures (Figures 4–9 and the Section VII-B comparison) are four tables of
//! one sweep, `scaling_figures`.  The original experiments ran on hundreds
//! of Cori/Summit nodes; this host is a single machine, so the harness
//! reports two complementary quantities:
//!
//! * **measured** values — wall-clock times of the real computation on this
//!   host and the exact communication volumes recorded by
//!   [`dibella_dist::CommStats`];
//! * **simulated distributed runtimes** — an analytic projection of the
//!   per-process runtime at `P` ranks obtained from the measured serial
//!   compute time, the measured per-rank communication volume and documented
//!   interconnect constants ([`INTERCONNECT_BANDWIDTH_BYTES`],
//!   [`INTERCONNECT_LATENCY_SECS`], chosen to be Cori-Aries-like).  This is
//!   the substitution (documented in DESIGN.md and EXPERIMENTS.md) for the
//!   multi-node hardware the paper used: the *shape* of the scaling curves
//!   and the 1D/2D crossovers come from the measured volumes, not from the
//!   constants.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use dibella_dist::{CommPhase, CommSnapshot};
use dibella_pipeline::StageTimings;
use dibella_seq::{DatasetSpec, SimulatedDataset};
use std::ffi::OsStr;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Assumed per-process injection bandwidth of the interconnect (bytes/s).
/// Cray Aries (Cori) delivers roughly 8 GB/s per node.
pub const INTERCONNECT_BANDWIDTH_BYTES: f64 = 8.0e9;

/// Assumed point-to-point message latency of the interconnect (seconds).
pub const INTERCONNECT_LATENCY_SECS: f64 = 2.0e-6;

/// Bytes per word in the communication accounting.
pub const BYTES_PER_WORD: f64 = 8.0;

/// The rank count beyond which [`project`] stops dividing ReadFastq: read
/// I/O is modelled as scaling to this many ranks and no further, after the
/// paper's observation that it stops scaling at high concurrency.
pub const READ_FASTQ_MAX_RANKS: f64 = 8.0;

/// Generate (deterministically) the benchmark dataset for a preset, at its
/// [`DatasetSpec::default_genome_length`], [scaled](scaled_length) and at
/// least 2 kbp.
pub fn benchmark_dataset(spec: DatasetSpec, seed: u64) -> SimulatedDataset {
    spec.generate_with_length(scaled_length(spec.default_genome_length(), 2_000), seed)
}

/// `base` bases times `DIBELLA_BENCH_SCALE` (1 when unset), and at least
/// `floor`; panics when the scale is not a positive number.
pub fn scaled_length(base: usize, floor: usize) -> usize {
    let scale = parse_scale(std::env::var_os("DIBELLA_BENCH_SCALE").as_deref())
        .unwrap_or_else(|e| panic!("{e}"));
    ((base as f64 * scale) as usize).max(floor)
}

/// A `DIBELLA_BENCH_SCALE` value: a finite number above zero, 1 when unset.
pub fn parse_scale(value: Option<&OsStr>) -> Result<f64, String> {
    let Some(value) = value else { return Ok(1.0) };
    value
        .to_str()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|scale| scale.is_finite() && *scale > 0.0)
        .ok_or_else(|| format!("DIBELLA_BENCH_SCALE={value:?} is not a positive number"))
}

/// Which size of workload `ingest_scale` runs, picked by `DIBELLA_PRESET`
/// (the other record-writing harnesses run one size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// The small smoke workload pull-request CI runs.
    Fast,
    /// The workload the committed records hold (the default).
    Full,
}

impl Preset {
    /// The preset `DIBELLA_PRESET` names; panics on a value that is neither
    /// `fast` nor `full`.
    pub fn from_env() -> Self {
        Self::parse(std::env::var_os("DIBELLA_PRESET").as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A `DIBELLA_PRESET` value: `fast` or `full`, [`Preset::Full`] when
    /// unset.
    pub fn parse(value: Option<&OsStr>) -> Result<Self, String> {
        match value.map(OsStr::to_str) {
            None | Some(Some("full")) => Ok(Preset::Full),
            Some(Some("fast")) => Ok(Preset::Fast),
            Some(_) => Err(format!(
                "DIBELLA_PRESET={:?} is neither fast nor full",
                value.unwrap_or_default()
            )),
        }
    }

    /// The name the records carry.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Fast => "fast",
            Preset::Full => "full",
        }
    }
}

/// A value a [`Record`] field can hold, as JSON text.
pub trait Json {
    /// The value as JSON, nested lines indented two spaces per level.
    fn json(&self) -> String;
}

/// Counts are written as integers, an `f64` as the shortest decimal that
/// reads back as itself.
macro_rules! json_numbers {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn json(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
json_numbers!(u32, u64, usize, f64);

/// A float written with a fixed number of decimals, or `null` when it is not
/// finite.
pub struct Fixed(pub f64, pub usize);

impl Json for Fixed {
    fn json(&self) -> String {
        let Fixed(value, decimals) = *self;
        if value.is_finite() { format!("{value:.decimals$}") } else { "null".into() }
    }
}

impl Json for &str {
    fn json(&self) -> String {
        let escape = |c: char| match c {
            '"' | '\\' => format!("\\{c}"),
            c if c.is_control() => format!("\\u{:04x}", c as u32),
            c => c.to_string(),
        };
        format!("\"{}\"", self.chars().map(escape).collect::<String>())
    }
}

impl<T: Json> Json for Option<T> {
    fn json(&self) -> String {
        self.as_ref().map_or_else(|| "null".into(), Json::json)
    }
}

impl Json for Vec<Record> {
    fn json(&self) -> String {
        block('[', self.iter().map(Json::json), ']')
    }
}

/// `items` one per line between `open` and `close`, indented one level.
fn block(open: char, items: impl Iterator<Item = String>, close: char) -> String {
    let items: Vec<String> =
        items.map(|item| format!("  {}", item.replace('\n', "\n  "))).collect();
    if items.is_empty() {
        format!("{open}{close}")
    } else {
        format!("{open}\n{}\n{close}", items.join(",\n"))
    }
}

/// A machine-readable record (the committed `BENCH_*.json` files): fields
/// in the order they were added, written as JSON with one field per line.
#[derive(Default)]
pub struct Record {
    fields: Vec<(String, String)>,
}

impl Record {
    /// The record with `key: value` appended.
    pub fn field(mut self, key: &str, value: impl Json) -> Self {
        self.fields.push((key.json(), value.json()));
        self
    }
}

impl Json for Record {
    fn json(&self) -> String {
        block('{', self.fields.iter().map(|(key, value)| format!("{key}: {value}")), '}')
    }
}

/// Write `record` as `file_name` into the workspace root, or into
/// `DIBELLA_RECORD_DIR` when that is set; panics when the file cannot be
/// written, so a stale committed record never passes for a fresh one.
pub fn write_record(file_name: &str, record: &Record) {
    let dir = std::env::var_os("DIBELLA_RECORD_DIR")
        .map_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."), PathBuf::from);
    if let Err(e) = write_record_in(&dir, file_name, record) {
        panic!("could not write {file_name} in {}: {e}", dir.display());
    }
    println!("\nwrote {}", dir.join(file_name).display());
}

/// Write `record` as `dir/file_name`.
pub fn write_record_in(dir: &Path, file_name: &str, record: &Record) -> io::Result<()> {
    std::fs::write(dir.join(file_name), record.json() + "\n")
}

/// Median wall-clock seconds of `f` (the upper of the two middle samples
/// for an even count): one warm-up call, then samples until the time budget
/// and at least `min_samples` calls are spent.  The median, not the mean, so
/// one call slowed by a busy host does not move the record.
#[expect(clippy::disallowed_methods, reason = "the kernel-throughput records time their kernels")]
pub fn median_secs<T>(budget: Duration, min_samples: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut samples = Vec::new();
    let started = Instant::now();
    while started.elapsed() < budget || samples.len() < min_samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The estimated time to move `words` words and `messages` messages from one
/// rank, with the documented interconnect constants.
pub fn comm_time_secs(words: f64, messages: f64) -> f64 {
    words * BYTES_PER_WORD / INTERCONNECT_BANDWIDTH_BYTES
        + messages * INTERCONNECT_LATENCY_SECS
}

/// Per-phase simulated distributed time at `p` ranks: measured aggregate
/// compute time divided across ranks, plus the per-rank communication time
/// derived from the measured aggregate volumes.
pub fn simulated_phase_time(
    serial_compute_secs: f64,
    comm: &CommSnapshot,
    phase: CommPhase,
    p: usize,
) -> f64 {
    let counters = comm.phase(phase);
    let per_rank_words = counters.words as f64 / p as f64;
    let per_rank_msgs = counters.messages as f64 / p as f64;
    serial_compute_secs / p as f64 + comm_time_secs(per_rank_words, per_rank_msgs)
}

/// Project a measured single-host run onto `p` virtual ranks: the simulated
/// distributed runtime breakdown, derived from the run's stage timings and
/// communication snapshot.  Alignment is perfectly parallel and communicates
/// nothing; parsing is modelled as non-scaling beyond
/// [`READ_FASTQ_MAX_RANKS`] ranks; the read exchange is communication
/// alone.
pub fn project(timings: &StageTimings, comm: &CommSnapshot, p: usize) -> StageTimings {
    let pf = p as f64;
    let io_ranks = pf.min(READ_FASTQ_MAX_RANKS);
    StageTimings {
        alignment: timings.alignment / pf,
        read_fastq: timings.read_fastq / io_ranks,
        count_kmer: simulated_phase_time(timings.count_kmer, comm, CommPhase::KmerCounting, p),
        create_spmat: timings.create_spmat / pf,
        spgemm: simulated_phase_time(timings.spgemm, comm, CommPhase::OverlapDetection, p),
        exchange_read: comm_time_secs(
            comm.phase(CommPhase::ReadExchange).words as f64 / pf,
            comm.phase(CommPhase::ReadExchange).messages as f64 / pf,
        ),
        tr_reduction: simulated_phase_time(
            timings.tr_reduction,
            comm,
            CommPhase::TransitiveReduction,
            p,
        ),
        consensus: simulated_phase_time(timings.consensus, comm, CommPhase::Consensus, p),
    }
}

/// Pretty-print a row of pipe-separated cells with a fixed width.
pub fn print_row(cells: &[impl AsRef<str>]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{:>14}", c.as_ref())).collect();
    println!("| {} |", line.join(" | "));
}

/// Pretty-print a header row followed by a separator.
pub fn print_header(cells: &[impl AsRef<str>]) {
    print_row(cells);
    let sep: Vec<String> = cells.iter().map(|_| "-".repeat(14)).collect();
    println!("|-{}-|", sep.join("-|-"));
}

/// Format a float with 3 significant decimals.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_dist::CommStats;

    #[test]
    fn comm_time_is_linear_in_words_and_messages() {
        let t1 = comm_time_secs(1e6, 0.0);
        let t2 = comm_time_secs(2e6, 0.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        assert!(comm_time_secs(0.0, 1000.0) > 0.0);
    }

    #[test]
    fn projected_breakdown_shrinks_with_more_ranks() {
        let timings = StageTimings {
            read_fastq: 1.0,
            count_kmer: 4.0,
            create_spmat: 1.0,
            spgemm: 8.0,
            exchange_read: 0.0,
            alignment: 20.0,
            tr_reduction: 2.0,
            consensus: 3.0,
        };
        let stats = CommStats::new();
        stats.record(CommPhase::OverlapDetection, 1_000_000, 100);
        let snap = stats.snapshot();
        let t4 = project(&timings, &snap, 4);
        let t64 = project(&timings, &snap, 64);
        assert!(t64.total() < t4.total());
        assert!(t64.alignment < t4.alignment);
        assert!(t4.total() < timings.total());
    }

    #[test]
    fn the_1d_projection_sums_the_terms_of_its_stages() {
        // A diBELLA 1D run: no transitive reduction, no consensus.
        let timings = StageTimings {
            read_fastq: 0.7,
            count_kmer: 3.1,
            create_spmat: 0.4,
            spgemm: 5.3,
            exchange_read: 0.2,
            alignment: 17.9,
            tr_reduction: 0.0,
            consensus: 0.0,
        };
        let stats = CommStats::new();
        stats.record(CommPhase::KmerCounting, 3_000_000, 4_000);
        stats.record(CommPhase::OverlapDetection, 7_000_000, 9_000);
        stats.record(CommPhase::ReadExchange, 2_000_000, 5_000);
        let comm = stats.snapshot();
        for p in [4, 256, 1024, 10_816] {
            let pf = p as f64;
            let phase = |phase| {
                let counters = comm.phase(phase);
                comm_time_secs(counters.words as f64 / pf, counters.messages as f64 / pf)
            };
            let by_term = timings.alignment / pf
                + timings.read_fastq / pf.min(READ_FASTQ_MAX_RANKS)
                + timings.count_kmer / pf
                + phase(CommPhase::KmerCounting)
                + timings.create_spmat / pf
                + timings.spgemm / pf
                + phase(CommPhase::OverlapDetection)
                + phase(CommPhase::ReadExchange);
            let projected = project(&timings, &comm, p).total_without_tr();
            assert!((projected - by_term).abs() < 1e-12, "P={p}: {projected} != {by_term}");
        }
    }

    #[test]
    fn dataset_presets_generate_at_bench_scale() {
        let ds = benchmark_dataset(DatasetSpec::Tiny, 1);
        assert!(ds.num_reads() > 10);
        assert_eq!(
            ds.genome.len(),
            scaled_length(DatasetSpec::Tiny.default_genome_length(), 2_000)
        );
    }

    #[test]
    fn records_render_as_indented_json_in_field_order() {
        let record = Record::default()
            .field("name", "a \"quoted\" \\ name\n")
            .field("count", 42usize)
            .field("secs", Fixed(0.123456, 4))
            .field("density", 0.2)
            .field("missing", None::<u64>)
            .field("ratio", Fixed(f64::INFINITY, 2))
            .field("nested", Record::default().field("k", 15u32))
            .field("rows", vec![Record::default().field("x", 1u64), Record::default()])
            .field("empty", Vec::<Record>::new());
        let expected = r#"{
  "name": "a \"quoted\" \\ name\u000a",
  "count": 42,
  "secs": 0.1235,
  "density": 0.2,
  "missing": null,
  "ratio": null,
  "nested": {
    "k": 15
  },
  "rows": [
    {
      "x": 1
    },
    {}
  ],
  "empty": []
}
"#;
        assert_eq!(record.json() + "\n", expected);
    }

    #[test]
    fn a_record_that_cannot_be_written_is_an_error() {
        let record = Record::default().field("reads", 1usize);
        let dir = std::env::temp_dir().join(format!("dibella_record_dir.{}", std::process::id()));
        assert!(write_record_in(&dir, "BENCH_test.json", &record).is_err());

        std::fs::create_dir_all(&dir).unwrap();
        let written = write_record_in(&dir, "BENCH_test.json", &record)
            .and_then(|()| std::fs::read_to_string(dir.join("BENCH_test.json")));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(written.unwrap(), "{\n  \"reads\": 1\n}\n");
    }

    #[test]
    fn presets_are_fast_or_full_and_nothing_else() {
        let parse = |v: Option<&str>| Preset::parse(v.map(OsStr::new));
        assert_eq!(parse(None), Ok(Preset::Full));
        assert_eq!(parse(Some("full")), Ok(Preset::Full));
        assert_eq!(parse(Some("fast")), Ok(Preset::Fast));
        for typo in ["bench", "Fast", "fast ", ""] {
            assert!(parse(Some(typo)).is_err(), "{typo:?} was accepted");
        }
        assert_eq!(Preset::Fast.name(), "fast");
        assert_eq!(Preset::Full.name(), "full");
    }

    #[test]
    fn scales_are_positive_numbers() {
        let parse = |v: Option<&str>| parse_scale(v.map(OsStr::new));
        assert_eq!(parse(None), Ok(1.0));
        assert_eq!(parse(Some("0.5")), Ok(0.5));
        assert_eq!(parse(Some("4")), Ok(4.0));
        for bad in ["", "x", "0", "-1", "inf", "NaN", "1,5"] {
            assert!(parse(Some(bad)).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn formatting_helpers_do_not_panic() {
        print_header(&["a", "b"]);
        print_row(&[fmt(0.0), fmt(123.456)]);
        print_row(&[fmt(0.001234), fmt(12.5)]);
    }
}
