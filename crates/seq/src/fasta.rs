//! FASTA/FASTQ input/output and the read-set container.
//!
//! The pipeline's input is a FASTA file of long reads (Section IV-B).  The
//! real system reads an equal-sized chunk per MPI rank with parallel I/O; in
//! this reproduction a [`ReadSet`] is parsed once and then block-partitioned
//! over the virtual ranks.  The record grammars live in [`crate::stream`];
//! the functions here pull its batches from text or a file and collect them.
//!
//! Sequencers actually deliver **FASTQ** (sequence plus per-base Phred
//! qualities); [`parse_fastq_filtered`] accepts the classic four-line record
//! format and drops reads below a mean-quality threshold — the quality-aware
//! filtering `PipelineConfig::min_mean_quality` wires into the pipeline entry
//! points.

use crate::dna::DnaSeq;
use crate::stream::{collect_batches, open, Batches, IngestBudget};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader};
use std::path::Path;

/// One FASTA record: a name and its sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadRecord {
    /// The record name (text after `>` up to the first whitespace).
    pub name: String,
    /// The sequence.
    pub seq: DnaSeq,
}

/// An ordered collection of reads; read indices are the row/column indices of
/// every reads-by-reads matrix in the pipeline.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadSet {
    records: Vec<ReadRecord>,
}

impl ReadSet {
    /// An empty read set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from records.
    pub fn from_records(records: Vec<ReadRecord>) -> Self {
        Self { records }
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether there are no reads.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record at index `i`.
    pub fn record(&self, i: usize) -> &ReadRecord {
        &self.records[i]
    }

    /// The sequence of read `i`.
    pub fn seq(&self, i: usize) -> &DnaSeq {
        &self.records[i].seq
    }

    /// The name of read `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.records[i].name
    }

    /// All records.
    pub fn records(&self) -> &[ReadRecord] {
        &self.records
    }

    /// Append a record, returning its index.
    pub fn push(&mut self, record: ReadRecord) -> usize {
        self.records.push(record);
        self.records.len() - 1
    }

    /// Iterate over `(index, &record)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &ReadRecord)> {
        self.records.iter().enumerate()
    }

    /// The length of every read, in index order — the layout-length input of
    /// `extract_contigs` and the scenario runner.
    pub fn lengths(&self) -> Vec<usize> {
        self.records.iter().map(|r| r.seq.len()).collect()
    }

    /// Total number of bases across all reads (`n·l` in the paper's notation).
    pub fn total_bases(&self) -> usize {
        self.records.iter().map(|r| r.seq.len()).sum()
    }

    /// Mean read length (`l`), zero if empty.
    pub fn mean_read_length(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.total_bases() as f64 / self.records.len() as f64
        }
    }
}

/// Parse FASTA text into a [`ReadSet`].
///
/// Records may span multiple lines; blank lines are ignored; Unix, Windows
/// (CRLF) and classic-Mac (lone CR) line endings are all accepted, as is a
/// final line with no terminator.  Characters other than `{A, C, G, T}`
/// (e.g. `N`) are rejected.
pub fn parse_fasta(text: &str) -> Result<ReadSet, String> {
    collect_batches(Batches::fasta(text.as_bytes(), IngestBudget::unbounded()))
}

/// Parse a FASTA file from disk, streaming it through a read buffer.
pub fn parse_fasta_file(path: impl AsRef<Path>) -> Result<ReadSet, String> {
    let file = BufReader::new(open(path.as_ref())?);
    collect_batches(Batches::fasta(file, IngestBudget::unbounded()))
}

/// Serialise a [`ReadSet`] to FASTA text with 80-column line wrapping.
pub fn write_fasta(reads: &ReadSet) -> String {
    let mut out = String::new();
    for (_, rec) in reads.iter() {
        out.push('>');
        out.push_str(&rec.name);
        out.push('\n');
        let ascii = rec.seq.to_ascii();
        let bytes = ascii.as_bytes();
        // `to_ascii` emits only ACGT, so every 80-byte chunk is a char
        // boundary — slice the source string instead of re-validating UTF-8.
        for start in (0..bytes.len()).step_by(80) {
            out.push_str(&ascii[start..(start + 80).min(ascii.len())]);
            out.push('\n');
        }
        if rec.seq.is_empty() {
            out.push('\n');
        }
    }
    out
}

/// Write a [`ReadSet`] to a FASTA file.
pub fn write_fasta_file(reads: &ReadSet, path: impl AsRef<Path>) -> Result<(), String> {
    std::fs::write(path.as_ref(), write_fasta(reads))
        .map_err(|e| format!("writing {}: {e}", path.as_ref().display()))
}

/// Statistics of one quality-filtered FASTQ parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FastqFilterStats {
    /// Records in the input.
    pub total_reads: usize,
    /// Records kept after the mean-quality filter.
    pub kept_reads: usize,
    /// Records dropped for a mean quality below the threshold.
    pub dropped_low_quality: usize,
}

/// Parse four-line FASTQ text (see [`Batches::fastq`] for the strict record
/// format; line endings as in [`parse_fasta`]) and drop reads whose mean Phred
/// quality is below `min_mean_quality` (a threshold of 0.0 keeps everything).
pub fn parse_fastq_filtered(
    text: &str,
    min_mean_quality: f64,
) -> Result<(ReadSet, FastqFilterStats), String> {
    filter_fastq(text.as_bytes(), min_mean_quality)
}

/// Parse a FASTQ file from disk, streaming it through a read buffer, and
/// apply the mean-quality filter.
pub fn parse_fastq_file(
    path: impl AsRef<Path>,
    min_mean_quality: f64,
) -> Result<(ReadSet, FastqFilterStats), String> {
    filter_fastq(BufReader::new(open(path.as_ref())?), min_mean_quality)
}

/// The reads of FASTQ input that pass the mean-quality filter, with its
/// counts.
fn filter_fastq(
    reader: impl BufRead,
    min_mean_quality: f64,
) -> Result<(ReadSet, FastqFilterStats), String> {
    let mut batches = Batches::fastq(reader, IngestBudget::unbounded(), min_mean_quality);
    let reads = collect_batches(&mut batches)?;
    let dropped_low_quality = batches.dropped_low_quality();
    let stats = FastqFilterStats {
        total_reads: reads.len() + dropped_low_quality,
        kept_reads: reads.len(),
        dropped_low_quality,
    };
    Ok((reads, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = ">read1 some description\nACGT\nACGT\n\n>read2\nTTTT\n>read3\nG\n";

    #[test]
    fn parse_multi_line_records() {
        let reads = parse_fasta(SAMPLE).unwrap();
        assert_eq!(reads.len(), 3);
        assert_eq!(reads.name(0), "read1");
        assert_eq!(reads.seq(0).to_ascii(), "ACGTACGT");
        assert_eq!(reads.seq(1).to_ascii(), "TTTT");
        assert_eq!(reads.seq(2).to_ascii(), "G");
    }

    #[test]
    fn header_description_is_dropped() {
        let reads = parse_fasta(">abc def ghi\nACGT\n").unwrap();
        assert_eq!(reads.name(0), "abc");
    }

    #[test]
    fn invalid_bases_are_reported_with_record_name() {
        let err = parse_fasta(">bad\nACGN\n").unwrap_err();
        assert!(err.contains("bad"), "error should name the record: {err}");
    }

    #[test]
    fn data_before_header_is_an_error() {
        assert!(parse_fasta("ACGT\n>x\nACGT\n").is_err());
    }

    #[test]
    fn empty_input_gives_empty_read_set() {
        let reads = parse_fasta("").unwrap();
        assert!(reads.is_empty());
        assert_eq!(reads.total_bases(), 0);
        assert_eq!(reads.mean_read_length(), 0.0);
    }

    #[test]
    fn write_then_parse_roundtrip() {
        let reads = parse_fasta(SAMPLE).unwrap();
        let text = write_fasta(&reads);
        let back = parse_fasta(&text).unwrap();
        assert_eq!(back, reads);
    }

    #[test]
    fn long_sequences_are_wrapped() {
        let long_seq = "A".repeat(205);
        let reads = parse_fasta(&format!(">long\n{long_seq}\n")).unwrap();
        let text = write_fasta(&reads);
        let max_line = text.lines().map(|l| l.len()).max().unwrap();
        assert!(max_line <= 80);
        let back = parse_fasta(&text).unwrap();
        assert_eq!(back.seq(0).len(), 205);
    }

    #[test]
    fn totals_and_means() {
        let reads = parse_fasta(SAMPLE).unwrap();
        assert_eq!(reads.total_bases(), 8 + 4 + 1);
        assert!((reads.mean_read_length() - 13.0 / 3.0).abs() < 1e-9);
        assert_eq!(reads.lengths(), vec![8, 4, 1]);
        assert_eq!(ReadSet::new().lengths(), Vec::<usize>::new());
    }

    const FASTQ: &str = "@read1 instrument=x\nACGT\n+\nII5I\n@read2\nTTTTT\n+read2\n!!!!!\n";

    #[test]
    fn fastq_records_parse() {
        let (reads, _) = parse_fastq_filtered(FASTQ, 0.0).unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads.name(0), "read1");
        assert_eq!(reads.seq(0).to_ascii(), "ACGT");
        assert_eq!(reads.seq(1).to_ascii(), "TTTTT");
    }

    #[test]
    fn fastq_mean_quality_filter_drops_low_quality_reads() {
        let (reads, stats) = parse_fastq_filtered(FASTQ, 10.0).unwrap();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads.name(0), "read1");
        assert_eq!(
            stats,
            FastqFilterStats { total_reads: 2, kept_reads: 1, dropped_low_quality: 1 }
        );
        // Threshold 0 keeps everything.
        let (all, stats0) = parse_fastq_filtered(FASTQ, 0.0).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(stats0.dropped_low_quality, 0);
    }

    #[test]
    fn fastq_missing_separator_is_rejected() {
        let err = parse_fastq_filtered("@x\nACGT\nIIII\n", 0.0).unwrap_err();
        assert!(err.contains("separator"), "{err}");
    }

    #[test]
    fn fastq_quality_length_mismatch_is_rejected() {
        let err = parse_fastq_filtered("@x\nACGT\n+\nII\n", 0.0).unwrap_err();
        assert!(err.contains("quality length"), "{err}");
    }

    #[test]
    fn fastq_truncated_records_are_rejected() {
        assert!(parse_fastq_filtered("@x\nACGT\n+\n", 0.0).unwrap_err().contains("missing quality"));
        assert!(parse_fastq_filtered("@x\nACGT\n", 0.0).unwrap_err().contains("missing '+'"));
        assert!(parse_fastq_filtered("@x\n", 0.0).unwrap_err().contains("missing sequence"));
    }

    #[test]
    fn fastq_bad_header_name_and_bases_are_rejected() {
        assert!(parse_fastq_filtered("ACGT\n+\nIIII\n", 0.0).unwrap_err().contains("expected '@'"));
        assert!(parse_fastq_filtered("@\nACGT\n+\nIIII\n", 0.0).unwrap_err().contains("empty name"));
        let err = parse_fastq_filtered("@x\nACGN\n+\nIIII\n", 0.0).unwrap_err();
        assert!(err.contains('x'), "error should name the record: {err}");
    }

    #[test]
    fn fastq_non_printable_quality_characters_are_rejected() {
        let err = parse_fastq_filtered("@x\nACGT\n+\nII\u{7f}I\n", 0.0).unwrap_err();
        assert!(err.contains("invalid quality"), "{err}");
    }

    #[test]
    fn fastq_accepts_crlf_line_endings() {
        // Windows-formatted file: every line terminated with \r\n.
        let crlf = FASTQ.replace('\n', "\r\n");
        let (reads, _) = parse_fastq_filtered(&crlf, 0.0).unwrap();
        let (unix_reads, _) = parse_fastq_filtered(FASTQ, 0.0).unwrap();
        assert_eq!(reads, unix_reads);
        // Same qualities too: the filter makes the same decisions.
        assert_eq!(
            parse_fastq_filtered(&crlf, 10.0).unwrap(),
            parse_fastq_filtered(FASTQ, 10.0).unwrap()
        );
    }

    #[test]
    fn fastq_accepts_lone_cr_line_endings() {
        // Classic-Mac endings (and mixed endings) parse identically too.
        let cr = FASTQ.replace('\n', "\r");
        let (reads, _) = parse_fastq_filtered(&cr, 0.0).unwrap();
        assert_eq!(reads, parse_fastq_filtered(FASTQ, 0.0).unwrap().0);
        let mixed = "@a\nACGT\r\n+\rIIII\n";
        let (reads, _) = parse_fastq_filtered(mixed, 0.0).unwrap();
        assert_eq!(reads.seq(0).to_ascii(), "ACGT");
    }

    #[test]
    fn fastq_accepts_a_missing_final_newline() {
        // The last quality line is unterminated; the record still parses.
        let (reads, _) = parse_fastq_filtered("@x\nACGT\n+\nIIII", 40.0).unwrap();
        assert_eq!(reads.len(), 1, "all four 'I' (Q40) were read");
        assert_eq!(reads.seq(0).to_ascii(), "ACGT");
        // Same for CRLF files truncated before the final \r\n.
        let (reads, _) = parse_fastq_filtered("@x\r\nACGT\r\n+\r\nIIII", 0.0).unwrap();
        assert_eq!(reads.len(), 1);
    }

    #[test]
    fn fastq_crlf_malformed_records_are_still_rejected() {
        // Line-ending tolerance must not weaken the format checks: the \r is
        // not part of the quality string, so the length mismatch is caught.
        let err = parse_fastq_filtered("@x\r\nACGT\r\n+\r\nII\r\n", 0.0).unwrap_err();
        assert!(err.contains("quality length"), "{err}");
        let err = parse_fastq_filtered("@x\r\nACGT\r\nIIII\r\n", 0.0).unwrap_err();
        assert!(err.contains("separator"), "{err}");
        // A truncated CRLF record is missing its quality line, not blessed
        // with an empty one.
        let err = parse_fastq_filtered("@x\r\nACGT\r\n+\r\n", 0.0).unwrap_err();
        assert!(err.contains("missing quality"), "{err}");
    }

    #[test]
    fn fasta_accepts_foreign_line_endings_and_no_final_newline() {
        let crlf = SAMPLE.replace('\n', "\r\n");
        assert_eq!(parse_fasta(&crlf).unwrap(), parse_fasta(SAMPLE).unwrap());
        let cr = SAMPLE.replace('\n', "\r");
        assert_eq!(parse_fasta(&cr).unwrap(), parse_fasta(SAMPLE).unwrap());
        let reads = parse_fasta(">x\nACGT").unwrap();
        assert_eq!(reads.seq(0).to_ascii(), "ACGT");
    }

    #[test]
    fn fastq_empty_input_and_empty_records() {
        let (reads, stats) = parse_fastq_filtered("", 0.0).unwrap();
        assert!(reads.is_empty());
        assert_eq!(stats, FastqFilterStats::default());
    }

    #[test]
    fn fastq_file_roundtrip_through_filter() {
        let dir = std::env::temp_dir().join("dibella_seq_fastq_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.fq");
        std::fs::write(&path, FASTQ).unwrap();
        let (reads, stats) = parse_fastq_file(&path, 10.0).unwrap();
        assert_eq!(reads.len(), 1);
        assert_eq!(stats.total_reads, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_roundtrip() {
        let reads = parse_fasta(SAMPLE).unwrap();
        let dir = std::env::temp_dir().join("dibella_seq_fasta_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.fa");
        write_fasta_file(&reads, &path).unwrap();
        let back = parse_fasta_file(&path).unwrap();
        assert_eq!(back, reads);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_parser_reports_invalid_utf8_like_the_chunked_reader() {
        let bytes = b">a\nACGT\n>b\xff\nAC\n";
        let dir = std::env::temp_dir().join("dibella_seq_utf8_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.fa");
        std::fs::write(&path, bytes).unwrap();
        let err = parse_fasta_file(&path).unwrap_err();
        assert!(err.starts_with("line 3: invalid UTF-8: "), "{err}");
        for chunk_bytes in [1, 7, bytes.len()] {
            let batches =
                crate::stream::fasta_batches_file(&path, chunk_bytes, IngestBudget::unbounded());
            assert_eq!(collect_batches(batches.unwrap()), Err(err.clone()), "{chunk_bytes}");
        }
        std::fs::remove_file(&path).ok();
    }
}
