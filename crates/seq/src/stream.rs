//! Bounded-memory FASTA/FASTQ ingest — the one reader per format.
//!
//! At the scales the paper targets no rank can hold its input, so the real
//! system streams fixed-size I/O chunks per rank and processes reads in
//! bounded batches (the BSP *supersteps* of the k-mer counter in
//! [`crate::kmer_counter`]).  [`Batches`] is that reader, and the only
//! parser each format has: it pulls FASTA or four-line FASTQ records, with
//! all input validation, from any [`BufRead`] — text or a file behind a
//! `chunk_bytes` buffer ([`fasta_batches`], [`fastq_batches`],
//! [`fasta_batches_file`]), or whole text, its own buffer
//! ([`crate::fasta::parse_fasta`]) — and seals [`ReadBatch`]es at the
//! [`IngestBudget`] bounds, so peak memory is one buffer plus one batch.
//! The budget belongs to streamed input: a pipeline that already holds its
//! reads counts them in one superstep
//! ([`crate::kmer_counter::count_kmers_distributed`]).
//!
//! Records and errors do not depend on the chunk size, and batch boundaries
//! depend only on the budget.

use crate::dna::DnaSeq;
use crate::fasta::{ReadRecord, ReadSet};
use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// The memory budget of an ingest.
///
/// All three bounds default to "unbounded" (`usize::MAX`); setting any of
/// them makes the corresponding resource hard-capped:
///
/// * a [`ReadBatch`] is sealed before it would exceed `max_batch_reads`
///   reads or `max_batch_bytes` heap bytes (a batch never splits a read, so
///   one read larger than `max_batch_bytes` still forms a singleton batch,
///   and a bound of zero means one read per batch);
/// * the k-mer counter fails with an error if its estimated resident bytes
///   (current batch + in-flight exchange buffers + per-owner filter/table
///   state) ever exceed `max_resident_bytes`, rather than silently growing
///   past the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestBudget {
    /// Maximum reads per batch (one superstep ingests one batch per rank).
    pub max_batch_reads: usize,
    /// Maximum heap bytes per batch (names + 1-byte-per-base sequences).
    pub max_batch_bytes: usize,
    /// Hard cap on the k-mer counter's estimated resident bytes.
    pub max_resident_bytes: usize,
}

impl Default for IngestBudget {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl IngestBudget {
    /// No bounds: one batch holding the whole input, no resident cap.
    pub fn unbounded() -> Self {
        Self {
            max_batch_reads: usize::MAX,
            max_batch_bytes: usize::MAX,
            max_resident_bytes: usize::MAX,
        }
    }

    /// Bound batches by read count only.
    pub fn with_batch_reads(max_batch_reads: usize) -> Self {
        Self { max_batch_reads, ..Self::unbounded() }
    }

    /// Bound batches by heap bytes only.
    pub fn with_batch_bytes(max_batch_bytes: usize) -> Self {
        Self { max_batch_bytes, ..Self::unbounded() }
    }

    /// Sealing rule, first half: an open batch of `reads` reads and `bytes`
    /// bytes must be sealed *before* taking a record of `next` bytes, so
    /// batches stay within `max_batch_bytes` — except a single read larger
    /// than the whole budget, which must go somewhere.
    fn seals_before(&self, reads: usize, bytes: usize, next: usize) -> bool {
        reads > 0 && bytes.saturating_add(next) > self.max_batch_bytes
    }

    /// Sealing rule, second half: a batch that has just taken a record is
    /// full.  Checked only after a record went in, so every batch makes
    /// progress whatever the bounds.
    fn is_full(&self, reads: usize, bytes: usize) -> bool {
        reads >= self.max_batch_reads || bytes >= self.max_batch_bytes
    }
}

/// One bounded batch of reads — the unit of a counting superstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadBatch {
    /// The records of this batch, in input order.
    pub records: Vec<ReadRecord>,
}

impl ReadBatch {
    /// Number of reads in the batch.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the batch holds no reads.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Estimated heap bytes of the batch: name bytes plus one byte per base
    /// (the [`DnaSeq`] in-memory layout) — the quantity
    /// [`IngestBudget::max_batch_bytes`] bounds.
    pub fn bytes(&self) -> usize {
        self.records.iter().map(record_bytes).sum()
    }
}

/// Estimated heap bytes of one record (see [`ReadBatch::bytes`]).
pub fn record_bytes(rec: &ReadRecord) -> usize {
    rec.name.len() + rec.seq.len()
}

/// Collect a batch stream into one resident [`ReadSet`], stopping at the
/// stream's first error.
pub fn collect_batches(
    batches: impl Iterator<Item = Result<ReadBatch, String>>,
) -> Result<ReadSet, String> {
    let mut records = Vec::new();
    for batch in batches {
        records.extend(batch?.records);
    }
    Ok(ReadSet::from_records(records))
}

/// The logical lines of a [`BufRead`], whatever its buffer size: a line, or a
/// `\r\n` pair, split across two refills is joined.  Unix (`\n`), Windows
/// (`\r\n`) and classic-Mac (`\r`) endings are accepted in any mixture, with
/// or without a final terminator — sequencing data regularly crosses Windows
/// tooling on its way to a pipeline, and a byte-identical record set must not
/// be rejected for its line endings.
struct Lines<R> {
    reader: R,
    /// The current line, without its terminator.
    line: String,
    /// 1-based number of the current line, blank lines counted.
    lineno: u64,
    /// The last line ended on `\r`, so a `\n` opening the next one is skipped.
    after_cr: bool,
    /// `next` returns the current line again (a parser read one line too far).
    kept: bool,
}

impl<R: BufRead> Lines<R> {
    /// The next non-blank line with trailing whitespace trimmed, and its
    /// number; `None` at the end of input.
    fn next(&mut self) -> Result<Option<(u64, &str)>, String> {
        if std::mem::take(&mut self.kept) {
            return Ok(Some((self.lineno, self.line.trim_end())));
        }
        loop {
            let mut bytes = std::mem::take(&mut self.line).into_bytes();
            bytes.clear();
            if !self.read_line(&mut bytes)? {
                return Ok(None);
            }
            self.lineno += 1;
            self.line = String::from_utf8(bytes)
                .map_err(|e| format!("line {}: invalid UTF-8: {}", self.lineno, e.utf8_error()))?;
            if !self.line.trim_end().is_empty() {
                return Ok(Some((self.lineno, self.line.trim_end())));
            }
        }
    }

    /// Append the next line's bytes, without its terminator, to `line`;
    /// `false` at the end of input.
    fn read_line(&mut self, line: &mut Vec<u8>) -> Result<bool, String> {
        loop {
            let buf = self.reader.fill_buf().map_err(|e| format!("reading FASTA chunk: {e}"))?;
            let Some(&first) = buf.first() else { return Ok(!line.is_empty()) };
            let skip = usize::from(std::mem::take(&mut self.after_cr) && first == b'\n');
            let rest = &buf[skip..];
            if let Some(end) = rest.iter().position(|&b| b == b'\n' || b == b'\r') {
                line.extend_from_slice(&rest[..end]);
                self.after_cr = rest[end] == b'\r';
                self.reader.consume(skip + end + 1);
                return Ok(true);
            }
            line.extend_from_slice(rest);
            let len = buf.len();
            self.reader.consume(len);
        }
    }
}

/// The name after a header line's `marker`, up to whitespace; `None` if no header.
fn header_name(line: &str, marker: char) -> Option<&str> {
    line.strip_prefix(marker).map(|rest| rest.split_whitespace().next().unwrap_or(""))
}

/// The Phred+33 offset of FASTQ quality characters.
const PHRED_OFFSET: u8 = 33;

/// Validate the three variable lines of one four-line FASTQ record (name,
/// sequence, quality) into a [`ReadRecord`] plus its mean Phred quality.
fn validate_fastq_record(
    name: String,
    seq: String,
    qual: String,
) -> Result<(ReadRecord, f64), String> {
    let seq = DnaSeq::from_ascii(seq.as_bytes()).map_err(|e| format!("record {name}: {e}"))?;
    if qual.len() != seq.len() {
        let (q, s) = (qual.len(), seq.len());
        return Err(format!(
            "record {name}: quality length {q} does not match sequence length {s}"
        ));
    }
    if let Some(i) = qual.bytes().position(|q| !(PHRED_OFFSET..=b'~').contains(&q)) {
        let q = qual.as_bytes()[i] as char;
        return Err(format!("record {name}: invalid quality character {q:?} at position {i}"));
    }
    let sum: u64 = qual.bytes().map(|q| u64::from(q - PHRED_OFFSET)).sum();
    let mean_q = if seq.is_empty() { 0.0 } else { sum as f64 / seq.len() as f64 };
    Ok((ReadRecord { name, seq }, mean_q))
}

/// Iterator of [`ReadBatch`]es pulled from FASTA or FASTQ text in a
/// [`BufRead`], sealed at the [`IngestBudget`] bounds.
///
/// Yields the batches sealed before the first parse or I/O error, then that
/// error once, and then fuses.
pub struct Batches<R> {
    lines: Lines<R>,
    budget: IngestBudget,
    /// `None` reads FASTA; `Some(floor)` reads FASTQ, dropping reads below it.
    min_mean_quality: Option<f64>,
    /// FASTQ: reads dropped by the mean-quality filter so far.
    dropped_low_quality: usize,
    /// The record read past the end of the last batch; it opens the next.
    held: Option<ReadRecord>,
    failed: bool,
}

impl<R: BufRead> Iterator for Batches<R> {
    type Item = Result<ReadBatch, String>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = if self.failed { None } else { self.next_batch().transpose() };
        self.failed |= matches!(item, Some(Err(_)));
        item
    }
}

impl<R: BufRead> Batches<R> {
    /// FASTA batches: a `>name` header, then the sequence over any number
    /// of lines.  Characters other than `{A, C, G, T}` (e.g. `N`) are
    /// rejected — the simulators in this repo never emit them, and the
    /// paper's pipeline operates on the 2-bit alphabet.
    pub fn fasta(reader: R, budget: IngestBudget) -> Self {
        Self {
            lines: Lines { reader, line: String::new(), lineno: 0, after_cr: false, kept: false },
            budget,
            min_mean_quality: None,
            dropped_low_quality: 0,
            held: None,
            failed: false,
        }
    }

    /// FASTQ batches of the classic four-line record, enforced strictly: a
    /// `@name` header, one sequence line, a `+` separator (bare or repeating
    /// the name), and one quality line of exactly the sequence's length in
    /// printable Phred+33 characters.  Multi-line sequences are rejected —
    /// every modern long-read FASTQ writer emits four-line records.  Reads
    /// whose mean Phred quality falls below `min_mean_quality` are dropped
    /// and counted (0.0 keeps everything).
    pub fn fastq(reader: R, budget: IngestBudget, min_mean_quality: f64) -> Self {
        Self { min_mean_quality: Some(min_mean_quality), ..Self::fasta(reader, budget) }
    }

    /// Reads the FASTQ mean-quality filter dropped so far (FASTA never drops).
    pub fn dropped_low_quality(&self) -> usize {
        self.dropped_low_quality
    }

    /// The next batch, filled until the budget seals it or the input ends.
    fn next_batch(&mut self) -> Result<Option<ReadBatch>, String> {
        let (mut records, mut bytes) = (Vec::new(), 0usize);
        while let Some(record) = self.next_record()? {
            let size = record_bytes(&record);
            if self.budget.seals_before(records.len(), bytes, size) {
                self.held = Some(record);
                break;
            }
            records.push(record);
            bytes += size;
            if self.budget.is_full(records.len(), bytes) {
                break;
            }
        }
        Ok((!records.is_empty()).then_some(ReadBatch { records }))
    }

    /// The held record, else the next one that passes the format's filter.
    fn next_record(&mut self) -> Result<Option<ReadRecord>, String> {
        if let Some(record) = self.held.take() {
            return Ok(Some(record));
        }
        let Some(floor) = self.min_mean_quality else { return self.next_fasta() };
        while let Some((record, mean_q)) = self.next_fastq()? {
            if mean_q >= floor {
                return Ok(Some(record));
            }
            self.dropped_low_quality += 1;
        }
        Ok(None)
    }

    /// One FASTA record.  The header line that ends it is kept for the next
    /// call, so its name is checked after this record's bases.
    fn next_fasta(&mut self) -> Result<Option<ReadRecord>, String> {
        let Some((_, line)) = self.lines.next()? else { return Ok(None) };
        let name = header_name(line, '>').ok_or("sequence data before the first '>' header")?;
        if name.is_empty() {
            return Err("record with empty name".to_string());
        }
        let (name, mut seq) = (name.to_string(), String::new());
        while let Some((_, line)) = self.lines.next()? {
            if line.starts_with('>') {
                self.lines.kept = true;
                break;
            }
            seq.push_str(line);
        }
        let seq = DnaSeq::from_ascii(seq.as_bytes()).map_err(|e| format!("record {name}: {e}"))?;
        Ok(Some(ReadRecord { name, seq }))
    }

    /// One four-line FASTQ record, with its mean Phred quality.
    fn next_fastq(&mut self) -> Result<Option<(ReadRecord, f64)>, String> {
        let Some((lineno, line)) = self.lines.next()? else { return Ok(None) };
        let name = match header_name(line, '@') {
            None => return Err(format!("line {lineno}: expected '@' header, found {line:?}")),
            Some("") => return Err(format!("line {lineno}: record with empty name")),
            Some(name) => name.to_string(),
        };
        let seq = self.field(&name, "sequence line")?.1.to_string();
        let (lineno, line) = self.field(&name, "'+' separator")?;
        let other = header_name(line, '+').ok_or_else(|| {
            format!("line {lineno}: record {name}: expected '+' separator, found {line:?}")
        })?;
        if !other.is_empty() && other != name {
            return Err(format!("line {lineno}: record {name}: '+' separator names {other:?}"));
        }
        let qual = self.field(&name, "quality line")?.1.to_string();
        validate_fastq_record(name, seq, qual).map(Some)
    }

    /// The next line of FASTQ record `name`, which must hold its `field`.
    fn field(&mut self, name: &str, field: &str) -> Result<(u64, &str), String> {
        self.lines.next()?.ok_or_else(|| format!("record {name}: missing {field}"))
    }
}

/// Open an input file, naming it in the error.
pub(crate) fn open(path: &Path) -> Result<File, String> {
    File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))
}

/// `reader` behind a buffer of `chunk_bytes`, the most one read fetches.
fn chunked<R: Read>(reader: R, chunk_bytes: usize) -> BufReader<R> {
    assert!(chunk_bytes > 0, "chunk size must be positive");
    BufReader::with_capacity(chunk_bytes, reader)
}

/// Stream batches from in-memory FASTA text through a `chunk_bytes` buffer,
/// the same path as the file reader (so tests can pin chunk-boundary
/// behaviour without touching disk).
pub fn fasta_batches(
    text: &str,
    chunk_bytes: usize,
    budget: IngestBudget,
) -> Batches<BufReader<&[u8]>> {
    Batches::fasta(chunked(text.as_bytes(), chunk_bytes), budget)
}

/// Stream batches from a FASTA file, reading `chunk_bytes` at a time: peak
/// memory is one chunk plus one in-flight batch, independent of file size.
pub fn fasta_batches_file(
    path: impl AsRef<Path>,
    chunk_bytes: usize,
    budget: IngestBudget,
) -> Result<Batches<BufReader<File>>, String> {
    Ok(Batches::fasta(chunked(open(path.as_ref())?, chunk_bytes), budget))
}

/// Stream quality-filtered batches from in-memory FASTQ text through a
/// `chunk_bytes` buffer.
pub fn fastq_batches(
    text: &str,
    chunk_bytes: usize,
    budget: IngestBudget,
    min_mean_quality: f64,
) -> Batches<BufReader<&[u8]>> {
    Batches::fastq(chunked(text.as_bytes(), chunk_bytes), budget, min_mean_quality)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasta::{parse_fasta, write_fasta};
    use crate::simulate::DatasetSpec;

    /// Collect every record from a batch stream, checking that no batch is
    /// empty along the way.
    fn collect(iter: impl Iterator<Item = Result<ReadBatch, String>>) -> Result<ReadSet, String> {
        let mut rs = ReadSet::new();
        for batch in iter {
            let batch = batch?;
            assert!(!batch.is_empty(), "batchers must not emit empty batches");
            for rec in batch.records {
                rs.push(rec);
            }
        }
        Ok(rs)
    }

    /// A read set spelled out record by record — the oracle the parsers are
    /// checked against (they share one implementation, so comparing them
    /// with each other proves nothing).
    fn literal(records: &[(&str, &str)]) -> ReadSet {
        let records = records
            .iter()
            .map(|(name, seq)| ReadRecord { name: name.to_string(), seq: seq.parse().unwrap() });
        ReadSet::from_records(records.collect())
    }

    const SAMPLE: &str = ">read1 some description\nACGT\nACGT\n\n>read2\nTTTT\n>read3\nG\n";
    const FASTQ: &str = "@read1 instrument=x\nACGT\n+\nII5I\n@read2\nTTTTT\n+read2\n!!!!!\n";

    fn sample_reads() -> ReadSet {
        literal(&[("read1", "ACGTACGT"), ("read2", "TTTT"), ("read3", "G")])
    }

    /// FASTQ text of a read set, every base at Phred 40.
    fn write_fastq(reads: &ReadSet) -> String {
        let mut out = String::new();
        for (_, rec) in reads.iter() {
            let seq = rec.seq.to_ascii();
            out.push_str(&format!("@{}\n{seq}\n+\n{}\n", rec.name, "I".repeat(seq.len())));
        }
        out
    }

    #[test]
    fn chunked_fasta_yields_the_literal_records_at_every_chunk_size() {
        for (text, expected) in [
            (SAMPLE, sample_reads()),
            // A record with no bases.
            (">x\n>y\nACGT\n", literal(&[("x", ""), ("y", "ACGT")])),
            // Duplicate names are kept, in order.
            (
                ">d\nAC\n>d\nGT\n>e\nA\n>d\nT\n",
                literal(&[("d", "AC"), ("d", "GT"), ("e", "A"), ("d", "T")]),
            ),
            // Soft-masked (lowercase) bases parse equal to uppercase.
            (">m\nacgT\nTtga\n", literal(&[("m", "ACGTTTGA")])),
        ] {
            for chunk_bytes in 1..=text.len() + 1 {
                let got =
                    collect(fasta_batches(text, chunk_bytes, IngestBudget::unbounded())).unwrap();
                assert_eq!(got, expected, "input {text:?} chunk_bytes={chunk_bytes}");
            }
        }
    }

    #[test]
    fn simulated_reads_round_trip_at_every_chunk_size_and_line_ending() {
        // The oracle is the simulator's own read set: text written from it
        // must parse back to it whatever the chunking and line endings.
        let reads = DatasetSpec::Tiny.generate_with_length(3_000, 4).reads;
        for (format, text) in [("fasta", write_fasta(&reads)), ("fastq", write_fastq(&reads))] {
            let variants = [
                ("LF", text.clone()),
                ("CRLF", text.replace('\n', "\r\n")),
                ("CR", text.replace('\n', "\r")),
                ("no final newline", text.trim_end().to_string()),
            ];
            for (ending, text) in &variants {
                for chunk_bytes in [1, 2, 3, 7, 64, text.len()] {
                    let budget = IngestBudget::with_batch_reads(5);
                    let got = match format {
                        "fasta" => collect(fasta_batches(text, chunk_bytes, budget)),
                        _ => collect(fastq_batches(text, chunk_bytes, budget, 0.0)),
                    };
                    assert_eq!(got.unwrap(), reads, "{format} {ending} chunk_bytes={chunk_bytes}");
                }
            }
        }
    }

    #[test]
    fn chunked_fasta_record_straddles_chunk_boundary() {
        // chunk_bytes=3 splits the header ">read1 som|e descript|ion" and the
        // sequence lines across many chunks; the records must still assemble.
        let got = collect(fasta_batches(SAMPLE, 3, IngestBudget::with_batch_reads(1))).unwrap();
        assert_eq!(got, parse_fasta(SAMPLE).unwrap());
    }

    #[test]
    fn chunked_fasta_crlf_and_no_final_newline() {
        // CRLF endings with the terminator pair split across a chunk
        // boundary, and a final line with no terminator at all.
        let crlf = SAMPLE.replace('\n', "\r\n");
        let expected = parse_fasta(&crlf).unwrap();
        for chunk_bytes in 1..=crlf.len() {
            let got = collect(fasta_batches(&crlf, chunk_bytes, IngestBudget::unbounded()))
                .unwrap();
            assert_eq!(got, expected, "CRLF chunk_bytes={chunk_bytes}");
        }
        let unterminated = ">x\nACGT";
        for chunk_bytes in [1, 2, 3, 100] {
            let got =
                collect(fasta_batches(unterminated, chunk_bytes, IngestBudget::unbounded()))
                    .unwrap();
            assert_eq!(got, parse_fasta(unterminated).unwrap(), "chunk_bytes={chunk_bytes}");
        }
        // Lone-CR (classic Mac) through the chunked path too.
        let cr = SAMPLE.replace('\n', "\r");
        let got = collect(fasta_batches(&cr, 2, IngestBudget::unbounded())).unwrap();
        assert_eq!(got, parse_fasta(SAMPLE).unwrap());
    }

    #[test]
    fn empty_trailing_chunk_is_a_no_op() {
        // Empty input entirely: no batches at all.
        assert_eq!(
            collect(fasta_batches("", 8, IngestBudget::unbounded())).unwrap(),
            ReadSet::new()
        );
    }

    #[test]
    fn batch_bounds_seal_batches() {
        let ds = DatasetSpec::Tiny.generate(3);
        let text = write_fasta(&ds.reads);
        // Reads bound: ceil(n / 7) batches of at most 7 reads.
        let batches: Vec<ReadBatch> =
            fasta_batches(&text, 4096, IngestBudget::with_batch_reads(7))
                .map(|b| b.unwrap())
                .collect();
        assert_eq!(batches.len(), ds.reads.len().div_ceil(7));
        assert!(batches.iter().all(|b| b.len() <= 7));
        assert_eq!(batches.iter().map(ReadBatch::len).sum::<usize>(), ds.reads.len());

        // Bytes bound: every batch stays under the cap (no read is larger
        // than the cap in this dataset), and nothing is lost.
        let cap = 4000usize;
        let batches: Vec<ReadBatch> =
            fasta_batches(&text, 4096, IngestBudget::with_batch_bytes(cap))
                .map(|b| b.unwrap())
                .collect();
        assert!(batches.len() > 1);
        assert!(batches.iter().all(|b| b.bytes() <= cap), "batch bytes over cap");
        assert_eq!(batches.iter().map(ReadBatch::len).sum::<usize>(), ds.reads.len());

        // A single read larger than the byte cap still forms its own batch.
        let big = ">big\nACGTACGTACGTACGT\n";
        let batches: Vec<ReadBatch> =
            fasta_batches(big, 8, IngestBudget::with_batch_bytes(4)).map(|b| b.unwrap()).collect();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 1);
    }

    #[test]
    fn degenerate_batch_bounds_terminate_with_one_read_per_batch() {
        // A bound of 0 or 1 (reads, or bytes — every read is larger) cannot
        // be met; the parser must then fall back to singleton batches, not
        // spin on empty ones.
        let reads = DatasetSpec::Tiny.generate(9).reads;
        let text = write_fasta(&reads);
        for bound in [0usize, 1] {
            for budget in
                [IngestBudget::with_batch_reads(bound), IngestBudget::with_batch_bytes(bound)]
            {
                let batches: Vec<_> =
                    fasta_batches(&text, 512, budget).take(reads.len() + 1).collect();
                assert_eq!(batches.len(), reads.len(), "one batch per read ({budget:?})");
                assert_eq!(collect(batches.into_iter()).unwrap(), reads, "{budget:?}");
            }
        }
    }

    #[test]
    fn fasta_errors_are_the_same_at_any_chunk_size() {
        for (bad, expected) in [
            ("ACGT\n>x\nACGT\n", "sequence data before the first '>' header"),
            (">\nACGT\n", "record with empty name"),
            (">bad\nACGN\n", "record bad: invalid base 'N' at position 3"),
            // IUPAC ambiguity codes are rejected like `N`.
            (">x\nACRT\n", "record x: invalid base 'R' at position 2"),
        ] {
            for chunk_bytes in [1, 4, bad.len()] {
                let err = collect(fasta_batches(bad, chunk_bytes, IngestBudget::unbounded()))
                    .unwrap_err();
                assert_eq!(err, expected, "input {bad:?} chunk_bytes={chunk_bytes}");
            }
        }
        // The stream fuses after an error.
        let mut iter = fasta_batches(">bad\nACGN\n>ok\nACGT\n", 4, IngestBudget::unbounded());
        assert!(iter.next().unwrap().is_err());
        assert!(iter.next().is_none());
    }

    #[test]
    fn batches_before_an_error_do_not_depend_on_the_chunk_size() {
        // With one read per batch, `a` is sealed before `b` fails: every
        // chunk size yields `a`'s batch, then the error, then nothing.
        let text = ">a\nAC\n>b\nAN\n>c\nGT\n";
        let expected: Vec<Result<Vec<ReadRecord>, String>> = vec![
            Ok(literal(&[("a", "AC")]).records().to_vec()),
            Err("record b: invalid base 'N' at position 1".to_string()),
        ];
        for chunk_bytes in [1, 4, text.len()] {
            let items: Vec<_> = fasta_batches(text, chunk_bytes, IngestBudget::with_batch_reads(1))
                .map(|item| item.map(|batch| batch.records))
                .collect();
            assert_eq!(items, expected, "chunk_bytes={chunk_bytes}");
        }
    }

    #[test]
    fn chunked_fastq_yields_the_literal_records_at_every_chunk_size() {
        let expected = literal(&[("read1", "ACGT"), ("read2", "TTTTT")]);
        for chunk_bytes in 1..=FASTQ.len() + 1 {
            let got = collect(fastq_batches(FASTQ, chunk_bytes, IngestBudget::unbounded(), 0.0))
                .unwrap();
            assert_eq!(got, expected, "chunk_bytes={chunk_bytes}");
        }
        // CRLF + truncated final newline through the chunked path, record
        // fields (header/sequence/quality) straddling every boundary.
        let crlf = "@x\r\nACGT\r\n+\r\nIIII";
        let expected = literal(&[("x", "ACGT")]);
        for chunk_bytes in 1..=crlf.len() {
            let got = collect(fastq_batches(crlf, chunk_bytes, IngestBudget::unbounded(), 0.0))
                .unwrap();
            assert_eq!(got, expected, "CRLF chunk_bytes={chunk_bytes}");
        }
    }

    #[test]
    fn chunked_fastq_filters_by_mean_quality_and_counts_drops() {
        // read2 is all '!' (Q0) and falls below the floor.
        let mut iter = fastq_batches(FASTQ, 5, IngestBudget::unbounded(), 10.0);
        let rs = collect(&mut iter).unwrap();
        assert_eq!(rs, literal(&[("read1", "ACGT")]));
        assert_eq!(iter.dropped_low_quality(), 1);
    }

    #[test]
    fn chunked_fastq_rejects_malformed_records_at_any_chunk_size() {
        for (bad, expected) in [
            ("@x\nACGT\nIIII\n", "line 3: record x: expected '+' separator, found \"IIII\""),
            ("@x\nACGT\n+\nII\n", "record x: quality length 2 does not match sequence length 4"),
            ("@x\nACGT\n+\n", "record x: missing quality line"),
            ("@x\nACGT\n", "record x: missing '+' separator"),
            ("@x\n", "record x: missing sequence line"),
            ("ACGT\n+\nIIII\n", "line 1: expected '@' header, found \"ACGT\""),
            ("\n@\nACGT\n+\nIIII\n", "line 2: record with empty name"),
            ("@x\nACGN\n+\nIIII\n", "record x: invalid base 'N' at position 3"),
            (
                "@read1\nACGT\n+read9\nIIII\n",
                "line 3: record read1: '+' separator names \"read9\"",
            ),
            (
                "@x\r\nACGT\r\n+\r\nII\r\n",
                "record x: quality length 2 does not match sequence length 4",
            ),
            // A `\r\n` is one terminator, not a line end and a blank line.
            ("@x\r\nACGT\r\nIIII\r\n", "line 3: record x: expected '+' separator, found \"IIII\""),
        ] {
            for chunk_bytes in [1, 3, bad.len()] {
                let err = collect(fastq_batches(bad, chunk_bytes, IngestBudget::unbounded(), 0.0))
                    .unwrap_err();
                assert_eq!(err, expected, "input {bad:?} chunk_bytes={chunk_bytes}");
            }
        }
    }

    #[test]
    fn fastq_record_mean_qualities() {
        let mean_q = |seq: &str, qual: &str| {
            validate_fastq_record("r".to_string(), seq.to_string(), qual.to_string()).unwrap().1
        };
        // 'I' = Q40, '5' = Q20: mean (40*3 + 20) / 4 = 35; '!' = Q0.
        assert!((mean_q("ACGT", "II5I") - 35.0).abs() < 1e-9);
        assert_eq!(mean_q("TTTTT", "!!!!!"), 0.0);
        assert_eq!(mean_q("", ""), 0.0, "an empty read has no quality to average");
    }

    #[test]
    fn file_backed_batches_match_text_batches() {
        let ds = DatasetSpec::Tiny.generate(5);
        let text = write_fasta(&ds.reads);
        let dir = std::env::temp_dir().join("dibella_seq_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chunked.fa");
        std::fs::write(&path, &text).unwrap();
        let budget = IngestBudget::with_batch_reads(5);
        let from_file: Vec<ReadBatch> =
            fasta_batches_file(&path, 513, budget).unwrap().map(|b| b.unwrap()).collect();
        let from_text: Vec<ReadBatch> =
            fasta_batches(&text, 513, budget).map(|b| b.unwrap()).collect();
        assert_eq!(from_file, from_text);
        assert_eq!(collect(from_file.into_iter().map(Ok)).unwrap(), ds.reads);
        std::fs::remove_file(&path).ok();
    }
}
