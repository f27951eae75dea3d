//! Chunked, bounded-memory FASTA/FASTQ ingest — the one reader per format.
//!
//! At the scales the paper targets no rank can hold its input, so the real
//! system streams fixed-size I/O chunks per rank and processes reads in
//! bounded batches (the BSP *supersteps* of the k-mer counter in
//! [`crate::kmer_counter`]).  This module is that chunk layer, and the only
//! parser each format has: [`crate::fasta::parse_fasta`] and
//! [`crate::fasta::parse_fastq_filtered`] are its degenerate case (whole text
//! = one chunk, unbounded budget = one batch).
//!
//! * [`LineAssembler`] — turns arbitrary byte chunks into logical lines,
//!   handling records (and CRLF terminators) that straddle chunk boundaries;
//! * [`ReadBatcher`] — incremental record assembly (the FASTA or the
//!   four-line FASTQ grammar, with all input validation), sealing
//!   [`ReadBatch`]es at the [`IngestBudget`] bounds;
//! * [`fasta_batches`] / [`fastq_batches`] / [`fasta_batches_file`] — one
//!   chunk pump ([`Batches`]) over in-memory text or a file read
//!   `chunk_bytes` at a time, so peak memory is one chunk plus one batch;
//! * [`read_set_batches`] — the same batches lent from an already-resident
//!   [`ReadSet`], for replaying supersteps without re-parsing.
//!
//! Records do not depend on the chunk size, and batch boundaries depend only
//! on the budget: one sealing rule ([`IngestBudget`]) serves the parser path
//! and the resident path alike.

use crate::dna::DnaSeq;
use crate::fasta::{validate_fastq_record, ReadRecord, ReadSet};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::Read;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// One bounded batch of reads — the unit of a counting superstep.  Parsers
/// yield owned batches (`ReadBatch<'static>`); [`read_set_batches`] lends
/// ranges of a resident [`ReadSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadBatch<'a> {
    /// Global index of the first read of this batch (reads are numbered in
    /// input order across batches, matching the collected [`ReadSet`]).
    pub first_read: usize,
    /// The records of this batch, in input order.
    pub records: Cow<'a, [ReadRecord]>,
}

impl ReadBatch<'_> {
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
pub fn collect_batches<'a>(
    batches: impl Iterator<Item = Result<ReadBatch<'a>, String>>,
) -> Result<ReadSet, String> {
    let mut records = Vec::new();
    for batch in batches {
        records.extend(batch?.records.into_owned());
    }
    Ok(ReadSet::from_records(records))
}

/// Incremental splitter of byte chunks into logical lines.
///
/// Accepts Unix (`\n`), Windows (`\r\n`) and classic-Mac (`\r`) line endings,
/// in any mixture, with or without a final terminator — sequencing data
/// regularly crosses Windows tooling on its way to a pipeline, and a
/// byte-identical record set must not be rejected for its line endings — over
/// a *sequence of chunks*: a line (or a `\r\n` pair) split across a chunk
/// boundary is carried over and completed by the next chunk.  Feeding an
/// empty chunk is a no-op.
#[derive(Debug, Default)]
pub struct LineAssembler {
    carry: Vec<u8>,
    pending_lf: bool,
    lines_emitted: u64,
}

impl LineAssembler {
    /// A fresh assembler with an empty carry buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one chunk, calling `emit(lineno, line)` for every logical line
    /// completed by it (`lineno` is 1-based and counts blank lines, for
    /// error messages).
    ///
    /// Lines are borrowed from the internal carry buffer, so `emit` must copy
    /// what it keeps.  Returns the first error `emit` produces (or a UTF-8
    /// error naming the offending line).
    pub fn push(
        &mut self,
        chunk: &[u8],
        mut emit: impl FnMut(u64, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut rest = chunk;
        // A '\r' at the end of the previous chunk already emitted its line;
        // an immediately following '\n' belongs to the same CRLF terminator.
        if self.pending_lf {
            self.pending_lf = false;
            if let [b'\n', tail @ ..] = rest {
                rest = tail;
            }
        }
        while let Some(pos) = rest.iter().position(|&b| b == b'\n' || b == b'\r') {
            self.carry.extend_from_slice(&rest[..pos]);
            self.emit_carry(&mut emit)?;
            if rest[pos] == b'\r' {
                match rest.get(pos + 1) {
                    Some(b'\n') => rest = &rest[pos + 2..],
                    Some(_) => rest = &rest[pos + 1..],
                    // Chunk ends exactly on the '\r': the matching '\n' may
                    // open the next chunk.
                    None => {
                        self.pending_lf = true;
                        rest = &[];
                    }
                }
            } else {
                rest = &rest[pos + 1..];
            }
        }
        self.carry.extend_from_slice(rest);
        Ok(())
    }

    /// Flush the final unterminated line, if any.
    pub fn finish(
        &mut self,
        mut emit: impl FnMut(u64, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pending_lf = false;
        if self.carry.is_empty() {
            return Ok(());
        }
        self.emit_carry(&mut emit)
    }

    fn emit_carry(
        &mut self,
        emit: &mut impl FnMut(u64, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.lines_emitted += 1;
        let line = std::str::from_utf8(&self.carry)
            .map_err(|e| format!("line {}: invalid UTF-8: {e}", self.lines_emitted))?;
        let result = emit(self.lines_emitted, line);
        self.carry.clear();
        result
    }
}

/// Budget-driven batch sealing for the parser path.
#[derive(Debug)]
struct BatchSealer {
    budget: IngestBudget,
    batch: Vec<ReadRecord>,
    batch_bytes: usize,
    first_read: usize,
    ready: VecDeque<ReadBatch<'static>>,
}

impl BatchSealer {
    fn new(budget: IngestBudget) -> Self {
        Self { budget, batch: Vec::new(), batch_bytes: 0, first_read: 0, ready: VecDeque::new() }
    }

    fn push(&mut self, record: ReadRecord) {
        let bytes = record_bytes(&record);
        if self.budget.seals_before(self.batch.len(), self.batch_bytes, bytes) {
            self.seal();
        }
        self.batch.push(record);
        self.batch_bytes += bytes;
        if self.budget.is_full(self.batch.len(), self.batch_bytes) {
            self.seal();
        }
    }

    fn seal(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let records = std::mem::take(&mut self.batch);
        let first_read = self.first_read;
        self.first_read += records.len();
        self.batch_bytes = 0;
        self.ready.push_back(ReadBatch { first_read, records: Cow::Owned(records) });
    }
}

/// The four logical lines of a FASTQ record being assembled.
#[derive(Debug, Default)]
enum FastqField {
    /// Waiting for the next `@name` header.
    #[default]
    Header,
    /// Header seen; waiting for the sequence line.
    Seq(String),
    /// Sequence seen; waiting for the `+` separator.
    Sep(String, String),
    /// Separator seen; waiting for the quality line.
    Qual(String, String),
}

/// The record grammar a [`ReadBatcher`] parses, with its record in progress.
#[derive(Debug)]
enum Grammar {
    /// A `>name` header, then the sequence over any number of lines.
    /// Characters other than `{A, C, G, T}` (e.g. `N`) are rejected — the
    /// simulators in this repo never emit them, and the paper's pipeline
    /// operates on the 2-bit alphabet.
    Fasta { name: Option<String>, seq: String },
    /// The classic four-line record, enforced strictly: a `@name` header, one
    /// sequence line, a `+` separator (bare or repeating the name), and one
    /// quality line of exactly the sequence's length in printable Phred+33
    /// characters.  Multi-line sequences are rejected — every modern
    /// long-read FASTQ writer emits four-line records.  Reads whose mean
    /// Phred quality falls below `min_mean_quality` are dropped and counted.
    Fastq { field: FastqField, min_mean_quality: f64, dropped_low_quality: usize },
}

impl Grammar {
    /// Consume one logical line; blank lines are ignored by both grammars.
    fn take_line(&mut self, lineno: u64, line: &str, out: &mut BatchSealer) -> Result<(), String> {
        let line = line.trim_end();
        if line.is_empty() {
            return Ok(());
        }
        match self {
            Grammar::Fasta { name, seq } => {
                if let Some(rest) = line.strip_prefix('>') {
                    flush_fasta(name, seq, out)?;
                    let next = rest.split_whitespace().next().unwrap_or("");
                    if next.is_empty() {
                        return Err("record with empty name".to_string());
                    }
                    *name = Some(next.to_string());
                } else {
                    if name.is_none() {
                        return Err("sequence data before the first '>' header".to_string());
                    }
                    seq.push_str(line);
                }
            }
            Grammar::Fastq { field, min_mean_quality, dropped_low_quality } => {
                *field = match std::mem::take(field) {
                    FastqField::Header => {
                        let Some(rest) = line.strip_prefix('@') else {
                            return Err(format!(
                                "line {lineno}: expected '@' header, found {line:?}"
                            ));
                        };
                        let name = rest.split_whitespace().next().unwrap_or("");
                        if name.is_empty() {
                            return Err(format!("line {lineno}: record with empty name"));
                        }
                        FastqField::Seq(name.to_string())
                    }
                    FastqField::Seq(name) => FastqField::Sep(name, line.to_string()),
                    FastqField::Sep(name, seq) => {
                        if !line.starts_with('+') {
                            return Err(format!(
                                "line {lineno}: record {name}: expected '+' separator, found {line:?}"
                            ));
                        }
                        FastqField::Qual(name, seq)
                    }
                    FastqField::Qual(name, seq) => {
                        let (record, mean_q) = validate_fastq_record(name, seq, line.to_string())?;
                        if mean_q >= *min_mean_quality {
                            out.push(record);
                        } else {
                            *dropped_low_quality += 1;
                        }
                        FastqField::Header
                    }
                };
            }
        }
        Ok(())
    }

    /// End of input: flush the trailing FASTA record, reject a truncated
    /// FASTQ one.
    fn end(&mut self, out: &mut BatchSealer) -> Result<(), String> {
        match self {
            Grammar::Fasta { name, seq } => flush_fasta(name, seq, out),
            Grammar::Fastq { field, .. } => match std::mem::take(field) {
                FastqField::Header => Ok(()),
                FastqField::Seq(name) => Err(format!("record {name}: missing sequence line")),
                FastqField::Sep(name, _) => Err(format!("record {name}: missing '+' separator")),
                FastqField::Qual(name, _) => Err(format!("record {name}: missing quality line")),
            },
        }
    }
}

/// Complete the FASTA record in progress, if any.
fn flush_fasta(
    name: &mut Option<String>,
    seq: &mut String,
    out: &mut BatchSealer,
) -> Result<(), String> {
    if let Some(name) = name.take() {
        let seq = DnaSeq::from_ascii(std::mem::take(seq).as_bytes())
            .map_err(|e| format!("record {name}: {e}"))?;
        out.push(ReadRecord { name, seq });
    }
    Ok(())
}

/// Incremental FASTA or FASTQ parser over byte chunks, yielding
/// [`ReadBatch`]es: the records (and the errors) are the same for any chunk
/// size.
#[derive(Debug)]
pub struct ReadBatcher {
    lines: LineAssembler,
    grammar: Grammar,
    sealer: BatchSealer,
}

impl ReadBatcher {
    /// A FASTA batcher sealing batches at the given budget's batch bounds.
    pub fn fasta(budget: IngestBudget) -> Self {
        Self::new(Grammar::Fasta { name: None, seq: String::new() }, budget)
    }

    /// A four-line FASTQ batcher with the given batch budget and
    /// mean-quality floor (0.0 keeps everything).
    pub fn fastq(budget: IngestBudget, min_mean_quality: f64) -> Self {
        let field = FastqField::Header;
        Self::new(Grammar::Fastq { field, min_mean_quality, dropped_low_quality: 0 }, budget)
    }

    fn new(grammar: Grammar, budget: IngestBudget) -> Self {
        Self { lines: LineAssembler::new(), grammar, sealer: BatchSealer::new(budget) }
    }

    /// Feed one chunk of input bytes (an empty chunk is a no-op).
    pub fn push_chunk(&mut self, chunk: &[u8]) -> Result<(), String> {
        let Self { lines, grammar, sealer } = self;
        lines.push(chunk, |lineno, line| grammar.take_line(lineno, line, sealer))
    }

    /// Signal end of input: completes (or rejects) the trailing record and
    /// seals the final, possibly smaller, batch.
    pub fn finish(&mut self) -> Result<(), String> {
        let Self { lines, grammar, sealer } = self;
        lines.finish(|lineno, line| grammar.take_line(lineno, line, sealer))?;
        grammar.end(sealer)?;
        sealer.seal();
        Ok(())
    }

    /// Pop the next sealed batch, if any.
    pub fn next_batch(&mut self) -> Option<ReadBatch<'static>> {
        self.sealer.ready.pop_front()
    }

    /// Reads dropped by the FASTQ mean-quality filter so far (FASTA carries
    /// no qualities and never drops).
    pub fn dropped_low_quality(&self) -> usize {
        match self.grammar {
            Grammar::Fasta { .. } => 0,
            Grammar::Fastq { dropped_low_quality, .. } => dropped_low_quality,
        }
    }
}

/// Where a [`Batches`] pump reads its chunks from.
enum ChunkSource<'a> {
    Text { text: &'a [u8], pos: usize },
    File { file: std::fs::File, buf: Vec<u8> },
}

/// Iterator of [`ReadBatch`]es: the chunk pump feeding a [`ReadBatcher`]
/// from text or a file, `chunk_bytes` at a time.
///
/// Yields `Err` at most once (the first parse/I/O error) and then fuses.
pub struct Batches<'a> {
    source: ChunkSource<'a>,
    chunk_bytes: usize,
    batcher: ReadBatcher,
    finished: bool,
    failed: bool,
}

impl Iterator for Batches<'_> {
    type Item = Result<ReadBatch<'static>, String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(batch) = self.batcher.next_batch() {
                return Some(Ok(batch));
            }
            if self.finished {
                return None;
            }
            if let Err(e) = self.step() {
                self.failed = true;
                return Some(Err(e));
            }
        }
    }
}

impl<'a> Batches<'a> {
    fn new(source: ChunkSource<'a>, chunk_bytes: usize, batcher: ReadBatcher) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        Self { source, chunk_bytes, batcher, finished: false, failed: false }
    }

    /// Read and feed one chunk, or finish the batcher at end of input.
    fn step(&mut self) -> Result<(), String> {
        let chunk = match &mut self.source {
            ChunkSource::Text { text, pos } => {
                let end = (*pos + self.chunk_bytes).min(text.len());
                let chunk = &text[*pos..end];
                *pos = end;
                chunk
            }
            ChunkSource::File { file, buf } => {
                buf.resize(self.chunk_bytes, 0);
                let n = file.read(buf).map_err(|e| format!("reading FASTA chunk: {e}"))?;
                &buf[..n]
            }
        };
        if chunk.is_empty() {
            self.finished = true;
            return self.batcher.finish();
        }
        self.batcher.push_chunk(chunk)
    }

    /// Reads dropped by the FASTQ mean-quality filter so far.
    pub fn dropped_low_quality(&self) -> usize {
        self.batcher.dropped_low_quality()
    }
}

/// Stream batches from in-memory FASTA text, fed in `chunk_bytes`-sized
/// chunks through the same incremental path as the file reader (so tests can
/// pin chunk-boundary behaviour without touching disk).
pub fn fasta_batches(text: &str, chunk_bytes: usize, budget: IngestBudget) -> Batches<'_> {
    let source = ChunkSource::Text { text: text.as_bytes(), pos: 0 };
    Batches::new(source, chunk_bytes, ReadBatcher::fasta(budget))
}

/// Stream batches from a FASTA file, reading `chunk_bytes` at a time: peak
/// memory is one chunk plus one in-flight batch, independent of file size.
pub fn fasta_batches_file(
    path: impl AsRef<Path>,
    chunk_bytes: usize,
    budget: IngestBudget,
) -> Result<Batches<'static>, String> {
    let file = std::fs::File::open(path.as_ref())
        .map_err(|e| format!("opening {}: {e}", path.as_ref().display()))?;
    let source = ChunkSource::File { file, buf: Vec::new() };
    Ok(Batches::new(source, chunk_bytes, ReadBatcher::fasta(budget)))
}

/// Stream quality-filtered batches from in-memory FASTQ text in
/// `chunk_bytes`-sized chunks.
pub fn fastq_batches(
    text: &str,
    chunk_bytes: usize,
    budget: IngestBudget,
    min_mean_quality: f64,
) -> Batches<'_> {
    let source = ChunkSource::Text { text: text.as_bytes(), pos: 0 };
    Batches::new(source, chunk_bytes, ReadBatcher::fastq(budget, min_mean_quality))
}

/// Lend batches of an already-resident [`ReadSet`].
///
/// The k-mer counter consumes each pass through a fresh batch iterator; when
/// the reads are already in memory (the pipeline keeps them for alignment
/// and consensus anyway), replaying supersteps from the `ReadSet` avoids
/// re-parsing while keeping the per-superstep exchange buffers bounded by
/// the same budget, sealed by the same rule as the parser path.
pub fn read_set_batches(
    reads: &ReadSet,
    budget: IngestBudget,
) -> impl Iterator<Item = Result<ReadBatch<'_>, String>> + '_ {
    let mut first_read = 0usize;
    std::iter::from_fn(move || {
        let rest = &reads.records()[first_read..];
        let (mut len, mut bytes) = (0usize, 0usize);
        for rec in rest {
            if budget.seals_before(len, bytes, record_bytes(rec)) {
                break;
            }
            len += 1;
            bytes += record_bytes(rec);
            if budget.is_full(len, bytes) {
                break;
            }
        }
        let batch = ReadBatch { first_read, records: Cow::Borrowed(&rest[..len]) };
        first_read += len;
        (len > 0).then_some(Ok(batch))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasta::{parse_fasta, write_fasta};
    use crate::simulate::DatasetSpec;

    /// Collect every record from a batch stream, checking `first_read`
    /// bookkeeping along the way.
    fn collect<'a>(
        iter: impl Iterator<Item = Result<ReadBatch<'a>, String>>,
    ) -> Result<ReadSet, String> {
        let mut rs = ReadSet::new();
        for batch in iter {
            let batch = batch?;
            assert_eq!(batch.first_read, rs.len(), "batch first_read must be contiguous");
            assert!(!batch.is_empty(), "batchers must not emit empty batches");
            for rec in batch.records.into_owned() {
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
        let expected = sample_reads();
        for chunk_bytes in 1..=SAMPLE.len() + 1 {
            let got =
                collect(fasta_batches(SAMPLE, chunk_bytes, IngestBudget::unbounded())).unwrap();
            assert_eq!(got, expected, "chunk_bytes={chunk_bytes}");
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
        let mut batcher = ReadBatcher::fasta(IngestBudget::unbounded());
        batcher.push_chunk(SAMPLE.as_bytes()).unwrap();
        batcher.push_chunk(b"").unwrap();
        batcher.push_chunk(b"").unwrap();
        batcher.finish().unwrap();
        let mut rs = ReadSet::new();
        while let Some(batch) = batcher.next_batch() {
            for rec in batch.records.into_owned() {
                rs.push(rec);
            }
        }
        assert_eq!(rs, parse_fasta(SAMPLE).unwrap());
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
        // be met; both paths must then fall back to singleton batches, not
        // spin on empty ones: one sealing rule, so they cannot disagree.
        let reads = DatasetSpec::Tiny.generate(9).reads;
        let text = write_fasta(&reads);
        for bound in [0usize, 1] {
            for budget in
                [IngestBudget::with_batch_reads(bound), IngestBudget::with_batch_bytes(bound)]
            {
                let parsed: Vec<_> = fasta_batches(&text, 512, budget).take(reads.len() + 1).collect();
                let lent: Vec<_> = read_set_batches(&reads, budget).take(reads.len() + 1).collect();
                for (path, batches) in [("parser", parsed), ("resident", lent)] {
                    let ctx = format!("{path} path, {budget:?}");
                    assert_eq!(batches.len(), reads.len(), "one batch per read ({ctx})");
                    assert_eq!(collect(batches.into_iter()).unwrap(), reads, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn fasta_errors_are_the_same_at_any_chunk_size() {
        for (bad, expected) in [
            ("ACGT\n>x\nACGT\n", "sequence data before the first '>' header"),
            (">\nACGT\n", "record with empty name"),
            (">bad\nACGN\n", "record bad: invalid base 'N' at position 3"),
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
                "@x\r\nACGT\r\n+\r\nII\r\n",
                "record x: quality length 2 does not match sequence length 4",
            ),
        ] {
            for chunk_bytes in [1, 3, bad.len()] {
                let err = collect(fastq_batches(bad, chunk_bytes, IngestBudget::unbounded(), 0.0))
                    .unwrap_err();
                assert_eq!(err, expected, "input {bad:?} chunk_bytes={chunk_bytes}");
            }
        }
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

    #[test]
    fn read_set_batches_cover_the_set_in_order() {
        let ds = DatasetSpec::Tiny.generate(6);
        for max_reads in [1usize, 3, 7, usize::MAX] {
            let budget = IngestBudget::with_batch_reads(max_reads);
            let got = collect(read_set_batches(&ds.reads, budget)).unwrap();
            assert_eq!(got, ds.reads, "max_batch_reads={max_reads}");
            let n_batches = read_set_batches(&ds.reads, budget).count();
            assert_eq!(n_batches, ds.reads.len().div_ceil(max_reads.min(ds.reads.len())));
        }
        assert_eq!(read_set_batches(&ReadSet::new(), IngestBudget::unbounded()).count(), 0);
    }
}
