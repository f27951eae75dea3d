//! FASTA/FASTQ input — the one reader per format.
//!
//! [`Records`] is the only parser each format has: it pulls FASTA or
//! four-line FASTQ records, with all input validation, from any [`BufRead`]
//! — whole text, which is its own buffer ([`crate::fasta::parse_fasta`]),
//! or a file behind a read buffer ([`crate::fasta::parse_fasta_file`]).
//! The pipeline keeps every read resident for alignment and consensus, so
//! the parsers collect the records into one [`crate::fasta::ReadSet`],
//! which [`crate::kmer_counter::count_kmers_distributed`] counts in one
//! superstep per pass.
//!
//! Records and errors do not depend on the reader's buffer size.

use crate::dna::DnaSeq;
use crate::fasta::ReadRecord;
use std::fs::File;
use std::io::BufRead;
use std::path::Path;

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
            let buf = self.reader.fill_buf().map_err(|e| format!("reading input: {e}"))?;
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

/// Iterator of the [`ReadRecord`]s in FASTA or FASTQ text in a [`BufRead`].
///
/// Yields the records before the first parse or I/O error, then that error
/// once, and then fuses.
pub struct Records<R> {
    lines: Lines<R>,
    /// `None` reads FASTA; `Some(floor)` reads FASTQ, dropping reads below it.
    min_mean_quality: Option<f64>,
    /// FASTQ: reads dropped by the mean-quality filter so far.
    dropped_low_quality: usize,
    failed: bool,
}

impl<R: BufRead> Iterator for Records<R> {
    type Item = Result<ReadRecord, String>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = if self.failed { None } else { self.next_record().transpose() };
        self.failed |= matches!(item, Some(Err(_)));
        item
    }
}

impl<R: BufRead> Records<R> {
    /// FASTA records: a `>name` header, then the sequence over any number
    /// of lines.  Characters other than `{A, C, G, T}` (e.g. `N`) are
    /// rejected — the simulators in this repo never emit them, and the
    /// paper's pipeline operates on the 2-bit alphabet.
    pub fn fasta(reader: R) -> Self {
        Self {
            lines: Lines { reader, line: String::new(), lineno: 0, after_cr: false, kept: false },
            min_mean_quality: None,
            dropped_low_quality: 0,
            failed: false,
        }
    }

    /// FASTQ records of the classic four-line format, enforced strictly: a
    /// `@name` header, one sequence line, a `+` separator (bare or repeating
    /// the name), and one quality line of exactly the sequence's length in
    /// printable Phred+33 characters.  Multi-line sequences are rejected —
    /// every modern long-read FASTQ writer emits four-line records.  Reads
    /// whose mean Phred quality falls below `min_mean_quality` are dropped
    /// and counted (0.0 keeps everything).
    pub fn fastq(reader: R, min_mean_quality: f64) -> Self {
        Self { min_mean_quality: Some(min_mean_quality), ..Self::fasta(reader) }
    }

    /// Reads the FASTQ mean-quality filter dropped so far (FASTA never drops).
    pub fn dropped_low_quality(&self) -> usize {
        self.dropped_low_quality
    }

    /// The next record that passes the format's filter.
    fn next_record(&mut self) -> Result<Option<ReadRecord>, String> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasta::{parse_fasta, write_fasta, ReadSet};
    use crate::simulate::DatasetSpec;
    use std::io::{BufReader, Read};

    /// Every record of `reader` behind a buffer of `chunk_bytes`, the most
    /// one read fetches, or the first error.
    fn collect<R: Read>(
        reader: R,
        chunk_bytes: usize,
        records: fn(BufReader<R>) -> Records<BufReader<R>>,
    ) -> Result<ReadSet, String> {
        let records = records(BufReader::with_capacity(chunk_bytes, reader));
        records.collect::<Result<_, _>>().map(ReadSet::from_records)
    }

    /// FASTA text read through a `chunk_bytes` buffer.
    fn fasta_chunked(text: &str, chunk_bytes: usize) -> Result<ReadSet, String> {
        collect(text.as_bytes(), chunk_bytes, Records::fasta)
    }

    /// FASTQ text read through a `chunk_bytes` buffer, no reads dropped.
    fn fastq_chunked(text: &str, chunk_bytes: usize) -> Result<ReadSet, String> {
        collect(text.as_bytes(), chunk_bytes, |reader| Records::fastq(reader, 0.0))
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
                let got = fasta_chunked(text, chunk_bytes).unwrap();
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
                    let got = match format {
                        "fasta" => fasta_chunked(text, chunk_bytes),
                        _ => fastq_chunked(text, chunk_bytes),
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
        assert_eq!(fasta_chunked(SAMPLE, 3).unwrap(), parse_fasta(SAMPLE).unwrap());
    }

    #[test]
    fn chunked_fasta_crlf_and_no_final_newline() {
        // CRLF endings with the terminator pair split across a chunk
        // boundary, and a final line with no terminator at all.
        let crlf = SAMPLE.replace('\n', "\r\n");
        let expected = parse_fasta(&crlf).unwrap();
        for chunk_bytes in 1..=crlf.len() {
            let got = fasta_chunked(&crlf, chunk_bytes).unwrap();
            assert_eq!(got, expected, "CRLF chunk_bytes={chunk_bytes}");
        }
        let unterminated = ">x\nACGT";
        for chunk_bytes in [1, 2, 3, 100] {
            let got = fasta_chunked(unterminated, chunk_bytes).unwrap();
            assert_eq!(got, parse_fasta(unterminated).unwrap(), "chunk_bytes={chunk_bytes}");
        }
        // Lone-CR (classic Mac) through the chunked path too.
        let cr = SAMPLE.replace('\n', "\r");
        assert_eq!(fasta_chunked(&cr, 2).unwrap(), parse_fasta(SAMPLE).unwrap());
    }

    #[test]
    fn empty_input_yields_no_records() {
        assert_eq!(fasta_chunked("", 8).unwrap(), ReadSet::new());
        assert!(Records::fasta("".as_bytes()).next().is_none());
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
                let err = fasta_chunked(bad, chunk_bytes).unwrap_err();
                assert_eq!(err, expected, "input {bad:?} chunk_bytes={chunk_bytes}");
            }
        }
        // The stream fuses after an error.
        let text = ">bad\nACGN\n>ok\nACGT\n";
        let mut iter = Records::fasta(BufReader::with_capacity(4, text.as_bytes()));
        assert!(iter.next().unwrap().is_err());
        assert!(iter.next().is_none());
    }

    #[test]
    fn records_before_an_error_do_not_depend_on_the_chunk_size() {
        // `a` is read before `b` fails: every chunk size yields `a`, then the
        // error, then nothing.
        let text = ">a\nAC\n>b\nAN\n>c\nGT\n";
        let expected: Vec<Result<ReadRecord, String>> = vec![
            Ok(literal(&[("a", "AC")]).record(0).clone()),
            Err("record b: invalid base 'N' at position 1".to_string()),
        ];
        for chunk_bytes in [1, 4, text.len()] {
            let reader = BufReader::with_capacity(chunk_bytes, text.as_bytes());
            let mut records = Records::fasta(reader);
            let items: Vec<_> = records.by_ref().collect();
            assert_eq!(items, expected, "chunk_bytes={chunk_bytes}");
            assert!(records.next().is_none(), "chunk_bytes={chunk_bytes}");
        }
    }

    #[test]
    fn chunked_fastq_yields_the_literal_records_at_every_chunk_size() {
        let expected = literal(&[("read1", "ACGT"), ("read2", "TTTTT")]);
        for chunk_bytes in 1..=FASTQ.len() + 1 {
            let got = fastq_chunked(FASTQ, chunk_bytes).unwrap();
            assert_eq!(got, expected, "chunk_bytes={chunk_bytes}");
        }
        // CRLF + truncated final newline through the chunked path, record
        // fields (header/sequence/quality) straddling every boundary.
        let crlf = "@x\r\nACGT\r\n+\r\nIIII";
        let expected = literal(&[("x", "ACGT")]);
        for chunk_bytes in 1..=crlf.len() {
            let got = fastq_chunked(crlf, chunk_bytes).unwrap();
            assert_eq!(got, expected, "CRLF chunk_bytes={chunk_bytes}");
        }
    }

    #[test]
    fn chunked_fastq_filters_by_mean_quality_and_counts_drops() {
        // read2 is all '!' (Q0) and falls below the floor.
        let mut records = Records::fastq(BufReader::with_capacity(5, FASTQ.as_bytes()), 10.0);
        let kept: Vec<ReadRecord> = records.by_ref().map(Result::unwrap).collect();
        assert_eq!(ReadSet::from_records(kept), literal(&[("read1", "ACGT")]));
        assert_eq!(records.dropped_low_quality(), 1);
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
                let err = fastq_chunked(bad, chunk_bytes).unwrap_err();
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
    fn file_backed_records_match_text_records() {
        let ds = DatasetSpec::Tiny.generate(5);
        let text = write_fasta(&ds.reads);
        let dir = std::env::temp_dir().join("dibella_seq_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chunked.fa");
        std::fs::write(&path, &text).unwrap();
        let from_file = collect(open(&path).unwrap(), 513, Records::fasta).unwrap();
        assert_eq!(from_file, fasta_chunked(&text, 513).unwrap());
        assert_eq!(from_file, ds.reads);
        std::fs::remove_file(&path).ok();
    }
}
