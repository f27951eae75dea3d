//! Hostile input through the record reader: first slice of the zoo.
//!
//! A file cut off mid-transfer is the commonest damaged input.  Whatever the
//! cut, the readers must answer `Ok` with a prefix of the records or a clean
//! `Err` — never panic — and the answer must not depend on how the bytes
//! happened to be chunked.

use dibella_seq::{write_fasta, DatasetSpec, ReadRecord, ReadSet, Records};
use std::io::BufReader;

/// `got` is `full` cut short: every record but the last is intact, and the
/// last is a prefix (name and bases) of the record at its position.
fn assert_is_prefix(got: &ReadSet, full: &ReadSet, ctx: &str) {
    assert!(got.len() <= full.len(), "more records than the intact file holds ({ctx})");
    for (i, rec) in got.iter() {
        if i + 1 < got.len() {
            assert_eq!(rec, full.record(i), "record {i} ({ctx})");
        } else {
            assert!(full.name(i).starts_with(&rec.name), "last record's name ({ctx})");
            assert!(
                full.seq(i).to_ascii().starts_with(&rec.seq.to_ascii()),
                "last record's bases ({ctx})"
            );
        }
    }
}

#[test]
fn files_truncated_at_every_byte_parse_to_a_prefix_or_a_clean_error() {
    // Seven simulated reads cut to 150 bases (two FASTA lines each): the
    // sweep below is quadratic in the text length.
    let simulated = DatasetSpec::Tiny.generate_with_length(1_200, 5).reads;
    let short = simulated.records()[..7].iter().map(|rec| ReadRecord {
        name: rec.name.clone(),
        seq: rec.seq.to_ascii()[..150].parse().unwrap(),
    });
    let full = ReadSet::from_records(short.collect());
    let fasta = write_fasta(&full);
    let mut fastq = String::new();
    for (_, rec) in full.iter() {
        let seq = rec.seq.to_ascii();
        fastq.push_str(&format!("@{} run=1\n{seq}\n+\n{}\n", rec.name, "I".repeat(seq.len())));
    }

    for (format, text) in [("fasta", &fasta), ("fastq", &fastq)] {
        let parse = |cut: &str, chunk_bytes: usize| {
            let reader = BufReader::with_capacity(chunk_bytes, cut.as_bytes());
            let records = match format {
                "fasta" => Records::fasta(reader),
                _ => Records::fastq(reader, 0.0),
            };
            records.collect::<Result<_, _>>().map(ReadSet::from_records)
        };
        assert_eq!(parse(text, text.len()).unwrap(), full, "the intact {format} file");
        let (mut oks, mut errs) = (0usize, 0usize);
        for cut_at in 0..text.len() {
            let cut = &text[..cut_at];
            let whole = parse(cut, cut.len().max(1));
            for chunk_bytes in [1, 7] {
                assert_eq!(
                    parse(cut, chunk_bytes),
                    whole,
                    "{format} cut at {cut_at}: chunk_bytes={chunk_bytes} disagrees with one chunk"
                );
            }
            match whole {
                Ok(got) => {
                    assert_is_prefix(&got, &full, &format!("{format} cut at {cut_at}"));
                    oks += 1;
                }
                Err(_) => errs += 1,
            }
        }
        // FASTA has no record terminator, so almost every cut is a valid
        // shorter file; FASTQ's strict four-line records reject every cut
        // that is not on a record boundary.
        assert!(oks > 0 && errs > 0, "{format}: {oks} Ok, {errs} Err — both must occur");
        if format == "fastq" {
            assert!(oks <= 2 * full.len() + 1, "{format}: {oks} cuts accepted");
        }
    }
}
