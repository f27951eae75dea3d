//! The front end's standing oracle: k-mer table and occurrence matrix `A`.
//!
//! Two kinds of pin.  **Agreement**: every way of running the front end —
//! the serial hash-map counter, the distributed counter at several rank
//! counts and several thread counts, then `build_a_matrix` at several
//! construction-rank counts —
//! must produce the same table and the same `A`, and `A` must equal a naive
//! matrix built from the definitions (`Kmer::from_codes`, `canonical`, first
//! occurrence per column, `DistMat2D::from_triples`).  **Golden digests**:
//! FNV-1a hashes of one run's table, `A`, `S` and communication volumes,
//! taken before the front end was rebuilt on sorted runs and row-wise
//! assembly, so "identical" means identical to that code, not merely
//! self-consistent.

use dibella_dist::{with_threads, CommPhase, CommStats, ProcessGrid};
use dibella_overlap::{build_a_matrix, KmerOccurrence};
use dibella_pipeline::{run_dibella_2d_on_reads, PipelineConfig, ScenarioSpec};
use dibella_seq::simulate::build_scenario;
use dibella_seq::{
    count_kmers_distributed, count_kmers_serial, DatasetSpec, Kmer, KmerSelection, KmerTable,
    ReadRecord, ReadSet,
};
use dibella_sparse::{CsrMatrix, DistMat2D, Triples};
use std::collections::BTreeMap;

const K: usize = 13;

/// FNV-1a over a stream of integers (each hashed as 8 little-endian bytes).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().flat_map(u64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `A` from the definitions: every window re-packed, canonicalised by the
/// O(k) oracle, looked up, first occurrence per column kept in a map.
fn naive_a_triples(reads: &ReadSet, table: &KmerTable) -> Triples<KmerOccurrence> {
    let mut triples = Triples::new(reads.len(), table.len());
    for (read, rec) in reads.iter() {
        let codes = rec.seq.codes();
        let mut first: BTreeMap<u32, KmerOccurrence> = BTreeMap::new();
        for pos in 0..(codes.len() + 1).saturating_sub(K) {
            let canon = Kmer::from_codes(&codes[pos..pos + K]).canonical();
            if let Some(col) = table.column_of(&canon.kmer) {
                let occ = KmerOccurrence { pos: pos as u32, forward: canon.was_forward };
                first.entry(col).or_insert(occ);
            }
        }
        triples.extend(first.into_iter().map(|(col, occ)| (read, col as usize, occ)));
    }
    triples
}

fn assert_tables_identical(got: &KmerTable, want: &KmerTable, ctx: &str) {
    assert!(got.iter().eq(want.iter()), "(column, k-mer, count) entries differ ({ctx})");
}

/// The reusable checker: every front-end path agrees on `reads`.  Returns
/// the table and `A` they agree on, for assertions about their contents.
fn assert_front_end_agrees(
    reads: &ReadSet,
    label: &str,
) -> (KmerTable, CsrMatrix<KmerOccurrence>) {
    let sel = KmerSelection { k: K, min_count: 2, max_count: 60 };
    let reference = count_kmers_serial(reads, &sel);
    for (col, kmer, _) in reference.iter() {
        assert_eq!(reference.column_of(&kmer), Some(col), "column_of ({label})");
    }

    let naive = naive_a_triples(reads, &reference);
    let expected: Vec<_> = [1usize, 4, 9, 16]
        .into_iter()
        .map(|nprocs| {
            let want = DistMat2D::from_triples(ProcessGrid::square(nprocs), &naive);
            let local = want.to_local_csr();
            (nprocs, want, local)
        })
        .collect();

    for threads in [1usize, 2, 4] {
        with_threads(threads, || {
            for (nprocs, want, want_local) in &expected {
                let ctx = format!("{label} P={nprocs} t={threads}");
                let table = count_kmers_distributed(reads, &sel, *nprocs, &CommStats::new());
                assert_tables_identical(&table, &reference, &ctx);
                for ranks in [1usize, 4, 7, 16] {
                    let a = build_a_matrix(reads, &table, K, want.grid(), ranks);
                    assert_eq!(a.blocks(), want.blocks(), "A blocks ({ctx} ranks={ranks})");
                    assert_eq!(&a.to_local_csr(), want_local, "A ({ctx} ranks={ranks})");
                }
            }
        });
    }
    let a = CsrMatrix::from_triples(&naive);
    (reference, a)
}

#[test]
fn every_front_end_path_agrees_on_the_tiny_dataset() {
    assert_front_end_agrees(&DatasetSpec::Tiny.generate(7).reads, "tiny");
}

#[test]
fn every_front_end_path_agrees_on_every_fast_scenario() {
    for spec in ScenarioSpec::fast_suite() {
        let ds = build_scenario(spec.kind, &spec.params);
        assert_front_end_agrees(&ds.reads, spec.kind.label());
    }
}

fn reads_from(seqs: &[&str]) -> ReadSet {
    let mut reads = ReadSet::new();
    for (i, seq) in seqs.iter().enumerate() {
        reads.push(ReadRecord { name: format!("r{i}"), seq: seq.parse().unwrap() });
    }
    reads
}

#[test]
fn inputs_with_nothing_to_count_give_an_empty_table_and_all_empty_blocks() {
    let unique = "ACGGTCATTGCAAGCTTAGGCATCGTACCA";
    let cases = [
        ("no reads", reads_from(&[])),
        ("every read shorter than k", reads_from(&["ACGTACGTACGT", "ACGT", ""])),
        ("no k-mer seen twice", reads_from(&[unique, "TTGACCGATAGGCTAACGTTACAGGATCCA"])),
    ];
    for (label, reads) in cases {
        let (table, a) = assert_front_end_agrees(&reads, label);
        assert!(table.is_empty(), "{label}");
        assert_eq!((a.nrows(), a.ncols(), a.nnz()), (reads.len(), 0, 0), "{label}");
        // Zero columns still means one (empty) block per rank.
        let blocks = build_a_matrix(&reads, &table, K, ProcessGrid::square(16), 16);
        assert!(blocks.blocks().iter().all(|b| b.ncols() == 0 && b.is_empty()), "{label}");
    }
}

#[test]
fn a_homopolymer_read_seen_twice_is_one_kmer_with_one_entry_per_read() {
    let read = "A".repeat(20);
    let (table, a) = assert_front_end_agrees(&reads_from(&[&read, &read]), "homopolymer");
    let entries: Vec<_> = table.iter().collect();
    let poly_a = Kmer::from_codes(&[0; K]);
    assert_eq!(entries, [(0, poly_a, 2 * (20 - K as u32 + 1))]);
    let first = KmerOccurrence { pos: 0, forward: true };
    let hits: Vec<_> = a.iter().collect();
    assert_eq!(hits, [(0, 0, &first), (1, 0, &first)], "first occurrence wins");
}

#[test]
fn kmers_seen_once_per_superstep_graduate_through_the_filter_alone() {
    // No window repeats inside the read, so at one read per superstep every
    // owner sees only batch-singletons: the second copy of each k-mer can
    // only graduate by finding the first in the Bloom filter.
    let read = "ACGGTCATTGCAAGCTTAGGCATCGTACCA";
    let reads = reads_from(&[read, read]);
    let (table, _) = assert_front_end_agrees(&reads, "straddling");
    assert_eq!(table.len(), read.len() - K + 1);
    assert!(table.iter().all(|(_, _, count)| count == 2));
}

/// The digests of one run, in the order the golden values are listed.
fn golden_run() -> Vec<(&'static str, u64)> {
    let reads = DatasetSpec::Tiny.generate(7).reads;
    let config = PipelineConfig::for_small_reads(K, 16);
    let grid = ProcessGrid::square(16);
    let table = count_kmers_distributed(&reads, &config.kmer, 16, &CommStats::new());
    let a = build_a_matrix(&reads, &table, K, grid, 16);
    let out = run_dibella_2d_on_reads(&reads, &config).unwrap();

    let table_words = table.iter().flat_map(|(_, kmer, count)| [kmer.packed(), count as u64]);
    let a_local = a.to_local_csr();
    let a_words = a_local
        .iter()
        .flat_map(|(row, col, occ)| [row as u64, col as u64, occ.pos as u64, occ.forward as u64]);
    let s_local = out.string_matrix.to_local_csr();
    let s_words = s_local.iter().flat_map(|(row, col, edge)| {
        let (score, overlap_len) = (edge.score as u64, edge.overlap_len as u64);
        [row as u64, col as u64, edge.dir as u64, edge.suffix as u64, score, overlap_len]
    });
    let words = |phase| out.comm.phase(phase).words;
    vec![
        ("table", fnv1a(table_words)),
        ("A", fnv1a(a_words)),
        ("S", fnv1a(s_words)),
        ("dist.words.KmerCounting", words(CommPhase::KmerCounting)),
        ("dist.words.SketchIndex", words(CommPhase::SketchIndex)),
        ("dist.words.OverlapDetection", words(CommPhase::OverlapDetection)),
        ("dist.words.ReadExchange", words(CommPhase::ReadExchange)),
        ("dist.words.TransitiveReduction", words(CommPhase::TransitiveReduction)),
        ("dist.words.Consensus", words(CommPhase::Consensus)),
        ("dist.messages.total", out.comm.total_messages()),
    ]
}

#[test]
fn front_end_output_matches_the_digests_taken_before_the_rewrite() {
    // Computed by this function on commit 64f2ccc (the `HashMap` fold and the
    // global-`Triples` assembly), `DatasetSpec::Tiny.generate(7)`, P = 16 —
    // but for the two entries that counted SUMMA's cross-diagonal exchange
    // until `C` became a triangle: 747 entries × 5 words in 6 messages.  Since
    // the transitive reduction charges its transpose of `I`, the
    // `TransitiveReduction` and message entries also carry the 54
    // off-diagonal `I` entries × 2 words in 12 messages, one per off-diagonal
    // block.  Since the reduction runs one round over a relabelled `R`, they
    // no longer carry a second squaring, of the 32-entry `S` (12 × 32 words
    // in 96 messages), and they carry the order broadcast, 2 × 79 reads × 3
    // words in 24 messages: 1 668 → 1 758 words, 963 → 891 messages.
    assert_eq!(golden_run(), GOLDEN);
}

const GOLDEN: [(&str, u64); 10] = [
    ("table", 8_144_216_460_293_123_341),
    ("A", 80_572_166_283_232_088),
    ("S", 9_217_061_812_228_415_075),
    ("dist.words.KmerCounting", 89276),
    ("dist.words.SketchIndex", 0),
    ("dist.words.OverlapDetection", 159_066),
    ("dist.words.ReadExchange", 9810),
    ("dist.words.TransitiveReduction", 1758),
    ("dist.words.Consensus", 397),
    ("dist.messages.total", 891),
];
