//! Distributed k-mer counting (Section IV-C of the paper).
//!
//! The counter mirrors the HipMer-style design diBELLA 2D uses:
//!
//! 1. every rank rolls over the canonical k-mers of its block of reads and
//!    sends each, as its packed `u64`, to an owner rank chosen by hashing
//!    (`MPI_Alltoallv`);
//! 2. each owner tallies what it received in a hash table, which holds every
//!    distinct k-mer the owner was sent with its exact count;
//! 3. the owner keeps only the k-mers whose count falls in the reliable range
//!    `[min_count, max_count]` (the BELLA-style upper bound `d` removes
//!    repeat-induced high-frequency k-mers);
//! 4. surviving k-mers, in ascending order, receive consecutive column
//!    indices — they become the columns of the `|reads| x |k-mers|` matrix `A`.
//!
//! The paper's counter makes the exchange twice, a Bloom-filter pass that
//! keeps singletons out of owner memory and a counting pass.  Here the tally
//! already holds the exact counts, so the exchange runs once and the second
//! pass is charged, not sent (see [`count_kmers_distributed`]).
//!
//! [`count_kmers_distributed`] runs this over a resident read set, each owner
//! folding its share as its own pool task; [`count_kmers_serial`], a plain
//! hash-map count, is the independent reference it is tested against.
//! Owners count in hash tables, and the table leaves sorted, so no output
//! depends on a hasher or a schedule.
//!
//! The k-mer exchange traffic is recorded under
//! [`CommPhase::KmerCounting`] with the paper's `k/4`-bytes-per-k-mer wire
//! format (2-bit packed), so the measured words can be compared against the
//! model `W = n·l·k/(4·P)` of Table I.

use crate::fasta::ReadSet;
use crate::kmer::{Kmer, KmerIter};
use dibella_dist::{alltoallv_counted, par_ranks, BlockDist, CommPhase, CommStats};
use rayon::pool;
use serde::{Deserialize, Serialize};

/// Reliable k-mer selection parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KmerSelection {
    /// k-mer length (the paper uses `k = 17`).
    pub k: usize,
    /// Minimum count for a reliable k-mer (2 discards singletons).
    pub min_count: u32,
    /// Maximum count for a reliable k-mer (discards repeat-induced k-mers).
    pub max_count: u32,
}

impl KmerSelection {
    /// The experimental setting of the paper: `k = 17`, maximum k-mer
    /// frequency 4 (Section VI).
    pub fn paper_default() -> Self {
        Self { k: 17, min_count: 2, max_count: 4 }
    }

    /// A BELLA-style upper frequency bound derived from dataset statistics:
    /// the expected number of error-free occurrences of a true genomic k-mer
    /// is `d·(1-e)^k`; k-mers far above that are almost surely repeats.
    pub fn with_bella_bound(k: usize, depth: f64, error_rate: f64) -> Self {
        let expected = depth * (1.0 - error_rate).powi(k as i32);
        let bound = (expected + 2.0 * expected.sqrt()).ceil().max(4.0) as u32;
        Self { k, min_count: 2, max_count: bound }
    }

    /// Whether `count` lies in the reliable range `[min_count, max_count]`.
    fn is_reliable(&self, count: u32) -> bool {
        (self.min_count..=self.max_count).contains(&count)
    }
}

/// The reliable k-mer table: canonical k-mers in ascending order, their
/// counts, and — a k-mer's position being its column — their column indices
/// in the `|reads| x |k-mers|` matrix `A`, found through a hash index.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KmerTable {
    k: usize,
    /// [`Kmer::packed`] of every k-mer, ascending.
    packed: Vec<u64>,
    counts: Vec<u32>,
    /// Column of each k-mer in `packed`.
    index: KmerIndex,
}

impl KmerTable {
    /// Number of reliable k-mers (`m` in the paper's notation).
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Column index of a canonical k-mer, if reliable (one hashed lookup).
    pub fn column_of(&self, canonical: &Kmer) -> Option<u32> {
        let column = self.index.find(&self.packed, canonical.packed()).ok()?;
        (canonical.k() == self.k).then_some(column)
    }

    /// The canonical k-mer at a column index.
    pub fn kmer_at(&self, column: u32) -> Kmer {
        Kmer::from_packed(self.packed[column as usize], self.k)
    }

    /// The count of the k-mer at a column index.
    pub fn count_at(&self, column: u32) -> u32 {
        self.counts[column as usize]
    }

    /// Iterate over `(column, kmer, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Kmer, u32)> + '_ {
        (0..self.len() as u32).map(|col| (col, self.kmer_at(col), self.count_at(col)))
    }
}

/// Serial reference k-mer counter: the tests, the `ingest_scale` harness and
/// the `spgemm`/`alignment` benches hold the distributed counter to it or
/// build their inputs with it.
pub fn count_kmers_serial(reads: &ReadSet, selection: &KmerSelection) -> KmerTable {
    #[expect(
        clippy::disallowed_types,
        reason = "the reference counter stays the plain hash fold the sorted ones are held to; \
                  build_table sorts before anything leaves"
    )]
    let mut counts = std::collections::HashMap::<u64, u32>::new();
    for (_, rec) in reads.iter() {
        for (_, _, canon) in KmerIter::new(&rec.seq, selection.k) {
            *counts.entry(canon.kmer.packed()).or_insert(0) += 1;
        }
    }
    build_table(counts.into_iter().filter(|&(_, n)| selection.is_reliable(n)).collect(), selection)
}

/// Distributed k-mer counter over `nprocs` virtual ranks.
///
/// Reads are block-partitioned over ranks; canonical k-mers are exchanged
/// once to hash-assigned owner ranks, and each owner tallies what it
/// received and keeps its reliable `(k-mer, count)` pairs.  Owners partition
/// the k-mer space by hash, so their counts are disjoint and exact, and the
/// table is the same as [`count_kmers_serial`]'s for any `nprocs` and any
/// selection.
///
/// The paper's counter sends the k-mers twice (a Bloom-filter pass, then a
/// counting pass) and Table I prices both.  The two exchanges move the same
/// items between the same ranks, so the exchange runs into a local
/// [`CommStats`] and its `KmerCounting` words and messages are recorded twice
/// on `stats`: the second pass is charged, not sent, as the read exchange
/// and the consensus gather already charge traffic whose data is shared.
pub fn count_kmers_distributed(
    reads: &ReadSet,
    selection: &KmerSelection,
    nprocs: usize,
    stats: &CommStats,
) -> KmerTable {
    assert!(nprocs > 0);
    let once = CommStats::new();
    let received = exchange(reads, selection, nprocs, &once);
    let reliable = pool::map_owned(received, |_, mut received| {
        let counts = tally(&mut received);
        let distinct = received.iter().copied().zip(counts);
        distinct.filter(|&(_, n)| selection.is_reliable(n)).collect::<Vec<_>>()
    });
    let pass = once.snapshot().phase(CommPhase::KmerCounting);
    if pass.messages > 0 {
        stats.record(CommPhase::KmerCounting, 2 * pass.words, 2 * pass.messages);
    }
    build_table(reliable.concat(), selection)
}

/// The k-mer exchange: every rank lists the packed canonical k-mers of its
/// block of the reads, presized to its window count, and sends each to its
/// owner (a hash of the canonical k-mer); returns what each owner receives.
/// `k` is one number per run, so the 8-byte value is the whole item (the
/// *accounted* wire size stays the paper's 2-bit packing, `k/4` bytes, that
/// is `⌈k/32⌉` words).  The lists are moved into the exchange (consumed, not
/// cloned), so the send side is resident exactly once.
fn exchange(
    reads: &ReadSet,
    selection: &KmerSelection,
    nprocs: usize,
    stats: &CommStats,
) -> Vec<Vec<u64>> {
    let (records, k) = (reads.records(), selection.k);
    let dist = BlockDist::new(records.len(), nprocs);
    let send = par_ranks(nprocs, |rank| {
        let block = &records[dist.range(rank)];
        let windows = block.iter().map(|r| (r.seq.len() + 1).saturating_sub(k)).sum();
        let mut kmers = Vec::with_capacity(windows);
        for rec in block {
            for (_, _, canon) in KmerIter::new(&rec.seq, k) {
                kmers.push(canon.kmer.packed());
            }
        }
        kmers
    });
    let owner = |&packed: &u64| (Kmer::from_packed(packed, k).hash64() % nprocs as u64) as usize;
    let words_per_kmer = (k as u64).div_ceil(32);
    alltoallv_counted(send, owner, stats, CommPhase::KmerCounting, words_per_kmer)
}

/// An open-addressing hash index over distinct packed k-mers kept in a slice
/// by the caller: a slot holds a position in that slice, or `EMPTY`.  Linear
/// probing from a Fibonacci multiply-shift hash, unrelated to the owner hash
/// [`Kmer::hash64`], at a power-of-two capacity of at least 2 slots per key.
#[derive(Clone, Default, Serialize, Deserialize)]
struct KmerIndex {
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
}

const EMPTY: u32 = u32::MAX;
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl KmerIndex {
    fn with_capacity(keys: usize) -> Self {
        assert!(keys < EMPTY as usize, "{keys} keys overflow a u32 position");
        let capacity = (2 * keys).next_power_of_two().max(2);
        Self { slots: vec![EMPTY; capacity], shift: 64 - capacity.trailing_zeros() }
    }

    /// An index over `keys`, which are distinct.
    fn over(keys: &[u64]) -> Self {
        let mut index = Self::with_capacity(keys.len());
        for (position, &key) in keys.iter().enumerate() {
            if let Err(slot) = index.find(keys, key) {
                index.slots[slot] = position as u32;
            }
        }
        index
    }

    /// `Ok(position)` of `key` in `keys`, the slice the index was built over,
    /// or `Err(slot)`: the empty slot where it would go.
    fn find(&self, keys: &[u64], key: u64) -> Result<u32, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut slot = (key.wrapping_mul(MULTIPLIER) >> self.shift) as usize;
        loop {
            match self.slots.get(slot) {
                None | Some(&EMPTY) => return Err(slot),
                Some(&position) if keys[position as usize] == key => return Ok(position),
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

impl std::fmt::Debug for KmerIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KmerIndex").field("slots", &self.slots.len()).finish()
    }
}

/// Tally a batch in place: its distinct k-mers move, in first-seen order, to
/// its front, and the returned `counts[i]` is how often `batch[i]` occurred.
fn tally(batch: &mut [u64]) -> Vec<u32> {
    if batch.is_empty() {
        return Vec::new();
    }
    let mut index = KmerIndex::with_capacity(batch.len());
    let mut counts = Vec::with_capacity(batch.len());
    for i in 0..batch.len() {
        let kmer = batch[i];
        match index.find(&batch[..counts.len()], kmer) {
            Ok(seen) => counts[seen as usize] += 1,
            Err(slot) => {
                index.slots[slot] = counts.len() as u32;
                batch[counts.len()] = kmer;
                counts.push(1);
            }
        }
    }
    counts
}

/// The table of reliable `(packed k-mer, count)` pairs, each k-mer once.
fn build_table(mut reliable: Vec<(u64, u32)>, sel: &KmerSelection) -> KmerTable {
    reliable.sort_unstable();
    let (packed, counts): (Vec<u64>, _) = reliable.into_iter().unzip();
    KmerTable { k: sel.k, index: KmerIndex::over(&packed), packed, counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasta::{parse_fasta, ReadRecord};
    use crate::simulate::DatasetSpec;
    use proptest::prelude::*;

    fn reads_from(seqs: &[&str]) -> ReadSet {
        let mut rs = ReadSet::new();
        for (i, s) in seqs.iter().enumerate() {
            rs.push(ReadRecord { name: format!("r{i}"), seq: s.parse().unwrap() });
        }
        rs
    }

    #[test]
    fn serial_counts_simple_case() {
        // "ACGTA" with k=3 has k-mers ACG, CGT, GTA.  Canonically CGT collapses
        // onto ACG (its reverse complement), so per read: ACG x2, GTA x1.
        // With two identical reads: ACG -> 4, GTA -> 2.
        let reads = reads_from(&["ACGTA", "ACGTA"]);
        let sel = KmerSelection { k: 3, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        assert_eq!(table.len(), 2);
        let acg = Kmer::from_ascii(b"ACG").unwrap().canonical().kmer;
        let gta = Kmer::from_ascii(b"GTA").unwrap().canonical().kmer;
        assert_eq!(table.count_at(table.column_of(&acg).unwrap()), 4);
        assert_eq!(table.count_at(table.column_of(&gta).unwrap()), 2);
    }

    #[test]
    fn singletons_are_discarded() {
        let reads = reads_from(&["AAAAAAAA", "CCCCCCCC"]);
        let sel = KmerSelection { k: 4, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        // AAAA appears 5 times in read 0; CCCC appears 5 times in read 1
        // (canonical of GGGG too).  Both are >= 2 so both survive.
        assert_eq!(table.len(), 2);

        let reads2 = reads_from(&["ACGTACGA"]);
        let sel2 = KmerSelection { k: 8, min_count: 2, max_count: 100 };
        let table2 = count_kmers_serial(&reads2, &sel2);
        assert!(table2.is_empty(), "a k-mer occurring once must be discarded");
    }

    #[test]
    fn high_frequency_kmers_are_discarded() {
        let reads = reads_from(&["AAAAAAAAAAAAAAAA"]);
        let sel = KmerSelection { k: 4, min_count: 2, max_count: 5 };
        let table = count_kmers_serial(&reads, &sel);
        assert!(table.is_empty(), "a 13-copy k-mer must exceed max_count=5");
    }

    #[test]
    fn canonical_forms_merge_forward_and_reverse_occurrences() {
        // Read 2 is the reverse complement of read 1: every canonical k-mer
        // should be counted twice.
        let fwd = "ACGGTTACGGAC";
        let rc: String = crate::dna::DnaSeq::from_ascii(fwd.as_bytes())
            .unwrap()
            .reverse_complement()
            .to_ascii();
        let reads = reads_from(&[fwd, &rc]);
        let sel = KmerSelection { k: 5, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        assert!(!table.is_empty());
        for (_, _, c) in table.iter() {
            assert!(c >= 2, "forward and reverse occurrences must merge");
        }
    }

    #[test]
    fn column_lookup_is_consistent() {
        let reads = reads_from(&["ACGTACGTACG", "ACGTACGTACG"]);
        let sel = KmerSelection { k: 4, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        for (col, kmer, _) in table.iter() {
            assert_eq!(table.column_of(&kmer), Some(col));
            assert_eq!(table.kmer_at(col), kmer);
        }
        let absent = Kmer::from_ascii(b"TTTT").unwrap().canonical().kmer;
        if table.column_of(&absent).is_some() {
            // Only possible if TTTT/AAAA actually occurs in the reads; it does not.
            panic!("absent k-mer must not have a column");
        }
    }

    #[test]
    fn distributed_matches_serial_on_simulated_data() {
        let ds = DatasetSpec::Tiny.generate(7);
        // At `min_count = 1` every k-mer counts, the sequencing errors'
        // singletons (most of the table) included.
        for (k, min_count) in [(11, 2), (13, 1)] {
            let sel = KmerSelection { k, min_count, max_count: 30 };
            let serial: Vec<_> = count_kmers_serial(&ds.reads, &sel).iter().collect();
            let singletons = serial.iter().filter(|&&(_, _, count)| count == 1).count();
            assert_eq!(2 * singletons > serial.len(), min_count == 1, "k={k}");
            for nprocs in [1usize, 2, 4, 9, 16] {
                let stats = CommStats::new();
                let dist = count_kmers_distributed(&ds.reads, &sel, nprocs, &stats);
                assert_eq!(dist.iter().collect::<Vec<_>>(), serial, "k={k} P={nprocs}");
            }
        }
    }

    #[test]
    fn distributed_communication_is_recorded_and_scales_with_ranks() {
        let ds = DatasetSpec::Tiny.generate(8);
        let sel = KmerSelection { k: 11, min_count: 2, max_count: 30 };
        let stats1 = CommStats::new();
        let _ = count_kmers_distributed(&ds.reads, &sel, 1, &stats1);
        assert_eq!(stats1.words(CommPhase::KmerCounting), 0, "single rank exchanges nothing");
        let stats4 = CommStats::new();
        let _ = count_kmers_distributed(&ds.reads, &sel, 4, &stats4);
        // One exchange, charged as the paper's two passes: 80 reads over 4
        // ranks, each sending one buffer to each of the 3 other owners.
        let once = CommStats::new();
        let _ = exchange(&ds.reads, &sel, 4, &once);
        assert!(once.words(CommPhase::KmerCounting) > 0);
        assert_eq!(stats4.words(CommPhase::KmerCounting), 2 * once.words(CommPhase::KmerCounting));
        assert_eq!(once.messages(CommPhase::KmerCounting), 4 * 3);
        assert_eq!(stats4.messages(CommPhase::KmerCounting), 2 * 4 * 3);
    }

    #[test]
    fn bella_bound_tracks_depth_and_error() {
        let low_depth = KmerSelection::with_bella_bound(17, 10.0, 0.15);
        let high_depth = KmerSelection::with_bella_bound(17, 40.0, 0.13);
        assert!(high_depth.max_count > low_depth.max_count);
        assert!(low_depth.max_count >= 4);
        assert_eq!(KmerSelection::paper_default().max_count, 4);
        assert_eq!(KmerSelection::paper_default().k, 17);
    }

    #[test]
    fn reads_shorter_than_k_are_skipped() {
        let reads = parse_fasta(">a\nACG\n>b\nACGTACGTAC\n>c\nACGTACGTAC\n").unwrap();
        let sel = KmerSelection { k: 5, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        assert!(!table.is_empty());
        // No panic and the 3-base read contributed nothing.
    }

    /// The largest packed k-mer, `T` x 31.
    const LARGEST_31MER: u64 = (1 << 62) - 1;

    /// The first `count` keys after 0 whose hashes share 0's top 12 bits: in
    /// an index of up to 4096 slots they all start probing at 0's home slot.
    fn colliding_keys(count: usize) -> Vec<u64> {
        let top = |key: u64| key.wrapping_mul(MULTIPLIER) >> 52;
        (1..).filter(|&key| top(key) == top(0)).take(count).collect()
    }

    #[test]
    fn index_on_empty_and_single_key_sets() {
        let empty = KmerIndex::over(&[]);
        for key in [0, 1, LARGEST_31MER, u64::MAX] {
            assert!(empty.find(&[], key).is_err());
        }
        for key in [0, 7, LARGEST_31MER] {
            let index = KmerIndex::over(&[key]);
            assert_eq!(index.find(&[key], key), Ok(0));
            assert!(index.find(&[key], key ^ 1).is_err());
        }
        assert!(format!("{:?}", KmerIndex::over(&[3, 5])).contains("slots: 4"), "size, not slots");
    }

    #[test]
    fn tally_of_an_empty_batch_is_empty() {
        assert!(tally(&mut []).is_empty());
    }

    #[test]
    fn column_of_misses_on_an_empty_table_and_another_k() {
        let any = Kmer::from_ascii(b"ACGTA").unwrap().canonical().kmer;
        assert_eq!(KmerTable::default().column_of(&any), None);
        let reads = reads_from(&["ACGTACGTACG", "ACGTACGTACG"]);
        let sel = KmerSelection { k: 4, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        let acgt = Kmer::from_ascii(b"ACGT").unwrap().canonical().kmer;
        assert!(table.column_of(&acgt).is_some());
        // The same packed value as a 5-mer: `AACGT`.
        let other_k = Kmer::from_packed(acgt.packed(), 5);
        assert_eq!(table.column_of(&other_k), None);
    }

    #[test]
    fn all_singletons_give_an_empty_table_and_poly_a_one_kmer() {
        // 400 pseudo-random bases: every canonical 15-mer occurs once.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let bases: String = (0..400)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state >> 60) as usize % 4] as char
            })
            .collect();
        let singletons = reads_from(&[&bases]);
        let sel = KmerSelection { k: 15, min_count: 1, max_count: 10 };
        let all = count_kmers_serial(&singletons, &sel);
        assert!(all.iter().all(|(_, _, count)| count == 1), "the input must hold singletons only");
        let poly_a = reads_from(&[&"A".repeat(21), &"T".repeat(21)]);
        for nprocs in [1, 16] {
            let stats = CommStats::new();
            let sel = KmerSelection { k: 15, min_count: 2, max_count: 10 };
            assert!(count_kmers_distributed(&singletons, &sel, nprocs, &stats).is_empty());
            // 11 windows per read, both reads on one canonical k-mer: 22.
            let sel = KmerSelection { k: 11, min_count: 2, max_count: 22 };
            let table = count_kmers_distributed(&poly_a, &sel, nprocs, &stats);
            let a11 = Kmer::from_packed(0, 11);
            assert_eq!((table.len(), table.column_of(&a11)), (1, Some(0)), "P={nprocs}");
            assert_eq!(table.count_at(0), 22);
            let sel = KmerSelection { max_count: 21, ..sel };
            assert!(count_kmers_distributed(&poly_a, &sel, nprocs, &stats).is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_index_lookup_equals_binary_search(
            random in proptest::collection::btree_set(0..=LARGEST_31MER, 0..600),
            queries in proptest::collection::vec(0..=LARGEST_31MER, 0..64),
            extremes in any::<bool>(),
            colliding in 0usize..24,
        ) {
            let mut keys = random;
            if extremes {
                keys.extend([0, LARGEST_31MER]);
            }
            keys.extend(colliding_keys(colliding));
            let keys: Vec<u64> = keys.into_iter().collect();
            let index = KmerIndex::over(&keys);
            prop_assert!(index.slots.len() >= 2 * keys.len());
            let more = colliding_keys(32);
            let probes = keys.iter().chain(&queries).chain(&more);
            for &key in probes.chain(&[0, LARGEST_31MER, u64::MAX]) {
                let found = index.find(&keys, key).ok().map(|position| position as usize);
                prop_assert_eq!(found, keys.binary_search(&key).ok());
            }
        }

        #[test]
        fn prop_tally_equals_sort_and_run_length(
            values in proptest::collection::vec(0..=LARGEST_31MER, 0..400),
            alphabet in 1u64..48,
            shape in 0usize..3,
        ) {
            let mut seen = std::collections::BTreeSet::new();
            let batch: Vec<u64> = match shape {
                0 => values.iter().map(|v| v % alphabet).collect(),
                1 => vec![values.first().copied().unwrap_or(0); values.len()],
                _ => values.iter().copied().filter(|&v| seen.insert(v)).collect(),
            };
            let mut tallied = batch.clone();
            let counts = tally(&mut tallied);
            let distinct = &tallied[..counts.len()];
            seen.clear();
            let first_seen: Vec<u64> = batch.iter().copied().filter(|&v| seen.insert(v)).collect();
            prop_assert_eq!(distinct, &first_seen[..]);
            let mut sorted = batch;
            sorted.sort_unstable();
            let runs: Vec<(u64, u32)> =
                sorted.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u32)).collect();
            let mut pairs: Vec<(u64, u32)> = distinct.iter().copied().zip(counts).collect();
            pairs.sort_unstable();
            prop_assert_eq!(pairs, runs);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_distributed_equals_serial(
            seed in 0u64..200,
            nprocs in 1usize..6,
            k in 4usize..10,
            min_count in 1u32..4,
            threads in (0u32..3).prop_map(|log2| 1usize << log2),
        ) {
            let ds = DatasetSpec::Tiny.generate_with_length(2_000, seed);
            let sel = KmerSelection { k, min_count, max_count: 50 };
            let serial: Vec<_> = count_kmers_serial(&ds.reads, &sel).iter().collect();
            let stats = CommStats::new();
            let dist = dibella_dist::with_threads(threads, || {
                count_kmers_distributed(&ds.reads, &sel, nprocs, &stats)
            });
            // Bit-identical: same columns, k-mers, counts and order.
            prop_assert_eq!(dist.iter().collect::<Vec<_>>(), serial);
        }
    }
}
