//! Two-pass distributed k-mer counting (Section IV-C of the paper).
//!
//! The counter mirrors the HipMer-style design diBELLA 2D uses:
//!
//! 1. every rank rolls over the canonical k-mers of its block of reads and
//!    sends each, as its packed `u64`, to an owner rank chosen by hashing
//!    (`MPI_Alltoallv`);
//! 2. **pass 1**: each owner sorts what it received and run-lengths it (KMC 3,
//!    HySortK).  A k-mer seen twice in the batch graduates to the owner's
//!    candidates at once; a batch-singleton goes through the owner's Bloom
//!    filter and graduates only if the filter has seen it before — singletons
//!    never occupy candidate memory;
//! 3. **pass 2**: the same exchange is repeated and owners add the run
//!    lengths to the candidates they find;
//! 4. k-mers whose count falls outside the reliable range
//!    `[min_count, max_count]` are discarded (the BELLA-style upper bound `d`
//!    removes repeat-induced high-frequency k-mers);
//! 5. surviving k-mers, in ascending order, receive consecutive column
//!    indices — they become the columns of the `|reads| x |k-mers|` matrix `A`.
//!
//! Steps 1–3 run once per **superstep** — a bounded batch of reads — with the
//! owners' state carried across supersteps and each owner folding its share
//! as its own pool task.  There is one implementation of them:
//! [`count_kmers_streaming`] drives it over a batch stream under an
//! [`IngestBudget`] and returns, beside the table, the [`IngestStats`] it
//! consumed (supersteps, largest batch, peak resident estimate);
//! [`count_kmers_distributed`] drives it over a resident read set as a single
//! superstep, and [`count_kmers_serial`], a plain hash-map count, is the
//! independent reference both are tested against.  Everything the fold
//! keeps is sorted, so no output depends on a hasher or a schedule.
//!
//! The k-mer exchange traffic is recorded under
//! [`CommPhase::KmerCounting`] with the paper's `k/4`-bytes-per-k-mer wire
//! format (2-bit packed), so the measured words can be compared against the
//! model `W = n·l·k/(4·P)` of Table I.

use crate::bloom::ScalableBloom;
use crate::fasta::{ReadRecord, ReadSet};
use crate::kmer::{Kmer, KmerIter};
use crate::stream::{IngestBudget, ReadBatch};
use dibella_dist::{alltoallv_counted, par_ranks, par_ranks_mut, BlockDist, CommPhase, CommStats};
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
}

/// The reliable k-mer table: canonical k-mers in ascending order, their
/// counts, and — a k-mer's position being its column — their column indices
/// in the `|reads| x |k-mers|` matrix `A`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KmerTable {
    k: usize,
    /// [`Kmer::packed`] of every k-mer, ascending.
    packed: Vec<u64>,
    counts: Vec<u32>,
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

    /// Column index of a canonical k-mer, if reliable (binary search).
    pub fn column_of(&self, canonical: &Kmer) -> Option<u32> {
        let column = self.packed.binary_search(&canonical.packed()).ok()?;
        (canonical.k() == self.k).then_some(column as u32)
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

/// Serial reference k-mer counter (used by tests and the minimizer baseline).
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
    build_table(counts, selection)
}

/// Distributed two-pass k-mer counter over `nprocs` virtual ranks.
///
/// Reads are block-partitioned over ranks; canonical k-mers are exchanged to
/// hash-assigned owner ranks twice (Bloom pass, then counting pass), exactly
/// as the paper's k-mer counter does.  This is the fold
/// [`count_kmers_streaming`] drives, with the resident set lent as a single
/// superstep: no stream, no budget, nothing that can fail.  Returns the same
/// table as [`count_kmers_serial`] for any `nprocs`.
pub fn count_kmers_distributed(
    reads: &ReadSet,
    selection: &KmerSelection,
    nprocs: usize,
    stats: &CommStats,
) -> KmerTable {
    let mut fold = TwoPassFold::new(selection, nprocs, stats);
    fold.superstep(extract(reads.records(), selection, nprocs), Owner::graduate);
    fold.start_counting();
    fold.superstep(extract(reads.records(), selection, nprocs), Owner::count);
    fold.into_table()
}

/// The two-pass counter over a stream of bounded [`ReadBatch`]es.
///
/// Each batch is one BSP **superstep**: every rank extracts the canonical
/// k-mers of its share of the batch, exchanges them to hash-assigned owners
/// via one `alltoallv`, and the owners fold the incoming k-mers into their
/// per-rank state before the next batch is touched — at no point is more
/// than one batch (plus its in-flight exchange buffers) resident.  The two
/// passes span the stream: pass 1's candidates and its [`ScalableBloom`] (the
/// stream's cardinality is unknown) carry over from superstep to superstep,
/// so k-mers seen twice anywhere in the stream graduate, and pass 2
/// re-streams the same input (`batches` is called once per pass).
///
/// For `selection.min_count >= 2` (the paper's setting) the returned table is
/// **bit-identical** to [`count_kmers_serial`] at every batch size and thread
/// count: Bloom false positives only graduate extra *singletons*, whose full
/// pass-2 count of 1 is then discarded by the reliable-range filter, and true
/// `count >= 2` k-mers always graduate (no false negatives).
///
/// Resource accounting under `budget`:
///
/// * the estimated resident bytes of every superstep (current batch +
///   exchange buffers on both sides + per-owner filter/candidate/count
///   state) are checked against `budget.max_resident_bytes`; exceeding it is
///   an `Err`, never silent growth;
/// * the returned [`IngestStats`] carries the supersteps per pass, the
///   largest batch and the peak of the resident estimate.
///
/// Both passes must observe the same stream: if the second call to `batches`
/// yields a different superstep or read count, the ingest fails.
pub fn count_kmers_streaming<'a, I, F>(
    mut batches: F,
    selection: &KmerSelection,
    nprocs: usize,
    budget: &IngestBudget,
    stats: &CommStats,
) -> Result<(KmerTable, IngestStats), String>
where
    I: Iterator<Item = Result<ReadBatch<'a>, String>>,
    F: FnMut() -> Result<I, String>,
{
    let mut fold = TwoPassFold::new(selection, nprocs, stats);
    let mut ingest = IngestStats::default();
    // One pass: a superstep per non-empty batch, budget-checked before its
    // exchange.  Returns the (supersteps, reads) the pass saw.
    let mut pass = |fold: &mut TwoPassFold<'_>, step| -> Result<(u64, usize), String> {
        let (mut steps, mut reads) = (0u64, 0usize);
        for batch in batches()? {
            let batch = batch?;
            if batch.is_empty() {
                continue;
            }
            steps += 1;
            reads += batch.len();
            let send = extract(&batch.records, selection, nprocs);
            let owner_state = fold.owners.iter().map(Owner::state_bytes).sum();
            ingest.observe(&batch, &send, owner_state, budget)?;
            fold.superstep(send, step);
        }
        Ok((steps, reads))
    };
    let (pass1_steps, pass1_reads) = pass(&mut fold, Owner::graduate)?;
    fold.start_counting();
    let (pass2_steps, pass2_reads) = pass(&mut fold, Owner::count)?;
    if pass2_steps != pass1_steps || pass2_reads != pass1_reads {
        return Err(format!(
            "streaming input changed between passes: pass 1 saw {pass1_reads} reads in \
             {pass1_steps} supersteps, pass 2 saw {pass2_reads} reads in {pass2_steps}"
        ));
    }
    ingest.supersteps = pass1_steps;
    Ok((fold.into_table(), ingest))
}

/// One superstep's extraction: every rank lists the packed canonical k-mers
/// of its block of the records, presized to its window count.  `k` is one
/// number per run, so the 8-byte value is the whole item (the *accounted*
/// wire size stays the paper's `⌈k/32⌉` words).  The lists are moved into
/// the exchange (consumed, not cloned), so a superstep's send side is
/// resident exactly once.
fn extract(records: &[ReadRecord], selection: &KmerSelection, nprocs: usize) -> Vec<Vec<u64>> {
    let dist = BlockDist::new(records.len(), nprocs);
    par_ranks(nprocs, |rank| {
        let block = &records[dist.range(rank)];
        let windows = block.iter().map(|r| (r.seq.len() + 1).saturating_sub(selection.k)).sum();
        let mut kmers = Vec::with_capacity(windows);
        for rec in block {
            for (_, _, canon) in KmerIter::new(&rec.seq, selection.k) {
                kmers.push(canon.kmer.packed());
            }
        }
        kmers
    })
}

/// Yield `(k-mer, occurrences)` for every run of a sorted batch.
fn runs(sorted: &[u64]) -> impl Iterator<Item = (u64, u32)> + '_ {
    sorted.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u32))
}

/// One owner's share of the counter's state.  It persists across supersteps
/// so k-mers whose occurrences land in different batches still graduate.
#[derive(Default)]
struct Owner {
    /// Pass 1's filter chain: sized by the first superstep, gone in pass 2
    /// (so the resident estimate drops accordingly).
    bloom: Option<ScalableBloom>,
    /// The candidates pass 1 graduated, ascending and distinct …
    sorted: Vec<u64>,
    /// … plus those graduated since the last merge, in arrival order and
    /// absent from `sorted` (a k-mer may repeat here until the merge).
    tail: Vec<u64>,
    /// Pass 2: occurrences of `sorted[i]`.
    counts: Vec<u32>,
}

impl Owner {
    /// Pass 1.  A run of two graduates on the spot; only batch-singletons
    /// reach the filter.  A k-mer with global count >= 2 still always
    /// graduates — two of its occurrences share a batch, or the second
    /// singleton finds the first in the filter (no false negatives) — and a
    /// false positive still only graduates a true singleton, which pass 2
    /// counts as 1.
    fn graduate(&mut self, batch: &mut [u64]) {
        batch.sort_unstable();
        // First stage sized for the first superstep's singletons: with a
        // single superstep that is every key the filter will ever see and
        // the chain never grows; later stages double.  (Their bytes enter
        // the resident estimate from the next superstep on; at ~1.2 B per
        // singleton they sit well inside the 2x the estimate charges for
        // this superstep's 8 B-per-k-mer exchange.)
        let bloom = self.bloom.get_or_insert_with(|| {
            ScalableBloom::with_rate(runs(batch).filter(|run| run.1 == 1).count(), 0.01)
        });
        for (kmer, occurrences) in runs(batch) {
            let known = self.sorted.binary_search(&kmer).is_ok();
            if !known && (occurrences >= 2 || bloom.insert(kmer)) {
                self.tail.push(kmer);
            }
        }
        // Merging costs O(state), so it waits until the tail is as long as
        // the run it joins: amortised O(log state) per graduation, never
        // O(state) per superstep.
        if self.tail.len() >= self.sorted.len().max(1024) {
            self.merge_tail();
        }
    }

    fn merge_tail(&mut self) {
        self.sorted.extend(std::mem::take(&mut self.tail));
        self.sorted.sort_unstable();
        self.sorted.dedup();
    }

    /// Pass 2: add each run's length to its candidate, if it is one.
    fn count(&mut self, batch: &mut [u64]) {
        batch.sort_unstable();
        for (kmer, occurrences) in runs(batch) {
            if let Ok(i) = self.sorted.binary_search(&kmer) {
                self.counts[i] += occurrences;
            }
        }
    }

    /// Heap bytes of the persistent state: filter chain, candidates, counts.
    fn state_bytes(&self) -> u64 {
        let bloom = self.bloom.as_ref().map_or(0, ScalableBloom::resident_bytes);
        let kmers = (self.sorted.capacity() + self.tail.capacity()) * std::mem::size_of::<u64>();
        (bloom + kmers + std::mem::size_of_val(self.counts.as_slice())) as u64
    }
}

/// The owner-side state of the two-pass counter, folded a superstep at a time.
struct TwoPassFold<'a> {
    selection: &'a KmerSelection,
    stats: &'a CommStats,
    owners: Vec<Owner>,
}

impl<'a> TwoPassFold<'a> {
    fn new(selection: &'a KmerSelection, nprocs: usize, stats: &'a CommStats) -> Self {
        assert!(nprocs > 0);
        Self { selection, stats, owners: (0..nprocs).map(|_| Owner::default()).collect() }
    }

    /// Exchange one superstep's k-mers to their owners (a hash of the
    /// canonical k-mer) and let each owner fold what it receives with `step`,
    /// as its own task (its state is its own).
    fn superstep(&mut self, send: Vec<Vec<u64>>, step: fn(&mut Owner, &mut [u64])) {
        let (k, nprocs) = (self.selection.k, self.owners.len() as u64);
        let owner = |&packed: &u64| (Kmer::from_packed(packed, k).hash64() % nprocs) as usize;
        // The wire format is 2-bit packed, i.e. k/4 bytes per k-mer: that is
        // ceil(k/32) 8-byte words.
        let words_per_kmer = (k as u64).div_ceil(32);
        let incoming =
            alltoallv_counted(send, owner, self.stats, CommPhase::KmerCounting, words_per_kmer);
        let mut folds: Vec<(&mut Owner, Vec<u64>)> = self.owners.iter_mut().zip(incoming).collect();
        par_ranks_mut(&mut folds, |_, (owner, batch)| step(owner, batch));
    }

    /// End pass 1: only the candidates survive into pass 2.
    fn start_counting(&mut self) {
        par_ranks_mut(&mut self.owners, |_, owner| {
            owner.bloom = None;
            owner.merge_tail();
            owner.counts = vec![0; owner.sorted.len()];
        });
    }

    /// Owners partition the k-mer space by hash, so the per-owner tables are
    /// disjoint and the result is their plain union.  Because the Bloom
    /// filter may produce false positives on the *first* occurrence of a
    /// k-mer, a candidate's pass-2 count can still be 1; the reliable-range
    /// filter removes those, matching the serial counter.
    fn into_table(self) -> KmerTable {
        let counted = self.owners.into_iter().flat_map(|o| o.sorted.into_iter().zip(o.counts));
        build_table(counted, self.selection)
    }
}

/// What a streaming ingest consumed: its supersteps and the peaks of its
/// resident-byte estimate (all zero for a run that counts nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Supersteps (non-empty batches) per pass.
    pub supersteps: u64,
    /// Bytes of the largest batch.
    pub batch_bytes_peak: u64,
    /// Peak estimated resident bytes of any superstep.
    pub resident_bytes_peak: u64,
}

impl IngestStats {
    /// Fold one superstep into the peaks and enforce the resident budget.
    ///
    /// The estimate charges the batch itself, the send lists twice (send and
    /// receive sides are briefly co-resident inside the all-to-all) and the
    /// persistent owner state.
    fn observe(
        &mut self,
        batch: &ReadBatch<'_>,
        send: &[Vec<u64>],
        owner_state: u64,
        budget: &IngestBudget,
    ) -> Result<(), String> {
        let batch_bytes = batch.bytes() as u64;
        let slots: usize = send.iter().map(Vec::capacity).sum();
        let exchange_bytes = (slots * std::mem::size_of::<u64>()) as u64;
        let resident = batch_bytes + 2 * exchange_bytes + owner_state;
        self.batch_bytes_peak = self.batch_bytes_peak.max(batch_bytes);
        self.resident_bytes_peak = self.resident_bytes_peak.max(resident);
        if resident > budget.max_resident_bytes as u64 {
            return Err(format!(
                "streaming ingest over budget: estimated {resident} resident bytes \
                 (batch {batch_bytes} + exchange 2x{exchange_bytes} + owner state \
                 {owner_state}) exceeds max_resident_bytes = {}; lower \
                 max_batch_reads/max_batch_bytes or raise the budget",
                budget.max_resident_bytes
            ));
        }
        Ok(())
    }
}

/// The table of the reliable among `(packed k-mer, count)` pairs.
fn build_table(counts: impl IntoIterator<Item = (u64, u32)>, sel: &KmerSelection) -> KmerTable {
    let in_range = |&(_, count): &(u64, u32)| (sel.min_count..=sel.max_count).contains(&count);
    let mut reliable: Vec<(u64, u32)> = counts.into_iter().filter(in_range).collect();
    reliable.sort_unstable();
    let (packed, counts) = reliable.into_iter().unzip();
    KmerTable { k: sel.k, packed, counts }
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
        let sel = KmerSelection { k: 11, min_count: 2, max_count: 30 };
        let serial = count_kmers_serial(&ds.reads, &sel);
        for nprocs in [1usize, 2, 4, 9] {
            let stats = CommStats::new();
            let dist = count_kmers_distributed(&ds.reads, &sel, nprocs, &stats);
            assert_eq!(dist.len(), serial.len(), "table size mismatch at P={nprocs}");
            for (col, kmer, count) in serial.iter() {
                let dcol = dist.column_of(&kmer).expect("k-mer missing in distributed table");
                assert_eq!(dist.count_at(dcol), count, "count mismatch for column {col}");
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
        assert!(stats4.words(CommPhase::KmerCounting) > 0);
        assert!(stats4.messages(CommPhase::KmerCounting) > 0);
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

    /// Assert two tables are bit-identical: same columns, same k-mers, same
    /// counts, same order.
    fn assert_tables_identical(a: &KmerTable, b: &KmerTable, ctx: &str) {
        assert_eq!(a.len(), b.len(), "table size mismatch ({ctx})");
        for ((ca, ka, na), (cb, kb, nb)) in a.iter().zip(b.iter()) {
            assert_eq!(ca, cb, "column order mismatch ({ctx})");
            assert_eq!(ka, kb, "k-mer mismatch at column {ca} ({ctx})");
            assert_eq!(na, nb, "count mismatch at column {ca} ({ctx})");
        }
    }

    #[test]
    fn streaming_matches_serial_at_fixed_batch_sizes_and_threads() {
        use crate::stream::{read_set_batches, IngestBudget};
        let ds = DatasetSpec::Tiny.generate(11);
        let sel = KmerSelection { k: 11, min_count: 2, max_count: 30 };
        let serial = count_kmers_serial(&ds.reads, &sel);
        for nprocs in [1usize, 3] {
            for max_batch_reads in [1usize, 7, 64, usize::MAX] {
                for threads in [1usize, 2, 4] {
                    let budget = IngestBudget::with_batch_reads(max_batch_reads);
                    let stats = CommStats::new();
                    let (streamed, ingest) = dibella_dist::with_threads(threads, || {
                        count_kmers_streaming(
                            || Ok(read_set_batches(&ds.reads, budget)),
                            &sel,
                            nprocs,
                            &budget,
                            &stats,
                        )
                    })
                    .unwrap();
                    let ctx = format!("P={nprocs} b={max_batch_reads} t={threads}");
                    assert_tables_identical(&streamed, &serial, &ctx);
                    assert_eq!(
                        ingest.supersteps as usize,
                        ds.reads.len().div_ceil(max_batch_reads.min(ds.reads.len())),
                        "superstep count ({ctx})"
                    );
                    assert!(ingest.batch_bytes_peak > 0);
                    assert!(ingest.resident_bytes_peak >= ingest.batch_bytes_peak);
                }
            }
        }
    }

    #[test]
    fn streaming_batch_bytes_peak_is_exactly_the_largest_batch() {
        // The exchange consumes its send buffers, so the recorded peak must
        // equal the largest batch exactly — any residual cloning/doubling of
        // batch state would inflate it.
        use crate::stream::{read_set_batches, IngestBudget};
        let ds = DatasetSpec::Tiny.generate(12);
        let budget = IngestBudget::with_batch_reads(5);
        let expected_peak = read_set_batches(&ds.reads, budget)
            .map(|b| b.unwrap().bytes() as u64)
            .max()
            .unwrap();
        let sel = KmerSelection { k: 9, min_count: 2, max_count: 40 };
        let stats = CommStats::new();
        let (_, ingest) = count_kmers_streaming(
            || Ok(read_set_batches(&ds.reads, budget)),
            &sel,
            4,
            &budget,
            &stats,
        )
        .unwrap();
        assert_eq!(ingest.batch_bytes_peak, expected_peak);
    }

    #[test]
    fn streaming_enforces_the_resident_budget() {
        use crate::stream::{read_set_batches, IngestBudget};
        let ds = DatasetSpec::Tiny.generate(13);
        let sel = KmerSelection { k: 11, min_count: 2, max_count: 30 };
        // A 1-byte resident budget must fail loudly, not grow silently.
        let mut budget = IngestBudget::with_batch_reads(4);
        budget.max_resident_bytes = 1;
        let stats = CommStats::new();
        let err = count_kmers_streaming(
            || Ok(read_set_batches(&ds.reads, budget)),
            &sel,
            2,
            &budget,
            &stats,
        )
        .unwrap_err();
        assert!(err.contains("over budget"), "unexpected error: {err}");
        assert!(err.contains("max_resident_bytes = 1"), "unexpected error: {err}");
    }

    #[test]
    fn streaming_rejects_input_that_changes_between_passes() {
        use crate::stream::{read_set_batches, IngestBudget};
        let ds_a = DatasetSpec::Tiny.generate(14);
        let ds_b = DatasetSpec::Tiny.generate(15);
        let sel = KmerSelection { k: 11, min_count: 2, max_count: 30 };
        let budget = IngestBudget::with_batch_reads(8);
        let stats = CommStats::new();
        let mut pass = 0;
        let err = count_kmers_streaming(
            || {
                pass += 1;
                Ok(read_set_batches(if pass == 1 { &ds_a.reads } else { &ds_b.reads }, budget))
            },
            &sel,
            2,
            &budget,
            &stats,
        )
        .unwrap_err();
        assert!(err.contains("changed between passes"), "unexpected error: {err}");
    }

    #[test]
    fn streaming_propagates_batch_errors() {
        use crate::stream::IngestBudget;
        let sel = KmerSelection { k: 5, min_count: 2, max_count: 30 };
        let budget = IngestBudget::unbounded();
        let stats = CommStats::new();
        let err = count_kmers_streaming(
            || Ok(std::iter::once(Err("bad record".to_string()))),
            &sel,
            2,
            &budget,
            &stats,
        )
        .unwrap_err();
        assert_eq!(err, "bad record");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_streaming_equals_serial_at_random_batch_sizes(
            seed in 0u64..200,
            max_batch_reads in 1usize..=64,
            nprocs in 1usize..6,
            threads_idx in 0usize..3,
        ) {
            use crate::stream::{read_set_batches, IngestBudget};
            let threads = [1usize, 2, 4][threads_idx];
            let ds = DatasetSpec::Tiny.generate_with_length(2_000, seed);
            let sel = KmerSelection { k: 9, min_count: 2, max_count: 50 };
            let serial = count_kmers_serial(&ds.reads, &sel);
            let budget = IngestBudget::with_batch_reads(max_batch_reads);
            let stats = CommStats::new();
            let streamed = dibella_dist::with_threads(threads, || {
                count_kmers_streaming(
                    || Ok(read_set_batches(&ds.reads, budget)),
                    &sel,
                    nprocs,
                    &budget,
                    &stats,
                )
            });
            let (streamed, ingest) = streamed.unwrap();
            prop_assert_eq!(streamed.len(), serial.len());
            for ((ca, ka, na), (cb, kb, nb)) in streamed.iter().zip(serial.iter()) {
                prop_assert_eq!(ca, cb);
                prop_assert_eq!(ka, kb);
                prop_assert_eq!(na, nb);
            }
            prop_assert_eq!(ingest.supersteps as usize, ds.reads.len().div_ceil(max_batch_reads));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_distributed_equals_serial(
            seed in 0u64..200,
            nprocs in 1usize..6,
            k in 4usize..10,
        ) {
            let ds = DatasetSpec::Tiny.generate_with_length(2_000, seed);
            let sel = KmerSelection { k, min_count: 2, max_count: 50 };
            let serial = count_kmers_serial(&ds.reads, &sel);
            let stats = CommStats::new();
            let dist = count_kmers_distributed(&ds.reads, &sel, nprocs, &stats);
            prop_assert_eq!(serial.len(), dist.len());
            for (_, kmer, count) in serial.iter() {
                let col = dist.column_of(&kmer);
                prop_assert!(col.is_some());
                prop_assert_eq!(dist.count_at(col.unwrap()), count);
            }
        }
    }
}
