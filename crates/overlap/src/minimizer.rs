//! A minimap2-style minimizer overlapper (comparison baseline).
//!
//! Section VII-B compares diBELLA 2D against minimap2, noting that "minimap2
//! does not perform base-level pairwise alignment and instead estimates
//! pairwise similarity from the number of shared minimizers, making it
//! significantly faster".  This module reproduces that design point: reads are
//! sketched with `(w, k)` minimizers, pairs sharing enough minimizers are
//! reported with an overlap span estimated from the minimizer hit positions,
//! and no alignment is performed.  It is deliberately a shared-memory
//! algorithm (minimap2 has no distributed mode), parallelised over reads on
//! the pool, mirroring its 32-OpenMP-thread single-node usage in the paper.

use dibella_seq::{windowed_minimizers, ReadSet};
use rayon::pool;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Minimizer sketching and overlap-calling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinimizerConfig {
    /// k-mer length of the minimizers (minimap2 default for CLR data: 15).
    pub k: usize,
    /// Window length: one minimizer is selected from every `w` consecutive k-mers.
    pub w: usize,
    /// Minimum number of shared minimizers to report an overlap.
    pub min_shared: usize,
    /// Minimum estimated overlap span (bases) to report.
    pub min_span: usize,
    /// Minimizers occurring in more than this many reads are masked as
    /// repetitive (minimap2's high-frequency filter).
    pub max_occurrences: usize,
}

impl Default for MinimizerConfig {
    fn default() -> Self {
        Self { k: 15, w: 10, min_shared: 3, min_span: 500, max_occurrences: 200 }
    }
}

impl MinimizerConfig {
    /// Settings for the short reads used in tests.
    pub fn for_tests(k: usize) -> Self {
        Self { k, w: 5, min_shared: 2, min_span: 60, max_occurrences: 500 }
    }
}

/// An approximate overlap reported by the minimizer overlapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinimizerOverlap {
    /// First read (smaller index).
    pub read_a: usize,
    /// Second read (larger index).
    pub read_b: usize,
    /// Number of shared minimizers.
    pub shared: usize,
    /// Estimated overlap span in bases (max hit extent on read a).
    pub span: usize,
    /// Whether the overlap is same-strand.
    pub same_strand: bool,
}

/// One minimizer of one read.
#[derive(Debug, Clone, Copy)]
struct MinimizerHit {
    read: u32,
    pos: u32,
    forward: bool,
}

/// Find approximate overlaps between all read pairs sharing minimizers.
pub fn minimizer_overlaps(reads: &ReadSet, config: &MinimizerConfig) -> Vec<MinimizerOverlap> {
    // Sketch every read in parallel: for every window of `w` consecutive
    // k-mers, the canonical k-mer with the smallest hash is kept.
    let sketches: Vec<Vec<(u64, u32, bool)>> =
        pool::map_indexed(reads.len(), |i| windowed_minimizers(reads.seq(i), config.k, config.w));

    // Index: minimizer hash -> hits.  BTreeMap, not HashMap: `values()` below
    // feeds the pair statistics, so its iteration order must be deterministic.
    let mut index: BTreeMap<u64, Vec<MinimizerHit>> = BTreeMap::new();
    for (read, sk) in sketches.iter().enumerate() {
        for &(hash, pos, forward) in sk {
            index.entry(hash).or_default().push(MinimizerHit { read: read as u32, pos, forward });
        }
    }
    // Mask repetitive minimizers.
    index.retain(|_, hits| hits.len() <= config.max_occurrences);

    // Collect per-pair hit statistics.
    #[derive(Default, Clone, Copy)]
    struct PairStat {
        shared_same: usize,
        shared_diff: usize,
        min_a: u32,
        max_a: u32,
    }
    let mut pairs: BTreeMap<(u32, u32), PairStat> = BTreeMap::new();
    for hits in index.values() {
        for (x, a) in hits.iter().enumerate() {
            for b in hits.iter().skip(x + 1) {
                if a.read == b.read {
                    continue;
                }
                let (lo, hi, lo_hit) =
                    if a.read < b.read { (a.read, b.read, a) } else { (b.read, a.read, b) };
                let entry = pairs.entry((lo, hi)).or_insert(PairStat {
                    shared_same: 0,
                    shared_diff: 0,
                    min_a: lo_hit.pos,
                    max_a: lo_hit.pos,
                });
                if a.forward == b.forward {
                    entry.shared_same += 1;
                } else {
                    entry.shared_diff += 1;
                }
                entry.min_a = entry.min_a.min(lo_hit.pos);
                entry.max_a = entry.max_a.max(lo_hit.pos);
            }
        }
    }

    // `pairs` iterates in `(read_a, read_b)` order, so the output is sorted.
    pairs
        .into_iter()
        .filter_map(|((a, b), stat)| {
            let shared = stat.shared_same.max(stat.shared_diff);
            let span = (stat.max_a - stat.min_a) as usize + config.k;
            if shared >= config.min_shared && span >= config.min_span {
                Some(MinimizerOverlap {
                    read_a: a as usize,
                    read_b: b as usize,
                    shared,
                    span,
                    same_strand: stat.shared_same >= stat.shared_diff,
                })
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_seq::{DatasetSpec, DnaSeq, KmerIter, ReadRecord};

    /// The pre-extraction `(w, k)` sketch implementation, kept verbatim as a
    /// regression oracle: the shared `windowed_minimizers` the overlapper now
    /// delegates to must stay bit-identical to it.
    fn sketch_pre_extraction(seq: &DnaSeq, k: usize, w: usize) -> Vec<(u64, u32, bool)> {
        if seq.len() < k {
            return Vec::new();
        }
        let hashes: Vec<(u64, u32, bool)> = KmerIter::new(seq, k)
            .map(|(pos, kmer, _)| {
                let canon = kmer.canonical();
                (canon.kmer.hash64(), pos as u32, canon.was_forward)
            })
            .collect();
        let mut out: Vec<(u64, u32, bool)> = Vec::new();
        if hashes.len() <= w {
            if let Some(min) = hashes.iter().min_by_key(|(h, _, _)| *h) {
                out.push(*min);
            }
            return out;
        }
        for window in hashes.windows(w) {
            let min = window.iter().min_by_key(|(h, _, _)| *h).unwrap();
            if out.last().is_none_or(|last| last.1 != min.1) {
                out.push(*min);
            }
        }
        out
    }

    #[test]
    fn extracted_sketch_is_bit_identical_to_the_pre_extraction_logic() {
        let ds = DatasetSpec::Small.generate(42);
        for (k, w) in [(13usize, 5usize), (15, 10), (17, 8), (13, 1)] {
            for i in 0..ds.reads.len() {
                let seq = ds.reads.seq(i);
                assert_eq!(
                    windowed_minimizers(seq, k, w),
                    sketch_pre_extraction(seq, k, w),
                    "sketch diverged for read {i} at (k={k}, w={w})"
                );
            }
        }
        // Degenerate lengths: shorter than k, exactly k, fewer k-mers than w.
        for ascii in ["", "ACG", "ACGTACGTACGTA", "ACGTACGTACGTACG"] {
            let seq: DnaSeq = ascii.parse().unwrap();
            assert_eq!(windowed_minimizers(&seq, 13, 5), sketch_pre_extraction(&seq, 13, 5));
        }
    }

    #[test]
    fn sketch_is_sparser_than_the_kmer_set() {
        let ds = DatasetSpec::Tiny.generate(21);
        let seq = ds.reads.seq(0);
        let sk = windowed_minimizers(seq, 13, 8);
        let total_kmers = seq.len() - 13 + 1;
        assert!(!sk.is_empty());
        assert!(sk.len() < total_kmers / 2, "minimizers must subsample the k-mers");
        // Positions must be increasing (windows slide left to right).
        for w in sk.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn sketch_of_a_read_and_its_reverse_complement_share_hashes() {
        let ds = DatasetSpec::Tiny.generate(22);
        let seq = ds.reads.seq(0);
        let rc = seq.reverse_complement();
        let hashes = |seq: &DnaSeq| -> std::collections::HashSet<u64> {
            windowed_minimizers(seq, 13, 6).iter().map(|x| x.0).collect()
        };
        let (h1, h2) = (hashes(seq), hashes(&rc));
        let inter = h1.intersection(&h2).count();
        assert!(
            inter * 2 >= h1.len().min(h2.len()),
            "canonical minimizers should be largely strand-invariant ({inter} shared)"
        );
    }

    #[test]
    fn overlapping_reads_are_reported() {
        let ds = DatasetSpec::Tiny.generate(23);
        let cfg = MinimizerConfig::for_tests(13);
        let overlaps = minimizer_overlaps(&ds.reads, &cfg);
        assert!(!overlaps.is_empty(), "a 12x dataset must produce minimizer overlaps");
        // The clear majority of reported pairs should be genuine genomic overlaps.
        let mut genuine = 0usize;
        for o in &overlaps {
            if ds.true_overlap(o.read_a, o.read_b) > 0 {
                genuine += 1;
            }
        }
        assert!(
            genuine * 10 >= overlaps.len() * 7,
            "only {genuine}/{} reported overlaps are genuine",
            overlaps.len()
        );
    }

    #[test]
    fn unrelated_reads_are_not_reported() {
        // Two disjoint random genomes cannot share long minimizer chains.
        let a = DatasetSpec::Tiny.generate_with_length(2_000, 31);
        let b = DatasetSpec::Tiny.generate_with_length(2_000, 77);
        let mut reads = dibella_seq::ReadSet::new();
        reads.push(ReadRecord { name: "a".into(), seq: a.genome.slice(0, 1500) });
        reads.push(ReadRecord { name: "b".into(), seq: b.genome.slice(0, 1500) });
        let cfg = MinimizerConfig::for_tests(13);
        let overlaps = minimizer_overlaps(&reads, &cfg);
        assert!(overlaps.is_empty(), "unrelated sequences must not overlap: {overlaps:?}");
    }

    #[test]
    fn strand_calls_match_ground_truth_orientation() {
        let ds = DatasetSpec::Tiny.generate(25);
        let cfg = MinimizerConfig::for_tests(13);
        let overlaps = minimizer_overlaps(&ds.reads, &cfg);
        let mut checked = 0;
        let mut correct = 0;
        for o in &overlaps {
            if ds.true_overlap(o.read_a, o.read_b) > 200 {
                checked += 1;
                let same = ds.origins[o.read_a].strand == ds.origins[o.read_b].strand;
                if same == o.same_strand {
                    correct += 1;
                }
            }
        }
        assert!(checked > 0);
        assert!(correct * 10 >= checked * 8, "strand calls too often wrong: {correct}/{checked}");
    }
}
