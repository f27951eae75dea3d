//! k-min-mer construction: canonical tuples of consecutive minimizers.
//!
//! A k-min-mer is `kmm` consecutive density-selected minimizers of a read's
//! homopolymer-compressed sequence.  Like a canonical k-mer, a
//! k-min-mer must have a strand-invariant identity: the reverse complement of
//! a read yields the same minimizer hashes in reverse order (canonical k-mer
//! hashes are strand-invariant), so the canonical form of a k-min-mer is the
//! lexicographically smaller of its hash tuple and that tuple reversed.
//!
//! Each occurrence is anchored for alignment seeding exactly like an exact
//! k-mer occurrence: [`KminmerHit::pos`] is the **raw** start coordinate of
//! the *leading minimizer of the canonical tuple* (the positionally first
//! minimizer when the occurrence is forward-canonical, the positionally last
//! when reverse-canonical), and [`KminmerHit::forward`] is that minimizer's
//! canonical orientation.  Two reads sharing a k-min-mer then satisfy the
//! same invariants `OverlapSemiring` and the x-drop seeding transform assume
//! for shared canonical k-mers: equal `forward` flags mean the `k`-base
//! windows at the two positions match (in HPC space), and unequal flags mean
//! one window matches the reverse complement of the other.

use crate::config::SketchConfig;
use dibella_seq::hpc::HpcSeq;
use dibella_seq::sketch::density_minimizers;
use dibella_seq::DnaSeq;

/// One k-min-mer occurrence in one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KminmerHit {
    /// Strand-invariant identity: a 64-bit hash of the canonical minimizer
    /// hash tuple.
    pub key: u64,
    /// Raw start coordinate (in the read as stored) of the leading minimizer
    /// of the canonical tuple.  Always `<= read_len - k`, so a `k`-base seed
    /// window at `pos` is in bounds.
    pub pos: u32,
    /// The canonical orientation of the leading minimizer at `pos` — the
    /// same flag an exact [`KmerOccurrence`](dibella_overlap::KmerOccurrence)
    /// stores, so `OverlapSemiring`'s `same_strand = a.forward == b.forward`
    /// exactly encodes whether the two anchor windows match directly or
    /// reverse-complemented.
    pub forward: bool,
}

/// The k-min-mer sketch of one read, plus the counters the achieved-density
/// and HPC-ratio accounting needs.
#[derive(Debug, Clone, Default)]
pub struct ReadSketch {
    /// Distinct k-min-mer occurrences (first occurrence per key, in position
    /// order).
    pub hits: Vec<KminmerHit>,
    /// Number of minimizers selected from this read.
    pub minimizers: u64,
    /// Number of sketch-space k-mer windows the selection ran over.
    pub kmers: u64,
    /// Raw read length in bases.
    pub raw_len: u64,
    /// Sketch-space (homopolymer-compressed) length.
    pub sketch_len: u64,
}

/// Combine a tuple element into a running 64-bit tuple hash
/// (boost-`hash_combine` style; order-sensitive by construction).
fn combine(acc: u64, h: u64) -> u64 {
    acc ^ h
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(acc << 6)
        .wrapping_add(acc >> 2)
}

/// The canonical key of a window of minimizers, and whether it reads the
/// window forward: the hash tuple is folded in whichever direction is
/// lexicographically no greater (forward for a palindromic tuple).
fn canonical_key(window: &[(u64, u32, bool)]) -> (u64, bool) {
    let hashes = window.iter().map(|m| m.0);
    let forward = hashes.clone().le(hashes.clone().rev());
    let seed = 0xcbf2_9ce4_8422_2325;
    let key = if forward { hashes.fold(seed, combine) } else { hashes.rev().fold(seed, combine) };
    (key, forward)
}

/// Compute the k-min-mer sketch of one read.
///
/// Minimizers are density-selected over the homopolymer-compressed
/// sequence; every window of `cfg.kmm` consecutive minimizers
/// becomes one canonical k-min-mer occurrence anchored at the raw coordinate
/// of its leading minimizer.  Duplicate keys within the read keep their first
/// occurrence, mirroring the exact `A` matrix's one-position-per-nonzero
/// rule.
pub fn sketch_read(seq: &DnaSeq, cfg: &SketchConfig) -> ReadSketch {
    assert!(cfg.kmm >= 1, "a k-min-mer needs at least one minimizer");
    let mut sketch = ReadSketch {
        raw_len: seq.len() as u64,
        ..ReadSketch::default()
    };

    // Stage 1: homopolymer compression (keeping the exact coordinate map).
    let hpc = HpcSeq::compress(seq);
    let space = hpc.compressed();
    let to_raw = |p: u32| hpc.decompress_coord(p as usize) as u32;
    sketch.sketch_len = space.len() as u64;
    sketch.kmers = (space.len() + 1).saturating_sub(cfg.k) as u64;

    // Stage 2: density-bound minimizer selection in sketch space.
    let mins = density_minimizers(space, cfg.k, cfg.density);
    sketch.minimizers = mins.len() as u64;
    if mins.len() < cfg.kmm {
        return sketch;
    }

    // Stage 3: canonical k-min-mers over consecutive minimizer windows.
    #[expect(clippy::disallowed_types, reason = "membership only: inserted into, never iterated")]
    let mut seen = std::collections::HashSet::new();
    for window in mins.windows(cfg.kmm) {
        let (key, forward) = canonical_key(window);
        if !seen.insert(key) {
            continue;
        }
        let leading = if forward { window[0] } else { window[cfg.kmm - 1] };
        sketch.hits.push(KminmerHit { key, pos: to_raw(leading.1), forward: leading.2 });
    }
    sketch
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_seq::DatasetSpec;
    use std::collections::HashMap;

    fn cfg() -> SketchConfig {
        SketchConfig::for_tests(13)
    }

    #[test]
    fn sketch_is_much_sparser_than_the_kmer_set() {
        let ds = DatasetSpec::Tiny.generate(31);
        let seq = ds.reads.seq(0);
        let sk = sketch_read(seq, &cfg());
        assert!(!sk.hits.is_empty());
        assert!(sk.kmers > 0 && sk.minimizers > 0);
        // k-min-mers are bounded by minimizers, which are ~density of k-mers.
        assert!(sk.hits.len() as u64 <= sk.minimizers);
        assert!((sk.minimizers as f64) < sk.kmers as f64 * 0.4);
        // HPC shortens the sequence.
        assert!(sk.sketch_len < sk.raw_len);
    }

    #[test]
    fn keys_are_strand_invariant_and_orientations_flip() {
        let ds = DatasetSpec::Tiny.generate(32);
        let seq = ds.reads.seq(0);
        let rc = seq.reverse_complement();
        let fwd = sketch_read(seq, &cfg());
        let rev = sketch_read(&rc, &cfg());
        let fwd_keys: HashMap<u64, bool> = fwd.hits.iter().map(|h| (h.key, h.forward)).collect();
        let rev_keys: HashMap<u64, bool> = rev.hits.iter().map(|h| (h.key, h.forward)).collect();
        assert_eq!(
            fwd.hits.len(),
            rev.hits.len(),
            "reverse complement must yield the same k-min-mers"
        );
        let mut flipped = 0usize;
        for (key, f) in &fwd_keys {
            let r = rev_keys.get(key).expect("key missing from reverse complement sketch");
            if *r != *f {
                flipped += 1;
            }
        }
        // Every non-palindromic tuple flips orientation on the other strand.
        assert!(flipped * 10 >= fwd_keys.len() * 9, "{flipped}/{} flipped", fwd_keys.len());
    }

    #[test]
    fn anchor_positions_are_seed_safe_and_hold_the_leading_minimizer() {
        let ds = DatasetSpec::Tiny.generate(33);
        let c = cfg();
        for i in 0..ds.reads.len() {
            let seq = ds.reads.seq(i);
            let sk = sketch_read(seq, &c);
            for hit in &sk.hits {
                assert!(
                    (hit.pos as usize) + c.k <= seq.len(),
                    "read {i}: anchor {} leaves no room for a {}-base seed window",
                    hit.pos,
                    c.k
                );
            }
        }
    }

    #[test]
    fn anchors_of_a_shared_key_point_at_matching_hpc_windows() {
        // The invariant OverlapSemiring + x-drop seeding rely on: if two
        // reads share a key with equal `forward` flags, the HPC k-windows at
        // the two anchors are identical; with unequal flags, one window is
        // the reverse complement of the other.
        let ds = DatasetSpec::Tiny.generate(34);
        let c = cfg();
        let sketches: Vec<ReadSketch> =
            (0..ds.reads.len()).map(|i| sketch_read(ds.reads.seq(i), &c)).collect();
        let mut by_key: HashMap<u64, Vec<(usize, KminmerHit)>> = HashMap::new();
        for (i, sk) in sketches.iter().enumerate() {
            for h in &sk.hits {
                by_key.entry(h.key).or_default().push((i, *h));
            }
        }
        let hpc_window = |read: usize, raw_pos: u32| -> DnaSeq {
            let hpc = HpcSeq::compress(ds.reads.seq(read));
            let start = hpc.compress_coord(raw_pos as usize);
            hpc.compressed().slice(start, start + c.k)
        };
        let mut checked = 0usize;
        for hits in by_key.values() {
            for pair in hits.windows(2) {
                let ((ra, a), (rb, b)) = (pair[0], pair[1]);
                if ra == rb {
                    continue;
                }
                let wa = hpc_window(ra, a.pos);
                let wb = hpc_window(rb, b.pos);
                if a.forward == b.forward {
                    assert_eq!(wa, wb, "same-orientation anchors must match");
                } else {
                    assert_eq!(wa, wb.reverse_complement(), "cross-strand anchors must RC-match");
                }
                checked += 1;
            }
        }
        assert!(checked > 10, "dataset must exercise shared keys (checked {checked})");
    }

    #[test]
    fn duplicate_keys_keep_their_first_occurrence() {
        let ds = DatasetSpec::Tiny.generate(35);
        let c = cfg();
        for i in 0..ds.reads.len() {
            let sk = sketch_read(ds.reads.seq(i), &c);
            let mut keys = std::collections::HashSet::new();
            for h in &sk.hits {
                assert!(keys.insert(h.key), "read {i} emitted key {} twice", h.key);
            }
        }
    }

    #[test]
    fn short_and_empty_reads_yield_empty_sketches() {
        let c = cfg();
        assert!(sketch_read(&DnaSeq::new(), &c).hits.is_empty());
        let short: DnaSeq = "ACGTACGT".parse().unwrap();
        assert!(sketch_read(&short, &c).hits.is_empty());
    }
}
