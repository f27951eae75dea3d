//! Shared sequence-sketching primitives: canonical k-mer hashing and
//! minimizer selection.
//!
//! Two consumers sketch reads with minimizers: the minimap2-style comparison
//! overlapper (`dibella-overlap`, windowed `(w, k)` selection) and the
//! k-min-mer candidate subsystem (`dibella-sketch`, density-bound selection).
//! Both start from the same primitive — the canonical 64-bit hash of every
//! k-mer in a sequence — so that primitive and the two selection rules live
//! here, once.
//!
//! * [`kmer_hashes`] — `(hash, position, was_forward)` for every k-mer, with
//!   the hash computed over the *canonical* (strand-invariant) k-mer.
//! * [`windowed_minimizers`] — classic minimap2 `(w, k)` selection: the
//!   smallest hash of every window of `w` consecutive k-mers.  The achieved
//!   density is an emergent `≈ 2/(w+1)`.
//! * [`density_minimizers`] — mapquik-style hash-threshold selection: keep a
//!   k-mer iff its hash is below `density · 2^64`.  Density is a *direct*
//!   parameter, and selection is position-local (a base edit perturbs only
//!   the k-mers covering it, never a neighbouring window), which is what the
//!   k-min-mer path needs for predictable matrix sparsity.

use crate::dna::DnaSeq;
use crate::kmer::KmerIter;

/// One selected (or candidate) minimizer: the canonical k-mer hash, the
/// 0-based start position of the k-mer in the sequence as stored, and whether
/// the canonical orientation reads forward at that position.
pub type MinimizerPos = (u64, u32, bool);

/// The canonical hash of every k-mer of `seq`, in position order.
///
/// Returns one `(hash64, pos, was_forward)` triple per k-mer window; empty if
/// `seq.len() < k`.
pub fn kmer_hashes(seq: &DnaSeq, k: usize) -> Vec<MinimizerPos> {
    KmerIter::new(seq, k)
        .map(|(pos, _, canon)| (canon.kmer.hash64(), pos as u32, canon.was_forward))
        .collect()
}

/// The `(w, k)` minimizer sketch of a sequence: for every window of `w`
/// consecutive k-mers, the canonical k-mer with the smallest hash is kept
/// (deduplicated across adjacent windows).  Sequences with at most `w`
/// k-mers contribute their single smallest k-mer.
pub fn windowed_minimizers(seq: &DnaSeq, k: usize, w: usize) -> Vec<MinimizerPos> {
    if seq.len() < k {
        return Vec::new();
    }
    let hashes = kmer_hashes(seq, k);
    let mut out: Vec<MinimizerPos> = Vec::new();
    if hashes.len() <= w {
        if let Some(min) = hashes.iter().min_by_key(|(h, _, _)| *h) {
            out.push(*min);
        }
        return out;
    }
    for window in hashes.windows(w) {
        // `windows(w)` with w >= 1 never yields an empty slice.
        let Some(min) = window.iter().min_by_key(|(h, _, _)| *h) else { continue };
        if out.last().is_none_or(|last| last.1 != min.1) {
            out.push(*min);
        }
    }
    out
}

/// The hash threshold below which a canonical k-mer hash is selected at the
/// given density.  `density` is clamped to `[0, 1]`.
pub fn density_threshold(density: f64) -> u64 {
    let d = density.clamp(0.0, 1.0);
    if d >= 1.0 {
        u64::MAX
    } else {
        // 2^64 · d, computed in f64 then truncated.  Exact enough: the
        // relative density error is at most 2^-53.
        (d * (u64::MAX as f64)) as u64
    }
}

/// Density-bound minimizer selection: every k-mer whose canonical hash is
/// `< density_threshold(density)` is kept.
///
/// Unlike [`windowed_minimizers`], the expected fraction of k-mers selected
/// is exactly `density` (hash64 is uniform on `u64`), there is no maximum
/// gap guarantee, and selection at a position depends only on the k-mer at
/// that position — the property that makes k-min-mer sketches comparable
/// across reads regardless of what surrounds a shared region.
pub fn density_minimizers(seq: &DnaSeq, k: usize, density: f64) -> Vec<MinimizerPos> {
    let threshold = density_threshold(density);
    kmer_hashes(seq, k).into_iter().filter(|(h, _, _)| *h < threshold).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::DatasetSpec;
    use std::collections::HashSet;

    #[test]
    fn kmer_hashes_cover_every_window() {
        let ds = DatasetSpec::Tiny.generate(11);
        let seq = ds.reads.seq(0);
        let hashes = kmer_hashes(seq, 13);
        assert_eq!(hashes.len(), seq.len() - 13 + 1);
        for (i, (_, pos, _)) in hashes.iter().enumerate() {
            assert_eq!(*pos as usize, i);
        }
    }

    #[test]
    fn kmer_hashes_are_strand_invariant() {
        let ds = DatasetSpec::Tiny.generate(12);
        let seq = ds.reads.seq(0);
        let rc = seq.reverse_complement();
        let fwd: HashSet<u64> = kmer_hashes(seq, 13).iter().map(|x| x.0).collect();
        let rev: HashSet<u64> = kmer_hashes(&rc, 13).iter().map(|x| x.0).collect();
        assert_eq!(fwd, rev, "canonical hashes must not depend on the stored strand");
    }

    #[test]
    fn short_sequences_yield_no_hashes() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        assert!(kmer_hashes(&seq, 13).is_empty());
        assert!(windowed_minimizers(&seq, 13, 5).is_empty());
        assert!(density_minimizers(&seq, 13, 0.5).is_empty());
    }

    #[test]
    fn density_controls_the_selected_fraction() {
        let ds = DatasetSpec::Tiny.generate_with_length(8_000, 13);
        let seq = &ds.genome;
        let total = seq.len() - 15 + 1;
        for density in [0.05, 0.1, 0.25] {
            let picked = density_minimizers(seq, 15, density).len();
            let achieved = picked as f64 / total as f64;
            assert!(
                (achieved - density).abs() < density * 0.5 + 0.01,
                "density {density}: achieved {achieved} over {total} k-mers"
            );
        }
    }

    #[test]
    fn density_selection_is_position_local() {
        // Selection of a position must survive unrelated flanking edits.
        let ds = DatasetSpec::Tiny.generate_with_length(2_000, 14);
        let seq = ds.genome.slice(100, 400);
        let extended = ds.genome.slice(50, 450);
        let k = 15;
        let inner: HashSet<u64> =
            density_minimizers(&seq, k, 0.2).iter().map(|x| x.0).collect();
        let outer: HashSet<u64> =
            density_minimizers(&extended, k, 0.2).iter().map(|x| x.0).collect();
        assert!(inner.is_subset(&outer), "embedding a region must preserve its selections");
    }

    #[test]
    fn density_threshold_endpoints() {
        assert_eq!(density_threshold(0.0), 0);
        assert_eq!(density_threshold(1.0), u64::MAX);
        assert_eq!(density_threshold(2.0), u64::MAX);
        assert_eq!(density_threshold(-1.0), 0);
        let half = density_threshold(0.5);
        assert!((half as f64 / u64::MAX as f64 - 0.5).abs() < 1e-9);
    }
}
