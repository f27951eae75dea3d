//! Fixed-length k-mers packed into 64-bit integers.
//!
//! diBELLA 2D indexes reads by their constituent k-mers (default `k = 17`) and
//! always works with the **canonical** form — the lexicographically smaller of
//! a k-mer and its reverse complement — because sequencing may read either
//! strand (Section II).  A [`CanonicalKmer`] also remembers whether the
//! canonical form equals the original orientation, which the overlap semiring
//! needs to reason about relative read orientations.
//!
//! [`Kmer::from_codes`], [`Kmer::reverse_complement`] and [`Kmer::canonical`]
//! are the definitions, O(k) each.  Every scanner goes through [`KmerIter`],
//! which rolls a forward and a reverse-complement register along the
//! sequence and yields each window with its canonical form in O(1).

use crate::dna::DnaSeq;
use std::fmt;

/// Maximum supported k (2 bits per base in a `u64`, one value reserved).
pub const MAX_K: usize = 31;

/// A k-mer packed 2 bits per base into a `u64` (most significant pair first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Kmer {
    packed: u64,
    k: u8,
}

impl Kmer {
    /// Build from a slice of 2-bit codes.
    ///
    /// # Panics
    /// Panics if `codes.len()` is 0 or exceeds [`MAX_K`], or a code is not 2-bit.
    pub fn from_codes(codes: &[u8]) -> Self {
        assert!(!codes.is_empty() && codes.len() <= MAX_K, "k must be in 1..={MAX_K}");
        let mut packed = 0u64;
        for &c in codes {
            assert!(c < 4, "invalid 2-bit code {c}");
            packed = (packed << 2) | c as u64;
        }
        Self { packed, k: codes.len() as u8 }
    }

    /// The k-mer whose [`Kmer::packed`] value and length are given.
    pub(crate) fn from_packed(packed: u64, k: usize) -> Self {
        debug_assert!((1..=MAX_K).contains(&k) && packed >> (2 * k) == 0);
        Self { packed, k: k as u8 }
    }

    /// Parse from ASCII (e.g. `"ACGTT"`).
    pub fn from_ascii(s: &[u8]) -> Result<Self, String> {
        let seq = DnaSeq::from_ascii(s)?;
        if seq.is_empty() || seq.len() > MAX_K {
            return Err(format!("k must be in 1..={MAX_K}, got {}", seq.len()));
        }
        Ok(Self::from_codes(seq.codes()))
    }

    /// k (the k-mer length).
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// The packed 2-bit representation.
    pub fn packed(&self) -> u64 {
        self.packed
    }

    /// The 2-bit code at position `i` (0 = leftmost base).
    pub fn code_at(&self, i: usize) -> u8 {
        assert!(i < self.k());
        ((self.packed >> (2 * (self.k() - 1 - i))) & 3) as u8
    }

    /// The reverse complement k-mer.
    pub fn reverse_complement(&self) -> Kmer {
        let mut packed = 0u64;
        for i in 0..self.k() {
            let c = (self.packed >> (2 * i)) & 3;
            packed = (packed << 2) | (3 - c);
        }
        Kmer { packed, k: self.k }
    }

    /// The canonical form: the lexicographically smaller of `self` and its
    /// reverse complement, along with a flag saying whether `self` was already
    /// canonical.
    pub fn canonical(&self) -> CanonicalKmer {
        let rc = self.reverse_complement();
        if self.packed <= rc.packed {
            CanonicalKmer { kmer: *self, was_forward: true }
        } else {
            CanonicalKmer { kmer: rc, was_forward: false }
        }
    }

    /// Render as ASCII.
    pub fn to_ascii(&self) -> String {
        (0..self.k()).map(|i| crate::dna::code_to_base(self.code_at(i)) as char).collect()
    }

    /// A well-mixed 64-bit hash of the packed value (splitmix64), used to
    /// assign k-mers to owner ranks uniformly as the paper assumes.
    pub fn hash64(&self) -> u64 {
        let mut z = self.packed.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

impl fmt::Display for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii())
    }
}

/// A canonical k-mer together with the orientation of the source k-mer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CanonicalKmer {
    /// The canonical (lexicographically smaller) k-mer.
    pub kmer: Kmer,
    /// `true` if the original k-mer was already canonical (forward strand).
    pub was_forward: bool,
}

/// Iterator over all k-mers of a sequence with their start positions and
/// canonical forms, in O(1) per window.
///
/// Two registers roll along the sequence: `fwd` holds the window as read and
/// `rc` its reverse complement, each updated with one shift per base, so no
/// window is re-packed and no reverse complement re-derived.
/// [`Kmer::from_codes`] and [`Kmer::canonical`] remain the definition the
/// registers are tested against.
pub struct KmerIter<'a> {
    codes: &'a [u8],
    k: u8,
    /// Start of the next window; the registers hold its first `k - 1` bases.
    pos: usize,
    fwd: u64,
    rc: u64,
}

impl<'a> KmerIter<'a> {
    /// Iterate over the k-mers of `seq`.
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds [`MAX_K`].
    pub fn new(seq: &'a DnaSeq, k: usize) -> Self {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..={MAX_K}");
        let mut iter = Self { codes: seq.codes(), k: k as u8, pos: 0, fwd: 0, rc: 0 };
        for &code in iter.codes.iter().take(k - 1) {
            iter.roll(code);
        }
        iter
    }

    /// Shift one base into both registers (`DnaSeq` codes are 2-bit).
    fn roll(&mut self, code: u8) {
        let k = self.k as u32;
        self.fwd = ((self.fwd << 2) | code as u64) & ((1 << (2 * k)) - 1);
        self.rc = (self.rc >> 2) | ((3 - code as u64) << (2 * (k - 1)));
    }
}

impl Iterator for KmerIter<'_> {
    /// `(start position, k-mer as read, its canonical form and strand)`; a
    /// k-mer equal to its reverse complement is forward, as in
    /// [`Kmer::canonical`].
    type Item = (usize, Kmer, CanonicalKmer);

    fn next(&mut self) -> Option<Self::Item> {
        let &code = self.codes.get(self.pos + self.k as usize - 1)?;
        self.roll(code);
        let kmer = Kmer { packed: self.fwd, k: self.k };
        let was_forward = self.fwd <= self.rc;
        let canonical = if was_forward { kmer } else { Kmer { packed: self.rc, k: self.k } };
        let pos = self.pos;
        self.pos += 1;
        Some((pos, kmer, CanonicalKmer { kmer: canonical, was_forward }))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.codes.len() + 1).saturating_sub(self.pos + self.k as usize);
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn packing_and_ascii_roundtrip() {
        let k = Kmer::from_ascii(b"ACGTT").unwrap();
        assert_eq!(k.k(), 5);
        assert_eq!(k.to_ascii(), "ACGTT");
        assert_eq!(k.code_at(0), 0);
        assert_eq!(k.code_at(4), 3);
    }

    #[test]
    fn reverse_complement_small_case() {
        let k = Kmer::from_ascii(b"AACG").unwrap();
        assert_eq!(k.reverse_complement().to_ascii(), "CGTT");
    }

    #[test]
    fn canonical_picks_lexicographically_smaller() {
        // ATTCG vs CGAAT: ATTCG is smaller.
        let k = Kmer::from_ascii(b"ATTCG").unwrap();
        let canon = k.canonical();
        assert_eq!(canon.kmer.to_ascii(), "ATTCG");
        assert!(canon.was_forward);

        let k2 = Kmer::from_ascii(b"CGAAT").unwrap();
        let canon2 = k2.canonical();
        assert_eq!(canon2.kmer.to_ascii(), "ATTCG");
        assert!(!canon2.was_forward);
    }

    #[test]
    fn palindromic_kmer_is_its_own_canonical() {
        // ACGT is its own reverse complement.
        let k = Kmer::from_ascii(b"ACGT").unwrap();
        assert_eq!(k.reverse_complement(), k);
        assert!(k.canonical().was_forward);
    }

    #[test]
    fn kmer_iter_covers_all_positions() {
        let seq: DnaSeq = "ACGTAC".parse().unwrap();
        let kmers: Vec<_> = KmerIter::new(&seq, 3).collect();
        assert_eq!(kmers.len(), 4);
        assert_eq!(kmers[0].0, 0);
        assert_eq!(kmers[0].1.to_ascii(), "ACG");
        assert_eq!(kmers[3].0, 3);
        assert_eq!(kmers[3].1.to_ascii(), "TAC");
    }

    #[test]
    fn kmer_iter_on_short_sequence_is_empty() {
        let seq: DnaSeq = "AC".parse().unwrap();
        assert_eq!(KmerIter::new(&seq, 5).count(), 0);
    }

    #[test]
    fn kmer_count_matches_l_minus_k_plus_1() {
        // The communication analysis uses (l - k + 1) k-mers per read.
        let seq = DnaSeq::from_codes((0..100).map(|i| (i % 4) as u8).collect());
        for k in [1usize, 5, 17, 31] {
            assert_eq!(KmerIter::new(&seq, k).count(), 100 - k + 1);
        }
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let a = Kmer::from_ascii(b"ACGTACGTACGTACGTA").unwrap();
        let b = Kmer::from_ascii(b"ACGTACGTACGTACGTC").unwrap();
        assert_eq!(a.hash64(), a.hash64());
        assert_ne!(a.hash64(), b.hash64());
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn oversized_k_panics() {
        let codes = vec![0u8; 40];
        let _ = Kmer::from_codes(&codes);
    }

    fn arb_kmer() -> impl Strategy<Value = Kmer> {
        proptest::collection::vec(0u8..4, 1..=MAX_K).prop_map(|codes| Kmer::from_codes(&codes))
    }

    proptest! {
        // The rolling registers against the definitions, at every position
        // and every k.  The sequence ends in `half ++ revcomp(half)`, so the
        // even-length windows centred on that junction equal their own
        // reverse complement (the forward-wins tie); short inputs cover
        // sequences shorter than k, and the k range covers k = 1 and the
        // full-width mask of k = 31.
        #[test]
        fn prop_rolling_iter_matches_from_codes_and_canonical(
            prefix in proptest::collection::vec(0u8..4, 0..120),
            half in proptest::collection::vec(0u8..4, 0..40),
        ) {
            let mut codes = prefix;
            codes.extend(&half);
            codes.extend(half.iter().rev().map(|&c| 3 - c));
            let seq = DnaSeq::from_codes(codes.clone());
            for k in 1..=MAX_K {
                let windows: Vec<_> = KmerIter::new(&seq, k).collect();
                prop_assert_eq!(windows.len(), (codes.len() + 1).saturating_sub(k));
                for (p, &(pos, kmer, canonical)) in windows.iter().enumerate() {
                    let oracle = Kmer::from_codes(&codes[p..p + k]);
                    prop_assert_eq!((pos, kmer), (p, oracle), "k = {}", k);
                    prop_assert_eq!(canonical, oracle.canonical(), "k = {} pos = {}", k, p);
                }
            }
        }

        #[test]
        fn prop_revcomp_involution(k in arb_kmer()) {
            prop_assert_eq!(k.reverse_complement().reverse_complement(), k);
        }

        #[test]
        fn prop_canonical_is_idempotent_and_minimal(k in arb_kmer()) {
            let canon = k.canonical();
            // Canonical of canonical is itself (forward).
            let again = canon.kmer.canonical();
            prop_assert_eq!(again.kmer, canon.kmer);
            prop_assert!(again.was_forward);
            // It is really the minimum of the two packed values.
            prop_assert!(canon.kmer.packed() <= k.packed());
            prop_assert!(canon.kmer.packed() <= k.reverse_complement().packed());
        }

        #[test]
        fn prop_kmer_and_its_rc_share_canonical(k in arb_kmer()) {
            prop_assert_eq!(k.canonical().kmer, k.reverse_complement().canonical().kmer);
        }

        #[test]
        fn prop_ascii_roundtrip(k in arb_kmer()) {
            let back = Kmer::from_ascii(k.to_ascii().as_bytes()).unwrap();
            prop_assert_eq!(back, k);
        }
    }
}
