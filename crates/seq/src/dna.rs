//! The DNA alphabet and sequence type.
//!
//! Bases are stored as 2-bit codes (`A=0, C=1, G=2, T=3`), the encoding the
//! paper assumes when it charges `k/4` bytes per k-mer in the communication
//! analysis.  A [`DnaSeq`] keeps one code per base in a `Vec<u8>` for cheap
//! random access; the packed representation used on the wire lives in
//! [`crate::kmer`] (k-mers) and in [`DnaSeq::to_packed`].

use std::fmt;

/// Which strand a sequence (or an alignment) refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strand {
    /// The sequence as stored.
    Forward,
    /// The reverse complement of the stored sequence.
    Reverse,
}

impl Strand {
    /// The opposite strand.
    pub fn flip(self) -> Strand {
        match self {
            Strand::Forward => Strand::Reverse,
            Strand::Reverse => Strand::Forward,
        }
    }
}

/// 2-bit code of a base character.
///
/// Returns `None` for characters outside `{A, C, G, T}` (case-insensitive);
/// ambiguous IUPAC codes are rejected rather than silently mapped.
pub fn base_to_code(base: u8) -> Option<u8> {
    match base {
        b'A' | b'a' => Some(0),
        b'C' | b'c' => Some(1),
        b'G' | b'g' => Some(2),
        b'T' | b't' => Some(3),
        _ => None,
    }
}

/// ASCII character of a 2-bit code.
pub fn code_to_base(code: u8) -> u8 {
    match code {
        0 => b'A',
        1 => b'C',
        2 => b'G',
        3 => b'T',
        _ => panic!("invalid 2-bit base code {code}"),
    }
}

/// Complement of a 2-bit code (`A<->T`, `C<->G`).
pub fn complement_code(code: u8) -> u8 {
    debug_assert!(code < 4);
    3 - code
}

/// A DNA sequence stored as 2-bit codes, one byte per base.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaSeq {
    codes: Vec<u8>,
}

impl DnaSeq {
    /// The empty sequence.
    pub fn new() -> Self {
        Self { codes: Vec::new() }
    }

    /// Parse from ASCII.  Characters outside `{A,C,G,T,a,c,g,t}` are an error.
    pub fn from_ascii(s: &[u8]) -> Result<Self, String> {
        let mut codes = Vec::with_capacity(s.len());
        for (i, &b) in s.iter().enumerate() {
            match base_to_code(b) {
                Some(c) => codes.push(c),
                None => return Err(format!("invalid base {:?} at position {i}", b as char)),
            }
        }
        Ok(Self { codes })
    }

    /// Build from 2-bit codes.
    ///
    /// # Panics
    /// Panics if any code is not in `0..4`.
    pub fn from_codes(codes: Vec<u8>) -> Self {
        assert!(codes.iter().all(|&c| c < 4), "codes must be 2-bit");
        Self { codes }
    }

    /// Length in bases.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The 2-bit code at position `i`.
    pub fn code(&self, i: usize) -> u8 {
        self.codes[i]
    }

    /// The underlying code slice.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Append one base code.
    pub fn push_code(&mut self, code: u8) {
        assert!(code < 4, "codes must be 2-bit");
        self.codes.push(code);
    }

    /// The reverse complement.
    pub fn reverse_complement(&self) -> DnaSeq {
        DnaSeq {
            codes: self.codes.iter().rev().map(|&c| complement_code(c)).collect(),
        }
    }

    /// A subsequence `[start, end)` (clamped to the sequence length).
    pub fn slice(&self, start: usize, end: usize) -> DnaSeq {
        let end = end.min(self.len());
        let start = start.min(end);
        DnaSeq { codes: self.codes[start..end].to_vec() }
    }

    /// Render as an ASCII string.
    pub fn to_ascii(&self) -> String {
        self.codes.iter().map(|&c| code_to_base(c) as char).collect()
    }

    /// Pack into 2 bits per base (the wire format assumed by the paper's
    /// `k/4` bytes-per-k-mer accounting).  The final byte is zero-padded.
    pub fn to_packed(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len().div_ceil(4)];
        for (i, &c) in self.codes.iter().enumerate() {
            out[i / 4] |= c << ((i % 4) * 2);
        }
        out
    }

    /// Unpack a 2-bit packed buffer of `len` bases.
    pub fn from_packed(packed: &[u8], len: usize) -> Self {
        assert!(packed.len() * 4 >= len, "packed buffer too short for {len} bases");
        let codes = (0..len).map(|i| (packed[i / 4] >> ((i % 4) * 2)) & 3).collect();
        Self { codes }
    }

    /// This sequence followed by `other` (cloned) — e.g. joining the two
    /// segments of a simulated chimeric read.
    pub fn concat(&self, other: &DnaSeq) -> DnaSeq {
        let mut codes = Vec::with_capacity(self.len() + other.len());
        codes.extend_from_slice(&self.codes);
        codes.extend_from_slice(&other.codes);
        DnaSeq { codes }
    }

    /// The sequence in the given orientation (cloned).
    pub fn oriented(&self, strand: Strand) -> DnaSeq {
        match strand {
            Strand::Forward => self.clone(),
            Strand::Reverse => self.reverse_complement(),
        }
    }
}

impl fmt::Debug for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 40 {
            write!(f, "DnaSeq({})", self.to_ascii())
        } else {
            write!(f, "DnaSeq(len={}, {}...)", self.len(), self.slice(0, 30).to_ascii())
        }
    }
}

impl std::str::FromStr for DnaSeq {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnaSeq::from_ascii(s.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ascii_roundtrip() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(s.len(), 8);
        assert_eq!(s.to_ascii(), "ACGTACGT");
        assert_eq!(s.code(0), 0);
        assert_eq!(s.code(3), 3);
    }

    #[test]
    fn lowercase_is_accepted() {
        let s: DnaSeq = "acgt".parse().unwrap();
        assert_eq!(s.to_ascii(), "ACGT");
    }

    #[test]
    fn invalid_characters_are_rejected() {
        assert!(DnaSeq::from_ascii(b"ACGN").is_err());
        assert!(DnaSeq::from_ascii(b"ACG-T").is_err());
        assert!("AC GT".parse::<DnaSeq>().is_err());
    }

    #[test]
    fn reverse_complement_matches_paper_example() {
        // Section II: v = ATTCG, v' = CGAAT.
        let v: DnaSeq = "ATTCG".parse().unwrap();
        assert_eq!(v.reverse_complement().to_ascii(), "CGAAT");
    }

    #[test]
    fn complement_codes_pair_correctly() {
        assert_eq!(complement_code(0), 3); // A -> T
        assert_eq!(complement_code(1), 2); // C -> G
        assert_eq!(complement_code(2), 1); // G -> C
        assert_eq!(complement_code(3), 0); // T -> A
    }

    #[test]
    fn slice_clamps_to_length() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(s.slice(2, 5).to_ascii(), "GTA");
        assert_eq!(s.slice(6, 100).to_ascii(), "GT");
        assert_eq!(s.slice(10, 20).len(), 0);
    }

    #[test]
    fn packing_roundtrip_various_lengths() {
        for len in [0usize, 1, 3, 4, 5, 8, 13] {
            let seq = DnaSeq::from_codes((0..len).map(|i| (i % 4) as u8).collect());
            let packed = seq.to_packed();
            assert_eq!(packed.len(), len.div_ceil(4));
            assert_eq!(DnaSeq::from_packed(&packed, len), seq);
        }
    }

    #[test]
    fn concat_joins_sequences() {
        let a: DnaSeq = "ACGT".parse().unwrap();
        let b: DnaSeq = "TT".parse().unwrap();
        assert_eq!(a.concat(&b).to_ascii(), "ACGTTT");
        assert_eq!(a.concat(&DnaSeq::new()), a);
        assert_eq!(DnaSeq::new().concat(&b), b);
    }

    #[test]
    fn oriented_respects_strand() {
        let s: DnaSeq = "AACG".parse().unwrap();
        assert_eq!(s.oriented(Strand::Forward), s);
        assert_eq!(s.oriented(Strand::Reverse).to_ascii(), "CGTT");
        assert_eq!(Strand::Forward.flip(), Strand::Reverse);
        assert_eq!(Strand::Reverse.flip(), Strand::Forward);
    }

    fn arb_seq() -> impl Strategy<Value = DnaSeq> {
        proptest::collection::vec(0u8..4, 0..200).prop_map(DnaSeq::from_codes)
    }

    proptest! {
        #[test]
        fn prop_reverse_complement_is_involution(s in arb_seq()) {
            prop_assert_eq!(s.reverse_complement().reverse_complement(), s);
        }

        #[test]
        fn prop_ascii_roundtrip(s in arb_seq()) {
            let ascii = s.to_ascii();
            let back: DnaSeq = ascii.parse().unwrap();
            prop_assert_eq!(back, s);
        }

        #[test]
        fn prop_packed_roundtrip(s in arb_seq()) {
            let packed = s.to_packed();
            prop_assert_eq!(DnaSeq::from_packed(&packed, s.len()), s);
        }

        #[test]
        fn prop_revcomp_preserves_length_and_gc(s in arb_seq()) {
            let rc = s.reverse_complement();
            prop_assert_eq!(rc.len(), s.len());
            // GC content is invariant under reverse complement.
            let gc = |x: &DnaSeq| x.codes().iter().filter(|&&c| c == 1 || c == 2).count();
            prop_assert_eq!(gc(&rc), gc(&s));
        }
    }
}
