//! Overlap classification: from alignment endpoints to bidirected string-graph
//! edges.
//!
//! Section II of the paper defines four overlap types (Figure 1), contained
//! overlaps, and the overhang ("overlap suffix") that becomes the edge weight
//! of the string graph.  This module turns the endpoints produced by the
//! x-drop aligner into that vocabulary.
//!
//! ## Bidirected direction encoding
//!
//! An edge between reads *i* and *j* is stored twice (once per direction of
//! travel).  For the direction *i → j* we encode the traversal orientations in
//! two bits ([`BidirectedDir`]):
//!
//! * bit 1 — orientation of *i* along the walk (1 = forward, i.e. the walk
//!   leaves *i* through its end);
//! * bit 0 — orientation of *j* along the walk (1 = forward, i.e. the walk
//!   enters *j* at its beginning).
//!
//! The four values 0–3 correspond to the four bidirected edge types of
//! Figure 1.  A three-node path *i → k → j* is a **valid walk** (Figure 2) iff
//! the orientation in which the first edge traverses *k* equals the
//! orientation in which the second edge leaves *k*:
//! `dir_ik.bit0 == dir_kj.bit1` — this is the `ISDIROK` check of Algorithm 3.

use crate::scoring::AlignmentConfig;
use dibella_seq::Strand;

/// Two-bit encoding of the traversal orientations of a bidirected edge, for
/// one direction of travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BidirectedDir(pub u8);

impl BidirectedDir {
    /// Build from the two traversal orientations (source read, destination read).
    pub fn new(source_forward: bool, dest_forward: bool) -> Self {
        Self(((source_forward as u8) << 1) | dest_forward as u8)
    }

    /// Orientation of the source read along the walk.
    pub fn source_forward(&self) -> bool {
        self.0 & 2 != 0
    }

    /// Orientation of the destination read along the walk.
    pub fn dest_forward(&self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether a walk may continue from an edge with this direction into an
    /// edge with direction `next` at the shared middle vertex (the `ISDIROK`
    /// rule of Algorithm 3).
    pub fn chains_with(&self, next: BidirectedDir) -> bool {
        self.dest_forward() == next.source_forward()
    }

    /// The direction of the implied edge of a valid two-hop path
    /// `self` (i→k) followed by `next` (k→j): source orientation from the
    /// first hop, destination orientation from the second.
    pub fn compose(&self, next: BidirectedDir) -> BidirectedDir {
        BidirectedDir((self.0 & 2) | (next.0 & 1))
    }

    /// The direction describing the same physical edge travelled the other
    /// way (j → i).
    pub fn reversed(&self) -> BidirectedDir {
        BidirectedDir::new(!self.dest_forward(), !self.source_forward())
    }

    /// Raw two-bit value.
    pub fn bits(&self) -> u8 {
        self.0
    }
}

/// A pairwise alignment between read `v` (always in its stored orientation)
/// and read `h` considered in orientation `strand`.
///
/// Coordinates are half-open `[beg, end)` on the oriented sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairAlignment {
    /// Alignment score.
    pub score: i32,
    /// Start of the aligned region on `v`.
    pub beg_v: usize,
    /// End (exclusive) of the aligned region on `v`.
    pub end_v: usize,
    /// Start of the aligned region on the oriented `h`.
    pub beg_h: usize,
    /// End (exclusive) of the aligned region on the oriented `h`.
    pub end_h: usize,
    /// Orientation in which `h` was aligned against `v`.
    pub strand: Strand,
}

impl PairAlignment {
    /// Length of the aligned region on `v`.
    pub fn aligned_len_v(&self) -> usize {
        self.end_v - self.beg_v
    }

    /// Length of the aligned region on the oriented `h`.
    pub fn aligned_len_h(&self) -> usize {
        self.end_h - self.beg_h
    }

    /// The shorter of the two aligned spans (used for score thresholds).
    pub fn aligned_len(&self) -> usize {
        self.aligned_len_v().min(self.aligned_len_h())
    }
}

/// The outcome of classifying an alignment between reads `v` and `h`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapClass {
    /// `v` spans all of `h` (up to the fuzz): `h` is a contained read.
    Contains,
    /// `h` spans all of `v`: `v` is a contained read.
    ContainedBy,
    /// A proper dovetail overlap usable as a string-graph edge.
    Dovetail {
        /// Direction of the edge when walking `v → h`.
        dir_vh: BidirectedDir,
        /// Direction of the edge when walking `h → v`.
        dir_hv: BidirectedDir,
        /// Overhang (suffix length) contributed by `h` when walking `v → h`.
        suffix_vh: usize,
        /// Overhang contributed by `v` when walking `h → v`.
        suffix_hv: usize,
    },
    /// The alignment ends in the interior of both reads — not a true overlap
    /// (typically a repeat-induced local match); discarded.
    Internal,
}

/// Classify an alignment between `v` (length `len_v`) and `h` (length
/// `len_h`, oriented according to `aln.strand`).
///
/// `len_h` is the length of the *oriented* sequence, which equals the stored
/// read length (reverse complementing does not change length).
pub fn classify_alignment(
    aln: &PairAlignment,
    len_v: usize,
    len_h: usize,
    config: &AlignmentConfig,
) -> OverlapClass {
    assert!(aln.end_v <= len_v && aln.end_h <= len_h, "alignment exceeds read bounds");
    let fuzz = config.classification_fuzz;
    let left_v = aln.beg_v;
    let right_v = len_v - aln.end_v;
    let left_h = aln.beg_h;
    let right_h = len_h - aln.end_h;

    // At each end of the aligned region, at least one of the two reads must
    // terminate within the fuzz — otherwise this is a local (repeat-induced)
    // match in the interior of both reads, not an overlap.
    if left_v.min(left_h) > fuzz || right_v.min(right_h) > fuzz {
        return OverlapClass::Internal;
    }

    // Containment (Section II: contained overlaps are set aside and may be
    // reintroduced after the string graph is built).
    if left_v <= fuzz && right_v <= fuzz {
        return OverlapClass::ContainedBy;
    }
    if left_h <= fuzz && right_h <= fuzz {
        return OverlapClass::Contains;
    }

    let h_layout_forward = aln.strand == Strand::Forward;
    if left_v > left_h {
        // v comes first in the implied layout: v → h reads v forward.
        let suffix_vh = right_h.saturating_sub(right_v);
        let suffix_hv = left_v.saturating_sub(left_h);
        if suffix_vh == 0 {
            return OverlapClass::Contains;
        }
        if suffix_hv == 0 {
            return OverlapClass::ContainedBy;
        }
        let dir_vh = BidirectedDir::new(true, h_layout_forward);
        // Walking h → v traverses h against its layout orientation and v backwards.
        let dir_hv = BidirectedDir::new(!h_layout_forward, false);
        OverlapClass::Dovetail { dir_vh, dir_hv, suffix_vh, suffix_hv }
    } else {
        // h comes first: walking v → h reads v backwards and h against its
        // layout orientation; walking h → v reads h in layout orientation and
        // v forwards.
        let suffix_vh = left_h.saturating_sub(left_v);
        let suffix_hv = right_v.saturating_sub(right_h);
        if suffix_vh == 0 {
            return OverlapClass::Contains;
        }
        if suffix_hv == 0 {
            return OverlapClass::ContainedBy;
        }
        let dir_vh = BidirectedDir::new(false, !h_layout_forward);
        let dir_hv = BidirectedDir::new(h_layout_forward, true);
        OverlapClass::Dovetail { dir_vh, dir_hv, suffix_vh, suffix_hv }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(fuzz: usize) -> AlignmentConfig {
        AlignmentConfig { classification_fuzz: fuzz, ..AlignmentConfig::default() }
    }

    #[test]
    fn dir_bit_layout() {
        let d = BidirectedDir::new(true, false);
        assert_eq!(d.bits(), 0b10);
        assert!(d.source_forward());
        assert!(!d.dest_forward());
        assert_eq!(BidirectedDir::new(true, true).bits(), 3);
        assert_eq!(BidirectedDir::new(false, false).bits(), 0);
    }

    #[test]
    fn chaining_requires_consistent_middle_orientation() {
        // i -> k forward/forward chains with k -> j forward/anything.
        let ik = BidirectedDir::new(true, true);
        assert!(ik.chains_with(BidirectedDir::new(true, true)));
        assert!(ik.chains_with(BidirectedDir::new(true, false)));
        assert!(!ik.chains_with(BidirectedDir::new(false, true)));
        // i -> k entering k reversed chains only with edges leaving k reversed.
        let ik_rev = BidirectedDir::new(true, false);
        assert!(ik_rev.chains_with(BidirectedDir::new(false, true)));
        assert!(!ik_rev.chains_with(BidirectedDir::new(true, true)));
    }

    #[test]
    fn compose_takes_outer_orientations() {
        let ik = BidirectedDir::new(true, false);
        let kj = BidirectedDir::new(false, true);
        assert_eq!(ik.compose(kj).bits(), 0b11);
        let ik2 = BidirectedDir::new(false, true);
        let kj2 = BidirectedDir::new(true, false);
        assert_eq!(ik2.compose(kj2).bits(), 0b00);
    }

    #[test]
    fn reversed_flips_and_swaps() {
        // Forward-forward reversed becomes reverse-reverse (0b00).
        assert_eq!(BidirectedDir(0b11).reversed().bits(), 0b00);
        assert_eq!(BidirectedDir(0b00).reversed().bits(), 0b11);
        // Mixed orientations are self-symmetric under reversal.
        assert_eq!(BidirectedDir(0b10).reversed().bits(), 0b10);
        assert_eq!(BidirectedDir(0b01).reversed().bits(), 0b01);
    }

    #[test]
    fn forward_dovetail_v_then_h() {
        // v: [0, 1000), h: [0, 900); alignment covers v[400..1000) and h[0..600).
        let aln = PairAlignment {
            score: 500,
            beg_v: 400,
            end_v: 1000,
            beg_h: 0,
            end_h: 600,
            strand: Strand::Forward,
        };
        match classify_alignment(&aln, 1000, 900, &cfg(50)) {
            OverlapClass::Dovetail { dir_vh, dir_hv, suffix_vh, suffix_hv } => {
                assert_eq!(dir_vh.bits(), 0b11, "v forward into h forward");
                assert_eq!(dir_hv.bits(), 0b00, "reverse walk uses both reads backwards");
                assert_eq!(suffix_vh, 300, "h contributes its last 300 bases");
                assert_eq!(suffix_hv, 400, "v contributes its first 400 bases");
            }
            other => panic!("expected dovetail, got {other:?}"),
        }
    }

    #[test]
    fn forward_dovetail_h_then_v() {
        // h comes first: alignment covers v[0..600) and h[300..900).
        let aln = PairAlignment {
            score: 500,
            beg_v: 0,
            end_v: 600,
            beg_h: 300,
            end_h: 900,
            strand: Strand::Forward,
        };
        match classify_alignment(&aln, 1000, 900, &cfg(50)) {
            OverlapClass::Dovetail { dir_vh, dir_hv, suffix_vh, suffix_hv } => {
                assert_eq!(dir_vh.bits(), 0b00);
                assert_eq!(dir_hv.bits(), 0b11);
                assert_eq!(suffix_vh, 300);
                assert_eq!(suffix_hv, 400);
            }
            other => panic!("expected dovetail, got {other:?}"),
        }
    }

    #[test]
    fn reverse_strand_dovetails_have_mixed_heads() {
        // v then h, with h aligned as its reverse complement.
        let aln = PairAlignment {
            score: 500,
            beg_v: 400,
            end_v: 1000,
            beg_h: 0,
            end_h: 600,
            strand: Strand::Reverse,
        };
        match classify_alignment(&aln, 1000, 900, &cfg(50)) {
            OverlapClass::Dovetail { dir_vh, dir_hv, .. } => {
                assert_eq!(dir_vh.bits(), 0b10, "v forward into h reversed");
                assert_eq!(dir_hv.bits(), 0b10, "reverse-complement overlaps are symmetric");
            }
            other => panic!("expected dovetail, got {other:?}"),
        }
        // h then v on the reverse strand.
        let aln2 = PairAlignment {
            score: 500,
            beg_v: 0,
            end_v: 600,
            beg_h: 300,
            end_h: 900,
            strand: Strand::Reverse,
        };
        match classify_alignment(&aln2, 1000, 900, &cfg(50)) {
            OverlapClass::Dovetail { dir_vh, dir_hv, .. } => {
                assert_eq!(dir_vh.bits(), 0b01);
                assert_eq!(dir_hv.bits(), 0b01);
            }
            other => panic!("expected dovetail, got {other:?}"),
        }
    }

    #[test]
    fn dir_vh_and_dir_hv_are_consistent_reversals() {
        for (beg_v, end_v, beg_h, end_h) in [(400, 1000, 0, 600), (0, 600, 300, 900)] {
            for strand in [Strand::Forward, Strand::Reverse] {
                let aln = PairAlignment { score: 1, beg_v, end_v, beg_h, end_h, strand };
                if let OverlapClass::Dovetail { dir_vh, dir_hv, .. } =
                    classify_alignment(&aln, 1000, 900, &cfg(50))
                {
                    assert_eq!(dir_vh.reversed(), dir_hv, "directions must mirror each other");
                }
            }
        }
    }

    #[test]
    fn containment_detection() {
        // h fully inside v (h aligned end to end).
        let aln = PairAlignment {
            score: 890,
            beg_v: 50,
            end_v: 950,
            beg_h: 2,
            end_h: 898,
            strand: Strand::Forward,
        };
        assert_eq!(classify_alignment(&aln, 1000, 900, &cfg(10)), OverlapClass::Contains);
        // v fully inside h.
        let aln2 = PairAlignment {
            score: 990,
            beg_v: 3,
            end_v: 998,
            beg_h: 100,
            end_h: 870,
            strand: Strand::Forward,
        };
        assert_eq!(classify_alignment(&aln2, 1000, 900, &cfg(10)), OverlapClass::ContainedBy);
    }

    #[test]
    fn internal_matches_are_rejected() {
        // Alignment ends in the middle of both reads on both sides.
        let aln = PairAlignment {
            score: 100,
            beg_v: 300,
            end_v: 500,
            beg_h: 350,
            end_h: 550,
            strand: Strand::Forward,
        };
        assert_eq!(classify_alignment(&aln, 1000, 900, &cfg(10)), OverlapClass::Internal);
    }

    #[test]
    fn fuzz_tolerates_unaligned_ends() {
        // 30 unaligned bases at v's end and h's start would be Internal with
        // fuzz 10 but a clean dovetail with fuzz 50.
        let aln = PairAlignment {
            score: 500,
            beg_v: 400,
            end_v: 970,
            beg_h: 30,
            end_h: 600,
            strand: Strand::Forward,
        };
        assert!(matches!(classify_alignment(&aln, 1000, 900, &cfg(50)),
            OverlapClass::Dovetail { .. }));
        assert_eq!(classify_alignment(&aln, 1000, 900, &cfg(10)), OverlapClass::Internal);
    }

    #[test]
    #[should_panic(expected = "alignment exceeds read bounds")]
    fn out_of_bounds_alignment_is_rejected() {
        let aln = PairAlignment {
            score: 1,
            beg_v: 0,
            end_v: 1001,
            beg_h: 0,
            end_h: 10,
            strand: Strand::Forward,
        };
        let _ = classify_alignment(&aln, 1000, 900, &cfg(10));
    }
}
