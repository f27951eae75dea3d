//! The MinPlus semiring with orientation checks (Algorithm 3).
//!
//! Squaring the overlap matrix with this semiring produces, for every ordered
//! read pair `(i, j)`, the length of the shortest valid two-hop walk
//! `i → k → j` — separately for each of the four possible bidirected
//! directions of the implied edge.  Keeping the minimum per direction (rather
//! than one global minimum) is what lets the element-wise transitivity test of
//! Algorithm 2 enforce rules (b) and (c) of Section II: the two-hop walk only
//! disqualifies a direct edge whose heads have the same orientations.
//!
//! The `ISDIROK` check of Algorithm 3 — "whether the two heads next to the
//! intermediate node have opposite directions" in the paper's phrasing, i.e.
//! whether the walk may pass through the middle read consistently — is the
//! [`BidirectedDir::chains_with`] predicate: multiplication returns the
//! semiring identity (here: `None`) when the two edges cannot be chained.

use dibella_align::BidirectedDir;
use dibella_overlap::OverlapEdge;
use dibella_sparse::Semiring;

/// Entry of the two-hop matrix `N = R²`: the minimum two-hop suffix sum for
/// each of the four implied bidirected directions (`u32::MAX` = no valid walk
/// with that direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoHop {
    /// Minimum suffix-sum per implied direction (indexed by `BidirectedDir` bits).
    pub min_suffix: [u32; 4],
}

impl Default for TwoHop {
    fn default() -> Self {
        Self { min_suffix: [u32::MAX; 4] }
    }
}

impl TwoHop {
    /// A two-hop entry with a single known walk.
    pub fn single(dir: BidirectedDir, suffix_sum: u32) -> Self {
        let mut out = Self::default();
        out.min_suffix[dir.bits() as usize] = suffix_sum;
        out
    }

    /// The minimum suffix-sum of a walk whose implied direction matches `dir`.
    pub fn for_dir(&self, dir: BidirectedDir) -> Option<u32> {
        let v = self.min_suffix[dir.bits() as usize];
        (v != u32::MAX).then_some(v)
    }

    /// Whether any valid two-hop walk was found.
    pub fn any(&self) -> bool {
        self.min_suffix.iter().any(|&v| v != u32::MAX)
    }
}

/// Algorithm 3: MinPlus with the bidirected-walk validity check.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrMinPlus;

impl Semiring for TrMinPlus {
    type Left = OverlapEdge;
    type Right = OverlapEdge;
    type Out = TwoHop;

    fn multiply(a: &OverlapEdge, b: &OverlapEdge) -> Option<TwoHop> {
        let d1 = a.direction();
        let d2 = b.direction();
        // ISDIROK: the walk must traverse the intermediate read consistently.
        if !d1.chains_with(d2) {
            return None;
        }
        let implied = d1.compose(d2);
        Some(TwoHop::single(implied, a.suffix.saturating_add(b.suffix)))
    }

    fn add(acc: &mut TwoHop, x: TwoHop) {
        for dir in 0..4 {
            if x.min_suffix[dir] < acc.min_suffix[dir] {
                acc.min_suffix[dir] = x.min_suffix[dir];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(dir: u8, suffix: u32) -> OverlapEdge {
        OverlapEdge { dir, suffix, score: 100, overlap_len: 500 }
    }

    #[test]
    fn multiply_requires_consistent_middle_orientation() {
        // i -> k entering k forward (bit0 = 1) chains with k -> j leaving k forward.
        let ik = edge(0b11, 100);
        let kj = edge(0b11, 200);
        let n = TrMinPlus::multiply(&ik, &kj).expect("valid walk");
        assert_eq!(n.for_dir(BidirectedDir(0b11)), Some(300));
        // i -> k entering k forward does NOT chain with k -> j leaving k reversed.
        let kj_bad = edge(0b01, 200);
        assert!(TrMinPlus::multiply(&ik, &kj_bad).is_none());
    }

    #[test]
    fn multiply_composes_outer_orientations() {
        // i -> k (i forward, k reversed) then k -> j (k reversed, j forward):
        // valid, and the implied edge is (i forward, j forward).
        let ik = edge(0b10, 50);
        let kj = edge(0b01, 70);
        let n = TrMinPlus::multiply(&ik, &kj).unwrap();
        assert_eq!(n.for_dir(BidirectedDir(0b11)), Some(120));
        assert_eq!(n.for_dir(BidirectedDir(0b10)), None);
    }

    #[test]
    fn add_keeps_per_direction_minimum() {
        let mut acc = TwoHop::single(BidirectedDir(0b11), 300);
        TrMinPlus::add(&mut acc, TwoHop::single(BidirectedDir(0b11), 250));
        TrMinPlus::add(&mut acc, TwoHop::single(BidirectedDir(0b11), 400));
        TrMinPlus::add(&mut acc, TwoHop::single(BidirectedDir(0b10), 100));
        assert_eq!(acc.for_dir(BidirectedDir(0b11)), Some(250));
        assert_eq!(acc.for_dir(BidirectedDir(0b10)), Some(100));
        assert_eq!(acc.for_dir(BidirectedDir(0b00)), None);
        assert!(acc.any());
    }

    #[test]
    fn suffix_sums_saturate_instead_of_overflowing() {
        // Absurdly long suffixes saturate to u32::MAX, which is the "no walk"
        // sentinel — a saturated walk can never disqualify a real edge, which
        // is the safe direction to fail in.
        let ik = edge(0b11, u32::MAX - 5);
        let kj = edge(0b11, 100);
        let n = TrMinPlus::multiply(&ik, &kj).unwrap();
        assert_eq!(n.for_dir(BidirectedDir(0b11)), None);
        assert_eq!(n.min_suffix[0b11], u32::MAX);
    }

    #[test]
    fn default_two_hop_has_no_walks() {
        let t = TwoHop::default();
        assert!(!t.any());
        for bits in 0..4u8 {
            assert_eq!(t.for_dir(BidirectedDir(bits)), None);
        }
    }
}
