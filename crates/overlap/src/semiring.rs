//! The shared-k-mer-positions semiring used for `C = A·Aᵀ`.
//!
//! Section IV-D: "We overload the multiplication with an assignment by taking
//! the positions of the respective k-mer in two sequences [...].  We overload
//! the addition operator by incrementing the counter of common k-mers [...]
//! and storing the positions of another common k-mer [...] as long as it is
//! smaller than the number of positions to be stored."
//!
//! `C[j][i]` would hold the count of `C[i][j]` and the same seeds with
//! `pos_v`/`pos_h` swapped, so only `C[i][j]`, `i < j`, is ever formed: a
//! seed's `pos_v` is a position in the lower-numbered read.

use crate::types::{CommonKmers, KmerOccurrence, SharedSeed, MAX_SEEDS};
use dibella_sparse::Semiring;

/// Semiring computing [`CommonKmers`] from pairs of [`KmerOccurrence`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapSemiring;

impl Semiring for OverlapSemiring {
    type Left = KmerOccurrence;
    type Right = KmerOccurrence;
    type Out = CommonKmers;

    fn multiply(a: &KmerOccurrence, b: &KmerOccurrence) -> Option<CommonKmers> {
        Some(CommonKmers::from_seed(shared_seed(a, b)))
    }

    fn add(acc: &mut CommonKmers, x: CommonKmers) {
        acc.count += x.count;
        for seed in x.seeds {
            if acc.seeds.len() >= MAX_SEEDS {
                break;
            }
            acc.seeds.push(seed);
        }
    }

    /// Count the shared k-mer and keep its seed while there is room, in
    /// place: no 32-byte `CommonKmers` is built for a pair already seen.
    #[inline]
    fn multiply_add(acc: &mut Option<CommonKmers>, a: &KmerOccurrence, b: &KmerOccurrence) -> bool {
        match acc {
            Some(acc) => {
                acc.count += 1;
                acc.seeds.push(shared_seed(a, b));
            }
            None => *acc = Self::multiply(a, b),
        }
        true
    }
}

/// The seed one shared k-mer contributes: its position in each read and
/// whether the two occurrences agree in strand.
#[inline]
fn shared_seed(a: &KmerOccurrence, b: &KmerOccurrence) -> SharedSeed {
    SharedSeed { pos_v: a.pos, pos_h: b.pos, same_strand: a.forward == b.forward }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occ(pos: u32, forward: bool) -> KmerOccurrence {
        KmerOccurrence { pos, forward }
    }

    #[test]
    fn multiply_records_positions_and_strand() {
        let out = OverlapSemiring::multiply(&occ(5, true), &occ(9, true)).unwrap();
        assert_eq!(out.count, 1);
        assert_eq!(out.seeds[0], SharedSeed { pos_v: 5, pos_h: 9, same_strand: true });
        let rc = OverlapSemiring::multiply(&occ(5, true), &occ(9, false)).unwrap();
        assert!(!rc.seeds[0].same_strand);
        let rc2 = OverlapSemiring::multiply(&occ(5, false), &occ(9, false)).unwrap();
        assert!(rc2.seeds[0].same_strand, "both reverse means same relative strand");
    }

    #[test]
    fn multiply_add_is_multiply_then_add() {
        // The fused form against the trait's default, slot by slot, from the
        // empty slot past the seed cap and across both strands.
        let (mut fused, mut plain) = (None, None);
        for i in 0..MAX_SEEDS as u32 + 3 {
            let (a, b) = (occ(7 * i, i % 2 == 0), occ(100 + i, i % 3 == 0));
            assert!(OverlapSemiring::multiply_add(&mut fused, &a, &b));
            let prod = OverlapSemiring::multiply(&a, &b).unwrap();
            match &mut plain {
                Some(acc) => OverlapSemiring::add(acc, prod),
                None => plain = Some(prod),
            }
            assert_eq!(fused, plain, "after product {i}");
        }
        assert_eq!(fused.map(|c| c.count), Some(MAX_SEEDS as u32 + 3));
    }

    #[test]
    fn add_counts_all_but_caps_stored_seeds() {
        let mut acc = OverlapSemiring::multiply(&occ(1, true), &occ(2, true)).unwrap();
        for i in 0..5 {
            let x = OverlapSemiring::multiply(&occ(10 + i, true), &occ(20 + i, true)).unwrap();
            OverlapSemiring::add(&mut acc, x);
        }
        assert_eq!(acc.count, 6, "every shared k-mer is counted");
        assert_eq!(acc.seeds.len(), MAX_SEEDS, "only MAX_SEEDS seed positions are stored");
        assert_eq!(acc.seeds[0].pos_v, 1);
        assert_eq!(acc.seeds[1].pos_v, 10);
    }
}
