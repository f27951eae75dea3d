//! The semiring abstraction used by every SpGEMM in the pipeline.
//!
//! diBELLA 2D overloads the scalar addition and multiplication of sparse
//! matrix multiplication twice: once with a "collect shared k-mer positions"
//! semiring for overlap detection (Section IV-D) and once with the MinPlus
//! semiring with orientation checks for transitive reduction (Algorithm 3).
//! This module defines the trait both plug into, along with the classical
//! semirings used for testing and for the generic graph kernels.

/// A semiring over possibly heterogeneous operand types.
///
/// `multiply` may return `None`, which acts as the multiplicative annihilator:
/// the pair contributes nothing to the accumulator.  This is how Algorithm 3's
/// `ISDIROK` check (return the identity when the path is not a valid bidirected
/// walk) is expressed.
///
/// `add` folds a new contribution into an existing accumulator; the first
/// contribution for an output coordinate initialises the accumulator, so no
/// explicit additive identity is required.
pub trait Semiring {
    /// Element type of the left operand matrix.
    type Left: Clone + Send + Sync;
    /// Element type of the right operand matrix.
    type Right: Clone + Send + Sync;
    /// Element type of the output matrix.
    type Out: Clone + Send + Sync;

    /// Multiply one left entry with one right entry, or annihilate (`None`).
    fn multiply(a: &Self::Left, b: &Self::Right) -> Option<Self::Out>;

    /// Fold `x` into the accumulator `acc`.
    fn add(acc: &mut Self::Out, x: Self::Out);

    /// Fused multiply-add into a slot that may still be empty: exactly
    /// `multiply` then (`add` into `Some`, or store into `None`), returning
    /// whether a product was folded (`false` = annihilated, slot untouched).
    ///
    /// Every kernel of [`crate::spgemm`], row-wise or k-major, accumulates
    /// through this alone, so a semiring whose `Out` is large can override it
    /// to update the slot in place instead of building a temporary per
    /// product.  An override must leave the slot bit-identical to the default's.
    #[inline]
    fn multiply_add(acc: &mut Option<Self::Out>, a: &Self::Left, b: &Self::Right) -> bool {
        let Some(prod) = Self::multiply(a, b) else { return false };
        match acc {
            Some(acc) => Self::add(acc, prod),
            None => *acc = Some(prod),
        }
        true
    }
}

/// The ordinary `(+, *)` semiring over a numeric type.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlusTimes<T>(std::marker::PhantomData<T>);

macro_rules! impl_plus_times {
    ($($t:ty),*) => {
        $(
            impl Semiring for PlusTimes<$t> {
                type Left = $t;
                type Right = $t;
                type Out = $t;
                fn multiply(a: &$t, b: &$t) -> Option<$t> {
                    Some(a * b)
                }
                fn add(acc: &mut $t, x: $t) {
                    *acc += x;
                }
            }
        )*
    };
}

impl_plus_times!(i32, i64, u32, u64, f32, f64);

/// The `(min, +)` semiring over a numeric type (shortest paths).
///
/// This is the plain version without orientation checks; the transitive
/// reduction crate defines the bidirected variant of Algorithm 3 on top of the
/// same [`Semiring`] trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinPlusNum<T>(std::marker::PhantomData<T>);

macro_rules! impl_min_plus {
    ($($t:ty),*) => {
        $(
            impl Semiring for MinPlusNum<$t> {
                type Left = $t;
                type Right = $t;
                type Out = $t;
                fn multiply(a: &$t, b: &$t) -> Option<$t> {
                    Some(a + b)
                }
                fn add(acc: &mut $t, x: $t) {
                    if x < *acc {
                        *acc = x;
                    }
                }
            }
        )*
    };
}

impl_min_plus!(i32, i64, u32, u64);

/// The boolean `(or, and)` semiring — structural reachability.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoolAndOr;

impl Semiring for BoolAndOr {
    type Left = bool;
    type Right = bool;
    type Out = bool;

    fn multiply(a: &bool, b: &bool) -> Option<bool> {
        Some(*a && *b)
    }

    fn add(acc: &mut bool, x: bool) {
        *acc |= x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_behaves_like_arithmetic() {
        let mut acc = <PlusTimes<i64> as Semiring>::multiply(&3, &4).unwrap();
        assert_eq!(acc, 12);
        PlusTimes::<i64>::add(&mut acc, PlusTimes::<i64>::multiply(&2, &5).unwrap());
        assert_eq!(acc, 22);
    }

    #[test]
    fn min_plus_takes_shortest_sum() {
        let mut acc = <MinPlusNum<u64> as Semiring>::multiply(&3, &4).unwrap();
        assert_eq!(acc, 7);
        MinPlusNum::<u64>::add(&mut acc, MinPlusNum::<u64>::multiply(&1, &2).unwrap());
        assert_eq!(acc, 3);
        MinPlusNum::<u64>::add(&mut acc, MinPlusNum::<u64>::multiply(&10, &10).unwrap());
        assert_eq!(acc, 3);
    }

    #[test]
    fn bool_semiring_is_reachability() {
        assert_eq!(BoolAndOr::multiply(&true, &true), Some(true));
        assert_eq!(BoolAndOr::multiply(&true, &false), Some(false));
        let mut acc = false;
        BoolAndOr::add(&mut acc, false);
        assert!(!acc);
        BoolAndOr::add(&mut acc, true);
        assert!(acc);
        BoolAndOr::add(&mut acc, false);
        assert!(acc);
    }

    #[test]
    fn float_plus_times_works() {
        let mut acc = <PlusTimes<f64> as Semiring>::multiply(&0.5, &4.0).unwrap();
        PlusTimes::<f64>::add(&mut acc, 1.0);
        assert!((acc - 3.0).abs() < 1e-12);
    }
}
