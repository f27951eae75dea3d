//! The reusable row accumulator and the flops accounting of the SpGEMM
//! kernels.
//!
//! CombBLAS' local SpGEMM gets most of its speed from never allocating a
//! fresh accumulator per output row.  This module provides the same
//! discipline: a [`DenseSpa`] is created **once per worker thread** and
//! reused across every row that worker processes — and, in SUMMA, across all
//! `√P` stages of a rank's block product.  It is a sparse accumulator (SPA):
//! one `Option` slot per output column plus the list of columns touched since
//! the last extract.  A product is folded into its slot by
//! [`Semiring::multiply_add`], as the k-major kernel folds into its dense
//! slots: O(1) per product, O(w log w) extract where `w` is the row width,
//! and `size_of::<Option<T>>()` bytes per block column per worker — 32 for
//! the overlap semiring's entry, whose `bool` leaves room for `None`, so
//! 32 MB for a 10⁶-column block of `C`, a fraction of what the `A` blocks
//! feeding such a product occupy, which is why no width needs a second,
//! hashed variant.
//!
//! Every kernel inspects exactly one slot per folded product, so the probe
//! count of a [`FlopCounter`] is its product count: the kernels flush one
//! product tally per row, which `summa` folds into `CommStats::extras` so
//! every phase can report flops/s.

use crate::semiring::Semiring;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared counters describing the arithmetic work of one SpGEMM.
///
/// * **useful flops** — one multiply and one accumulate per non-annihilated
///   semiring product, i.e. `2 ×` the number of products folded in (the
///   conventional SpGEMM flop count);
/// * **probes** — accumulator slot inspections, one per folded product in
///   every kernel, so `flops / 2`;
/// * **peak row width** — the widest accumulated output row, which bounds
///   the accumulator memory any worker needed.
#[derive(Debug, Default)]
pub struct FlopCounter {
    flops: AtomicU64,
    peak_row_width: AtomicU64,
}

impl FlopCounter {
    /// A fresh counter with every tally at zero.
    pub const fn new() -> Self {
        Self { flops: AtomicU64::new(0), peak_row_width: AtomicU64::new(0) }
    }

    /// Fold one finished row's tallies in (called once per output row, so the
    /// atomics are off the inner accumulation loop).
    pub fn record_row(&self, products: u64, width: u64) {
        self.flops.fetch_add(2 * products, Ordering::Relaxed);
        self.peak_row_width.fetch_max(width, Ordering::Relaxed);
    }

    /// Useful flops so far (2 per accumulated product).
    pub fn flops(&self) -> u64 {
        self.flops.load(Ordering::Relaxed)
    }

    /// Probes into the accumulator so far: one per accumulated product.
    pub fn probes(&self) -> u64 {
        self.flops() / 2
    }

    /// Widest output row accumulated so far.
    pub fn peak_row_width(&self) -> u64 {
        self.peak_row_width.load(Ordering::Relaxed)
    }
}

/// A dense row of `Option` slots with a touched-column list.
///
/// A slot is `Some` exactly while its column is listed in `touched`;
/// extracting a row takes every listed slot back to `None`, so the O(width)
/// slot array is paid for once per worker, not once per row.
#[derive(Debug)]
pub struct DenseSpa<T> {
    slots: Vec<Option<T>>,
    touched: Vec<usize>,
}

impl<T> DenseSpa<T> {
    /// A SPA covering columns `0..ncols`.
    pub fn new(ncols: usize) -> Self {
        Self { slots: std::iter::repeat_with(|| None).take(ncols).collect(), touched: Vec::new() }
    }

    /// Fold the product `a ⊗ b` into column `col` through
    /// [`Semiring::multiply_add`], returning whether a product was folded
    /// (`false` = annihilated, the slot untouched).
    #[inline]
    pub(crate) fn fold<S: Semiring<Out = T>>(&mut self, col: usize, a: &S::Left, b: &S::Right) -> bool {
        let slot = &mut self.slots[col];
        let fresh = slot.is_none();
        let folded = S::multiply_add(slot, a, b);
        if fresh && slot.is_some() {
            self.touched.push(col);
        }
        folded
    }

    /// Number of distinct columns accumulated since the last extract.
    pub(crate) fn len(&self) -> usize {
        self.touched.len()
    }

    /// Drain the accumulated row, sorted by column, into a fresh vector, and
    /// reset the accumulator for the next row (storage is retained).
    pub(crate) fn extract_sorted(&mut self) -> Vec<(usize, T)> {
        self.touched.sort_unstable();
        let slots = &mut self.slots;
        // `map`, not `filter_map`, so `collect` sizes the row exactly once.
        self.touched.drain(..).map(|c| (c, slots[c].take().expect("a touched slot holds a value"))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    #[test]
    fn dense_spa_accumulates_and_sorts() {
        let mut acc = DenseSpa::new(16);
        for (col, val) in [(7usize, 1i64), (3, 10), (7, 2), (0, 5), (3, 1)] {
            assert!(acc.fold::<PlusTimes<i64>>(col, &val, &1));
        }
        assert_eq!(acc.len(), 3);
        assert_eq!(acc.extract_sorted(), vec![(0, 5), (3, 11), (7, 3)]);
        // Reuse after extract: the emptied slots must forget the old row.
        acc.fold::<PlusTimes<i64>>(7, &100, &1);
        assert_eq!(acc.extract_sorted(), vec![(7, 100)]);
    }

    /// A value that reports its own drop: `drops[id]` must end at exactly 1.
    #[derive(Debug)]
    struct Tracked {
        id: usize,
        sum: i64,
        drops: Arc<[AtomicU32]>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            unreachable!("the accumulator never clones a value")
        }
    }

    /// Sums `(id, sum)` operands into [`Tracked`] values, each product
    /// carrying its operand's id and the drop ledger it is counted in; a
    /// negative sum annihilates.
    struct TrackedSum;

    impl Semiring for TrackedSum {
        type Left = (usize, i64);
        type Right = Arc<[AtomicU32]>;
        type Out = Tracked;

        fn multiply(&(id, sum): &(usize, i64), drops: &Arc<[AtomicU32]>) -> Option<Tracked> {
            (sum >= 0).then(|| Tracked { id, sum, drops: Arc::clone(drops) })
        }

        fn add(acc: &mut Tracked, x: Tracked) {
            acc.sum += x.sum;
        }
    }

    /// The accumulator through salted random fold / extract sequences that
    /// end mid-row, against a `BTreeMap` — the same rows, and every product
    /// ever made (merged away, extracted, or abandoned in the dropped
    /// accumulator) dropped exactly once; an annihilated product touches
    /// nothing.
    #[test]
    fn accumulators_match_a_map_and_drop_every_value_exactly_once() {
        for salt in 0..48u64 {
            let mut state = salt.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = |bound: usize| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as usize % bound
            };
            let ncols = 1 + next(200);
            let steps = next(400);
            let drops: Arc<[AtomicU32]> = (0..steps).map(|_| AtomicU32::new(0)).collect();
            let mut acc = DenseSpa::<Tracked>::new(ncols);
            let mut want = std::collections::BTreeMap::new();
            let mut made = vec![false; steps];
            for id in 0..steps {
                if next(16) == 0 {
                    let row: Vec<_> =
                        acc.extract_sorted().into_iter().map(|(c, v)| (c, v.sum)).collect();
                    let want_row: Vec<_> = std::mem::take(&mut want).into_iter().collect();
                    assert_eq!(row, want_row, "salt {salt}");
                } else {
                    let (col, sum) = (next(ncols), next(1000) as i64 - 50);
                    made[id] = acc.fold::<TrackedSum>(col, &(id, sum), &drops);
                    assert_eq!(made[id], sum >= 0, "salt {salt}");
                    if made[id] {
                        *want.entry(col).or_insert(0) += sum;
                    }
                }
            }
            assert_eq!(acc.len(), want.len(), "salt {salt}");
            drop(acc);
            let drops: Vec<u32> = drops.iter().map(|d| d.load(Ordering::Relaxed)).collect();
            let want_drops: Vec<u32> = made.iter().map(|&m| u32::from(m)).collect();
            assert_eq!(drops, want_drops, "salt {salt}");
        }
    }

    #[test]
    fn flop_counter_tallies_and_tracks_peak() {
        let c = FlopCounter::new();
        c.record_row(10, 4);
        c.record_row(3, 9);
        c.record_row(0, 2);
        assert_eq!(c.flops(), 26, "2 flops per accumulated product");
        assert_eq!(c.probes(), 13, "one probe per accumulated product");
        assert_eq!(c.peak_row_width(), 9);
    }
}
