//! The reusable row accumulator and the flops accounting of the SpGEMM
//! kernels.
//!
//! CombBLAS' local SpGEMM gets most of its speed from never allocating a
//! fresh accumulator per output row.  This module provides the same
//! discipline: a [`DenseSpa`] is created **once per worker thread** and
//! reused across every row that worker processes — and, in SUMMA, across all
//! `√P` stages of a rank's block product.  It is a generation-stamped scatter
//! array (SPA) with a touched-column list: O(1) scatter, O(w log w) extract
//! where `w` is the row width, and memory proportional to the output block
//! width — `8 + size_of::<T>()` bytes per block column per worker, 40 MB for
//! a 10⁶-column block of `C`, a fraction of what the `A` blocks feeding such
//! a product occupy, which is why no width needs a second, hashed variant.
//!
//! It counts its probes into the worker's running tally, which the kernels
//! flush per row into a shared [`FlopCounter`] — the quantity `summa` folds
//! into `CommStats::extras` so every phase can report flops/s.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared counters describing the arithmetic work of one SpGEMM.
///
/// * **useful flops** — one multiply and one accumulate per non-annihilated
///   semiring product, i.e. `2 ×` the number of `multiply` results folded in
///   (the conventional SpGEMM flop count);
/// * **probes** — accumulator slot inspections (SPA touches), the classic
///   measure of accumulator efficiency;
/// * **peak row width** — the widest accumulated output row, which bounds
///   the accumulator memory any worker needed.
#[derive(Debug, Default)]
pub struct FlopCounter {
    flops: AtomicU64,
    probes: AtomicU64,
    peak_row_width: AtomicU64,
}

impl FlopCounter {
    /// A fresh counter with every tally at zero.
    pub const fn new() -> Self {
        Self {
            flops: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            peak_row_width: AtomicU64::new(0),
        }
    }

    /// Fold one finished row's tallies in (called once per output row, so the
    /// atomics are off the inner scatter loop).
    pub fn record_row(&self, products: u64, probes: u64, width: u64) {
        self.flops.fetch_add(2 * products, Ordering::Relaxed);
        self.probes.fetch_add(probes, Ordering::Relaxed);
        self.peak_row_width.fetch_max(width, Ordering::Relaxed);
    }

    /// Useful flops so far (2 per accumulated product).
    pub fn flops(&self) -> u64 {
        self.flops.load(Ordering::Relaxed)
    }

    /// Probes into the accumulator so far.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Widest output row accumulated so far.
    pub fn peak_row_width(&self) -> u64 {
        self.peak_row_width.load(Ordering::Relaxed)
    }
}

/// Generation-stamped scatter array with a touched-column list.
///
/// `stamp[c] == generation` marks column `c` live for the current row; a
/// reset is a single generation bump, so the O(width) arrays are paid for
/// once per worker, not once per row.  Values live in `MaybeUninit` slots —
/// the stamp array is the sole liveness witness, which keeps the hot scatter
/// path free of `Option` discriminant traffic (measurable for 32-byte entry
/// types like the overlap semiring's).
#[derive(Debug)]
pub struct DenseSpa<T> {
    stamp: Vec<u64>,
    generation: u64,
    vals: Vec<std::mem::MaybeUninit<T>>,
    touched: Vec<usize>,
    probes: u64,
}

impl<T> DenseSpa<T> {
    /// A SPA covering columns `0..ncols`.
    pub fn new(ncols: usize) -> Self {
        let mut vals = Vec::with_capacity(ncols);
        // SAFETY-ADJACENT: slots start uninitialised; `stamp[c] == generation`
        // is the invariant marking slot `c` initialised for the current row.
        vals.resize_with(ncols, std::mem::MaybeUninit::uninit);
        Self { stamp: vec![0; ncols], generation: 1, vals, touched: Vec::new(), probes: 0 }
    }

    /// Fold `val` into column `col`, combining collisions with `add`.
    #[inline]
    pub(crate) fn scatter(&mut self, col: usize, val: T, add: impl FnOnce(&mut T, T)) {
        self.probes += 1;
        if self.stamp[col] == self.generation {
            // SAFETY: the stamp invariant guarantees the slot was written
            // this generation and not yet extracted.
            add(unsafe { self.vals[col].assume_init_mut() }, val);
        } else {
            self.stamp[col] = self.generation;
            self.vals[col].write(val);
            self.touched.push(col);
        }
    }

    /// Number of distinct columns accumulated since the last extract.
    pub(crate) fn len(&self) -> usize {
        self.touched.len()
    }

    /// Probe tally since the last [`DenseSpa::take_probes`] call.
    pub(crate) fn take_probes(&mut self) -> u64 {
        std::mem::take(&mut self.probes)
    }

    /// Drain the accumulated row, sorted by column, into a fresh vector, and
    /// reset the accumulator for the next row (storage is retained).
    pub(crate) fn extract_sorted(&mut self) -> Vec<(usize, T)> {
        self.touched.sort_unstable();
        let vals = &mut self.vals;
        let row = self
            .touched
            .drain(..)
            // SAFETY: every touched slot was written this generation; the
            // generation bump below marks them uninitialised again, so each
            // value is read out exactly once.
            .map(|c| (c, unsafe { vals[c].assume_init_read() }))
            .collect();
        self.generation += 1;
        row
    }
}

impl<T> Drop for DenseSpa<T> {
    fn drop(&mut self) {
        // Slots touched since the last extract still hold live values.
        for &c in &self.touched {
            // SAFETY: `touched` lists exactly the slots written this
            // generation and not yet extracted.
            unsafe { self.vals[c].assume_init_drop() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_spa_accumulates_and_sorts() {
        let mut acc = DenseSpa::new(16);
        for (col, val) in [(7usize, 1i64), (3, 10), (7, 2), (0, 5), (3, 1)] {
            acc.scatter(col, val, |a, b| *a += b);
        }
        assert_eq!(acc.len(), 3);
        assert_eq!(acc.extract_sorted(), vec![(0, 5), (3, 11), (7, 3)]);
        assert!(acc.take_probes() >= 5);
        // Reuse after extract: the generation bump must forget the old row.
        acc.scatter(7, 100, |a, b| *a += b);
        assert_eq!(acc.extract_sorted(), vec![(7, 100)]);
    }

    /// A value that reports its own drop: `drops[id]` must end at exactly 1.
    struct Tracked<'a> {
        id: usize,
        sum: i64,
        drops: &'a std::cell::RefCell<Vec<u32>>,
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.drops.borrow_mut()[self.id] += 1;
        }
    }

    /// What stands in for Miri on the `MaybeUninit` slots: the accumulator
    /// through salted random scatter / extract sequences that end mid-row,
    /// against a `BTreeMap` — the same rows, and every value ever handed over
    /// (merged away, extracted, or abandoned in the dropped accumulator)
    /// dropped exactly once.
    #[test]
    fn accumulators_match_a_map_and_drop_every_value_exactly_once() {
        for salt in 0..48u64 {
            let drops = std::cell::RefCell::new(Vec::new());
            let mut state = salt.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = |bound: usize| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as usize % bound
            };
            let ncols = 1 + next(200);
            let mut acc = DenseSpa::<Tracked<'_>>::new(ncols);
            let mut want = std::collections::BTreeMap::new();
            for _ in 0..next(400) {
                if next(16) == 0 {
                    let row: Vec<_> =
                        acc.extract_sorted().into_iter().map(|(c, v)| (c, v.sum)).collect();
                    let want_row: Vec<_> = std::mem::take(&mut want).into_iter().collect();
                    assert_eq!(row, want_row, "salt {salt}");
                } else {
                    let (col, sum) = (next(ncols), next(1000) as i64);
                    let id = drops.borrow().len();
                    drops.borrow_mut().push(0);
                    acc.scatter(col, Tracked { id, sum, drops: &drops }, |a, b| a.sum += b.sum);
                    *want.entry(col).or_insert(0) += sum;
                }
            }
            assert_eq!(acc.len(), want.len(), "salt {salt}");
            drop(acc);
            let drops = drops.into_inner();
            assert!(drops.iter().all(|&d| d == 1), "salt {salt}: drops {drops:?}");
        }
    }

    #[test]
    fn flop_counter_tallies_and_tracks_peak() {
        let c = FlopCounter::new();
        c.record_row(10, 12, 4);
        c.record_row(3, 3, 9);
        c.record_row(0, 0, 2);
        assert_eq!(c.flops(), 26, "2 flops per accumulated product");
        assert_eq!(c.probes(), 15);
        assert_eq!(c.peak_row_width(), 9);
    }
}
