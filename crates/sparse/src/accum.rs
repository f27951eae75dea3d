//! Reusable row accumulators and flops accounting for the SpGEMM kernels.
//!
//! CombBLAS' local SpGEMM gets most of its speed from never allocating a
//! fresh accumulator per output row.  This module provides the same
//! discipline: an [`Accumulator`] is created **once per worker thread** and
//! reused across every row that worker processes — and, in SUMMA, across all
//! `√P` stages of a rank's block product.  Two variants cover the density
//! spectrum:
//!
//! * [`DenseSpa`] — a generation-stamped scatter array (SPA) with a touched
//!   -column list.  O(1) scatter, O(w log w) extract where `w` is the row
//!   width; memory proportional to the output block width, so it is used when
//!   the width is at most [`DENSE_WIDTH_LIMIT`].
//! * [`HashAccum`] — a linear-probing open-addressing hash vector (Fibonacci
//!   hashing, power-of-two capacity, ≤ 50% load) for wide outputs, growing
//!   geometrically and reusing its storage across rows.
//!
//! Both count their probes into the worker's running tallies, which the
//! kernels flush per row into a shared [`FlopCounter`] — the quantity
//! `summa` folds into `CommStats::extras` so every phase can report flops/s.

use std::sync::atomic::{AtomicU64, Ordering};

/// Output widths up to this use the dense SPA; wider outputs use hashing.
///
/// At 2^16 columns the SPA costs one stamp word and one value slot per
/// column per worker — a few MiB at most — while covering every per-block
/// width that appears in the scaled-down experiments.
pub const DENSE_WIDTH_LIMIT: usize = 1 << 16;

/// Shared counters describing the arithmetic work of one SpGEMM.
///
/// * **useful flops** — one multiply and one accumulate per non-annihilated
///   semiring product, i.e. `2 ×` the number of `multiply` results folded in
///   (the conventional SpGEMM flop count);
/// * **probes** — accumulator slot inspections (SPA touches plus hash probe
///   steps), the classic measure of accumulator efficiency;
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

    /// Accumulator probes so far.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Widest output row accumulated so far.
    pub fn peak_row_width(&self) -> u64 {
        self.peak_row_width.load(Ordering::Relaxed)
    }
}

/// Which accumulator variant a kernel should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumPolicy {
    /// Dense SPA for widths up to [`DENSE_WIDTH_LIMIT`], hash otherwise.
    Auto,
    /// Always the dense SPA (tests; small widths).
    ForceDense,
    /// Always the linear-probing hash vector (tests; huge widths).
    ForceHash,
}

/// A reusable sparse-row accumulator (dense SPA or hash vector).
#[derive(Debug)]
pub enum Accumulator<T> {
    /// Generation-stamped scatter array.
    Dense(DenseSpa<T>),
    /// Linear-probing open-addressing hash vector.
    Hash(HashAccum<T>),
}

impl<T> Accumulator<T> {
    /// Choose a variant for an output of `ncols` columns under `policy`.
    pub fn with_policy(ncols: usize, policy: AccumPolicy) -> Self {
        match policy {
            AccumPolicy::Auto if ncols <= DENSE_WIDTH_LIMIT => {
                Accumulator::Dense(DenseSpa::new(ncols))
            }
            AccumPolicy::Auto | AccumPolicy::ForceHash => Accumulator::Hash(HashAccum::new()),
            AccumPolicy::ForceDense => Accumulator::Dense(DenseSpa::new(ncols)),
        }
    }

    /// Fold `val` into column `col`, combining collisions with `add`.
    #[inline]
    pub fn scatter(&mut self, col: usize, val: T, add: impl FnOnce(&mut T, T)) {
        match self {
            Accumulator::Dense(spa) => spa.scatter(col, val, add),
            Accumulator::Hash(h) => h.scatter(col, val, add),
        }
    }

    /// Number of distinct columns currently accumulated.
    pub fn len(&self) -> usize {
        match self {
            Accumulator::Dense(spa) => spa.touched.len(),
            Accumulator::Hash(h) => h.used.len(),
        }
    }

    /// Whether nothing has been accumulated since the last extract.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probe tally since the last [`Accumulator::take_probes`] call.
    pub fn take_probes(&mut self) -> u64 {
        let probes = match self {
            Accumulator::Dense(spa) => &mut spa.probes,
            Accumulator::Hash(h) => &mut h.probes,
        };
        std::mem::take(probes)
    }

    /// Drain the accumulated row, sorted by column, into a fresh vector, and
    /// reset the accumulator for the next row (storage is retained).
    pub fn extract_sorted(&mut self) -> Vec<(usize, T)> {
        match self {
            Accumulator::Dense(spa) => spa.extract_sorted(),
            Accumulator::Hash(h) => h.extract_sorted(),
        }
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

    #[inline]
    fn scatter(&mut self, col: usize, val: T, add: impl FnOnce(&mut T, T)) {
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

    fn extract_sorted(&mut self) -> Vec<(usize, T)> {
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

const EMPTY_KEY: usize = usize::MAX;

/// Linear-probing open-addressing hash accumulator.
#[derive(Debug)]
pub struct HashAccum<T> {
    keys: Vec<usize>,
    vals: Vec<Option<T>>,
    used: Vec<usize>,
    probes: u64,
}

impl<T> HashAccum<T> {
    /// An empty accumulator (capacity grows geometrically on demand).
    pub fn new() -> Self {
        let cap = 16;
        Self {
            keys: vec![EMPTY_KEY; cap],
            vals: (0..cap).map(|_| None).collect(),
            used: Vec::new(),
            probes: 0,
        }
    }

    #[inline]
    fn slot_for(&self, col: usize) -> usize {
        // Fibonacci hashing onto a power-of-two table.
        let hash = (col as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> (64 - self.keys.len().trailing_zeros())) as usize
    }

    #[inline]
    fn scatter(&mut self, col: usize, val: T, add: impl FnOnce(&mut T, T)) {
        debug_assert_ne!(col, EMPTY_KEY, "column index reserved as the empty marker");
        if (self.used.len() + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.slot_for(col);
        loop {
            self.probes += 1;
            if self.keys[slot] == col {
                add(self.vals[slot].as_mut().expect("occupied hash slot holds a value"), val);
                return;
            }
            if self.keys[slot] == EMPTY_KEY {
                self.keys[slot] = col;
                self.vals[slot] = Some(val);
                self.used.push(slot);
                return;
            }
            slot = (slot + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
        let mut old_vals =
            std::mem::replace(&mut self.vals, (0..new_cap).map(|_| None).collect());
        let old_used = std::mem::take(&mut self.used);
        let mask = new_cap - 1;
        for slot in old_used {
            let col = old_keys[slot];
            let val = old_vals[slot].take();
            let mut new_slot = self.slot_for(col);
            while self.keys[new_slot] != EMPTY_KEY {
                new_slot = (new_slot + 1) & mask;
            }
            self.keys[new_slot] = col;
            self.vals[new_slot] = val;
            self.used.push(new_slot);
        }
    }

    fn extract_sorted(&mut self) -> Vec<(usize, T)> {
        let keys = &mut self.keys;
        let vals = &mut self.vals;
        let mut row: Vec<(usize, T)> = self
            .used
            .drain(..)
            .map(|slot| {
                let col = std::mem::replace(&mut keys[slot], EMPTY_KEY);
                (col, vals[slot].take().expect("occupied hash slot holds a value"))
            })
            .collect();
        row.sort_unstable_by_key(|(c, _)| *c);
        row
    }
}

impl<T> Default for HashAccum<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_and_extract(acc: &mut Accumulator<i64>) -> Vec<(usize, i64)> {
        for (col, val) in [(7usize, 1i64), (3, 10), (7, 2), (0, 5), (3, 1)] {
            acc.scatter(col, val, |a, b| *a += b);
        }
        assert_eq!(acc.len(), 3);
        acc.extract_sorted()
    }

    #[test]
    fn dense_spa_accumulates_and_sorts() {
        let mut acc = Accumulator::with_policy(16, AccumPolicy::ForceDense);
        assert_eq!(fill_and_extract(&mut acc), vec![(0, 5), (3, 11), (7, 3)]);
        assert!(acc.take_probes() >= 5);
        // Reuse after extract: the generation bump must forget the old row.
        acc.scatter(7, 100, |a, b| *a += b);
        assert_eq!(acc.extract_sorted(), vec![(7, 100)]);
    }

    #[test]
    fn hash_accum_accumulates_and_sorts() {
        let mut acc = Accumulator::with_policy(16, AccumPolicy::ForceHash);
        assert_eq!(fill_and_extract(&mut acc), vec![(0, 5), (3, 11), (7, 3)]);
        assert!(acc.take_probes() >= 5);
        acc.scatter(7, 100, |a, b| *a += b);
        assert_eq!(acc.extract_sorted(), vec![(7, 100)]);
    }

    #[test]
    fn hash_accum_grows_past_initial_capacity() {
        let mut acc: HashAccum<u64> = HashAccum::new();
        for col in 0..5_000usize {
            acc.scatter(col * 3, col as u64, |a, b| *a += b);
        }
        let row = acc.extract_sorted();
        assert_eq!(row.len(), 5_000);
        for (i, (c, v)) in row.iter().enumerate() {
            assert_eq!(*c, i * 3);
            assert_eq!(*v, i as u64);
        }
        // Reuse keeps the grown capacity but no stale entries.
        acc.scatter(42, 1, |a, b| *a += b);
        assert_eq!(acc.extract_sorted(), vec![(42, 1)]);
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

    /// What stands in for Miri on the `MaybeUninit` slots: both accumulators
    /// through salted random scatter / extract sequences that end mid-row,
    /// against a `BTreeMap` — the same rows, and every value ever handed over
    /// (merged away, extracted, or abandoned in the dropped accumulator)
    /// dropped exactly once.
    #[test]
    fn accumulators_match_a_map_and_drop_every_value_exactly_once() {
        for (policy, salt) in [AccumPolicy::ForceDense, AccumPolicy::ForceHash]
            .into_iter()
            .flat_map(|policy| (0..48u64).map(move |salt| (policy, salt)))
        {
            let drops = std::cell::RefCell::new(Vec::new());
            let mut state = salt.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = |bound: usize| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as usize % bound
            };
            let ncols = 1 + next(200);
            let mut acc = Accumulator::<Tracked<'_>>::with_policy(ncols, policy);
            let mut want = std::collections::BTreeMap::new();
            for _ in 0..next(400) {
                if next(16) == 0 {
                    let row: Vec<_> =
                        acc.extract_sorted().into_iter().map(|(c, v)| (c, v.sum)).collect();
                    let want_row: Vec<_> = std::mem::take(&mut want).into_iter().collect();
                    assert_eq!(row, want_row, "{policy:?} salt {salt}");
                } else {
                    let (col, sum) = (next(ncols), next(1000) as i64);
                    let id = drops.borrow().len();
                    drops.borrow_mut().push(0);
                    acc.scatter(col, Tracked { id, sum, drops: &drops }, |a, b| a.sum += b.sum);
                    *want.entry(col).or_insert(0) += sum;
                }
            }
            assert_eq!(acc.len(), want.len(), "{policy:?} salt {salt}");
            drop(acc);
            let drops = drops.into_inner();
            assert!(drops.iter().all(|&d| d == 1), "{policy:?} salt {salt}: drops {drops:?}");
        }
    }

    #[test]
    fn auto_policy_picks_by_width() {
        let auto = |ncols| Accumulator::<i64>::with_policy(ncols, AccumPolicy::Auto);
        assert!(matches!(auto(100), Accumulator::Dense(_)));
        assert!(matches!(auto(DENSE_WIDTH_LIMIT + 1), Accumulator::Hash(_)));
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
