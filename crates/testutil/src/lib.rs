//! # dibella-testutil — allocation-tracking measurement utilities
//!
//! A counting global allocator that makes memory claims falsifiable: it
//! tracks the number of allocation calls, the bytes currently resident and
//! the high-water mark of resident bytes.  It grew out of the alignment
//! engine's steady-state-zero-allocation test (PR 7) and is shared by
//!
//! * the alignment test pinning zero allocations in the warm x-drop loop,
//! * the k-mer counter's tests pinning allocation-free Bloom inserts and a
//!   peak linear in the input and the rank count at P = 4 096, and
//! * the `ingest_scale` bench binary that records the counter's peak
//!   resident bytes vs dataset size into `BENCH_ingest.json`.
//!
//! ## Usage
//!
//! Each binary (test file or bench bin) registers one [`PeakAlloc`] as its
//! global allocator and measures through a scope guard:
//!
//! ```ignore
//! use dibella_testutil::PeakAlloc;
//!
//! #[global_allocator]
//! static ALLOC: PeakAlloc = PeakAlloc::new();
//!
//! let scope = ALLOC.scope();
//! run_workload();
//! assert!(scope.peak_resident() <= BUDGET_BYTES);
//! assert_eq!(scope.thread_allocations(), 0); // for zero-allocation claims
//! ```
//!
//! The counters are global to the process, so a measuring test file should
//! hold a single `#[test]` (a sibling test allocating concurrently would make
//! the delta meaningless) — the same discipline the PR 7 test established.
//! Even then libtest's own threads allocate while the test runs, so a claim
//! about the calls of single-threaded code is made on
//! [`AllocScope::thread_allocations`], which counts the calling thread only.

#![warn(missing_docs)]

pub mod schedule;

pub use schedule::{assert_schedule_determinism, ExploredSchedule, SchedulePreset};

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Allocation calls the current thread made through any [`PeakAlloc`].
    /// `const`-initialised and without a destructor, so touching it neither
    /// allocates nor registers anything: legal inside `GlobalAlloc`.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// A counting global allocator wrapping the system allocator.
///
/// Tracks three monotonically-safe counters:
///
/// * **allocations** — number of `alloc`/`realloc`/`alloc_zeroed` calls;
/// * **current** — bytes currently resident (allocated minus deallocated);
/// * **peak** — the high-water mark of `current` since the last
///   [`PeakAlloc::reset_peak`].
///
/// All methods are lock-free; the peak is maintained with a CAS loop, so
/// concurrent allocations from worker threads are folded in correctly.
pub struct PeakAlloc {
    allocations: AtomicU64,
    current: AtomicU64,
    peak: AtomicU64,
}

impl PeakAlloc {
    /// A fresh allocator with all counters at zero (`const`, so it can
    /// initialise a `#[global_allocator]` static).
    pub const fn new() -> Self {
        Self {
            allocations: AtomicU64::new(0),
            current: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Number of allocation calls (`alloc`, `realloc`, `alloc_zeroed`) so far.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Bytes currently resident: allocated and not yet deallocated.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// The high-water mark of resident bytes since the last
    /// [`PeakAlloc::reset_peak`] (or process start).
    pub fn peak_resident(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reset the high-water mark to the *current* resident bytes, so the next
    /// [`PeakAlloc::peak_resident`] reflects only growth after this call.
    pub fn reset_peak(&self) {
        self.peak.store(self.current.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Start a measurement scope: records the current counters as the
    /// baseline and resets the peak, so the guard's deltas cover exactly the
    /// work done while it is alive.
    pub fn scope(&self) -> AllocScope<'_> {
        self.reset_peak();
        AllocScope {
            alloc: self,
            base_allocations: self.allocations(),
            base_thread_allocations: THREAD_ALLOCATIONS.get(),
            base_current: self.current(),
        }
    }

    fn on_alloc(&self, bytes: usize) {
        self.count_call();
        self.grow(bytes as u64);
    }

    fn count_call(&self) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        THREAD_ALLOCATIONS.set(THREAD_ALLOCATIONS.get() + 1);
    }

    fn grow(&self, bytes: u64) {
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        // Fold the new resident total into the peak (CAS loop: another thread
        // may be raising it concurrently).
        let mut peak = self.peak.load(Ordering::Relaxed);
        while now > peak {
            match self.peak.compare_exchange_weak(
                peak,
                now,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => peak = seen,
            }
        }
    }

    fn shrink(&self, bytes: u64) {
        self.current.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl Default for PeakAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates every operation to the system allocator unchanged; the
// counters are side accounting and never affect the returned pointers.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            self.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.shrink(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            self.count_call();
            // Account the delta: a grow raises current (and maybe the peak), a
            // shrink lowers it.
            if new_size >= layout.size() {
                self.grow((new_size - layout.size()) as u64);
            } else {
                self.shrink((layout.size() - new_size) as u64);
            }
        }
        new_ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            self.on_alloc(layout.size());
        }
        ptr
    }
}

/// RAII measurement scope over a [`PeakAlloc`] (see [`PeakAlloc::scope`]).
///
/// The guard holds the baseline counters from its creation; its accessors
/// report deltas, so two sequential scopes measure independent workloads.
pub struct AllocScope<'a> {
    alloc: &'a PeakAlloc,
    base_allocations: u64,
    base_thread_allocations: u64,
    base_current: u64,
}

impl AllocScope<'_> {
    /// Allocation calls since the scope opened, by every thread.
    pub fn allocations(&self) -> u64 {
        self.alloc.allocations() - self.base_allocations
    }

    /// Allocation calls the current thread has made since it opened the
    /// scope: what a zero-allocation claim about single-threaded code is
    /// checked on, because the harness's other threads cannot move it.
    pub fn thread_allocations(&self) -> u64 {
        THREAD_ALLOCATIONS.get() - self.base_thread_allocations
    }

    /// Peak resident bytes **above the scope's baseline**: the high-water
    /// mark reached since the scope opened, minus the bytes that were already
    /// resident when it opened.  This is the number an ingest budget bounds —
    /// memory the measured workload itself made resident.
    pub fn peak_resident(&self) -> u64 {
        self.alloc.peak_resident().saturating_sub(self.base_current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: these unit tests do NOT register the allocator globally (the test
    // harness itself allocates); they exercise the counter arithmetic through
    // the GlobalAlloc entry points directly.
    #[test]
    fn counters_track_alloc_and_dealloc() {
        let a = PeakAlloc::new();
        let layout = Layout::from_size_align(1024, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(a.current(), 1024);
            assert_eq!(a.peak_resident(), 1024);
            assert_eq!(a.allocations(), 1);
            a.dealloc(p, layout);
        }
        assert_eq!(a.current(), 0);
        assert_eq!(a.peak_resident(), 1024, "peak survives the free");
        a.reset_peak();
        assert_eq!(a.peak_resident(), 0);
    }

    #[test]
    fn realloc_accounts_the_delta_both_ways() {
        let a = PeakAlloc::new();
        let layout = Layout::from_size_align(100, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            let p2 = a.realloc(p, layout, 300);
            assert_eq!(a.current(), 300);
            assert_eq!(a.peak_resident(), 300);
            let grown = Layout::from_size_align(300, 8).unwrap();
            let p3 = a.realloc(p2, grown, 50);
            assert_eq!(a.current(), 50);
            assert_eq!(a.peak_resident(), 300, "shrinks do not lower the peak");
            a.dealloc(p3, Layout::from_size_align(50, 8).unwrap());
        }
        assert_eq!(a.current(), 0);
        assert_eq!(a.allocations(), 3);
    }

    #[test]
    fn scope_measures_deltas_only() {
        let a = PeakAlloc::new();
        let layout = Layout::from_size_align(500, 8).unwrap();
        let pre = unsafe { a.alloc(layout) };
        let scope = a.scope();
        assert_eq!(scope.allocations(), 0);
        assert_eq!(scope.peak_resident(), 0);
        unsafe {
            let p = a.alloc(layout);
            assert_eq!(scope.peak_resident(), 500);
            a.dealloc(p, layout);
        }
        assert_eq!(scope.allocations(), 1);
        assert_eq!(scope.peak_resident(), 500, "scope peak survives the free");
        unsafe { a.dealloc(pre, layout) };
    }

    #[test]
    fn thread_allocations_ignore_other_threads() {
        let a = PeakAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        let scope = a.scope();
        std::thread::scope(|s| {
            s.spawn(|| unsafe {
                let p = a.alloc(layout);
                a.dealloc(p, layout);
            });
        });
        assert_eq!((scope.allocations(), scope.thread_allocations()), (1, 0));
        unsafe {
            let p = a.alloc(layout);
            let p = a.realloc(p, layout, 128);
            a.dealloc(p, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!((scope.allocations(), scope.thread_allocations()), (3, 2));
    }

    #[test]
    fn peak_folds_concurrent_growth() {
        let a = PeakAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        unsafe {
                            let p = a.alloc(layout);
                            a.dealloc(p, layout);
                        }
                    }
                });
            }
        });
        assert_eq!(a.current(), 0);
        assert!(a.peak_resident() >= 64);
        assert!(a.peak_resident() <= 4 * 64, "peak cannot exceed max concurrency");
        assert_eq!(a.allocations(), 4000);
    }
}
