//! Pins the Bloom filter's hot path as allocation-free.
//!
//! `BloomFilter::insert` runs once per singleton k-mer of the counter's
//! first pass, so it must probe in place.  This file holds
//! a single `#[test]` on purpose (the [`PeakAlloc`] counters are global to the
//! process) and asserts on the calling thread's own allocation calls, which
//! libtest's threads cannot move.

use dibella_seq::BloomFilter;
use dibella_testutil::PeakAlloc;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

#[test]
fn bloom_inserts_and_lookups_do_not_allocate() {
    let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut filter = BloomFilter::with_rate(10_000, 0.01);

    let scope = ALLOC.scope();
    let mut seen = 0u32;
    for i in 0..10_000u64 {
        seen += filter.insert(key(i)) as u32;
        seen += filter.contains(key(i + 1)) as u32;
    }
    assert_eq!(scope.thread_allocations(), 0, "10 000 inserts after construction must not allocate");
    assert!(seen < 1_000, "a 1% filter at design load reported {seen} of 20 000 probes as seen");
}
