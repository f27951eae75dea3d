//! Re-pins the k-mer counter's determinism claim under adversarial steal
//! schedules.
//!
//! `count_kmers_distributed` runs one k-mer exchange whose per-rank
//! extraction, per-source exchange grouping and per-owner tallies all ride
//! the work-stealing pool; the claim is that the resulting
//! table is bit-identical to the serial reference counter at any thread
//! count.  Here the schedule explorer additionally permutes the pool's
//! chunk-claim order (all 3-/4-chunk permutations, or seeded large shuffles
//! on the CI main preset) with yield points injected before every claim.

use dibella_dist::CommStats;
use dibella_seq::{count_kmers_distributed, count_kmers_serial, DatasetSpec, KmerSelection};
use dibella_testutil::{assert_schedule_determinism, SchedulePreset};

#[test]
fn parallel_owner_folds_are_bit_identical_under_adversarial_schedules() {
    // One exchange, sixteen owners: every explored schedule spreads the
    // owners' tallies over its chunks differently, and the table and the
    // accounted exchange must not notice.
    let ds = DatasetSpec::Tiny.generate_with_length(2_000, 22);
    let sel = KmerSelection { k: 9, min_count: 2, max_count: 50 };
    let reference: Vec<(u32, _, u32)> = count_kmers_serial(&ds.reads, &sel).iter().collect();

    let explored = assert_schedule_determinism(SchedulePreset::from_env(), || {
        let stats = CommStats::new();
        let table = count_kmers_distributed(&ds.reads, &sel, 16, &stats);
        let entries: Vec<(u32, _, u32)> = table.iter().collect();
        assert_eq!(entries, reference, "distributed must match the serial counter");
        (entries, stats.snapshot())
    });
    assert!(explored >= 30, "expected at least the exhaustive-small preset");
}
