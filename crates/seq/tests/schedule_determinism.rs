//! Re-pins the k-mer counter's determinism claim under adversarial steal
//! schedules.
//!
//! `count_kmers_streaming` runs both counting passes as supersteps whose
//! per-batch extraction, per-destination exchange and per-owner sorted folds
//! all ride the work-stealing pool; the PR-8 claim is that the resulting
//! table is bit-identical to the serial reference counter at any batch size
//! and thread count.  Here the schedule explorer
//! additionally permutes the pool's chunk-claim order (all 3-/4-chunk
//! permutations, or seeded large shuffles on the CI main preset) with yield
//! points injected before every claim.

use dibella_dist::CommStats;
use dibella_seq::stream::{read_set_batches, IngestBudget};
use dibella_seq::{
    count_kmers_distributed, count_kmers_serial, count_kmers_streaming, DatasetSpec, KmerSelection,
};
use dibella_testutil::{assert_schedule_determinism, SchedulePreset};

#[test]
fn count_kmers_streaming_is_bit_identical_under_adversarial_schedules() {
    let ds = DatasetSpec::Tiny.generate_with_length(2_000, 21);
    let sel = KmerSelection { k: 9, min_count: 2, max_count: 50 };
    let budget = IngestBudget::with_batch_reads(7);

    // The serial counter is the fixed, independent reference; every explored
    // schedule must reproduce it.
    let reference: Vec<(u32, _, u32)> = count_kmers_serial(&ds.reads, &sel).iter().collect();

    let explored = assert_schedule_determinism(SchedulePreset::from_env(), || {
        let stats = CommStats::new();
        let (table, _) = count_kmers_streaming(
            || Ok(read_set_batches(&ds.reads, budget)),
            &sel,
            4,
            &budget,
            &stats,
        )
        .expect("budget is per-batch and generous");
        let entries: Vec<(u32, _, u32)> = table.iter().collect();
        assert_eq!(entries, reference, "streaming must match the serial counter");
        entries
    });
    assert!(explored >= 30, "expected at least the exhaustive-small preset");
}

#[test]
fn parallel_owner_folds_are_bit_identical_under_adversarial_schedules() {
    // One superstep, sixteen owners: every explored schedule spreads the
    // owners' sort / run-length / Bloom folds over its chunks differently,
    // and the table and the accounted exchange must not notice.
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
