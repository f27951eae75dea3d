//! Re-pins the alignment stage's determinism claim under adversarial steal
//! schedules.
//!
//! `align_candidates_exec` runs waves of per-pair jobs on the pool with
//! worker scratch reused across jobs and waves; everything it returns except
//! the per-worker `rc_orientations` cache counter must be bit-identical under
//! any chunk-claim order.  The explorer enumerates all 3-/4-chunk claim
//! permutations (randomized large shuffles on the CI main preset) with yield
//! injection, a much denser schedule space than the 1/2/4-thread sweeps.
//! The minimizer baseline's sketching loop and the row-wise assembly of `A`
//! get the same treatment.

use dibella_align::ExtendEngine;
use dibella_dist::{CommStats, ProcessGrid};
use dibella_overlap::{
    align_candidates_exec, build_a_matrix, detect_candidates_2d_with, minimizer_overlaps,
    MinimizerConfig, OverlapConfig,
};
use dibella_seq::{count_kmers_serial, DatasetSpec, KmerSelection};
use dibella_testutil::{assert_schedule_determinism, SchedulePreset};

#[test]
fn align_candidates_exec_is_bit_identical_under_adversarial_schedules() {
    // A half-length Tiny genome keeps the candidate set big enough to fan out
    // onto many chunks while the 31+ full alignment replays stay fast.
    let ds = DatasetSpec::Tiny.generate_with_length(2_000, 77);
    let k = 13;
    let sel = KmerSelection { k, min_count: 2, max_count: 60 };
    let table = count_kmers_serial(&ds.reads, &sel);
    let cfg = OverlapConfig::for_tests(k);
    let grid = ProcessGrid::square(4);
    let a = build_a_matrix(&ds.reads, &table, cfg.k, grid, 4);
    let comm = CommStats::new();
    let candidates = detect_candidates_2d_with(&a, &comm, true);

    let explored = assert_schedule_determinism(SchedulePreset::from_env(), || {
        let (overlaps, stats, exec) =
            align_candidates_exec(&ds.reads, &candidates, &cfg, ExtendEngine::Auto);
        // rc_orientations counts per-worker cache misses and is the one
        // documented schedule-dependent counter — everything else is pinned.
        (
            overlaps.to_local_csr(),
            stats,
            exec.aligned_cells,
            exec.band_width_peak,
            exec.xdrop_terminations,
        )
    });
    assert!(explored >= 30, "expected at least the exhaustive-small preset");
}

#[test]
fn minimizer_overlaps_is_bit_identical_under_adversarial_schedules() {
    let ds = DatasetSpec::Tiny.generate(77);
    let cfg = MinimizerConfig::for_tests(13);
    assert!(!minimizer_overlaps(&ds.reads, &cfg).is_empty(), "nothing to pin");

    let explored = assert_schedule_determinism(SchedulePreset::from_env(), || {
        minimizer_overlaps(&ds.reads, &cfg)
    });
    assert!(explored >= 30, "expected at least the exhaustive-small preset");
}

#[test]
fn build_a_matrix_is_bit_identical_under_adversarial_schedules() {
    // Seven construction ranks on a 3×3 grid: three scanning runs per grid
    // row, so every block is stitched from runs that any chunk may have
    // scanned.  The reference is one rank on one thread's natural order.
    let ds = DatasetSpec::Tiny.generate_with_length(2_000, 78);
    let k = 13;
    let table = count_kmers_serial(&ds.reads, &KmerSelection { k, min_count: 2, max_count: 60 });
    let grid = ProcessGrid::square(9);
    let reference = build_a_matrix(&ds.reads, &table, k, grid, 1);
    assert!(reference.nnz() > 0, "nothing to pin");

    let explored = assert_schedule_determinism(SchedulePreset::from_env(), || {
        let a = build_a_matrix(&ds.reads, &table, k, grid, 7);
        assert_eq!(a, reference, "construction ranks and schedule must not change A");
        a
    });
    assert!(explored >= 30, "expected at least the exhaustive-small preset");
}
