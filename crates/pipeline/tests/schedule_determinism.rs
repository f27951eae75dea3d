//! Re-pins the whole 2D pipeline's determinism claim under ≥ 50 explored
//! steal schedules.
//!
//! Every stage of `run_dibella_2d_on_reads` rides the work-stealing pool
//! (per-rank SUMMA blocks, per-row SpGEMM, batched alignment, per-contig
//! POA); the repository-wide claim is bit-identical output at any thread
//! count and any chunk-claim interleaving.  This test drives the full
//! pipeline through both explorer presets — the complete 3-/4-chunk
//! permutation enumeration plus seeded large shuffles — and asserts the
//! end-to-end output (string graph, consensus, and the exact communication
//! snapshot) never moves.  The k-min-mer path's `A` is pinned the same way.

use dibella_dist::{CommStats, ProcessGrid};
use dibella_pipeline::{run_dibella_2d_on_reads, PipelineConfig};
use dibella_seq::DatasetSpec;
use dibella_sketch::{build_sketch_matrix, SketchConfig};
use dibella_testutil::{assert_schedule_determinism, SchedulePreset};

#[test]
fn pipeline_is_bit_identical_under_fifty_plus_steal_schedules() {
    // Quarter-length Tiny genome: every stage still fans out onto the pool,
    // but 57+ full pipeline replays stay affordable.
    let ds = DatasetSpec::Tiny.generate_with_length(1_200, 55);
    let config = PipelineConfig::for_small_reads(13, 4);

    let workload = || {
        let out = run_dibella_2d_on_reads(&ds.reads, &config).unwrap();
        // Everything but wall-clock timings participates in the claim; the
        // CommSnapshot pins words, messages and extras (SpGEMM flops and
        // probes, the aligner's cells, widest band and x-drop stops) exactly,
        // not just the assembled sequences.
        (
            out.string_matrix.to_local_csr(),
            out.overlap_matrix.to_local_csr(),
            out.contigs,
            out.consensus,
            out.overlap_stats,
            out.comm,
        )
    };

    let mut explored = 0;
    explored += assert_schedule_determinism(SchedulePreset::ExhaustiveSmall, &workload);
    explored += assert_schedule_determinism(SchedulePreset::RandomizedLarge { count: 26 }, &workload);
    assert!(explored >= 50, "acceptance floor: explored only {explored} schedules");
}

#[test]
fn sketch_matrix_is_bit_identical_under_explored_steal_schedules() {
    // The k-min-mer path's owner folds run on the pool, one task per owner;
    // nine construction ranks give the explorer nine owners to interleave.
    let ds = DatasetSpec::Tiny.generate_with_length(1_200, 56);
    let cfg = SketchConfig::for_tests(13);
    let workload = || {
        let stats = CommStats::new();
        let (a, info) = build_sketch_matrix(&ds.reads, &cfg, ProcessGrid::square(4), 9, &stats);
        (a.to_local_csr(), info, stats.snapshot())
    };
    let (a, info, _) = workload();
    assert!(a.nnz() > 0 && info.columns > 0, "the input must share k-min-mers");
    assert_schedule_determinism(SchedulePreset::ExhaustiveSmall, &workload);
    assert_schedule_determinism(SchedulePreset::RandomizedLarge { count: 26 }, &workload);
}
