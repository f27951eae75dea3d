//! Recall floors for the k-min-mer candidate path (`dibella-sketch`).
//!
//! The sketch-space occurrence matrix trades nonzeros for recall: HPC plus
//! density-bound minimizers keep ~density× fewer columns than the exact
//! reliable-k-mer path, so the SUMMA sees a smaller operand but candidate
//! pairs can only be *lost*, never gained, relative to an exhaustive seed
//! index.  These tests pin how much is lost, per adversarial scenario,
//! against the simulator's [`ReadOrigin`] ground truth — and that the loss
//! does not propagate to the assembled contigs on the baseline scenario.
//!
//! "Candidate recall" here is measured at the SUMMA output (pairs whose
//! sketch rows share at least one k-min-mer), before
//! alignment: it isolates the subsystem under test from aligner behaviour.
//! A pipeline run does not return `C`, so this test builds the sketch
//! matrix and runs the SUMMA itself.

use dibella_dist::{CommStats, ProcessGrid};
use dibella_overlap::detect_candidates_2d_with;
use dibella_pipeline::{
    run_dibella_2d_on_reads, CandidateSource, PipelineConfig, ScenarioSpec,
};
use dibella_seq::simulate::{build_scenario, ScenarioKind};
use dibella_sketch::build_sketch_matrix;
use dibella_strgraph::{evaluate_assembly_truth, GroundTruth};
use proptest::prelude::*;

/// A candidate pair must be recoverable when the genomic overlap spans at
/// least this many bases — a third of the fast preset's 600 bp reads.  Much
/// shorter true overlaps routinely carry no shared seed under *any* sparse
/// index (the exact path misses most of them too) and are not what the
/// string graph needs.
const MIN_TRUE_OVERLAP: usize = 200;

/// Build the scenario's dataset, run the sketch matrix + SUMMA, and return
/// the candidate recall against `MIN_TRUE_OVERLAP`-base true overlaps.
fn candidate_recall(kind: ScenarioKind, seed: u64) -> f64 {
    let mut spec = ScenarioSpec::fast(kind);
    spec.params.seed = seed;
    let ds = build_scenario(spec.kind, &spec.params);
    let config = PipelineConfig::for_small_reads(spec.k, spec.nprocs);
    let comm = CommStats::new();
    let grid = ProcessGrid::square_at_most(config.nprocs);
    let (a, _) = build_sketch_matrix(&ds.reads, &config.sketch, grid, grid.nprocs(), &comm);
    let candidates = detect_candidates_2d_with(&a, &comm, config.overlap.use_symmetric_summa);
    let truth = ds.true_pairs(MIN_TRUE_OVERLAP);
    assert!(!truth.is_empty(), "scenario {kind:?} produced no ground-truth overlaps");
    let found = candidates.iter().filter(|&(i, j, _)| truth.contains(&(i, j))).count();
    found as f64 / truth.len() as f64
}

/// Per-scenario candidate-recall floors at the fast preset's default seed.
/// The floors are deliberately a few points under the measured values so the
/// test guards regressions (a selection or canonicalisation bug tanks recall
/// to near zero) without pinning exact sampling noise.
#[test]
fn kminmer_candidate_recall_clears_per_scenario_floors() {
    let floors = [
        (ScenarioKind::Baseline, 0.95),
        (ScenarioKind::TandemRepeat, 0.95),
        (ScenarioKind::InterspersedRepeat, 0.95),
        (ScenarioKind::ChimericReads, 0.90),
        (ScenarioKind::MetagenomeMix, 0.90),
        (ScenarioKind::CircularGenome, 0.95),
    ];
    assert_eq!(floors.len(), ScenarioKind::ALL.len(), "cover every scenario");
    for (kind, floor) in floors {
        let recall = candidate_recall(kind, ScenarioSpec::fast(kind).params.seed);
        println!("{kind:?}: candidate recall {recall:.4} (floor {floor})");
        assert!(
            recall >= floor,
            "{kind:?}: k-min-mer candidate recall {recall:.3} below floor {floor}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The baseline floor must hold across read samplings, not just the
    // default seed: any fresh seed draws different reads, different errors
    // and therefore different minimizers.
    #[test]
    fn baseline_candidate_recall_is_robust_across_seeds(seed in 0u64..1024) {
        let recall = candidate_recall(ScenarioKind::Baseline, seed);
        prop_assert!(
            recall >= 0.93,
            "baseline candidate recall {} at seed {} below 0.93",
            recall,
            seed
        );
    }
}

/// End-to-end tolerance: switching the candidate source from the exact
/// reliable-k-mer matrix to the k-min-mer sketch must leave the *assembly*
/// intact on the baseline scenario — same floors the exact path is pinned
/// to in `tests/assembly_scenarios.rs`, plus contiguity within 10% of the
/// exact path's own result.
#[test]
fn kminmer_assembly_stays_within_tolerance_of_exact_on_baseline() {
    let spec = ScenarioSpec::fast(ScenarioKind::Baseline);
    let ds = build_scenario(spec.kind, &spec.params);
    let exact_config = PipelineConfig::for_small_reads(spec.k, spec.nprocs);
    let kmm_config =
        PipelineConfig { candidate_source: CandidateSource::KMinMer, ..exact_config };
    let truth = GroundTruth::from_dataset(&ds);

    let run = |config: &PipelineConfig| {
        let out = run_dibella_2d_on_reads(&ds.reads, config).unwrap();
        evaluate_assembly_truth(&out.contigs, &out.consensus, &truth, &config.consensus)
    };
    let exact = run(&exact_config);
    let kmm = run(&kmm_config);

    println!(
        "exact: ng50 {} identity {:.4} misjoins {}; k-min-mer: ng50 {} identity {:.4} misjoins {}",
        exact.ng50, exact.mean_identity, exact.misjoins,
        kmm.ng50, kmm.mean_identity, kmm.misjoins,
    );
    assert!(
        kmm.ng50 >= ds.genome.len() / 2,
        "k-min-mer NG50 {} below half the genome {}",
        kmm.ng50,
        ds.genome.len()
    );
    assert!(
        kmm.ng50 as f64 >= 0.9 * exact.ng50 as f64,
        "k-min-mer NG50 {} more than 10% below the exact path's {}",
        kmm.ng50,
        exact.ng50
    );
    assert!(
        kmm.mean_identity >= exact.mean_identity - 0.005,
        "k-min-mer identity {:.4} degraded past the exact path's {:.4}",
        kmm.mean_identity,
        exact.mean_identity
    );
    assert_eq!(kmm.misjoins, 0, "k-min-mer path must not introduce misjoins");
}
