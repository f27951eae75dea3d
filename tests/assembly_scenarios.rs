//! Adversarial-scenario floors: the per-scenario quality matrix that guards
//! every future perf PR against trading correctness on hard inputs.
//!
//! The suite (see DESIGN.md "Adversarial scenario suite") covers the classic
//! assembler traps — repeats longer than the mean read length, chimeric
//! reads, strain mixtures, circular replicons — and pins floors per scenario.
//! It also carries the **negative control** the misjoin metric has been
//! missing: a deliberately misjoined layout on a repeat-trap genome must
//! register `misjoins > 0`, proving the metric can fire at all.

use dibella2d::prelude::*;
use dibella2d::seq::simulate::{
    build_scenario, circular_slice, generate_interspersed_repeat_genome,
    interspersed_repeat_positions, ReadOrigin, ScenarioParams, Topology,
};
use dibella2d::strgraph::{Contig, ContigConsensus};

/// Baseline floors: on a well-behaved genome the suite must keep reporting
/// the solved game (near-complete single contig, polished identity, clean
/// structure) — the yardstick every trap scenario is compared against.
#[test]
fn baseline_scenario_meets_assembly_floors() {
    let report = run_scenario(&ScenarioSpec::fast(ScenarioKind::Baseline)).unwrap();
    assert!(
        report.ng50 >= report.genome_length / 2,
        "baseline NG50 {} below half the genome {}",
        report.ng50,
        report.genome_length
    );
    assert!(
        report.mean_identity >= 0.99,
        "baseline identity {:.4} below 0.99",
        report.mean_identity
    );
    assert_eq!(report.misjoins, 0, "baseline must assemble without misjoins");
    assert_eq!(report.chimeric_reads, 0);
}

/// Negative control: a deliberately misjoined layout — two reads interior to
/// *different* copies of an interspersed repeat, chained as if adjacent —
/// must register `misjoins > 0`.  If this fails, every "0 misjoins" the
/// matrix reports is vacuous.
#[test]
fn repeat_trap_negative_control_fires_the_misjoin_metric() {
    let genome_len = 15_000;
    let repeat_len = 2_400;
    let positions = interspersed_repeat_positions(genome_len, repeat_len, 3);
    let genome = generate_interspersed_repeat_genome(genome_len, repeat_len, 3, 4);

    // One read interior to repeat copy 0, one interior to copy 2: their
    // sequences are identical (the repeat), so an overlapper would gladly
    // chain them — but their genomic intervals are disjoint by construction.
    let span = 800;
    let r0 = ReadOrigin { start: positions[0] + 200, span, strand: Strand::Forward };
    let r1 = ReadOrigin { start: positions[2] + 200, span, strand: Strand::Forward };
    assert_eq!(r0.overlap_with(&r1), 0, "the fixture's reads must be disjoint");
    assert_eq!(
        genome.slice(r0.start, r0.end()),
        genome.slice(r1.start, r1.end()),
        "the fixture's reads must be sequence-identical (the trap)"
    );

    let origins = vec![r0, r1];
    let misjoined = Contig { reads: vec![0, 1], estimated_length: 2 * span, circular: false };
    let consensus = ContigConsensus {
        consensus: genome.slice(r0.start, r0.end()),
        reads: 2,
        poa_nodes: span,
        aligned_bases: 2 * span,
        dp_cells: 0,
        unplaced_reads: 0,
    };
    let metrics = evaluate_assembly(
        &[misjoined],
        &[consensus],
        &origins,
        &genome,
        &ConsensusConfig::default(),
    );
    assert!(metrics.misjoins > 0, "the misjoin metric failed to fire on a known misjoin");
}

/// Determinism: an identical `ScenarioSpec` must produce a bit-identical
/// `ScenarioReport` at any worker-thread count (extending the PR-2/PR-5
/// pipeline-determinism guarantees through the scenario layer — reports
/// deliberately exclude wall-clock so this equality is exact).
#[test]
fn scenario_reports_are_bit_identical_across_thread_counts() {
    let spec = ScenarioSpec::fast(ScenarioKind::InterspersedRepeat);
    let one = dibella2d::dist::with_threads(1, || run_scenario(&spec).unwrap());
    let two = dibella2d::dist::with_threads(2, || run_scenario(&spec).unwrap());
    let four = dibella2d::dist::with_threads(4, || run_scenario(&spec).unwrap());
    assert_eq!(one, two, "report differs between 1 and 2 worker threads");
    assert_eq!(one, four, "report differs between 1 and 4 worker threads");
}

/// Chimera labels split "assembler misjoin" from "chimera propagated": the
/// same broken adjacency is a misjoin without labels and a chimera break
/// with them.
#[test]
fn chimera_labels_separate_breaks_from_misjoins() {
    let ds = build_scenario(
        ScenarioKind::Baseline,
        &ScenarioParams {
            genome_length: 6_000,
            mean_read_length: 600,
            ..ScenarioParams::default()
        },
    );
    let genome = &ds.genome;
    // A normal read and a "chimeric" read from a distant locus, chained.
    let origins = vec![
        ReadOrigin { start: 0, span: 600, strand: Strand::Forward },
        ReadOrigin { start: 4_000, span: 600, strand: Strand::Forward },
    ];
    let contig = Contig { reads: vec![0, 1], estimated_length: 1_200, circular: false };
    let cons = ContigConsensus {
        consensus: genome.slice(0, 1_200),
        reads: 2,
        poa_nodes: 1_200,
        aligned_bases: 1_200,
        dp_cells: 0,
        unplaced_reads: 0,
    };
    let unlabelled = evaluate_assembly(
        std::slice::from_ref(&contig),
        std::slice::from_ref(&cons),
        &origins,
        genome,
        &ConsensusConfig::default(),
    );
    assert_eq!(unlabelled.misjoins, 1);
    assert_eq!(unlabelled.chimera_breaks, 0);

    let truth = GroundTruth {
        origins: &origins,
        genome,
        topology: Topology::Linear,
        chimeric: &[false, true],
    };
    let labelled =
        evaluate_assembly_truth(&[contig], &[cons], &truth, &ConsensusConfig::default());
    assert_eq!(labelled.misjoins, 0, "a break at a labelled chimera is not a misjoin");
    assert_eq!(labelled.chimera_breaks, 1);
}

/// Circular-aware evaluation: a contig whose reads straddle the origin of a
/// circular genome is structurally sound and matches its wrap-around
/// reference arc; the linear interpretation would call it misjoined.
#[test]
fn circular_evaluation_does_not_penalize_origin_crossing_contigs() {
    let params = ScenarioParams {
        genome_length: 4_000,
        mean_read_length: 800,
        ..ScenarioParams::default()
    };
    let ds = build_scenario(ScenarioKind::CircularGenome, &params);
    assert_eq!(ds.topology, Topology::Circular);
    let genome = &ds.genome;
    let len = genome.len();

    // Read 0 wraps the origin ([3600, 4000) + [0, 400)); read 1 overlaps its
    // tail on the far side of the wrap.
    let origins = vec![
        ReadOrigin { start: 3_600, span: 800, strand: Strand::Forward },
        ReadOrigin { start: 200, span: 800, strand: Strand::Forward },
    ];
    assert_eq!(origins[0].overlap_with_in(&origins[1], Topology::Circular, len), 200);
    assert_eq!(origins[0].overlap_with(&origins[1]), 0);

    let contig = Contig { reads: vec![0, 1], estimated_length: 1_400, circular: false };
    let cons = ContigConsensus {
        consensus: circular_slice(genome, 3_600, 1_400),
        reads: 2,
        poa_nodes: 1_400,
        aligned_bases: 1_400,
        dp_cells: 0,
        unplaced_reads: 0,
    };
    let truth = GroundTruth {
        origins: &origins,
        genome,
        topology: Topology::Circular,
        chimeric: &[],
    };
    let circular = evaluate_assembly_truth(
        std::slice::from_ref(&contig),
        std::slice::from_ref(&cons),
        &truth,
        &ConsensusConfig::default(),
    );
    assert_eq!(circular.misjoins, 0, "a wrap-around overlap is not a misjoin");
    assert!(
        circular.mean_identity > 0.99,
        "wrap-around arc extraction failed: identity {:.4}",
        circular.mean_identity
    );
    // The linear interpretation gets the same contig wrong.
    let linear = evaluate_assembly(
        &[contig],
        &[cons],
        &origins,
        genome,
        &ConsensusConfig::default(),
    );
    assert_eq!(linear.misjoins, 1, "the linear view must miss the wrap overlap");
}

/// End-to-end circular scenario: the pipeline on wrap-around reads must stay
/// structurally clean under circular-aware evaluation.
#[test]
fn circular_scenario_assembles_cleanly_under_circular_truth() {
    let report = run_scenario(&ScenarioSpec::fast(ScenarioKind::CircularGenome)).unwrap();
    assert_eq!(report.misjoins, 0, "circular scenario reported false misjoins");
    assert!(
        report.mean_identity >= 0.98,
        "circular scenario identity {:.4}",
        report.mean_identity
    );
    assert!(report.ng50 >= report.genome_length / 2, "circular NG50 {}", report.ng50);
}

/// The chimeric-reads scenario must actually contain labelled chimeras, and
/// evaluation must never attribute their breaks to the assembler while still
/// assembling the clean majority of reads.
#[test]
fn chimeric_scenario_labels_chimeras_and_keeps_the_assembly_usable() {
    let report = run_scenario(&ScenarioSpec::fast(ScenarioKind::ChimericReads)).unwrap();
    assert!(report.chimeric_reads > 0, "chimera scenario produced no labelled chimeras");
    // Chimeras legitimately fragment the layout (that is the trap), but the
    // assembly must stay usable: a quarter-genome NG50 floor and polished
    // consensus, with no break blamed on the assembler beyond the baseline.
    assert!(
        report.ng50 >= report.genome_length / 4,
        "chimeric-reads NG50 {} collapsed below genome/4",
        report.ng50
    );
    assert!(report.mean_identity >= 0.95, "identity {:.4}", report.mean_identity);
}

/// The full fast-preset matrix: every scenario runs end to end and reports a
/// plausible row.  `#[ignore]`d in PR builds (the smoke subset above covers
/// the fast path); CI's push builds run it via `-- --ignored`.
#[test]
#[ignore = "full matrix smoke: run explicitly or in CI push builds"]
fn full_fast_scenario_matrix_runs_end_to_end() {
    let reports = run_scenario_matrix(&ScenarioSpec::fast_suite()).unwrap();
    assert_eq!(reports.len(), 6);
    for r in &reports {
        assert!(r.reads > 10, "{}: too few reads", r.scenario);
        assert!(r.contigs > 0, "{}: no contigs", r.scenario);
        assert!(r.assembled_bases > 0, "{}: nothing assembled", r.scenario);
        // Even the strain-collapsing metagenome mix keeps some resemblance
        // to its reference; total garbage means the runner itself broke.
        assert!(
            r.mean_identity > 0.3,
            "{}: identity {:.4} collapsed",
            r.scenario,
            r.mean_identity
        );
    }
    let by_name = |n: &str| reports.iter().find(|r| r.scenario == n).unwrap();
    // The baseline stays the solved game...
    let baseline = by_name("baseline");
    assert_eq!(baseline.misjoins, 0);
    assert!(baseline.mean_identity >= 0.99);
    // ...and each trap must leave its designed signature (all deterministic:
    // fixed seeds).  Repeats longer than the read length fragment the
    // assembly and misjoin repeat copies; the low-divergence strain mix
    // collapses strains, wrecking identity against the two-strain reference.
    let interspersed = by_name("interspersed-repeat");
    assert!(
        interspersed.misjoins > 0,
        "the interspersed-repeat trap no longer induces misjoins: {interspersed:?}"
    );
    let tandem = by_name("tandem-repeat");
    assert!(
        tandem.ng50 < baseline.ng50 || tandem.misjoins > 0,
        "the tandem-repeat trap left no trace: {tandem:?}"
    );
    let metagenome = by_name("metagenome-mix");
    assert!(
        metagenome.mean_identity < 0.9 || metagenome.misjoins > 0,
        "the metagenome mix no longer stresses the assembler: {metagenome:?}"
    );
    // The circular genome is NOT a trap once evaluation is circular-aware.
    let circular = by_name("circular-genome");
    assert_eq!(circular.misjoins, 0, "false misjoins on the circular genome");
}
