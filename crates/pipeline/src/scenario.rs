//! Adversarial-scenario runner: build a stress dataset, run the full 2D
//! pipeline on it, and score the assembly against the simulator's ground
//! truth (see DESIGN.md "Adversarial scenario suite").
//!
//! Each [`ScenarioSpec`] names one [`ScenarioKind`] (repeat trap, chimeric
//! reads, metagenome mix, circular genome, …) plus the simulation and
//! pipeline knobs; [`run_scenario`] produces a [`ScenarioReport`] — the row
//! of the per-scenario quality matrix the `assembly_quality` bench serialises
//! into `BENCH_assembly.json` and `tests/assembly_scenarios.rs` pins floors
//! on.  Reports deliberately carry **no wall-clock fields**, so a report is
//! comparable across machines and thread counts (the determinism test
//! asserts bit-identical reports at 1, 2 and 4 worker threads).

use crate::config::PipelineConfig;
use crate::run2d::run_dibella_2d_on_reads;
use dibella_seq::simulate::{build_scenario, ScenarioKind, ScenarioParams};
use dibella_strgraph::{evaluate_assembly_truth, GroundTruth};
use serde::{Deserialize, Serialize};

/// One scenario to run: the dataset recipe plus the pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Which adversarial scenario to build.
    pub kind: ScenarioKind,
    /// Simulation knobs (genome length, depth, read length, error rate, seed).
    pub params: ScenarioParams,
    /// k-mer length for the pipeline.
    pub k: usize,
    /// Virtual process count for the 2D grid.
    pub nprocs: usize,
}

impl ScenarioSpec {
    /// The fast preset: ~8–9 kb genomes and 600 bp reads, sized so the whole
    /// six-scenario matrix runs in seconds (the test suites, debug builds).
    pub fn fast(kind: ScenarioKind) -> Self {
        let genome_length = match kind {
            // The tandem array (3 × 1200 bp) needs flanks around it.
            ScenarioKind::TandemRepeat => 9_000,
            // Per-strain length for the mix (the reference is twice this).
            ScenarioKind::MetagenomeMix => 5_000,
            _ => 8_000,
        };
        ScenarioSpec {
            kind,
            params: ScenarioParams {
                genome_length,
                depth: 15.0,
                mean_read_length: 600,
                error_rate: 0.05,
                seed: 77,
                ..ScenarioParams::default()
            },
            k: 13,
            nprocs: 4,
        }
    }

    /// The bench preset: ~15–20 kb genomes and 1.2 kb reads, matching the
    /// golden 20 kbp dataset's scale; this is what `BENCH_assembly.json`
    /// records.
    pub fn bench(kind: ScenarioKind) -> Self {
        let genome_length = match kind {
            ScenarioKind::TandemRepeat => 18_000,
            ScenarioKind::MetagenomeMix => 10_000,
            _ => 15_000,
        };
        ScenarioSpec {
            kind,
            params: ScenarioParams {
                genome_length,
                depth: 15.0,
                mean_read_length: 1_200,
                error_rate: 0.05,
                seed: 77,
                ..ScenarioParams::default()
            },
            k: 15,
            nprocs: 4,
        }
    }

    /// All six scenarios at the fast preset, in matrix order.
    pub fn fast_suite() -> Vec<ScenarioSpec> {
        ScenarioKind::ALL.iter().map(|&k| ScenarioSpec::fast(k)).collect()
    }

    /// All six scenarios at the bench preset, in matrix order.
    pub fn bench_suite() -> Vec<ScenarioSpec> {
        ScenarioKind::ALL.iter().map(|&k| ScenarioSpec::bench(k)).collect()
    }
}

/// One row of the scenario quality matrix: dataset shape plus the assembly
/// metrics the suite tracks per scenario.  Contains no wall-clock fields so
/// that identical specs produce bit-identical reports regardless of machine
/// or thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Stable scenario label ([`ScenarioKind::label`]).
    pub scenario: String,
    /// Reference length the reads were sampled from.
    pub genome_length: usize,
    /// Number of simulated reads.
    pub reads: usize,
    /// Ground-truth chimeric reads among them.
    pub chimeric_reads: usize,
    /// Achieved depth of coverage.
    pub depth: f64,
    /// Contigs emitted (singletons included).
    pub contigs: usize,
    /// Contigs chaining at least two reads.
    pub multi_read_contigs: usize,
    /// Contigs whose layout closed into a cycle.
    pub circular_contigs: usize,
    /// Total scored consensus bases.
    pub assembled_bases: usize,
    /// Largest scored consensus length.
    pub largest_contig: usize,
    /// N50 over scored consensus lengths.
    pub n50: usize,
    /// NG50 against the reference length.
    pub ng50: usize,
    /// Length-weighted mean identity vs the reference.
    pub mean_identity: f64,
    /// Assembler misjoins (broken adjacencies at non-chimeric reads).
    pub misjoins: usize,
    /// Breaks at ground-truth chimeric reads (propagated library artefacts).
    pub chimera_breaks: usize,
}

/// Build the scenario's dataset, run the full 2D pipeline, and score it.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioReport, String> {
    let ds = build_scenario(spec.kind, &spec.params);
    let config = PipelineConfig::for_small_reads(spec.k, spec.nprocs);
    let out = run_dibella_2d_on_reads(&ds.reads, &config)?;
    let metrics = evaluate_assembly_truth(
        &out.contigs,
        &out.consensus,
        &GroundTruth::from_dataset(&ds),
        &config.consensus,
    );
    Ok(ScenarioReport {
        scenario: ds.label.clone(),
        genome_length: ds.genome.len(),
        reads: ds.num_reads(),
        chimeric_reads: ds.num_chimeric(),
        depth: ds.achieved_depth(),
        contigs: metrics.contigs,
        multi_read_contigs: metrics.multi_read_contigs,
        circular_contigs: metrics.circular_contigs,
        assembled_bases: metrics.assembled_bases,
        largest_contig: metrics.largest_contig,
        n50: metrics.n50,
        ng50: metrics.ng50,
        mean_identity: metrics.mean_identity,
        misjoins: metrics.misjoins,
        chimera_breaks: metrics.chimera_breaks,
    })
}

/// Run a list of scenarios in order, returning one report per spec.
pub fn run_scenario_matrix(specs: &[ScenarioSpec]) -> Result<Vec<ScenarioReport>, String> {
    specs.iter().map(run_scenario).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_baseline_scenario_assembles_well() {
        let report = run_scenario(&ScenarioSpec::fast(ScenarioKind::Baseline)).unwrap();
        assert_eq!(report.scenario, "baseline");
        assert!(report.ng50 >= report.genome_length / 2, "NG50 {}", report.ng50);
        assert!(report.mean_identity >= 0.99, "identity {}", report.mean_identity);
        assert_eq!(report.misjoins, 0);
    }

    #[test]
    fn suites_cover_all_scenarios_in_matrix_order() {
        let fast = ScenarioSpec::fast_suite();
        let bench = ScenarioSpec::bench_suite();
        assert_eq!(fast.len(), 6);
        assert_eq!(bench.len(), 6);
        for (spec, kind) in fast.iter().zip(ScenarioKind::ALL) {
            assert_eq!(spec.kind, kind);
        }
        for spec in &bench {
            assert!(spec.params.mean_read_length > ScenarioSpec::fast(spec.kind).params.mean_read_length);
        }
    }
}
