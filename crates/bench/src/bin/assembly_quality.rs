//! Assembly-quality harness — the end-to-end OLC evaluation.
//!
//! The paper's evaluation stops at the string graph; with the consensus stage
//! the reproduction can be scored like an assembler.  This harness simulates
//! a dataset from a known reference, runs the full diBELLA 2D pipeline
//! (overlap → layout → consensus), evaluates the consensus against the
//! reference with `dibella_strgraph::metrics`, then runs the **adversarial
//! scenario matrix** (repeat traps, chimeras, metagenome mix, circular
//! genome — see DESIGN.md "Adversarial scenario suite"), prints the reports
//! and writes the machine-readable trajectory record `BENCH_assembly.json`
//! (CI runs this at every push and uploads the artifact next to
//! `BENCH_spgemm.json`).
//!
//! ```bash
//! cargo run --release -p dibella-bench --bin assembly_quality
//! DIBELLA_RECORD_DIR=/tmp cargo run --release -p dibella-bench --bin assembly_quality
//! ```

// The bench crate is the sanctioned home of wall-clock reads (see
// clippy.toml); opt back in to Instant::now here.
#![allow(clippy::disallowed_methods)]

use dibella_bench::{
    fmt, print_header, print_row, scaled_length, write_record, Fixed, Preset, Record,
};
use dibella_pipeline::{run_dibella_2d_on_reads, run_scenario, PipelineConfig, ScenarioSpec};
use dibella_seq::simulate::{
    generate_genome, simulate_reads, GenomeConfig, ReadSimConfig, Topology,
};
use dibella_seq::SimulatedDataset;
use dibella_strgraph::evaluate_assembly;

/// Genome length of the evaluation dataset: the 20 kbp reference the golden
/// end-to-end test also asserts thresholds on (`DIBELLA_BENCH_SCALE` scales
/// it like every other harness).
const GENOME_LENGTH: usize = 20_000;

/// The evaluation dataset: a 20 kbp reference read at 15× by reads of a
/// *narrow* length distribution.  Uniform lengths keep containments rare, so
/// nearly the full depth survives into the layouts and the POA sees enough
/// coverage to polish — the same regime the golden end-to-end test pins down.
fn evaluation_dataset(genome_length: usize) -> SimulatedDataset {
    let genome = generate_genome(&GenomeConfig {
        length: genome_length,
        repeat_fraction: 0.02,
        repeat_length: 300,
        seed: 71,
    });
    let config = ReadSimConfig {
        depth: 15.0,
        mean_read_length: 1_200,
        min_read_length: 900,
        read_length_sd: 100,
        error_rate: 0.05,
        seed: 72,
        ..ReadSimConfig::default()
    };
    let (reads, origins) = simulate_reads(&genome, &config);
    let num_reads = reads.len();
    SimulatedDataset {
        label: "assembly eval (20 kbp)".to_string(),
        genome,
        reads,
        origins,
        chimeric: vec![false; num_reads],
        topology: Topology::Linear,
        config,
    }
}

fn main() {
    let genome_length = scaled_length(GENOME_LENGTH, 5_000);

    println!("Assembly quality — simulated reads, full OLC pipeline, consensus vs reference\n");
    let ds = evaluation_dataset(genome_length);
    let config = PipelineConfig::for_small_reads(15, 16);
    println!(
        "dataset: {} ({} reads, {:.1}x depth, {:.0}% error, {} bp reference)",
        ds.label,
        ds.num_reads(),
        ds.achieved_depth(),
        ds.config.error_rate * 100.0,
        ds.genome.len()
    );

    let started = std::time::Instant::now();
    let out = run_dibella_2d_on_reads(&ds.reads, &config).unwrap();
    let pipeline_secs = started.elapsed().as_secs_f64();
    let metrics =
        evaluate_assembly(&out.contigs, &out.consensus, &ds.origins, &ds.genome, &config.consensus);

    println!();
    print_header(&["metric", "value"]);
    print_row(&["contigs".into(), metrics.contigs.to_string()]);
    print_row(&["multi-read".into(), metrics.multi_read_contigs.to_string()]);
    print_row(&["assembled bp".into(), metrics.assembled_bases.to_string()]);
    print_row(&["largest bp".into(), metrics.largest_contig.to_string()]);
    print_row(&["N50 bp".into(), metrics.n50.to_string()]);
    print_row(&["NG50 bp".into(), metrics.ng50.to_string()]);
    print_row(&["mean identity".into(), fmt(metrics.mean_identity)]);
    print_row(&["largest ident.".into(), fmt(metrics.largest_identity)]);
    print_row(&["misjoins".into(), metrics.misjoins.to_string()]);
    println!();
    print_header(&["stage", "seconds"]);
    print_row(&["consensus".into(), fmt(out.timings.consensus)]);
    print_row(&["total".into(), fmt(out.timings.total())]);
    println!(
        "\nPOA: {} graph nodes, {} aligned bases, {} DP cells, {} unplaced reads, {} consensus bases",
        out.consensus_summary.poa_nodes,
        out.consensus_summary.aligned_bases,
        out.consensus_summary.dp_cells,
        out.consensus_summary.unplaced_reads,
        out.consensus_summary.consensus_bases
    );

    // The adversarial scenario matrix at bench scale.
    let suite = ScenarioSpec::bench_suite();
    println!("\nAdversarial scenario matrix\n");
    print_header(&["scenario", "reads", "contigs", "NG50", "identity", "misjoin", "chim.brk"]);
    let mut scenarios = Vec::new();
    let scenarios_started = std::time::Instant::now();
    for spec in &suite {
        let r = run_scenario(spec).unwrap();
        print_row(&[
            r.scenario.clone(),
            r.reads.to_string(),
            r.multi_read_contigs.to_string(),
            r.ng50.to_string(),
            fmt(r.mean_identity),
            r.misjoins.to_string(),
            r.chimera_breaks.to_string(),
        ]);
        scenarios.push(
            Record::default()
                .field("scenario", r.scenario.as_str())
                .field("genome_length", r.genome_length)
                .field("reads", r.reads)
                .field("chimeric_reads", r.chimeric_reads)
                .field("depth", Fixed(r.depth, 2))
                .field("contigs", r.contigs)
                .field("multi_read_contigs", r.multi_read_contigs)
                .field("circular_contigs", r.circular_contigs)
                .field("assembled_bases", r.assembled_bases)
                .field("largest_contig", r.largest_contig)
                .field("n50", r.n50)
                .field("ng50", r.ng50)
                .field("mean_identity", Fixed(r.mean_identity, 5))
                .field("misjoins", r.misjoins)
                .field("chimera_breaks", r.chimera_breaks),
        );
    }
    let scenarios_secs = scenarios_started.elapsed().as_secs_f64();
    println!("\nscenario matrix: {} scenarios in {:.2}s", suite.len(), scenarios_secs);

    let summary = &out.consensus_summary;
    let record = Record::default()
        .field("dataset", ds.label.as_str())
        .field("genome_length", ds.genome.len())
        .field("reads", ds.num_reads())
        .field("depth", Fixed(ds.achieved_depth(), 2))
        .field("error_rate", Fixed(ds.config.error_rate, 3))
        .field("contigs", metrics.contigs)
        .field("multi_read_contigs", metrics.multi_read_contigs)
        .field("assembled_bases", metrics.assembled_bases)
        .field("largest_contig", metrics.largest_contig)
        .field("n50", metrics.n50)
        .field("ng50", metrics.ng50)
        .field("mean_identity", Fixed(metrics.mean_identity, 5))
        .field("largest_identity", Fixed(metrics.largest_identity, 5))
        .field("misjoins", metrics.misjoins)
        .field("poa_graph_nodes", summary.poa_nodes)
        .field("poa_aligned_bases", summary.aligned_bases)
        .field("poa_dp_cells", summary.dp_cells)
        .field("unplaced_reads", summary.unplaced_reads)
        .field("consensus_bases", summary.consensus_bases)
        .field("consensus_secs", Fixed(out.timings.consensus, 4))
        .field("pipeline_secs", Fixed(pipeline_secs, 4))
        .field("scenario_preset", Preset::Full.name())
        .field("scenario_matrix_secs", Fixed(scenarios_secs, 4))
        .field("scenarios", scenarios);
    write_record("BENCH_assembly.json", &record);
}
