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
//! DIBELLA_ASSEMBLY_OUT=/tmp/out.json cargo run --release -p dibella-bench --bin assembly_quality
//! DIBELLA_SCENARIO_PRESET=fast cargo run --release -p dibella-bench --bin assembly_quality
//! ```

// The bench crate is the sanctioned home of wall-clock reads (see
// clippy.toml); opt back in to Instant::now here.
#![allow(clippy::disallowed_methods)]

use dibella_bench::{fmt, print_header, print_row};
use dibella_dist::CommStats;
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
    let scale: f64 = std::env::var("DIBELLA_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let genome_length = ((GENOME_LENGTH as f64 * scale) as usize).max(5_000);

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

    let comm = CommStats::new();
    let started = std::time::Instant::now();
    let out = run_dibella_2d_on_reads(&ds.reads, &config, &comm).unwrap();
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

    // The adversarial scenario matrix.  `DIBELLA_SCENARIO_PRESET` picks the
    // suite: "bench" (default; what the committed BENCH_assembly.json holds)
    // or "fast" (CI smoke subset: ~8 kb genomes, 600 bp reads).
    let preset = std::env::var("DIBELLA_SCENARIO_PRESET").unwrap_or_else(|_| "bench".to_string());
    let suite = match preset.as_str() {
        "fast" => ScenarioSpec::fast_suite(),
        _ => ScenarioSpec::bench_suite(),
    };
    println!("\nAdversarial scenario matrix ({preset} preset)\n");
    print_header(&["scenario", "reads", "contigs", "NG50", "identity", "misjoin", "chim.brk"]);
    let mut scenario_json = Vec::new();
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
        scenario_json.push(format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{scenario}\",\n",
                "      \"genome_length\": {genome_length},\n",
                "      \"reads\": {reads},\n",
                "      \"chimeric_reads\": {chimeric},\n",
                "      \"depth\": {depth:.2},\n",
                "      \"contigs\": {contigs},\n",
                "      \"multi_read_contigs\": {multi},\n",
                "      \"circular_contigs\": {circular},\n",
                "      \"assembled_bases\": {assembled},\n",
                "      \"largest_contig\": {largest},\n",
                "      \"n50\": {n50},\n",
                "      \"ng50\": {ng50},\n",
                "      \"mean_identity\": {identity:.5},\n",
                "      \"misjoins\": {misjoins},\n",
                "      \"chimera_breaks\": {chimera_breaks}\n",
                "    }}"
            ),
            scenario = r.scenario,
            genome_length = r.genome_length,
            reads = r.reads,
            chimeric = r.chimeric_reads,
            depth = r.depth,
            contigs = r.contigs,
            multi = r.multi_read_contigs,
            circular = r.circular_contigs,
            assembled = r.assembled_bases,
            largest = r.largest_contig,
            n50 = r.n50,
            ng50 = r.ng50,
            identity = r.mean_identity,
            misjoins = r.misjoins,
            chimera_breaks = r.chimera_breaks,
        ));
    }
    let scenarios_secs = scenarios_started.elapsed().as_secs_f64();
    println!("\nscenario matrix: {} scenarios in {:.2}s", suite.len(), scenarios_secs);

    let json = format!(
        concat!(
            "{{\n",
            "  \"dataset\": \"{dataset}\",\n",
            "  \"genome_length\": {genome_length},\n",
            "  \"reads\": {reads},\n",
            "  \"depth\": {depth:.2},\n",
            "  \"error_rate\": {error:.3},\n",
            "  \"contigs\": {contigs},\n",
            "  \"multi_read_contigs\": {multi},\n",
            "  \"assembled_bases\": {assembled},\n",
            "  \"largest_contig\": {largest},\n",
            "  \"n50\": {n50},\n",
            "  \"ng50\": {ng50},\n",
            "  \"mean_identity\": {mean_identity:.5},\n",
            "  \"largest_identity\": {largest_identity:.5},\n",
            "  \"misjoins\": {misjoins},\n",
            "  \"poa_graph_nodes\": {poa_nodes},\n",
            "  \"poa_aligned_bases\": {aligned_bases},\n",
            "  \"poa_dp_cells\": {dp_cells},\n",
            "  \"unplaced_reads\": {unplaced_reads},\n",
            "  \"consensus_bases\": {consensus_bases},\n",
            "  \"consensus_secs\": {consensus_secs:.4},\n",
            "  \"pipeline_secs\": {pipeline_secs:.4},\n",
            "  \"scenario_preset\": \"{preset}\",\n",
            "  \"scenario_matrix_secs\": {scenarios_secs:.4},\n",
            "  \"scenarios\": [\n{scenarios}\n  ]\n",
            "}}\n"
        ),
        dataset = ds.label,
        genome_length = ds.genome.len(),
        reads = ds.num_reads(),
        depth = ds.achieved_depth(),
        error = ds.config.error_rate,
        contigs = metrics.contigs,
        multi = metrics.multi_read_contigs,
        assembled = metrics.assembled_bases,
        largest = metrics.largest_contig,
        n50 = metrics.n50,
        ng50 = metrics.ng50,
        mean_identity = metrics.mean_identity,
        largest_identity = metrics.largest_identity,
        misjoins = metrics.misjoins,
        poa_nodes = out.consensus_summary.poa_nodes,
        aligned_bases = out.consensus_summary.aligned_bases,
        dp_cells = out.consensus_summary.dp_cells,
        unplaced_reads = out.consensus_summary.unplaced_reads,
        consensus_bases = out.consensus_summary.consensus_bases,
        consensus_secs = out.timings.consensus,
        pipeline_secs = pipeline_secs,
        preset = preset,
        scenarios_secs = scenarios_secs,
        scenarios = scenario_json.join(",\n"),
    );
    // Default to the workspace root (the binary's cwd is the package dir);
    // DIBELLA_ASSEMBLY_OUT overrides.
    let out_path = std::env::var("DIBELLA_ASSEMBLY_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_assembly.json").to_string()
    });
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => eprintln!("\ncould not write {out_path}: {e}"),
    }
}
