//! Table VI — transitive reduction: diBELLA 2D vs the SORA-style baseline.
//!
//! The paper feeds the overlap matrix produced by diBELLA 2D to both its own
//! transitive reduction and to SORA (Spark/GraphX), and reports the runtimes
//! and speedups per node count.  This harness does the same with the
//! SORA-style vertex-centric baseline of `dibella-strgraph`: both reductions
//! run on the same overlap matrix `R`, wall-clock is measured on this host,
//! and the diBELLA runtime is additionally projected to the paper's node
//! counts with the measured communication volumes.
//!
//! ```bash
//! cargo run --release -p dibella-bench --bin table6_tr_vs_sora
//! ```

// The bench crate is the sanctioned home of wall-clock reads (see
// clippy.toml); opt back in to Instant::now here.
#![allow(clippy::disallowed_methods)]

use dibella_bench::{benchmark_dataset, fmt, print_header, print_row, simulated_phase_time};
use dibella_dist::{CommPhase, CommStats, ProcessGrid};
use dibella_pipeline::{run_dibella_2d_on_reads, PipelineConfig};
use dibella_seq::DatasetSpec;
use dibella_sparse::DistMat2D;
use dibella_strgraph::{sora_transitive_reduction, transitive_reduction, TransitiveReductionConfig};
use std::time::Instant;

fn main() {
    println!("Table VI reproduction — transitive reduction vs a SORA-style baseline\n");
    print_header(&[
        "dataset", "nodes P", "SORA (s)", "diBELLA (s)", "speed-up", "proj. diBELLA", "proj. sp-up",
    ]);

    let cases = [
        (DatasetSpec::CElegansLike, 61u64, vec![32usize, 72, 128]),
        (DatasetSpec::HSapiensLike, 62, vec![128usize, 200, 338]),
    ];

    for (spec, seed, node_counts) in cases {
        let ds = benchmark_dataset(spec, seed);
        let config = PipelineConfig::for_benchmark(17, ds.config.error_rate, 16);
        let comm = CommStats::new();
        let out = run_dibella_2d_on_reads(&ds.reads, &config, &comm).unwrap();
        let r_local = out.overlap_matrix.to_local_csr();
        let r_triples = out.overlap_matrix.to_triples();

        // The SORA-style baseline (vertex-centric supersteps, full graph
        // materialisation) — measured once; the paper's SORA times are
        // essentially flat across node counts.
        let start = Instant::now();
        let (_, sora_stats) = sora_transitive_reduction(&r_local, config.transitive.fuzz);
        let sora_secs = start.elapsed().as_secs_f64();

        for &p in &node_counts {
            let grid = ProcessGrid::square_at_most(p);
            let tr_comm = CommStats::new();
            let r_dist = DistMat2D::from_triples(grid, &r_triples);
            let start = Instant::now();
            let _ = transitive_reduction(
                &r_dist,
                &TransitiveReductionConfig { fuzz: config.transitive.fuzz, max_iterations: 16 },
                &tr_comm,
            );
            let tr_secs = start.elapsed().as_secs_f64();
            let projected = simulated_phase_time(
                tr_secs,
                &tr_comm.snapshot(),
                CommPhase::TransitiveReduction,
                grid.nprocs(),
            );
            print_row(&[
                ds.label.clone(),
                p.to_string(),
                fmt(sora_secs),
                fmt(tr_secs),
                format!("{:.1}x", sora_secs / tr_secs),
                fmt(projected),
                format!("{:.1}x", sora_secs / projected),
            ]);
        }
        println!(
            "  ({} overlap edges; SORA-style baseline used {} supersteps and shuffled {} adjacency records)",
            r_local.nnz(),
            sora_stats.supersteps,
            sora_stats.messages
        );
        println!();
    }

    println!("Paper (Table VI): SORA 34.3-34.9 s vs diBELLA 1.2-1.9 s on C. elegans");
    println!("(18.2-29.0x), and 23.4-25.3 s vs 1.9-2.3 s on H. sapiens (10.5-13.3x).");
    println!("The reproduction's 'speed-up' column is measured on one host; the projected");
    println!("column scales the matrix-based reduction to the paper's node counts using the");
    println!("measured communication volumes (the SORA baseline's runtime is flat across");
    println!("node counts in the paper, so its single-host measurement is used as-is).");
}
