//! Transitive reduction close-up: run Algorithm 2 against Myers' sequential
//! algorithm and the SORA-style vertex-centric baseline on synthetic overlap
//! graphs of growing size, checking that they agree and comparing runtimes.
//! Read ids are shuffled, as the benchmark's `graph-tiling` task shuffles
//! them: real reads arrive in random genome order.  Exits non-zero when the
//! three reductions disagree.
//!
//! ```bash
//! cargo run --release --example transitive_reduction_demo
//! ```

use dibella2d::prelude::*;
use dibella2d::strgraph::fixtures::{shuffled_tiling_overlap_graph, to_dist};
use std::time::Instant;

fn main() {
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "reads", "edges", "parallel(s)", "myers(s)", "sora(s)", "reduced", "agree"
    );
    let mut disagreements = 0;
    for &n in &[200usize, 1_000, 4_000, 10_000] {
        let triples = shuffled_tiling_overlap_graph(n, 8, 7);
        let local = CsrMatrix::from_triples(&triples);
        let grid = ProcessGrid::square(16);
        let dist = to_dist(&triples, grid);
        let cfg = TransitiveReductionConfig { fuzz: 60, max_iterations: 16 };

        let comm = CommStats::new();
        let start = Instant::now();
        let parallel = transitive_reduction(&dist, &cfg, &comm);
        let t_parallel = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let (myers, _) = myers_transitive_reduction(&local, cfg.fuzz);
        let t_myers = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let (sora, sora_stats) = sora_transitive_reduction(&local, cfg.fuzz);
        let t_sora = start.elapsed().as_secs_f64();

        let parallel_local = parallel.string_matrix.to_local_csr();
        let agree = parallel_local.pattern() == myers.pattern()
            && parallel_local.pattern() == sora.pattern();

        println!(
            "{n:>8} {:>10} {t_parallel:>12.3} {t_myers:>12.3} {t_sora:>12.3} {:>10} {:>8}",
            local.nnz(),
            local.nnz() - parallel_local.nnz(),
            if agree { "yes" } else { "NO" }
        );
        if !agree {
            eprintln!("  !! the three implementations disagree at n = {n}");
            disagreements += 1;
        }
        if n == 10_000 {
            println!(
                "\nat n = {n}: parallel TR ran {:.1}x faster than the SORA-style baseline \
                 ({} supersteps, {} adjacency records shuffled)",
                t_sora / t_parallel,
                sora_stats.supersteps,
                sora_stats.messages
            );
            println!(
                "communication recorded for the parallel run: {} words over {} messages",
                comm.words(CommPhase::TransitiveReduction),
                comm.messages(CommPhase::TransitiveReduction)
            );
        }
    }
    if disagreements > 0 {
        std::process::exit(1);
    }
}
