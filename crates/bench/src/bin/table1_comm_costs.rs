//! Table I — communication costs of diBELLA 1D and diBELLA 2D.
//!
//! For a sweep of virtual process counts this harness measures the words and
//! messages actually moved by each phase (k-mer counting, overlap detection,
//! read exchange, transitive reduction) for both the 1D and 2D formulations,
//! and prints them next to the analytic model of Section V evaluated with the
//! same wire-format conventions.
//!
//! ```bash
//! cargo run --release -p dibella-bench --bin table1_comm_costs
//! ```
//!
//! The two 2D overlap-detection rows, the alignment-wave row and the
//! transitive-reduction row are a check, not just a print: the process exits
//! non-zero when the measured words or messages of `2D`, `2D sym`, `waves` or
//! the reduction differ from `comm_model.rs` at all, when the measured
//! k-mer-counting messages do, or when `2D sym` is not exactly half of `2D`
//! in both — CI runs this binary, so an edit to a function that posts those
//! collectives cannot drift from the model unseen.  The reduction's model
//! takes the measured off-diagonal `I`, whose transpose it prices.

use dibella_bench::{benchmark_dataset, fmt, print_header, print_row};
use dibella_dist::{CommPhase, CommStats, ProcessGrid};
use dibella_overlap::{
    account_read_exchange_1d, account_read_exchange_2d, align_candidates_with, build_a_matrix,
    detect_candidates_1d, detect_candidates_2d_with, OverlapConfig,
};
use dibella_pipeline::{run_dibella_2d_on_reads, CommModel, ModelParams, PipelineConfig};
use dibella_seq::{count_kmers_distributed, DatasetSpec, KmerSelection};
use dibella_sparse::DistMat2D;
use dibella_strgraph::{transitive_reduction, TransitiveReductionConfig};

fn main() {
    let ds = benchmark_dataset(DatasetSpec::EColiLike, 71);
    let k = 17;
    let selection = KmerSelection::with_bella_bound(k, ds.achieved_depth(), ds.config.error_rate);
    let overlap_cfg = OverlapConfig {
        k,
        alignment: dibella_align::AlignmentConfig::for_error_rate(ds.config.error_rate),
        ..OverlapConfig::default()
    };
    println!(
        "Table I reproduction — {} ({} reads, {:.0} bp mean length, {:.1}x depth)\n",
        ds.label,
        ds.num_reads(),
        ds.mean_read_length(),
        ds.achieved_depth()
    );

    // One pipeline run at P = 1 gives the Table II parameters (n, m, a, c, r)
    // and the overlap matrix R the transitive-reduction measurement reuses.
    let config =
        PipelineConfig { kmer: selection, overlap: overlap_cfg, nprocs: 1, ..Default::default() };
    let serial = run_dibella_2d_on_reads(&ds.reads, &config).unwrap();
    let r_triples = serial.overlap_matrix.to_triples();
    let params = ModelParams {
        n: serial.dims.reads,
        m: serial.dims.kmers,
        l: serial.dims.mean_read_length,
        k,
        a: serial.dims.a_density(),
        c: serial.overlap_stats.c_density,
        r: serial.overlap_stats.r_density,
        kmer_passes: 2,
    };
    println!(
        "Table II parameters: n={}, m={}, l={:.0}, a={:.2}, c={:.1}, r={:.2}\n",
        params.n, params.m, params.l, params.a, params.c, params.r
    );

    print_header(&[
        "P", "phase", "algo", "meas. words", "model words", "meas. msgs", "model msgs",
    ]);
    let mut drifted = Vec::new();

    for &p in &[16usize, 64, 256] {
        let grid = ProcessGrid::square(p);
        let model = CommModel::new(params, p);

        // K-mer counting (identical in 1D and 2D).
        let comm = CommStats::new();
        let table = count_kmers_distributed(&ds.reads, &selection, p, &comm);
        let kc = comm.snapshot().phase(CommPhase::KmerCounting);
        let kc_model = model.kmer_counting();
        emit(p, "K-mer counting", "1D=2D", kc.words, kc_model.aggregate_words, kc.messages, kc_model.aggregate_messages);
        // Messages only: which k-mers stay on-rank is the owner hash's call,
        // so the measured words sit near the model's, not on it.
        if kc.messages as f64 != kc_model.aggregate_messages {
            drifted.push(format!(
                "P={p} K-mer counting: measured {} messages, model {:.0}",
                kc.messages, kc_model.aggregate_messages
            ));
        }

        // Overlap detection, 2D SUMMA — general path, the Table-I
        // formulation the model's `overlap_2d` row prices.
        let comm2d = CommStats::new();
        let a2d = build_a_matrix(&ds.reads, &table, k, grid, p);
        let _ = detect_candidates_2d_with(&a2d, &comm2d, false);
        let od2 = comm2d.snapshot().phase(CommPhase::OverlapDetection);
        emit(p, "Overlap detection", "2D", od2.words, model.overlap_2d().aggregate_words, od2.messages, model.overlap_2d().aggregate_messages);
        drifted.extend(drift(p, "2D", od2.words, model.overlap_2d().aggregate_words, od2.messages, model.overlap_2d().aggregate_messages));

        // Overlap detection, symmetric 2D SUMMA (the pipeline default):
        // half the broadcast traffic and nothing else.
        let comm2s = CommStats::new();
        let c2s = detect_candidates_2d_with(&a2d, &comm2s, true);
        let od2s = comm2s.snapshot().phase(CommPhase::OverlapDetection);
        emit(p, "Overlap detection", "2D sym", od2s.words, model.overlap_2d_sym().aggregate_words, od2s.messages, model.overlap_2d_sym().aggregate_messages);
        drifted.extend(drift(p, "2D sym", od2s.words, model.overlap_2d_sym().aggregate_words, od2s.messages, model.overlap_2d_sym().aggregate_messages));
        if (2 * od2s.words, 2 * od2s.messages) != (od2.words, od2.messages) {
            drifted.push(format!(
                "P={p} 2D sym: {} words / {} messages are not half of 2D's {} / {}",
                od2s.words, od2s.messages, od2.words, od2.messages
            ));
        }

        // Overlap detection, the alignment stage on those candidates: one
        // all-reduce of the contained-read bitmap per wave, held exactly.
        let comm_al = CommStats::new();
        let (_, al) = align_candidates_with(&ds.reads, &c2s, &overlap_cfg, Some(&comm_al));
        let odw = comm_al.snapshot().phase(CommPhase::OverlapDetection);
        let waves = model.alignment_waves(al.candidate_pairs, ds.num_reads());
        emit(p, "Overlap detection", "waves", odw.words, waves.aggregate_words, odw.messages, waves.aggregate_messages);
        drifted.extend(drift(p, "waves", odw.words, waves.aggregate_words, odw.messages, waves.aggregate_messages));

        // Overlap detection, 1D outer product.
        let comm1d = CommStats::new();
        let c1d = detect_candidates_1d(&a2d.to_local_csr(), p, &comm1d);
        let od1 = comm1d.snapshot().phase(CommPhase::OverlapDetection);
        emit(p, "Overlap detection", "1D", od1.words, model.overlap_1d().aggregate_words, od1.messages, model.overlap_1d().aggregate_messages);

        // Read exchange.
        let ex2d = CommStats::new();
        account_read_exchange_2d(&ds.reads, grid, &ex2d);
        let re2 = ex2d.snapshot().phase(CommPhase::ReadExchange);
        emit(p, "Read exchange", "2D", re2.words, model.read_exchange_2d().aggregate_words, re2.messages, model.read_exchange_2d().aggregate_messages);

        let ex1d = CommStats::new();
        account_read_exchange_1d(&ds.reads, &c1d, p, &ex1d);
        let re1 = ex1d.snapshot().phase(CommPhase::ReadExchange);
        emit(p, "Read exchange", "1D", re1.words, model.read_exchange_1d().aggregate_words, re1.messages, model.read_exchange_1d().aggregate_messages);

        // Transitive reduction (2D only).
        let tr_comm = CommStats::new();
        let r_dist = DistMat2D::from_triples(grid, &r_triples);
        let tr = transitive_reduction(&r_dist, &TransitiveReductionConfig::default(), &tr_comm);
        let trc = tr_comm.snapshot().phase(CommPhase::TransitiveReduction);
        let tr_model = model.transitive_reduction_2d(tr.transposed_entries, tr.transposed_blocks);
        emit(p, "Transitive red.", "2D", trc.words, tr_model.aggregate_words, trc.messages, tr_model.aggregate_messages);
        drifted.extend(drift(p, "TR", trc.words, tr_model.aggregate_words, trc.messages, tr_model.aggregate_messages));
        println!();
    }

    println!("Paper (Table I, per-process asymptotics):");
    println!("  K-mer counting     1D: nlk/4P      2D: nlk/4P       latency bP vs bP");
    println!("  Overlap detection  1D: a^2 m/P     2D: a m/sqrt(P)  latency P vs sqrt(P)");
    println!("  Read exchange      1D: cnl/P       2D: 2nl/sqrt(P)  latency min(cnl/P, P) vs sqrt(P)");
    println!("  Transitive red.    1D: -           2D: rn/sqrt(P)   latency - vs t*sqrt(P)");
    println!("  (the reduction runs t = 1 round; its model adds the order broadcast and the");
    println!("   transpose of the measured off-diagonal I)");
    println!("\n(Measured and model values above are aggregates across all ranks, in 8-byte words,");
    println!(" with 2-bit packed k-mers/reads; divide by P for the per-process figures.)");

    if !drifted.is_empty() {
        eprintln!("\nmeasured communication drifted from comm_model.rs:");
        for line in &drifted {
            eprintln!("  {line}");
        }
        std::process::exit(1);
    }
}

/// What, if anything, separates a measured row from the model: words (the
/// model's `a·m` and `r·n` are rounded products) and messages must match
/// exactly.
fn drift(p: usize, algo: &str, mw: u64, model_w: f64, mm: u64, model_m: f64) -> Option<String> {
    (mw as f64 != model_w.round() || mm as f64 != model_m).then(|| {
        format!("P={p} {algo}: measured {mw} words / {mm} messages, model {model_w:.0} / {model_m:.0}")
    })
}

fn emit(p: usize, phase: &str, algo: &str, mw: u64, model_w: f64, mm: u64, model_m: f64) {
    print_row(&[
        p.to_string(),
        phase.to_string(),
        algo.to_string(),
        mw.to_string(),
        fmt(model_w),
        mm.to_string(),
        fmt(model_m),
    ]);
}
