//! The traced run: the program's own driver once for reference, then the same
//! stage sequence re-played from here with a span around each call into a
//! layer.
//!
//! The re-play copies the stage order of `pipeline_from_table`
//! (`crates/pipeline/src/run2d.rs`).  What keeps the copy honest is the
//! equivalence guard: the re-play's string matrix, contigs and consensus must
//! equal the reference run's exactly, or the run counts as failed.

use crate::trace::{find, self_times_ns, Span, Tracer};
use crate::workloads::{
    run_graph, tiling_read_lengths, AssemblyInput, GraphInput, GraphRun, Input, Output, NPROCS,
};
use dibella2d::dist::extras::{
    flops_key, probes_key, ALIGNED_CELLS_KEY, BAND_WIDTH_PEAK_KEY, XDROP_TERMINATIONS_KEY,
};
use dibella2d::dist::{par_ranks, CommPhase, CommSnapshot, CommStats, ProcessGrid};
use dibella2d::overlap::{
    account_read_exchange_2d, align_candidates_with, build_a_matrix, detect_candidates_2d_with,
};
use dibella2d::pipeline::timings::timed;
use dibella2d::pipeline::{run_dibella_2d, CandidateSource, Pipeline2dOutput};
use dibella2d::seq::{count_kmers_distributed, parse_fasta};
use dibella2d::sketch::build_sketch_matrix;
use dibella2d::sparse::DistMat2D;
use dibella2d::strgraph::{consensus_contig, extract_contigs, transitive_reduction};
use dibella_testutil::PeakAlloc;
use std::collections::BTreeMap;

/// Per-layer metric values by name (see `manifest::PER_LAYER`).
pub type Metrics = BTreeMap<&'static str, f64>;

/// One reference run plus one traced re-play of the same input.
pub struct TracedPair {
    /// Per-layer metrics of this pair.
    pub metrics: Metrics,
    /// The re-play's spans.
    pub spans: Vec<Span>,
    /// The reference run's output, which the re-play's was checked against.
    pub output: Output,
}

fn rate(work: f64, seconds: f64, per: f64) -> f64 {
    if seconds > 0.0 {
        work / seconds / per
    } else {
        0.0
    }
}

/// Put a span's wall time and allocation peak under `<name>.s` and
/// `<name>.peak_bytes`; returns the seconds.
fn span_metrics(
    m: &mut Metrics,
    spans: &[Span],
    name: &str,
    s_key: &'static str,
    peak_key: Option<&'static str>,
) -> f64 {
    let Some(span) = find(spans, name) else {
        return 0.0;
    };
    m.insert(s_key, span.seconds());
    if let Some(key) = peak_key {
        m.insert(key, span.peak_bytes as f64);
    }
    span.seconds()
}

fn comm_metrics(m: &mut Metrics, comm: &CommSnapshot) {
    for (key, phase) in [
        ("dist.words.KmerCounting", CommPhase::KmerCounting),
        ("dist.words.SketchIndex", CommPhase::SketchIndex),
        ("dist.words.OverlapDetection", CommPhase::OverlapDetection),
        ("dist.words.ReadExchange", CommPhase::ReadExchange),
        (
            "dist.words.TransitiveReduction",
            CommPhase::TransitiveReduction,
        ),
        ("dist.words.Consensus", CommPhase::Consensus),
    ] {
        m.insert(key, comm.phase(phase).words as f64);
    }
    m.insert("dist.messages.total", comm.total_messages() as f64);
    let extra = |key: &str| comm.extras.get(key).copied().unwrap_or(0) as f64;
    m.insert(
        "sparse.tr_spgemm.flops",
        extra(&flops_key(CommPhase::TransitiveReduction)),
    );
    m.insert(
        "sparse.summa.flops",
        extra(&flops_key(CommPhase::OverlapDetection)),
    );
    m.insert(
        "sparse.summa.probes",
        extra(&probes_key(CommPhase::OverlapDetection)),
    );
    m.insert("align.xdrop.cells", extra(ALIGNED_CELLS_KEY));
    m.insert("align.xdrop.terminations", extra(XDROP_TERMINATIONS_KEY));
    m.insert("align.xdrop.band_width_peak", extra(BAND_WIDTH_PEAK_KEY));
}

/// Metrics of the root span: whole-run time, self time (driver glue) and the
/// allocation peak of the whole run.
fn root_metrics(m: &mut Metrics, spans: &[Span], untraced_s: f64) {
    let root = &spans[0];
    m.insert("pipeline.run.s", root.seconds());
    m.insert("pipeline.self_s", self_times_ns(spans)[0] as f64 * 1e-9);
    m.insert("pipeline.untraced_s", untraced_s);
    m.insert("pipeline.trace_overhead", root.seconds() / untraced_s - 1.0);
    m.insert("pipeline.peak_alloc_bytes", root.peak_bytes as f64);
}

/// Sizes the re-play sees between stages and the program's output does not
/// carry.
#[derive(Default)]
struct Intermediates {
    kmer_windows: u64,
    reliable_kmers: usize,
    a_nnz: usize,
    sketch_nnz: u64,
    sketch_columns: u64,
}

fn replay_assembly(
    input: &AssemblyInput,
    t: &mut Tracer<'_>,
) -> Result<(Output, Intermediates), String> {
    let config = &input.config;
    let mut sizes = Intermediates::default();
    let output = t.span("pipeline.run", |t| {
        let comm = CommStats::new();
        let reads = t.span("seq.parse", |_| parse_fasta(&input.fasta))?;
        let grid = ProcessGrid::square_at_most(config.nprocs);
        let k = config.kmer.k;
        sizes.kmer_windows = reads
            .lengths()
            .iter()
            .map(|&l| (l + 1).saturating_sub(k) as u64)
            .sum();

        let a = match config.candidate_source {
            CandidateSource::ExactKmer => {
                let table = t.span("seq.count_kmers", |_| {
                    count_kmers_distributed(&reads, &config.kmer, grid.nprocs(), &comm)
                });
                sizes.reliable_kmers = table.len();
                t.span("overlap.build_a", |_| {
                    build_a_matrix(&reads, &table, config.overlap.k, grid, grid.nprocs())
                })
            }
            CandidateSource::KMinMer => {
                let (a, stats) = t.span("sketch.build", |_| {
                    build_sketch_matrix(&reads, &config.sketch, grid, grid.nprocs(), &comm)
                });
                sizes.sketch_nnz = stats.nnz;
                sizes.sketch_columns = stats.columns;
                a
            }
        };
        sizes.a_nnz = a.nnz();
        account_read_exchange_2d(&reads, grid, &comm);

        let candidates = t.span("sparse.summa", |_| {
            detect_candidates_2d_with(&a, &comm, config.overlap.use_symmetric_summa)
        });
        let (overlap_matrix, _) = t.span("overlap.align", |_| {
            align_candidates_with(&reads, &candidates, &config.overlap, Some(&comm))
        });
        let tr = t.span("strgraph.tr", |_| {
            transitive_reduction(&overlap_matrix, &config.transitive, &comm)
        });

        let s_local = tr.string_matrix.to_local_csr();
        let lengths = reads.lengths();
        let contigs = t.span("strgraph.contigs", |_| extract_contigs(&s_local, &lengths));
        let consensus = t.span("strgraph.consensus", |_| {
            par_ranks(contigs.len(), |i| {
                consensus_contig(&contigs[i], &s_local, &reads, &config.consensus)
            })
        });
        Ok::<_, String>(Output {
            string_matrix: tr.string_matrix,
            contigs,
            consensus,
        })
    })?;
    Ok((output, sizes))
}

fn assembly_metrics(
    input: &AssemblyInput,
    reference: &Pipeline2dOutput,
    sizes: &Intermediates,
    spans: &[Span],
    untraced_s: f64,
) -> Metrics {
    let mut m = Metrics::new();
    let bases = input.input_bases as f64;
    comm_metrics(&mut m, &reference.comm);
    root_metrics(&mut m, spans, untraced_s);
    m.insert("pipeline.mbases_per_s", rate(bases, untraced_s, 1e6));

    let s = span_metrics(
        &mut m,
        spans,
        "seq.parse",
        "seq.parse.s",
        Some("seq.parse.peak_bytes"),
    );
    m.insert("seq.parse.mbases_per_s", rate(bases, s, 1e6));
    let s = span_metrics(
        &mut m,
        spans,
        "seq.count_kmers",
        "seq.count_kmers.s",
        Some("seq.count_kmers.peak_bytes"),
    );
    m.insert(
        "seq.count_kmers.mkmers_per_s",
        rate(sizes.kmer_windows as f64, s, 1e6),
    );
    m.insert(
        "seq.count_kmers.reliable_kmers",
        sizes.reliable_kmers as f64,
    );

    span_metrics(
        &mut m,
        spans,
        "sketch.build",
        "sketch.build.s",
        Some("sketch.build.peak_bytes"),
    );
    m.insert("sketch.build.nnz", sizes.sketch_nnz as f64);
    m.insert("sketch.build.columns", sizes.sketch_columns as f64);

    if span_metrics(
        &mut m,
        spans,
        "overlap.build_a",
        "overlap.build_a.s",
        Some("overlap.build_a.peak_bytes"),
    ) > 0.0
    {
        m.insert("overlap.build_a.nnz", sizes.a_nnz as f64);
    }

    let s = span_metrics(
        &mut m,
        spans,
        "sparse.summa",
        "sparse.summa.s",
        Some("sparse.summa.peak_bytes"),
    );
    m.insert(
        "sparse.summa.mflops_per_s",
        rate(m["sparse.summa.flops"], s, 1e6),
    );
    m.insert(
        "sparse.summa.candidate_pairs",
        reference.overlap_stats.candidate_pairs as f64,
    );

    let stats = &reference.overlap_stats;
    let s = span_metrics(
        &mut m,
        spans,
        "overlap.align",
        "overlap.align.s",
        Some("overlap.align.peak_bytes"),
    );
    m.insert("overlap.align.pairs", stats.aligned_pairs as f64);
    m.insert(
        "overlap.align.kpairs_per_s",
        rate(stats.aligned_pairs as f64, s, 1e3),
    );
    m.insert(
        "overlap.align.accept_ratio",
        stats.dovetail as f64 / stats.aligned_pairs.max(1) as f64,
    );
    m.insert(
        "overlap.align.contained_reads",
        stats.contained_reads as f64,
    );
    m.insert("overlap.align.r_nnz", reference.overlap_matrix.nnz() as f64);
    // Cells over the whole stage's time, so queueing and the best-per-pair
    // reduction count against the kernel's rate.
    m.insert(
        "align.xdrop.mcells_per_s",
        rate(m["align.xdrop.cells"], s, 1e6),
    );

    let tr = &reference.tr_summary;
    let s = span_metrics(
        &mut m,
        spans,
        "strgraph.tr",
        "strgraph.tr.s",
        Some("strgraph.tr.peak_bytes"),
    );
    m.insert("strgraph.tr.iterations", tr.iterations as f64);
    m.insert("strgraph.tr.removed_edges", tr.removed_edges as f64);
    m.insert("strgraph.tr.s_nnz", tr.string_edges as f64);
    m.insert(
        "strgraph.tr.medges_per_s",
        rate(reference.overlap_matrix.nnz() as f64, s, 1e6),
    );

    let cons = &reference.consensus_summary;
    span_metrics(
        &mut m,
        spans,
        "strgraph.contigs",
        "strgraph.contigs.s",
        None,
    );
    m.insert("strgraph.contigs.count", cons.contigs as f64);
    m.insert(
        "strgraph.contigs.multi_read",
        cons.multi_read_contigs as f64,
    );
    let s = span_metrics(
        &mut m,
        spans,
        "strgraph.consensus",
        "strgraph.consensus.s",
        Some("strgraph.consensus.peak_bytes"),
    );
    m.insert("strgraph.consensus.poa_nodes", cons.poa_nodes as f64);
    m.insert(
        "strgraph.consensus.aligned_bases",
        cons.aligned_bases as f64,
    );
    m.insert(
        "strgraph.consensus.kbases_per_s",
        rate(cons.aligned_bases as f64, s, 1e3),
    );
    m
}

fn replay_graph(input: &GraphInput, t: &mut Tracer<'_>) -> Output {
    t.span("pipeline.run", |t| {
        let comm = CommStats::new();
        let grid = ProcessGrid::square_at_most(NPROCS);
        let r = t.span("sparse.from_triples", |_| {
            DistMat2D::from_triples(grid, &input.triples)
        });
        let tr = t.span("strgraph.tr", |_| {
            transitive_reduction(&r, &input.config, &comm)
        });
        let s_local = tr.string_matrix.to_local_csr();
        let lengths = tiling_read_lengths(input);
        let contigs = t.span("strgraph.contigs", |_| extract_contigs(&s_local, &lengths));
        Output {
            string_matrix: tr.string_matrix,
            contigs,
            consensus: Vec::new(),
        }
    })
}

fn graph_metrics(
    input: &GraphInput,
    reference: &GraphRun,
    spans: &[Span],
    untraced_s: f64,
) -> Metrics {
    let mut m = Metrics::new();
    comm_metrics(&mut m, &reference.comm);
    root_metrics(&mut m, spans, untraced_s);
    span_metrics(
        &mut m,
        spans,
        "sparse.from_triples",
        "sparse.from_triples.s",
        None,
    );
    let s = span_metrics(
        &mut m,
        spans,
        "strgraph.tr",
        "strgraph.tr.s",
        Some("strgraph.tr.peak_bytes"),
    );
    m.insert("strgraph.tr.iterations", reference.tr.iterations as f64);
    m.insert(
        "strgraph.tr.removed_edges",
        reference.tr.removed_edges as f64,
    );
    m.insert("strgraph.tr.s_nnz", reference.tr.string_matrix.nnz() as f64);
    m.insert(
        "strgraph.tr.medges_per_s",
        rate(input.triples.nnz() as f64, s, 1e6),
    );
    span_metrics(
        &mut m,
        spans,
        "strgraph.contigs",
        "strgraph.contigs.s",
        None,
    );
    m.insert("strgraph.contigs.count", reference.contigs.len() as f64);
    m.insert(
        "strgraph.contigs.multi_read",
        reference.contigs.iter().filter(|c| c.len() > 1).count() as f64,
    );
    m
}

/// Run both closures, the re-play first if asked.  Whichever runs second finds
/// caches and the heap warm, so callers alternate the order between pairs.
fn in_order<A, B>(
    replay_first: bool,
    reference: impl FnOnce() -> A,
    replay: impl FnOnce() -> B,
) -> (A, B) {
    if replay_first {
        let replayed = replay();
        (reference(), replayed)
    } else {
        let reference = reference();
        (reference, replay())
    }
}

/// Run `input` once through the program's own driver and once through the
/// traced re-play, and check that both give the same output.
pub fn traced_pair(
    input: &Input,
    alloc: &PeakAlloc,
    replay_first: bool,
) -> Result<TracedPair, String> {
    // Created before either run so that the span storage is not allocated
    // inside anything measured.
    let mut tracer = Tracer::new(alloc);
    let (metrics, reference, replayed) = match input {
        Input::Assembly(a) => {
            let ((reference, untraced_s), replayed) = in_order(
                replay_first,
                || timed(|| run_dibella_2d(&a.fasta, &a.config)),
                || replay_assembly(a, &mut tracer),
            );
            let (reference, (replayed, sizes)) = (reference?, replayed?);
            let metrics = assembly_metrics(a, &reference, &sizes, tracer.spans(), untraced_s);
            (metrics, Output::from(reference), replayed)
        }
        Input::Graph(g) => {
            let ((reference, untraced_s), replayed) = in_order(
                replay_first,
                || timed(|| run_graph(g)),
                || replay_graph(g, &mut tracer),
            );
            let metrics = graph_metrics(g, &reference, tracer.spans(), untraced_s);
            (metrics, Output::from(reference), replayed)
        }
    };
    if reference != replayed {
        return Err("the traced re-play's output differs from the program's own driver's".into());
    }
    Ok(TracedPair {
        metrics,
        spans: tracer.into_spans(),
        output: reference,
    })
}
