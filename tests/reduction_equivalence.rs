//! Cross-crate equivalence: the parallel transitive reduction (Algorithm 2),
//! Myers' sequential algorithm and the SORA-style vertex-centric baseline must
//! produce the same string graph — on hand-built fixtures and on overlap
//! matrices produced by the real pipeline.

use dibella2d::prelude::*;
use dibella2d::strgraph::fixtures::{forked_overlap_graph, tiling_overlap_graph, to_dist};
use dibella2d::strgraph::transitive::remaining_transitive_edges;

#[test]
fn all_three_reductions_agree_on_fixture_graphs() {
    for (n, span, alt) in [(20usize, 3usize, false), (25, 5, true), (16, 2, true)] {
        let triples = tiling_overlap_graph(n, span, alt);
        let local = CsrMatrix::from_triples(&triples);
        let dist = to_dist(&triples, ProcessGrid::square(4));
        let cfg = TransitiveReductionConfig { fuzz: 60, max_iterations: 16 };
        let comm = CommStats::new();

        let parallel = transitive_reduction(&dist, &cfg, &comm).string_matrix.to_local_csr();
        let (myers, _) = myers_transitive_reduction(&local, cfg.fuzz);
        let (sora, _) = sora_transitive_reduction(&local, cfg.fuzz);

        assert_eq!(parallel.pattern(), myers.pattern(), "n={n} span={span} alt={alt}");
        assert_eq!(parallel.pattern(), sora.pattern(), "n={n} span={span} alt={alt}");
        // Surviving values are untouched originals.
        for (i, j, e) in parallel.iter() {
            assert_eq!(local.get(i, j), Some(e));
        }
    }
}

#[test]
fn all_three_reductions_agree_on_forked_graphs() {
    let triples = forked_overlap_graph(6, 4, 3);
    let local = CsrMatrix::from_triples(&triples);
    let dist = to_dist(&triples, ProcessGrid::square(9));
    let cfg = TransitiveReductionConfig { fuzz: 60, max_iterations: 16 };
    let comm = CommStats::new();
    let parallel = transitive_reduction(&dist, &cfg, &comm).string_matrix.to_local_csr();
    let (myers, _) = myers_transitive_reduction(&local, cfg.fuzz);
    let (sora, _) = sora_transitive_reduction(&local, cfg.fuzz);
    assert_eq!(parallel.pattern(), myers.pattern());
    assert_eq!(parallel.pattern(), sora.pattern());
}

#[test]
fn reductions_agree_on_a_pipeline_produced_overlap_matrix() {
    // The overlap matrix coming out of the real pipeline has noisy suffixes,
    // all four edge directions and removed contained reads — a much harsher
    // input than the fixtures.
    let ds = DatasetSpec::Tiny.generate(201);
    let cfg = PipelineConfig::for_small_reads(13, 4);
    let out = run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap();
    let r_local = out.overlap_matrix.to_local_csr();
    assert!(r_local.nnz() > 0);

    let fuzz = cfg.transitive.fuzz;
    let (myers, _) = myers_transitive_reduction(&r_local, fuzz);
    let (sora, _) = sora_transitive_reduction(&r_local, fuzz);
    let parallel = out.string_matrix.to_local_csr();

    // Myers' single pass and the iterated matrix formulation can differ on
    // pathological chains, but on real overlap graphs they should coincide;
    // the SORA-style baseline implements the same rule as Algorithm 2 and must
    // match exactly.
    assert_eq!(parallel.pattern(), sora.pattern());
    let myers_set: std::collections::HashSet<(usize, usize)> = myers.pattern().into_iter().collect();
    let parallel_set: std::collections::HashSet<(usize, usize)> =
        parallel.pattern().into_iter().collect();
    let sym_diff = myers_set.symmetric_difference(&parallel_set).count();
    assert!(
        sym_diff * 20 <= parallel_set.len(),
        "Myers and Algorithm 2 differ on {sym_diff} of {} edges",
        parallel_set.len()
    );
}

#[test]
fn no_implementation_leaves_transitive_edges_behind() {
    let ds = DatasetSpec::Tiny.generate(202);
    let cfg = PipelineConfig::for_small_reads(13, 4);
    let out = run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap();
    let fuzz = cfg.transitive.fuzz;

    assert!(remaining_transitive_edges(&out.string_matrix, fuzz).is_empty());

    let r_local = out.overlap_matrix.to_local_csr();
    let (sora, _) = sora_transitive_reduction(&r_local, fuzz);
    let sora_dist = DistMat2D::from_triples(ProcessGrid::square(1), &sora.to_triples());
    assert!(remaining_transitive_edges(&sora_dist, fuzz).is_empty());
}

#[test]
fn grid_and_thread_count_do_not_change_the_string_graph() {
    let ds = DatasetSpec::Tiny.generate(203);
    let reference = {
        let cfg = PipelineConfig::for_small_reads(13, 1);
        run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap().string_matrix.to_local_csr()
    };
    for nprocs in [4usize, 9, 25] {
        let cfg = PipelineConfig::for_small_reads(13, nprocs);
        let out = run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap();
        assert_eq!(out.string_matrix.to_local_csr(), reference, "P={nprocs}");
    }
    // And across rayon thread counts.
    for threads in [1usize, 2, 8] {
        let cfg = PipelineConfig::for_small_reads(13, 4);
        let got = dibella2d::dist::with_threads(threads, || {
            run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap().string_matrix.to_local_csr()
        });
        assert_eq!(got, reference, "threads={threads}");
    }
}
