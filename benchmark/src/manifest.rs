//! The benchmark's metrics, declared once.
//!
//! Both binaries print their metrics by walking these tables, and
//! `BENCHMARK.json` at the repository root is [`benchmark_json`]'s output, so
//! the names, units and bounds cannot drift apart (a test compares the
//! committed file with the function).

use crate::stats::Better::{self, Higher, Lower};
use crate::workloads::WORKLOADS;
use std::fmt::Write as _;

/// Seconds each driver run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

/// An end-to-end metric: something a user of the assembler sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of one layer, from the traced run.  No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<call>.<what>`; the layer is the crate name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

/// The end-to-end metrics every workload reports (see README.md for the
/// definitions and for how each bound was chosen).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "accuracy",
        unit: "fraction",
        better: Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "contiguity",
        unit: "fraction",
        better: Higher,
        bound: 0.02,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics.  A workload that never enters a layer reports 0
/// for that layer's metrics.
pub const PER_LAYER: &[PerLayer] = &[
    // seq: FASTA parsing and reliable k-mer counting.
    layer("seq.parse.s", "s", Lower),
    layer("seq.parse.mbases_per_s", "Mbases/s", Higher),
    layer("seq.parse.peak_bytes", "bytes", Lower),
    layer("seq.count_kmers.s", "s", Lower),
    layer("seq.count_kmers.mkmers_per_s", "Mkmers/s", Higher),
    layer("seq.count_kmers.reliable_kmers", "count", Higher),
    layer("seq.count_kmers.peak_bytes", "bytes", Lower),
    // sketch: the k-min-mer occurrence matrix (replaces seq counting + build_a).
    layer("sketch.build.s", "s", Lower),
    layer("sketch.build.nnz", "count", Lower),
    layer("sketch.build.columns", "count", Lower),
    layer("sketch.build.peak_bytes", "bytes", Lower),
    // overlap: occurrence matrix A and the alignment stage.
    layer("overlap.build_a.s", "s", Lower),
    layer("overlap.build_a.nnz", "count", Lower),
    layer("overlap.build_a.peak_bytes", "bytes", Lower),
    layer("overlap.align.s", "s", Lower),
    layer("overlap.align.pairs", "count", Lower),
    layer("overlap.align.kpairs_per_s", "kpairs/s", Higher),
    layer("overlap.align.accept_ratio", "fraction", Higher),
    layer("overlap.align.contained_reads", "count", Lower),
    layer("overlap.align.r_nnz", "count", Higher),
    layer("overlap.align.peak_bytes", "bytes", Lower),
    // sparse: the candidate SUMMA and the SpGEMMs inside the reduction.
    layer("sparse.summa.s", "s", Lower),
    layer("sparse.summa.flops", "count", Lower),
    layer("sparse.summa.mflops_per_s", "Mflop/s", Higher),
    layer("sparse.summa.probes", "count", Lower),
    layer("sparse.summa.candidate_pairs", "count", Lower),
    layer("sparse.summa.peak_bytes", "bytes", Lower),
    layer("sparse.tr_spgemm.flops", "count", Lower),
    layer("sparse.from_triples.s", "s", Lower),
    // align: the x-drop kernel, counted inside overlap.align.
    layer("align.xdrop.cells", "count", Lower),
    layer("align.xdrop.mcells_per_s", "Mcells/s", Higher),
    layer("align.xdrop.terminations", "count", Higher),
    layer("align.xdrop.band_width_peak", "count", Lower),
    // strgraph: transitive reduction, contig layout, POA consensus.
    layer("strgraph.tr.s", "s", Lower),
    layer("strgraph.tr.iterations", "count", Lower),
    layer("strgraph.tr.removed_edges", "count", Higher),
    layer("strgraph.tr.s_nnz", "count", Lower),
    layer("strgraph.tr.medges_per_s", "Medges/s", Higher),
    layer("strgraph.tr.peak_bytes", "bytes", Lower),
    layer("strgraph.contigs.s", "s", Lower),
    layer("strgraph.contigs.count", "count", Lower),
    layer("strgraph.contigs.multi_read", "count", Lower),
    layer("strgraph.consensus.s", "s", Lower),
    layer("strgraph.consensus.poa_nodes", "count", Lower),
    layer("strgraph.consensus.aligned_bases", "count", Higher),
    layer("strgraph.consensus.kbases_per_s", "kbases/s", Higher),
    layer("strgraph.consensus.peak_bytes", "bytes", Lower),
    // dist: counted words and messages of the virtual ranks (Table I).
    layer("dist.words.KmerCounting", "words", Lower),
    layer("dist.words.SketchIndex", "words", Lower),
    layer("dist.words.OverlapDetection", "words", Lower),
    layer("dist.words.ReadExchange", "words", Lower),
    layer("dist.words.TransitiveReduction", "words", Lower),
    layer("dist.words.Consensus", "words", Lower),
    layer("dist.messages.total", "count", Lower),
    // pipeline: the whole run as the traced binary sees it.
    layer("pipeline.run.s", "s", Lower),
    layer("pipeline.self_s", "s", Lower),
    layer("pipeline.untraced_s", "s", Lower),
    layer("pipeline.wall_min_s", "s", Lower),
    layer("pipeline.wall_max_s", "s", Lower),
    layer("pipeline.trace_overhead", "fraction", Lower),
    layer("pipeline.mbases_per_s", "Mbases/s", Higher),
    layer("pipeline.peak_alloc_bytes", "bytes", Lower),
    layer("pipeline.misjoins", "count", Lower),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("String write");
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "name {name}");
            assert!(
                name.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric()),
                "name {name}"
            );
            assert!(seen.insert(name), "name {name} used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(well_formed(unit, 16, "_/%.-"), "unit {unit}");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "why of {}",
                w.name
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_what_this_code_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: benchmark/run.sh --write-manifest"
        );
        assert!(committed.len() <= 64 << 10);
    }
}
