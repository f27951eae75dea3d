//! Figures 4–9 and Section VII-B — the paper's scaling experiment.
//!
//! The paper's scaling results are four views of one experiment on the
//! C. elegans and H. sapiens datasets: strong scaling of diBELLA 2D
//! (Figure 4), its runtime per stage (Figures 5–8), diBELLA 2D against
//! diBELLA 1D with the transitive reduction subtracted from 2D (Figure 9),
//! and a minimap2-style minimizer overlapper on one node against diBELLA 2D
//! at growing node counts (Section VII-B).  This harness generates each
//! dataset once and runs diBELLA 2D once per rank count any of the four
//! tables lists, diBELLA 1D at Figure 9's rank counts and the minimizer
//! overlapper once; the four tables are printed from those runs.  Every run
//! starts from the dataset's FASTA text and is charged its parse
//! (`ReadFastq`).  A row reports a measured single-host run or its projected
//! distributed runtime at `P` ranks ([`dibella_bench::project`]).
//!
//! ```bash
//! cargo run --release -p dibella-bench --bin scaling_figures
//! ```

use dibella_bench::{benchmark_dataset, fmt, print_header, print_row, project};
use dibella_bench::READ_FASTQ_MAX_RANKS;
use dibella_dist::extras::flops_key;
use dibella_dist::CommPhase;
use dibella_overlap::{
    minimizer_overlaps, MinimizerConfig, ALIGNED_CELLS_KEY, BAND_WIDTH_PEAK_KEY,
    XDROP_TERMINATIONS_KEY,
};
use dibella_pipeline::timings::timed;
use dibella_pipeline::{
    run_dibella_1d, run_dibella_2d, Pipeline1dOutput, Pipeline2dOutput, PipelineConfig,
    StageTimings,
};
use dibella_seq::{parse_fasta, write_fasta, DatasetSpec, SimulatedDataset};
use std::collections::{BTreeMap, BTreeSet};

/// MPI ranks per node in the paper's runs.
const RANKS_PER_NODE: usize = 32;

/// The paper's node counts for one dataset: Figure 4's, those of Figures
/// 5–8 and 9 (they list the same), and Section VII-B's.
struct Nodes {
    fig4: &'static [usize],
    fig5_9: &'static [usize],
    minimizer: &'static [usize],
}

/// The two datasets with their seeds and node counts.
const CASES: [(DatasetSpec, u64, Nodes); 2] = [
    (
        DatasetSpec::CElegansLike,
        91,
        Nodes { fig4: &[32, 72, 128], fig5_9: &[32, 72, 128], minimizer: &[8, 32, 72, 128] },
    ),
    (
        DatasetSpec::HSapiensLike,
        92,
        Nodes {
            fig4: &[128, 200, 288, 338],
            fig5_9: &[128, 200, 338],
            minimizer: &[128, 200, 338],
        },
    ),
];

/// The rank counts of `nodes` nodes.
fn ranks(nodes: &[usize]) -> impl Iterator<Item = usize> + '_ {
    nodes.iter().map(|n| n * RANKS_PER_NODE)
}

/// Every run of one dataset the tables read.
struct Sweep {
    ds: SimulatedDataset,
    nodes: Nodes,
    /// diBELLA 2D, by rank count.
    runs_2d: BTreeMap<usize, Pipeline2dOutput>,
    /// diBELLA 1D, by rank count.
    runs_1d: BTreeMap<usize, Pipeline1dOutput>,
    /// Overlaps the minimizer overlapper found, and its wall-clock seconds.
    minimizer: (usize, f64),
}

impl Sweep {
    fn run(spec: DatasetSpec, seed: u64, nodes: Nodes) -> Self {
        let ds = benchmark_dataset(spec, seed);
        let fasta = write_fasta(&ds.reads);
        let config = |p| PipelineConfig::for_benchmark(17, ds.config.error_rate, p);
        let all: BTreeSet<usize> =
            ranks(&[nodes.fig4, nodes.fig5_9, nodes.minimizer].concat()).collect();
        let runs_2d = all
            .into_iter()
            .map(|p| (p, run_dibella_2d(&fasta, &config(p)).expect("diBELLA 2D run")))
            .collect();
        let parse = || parse_fasta(&fasta).expect("write_fasta's text parses");
        let runs_1d = ranks(nodes.fig5_9)
            .map(|p| {
                let (reads, read_fastq) = timed(parse);
                let mut out = run_dibella_1d(&reads, &config(p)).expect("diBELLA 1D run");
                out.timings.read_fastq = read_fastq;
                (p, out)
            })
            .collect();
        // One node, no alignment: minimap2's design point.
        let (found, secs) =
            timed(|| minimizer_overlaps(&parse(), &MinimizerConfig::default()).len());
        Self { ds, nodes, runs_2d, runs_1d, minimizer: (found, secs.max(1e-4)) }
    }

    fn fig4(&self) {
        let ds = &self.ds;
        println!(
            "{} — {} reads, {:.0} bp mean read length, {:.1}x depth",
            ds.label,
            ds.num_reads(),
            ds.mean_read_length(),
            ds.achieved_depth()
        );
        print_header(&[
            "ranks P", "grid", "measured (s)", "proj. T(P) s", "speed-up", "par. eff. %",
        ]);
        let mut baseline: Option<(usize, f64)> = None;
        for p in ranks(self.nodes.fig4) {
            let out = &self.runs_2d[&p];
            let total = project(&out.timings, &out.comm, p).total();
            let (p0, t0) = *baseline.get_or_insert((p, total));
            let eff = StageTimings::parallel_efficiency(t0, p0, total, p);
            print_row(&[
                p.to_string(),
                format!("{}x{}", out.grid.rows(), out.grid.cols()),
                fmt(out.timings.total()),
                fmt(total),
                format!("{:.2}x", t0 / total),
                format!("{:.0}", eff * 100.0),
            ]);
        }
        println!();
    }

    fn fig5_8(&self) {
        println!("{} — projected per-stage seconds at P ranks", self.ds.label);
        let mut header = vec!["ranks P"];
        header.extend(StageTimings::LABELS);
        header.extend(["total", "w/o align"]);
        print_header(&header);
        let row = |first: String, t: &StageTimings| {
            let mut cells = vec![first];
            cells.extend(t.values().iter().map(|v| fmt(*v)));
            cells.push(fmt(t.total()));
            cells.push(fmt(t.total_without_alignment()));
            print_row(&cells);
        };
        for (i, p) in ranks(self.nodes.fig5_9).enumerate() {
            let out = &self.runs_2d[&p];
            row(p.to_string(), &project(&out.timings, &out.comm, p));
            if i == 0 {
                row("measured*".into(), &out.timings);
                print_work_counts(out);
            }
        }
        println!("  (*) single-host wall clock of the run used for the first projection\n");
    }

    fn fig9(&self) {
        println!("{}", self.ds.label);
        print_header(&["ranks P", "2D T(P) s", "1D T(P) s", "2D speed-up"]);
        for p in ranks(self.nodes.fig5_9) {
            let (out2d, out1d) = (&self.runs_2d[&p], &self.runs_1d[&p]);
            let t2d = project(&out2d.timings, &out2d.comm, p).total_without_tr();
            let t1d = project(&out1d.timings, &out1d.comm, p).total_without_tr();
            print_row(&[p.to_string(), fmt(t2d), fmt(t1d), format!("{:.2}x", t1d / t2d)]);
        }
        println!();
    }

    fn vs_minimizer(&self) {
        let (found, minimizer_secs) = self.minimizer;
        println!(
            "{} — minimizer overlapper: {found} overlaps in {minimizer_secs:.2} s on one node",
            self.ds.label
        );
        print_header(&["ranks P", "diBELLA T(P) s", "minimizer (s)", "faster side", "factor"]);
        for p in ranks(self.nodes.minimizer) {
            let out = &self.runs_2d[&p];
            let dibella_secs = project(&out.timings, &out.comm, p).total_without_tr();
            let (winner, factor) = if dibella_secs <= minimizer_secs {
                ("diBELLA 2D", minimizer_secs / dibella_secs)
            } else {
                ("minimizer", dibella_secs / minimizer_secs)
            };
            print_row(&[
                p.to_string(),
                fmt(dibella_secs),
                fmt(minimizer_secs),
                winner.to_string(),
                format!("{factor:.1}x"),
            ]);
        }
        println!();
    }
}

/// The run's work counts, each at its measured rate: useful flops of the
/// two SpGEMM phases, the aligner's DP cells, and the DP cells of the
/// consensus stage's banded read-vs-backbone fits.
fn print_work_counts(out: &Pipeline2dOutput) {
    let extra = |key: &str| out.comm.extras.get(key).copied().unwrap_or(0);
    let per_sec = |count: u64, secs: f64| if secs > 0.0 { count as f64 / secs / 1e6 } else { 0.0 };
    let t = &out.timings;
    let spgemm = extra(&flops_key(CommPhase::OverlapDetection));
    let tr = extra(&flops_key(CommPhase::TransitiveReduction));
    println!(
        "  SpGEMM (AAᵀ): {spgemm} useful flops at {:.1} Mflop/s; \
         TrReduction squarings: {tr} flops at {:.1} Mflop/s",
        per_sec(spgemm, t.spgemm),
        per_sec(tr, t.tr_reduction)
    );
    let cells = extra(ALIGNED_CELLS_KEY);
    println!(
        "  Alignment: {cells} DP cells at {:.1} Mcells/s; peak band width {}; \
         x-drop early stops {}",
        per_sec(cells, t.alignment),
        extra(BAND_WIDTH_PEAK_KEY),
        extra(XDROP_TERMINATIONS_KEY)
    );
    let poa = out.consensus_summary.dp_cells;
    println!("  Consensus: {poa} POA DP cells at {:.1} Mcells/s", per_sec(poa, t.consensus));
}

fn main() {
    let sweeps: Vec<Sweep> =
        CASES.into_iter().map(|(spec, seed, nodes)| Sweep::run(spec, seed, nodes)).collect();

    println!("Figure 4 reproduction — diBELLA 2D strong scaling\n");
    sweeps.iter().for_each(Sweep::fig4);
    println!("Paper (Figure 4): near-linear scaling with >= 80% parallel efficiency for");
    println!("H. sapiens (peak 92% on Summit) and 68-83% for C. elegans.");
    println!("'measured' is this host's wall clock, including the per-rank bookkeeping of");
    println!("the simulated ranks, which grows with P; 'proj. T(P)' divides the measured");
    println!("per-stage compute across ranks and adds the per-rank communication time");
    println!("derived from the measured volumes (see EXPERIMENTS.md); ReadFastq is divided");
    println!("across at most {READ_FASTQ_MAX_RANKS} ranks, so it bounds T(P) from below.\n");

    println!("Figures 5-8 reproduction — diBELLA 2D runtime breakdown\n");
    sweeps.iter().for_each(Sweep::fig5_8);
    println!("Paper (Figures 5-8): pairwise alignment dominates the total runtime; the");
    println!("AAT SpGEMM is the largest non-alignment stage; ReadFastq stops scaling at");
    println!("high concurrency; CreateSpMat is negligible; TrReduction is a small share.\n");

    println!("Figure 9 reproduction — diBELLA 2D vs diBELLA 1D (TR excluded from 2D)\n");
    sweeps.iter().for_each(Sweep::fig9);
    println!("Paper (Figure 9): diBELLA 2D is faster by 1.5-1.9x (avg 1.7x) on C. elegans");
    println!("and 1.2-1.3x (avg 1.2x) on H. sapiens, from the lower overlap-detection and");
    println!("read-exchange communication of the 2D decomposition.\n");

    println!("Section VII-B reproduction — diBELLA 2D vs a minimizer overlapper\n");
    sweeps.iter().for_each(Sweep::vs_minimizer);
    println!("Paper: minimap2 is ~2x faster than diBELLA 2D at P=8 nodes on C. elegans but");
    println!("diBELLA 2D becomes 1.6x/3.2x/5x faster at higher concurrency, and 9.5-20.6x");
    println!("faster on H. sapiens at P=128-338 nodes.");
}
