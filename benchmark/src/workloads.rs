//! The workloads: how inputs are made from a seed, how the program is run on
//! them through its public API, and how its output is judged.

use dibella2d::dist::{with_threads, CommSnapshot, CommStats, ProcessGrid};
use dibella2d::overlap::OverlapEdge;
use dibella2d::pipeline::{run_dibella_2d, CandidateSource, Pipeline2dOutput, PipelineConfig};
use dibella2d::seq::simulate::{
    apply_errors, generate_genome, simulate_reads, GenomeConfig, ReadOrigin, ReadSimConfig,
};
use dibella2d::seq::{write_fasta, DatasetSpec, DnaSeq, ReadRecord, ReadSet};
use dibella2d::sparse::{DistMat2D, Triples};
use dibella2d::strgraph::fixtures::{tiling_overlap_graph, TILING_STEP};
use dibella2d::strgraph::{
    evaluate_assembly, extract_contigs, transitive_reduction, Contig, ContigConsensus, TrOutcome,
    TransitiveReductionConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Virtual ranks of every workload (a 4×4 grid).
pub const NPROCS: usize = 16;

/// Worker threads of every workload whose name does not end in `1t`.  Pinned
/// (never `available_parallelism`) so numbers compare across hosts.
pub const THREADS: usize = 2;

/// Input size: the measured one, or a small one for tests and `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size the committed numbers were taken at.
    Full,
    /// Seconds for the whole set: exercises every code path, measures nothing.
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Long noisy reads, FASTA text in, contigs and consensus out.
    ClrLong,
    /// Many short accurate reads through the given candidate path.
    HifiDeep(CandidateSource),
    /// A given overlap matrix `R` in, string graph and contigs out.
    GraphTiling,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Worker threads the run is pinned to.
    pub threads: usize,
    kind: Kind,
}

/// Every workload, in the order the suite runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "clr-long",
        why: "Paper-shaped preset (7 kb reads, 13% error, 30x): consensus and alignment do almost all the work, candidate generation and TR almost none",
        threads: THREADS,
        kind: Kind::ClrLong,
    },
    Workload {
        name: "clr-long-1t",
        why: "Same input and config on 1 thread: the plain single-threaded baseline that separates a faster kernel from better parallelism",
        threads: 1,
        kind: Kind::ClrLong,
    },
    Workload {
        name: "hifi-deep",
        why: "Many short accurate reads: dense A and many candidate pairs, so k-mer counting, build_a and SUMMA carry a large share and consensus a small one",
        threads: THREADS,
        kind: Kind::HifiDeep(CandidateSource::ExactKmer),
    },
    Workload {
        name: "hifi-deep-sketch",
        why: "Same reads through the k-min-mer path: sketch.build replaces counting and build_a, SUMMA shrinks, the aligner gets more pairs",
        threads: THREADS,
        kind: Kind::HifiDeep(CandidateSource::KMinMer),
    },
    Workload {
        name: "graph-tiling",
        why: "Table VI task, TR on a given R with shuffled read ids: sparse and strgraph::transitive do all the work, align and consensus none",
        threads: THREADS,
        kind: Kind::GraphTiling,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input of an assembly workload: the FASTA text the program receives, and
/// the simulator's ground truth, which it never sees.
pub struct AssemblyInput {
    /// The reads as FASTA text — all the program gets.
    pub fasta: String,
    /// Pipeline configuration of the workload.
    pub config: PipelineConfig,
    /// Bases in `fasta`.
    pub input_bases: usize,
    genome: DnaSeq,
    origins: Vec<ReadOrigin>,
}

/// Input of the graph workload: the overlap matrix `R` as triples.
pub struct GraphInput {
    /// `R`, with read ids shuffled — all the program gets.
    pub triples: Triples<OverlapEdge>,
    /// Reduction settings of the workload.
    pub config: TransitiveReductionConfig,
    /// `tile_of[read]` is the read's position along the genome.
    tile_of: Vec<usize>,
}

/// What a workload feeds the program.
pub enum Input {
    /// FASTA text → contigs and consensus.
    Assembly(Box<AssemblyInput>),
    /// Overlap triples → string graph and contigs.
    Graph(GraphInput),
}

/// A seed-driven Fisher–Yates shuffle of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    perm
}

impl Workload {
    /// Make the workload's input from `seed`: the same seed gives the same
    /// input.  This is what `setup_s` times.
    pub fn generate(&self, seed: u64, scale: Scale) -> Input {
        match (self.kind, scale) {
            (Kind::GraphTiling, _) => {
                let n = if scale == Scale::Full { 80_000 } else { 2_000 };
                graph_input(n, seed)
            }
            (Kind::ClrLong, Scale::Full) => {
                // DatasetSpec::EColiLike's shape (13% error, 30x, reads a
                // quarter of the genome, sd a quarter of the mean) at a size
                // one run of which fits a ten-second measurement five times.
                let genome = GenomeConfig {
                    length: 28_000,
                    repeat_fraction: 0.05,
                    repeat_length: 1_750,
                    seed,
                };
                let placement = ReadSimConfig {
                    depth: 30.0,
                    mean_read_length: 7_000,
                    min_read_length: 1_750,
                    read_length_sd: 1_750,
                    // A constant: with ~14 reads in the layout and a cost
                    // quadratic in read length, drawing the placement from the
                    // seed moves the wall time by 17% between seeds.
                    seed: CLR_PLACEMENT_SEED,
                    ..ReadSimConfig::default()
                };
                let config = PipelineConfig::for_benchmark(17, 0.13, NPROCS);
                simulated_input(&genome, &placement, 0.13, seed, config)
            }
            (Kind::HifiDeep(source), Scale::Full) => {
                // No repeats: at this size they would be four copies of one
                // segment, and the number of candidate pairs the sketch path
                // finds then moves 11% with where the seed drops them.
                let genome = GenomeConfig {
                    length: 60_000,
                    repeat_fraction: 0.0,
                    repeat_length: 0,
                    seed,
                };
                let placement = ReadSimConfig {
                    depth: 30.0,
                    mean_read_length: 1_200,
                    min_read_length: 900,
                    read_length_sd: 100,
                    seed: seed.wrapping_add(1),
                    ..ReadSimConfig::default()
                };
                let config = PipelineConfig {
                    candidate_source: source,
                    ..PipelineConfig::for_small_reads(17, NPROCS)
                };
                simulated_input(&genome, &placement, 0.002, seed, config)
            }
            (Kind::ClrLong | Kind::HifiDeep(_), Scale::Smoke) => {
                let ds = DatasetSpec::Tiny.generate(seed);
                let candidate_source = match self.kind {
                    Kind::HifiDeep(source) => source,
                    _ => CandidateSource::ExactKmer,
                };
                let config = PipelineConfig {
                    candidate_source,
                    ..PipelineConfig::for_small_reads(13, NPROCS)
                };
                assembly_input(&ds.reads, ds.genome, ds.origins, config)
            }
        }
    }

    /// Run `body` with the worker count pinned to this workload's.
    pub fn pinned<T>(&self, body: impl FnOnce() -> T) -> T {
        with_threads(self.threads, body)
    }

    /// The lowest accuracy a run may report before it counts as failed
    /// (checked at fifty seeds before being committed).  Only the
    /// measured size has a floor: the smoke inputs are too small for one.
    pub fn accuracy_floor(&self, scale: Scale) -> f64 {
        match (self.kind, scale) {
            (_, Scale::Smoke) => 0.0,
            (Kind::ClrLong, _) => 0.90,
            (Kind::HifiDeep(_), _) => 0.99,
            (Kind::GraphTiling, _) => 1.0,
        }
    }
}

/// Read placement (start, length, strand) of `clr-long*`, on every seed.
const CLR_PLACEMENT_SEED: u64 = 2021;

/// Simulate an assembly input in two steps, so that the two sources of
/// randomness have their own seeds: `placement.seed` draws where each read
/// comes from (which fixes how much work the assembly is), `seed` draws the
/// genome's bases and the sequencing errors.
fn simulated_input(
    genome: &GenomeConfig,
    placement: &ReadSimConfig,
    error_rate: f64,
    seed: u64,
    config: PipelineConfig,
) -> Input {
    let genome = generate_genome(&GenomeConfig { seed, ..*genome });
    // At error rate 0 the simulator draws placements only.
    let (clean, origins) = simulate_reads(
        &genome,
        &ReadSimConfig {
            error_rate: 0.0,
            ..*placement
        },
    );
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(2));
    let noisy = clean
        .records()
        .iter()
        .map(|r| ReadRecord {
            name: r.name.clone(),
            seq: apply_errors(&r.seq, error_rate, &mut rng),
        })
        .collect();
    assembly_input(&ReadSet::from_records(noisy), genome, origins, config)
}

fn assembly_input(
    reads: &ReadSet,
    genome: DnaSeq,
    origins: Vec<ReadOrigin>,
    config: PipelineConfig,
) -> Input {
    Input::Assembly(Box::new(AssemblyInput {
        fasta: write_fasta(reads),
        config,
        input_bases: reads.total_bases(),
        genome,
        origins,
    }))
}

/// The tiling fixture with read ids shuffled.  Unshuffled, every off-diagonal
/// grid block is empty and the run is 2.5× faster — a layout unsorted reads
/// never have.
fn graph_input(n: usize, seed: u64) -> Input {
    let read_of = permutation(n, seed);
    let mut tile_of = vec![0; n];
    for (tile, &read) in read_of.iter().enumerate() {
        tile_of[read] = tile;
    }
    let entries = tiling_overlap_graph(n, TILING_SPAN, true)
        .into_entries()
        .into_iter()
        .map(|(i, j, edge)| (read_of[i], read_of[j], edge))
        .collect();
    Input::Graph(GraphInput {
        triples: Triples::from_entries(n, n, entries),
        config: TransitiveReductionConfig {
            fuzz: 100,
            max_iterations: 16,
        },
        tile_of,
    })
}

/// The part of a run's result that must repeat exactly: between timed runs,
/// and between the program's own driver and the traced re-play.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// The string matrix `S`.
    pub string_matrix: DistMat2D<OverlapEdge>,
    /// Contig layouts.
    pub contigs: Vec<Contig>,
    /// One consensus per contig (none for the graph workload).
    pub consensus: Vec<ContigConsensus>,
}

impl From<Pipeline2dOutput> for Output {
    fn from(out: Pipeline2dOutput) -> Self {
        Self {
            string_matrix: out.string_matrix,
            contigs: out.contigs,
            consensus: out.consensus,
        }
    }
}

/// Result of the graph workload's three calls.
pub struct GraphRun {
    /// What the transitive reduction returned.
    pub tr: TrOutcome,
    /// Contigs extracted from `S`.
    pub contigs: Vec<Contig>,
    /// Communication counted during the run.
    pub comm: CommSnapshot,
}

impl From<GraphRun> for Output {
    fn from(run: GraphRun) -> Self {
        Self {
            string_matrix: run.tr.string_matrix,
            contigs: run.contigs,
            consensus: Vec::new(),
        }
    }
}

/// Overlap reach of the tiling fixture: reads up to this many tiles apart
/// overlap, so `R` has `2 × TILING_SPAN` entries per row.
const TILING_SPAN: usize = 12;

/// Read lengths of the tiling fixture: every read is equally long.
pub fn tiling_read_lengths(input: &GraphInput) -> Vec<usize> {
    vec![(TILING_SPAN + 2) * TILING_STEP; input.triples.nrows()]
}

/// The graph workload end to end: triples → `R` → `S` → contigs.
pub fn run_graph(input: &GraphInput) -> GraphRun {
    let comm = CommStats::new();
    let r = DistMat2D::from_triples(ProcessGrid::square_at_most(NPROCS), &input.triples);
    let tr = transitive_reduction(&r, &input.config, &comm);
    let contigs = extract_contigs(
        &tr.string_matrix.to_local_csr(),
        &tiling_read_lengths(input),
    );
    GraphRun {
        tr,
        contigs,
        comm: comm.snapshot(),
    }
}

/// One end-to-end run of the program on `input`.
pub fn run(input: &Input) -> Result<Output, String> {
    match input {
        Input::Assembly(a) => run_dibella_2d(&a.fasta, &a.config).map(Output::from),
        Input::Graph(g) => Ok(run_graph(g).into()),
    }
}

/// How good an output is, judged against what the generator knows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Assembly: length-weighted identity of the contigs to the genome.
    /// Graph: Jaccard index of `S` against the chain of adjacent tiles.
    pub accuracy: f64,
    /// Assembly: NG50 over the genome length.  Graph: share of the reads in
    /// the largest contig.
    pub contiguity: f64,
    /// Assembly: adjacent reads of a layout that do not overlap in the
    /// genome.  Graph: `S` edges joining tiles that are not neighbours.
    pub misjoins: u64,
}

/// Judge `output` against the ground truth of `input`.
pub fn quality(input: &Input, output: &Output) -> Quality {
    match input {
        Input::Assembly(a) => {
            let m = evaluate_assembly(
                &output.contigs,
                &output.consensus,
                &a.origins,
                &a.genome,
                &a.config.consensus,
            );
            Quality {
                accuracy: m.mean_identity,
                contiguity: m.ng50 as f64 / m.genome_length as f64,
                misjoins: m.misjoins as u64,
            }
        }
        Input::Graph(g) => {
            let n = g.tile_of.len();
            let s = output.string_matrix.to_triples();
            let kept = s
                .iter()
                .filter(|&(r, c, _)| g.tile_of[r].abs_diff(g.tile_of[c]) == 1)
                .count();
            let expected = 2 * (n - 1);
            let union = s.nnz() + expected - kept;
            let largest = output.contigs.iter().map(Contig::len).max().unwrap_or(0);
            Quality {
                accuracy: kept as f64 / union as f64,
                contiguity: largest as f64 / n as f64,
                misjoins: (s.nnz() - kept) as u64,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_bijection_driven_by_the_seed() {
        for (n, seed) in [(0, 1), (1, 1), (2, 9), (1_000, 7), (1_000, 8)] {
            let perm = permutation(n, seed);
            let mut seen = vec![false; n];
            for &p in &perm {
                assert!(!std::mem::replace(&mut seen[p], true), "{p} appears twice");
            }
            assert_eq!(perm.len(), n);
            assert_eq!(perm, permutation(n, seed), "same seed, same permutation");
        }
        assert_ne!(permutation(1_000, 7), permutation(1_000, 8));
        assert_ne!(permutation(1_000, 7), (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn same_seed_gives_the_same_input() {
        for w in WORKLOADS {
            match (w.generate(5, Scale::Smoke), w.generate(5, Scale::Smoke)) {
                (Input::Assembly(a), Input::Assembly(b)) => {
                    assert_eq!(a.fasta, b.fasta);
                    assert_eq!(a.config, b.config);
                }
                (Input::Graph(a), Input::Graph(b)) => assert_eq!(a.triples, b.triples),
                _ => panic!("{} changed kind between calls", w.name),
            }
        }
    }

    #[test]
    fn graph_quality_counts_wrong_and_missing_edges() {
        let w = find("graph-tiling").unwrap();
        let input = w.generate(3, Scale::Smoke);
        let good = run(&input).unwrap();
        let q = quality(&input, &good);
        assert_eq!((q.accuracy, q.contiguity, q.misjoins), (1.0, 1.0, 0));

        // Leaving R unreduced keeps every skip edge: each is a misjoin.
        let Input::Graph(g) = &input else {
            unreachable!()
        };
        let unreduced = Output {
            string_matrix: DistMat2D::from_triples(ProcessGrid::square_at_most(NPROCS), &g.triples),
            ..good
        };
        let q = quality(&input, &unreduced);
        assert!(q.misjoins > 0 && q.accuracy < 0.2, "{q:?}");
    }
}
