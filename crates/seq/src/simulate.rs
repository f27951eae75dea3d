//! Synthetic genomes, PacBio-CLR-like long reads, and adversarial scenarios.
//!
//! The paper evaluates on real PacBio CLR datasets (Table IV: C. elegans at
//! 40× depth, ~11.2 kb mean read length, 13% error; H. sapiens at 10×,
//! ~7.4 kb, 15% error) which are tens of gigabytes and not redistributable
//! here.  This module provides the substitution documented in DESIGN.md: a
//! genome generator (with controllable repeat content) and a long-read
//! simulator that reproduces the statistics the pipeline's behaviour depends
//! on — depth of coverage `d`, read-length distribution `l`, error rate, and
//! strand symmetry — so the k-mer spectrum, overlap density (`c`, `r` in
//! Table III) and transitive-reduction workload are realistic at reduced scale.
//!
//! Beyond the paper's (well-behaved) datasets, the module also builds the
//! **adversarial scenario suite** (see DESIGN.md "Adversarial scenario
//! suite"): genomes that break assemblers — tandem and interspersed repeats
//! longer than the mean read length, two-strain metagenome mixes with tunable
//! divergence, circular genomes with wrap-around read sampling — and read
//! models that break pipelines — chimeric reads (ground-truth labelled) and
//! skewed length distributions (log-normal, empirical mixture).  Every
//! scenario keeps full ground truth ([`ReadOrigin`], chimera labels,
//! [`Topology`]) so `dibella_strgraph::metrics` can score the assembly
//! honestly, misjoins included.

use crate::dna::{DnaSeq, Strand};
use crate::fasta::{ReadRecord, ReadSet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Parameters of the synthetic genome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenomeConfig {
    /// Genome length in bases.
    pub length: usize,
    /// Fraction of the genome covered by pasted copies of a repeated segment
    /// (0.0 = repeat-free).  Repeats are what make transitive reduction and
    /// string graphs interesting, so the presets keep a modest amount.
    pub repeat_fraction: f64,
    /// Length of each repeated segment.
    pub repeat_length: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenomeConfig {
    fn default() -> Self {
        Self { length: 100_000, repeat_fraction: 0.05, repeat_length: 500, seed: 7 }
    }
}

/// What [`generate_genome_report`] actually achieved for the requested repeat
/// content.  Copies are placed non-overlapping (with each other and with the
/// template segment), so a crowded genome can fall short of the request; the
/// report makes the shortfall visible instead of silent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeatReport {
    /// The repeat fraction the caller asked for.
    pub requested_fraction: f64,
    /// Fraction of the genome actually covered by pasted repeat copies
    /// (the template's original occurrence is not counted).
    pub achieved_fraction: f64,
    /// Number of repeat copies pasted.
    pub copies_placed: usize,
    /// Start of the template segment the copies were taken from.
    pub template_start: usize,
}

/// Generate a random genome with the requested repeat content.
pub fn generate_genome(config: &GenomeConfig) -> DnaSeq {
    generate_genome_report(config).0
}

/// Generate a random genome and report the achieved repeat content.
///
/// Repeat copies are pasted at **non-overlapping** positions: a copy never
/// overwrites the template segment or another copy (earlier versions pasted
/// at uniform random positions, so copies could clobber each other and
/// silently undershoot `repeat_fraction`).  If the genome is too crowded to
/// place every requested copy, placement stops and the report's
/// `achieved_fraction` records what was actually laid down.
pub fn generate_genome_report(config: &GenomeConfig) -> (DnaSeq, RepeatReport) {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut codes: Vec<u8> = (0..config.length).map(|_| rng.gen_range(0..4u8)).collect();

    let mut placed = 0usize;
    let mut template_start = 0usize;
    if config.repeat_fraction > 0.0
        && config.repeat_length > 0
        && config.length > config.repeat_length * 2
    {
        let copies = ((config.length as f64 * config.repeat_fraction)
            / config.repeat_length as f64)
            .round() as usize;
        if copies >= 2 {
            // Pick one template segment; paste copies at rejection-sampled
            // non-overlapping positions.
            template_start = rng.gen_range(0..config.length - config.repeat_length);
            let template: Vec<u8> =
                codes[template_start..template_start + config.repeat_length].to_vec();
            let mut occupied: Vec<(usize, usize)> =
                vec![(template_start, template_start + config.repeat_length)];
            'copies: for _ in 0..copies {
                for _attempt in 0..64 {
                    let dst = rng.gen_range(0..config.length - config.repeat_length);
                    let end = dst + config.repeat_length;
                    if occupied.iter().all(|&(s, e)| end <= s || dst >= e) {
                        codes[dst..end].copy_from_slice(&template);
                        occupied.push((dst, end));
                        placed += 1;
                        continue 'copies;
                    }
                }
                // Genome too crowded for more non-overlapping copies.
                break;
            }
        }
    }
    let report = RepeatReport {
        requested_fraction: config.repeat_fraction,
        achieved_fraction: (placed * config.repeat_length) as f64 / config.length.max(1) as f64,
        copies_placed: placed,
        template_start,
    };
    (DnaSeq::from_codes(codes), report)
}

/// A tandem-repeat trap genome: `copies` consecutive identical copies of a
/// `unit_length`-base unit embedded mid-genome, flanked by unique sequence.
///
/// With `unit_length` larger than the mean read length no single read spans a
/// full unit, so an overlapper sees reads from different units as mutually
/// overlapping — the classic misassembly (collapse/misjoin) trap.
pub fn generate_tandem_repeat_genome(
    length: usize,
    unit_length: usize,
    copies: usize,
    seed: u64,
) -> DnaSeq {
    assert!(copies >= 2, "a tandem array needs at least two copies");
    assert!(
        unit_length * copies < length,
        "tandem array ({} x {}) does not fit in a {} bp genome",
        copies,
        unit_length,
        length
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut codes: Vec<u8> = (0..length).map(|_| rng.gen_range(0..4u8)).collect();
    let array_start = (length - unit_length * copies) / 2;
    let unit: Vec<u8> = codes[array_start..array_start + unit_length].to_vec();
    for i in 1..copies {
        let dst = array_start + i * unit_length;
        codes[dst..dst + unit_length].copy_from_slice(&unit);
    }
    DnaSeq::from_codes(codes)
}

/// Positions of the repeat copies laid down by
/// [`generate_interspersed_repeat_genome`]: evenly strided so copies never
/// overlap and flanks stay unique.  Exposed so tests can build fixtures that
/// know exactly where each copy lives (e.g. the misjoin negative control).
pub fn interspersed_repeat_positions(
    length: usize,
    repeat_length: usize,
    copies: usize,
) -> Vec<usize> {
    assert!(copies >= 2, "interspersed repeats need at least two copies");
    let stride = length / copies;
    assert!(
        repeat_length < stride,
        "repeat length {} leaves no unique sequence at stride {}",
        repeat_length,
        stride
    );
    (0..copies).map(|i| i * stride + (stride - repeat_length) / 2).collect()
}

/// An interspersed-repeat trap genome: `copies` identical copies of one
/// `repeat_length`-base segment at well-separated positions
/// ([`interspersed_repeat_positions`]), unique sequence everywhere else.
///
/// With `repeat_length` larger than the mean read length, reads interior to
/// different copies are indistinguishable, inviting the assembler to join
/// loci that are megabases apart — exactly what the misjoin metric must catch.
pub fn generate_interspersed_repeat_genome(
    length: usize,
    repeat_length: usize,
    copies: usize,
    seed: u64,
) -> DnaSeq {
    let positions = interspersed_repeat_positions(length, repeat_length, copies);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut codes: Vec<u8> = (0..length).map(|_| rng.gen_range(0..4u8)).collect();
    let template: Vec<u8> = codes[positions[0]..positions[0] + repeat_length].to_vec();
    for &pos in &positions[1..] {
        codes[pos..pos + repeat_length].copy_from_slice(&template);
    }
    DnaSeq::from_codes(codes)
}

/// A two-strain metagenome reference: strain A (random, `strain_length`
/// bases) concatenated with strain B, a copy of A whose bases are substituted
/// independently with probability `divergence`.  Substitution-only mutation
/// keeps the two strains' coordinates aligned, so `A`-reads occupy
/// `[0, strain_length)` and `B`-reads `[strain_length, 2·strain_length)` in
/// the shared reference frame.
///
/// Low divergence is the trap: reads from homologous loci of the two strains
/// align well enough to overlap, but their true intervals are disjoint, so a
/// strain-collapsing assembler produces misjoins and depressed identity.
pub fn generate_diverged_pair(strain_length: usize, divergence: f64, seed: u64) -> DnaSeq {
    assert!((0.0..=1.0).contains(&divergence), "divergence must be a probability");
    let mut rng = SmallRng::seed_from_u64(seed);
    let a: Vec<u8> = (0..strain_length).map(|_| rng.gen_range(0..4u8)).collect();
    let mut codes = a.clone();
    codes.extend(a.iter().map(|&c| {
        if divergence > 0.0 && rng.gen_bool(divergence) {
            (c + rng.gen_range(1..4u8)) % 4
        } else {
            c
        }
    }));
    DnaSeq::from_codes(codes)
}

/// Topology of the reference replicon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Topology {
    /// A linear chromosome: coordinates are plain intervals.
    #[default]
    Linear,
    /// A circular replicon (plasmid, bacterial chromosome): positions are
    /// modulo the genome length and reads may wrap around the origin.
    Circular,
}

/// Slice `span` bases starting at `start`, wrapping around the end of the
/// sequence — the read-sampling primitive for [`Topology::Circular`] genomes
/// and the region extractor for origin-crossing contigs.
pub fn circular_slice(genome: &DnaSeq, start: usize, span: usize) -> DnaSeq {
    let len = genome.len();
    assert!(len > 0, "cannot slice an empty genome circularly");
    let mut codes = Vec::with_capacity(span);
    let mut pos = start % len;
    let mut remaining = span;
    while remaining > 0 {
        let take = remaining.min(len - pos);
        codes.extend_from_slice(&genome.codes()[pos..pos + take]);
        pos = (pos + take) % len;
        remaining -= take;
    }
    DnaSeq::from_codes(codes)
}

/// Read-length distribution family used by the simulator.
///
/// Real long-read runs are not Gaussian: CLR/ONT length histograms are
/// right-skewed with a short-fragment shoulder and a long tail.  The mean and
/// standard deviation of [`ReadSimConfig`] parameterise every family, so
/// swapping the model stresses the pipeline's length assumptions without
/// changing the target depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LengthModel {
    /// Clamped normal distribution (the original model).
    #[default]
    Gaussian,
    /// Log-normal with matching mean and standard deviation — right-skewed,
    /// median below the mean, like a clean single-mode long-read run.
    LogNormal,
    /// A three-mode empirical mixture mimicking real runs: a short-fragment
    /// shoulder (15% of reads at mean/4), the dominant mode (75% at the
    /// mean), and a long tail (10% at 2.5× the mean), each log-normal.
    EmpiricalMixture,
}

/// Parameters of the long-read simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadSimConfig {
    /// Target depth of coverage `d` (mean number of reads covering a base).
    pub depth: f64,
    /// Mean read length `l` in bases.
    pub mean_read_length: usize,
    /// Minimum read length (reads shorter than this are discarded).
    pub min_read_length: usize,
    /// Standard deviation of the read length distribution.
    pub read_length_sd: usize,
    /// Per-base error probability (substitutions + indels combined).
    pub error_rate: f64,
    /// RNG seed.
    pub seed: u64,
    /// Which read-length distribution family to draw from.
    pub length_model: LengthModel,
    /// Probability that a read is a chimera: two segments from unrelated loci
    /// joined end to end (a library-prep artefact).  Chimeric reads are
    /// ground-truth labelled so evaluation can tell "assembler misjoin" from
    /// "chimera propagated".
    pub chimera_rate: f64,
}

impl Default for ReadSimConfig {
    fn default() -> Self {
        Self {
            depth: 20.0,
            mean_read_length: 8_000,
            min_read_length: 1_000,
            read_length_sd: 2_000,
            error_rate: 0.14,
            seed: 13,
            length_model: LengthModel::Gaussian,
            chimera_rate: 0.0,
        }
    }
}

/// Where a simulated read came from on the reference genome (ground truth for
/// validating overlaps and string graphs).
///
/// On a [`Topology::Circular`] genome, `start` is always reduced modulo the
/// genome length and `start + span` may exceed it: the read wraps around the
/// origin.  The `*_in` methods interpret coordinates under a given topology;
/// the plain [`ReadOrigin::overlap_with`]/[`ReadOrigin::contains`] are the
/// linear specialisations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOrigin {
    /// Start position on the forward strand of the genome.
    pub start: usize,
    /// Number of genome bases covered by the read (before errors).  For a
    /// chimeric read this covers only the leading segment — the rest of the
    /// read is unmapped by construction.
    pub span: usize,
    /// Which strand the read was sampled from.
    pub strand: Strand,
}

impl ReadOrigin {
    /// End position (exclusive) on the forward strand.  May exceed the genome
    /// length for wrap-around reads on circular genomes.
    pub fn end(&self) -> usize {
        self.start + self.span
    }

    /// Length of overlap between the genomic intervals of two reads
    /// (linear-topology interpretation).
    pub fn overlap_with(&self, other: &ReadOrigin) -> usize {
        let start = self.start.max(other.start);
        let end = self.end().min(other.end());
        end.saturating_sub(start)
    }

    /// Whether this read's interval fully contains the other's
    /// (linear-topology interpretation).
    pub fn contains(&self, other: &ReadOrigin) -> bool {
        self.start <= other.start && other.end() <= self.end()
    }

    /// Length of overlap between two reads' genomic footprints under the
    /// given topology.  On a circular genome both arcs may wrap the origin;
    /// the overlap is the length of the arc intersection.
    pub fn overlap_with_in(&self, other: &ReadOrigin, topology: Topology, genome_len: usize) -> usize {
        match topology {
            Topology::Linear => self.overlap_with(other),
            Topology::Circular => {
                if genome_len == 0 {
                    return 0;
                }
                let s = self.span.min(genome_len);
                let t = other.span.min(genome_len);
                // Rotate so self covers [0, s); other covers [o, o+t) (mod len).
                let o = (other.start % genome_len + genome_len - self.start % genome_len)
                    % genome_len;
                let direct = (o + t).min(genome_len).min(s).saturating_sub(o);
                let wrapped = (o + t).saturating_sub(genome_len).min(s);
                direct + wrapped
            }
        }
    }

    /// Whether this read's genomic footprint fully contains the other's under
    /// the given topology.
    pub fn contains_in(&self, other: &ReadOrigin, topology: Topology, genome_len: usize) -> bool {
        match topology {
            Topology::Linear => self.contains(other),
            Topology::Circular => {
                if genome_len == 0 {
                    return false;
                }
                let s = self.span.min(genome_len);
                if s == genome_len {
                    return true;
                }
                let t = other.span.min(genome_len);
                let o = (other.start % genome_len + genome_len - self.start % genome_len)
                    % genome_len;
                o + t <= s
            }
        }
    }
}

/// A complete simulated dataset: the reference, the reads, their origins and
/// the configuration that produced them.
#[derive(Debug, Clone)]
pub struct SimulatedDataset {
    /// Human-readable dataset label (e.g. "C. elegans (scaled)").
    pub label: String,
    /// The reference genome the reads were sampled from.
    pub genome: DnaSeq,
    /// The simulated reads.
    pub reads: ReadSet,
    /// Ground-truth origin of every read (same indexing as `reads`).
    pub origins: Vec<ReadOrigin>,
    /// Ground-truth chimera label per read (same indexing as `reads`).
    pub chimeric: Vec<bool>,
    /// Topology of the reference replicon.
    pub topology: Topology,
    /// The read-simulation parameters used.
    pub config: ReadSimConfig,
}

impl SimulatedDataset {
    /// Achieved depth of coverage (total read bases / genome length).
    pub fn achieved_depth(&self) -> f64 {
        self.reads.total_bases() as f64 / self.genome.len() as f64
    }

    /// Number of reads.
    pub fn num_reads(&self) -> usize {
        self.reads.len()
    }

    /// Number of ground-truth chimeric reads.
    pub fn num_chimeric(&self) -> usize {
        self.chimeric.iter().filter(|&&c| c).count()
    }

    /// Mean read length.
    pub fn mean_read_length(&self) -> f64 {
        self.reads.mean_read_length()
    }

    /// Ground-truth overlap length (in genome bases) between two reads, or 0.
    /// Respects the dataset's [`Topology`], so wrap-around reads on circular
    /// genomes overlap across the origin.
    pub fn true_overlap(&self, i: usize, j: usize) -> usize {
        self.origins[i].overlap_with_in(&self.origins[j], self.topology, self.genome.len())
    }

    /// The ground-truth overlap pairs: every `(i, j)` with `i < j` whose
    /// [`SimulatedDataset::true_overlap`] is at least `min_overlap` bases, so
    /// origin-crossing pairs of a circular genome are included.
    pub fn true_pairs(&self, min_overlap: usize) -> BTreeSet<(usize, usize)> {
        let n = self.num_reads();
        (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|&(i, j)| self.true_overlap(i, j) >= min_overlap)
            .collect()
    }

    /// Input size in megabytes of FASTA text (roughly; one byte per base).
    pub fn input_size_mb(&self) -> f64 {
        self.reads.total_bases() as f64 / 1.0e6
    }
}

/// Sample reads from `genome` according to `config` (linear topology).
///
/// Chimera labels are discarded; use [`simulate_reads_with`] when
/// `config.chimera_rate > 0` or the genome is circular.
pub fn simulate_reads(genome: &DnaSeq, config: &ReadSimConfig) -> (ReadSet, Vec<ReadOrigin>) {
    let (reads, origins, _chimeric) = simulate_reads_with(genome, config, Topology::Linear);
    (reads, origins)
}

/// Sample reads from `genome` under the given topology, returning the reads,
/// their ground-truth origins, and a per-read chimera label.
///
/// On [`Topology::Circular`] genomes, reads may start anywhere and wrap
/// around the origin (their origin `end()` exceeds the genome length).  With
/// `config.chimera_rate > 0`, a read is (with that probability) the join of
/// two segments from unrelated loci; its origin covers only the leading
/// segment and its label is `true`.
pub fn simulate_reads_with(
    genome: &DnaSeq,
    config: &ReadSimConfig,
    topology: Topology,
) -> (ReadSet, Vec<ReadOrigin>, Vec<bool>) {
    assert!(genome.len() > config.min_read_length, "genome shorter than the minimum read length");
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let target_bases = (genome.len() as f64 * config.depth) as usize;
    let mut reads = ReadSet::new();
    let mut origins = Vec::new();
    let mut chimeric_flags = Vec::new();
    let mut sampled_bases = 0usize;
    let mut read_id = 0usize;

    while sampled_bases < target_bases {
        let len = sample_length(&mut rng, config, genome.len());
        let start = sample_start(&mut rng, genome.len(), len, topology);
        let strand = if rng.gen_bool(0.5) { Strand::Forward } else { Strand::Reverse };
        let chimeric = config.chimera_rate > 0.0 && rng.gen_bool(config.chimera_rate);
        let (template, origin) = if chimeric {
            // Join a leading segment with a segment from an unrelated locus.
            let split = rng.gen_range(len / 4..=len * 3 / 4).max(1).min(len - 1);
            let lead = extract(genome, start, split, topology).oriented(strand);
            let tail_start = sample_start(&mut rng, genome.len(), len - split, topology);
            let tail_strand = if rng.gen_bool(0.5) { Strand::Forward } else { Strand::Reverse };
            let tail = extract(genome, tail_start, len - split, topology).oriented(tail_strand);
            (lead.concat(&tail), ReadOrigin { start, span: split, strand })
        } else {
            (
                extract(genome, start, len, topology).oriented(strand),
                ReadOrigin { start, span: len, strand },
            )
        };
        let seq = apply_errors(&template, config.error_rate, &mut rng);
        sampled_bases += len;
        reads.push(ReadRecord { name: format!("read{read_id:06}"), seq });
        origins.push(origin);
        chimeric_flags.push(chimeric);
        read_id += 1;
    }
    (reads, origins, chimeric_flags)
}

/// Draw a read start position valid for the topology.
fn sample_start(rng: &mut SmallRng, genome_len: usize, len: usize, topology: Topology) -> usize {
    match topology {
        Topology::Linear => rng.gen_range(0..=genome_len - len),
        Topology::Circular => rng.gen_range(0..genome_len),
    }
}

/// Extract the genome bases a read covers (wrapping on circular genomes).
fn extract(genome: &DnaSeq, start: usize, span: usize, topology: Topology) -> DnaSeq {
    match topology {
        Topology::Linear => genome.slice(start, start + span),
        Topology::Circular => circular_slice(genome, start, span),
    }
}

fn sample_length(rng: &mut SmallRng, config: &ReadSimConfig, genome_len: usize) -> usize {
    let mean = config.mean_read_length as f64;
    let sd = config.read_length_sd as f64;
    let len = match config.length_model {
        LengthModel::Gaussian => mean + normal_sample(rng) * sd,
        LengthModel::LogNormal => lognormal_sample(rng, mean, sd),
        LengthModel::EmpiricalMixture => {
            // Short-fragment shoulder, dominant mode, long tail.
            let u: f64 = rng.gen();
            let (m, s) = if u < 0.15 {
                (mean / 4.0, sd / 4.0)
            } else if u < 0.90 {
                (mean, sd)
            } else {
                (mean * 2.5, sd)
            };
            lognormal_sample(rng, m, s)
        }
    };
    (len.round() as isize)
        .clamp(config.min_read_length as isize, genome_len as isize) as usize
}

/// One standard-normal sample via Box–Muller.
fn normal_sample(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A log-normal sample whose distribution has the given mean and standard
/// deviation (moment-matched: `sigma² = ln(1 + s²/m²)`, `mu = ln m - sigma²/2`).
fn lognormal_sample(rng: &mut SmallRng, mean: f64, sd: f64) -> f64 {
    let sigma2 = (1.0 + (sd * sd) / (mean * mean)).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    (mu + sigma2.sqrt() * normal_sample(rng)).exp()
}

/// Apply a PacBio-CLR-like error model: at each template position an error
/// occurs with probability `error_rate`; errors are 40% substitutions, 40%
/// insertions and 20% deletions (CLR error profiles are indel-dominated).
pub fn apply_errors(template: &DnaSeq, error_rate: f64, rng: &mut SmallRng) -> DnaSeq {
    if error_rate <= 0.0 {
        return template.clone();
    }
    let mut out = DnaSeq::new();
    for i in 0..template.len() {
        let base = template.code(i);
        if rng.gen_bool(error_rate) {
            let kind: f64 = rng.gen();
            if kind < 0.4 {
                // Substitution with a different base.
                let sub = (base + rng.gen_range(1..4u8)) % 4;
                out.push_code(sub);
            } else if kind < 0.8 {
                // Insertion: emit a random base, then the true base.
                out.push_code(rng.gen_range(0..4u8));
                out.push_code(base);
            } else {
                // Deletion: skip the true base.
            }
        } else {
            out.push_code(base);
        }
    }
    out
}

/// The adversarial assembly scenarios (see DESIGN.md "Adversarial scenario
/// suite").  Each kind names a genome/read-model combination designed to
/// defeat a specific assumption the happy-path pipeline gets away with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Unique-sequence genome, narrow Gaussian reads — the solved game every
    /// other scenario is compared against.
    Baseline,
    /// Tandem array of identical units longer than the mean read length.
    TandemRepeat,
    /// Identical repeat copies at well-separated loci, each longer than the
    /// mean read length.
    InterspersedRepeat,
    /// Baseline genome read with chimeric (split) reads and a log-normal
    /// length distribution.
    ChimericReads,
    /// Two-strain metagenome mix with tunable divergence and an
    /// empirical-mixture length distribution.
    MetagenomeMix,
    /// Circular genome with wrap-around read sampling.
    CircularGenome,
}

impl ScenarioKind {
    /// All scenarios, in matrix order.
    pub const ALL: [ScenarioKind; 6] = [
        ScenarioKind::Baseline,
        ScenarioKind::TandemRepeat,
        ScenarioKind::InterspersedRepeat,
        ScenarioKind::ChimericReads,
        ScenarioKind::MetagenomeMix,
        ScenarioKind::CircularGenome,
    ];

    /// Stable machine-readable label (used in the scenario matrix JSON).
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioKind::Baseline => "baseline",
            ScenarioKind::TandemRepeat => "tandem-repeat",
            ScenarioKind::InterspersedRepeat => "interspersed-repeat",
            ScenarioKind::ChimericReads => "chimeric-reads",
            ScenarioKind::MetagenomeMix => "metagenome-mix",
            ScenarioKind::CircularGenome => "circular-genome",
        }
    }
}

/// Tunable knobs of the scenario builder.  `Default` gives the bench-scale
/// preset; tests shrink `genome_length`/`mean_read_length` for speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioParams {
    /// Genome length in bases (per strain for [`ScenarioKind::MetagenomeMix`],
    /// whose reference is twice this long).
    pub genome_length: usize,
    /// Target depth of coverage (per strain for the metagenome mix).
    pub depth: f64,
    /// Mean read length; repeat traps size their repeat unit at twice this so
    /// no single read spans a repeat copy.
    pub mean_read_length: usize,
    /// Per-base sequencing error rate.
    pub error_rate: f64,
    /// RNG seed (genome and reads derive distinct streams from it).
    pub seed: u64,
    /// Number of repeat copies in the tandem/interspersed traps.
    pub repeat_copies: usize,
    /// Per-base divergence between the two metagenome strains.
    pub divergence: f64,
    /// Chimera probability for [`ScenarioKind::ChimericReads`].
    pub chimera_rate: f64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        Self {
            genome_length: 15_000,
            depth: 15.0,
            mean_read_length: 1_200,
            error_rate: 0.05,
            seed: 77,
            repeat_copies: 3,
            divergence: 0.03,
            chimera_rate: 0.08,
        }
    }
}

/// Build the simulated dataset for one adversarial scenario.
pub fn build_scenario(kind: ScenarioKind, p: &ScenarioParams) -> SimulatedDataset {
    let mean = p.mean_read_length;
    let base_read = ReadSimConfig {
        depth: p.depth,
        mean_read_length: mean,
        min_read_length: (mean * 3 / 4).max(100),
        read_length_sd: (mean / 12).max(20),
        error_rate: p.error_rate,
        seed: p.seed.wrapping_add(1),
        length_model: LengthModel::Gaussian,
        chimera_rate: 0.0,
    };
    let unique_genome = |seed: u64| {
        generate_genome(&GenomeConfig {
            length: p.genome_length,
            repeat_fraction: 0.02,
            repeat_length: (mean / 4).max(100),
            seed,
        })
    };
    match kind {
        ScenarioKind::Baseline => {
            finish(kind, unique_genome(p.seed), base_read, Topology::Linear)
        }
        ScenarioKind::TandemRepeat => {
            let genome =
                generate_tandem_repeat_genome(p.genome_length, 2 * mean, p.repeat_copies, p.seed);
            finish(kind, genome, base_read, Topology::Linear)
        }
        ScenarioKind::InterspersedRepeat => {
            let genome = generate_interspersed_repeat_genome(
                p.genome_length,
                2 * mean,
                p.repeat_copies,
                p.seed,
            );
            finish(kind, genome, base_read, Topology::Linear)
        }
        ScenarioKind::ChimericReads => {
            let config = ReadSimConfig {
                length_model: LengthModel::LogNormal,
                chimera_rate: p.chimera_rate,
                ..base_read
            };
            finish(kind, unique_genome(p.seed), config, Topology::Linear)
        }
        ScenarioKind::MetagenomeMix => {
            let genome = generate_diverged_pair(p.genome_length, p.divergence, p.seed);
            let strain_len = p.genome_length;
            let config = ReadSimConfig {
                length_model: LengthModel::EmpiricalMixture,
                min_read_length: (mean / 3).max(100),
                ..base_read
            };
            let strain_a = genome.slice(0, strain_len);
            let strain_b = genome.slice(strain_len, 2 * strain_len);
            let (reads_a, origins_a, chim_a) =
                simulate_reads_with(&strain_a, &config, Topology::Linear);
            let config_b = ReadSimConfig { seed: config.seed.wrapping_add(1), ..config };
            let (reads_b, origins_b, chim_b) =
                simulate_reads_with(&strain_b, &config_b, Topology::Linear);
            // Merge: strain-B origins shift into the concatenated frame, and
            // reads are renumbered so names stay unique.
            let mut reads = ReadSet::new();
            let mut origins = Vec::new();
            let mut chimeric = Vec::new();
            for (set, origin_set, chim, offset) in [
                (&reads_a, &origins_a, &chim_a, 0usize),
                (&reads_b, &origins_b, &chim_b, strain_len),
            ] {
                for (i, rec) in set.iter() {
                    let id = reads.len();
                    reads.push(ReadRecord { name: format!("read{id:06}"), seq: rec.seq.clone() });
                    origins.push(ReadOrigin { start: origin_set[i].start + offset, ..origin_set[i] });
                    chimeric.push(chim[i]);
                }
            }
            SimulatedDataset {
                label: kind.label().to_string(),
                genome,
                reads,
                origins,
                chimeric,
                topology: Topology::Linear,
                config,
            }
        }
        ScenarioKind::CircularGenome => {
            finish(kind, unique_genome(p.seed), base_read, Topology::Circular)
        }
    }
}

fn finish(
    kind: ScenarioKind,
    genome: DnaSeq,
    config: ReadSimConfig,
    topology: Topology,
) -> SimulatedDataset {
    let (reads, origins, chimeric) = simulate_reads_with(&genome, &config, topology);
    SimulatedDataset {
        label: kind.label().to_string(),
        genome,
        reads,
        origins,
        chimeric,
        topology,
        config,
    }
}

/// Named dataset presets mirroring Table IV of the paper, scaled down so they
/// run on one machine.  The `scale` argument multiplies the genome size; the
/// depth, read length and error rate match the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetSpec {
    /// E. coli–like: 30× depth, ~9 kb reads, 13% error (Table III row 1).
    EColiLike,
    /// C. elegans–like: 40× depth, ~11.2 kb reads, 13% error (Table IV row 1).
    CElegansLike,
    /// H. sapiens–like: 10× depth, ~7.4 kb reads, 15% error (Table IV row 2).
    HSapiensLike,
    /// A small benchmark dataset: big enough that kernel differences are
    /// measurable, small enough for CI smoke benches (used by the spgemm
    /// bench that produces `BENCH_spgemm.json`).
    Small,
    /// A tiny smoke-test dataset for unit and integration tests.
    Tiny,
}

impl DatasetSpec {
    /// Human-readable label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetSpec::EColiLike => "E. coli (scaled)",
            DatasetSpec::CElegansLike => "C. elegans (scaled)",
            DatasetSpec::HSapiensLike => "H. sapiens (scaled)",
            DatasetSpec::Small => "small (bench)",
            DatasetSpec::Tiny => "tiny",
        }
    }

    /// Paper values: depth of coverage.
    pub fn depth(&self) -> f64 {
        match self {
            DatasetSpec::EColiLike => 30.0,
            DatasetSpec::CElegansLike => 40.0,
            DatasetSpec::HSapiensLike => 10.0,
            DatasetSpec::Small => 25.0,
            DatasetSpec::Tiny => 12.0,
        }
    }

    /// Paper values: mean read length (bases).
    pub fn mean_read_length(&self) -> usize {
        match self {
            DatasetSpec::EColiLike => 9_000,
            DatasetSpec::CElegansLike => 11_241,
            DatasetSpec::HSapiensLike => 7_401,
            DatasetSpec::Small => 1_000,
            DatasetSpec::Tiny => 600,
        }
    }

    /// Paper values: per-base error rate.
    pub fn error_rate(&self) -> f64 {
        match self {
            DatasetSpec::EColiLike => 0.13,
            DatasetSpec::CElegansLike => 0.13,
            DatasetSpec::HSapiensLike => 0.15,
            DatasetSpec::Small => 0.10,
            DatasetSpec::Tiny => 0.05,
        }
    }

    /// Default scaled genome length in bases used by the harnesses.
    ///
    /// Sizes chosen so that the dominant cost (pairwise alignment, roughly
    /// genome length × depth² × band cells) keeps every harness within a few
    /// minutes on one core while the higher-depth datasets stay the harder
    /// ones.
    pub fn default_genome_length(&self) -> usize {
        match self {
            DatasetSpec::EColiLike => 60_000,
            DatasetSpec::CElegansLike => 50_000,
            DatasetSpec::HSapiensLike => 150_000,
            DatasetSpec::Small => 60_000,
            DatasetSpec::Tiny => 4_000,
        }
    }

    /// Generate the dataset at a specific genome length.
    pub fn generate_with_length(&self, genome_length: usize, seed: u64) -> SimulatedDataset {
        let mean_len = self.mean_read_length().min(genome_length / 4).max(200);
        let genome_config = GenomeConfig {
            length: genome_length,
            repeat_fraction: 0.05,
            repeat_length: (mean_len / 4).max(100),
            seed,
        };
        let genome = generate_genome(&genome_config);
        let config = ReadSimConfig {
            depth: self.depth(),
            mean_read_length: mean_len,
            min_read_length: (mean_len / 4).max(100),
            read_length_sd: mean_len / 4,
            error_rate: self.error_rate(),
            seed: seed.wrapping_add(1),
            ..ReadSimConfig::default()
        };
        let (reads, origins, chimeric) = simulate_reads_with(&genome, &config, Topology::Linear);
        SimulatedDataset {
            label: self.label().to_string(),
            genome,
            reads,
            origins,
            chimeric,
            topology: Topology::Linear,
            config,
        }
    }

    /// Generate the dataset at its default scaled size.
    pub fn generate(&self, seed: u64) -> SimulatedDataset {
        self.generate_with_length(self.default_genome_length(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genome_has_requested_length_and_is_deterministic() {
        let cfg = GenomeConfig { length: 5000, ..Default::default() };
        let g1 = generate_genome(&cfg);
        let g2 = generate_genome(&cfg);
        assert_eq!(g1.len(), 5000);
        assert_eq!(g1, g2);
        let g3 = generate_genome(&GenomeConfig { seed: 99, ..cfg });
        assert_ne!(g1, g3);
    }

    #[test]
    fn genome_repeats_produce_duplicate_segments() {
        let cfg = GenomeConfig {
            length: 20_000,
            repeat_fraction: 0.2,
            repeat_length: 400,
            seed: 3,
        };
        let g = generate_genome(&cfg);
        // Find at least two identical 100-base windows (sub-windows of the
        // pasted repeat template); a repeat-free random genome of this size has
        // a negligible chance of containing one.
        let ascii = g.to_ascii();
        let bytes = ascii.as_bytes();
        let mut seen = std::collections::HashSet::new();
        let mut found_dup = false;
        for start in 0..=bytes.len() - 100 {
            if !seen.insert(&bytes[start..start + 100]) {
                found_dup = true;
                break;
            }
        }
        assert!(found_dup, "expected repeated segments in a 20% repeat genome");
    }

    #[test]
    fn achieved_repeat_fraction_is_within_tolerance_of_the_request() {
        // Non-overlapping placement must actually deliver the requested
        // repeat content (the old uniform pasting could overwrite copies and
        // silently undershoot).
        for (frac, seed) in [(0.1, 1u64), (0.2, 2), (0.3, 3)] {
            let cfg = GenomeConfig {
                length: 50_000,
                repeat_fraction: frac,
                repeat_length: 500,
                seed,
            };
            let (genome, report) = generate_genome_report(&cfg);
            assert_eq!(genome.len(), 50_000);
            assert!(
                (report.achieved_fraction - frac).abs() <= 0.02,
                "requested {frac}, achieved {} ({} copies)",
                report.achieved_fraction,
                report.copies_placed
            );
            // And the copies really are intact duplicates of the template.
            let template = genome.slice(report.template_start, report.template_start + 500);
            let ascii = genome.to_ascii();
            let occurrences = ascii.matches(&template.to_ascii()).count();
            assert_eq!(
                occurrences,
                report.copies_placed + 1,
                "every placed copy must survive as an exact duplicate"
            );
        }
    }

    #[test]
    fn tandem_repeat_genome_contains_the_array() {
        let g = generate_tandem_repeat_genome(12_000, 2_000, 3, 9);
        assert_eq!(g.len(), 12_000);
        let array_start = (12_000 - 2_000 * 3) / 2;
        let unit = g.slice(array_start, array_start + 2_000);
        for i in 1..3 {
            let copy = g.slice(array_start + i * 2_000, array_start + (i + 1) * 2_000);
            assert_eq!(copy, unit, "tandem copy {i} must be identical to the unit");
        }
        // The flanks are unique sequence, not more copies.
        assert_ne!(g.slice(0, 2_000), unit);
    }

    #[test]
    fn interspersed_repeat_genome_places_identical_nonoverlapping_copies() {
        let positions = interspersed_repeat_positions(15_000, 2_400, 3);
        assert_eq!(positions.len(), 3);
        for pair in positions.windows(2) {
            assert!(pair[0] + 2_400 <= pair[1], "copies must not overlap: {positions:?}");
        }
        let g = generate_interspersed_repeat_genome(15_000, 2_400, 3, 4);
        let template = g.slice(positions[0], positions[0] + 2_400);
        for &pos in &positions[1..] {
            assert_eq!(g.slice(pos, pos + 2_400), template);
        }
    }

    #[test]
    fn diverged_pair_has_the_requested_divergence() {
        let strain_len = 20_000;
        let g = generate_diverged_pair(strain_len, 0.05, 12);
        assert_eq!(g.len(), 2 * strain_len);
        let diffs = (0..strain_len)
            .filter(|&i| g.code(i) != g.code(i + strain_len))
            .count();
        let rate = diffs as f64 / strain_len as f64;
        assert!((rate - 0.05).abs() < 0.01, "observed divergence {rate}");
        // Zero divergence is an exact copy.
        let same = generate_diverged_pair(1_000, 0.0, 12);
        assert_eq!(same.slice(0, 1_000), same.slice(1_000, 2_000));
    }

    #[test]
    fn circular_slice_wraps_around_the_origin() {
        let g: DnaSeq = "ACGTACGTAC".parse().unwrap();
        assert_eq!(circular_slice(&g, 0, 4).to_ascii(), "ACGT");
        assert_eq!(circular_slice(&g, 8, 4).to_ascii(), "ACAC");
        assert_eq!(circular_slice(&g, 10, 3).to_ascii(), "ACG");
        // Spans longer than the genome keep wrapping.
        assert_eq!(circular_slice(&g, 6, 12).to_ascii(), "GTACACGTACGT");
    }

    #[test]
    fn simulated_depth_is_close_to_target() {
        let genome = generate_genome(&GenomeConfig { length: 50_000, ..Default::default() });
        let config = ReadSimConfig {
            depth: 15.0,
            mean_read_length: 2_000,
            min_read_length: 500,
            read_length_sd: 400,
            error_rate: 0.0,
            seed: 5,
            ..ReadSimConfig::default()
        };
        let (reads, origins) = simulate_reads(&genome, &config);
        assert_eq!(reads.len(), origins.len());
        let depth = reads.total_bases() as f64 / genome.len() as f64;
        assert!(
            (depth - 15.0).abs() < 2.0,
            "achieved depth {depth} too far from target 15"
        );
    }

    #[test]
    fn error_free_reads_match_the_reference() {
        let genome = generate_genome(&GenomeConfig { length: 20_000, ..Default::default() });
        let config = ReadSimConfig {
            depth: 3.0,
            mean_read_length: 1_000,
            min_read_length: 300,
            read_length_sd: 200,
            error_rate: 0.0,
            seed: 11,
            ..ReadSimConfig::default()
        };
        let (reads, origins) = simulate_reads(&genome, &config);
        for (i, origin) in origins.iter().enumerate() {
            let expected = genome.slice(origin.start, origin.end()).oriented(origin.strand);
            assert_eq!(reads.seq(i), &expected, "read {i} does not match its origin");
        }
    }

    #[test]
    fn errors_change_the_sequence_but_keep_length_similar() {
        let genome = generate_genome(&GenomeConfig { length: 30_000, ..Default::default() });
        let mut rng = SmallRng::seed_from_u64(2);
        let template = genome.slice(0, 5_000);
        let erroneous = apply_errors(&template, 0.15, &mut rng);
        assert_ne!(erroneous, template);
        let ratio = erroneous.len() as f64 / template.len() as f64;
        // Insertions slightly outnumber deletions, so expect length within 10%.
        assert!(ratio > 0.9 && ratio < 1.15, "length ratio {ratio} out of range");
    }

    #[test]
    fn zero_error_rate_is_identity() {
        let mut rng = SmallRng::seed_from_u64(4);
        let template: DnaSeq = "ACGTACGTACGT".parse().unwrap();
        assert_eq!(apply_errors(&template, 0.0, &mut rng), template);
    }

    #[test]
    fn read_origin_overlap_and_containment() {
        let a = ReadOrigin { start: 100, span: 500, strand: Strand::Forward };
        let b = ReadOrigin { start: 400, span: 500, strand: Strand::Reverse };
        let c = ReadOrigin { start: 150, span: 100, strand: Strand::Forward };
        assert_eq!(a.overlap_with(&b), 200);
        assert_eq!(b.overlap_with(&a), 200);
        assert_eq!(a.overlap_with(&c), 100);
        assert!(a.contains(&c));
        assert!(!c.contains(&a));
        let far = ReadOrigin { start: 10_000, span: 100, strand: Strand::Forward };
        assert_eq!(a.overlap_with(&far), 0);
    }

    #[test]
    fn circular_overlap_crosses_the_origin_and_is_symmetric() {
        let len = 1_000;
        // a wraps: covers [900, 1000) + [0, 100); b covers [50, 250).
        let a = ReadOrigin { start: 900, span: 200, strand: Strand::Forward };
        let b = ReadOrigin { start: 50, span: 200, strand: Strand::Reverse };
        assert_eq!(a.overlap_with_in(&b, Topology::Circular, len), 50);
        assert_eq!(b.overlap_with_in(&a, Topology::Circular, len), 50);
        // Linear interpretation sees no overlap at all — the trap this fixes.
        assert_eq!(a.overlap_with(&b), 0);
        // Linear topology through the _in API matches the plain method.
        assert_eq!(a.overlap_with_in(&b, Topology::Linear, len), 0);
        // Containment across the origin: `inner` lies wholly past the wrap,
        // where the linear interpretation cannot place it inside `a`.
        let inner = ReadOrigin { start: 10, span: 50, strand: Strand::Forward };
        assert!(a.contains_in(&inner, Topology::Circular, len));
        assert!(!inner.contains_in(&a, Topology::Circular, len));
        assert!(!a.contains(&inner), "linear containment cannot see the wrap");
        // A straddling segment is contained too.
        let straddle = ReadOrigin { start: 950, span: 100, strand: Strand::Forward };
        assert!(a.contains_in(&straddle, Topology::Circular, len));
        // A full-circle read contains everything.
        let whole = ReadOrigin { start: 123, span: len, strand: Strand::Forward };
        assert!(whole.contains_in(&a, Topology::Circular, len));
        assert_eq!(whole.overlap_with_in(&a, Topology::Circular, len), 200);
    }

    #[test]
    fn true_overlap_is_symmetric_and_agrees_with_read_origin() {
        // Includes reverse-strand and contained reads: the overlap is a
        // property of the genomic interval, not the strand.
        let ds = DatasetSpec::Tiny.generate(77);
        assert!(ds.origins.iter().any(|o| o.strand == Strand::Reverse));
        let contained = ds
            .origins
            .iter()
            .enumerate()
            .any(|(i, a)| ds.origins.iter().enumerate().any(|(j, b)| i != j && a.contains(b)));
        assert!(contained, "expected at least one contained read in a 12x dataset");
        for i in 0..ds.num_reads() {
            for j in 0..ds.num_reads() {
                assert_eq!(ds.true_overlap(i, j), ds.true_overlap(j, i), "asymmetric at ({i},{j})");
                assert_eq!(
                    ds.true_overlap(i, j),
                    ds.origins[i].overlap_with(&ds.origins[j]),
                    "dataset and origin disagree at ({i},{j})"
                );
                if ds.origins[i].contains(&ds.origins[j]) {
                    assert_eq!(ds.true_overlap(i, j), ds.origins[j].span);
                }
            }
        }
    }

    #[test]
    fn true_pairs_are_the_upper_triangle_of_the_circular_overlap_filter() {
        let params =
            ScenarioParams { genome_length: 6_000, mean_read_length: 800, ..Default::default() };
        let ds = build_scenario(ScenarioKind::CircularGenome, &params);
        let min_overlap = 100;
        let pairs = ds.true_pairs(min_overlap);
        assert!(pairs.iter().all(|&(i, j)| i < j));
        let n = ds.num_reads();
        let filtered: BTreeSet<(usize, usize)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i < j && ds.true_overlap(i, j) >= min_overlap)
            .collect();
        assert_eq!(pairs, filtered);
        // A pair that overlaps only across the origin: the linear reading
        // of the same coordinates sees too little of it.
        assert!(
            pairs
                .iter()
                .any(|&(i, j)| ds.origins[i].overlap_with(&ds.origins[j]) < min_overlap),
            "no origin-crossing pair among {} true pairs",
            pairs.len()
        );
    }

    #[test]
    fn circular_sampling_produces_wrapping_reads_that_match_the_genome() {
        let genome = generate_genome(&GenomeConfig { length: 6_000, ..Default::default() });
        let config = ReadSimConfig {
            depth: 10.0,
            mean_read_length: 800,
            min_read_length: 400,
            read_length_sd: 100,
            error_rate: 0.0,
            seed: 21,
            ..ReadSimConfig::default()
        };
        let (reads, origins, chimeric) = simulate_reads_with(&genome, &config, Topology::Circular);
        assert!(chimeric.iter().all(|&c| !c));
        let wrapping = origins.iter().filter(|o| o.end() > genome.len()).count();
        assert!(wrapping > 0, "wrap-around sampling must produce origin-crossing reads");
        for (i, origin) in origins.iter().enumerate() {
            let expected = circular_slice(&genome, origin.start, origin.span).oriented(origin.strand);
            assert_eq!(reads.seq(i), &expected, "read {i} does not match its circular origin");
        }
    }

    #[test]
    fn chimeric_reads_are_labelled_and_lead_with_their_origin() {
        let genome = generate_genome(&GenomeConfig { length: 30_000, ..Default::default() });
        let config = ReadSimConfig {
            depth: 10.0,
            mean_read_length: 1_000,
            min_read_length: 500,
            read_length_sd: 100,
            error_rate: 0.0,
            seed: 31,
            chimera_rate: 0.2,
            ..ReadSimConfig::default()
        };
        let (reads, origins, chimeric) = simulate_reads_with(&genome, &config, Topology::Linear);
        let n_chim = chimeric.iter().filter(|&&c| c).count();
        let rate = n_chim as f64 / reads.len() as f64;
        assert!((rate - 0.2).abs() < 0.08, "chimera rate {rate} too far from 0.2");
        for (i, origin) in origins.iter().enumerate() {
            let expected = genome.slice(origin.start, origin.end()).oriented(origin.strand);
            if chimeric[i] {
                // The leading segment maps to the origin; the read is longer.
                assert!(reads.seq(i).len() > origin.span);
                assert_eq!(&reads.seq(i).slice(0, origin.span), &expected);
            } else {
                assert_eq!(reads.seq(i), &expected);
            }
        }
    }

    #[test]
    fn length_models_hit_the_target_mean_with_the_right_shape() {
        let genome = generate_genome(&GenomeConfig { length: 200_000, ..Default::default() });
        let sample = |model: LengthModel| {
            let config = ReadSimConfig {
                depth: 10.0,
                mean_read_length: 2_000,
                min_read_length: 200,
                read_length_sd: 600,
                error_rate: 0.0,
                seed: 41,
                length_model: model,
                ..ReadSimConfig::default()
            };
            let (_, origins) = simulate_reads(&genome, &config);
            let mut lens: Vec<usize> = origins.iter().map(|o| o.span).collect();
            lens.sort_unstable();
            let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
            let median = lens[lens.len() / 2] as f64;
            (mean, median)
        };
        let (g_mean, _) = sample(LengthModel::Gaussian);
        let (ln_mean, ln_median) = sample(LengthModel::LogNormal);
        let (mix_mean, mix_median) = sample(LengthModel::EmpiricalMixture);
        assert!((g_mean - 2_000.0).abs() < 150.0, "gaussian mean {g_mean}");
        assert!((ln_mean - 2_000.0).abs() < 150.0, "log-normal mean {ln_mean}");
        // Right-skew: the median sits below the mean for both skewed models.
        assert!(ln_median < ln_mean, "log-normal must be right-skewed");
        assert!(mix_median < mix_mean, "mixture must be right-skewed");
        // The mixture's long tail reaches far beyond the Gaussian clamp range.
        assert!(mix_mean > 1_500.0, "mixture mean {mix_mean} collapsed");
    }

    #[test]
    fn scenario_datasets_build_with_their_advertised_shapes() {
        let p = ScenarioParams {
            genome_length: 6_000,
            depth: 8.0,
            mean_read_length: 500,
            error_rate: 0.02,
            seed: 5,
            ..ScenarioParams::default()
        };
        for kind in ScenarioKind::ALL {
            let ds = build_scenario(kind, &p);
            assert_eq!(ds.label, kind.label());
            assert!(ds.num_reads() > 10, "{:?} produced too few reads", kind);
            assert_eq!(ds.origins.len(), ds.num_reads());
            assert_eq!(ds.chimeric.len(), ds.num_reads());
            match kind {
                ScenarioKind::MetagenomeMix => {
                    assert_eq!(ds.genome.len(), 2 * p.genome_length);
                    assert!(ds.origins.iter().any(|o| o.start < p.genome_length));
                    assert!(ds.origins.iter().any(|o| o.start >= p.genome_length));
                }
                ScenarioKind::ChimericReads => {
                    assert!(ds.num_chimeric() > 0, "chimera scenario must label chimeras");
                }
                ScenarioKind::CircularGenome => {
                    assert_eq!(ds.topology, Topology::Circular);
                    assert!(ds.origins.iter().any(|o| o.end() > ds.genome.len()));
                }
                _ => {
                    assert_eq!(ds.topology, Topology::Linear);
                    assert_eq!(ds.num_chimeric(), 0);
                }
            }
            // Determinism: the same spec builds the same dataset.
            let again = build_scenario(kind, &p);
            assert_eq!(ds.reads, again.reads, "{:?} not deterministic", kind);
        }
    }

    #[test]
    fn dataset_presets_match_paper_statistics() {
        assert_eq!(DatasetSpec::CElegansLike.depth(), 40.0);
        assert_eq!(DatasetSpec::HSapiensLike.depth(), 10.0);
        assert_eq!(DatasetSpec::CElegansLike.mean_read_length(), 11_241);
        assert_eq!(DatasetSpec::HSapiensLike.mean_read_length(), 7_401);
        assert!((DatasetSpec::HSapiensLike.error_rate() - 0.15).abs() < 1e-9);
        assert_eq!(DatasetSpec::EColiLike.depth(), 30.0);
    }

    #[test]
    fn tiny_dataset_generates_quickly_and_consistently() {
        let ds = DatasetSpec::Tiny.generate(42);
        assert!(ds.num_reads() > 10, "tiny dataset should still have a few dozen reads");
        assert!((ds.achieved_depth() - 12.0).abs() < 4.0);
        let ds2 = DatasetSpec::Tiny.generate(42);
        assert_eq!(ds.reads, ds2.reads, "same seed must give the same dataset");
        let ds3 = DatasetSpec::Tiny.generate(43);
        assert_ne!(ds.reads, ds3.reads);
    }
}
