//! Assembly-quality metrics: contiguity, consensus accuracy, misjoins.
//!
//! Once the consensus stage emits sequence (closing the OLC loop), the usual
//! assembly-evaluation vocabulary applies.  This module computes it:
//!
//! * **contiguity** — N50 (half the *assembled* bases live in contigs at
//!   least this long) and NG50 (half the *genome* does), total assembled
//!   bases, largest contig;
//! * **accuracy** — per-contig percent identity of the consensus against the
//!   region of the reference its reads came from (available whenever the
//!   simulator's ground-truth [`ReadOrigin`]s are known), reported per
//!   contig and as a length-weighted mean;
//! * **structural correctness** — misjoin count: adjacent reads in a layout
//!   whose genomic intervals do not actually overlap.  When the ground truth
//!   carries chimera labels ([`GroundTruth::chimeric`]), a break at a
//!   labelled chimeric read is reported separately as a *chimera break*
//!   (library artefact propagated) rather than an assembler misjoin.
//!
//! Evaluation is topology-aware: on a [`Topology::Circular`] reference,
//! wrap-around reads overlap across the origin, the reference region of an
//! origin-crossing contig is extracted as a circular arc
//! ([`dibella_seq::simulate::circular_slice`]), and a full-circle contig —
//! whose consensus is a rotation of the genome at an arbitrary cut — is
//! scored against rotations anchored at its terminal reads.
//!
//! The `assembly_quality` harness in `dibella-bench` serialises an
//! [`AssemblyMetrics`] to `BENCH_assembly.json`; the golden end-to-end test
//! asserts NG50 and identity thresholds on a known 20 kbp reference, and
//! `tests/assembly_scenarios.rs` pins per-scenario floors on the adversarial
//! suite.

use crate::consensus::{banded_identity, ConsensusConfig, ContigConsensus};
use crate::contigs::Contig;
use dibella_seq::simulate::{circular_slice, ReadOrigin, SimulatedDataset, Topology};
use dibella_seq::DnaSeq;
use serde::{Deserialize, Serialize};

/// N50 of a set of contig lengths: the largest length `L` such that contigs
/// of length ≥ `L` together cover at least half the assembled bases.
pub fn n50(lengths: &[usize]) -> usize {
    nx50(lengths, lengths.iter().sum())
}

/// NG50: like [`n50`], but against half the *genome* length, so a fragmented
/// or incomplete assembly cannot inflate the statistic.  Returns 0 when the
/// assembly covers less than half the genome.
pub fn ng50(lengths: &[usize], genome_length: usize) -> usize {
    nx50(lengths, genome_length)
}

fn nx50(lengths: &[usize], denominator_bases: usize) -> usize {
    if denominator_bases == 0 {
        return 0;
    }
    let mut sorted: Vec<usize> = lengths.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let half = denominator_bases.div_ceil(2);
    let mut cum = 0usize;
    for len in sorted {
        cum += len;
        if cum >= half {
            return len;
        }
    }
    0
}

/// The simulator's ground truth, bundled for evaluation: read origins, the
/// reference, its topology, and (optionally) per-read chimera labels.
#[derive(Debug, Clone, Copy)]
pub struct GroundTruth<'a> {
    /// Ground-truth origin of every read, indexed by read id.
    pub origins: &'a [ReadOrigin],
    /// The reference genome the reads were sampled from.
    pub genome: &'a DnaSeq,
    /// Topology of the reference replicon.
    pub topology: Topology,
    /// Per-read chimera labels (empty slice = no labels; every read is then
    /// treated as non-chimeric and every broken adjacency as a misjoin).
    pub chimeric: &'a [bool],
}

impl<'a> GroundTruth<'a> {
    /// Ground truth for a linear reference without chimera labels — the
    /// classic [`evaluate_assembly`] interface.
    pub fn linear(origins: &'a [ReadOrigin], genome: &'a DnaSeq) -> Self {
        Self { origins, genome, topology: Topology::Linear, chimeric: &[] }
    }

    /// Ground truth straight from a [`SimulatedDataset`] (topology and
    /// chimera labels included).
    pub fn from_dataset(ds: &'a SimulatedDataset) -> Self {
        Self {
            origins: &ds.origins,
            genome: &ds.genome,
            topology: ds.topology,
            chimeric: &ds.chimeric,
        }
    }

    fn is_chimeric(&self, read: usize) -> bool {
        self.chimeric.get(read).copied().unwrap_or(false)
    }
}

/// Quality of one contig's consensus against the reference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContigQuality {
    /// Number of reads in the layout.
    pub reads: usize,
    /// Consensus length in bases.
    pub length: usize,
    /// Start of the genomic region the contig's reads were sampled from.
    pub ref_start: usize,
    /// End (exclusive) of that region.  On a circular reference this may
    /// exceed the genome length: the region wraps around the origin.
    pub ref_end: usize,
    /// Percent identity (0..=1) of the consensus against that region, taking
    /// the better of the two strands.
    pub identity: f64,
    /// Adjacent layout reads whose genomic intervals do not overlap, neither
    /// read being a labelled chimera — assembler errors.
    pub misjoins: usize,
    /// Broken adjacencies where at least one read is a labelled chimera —
    /// library artefacts the assembler propagated rather than created.
    pub chimera_breaks: usize,
}

/// Aggregate assembly-quality metrics for one run.
///
/// The headline statistics (`assembled_bases`, `largest_contig`, `n50`,
/// `ng50`, the identities) are computed over **multi-read** contigs: a
/// singleton layout is a contained or isolated read the layout stage set
/// aside, and a real assembler would not emit it as a contig (counting them
/// would double-cover the genome).  When *no* layout chains two reads, the
/// headline falls back to all contigs so a degenerate run still reports
/// something.  `per_contig` always covers everything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssemblyMetrics {
    /// Number of contigs (consensus sequences), singletons included.
    pub contigs: usize,
    /// Contigs whose layout has at least two reads.
    pub multi_read_contigs: usize,
    /// Contigs whose layout closed into a cycle (circular replicons).
    pub circular_contigs: usize,
    /// Total consensus bases of the scored (multi-read) contigs.
    pub assembled_bases: usize,
    /// Largest scored consensus length.
    pub largest_contig: usize,
    /// N50 over scored consensus lengths.
    pub n50: usize,
    /// NG50 over scored consensus lengths against the reference length.
    pub ng50: usize,
    /// Reference (genome) length the NG50 is computed against.
    pub genome_length: usize,
    /// Length-weighted mean identity of scored contigs vs the reference.
    pub mean_identity: f64,
    /// Identity of the largest scored contig vs the reference.
    pub largest_identity: f64,
    /// Total assembler misjoins across all contigs.
    pub misjoins: usize,
    /// Total chimera breaks (see [`ContigQuality::chimera_breaks`]).
    pub chimera_breaks: usize,
    /// Per-contig detail for every contig, in the contig order given.
    pub per_contig: Vec<ContigQuality>,
}

/// Evaluate an assembly against linear-topology ground truth without chimera
/// labels (the classic interface; see [`evaluate_assembly_truth`] for the
/// topology- and chimera-aware version).
pub fn evaluate_assembly(
    contigs: &[Contig],
    consensi: &[ContigConsensus],
    origins: &[ReadOrigin],
    genome: &DnaSeq,
    config: &ConsensusConfig,
) -> AssemblyMetrics {
    evaluate_assembly_truth(contigs, consensi, &GroundTruth::linear(origins, genome), config)
}

/// Evaluate an assembly against the simulator's full ground truth.
///
/// `contigs` and `consensi` must be parallel (one consensus per layout).
/// With [`Topology::Circular`] truth, adjacency checks and region extraction
/// wrap around the origin; with chimera labels, broken adjacencies at
/// labelled reads are counted as chimera breaks rather than misjoins.
pub fn evaluate_assembly_truth(
    contigs: &[Contig],
    consensi: &[ContigConsensus],
    truth: &GroundTruth<'_>,
    config: &ConsensusConfig,
) -> AssemblyMetrics {
    assert_eq!(contigs.len(), consensi.len(), "one consensus per contig required");
    let mut per_contig = Vec::with_capacity(contigs.len());
    for (contig, cons) in contigs.iter().zip(consensi) {
        per_contig.push(contig_quality(contig, cons, truth, config));
    }

    let multi_read_contigs = per_contig.iter().filter(|q| q.reads > 1).count();
    // Score multi-read contigs; fall back to everything if nothing chained.
    let scored: Vec<&ContigQuality> = if multi_read_contigs > 0 {
        per_contig.iter().filter(|q| q.reads > 1).collect()
    } else {
        per_contig.iter().collect()
    };
    let lengths: Vec<usize> = scored.iter().map(|q| q.length).collect();
    let assembled_bases: usize = lengths.iter().sum();
    let mean_identity = if assembled_bases > 0 {
        scored.iter().map(|q| q.identity * q.length as f64).sum::<f64>() / assembled_bases as f64
    } else {
        0.0
    };
    let largest_identity = scored
        .iter()
        .max_by_key(|q| q.length)
        .map_or(0.0, |q| q.identity);

    AssemblyMetrics {
        contigs: contigs.len(),
        multi_read_contigs,
        circular_contigs: contigs.iter().filter(|c| c.circular).count(),
        assembled_bases,
        largest_contig: lengths.iter().copied().max().unwrap_or(0),
        n50: n50(&lengths),
        ng50: ng50(&lengths, truth.genome.len()),
        genome_length: truth.genome.len(),
        mean_identity,
        largest_identity,
        misjoins: per_contig.iter().map(|q| q.misjoins).sum(),
        chimera_breaks: per_contig.iter().map(|q| q.chimera_breaks).sum(),
        per_contig,
    }
}

fn contig_quality(
    contig: &Contig,
    cons: &ContigConsensus,
    truth: &GroundTruth<'_>,
    config: &ConsensusConfig,
) -> ContigQuality {
    let origins = truth.origins;
    let genome_len = truth.genome.len();

    let mut misjoins = 0usize;
    let mut chimera_breaks = 0usize;
    let mut adjacencies: Vec<(usize, usize)> =
        contig.reads.windows(2).map(|p| (p[0], p[1])).collect();
    if contig.circular && contig.reads.len() > 2 {
        // The cut point of a linearised circular walk is a true adjacency too.
        #[expect(clippy::unwrap_used, reason = "reads.len() > 2 is checked just above")]
        adjacencies.push((*contig.reads.last().unwrap(), contig.reads[0]));
    }
    for (a, b) in adjacencies {
        if origins[a].overlap_with_in(&origins[b], truth.topology, genome_len) == 0 {
            if truth.is_chimeric(a) || truth.is_chimeric(b) {
                chimera_breaks += 1;
            } else {
                misjoins += 1;
            }
        }
    }

    let (ref_start, ref_end, regions) = reference_regions(contig, cons, truth);
    // The layout's orientation relative to the reference is arbitrary, so
    // score both strands of every candidate region and keep the best.
    let identity = regions
        .iter()
        .flat_map(|region| {
            [
                banded_identity(&cons.consensus, region, config),
                banded_identity(&cons.consensus.reverse_complement(), region, config),
            ]
        })
        .fold(0.0f64, f64::max);

    ContigQuality {
        reads: contig.reads.len(),
        length: cons.consensus.len(),
        ref_start,
        ref_end,
        identity,
        misjoins,
        chimera_breaks,
    }
}

/// The reference region(s) a contig's consensus should be scored against:
/// `(ref_start, ref_end, candidate regions)`.
fn reference_regions(
    contig: &Contig,
    cons: &ContigConsensus,
    truth: &GroundTruth<'_>,
) -> (usize, usize, Vec<DnaSeq>) {
    let origins = truth.origins;
    let genome = truth.genome;
    match truth.topology {
        Topology::Linear => {
            let ref_start = contig.reads.iter().map(|&r| origins[r].start).min().unwrap_or(0);
            let ref_end = contig.reads.iter().map(|&r| origins[r].end()).max().unwrap_or(0);
            (ref_start, ref_end, vec![genome.slice(ref_start, ref_end)])
        }
        Topology::Circular => {
            let len = genome.len();
            match minimal_covering_arc(contig, origins, len) {
                Some((arc_start, arc_len)) => (
                    arc_start,
                    arc_start + arc_len,
                    vec![circular_slice(genome, arc_start, arc_len)],
                ),
                None => {
                    // The reads cover the whole circle: the consensus is a
                    // rotation of the genome at an arbitrary cut.  The walk
                    // starts (in either direction) at one of the terminal
                    // reads, so rotations anchored there are the candidates.
                    let span = cons.consensus.len().clamp(len, 2 * len);
                    let first = origins[contig.reads[0]].start % len.max(1);
                    #[expect(clippy::unwrap_used, reason = "contigs hold at least one read")]
                    let last = origins[*contig.reads.last().unwrap()].start % len.max(1);
                    let regions = [first, last]
                        .iter()
                        .map(|&anchor| circular_slice(genome, anchor, span))
                        .collect();
                    (first, first + len, regions)
                }
            }
        }
    }
}

/// The minimal circular arc covering every read of the contig, as
/// `(start, length)` — or `None` when the reads cover the entire circle.
///
/// Uses the largest-gap method: merge the reads' footprint arcs; the minimal
/// covering arc is the complement of the largest uncovered gap.
fn minimal_covering_arc(
    contig: &Contig,
    origins: &[ReadOrigin],
    genome_len: usize,
) -> Option<(usize, usize)> {
    if genome_len == 0 {
        return Some((0, 0));
    }
    // Split each read's footprint into non-wrapping intervals on [0, len).
    let mut intervals: Vec<(usize, usize)> = Vec::new();
    for &r in &contig.reads {
        let span = origins[r].span;
        if span >= genome_len {
            return None;
        }
        let start = origins[r].start % genome_len;
        let end = start + span;
        if end <= genome_len {
            intervals.push((start, end));
        } else {
            intervals.push((start, genome_len));
            intervals.push((0, end - genome_len));
        }
    }
    intervals.sort_unstable();
    // Merge.
    let mut merged: Vec<(usize, usize)> = Vec::new();
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    // Gaps between consecutive merged intervals, plus the wrap gap.
    let mut best_gap: Option<(usize, usize)> = None; // (gap_start, gap_len)
    for w in merged.windows(2) {
        let gap = (w[0].1, w[1].0 - w[0].1);
        if gap.1 > best_gap.map_or(0, |g| g.1) {
            best_gap = Some(gap);
        }
    }
    let first = merged.first().copied().unwrap_or((0, 0));
    let last = merged.last().copied().unwrap_or((0, 0));
    let wrap_gap_len = (genome_len - last.1) + first.0;
    if wrap_gap_len > best_gap.map_or(0, |g| g.1) {
        best_gap = Some((last.1 % genome_len, wrap_gap_len));
    }
    best_gap.filter(|g| g.1 > 0).map(|(gap_start, gap_len)| {
        let arc_start = (gap_start + gap_len) % genome_len;
        (arc_start, genome_len - gap_len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_seq::Strand;
    use proptest::prelude::*;

    fn origin(start: usize, span: usize) -> ReadOrigin {
        ReadOrigin { start, span, strand: Strand::Forward }
    }

    fn consensus_of(seq: DnaSeq, reads: usize) -> ContigConsensus {
        let len = seq.len();
        ContigConsensus {
            consensus: seq,
            reads,
            poa_nodes: len,
            aligned_bases: len,
            dp_cells: 0,
            unplaced_reads: 0,
        }
    }

    #[test]
    fn n50_matches_the_textbook_definition() {
        // Lengths 80, 70, 50, 40, 30, 20: total 290, half 145; 80+70 = 150 >= 145.
        assert_eq!(n50(&[50, 80, 20, 30, 70, 40]), 70);
        assert_eq!(n50(&[100]), 100);
        assert_eq!(n50(&[]), 0);
        // All equal lengths: N50 is that length.
        assert_eq!(n50(&[25, 25, 25, 25]), 25);
    }

    #[test]
    fn ng50_uses_the_genome_length_as_denominator() {
        // Assembly of 150 bases over a 400-base genome: cumulative 80+70 = 150
        // never reaches 200, so NG50 is 0 (assembly too incomplete).
        assert_eq!(ng50(&[80, 70], 400), 0);
        // Over a 200-base genome, the cumulative sum crosses 100 at the
        // second contig: NG50 = 70.
        assert_eq!(ng50(&[80, 70], 200), 70);
        // A perfect single-contig assembly: NG50 = genome length.
        assert_eq!(ng50(&[400], 400), 400);
        assert_eq!(ng50(&[10, 10], 0), 0);
    }

    #[test]
    fn nx50_degenerate_inputs() {
        // All-zero lengths: total 0, so both statistics are 0.
        assert_eq!(n50(&[0, 0, 0]), 0);
        assert_eq!(ng50(&[0, 0], 100), 0);
        assert_eq!(ng50(&[], 100), 0);
        // A zero mixed with real lengths never becomes the answer.
        assert_eq!(n50(&[0, 100]), 100);
        // Exactly covering half the genome counts.
        assert_eq!(ng50(&[50], 100), 50);
    }

    proptest! {
        #[test]
        fn prop_n50_and_ng50_are_permutation_invariant(
            lengths in proptest::collection::vec(0usize..10_000, 0..40),
            genome in 0usize..200_000,
        ) {
            let n = n50(&lengths);
            let ng = ng50(&lengths, genome);
            let mut permuted = lengths.clone();
            permuted.sort_unstable();
            prop_assert_eq!(n50(&permuted), n);
            prop_assert_eq!(ng50(&permuted, genome), ng);
            permuted.reverse();
            prop_assert_eq!(n50(&permuted), n);
            prop_assert_eq!(ng50(&permuted, genome), ng);
        }

        #[test]
        fn prop_ng50_never_exceeds_n50_when_assembly_fits_the_genome(
            lengths in proptest::collection::vec(0usize..10_000, 0..40),
            slack in 0usize..50_000,
        ) {
            // assembled <= genome ⇒ the NG50 threshold is at least the N50
            // threshold, so NG50 ≤ N50.
            let genome = lengths.iter().sum::<usize>() + slack;
            prop_assert!(ng50(&lengths, genome) <= n50(&lengths));
        }

        #[test]
        fn prop_n50_is_an_achieved_length_covering_half_the_bases(
            lengths in proptest::collection::vec(1usize..10_000, 1..40),
        ) {
            let l = n50(&lengths);
            prop_assert!(lengths.contains(&l), "N50 {l} not one of the lengths");
            let total: usize = lengths.iter().sum();
            let covered: usize = lengths.iter().filter(|&&x| x >= l).sum();
            prop_assert!(2 * covered >= total, "contigs >= N50 cover {covered} of {total}");
        }
    }

    #[test]
    fn misjoined_layouts_are_counted() {
        let genome = DnaSeq::from_codes(vec![0; 1_000]);
        let origins = vec![origin(0, 300), origin(200, 300), origin(700, 300)];
        // Reads 0-1 overlap on the genome; 1-2 do not: one misjoin.
        let contig = Contig { reads: vec![0, 1, 2], estimated_length: 900, circular: false };
        let cons = consensus_of(genome.slice(0, 900), 3);
        let metrics = evaluate_assembly(
            &[contig],
            &[cons],
            &origins,
            &genome,
            &ConsensusConfig::default(),
        );
        assert_eq!(metrics.misjoins, 1);
        assert_eq!(metrics.chimera_breaks, 0);
        assert_eq!(metrics.per_contig[0].ref_start, 0);
        assert_eq!(metrics.per_contig[0].ref_end, 1_000);
    }

    #[test]
    fn chimera_labels_reclassify_breaks_at_chimeric_reads() {
        let genome = DnaSeq::from_codes((0..1_000).map(|i| (i % 4) as u8).collect());
        let origins = vec![origin(0, 300), origin(700, 300)];
        let contig = Contig { reads: vec![0, 1], estimated_length: 600, circular: false };
        let cons = consensus_of(genome.slice(0, 600), 2);
        // Without labels the broken adjacency is an assembler misjoin...
        let unlabelled = evaluate_assembly(
            std::slice::from_ref(&contig),
            std::slice::from_ref(&cons),
            &origins,
            &genome,
            &ConsensusConfig::default(),
        );
        assert_eq!(unlabelled.misjoins, 1);
        assert_eq!(unlabelled.chimera_breaks, 0);
        // ...with read 1 labelled chimeric it is a propagated library artefact.
        let truth = GroundTruth {
            origins: &origins,
            genome: &genome,
            topology: Topology::Linear,
            chimeric: &[false, true],
        };
        let labelled = evaluate_assembly_truth(
            &[contig],
            &[cons],
            &truth,
            &ConsensusConfig::default(),
        );
        assert_eq!(labelled.misjoins, 0);
        assert_eq!(labelled.chimera_breaks, 1);
    }

    /// A deterministic pseudo-random genome for identity tests.
    fn lcg_genome(len: usize, mut state: u64) -> DnaSeq {
        let mut codes = Vec::with_capacity(len);
        for _ in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            codes.push(((state >> 33) % 4) as u8);
        }
        DnaSeq::from_codes(codes)
    }

    #[test]
    fn circular_truth_scores_wraparound_contigs_without_false_misjoins() {
        let genome = lcg_genome(400, 99);
        // Read 0 wraps the origin: [350, 400) + [0, 50); read 1 covers
        // [30, 130).  They truly overlap by 20 bases across the origin.
        let origins = vec![origin(350, 100), origin(30, 100)];
        let contig = Contig { reads: vec![0, 1], estimated_length: 180, circular: false };
        let cons = consensus_of(circular_slice(&genome, 350, 180), 2);
        let truth = GroundTruth {
            origins: &origins,
            genome: &genome,
            topology: Topology::Circular,
            chimeric: &[],
        };
        let m = evaluate_assembly_truth(
            std::slice::from_ref(&contig),
            std::slice::from_ref(&cons),
            &truth,
            &ConsensusConfig::default(),
        );
        assert_eq!(m.misjoins, 0, "a wrap-around overlap is not a misjoin");
        assert!(m.mean_identity > 0.99, "identity {} on the extracted arc", m.mean_identity);
        assert_eq!(m.per_contig[0].ref_start, 350);
        assert_eq!(m.per_contig[0].ref_end, 350 + 180);
        // The linear interpretation gets both wrong: no overlap, and the
        // naive [30, 450)-clamped region does not match the consensus.
        let linear = evaluate_assembly(
            &[contig],
            &[cons],
            &origins,
            &genome,
            &ConsensusConfig::default(),
        );
        assert_eq!(linear.misjoins, 1);
    }

    #[test]
    fn full_circle_contig_is_scored_against_genome_rotations() {
        let genome = lcg_genome(300, 5);
        // Four reads tiling the whole circle, closing back on read 0.
        let origins =
            vec![origin(0, 100), origin(75, 100), origin(150, 100), origin(225, 100)];
        let contig =
            Contig { reads: vec![0, 1, 2, 3], estimated_length: 300, circular: true };
        // The consensus is the genome rotated to the first read's start.
        let cons = consensus_of(circular_slice(&genome, 0, 300), 4);
        let truth = GroundTruth {
            origins: &origins,
            genome: &genome,
            topology: Topology::Circular,
            chimeric: &[],
        };
        let m = evaluate_assembly_truth(&[contig], &[cons], &truth, &ConsensusConfig::default());
        assert_eq!(m.circular_contigs, 1);
        assert_eq!(m.misjoins, 0, "the wrap adjacency 3->0 truly overlaps");
        assert!(m.mean_identity > 0.99, "identity {}", m.mean_identity);
    }

    #[test]
    fn minimal_covering_arc_handles_wrap_and_full_coverage() {
        let origins = vec![origin(350, 100), origin(30, 100), origin(100, 150)];
        let contig = Contig { reads: vec![0, 1], estimated_length: 0, circular: false };
        assert_eq!(minimal_covering_arc(&contig, &origins, 400), Some((350, 180)));
        // A single non-wrapping read.
        let one = Contig { reads: vec![1], estimated_length: 0, circular: false };
        assert_eq!(minimal_covering_arc(&one, &origins, 400), Some((30, 100)));
        // All three reads leave only the gap [250, 350).
        let all = Contig { reads: vec![0, 1, 2], estimated_length: 0, circular: false };
        assert_eq!(minimal_covering_arc(&all, &origins, 400), Some((350, 300)));
        // A read spanning the full circle covers everything.
        let full = vec![origin(17, 400)];
        let c = Contig { reads: vec![0], estimated_length: 0, circular: false };
        assert_eq!(minimal_covering_arc(&c, &full, 400), None);
    }

    #[test]
    fn perfect_single_contig_assembly_scores_full_identity() {
        let genome: DnaSeq = "ACGTTGCAACGTACGTTGCAACGGACGTTGCAACGTAAGTC"
            .parse()
            .unwrap();
        let origins = vec![origin(0, genome.len())];
        let contig =
            Contig { reads: vec![0], estimated_length: genome.len(), circular: false };
        let cons = consensus_of(genome.clone(), 1);
        let m = evaluate_assembly(
            &[contig],
            &[cons],
            &origins,
            &genome,
            &ConsensusConfig::default(),
        );
        assert_eq!(m.contigs, 1);
        assert_eq!(m.multi_read_contigs, 0);
        assert_eq!(m.circular_contigs, 0);
        assert_eq!(m.assembled_bases, genome.len());
        assert_eq!(m.n50, genome.len());
        assert_eq!(m.ng50, genome.len());
        assert!((m.largest_identity - 1.0).abs() < 1e-12);
        assert_eq!(m.misjoins, 0);
    }

    #[test]
    fn reverse_oriented_contigs_still_match_the_reference() {
        let genome = lcg_genome(600, 12345);
        let origins = vec![origin(100, 400)];
        let contig = Contig { reads: vec![0], estimated_length: 400, circular: false };
        // The consensus came out reverse-complemented relative to the genome.
        let cons = consensus_of(genome.slice(100, 500).reverse_complement(), 1);
        let m = evaluate_assembly(
            &[contig],
            &[cons],
            &origins,
            &genome,
            &ConsensusConfig::default(),
        );
        assert!(m.per_contig[0].identity > 0.99, "identity {}", m.per_contig[0].identity);
    }

    #[test]
    fn mean_identity_is_length_weighted_over_multi_read_contigs() {
        let genome = DnaSeq::from_codes((0..400).map(|i| (i % 4) as u8).collect());
        let origins = vec![origin(0, 200), origin(100, 200), origin(200, 100)];
        let good = consensus_of(genome.slice(0, 300), 2);
        // A singleton contig with garbage consensus must not drag the mean.
        let noise = consensus_of(DnaSeq::from_codes(vec![0; 100]), 1);
        let contigs = vec![
            Contig { reads: vec![0, 1], estimated_length: 300, circular: false },
            Contig { reads: vec![2], estimated_length: 100, circular: false },
        ];
        let m = evaluate_assembly(
            &contigs,
            &[good, noise],
            &origins,
            &genome,
            &ConsensusConfig::default(),
        );
        assert_eq!(m.multi_read_contigs, 1);
        assert!(m.mean_identity > 0.99, "mean identity {}", m.mean_identity);
    }
}
