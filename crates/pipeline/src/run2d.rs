//! The diBELLA 2D pipeline (Algorithm 1).

use crate::config::{CandidateSource, PipelineConfig};
use crate::timings::{timed, StageTimings};
use dibella_dist::{BlockDist, CommPhase, CommSnapshot, CommStats, ProcessGrid};
use dibella_overlap::detect::read_exchange_words;
use dibella_overlap::{
    account_read_exchange_2d, align_candidates_with, build_a_matrix, detect_candidates_2d_with,
    OverlapEdge, OverlapStats,
};
use dibella_seq::{count_kmers_distributed, parse_fasta, parse_fastq_filtered, KmerTable, ReadSet};
use dibella_sketch::{build_sketch_matrix, SketchStats};
use dibella_sparse::DistMat2D;
use dibella_strgraph::{
    consensus_contigs, extract_contigs, n50, transitive_reduction, Contig, ContigConsensus,
    TrOutcome,
};
use serde::{Deserialize, Serialize};

/// Everything a diBELLA 2D run produces.
#[derive(Debug, Clone)]
pub struct Pipeline2dOutput {
    /// The string matrix `S` (transitively reduced overlap graph).
    pub string_matrix: DistMat2D<OverlapEdge>,
    /// The overlap matrix `R` (before reduction).
    pub overlap_matrix: DistMat2D<OverlapEdge>,
    /// Contig layouts extracted from `S` (maximal unbranched walks).
    pub contigs: Vec<Contig>,
    /// POA consensus per contig layout, parallel to [`Pipeline2dOutput::contigs`].
    pub consensus: Vec<ContigConsensus>,
    /// Aggregate consensus counters (contig counts, POA nodes, N50).
    pub consensus_summary: ConsensusSummary,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// Communication counters for the whole run.
    pub comm: CommSnapshot,
    /// Overlap-stage counters (candidate pairs, densities, pruning reasons).
    pub overlap_stats: OverlapStats,
    /// Summary of the transitive reduction (iterations, removed edges).
    pub tr_summary: TrSummary,
    /// Process grid used.
    pub grid: ProcessGrid,
    /// Number of reads (`n`) and reliable k-mers (`m`).
    pub dims: PipelineDims,
    /// Size and selectivity of the sketch matrix (k-min-mer mode only).
    pub sketch: Option<SketchStats>,
    /// Reads the FASTQ mean-quality filter dropped (0 for FASTA and
    /// already-parsed reads, which are never filtered).
    pub dropped_low_quality: usize,
}

/// Dimensions of the run (Table II symbols measured on the input).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineDims {
    /// Read count `n`.
    pub reads: usize,
    /// Reliable k-mer count `m`.
    pub kmers: usize,
    /// Mean read length `l`.
    pub mean_read_length: f64,
    /// Nonzeros of the occurrence matrix `A`.
    pub a_nnz: usize,
}

impl PipelineDims {
    /// Density `a` of `A`: average reads per reliable k-mer, 0 without
    /// k-mers.
    pub fn a_density(&self) -> f64 {
        if self.kmers == 0 {
            0.0
        } else {
            self.a_nnz as f64 / self.kmers as f64
        }
    }
}

/// A compact, serialisable summary of a [`TrOutcome`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrSummary {
    /// Reduction rounds executed: 1, or 0 for an empty `R`.
    pub iterations: usize,
    /// Directed entries removed.
    pub removed_edges: usize,
    /// Entries in the string matrix `S`.
    pub string_edges: usize,
    /// `s` — average nonzeros per row of `S`.
    pub s_density: f64,
    /// Entries of `I` outside the diagonal blocks (see [`TrOutcome`]).
    pub transposed_entries: usize,
    /// Off-diagonal blocks of `I` holding an entry.
    pub transposed_blocks: usize,
}

/// A compact, serialisable summary of the consensus stage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConsensusSummary {
    /// Number of contig layouts (consensus sequences).
    pub contigs: usize,
    /// Layouts with at least two reads.
    pub multi_read_contigs: usize,
    /// Total POA graph nodes across all contigs.
    pub poa_nodes: u64,
    /// Total read bases threaded into the POA graphs.
    pub aligned_bases: u64,
    /// Total cells of the banded read-vs-backbone dynamic program.
    pub dp_cells: u64,
    /// Reads placed by their edge coordinates because their alignment failed.
    pub unplaced_reads: u64,
    /// Total consensus bases emitted.
    pub consensus_bases: u64,
    /// N50 over consensus lengths.
    pub n50: usize,
}

impl ConsensusSummary {
    fn new(contigs: &[Contig], consensus: &[ContigConsensus]) -> Self {
        let lengths: Vec<usize> = consensus.iter().map(|c| c.consensus.len()).collect();
        Self {
            contigs: contigs.len(),
            multi_read_contigs: contigs.iter().filter(|c| c.len() > 1).count(),
            poa_nodes: consensus.iter().map(|c| c.poa_nodes as u64).sum(),
            aligned_bases: consensus.iter().map(|c| c.aligned_bases as u64).sum(),
            dp_cells: consensus.iter().map(|c| c.dp_cells as u64).sum(),
            unplaced_reads: consensus.iter().map(|c| c.unplaced_reads as u64).sum(),
            consensus_bases: lengths.iter().map(|&l| l as u64).sum(),
            n50: n50(&lengths),
        }
    }
}

impl TrSummary {
    fn from_outcome(outcome: &TrOutcome, nreads: usize) -> Self {
        Self {
            iterations: outcome.iterations,
            removed_edges: outcome.removed_edges,
            string_edges: outcome.string_matrix.nnz(),
            s_density: if nreads > 0 {
                outcome.string_matrix.nnz() as f64 / nreads as f64
            } else {
                0.0
            },
            transposed_entries: outcome.transposed_entries,
            transposed_blocks: outcome.transposed_blocks,
        }
    }
}

/// Run the diBELLA 2D pipeline on FASTA text.
pub fn run_dibella_2d(fasta: &str, config: &PipelineConfig) -> Result<Pipeline2dOutput, String> {
    let (reads, read_time) = timed(|| parse_fasta(fasta));
    let mut out = run_dibella_2d_on_reads(&reads?, config)?;
    out.timings.read_fastq = read_time;
    Ok(out)
}

/// Run the diBELLA 2D pipeline on FASTQ text, applying the configuration's
/// mean-quality read filter (`PipelineConfig::min_mean_quality`) before the
/// pipeline proper.  The dropped-read count is reported in
/// [`Pipeline2dOutput::dropped_low_quality`].
pub fn run_dibella_2d_fastq(
    fastq: &str,
    config: &PipelineConfig,
) -> Result<Pipeline2dOutput, String> {
    let (parsed, read_time) = timed(|| parse_fastq_filtered(fastq, config.min_mean_quality));
    let (reads, filter_stats) = parsed?;
    let mut out = run_dibella_2d_on_reads(&reads, config)?;
    out.timings.read_fastq = read_time;
    out.dropped_low_quality = filter_stats.dropped_low_quality;
    Ok(out)
}

/// Run the diBELLA 2D pipeline on an already-parsed read set.
///
/// The reads stay resident for alignment and consensus, so the k-mer counter
/// folds them in one superstep per pass ([`count_kmers_distributed`], the
/// call the 1D pipeline makes).  The run owns its communication
/// counters and reports them in [`Pipeline2dOutput::comm`].  Fails only if
/// [`PipelineConfig::validate`] rejects the configuration, before anything
/// runs.
///
/// The FASTA parsing time is reported as zero; callers that parse a file can
/// use [`run_dibella_2d`] to have it measured.
pub fn run_dibella_2d_on_reads(
    reads: &ReadSet,
    config: &PipelineConfig,
) -> Result<Pipeline2dOutput, String> {
    config.validate()?;
    let grid = ProcessGrid::square_at_most(config.nprocs);
    let comm = &CommStats::new();
    // CountKmer: distributed counting, one exchange charged as the paper's
    // two passes.  The k-min-mer path indexes sketches instead and skips
    // counting entirely.
    let (table, t_count) = match config.candidate_source {
        CandidateSource::ExactKmer => {
            timed(|| count_kmers_distributed(reads, &config.kmer, grid.nprocs(), comm))
        }
        CandidateSource::KMinMer => (KmerTable::default(), 0.0),
    };
    let mut timings = StageTimings { count_kmer: t_count, ..StageTimings::default() };

    // CreateSpMat: the occurrence matrix A (Aᵀ is formed inside the SpGEMM).
    // Exact mode: one column per reliable k-mer.  k-min-mer mode: one column
    // per surviving k-min-mer — same entry type, same CSR shape, ~density×
    // fewer nonzeros, with the ownership exchange accounted under
    // `CommPhase::SketchIndex`.
    let ((a, sketch), t_create) = timed(|| match config.candidate_source {
        CandidateSource::ExactKmer => {
            (build_a_matrix(reads, &table, config.overlap.k, grid, grid.nprocs()), None)
        }
        CandidateSource::KMinMer => {
            let (a, stats) = build_sketch_matrix(reads, &config.sketch, grid, grid.nprocs(), comm);
            (a, Some(stats))
        }
    });
    timings.create_spmat = t_create;
    let (columns, a_nnz) = (a.ncols(), a.nnz());

    // ExchangeRead: in the real system the exchange is overlapped with the
    // k-mer counting and SpGEMM; here the data is already shared, so this
    // stage only accounts for the words/messages a real run would move.
    let (_, t_exchange) = timed(|| account_read_exchange_2d(reads, grid, comm));
    timings.exchange_read = t_exchange;

    // SpGEMM: C = A·Aᵀ with the shared-k-mer semiring (symmetric
    // grid-diagonal SUMMA unless the config opts out).
    let (candidates, t_spgemm) =
        timed(|| detect_candidates_2d_with(&a, comm, config.overlap.use_symmetric_summa));
    timings.spgemm = t_spgemm;

    // Alignment: x-drop seed-and-extend on every candidate, then pruning.
    let ((overlap_matrix, overlap_stats), t_align) =
        timed(|| align_candidates_with(reads, &candidates, &config.overlap, Some(comm)));
    timings.alignment = t_align;

    // TrReduction: Algorithm 2.
    let (tr, t_tr) = timed(|| transitive_reduction(&overlap_matrix, &config.transitive, comm));
    timings.tr_reduction = t_tr;

    // Consensus: extract the contig layouts from S and build one POA
    // consensus per contig on the work-stealing pool, closing the OLC loop.
    let ((contigs, consensus), t_consensus) = timed(|| {
        let s_local = tr.string_matrix.to_local_csr();
        let lengths = reads.lengths();
        let contigs = extract_contigs(&s_local, &lengths);
        let consensus = consensus_contigs(&contigs, &s_local, reads, &config.consensus);
        (contigs, consensus)
    });
    timings.consensus = t_consensus;
    account_consensus(&contigs, reads, grid, comm);

    Ok(Pipeline2dOutput {
        tr_summary: TrSummary::from_outcome(&tr, reads.len()),
        consensus_summary: ConsensusSummary::new(&contigs, &consensus),
        contigs,
        consensus,
        string_matrix: tr.string_matrix,
        overlap_matrix,
        timings,
        comm: comm.snapshot(),
        overlap_stats,
        grid,
        dims: PipelineDims {
            reads: reads.len(),
            // In k-min-mer mode `m` counts k-min-mer columns, not k-mers.
            kmers: columns,
            mean_read_length: reads.mean_read_length(),
            a_nnz,
        },
        sketch,
        dropped_low_quality: 0,
    })
}

/// Account the communication a real distributed consensus stage would incur:
/// every multi-read contig is built on one owner rank, so the reads of the
/// layout that live on other ranks are gathered there (2-bit packed plus a
/// header word, the read-exchange wire convention).
fn account_consensus(
    contigs: &[Contig],
    reads: &ReadSet,
    grid: ProcessGrid,
    comm: &CommStats,
) {
    let p = grid.nprocs();
    // Balanced block distribution of reads over ranks, as in the read
    // exchange; self-messages are free.
    let read_dist = BlockDist::new(reads.len(), p);
    let mut words = 0u64;
    let mut messages = 0u64;
    for (index, contig) in contigs.iter().enumerate() {
        if contig.len() < 2 {
            continue;
        }
        let owner = index % p;
        for &r in &contig.reads {
            if read_dist.owner(r) != owner {
                words += read_exchange_words(reads.seq(r).len());
                messages += 1;
            }
        }
    }
    comm.record(CommPhase::Consensus, words, messages);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_dist::extras::{ALIGNED_CELLS_KEY, BAND_WIDTH_PEAK_KEY, XDROP_TERMINATIONS_KEY};
    use dibella_seq::{write_fasta, DatasetSpec};
    use dibella_strgraph::transitive::remaining_transitive_edges;
    use dibella_strgraph::{extract_contigs, BidirectedGraph};

    fn tiny_config(nprocs: usize) -> PipelineConfig {
        PipelineConfig::for_small_reads(13, nprocs)
    }

    #[test]
    fn consensus_gathers_are_charged_against_the_read_exchange_owners() {
        // 10 reads on 4 ranks: blocks {0,1,2} {3,4,5} {6,7} {8,9}, where
        // `r·P/n` would put read 5 on rank 2.
        use dibella_seq::{DnaSeq, ReadRecord};
        let reads = ReadSet::from_records(
            (0..10)
                .map(|r| ReadRecord { name: format!("r{r}"), seq: DnaSeq::from_codes(vec![0; 40 + r]) })
                .collect(),
        );
        let contig = |reads: &[usize]| Contig { reads: reads.to_vec(), estimated_length: 0, circular: false };
        // Contig 0 is built on rank 0 and gathers read 3 (43 bases: 3 words);
        // contig 1 on rank 1, where reads 4 and 5 already are.
        let comm = CommStats::new();
        account_consensus(&[contig(&[0, 3]), contig(&[4, 5])], &reads, ProcessGrid::square(4), &comm);
        assert_eq!((comm.words(CommPhase::Consensus), comm.messages(CommPhase::Consensus)), (3, 1));
    }

    #[test]
    fn pipeline_produces_a_reduced_string_graph() {
        let ds = DatasetSpec::Tiny.generate(42);
        let out = run_dibella_2d_on_reads(&ds.reads, &tiny_config(4)).unwrap();
        assert!(out.overlap_matrix.nnz() > 0, "overlaps expected on a 12x dataset");
        assert!(out.string_matrix.nnz() > 0);
        assert!(out.string_matrix.nnz() <= out.overlap_matrix.nnz());
        assert!(out.tr_summary.iterations >= 1);
        assert_eq!(
            out.tr_summary.removed_edges,
            out.overlap_matrix.nnz() - out.string_matrix.nnz()
        );
        // The string graph is a fixed point of the reduction rule.
        assert!(remaining_transitive_edges(&out.string_matrix, 60).is_empty());
    }

    #[test]
    fn timings_cover_every_stage() {
        let ds = DatasetSpec::Tiny.generate(43);
        let out = run_dibella_2d_on_reads(&ds.reads, &tiny_config(4)).unwrap();
        let t = out.timings;
        assert!(t.count_kmer > 0.0);
        assert!(t.create_spmat > 0.0);
        assert!(t.spgemm > 0.0);
        assert!(t.alignment > 0.0);
        assert!(t.tr_reduction > 0.0);
        assert!(t.consensus > 0.0);
        assert!(t.total() >= t.total_without_alignment());
        assert_eq!(t.read_fastq, 0.0, "read set was pre-parsed");
    }

    #[test]
    fn fasta_entry_point_parses_and_times_reading() {
        let ds = DatasetSpec::Tiny.generate(44);
        let fasta = write_fasta(&ds.reads);
        let out = run_dibella_2d(&fasta, &tiny_config(4)).unwrap();
        assert!(out.timings.read_fastq > 0.0);
        assert_eq!(out.dims.reads, ds.reads.len());
        let bad = run_dibella_2d(">x\nACGTN\n", &tiny_config(4));
        assert!(bad.is_err());
    }

    #[test]
    fn communication_is_recorded_per_phase() {
        let ds = DatasetSpec::Tiny.generate(45);
        let out = run_dibella_2d_on_reads(&ds.reads, &tiny_config(9)).unwrap();
        assert!(out.comm.phase(CommPhase::KmerCounting).words > 0);
        assert!(out.comm.phase(CommPhase::OverlapDetection).words > 0);
        assert!(out.comm.phase(CommPhase::ReadExchange).words > 0);
        assert!(out.comm.phase(CommPhase::TransitiveReduction).words > 0);
        assert!(out.comm.phase(CommPhase::Consensus).words > 0);
        assert!(out.tr_summary.iterations > 0);
        assert!(out.consensus_summary.poa_nodes > 0);
        assert!(out.consensus_summary.aligned_bases > 0);
        assert!(out.consensus_summary.consensus_bases > 0);
        // The aligner's counters reach the output, and the extras repeat them.
        let (stats, extras) = (&out.overlap_stats, &out.comm.extras);
        assert!(stats.aligned_cells > 0);
        assert_eq!(extras.get(ALIGNED_CELLS_KEY), Some(&stats.aligned_cells));
        assert_eq!(extras.get(BAND_WIDTH_PEAK_KEY), Some(&stats.band_width_peak));
        assert_eq!(extras.get(XDROP_TERMINATIONS_KEY), Some(&stats.xdrop_terminations));
    }

    #[test]
    fn process_count_changes_communication_but_not_the_result() {
        let ds = DatasetSpec::Tiny.generate(46);
        let out1 = run_dibella_2d_on_reads(&ds.reads, &tiny_config(1)).unwrap();
        let out9 = run_dibella_2d_on_reads(&ds.reads, &tiny_config(9)).unwrap();
        assert_eq!(
            out1.string_matrix.to_local_csr(),
            out9.string_matrix.to_local_csr(),
            "the string graph must not depend on the virtual process count"
        );
        assert_eq!(out1.comm.total_words(), 0);
        assert!(out9.comm.total_words() > 0);
    }

    #[test]
    fn non_square_process_counts_fall_back_to_the_largest_square() {
        let ds = DatasetSpec::Tiny.generate(47);
        let out = run_dibella_2d_on_reads(&ds.reads, &tiny_config(10)).unwrap();
        assert_eq!(out.grid.nprocs(), 9);
    }

    #[test]
    fn string_graph_layouts_reconstruct_long_contigs() {
        // On a low-error tiny dataset the string graph should chain most reads
        // into a few long contigs covering the genome.
        let ds = DatasetSpec::Tiny.generate(48);
        let out = run_dibella_2d_on_reads(&ds.reads, &tiny_config(4)).unwrap();
        let graph = BidirectedGraph::from_dist_matrix(&out.string_matrix);
        assert_eq!(graph.num_vertices(), ds.reads.len());
        let lengths = ds.reads.lengths();
        let contigs = extract_contigs(&out.string_matrix.to_local_csr(), &lengths);
        assert!(!contigs.is_empty());
        let largest = &contigs[0];
        assert!(
            largest.reads.len() >= 5,
            "largest contig should chain several reads, got {}",
            largest.reads.len()
        );
        // Its estimated length should be in the ballpark of the genome length.
        assert!(largest.estimated_length > ds.genome.len() / 3);
        assert!(largest.estimated_length < ds.genome.len() * 2);
    }

    #[test]
    fn fastq_entry_point_filters_by_mean_quality() {
        let ds = DatasetSpec::Tiny.generate(51);
        // Build FASTQ text: high quality everywhere except every 5th read.
        let mut fastq = String::new();
        for (i, rec) in ds.reads.iter() {
            let q = if i % 5 == 0 { '%' } else { 'I' }; // Q4 vs Q40
            fastq.push_str(&format!(
                "@{}\n{}\n+\n{}\n",
                rec.name,
                rec.seq.to_ascii(),
                String::from(q).repeat(rec.seq.len())
            ));
        }
        let mut cfg = tiny_config(4);
        let unfiltered = run_dibella_2d_fastq(&fastq, &cfg).unwrap();
        assert_eq!(unfiltered.dims.reads, ds.reads.len());
        assert_eq!(unfiltered.dropped_low_quality, 0);
        // The unfiltered FASTQ run must agree with the FASTA run bit for bit.
        let from_fasta = run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap();
        assert_eq!(
            unfiltered.string_matrix.to_local_csr(),
            from_fasta.string_matrix.to_local_csr()
        );

        cfg.min_mean_quality = 10.0;
        let filtered = run_dibella_2d_fastq(&fastq, &cfg).unwrap();
        let expected_dropped = ds.reads.len().div_ceil(5);
        assert_eq!(filtered.dims.reads, ds.reads.len() - expected_dropped);
        assert_eq!(filtered.dropped_low_quality, expected_dropped);
        assert!(filtered.timings.read_fastq > 0.0);

        // No read passes a NaN threshold: an error, not an empty assembly.
        cfg.min_mean_quality = f64::NAN;
        let err = run_dibella_2d_fastq(&fastq, &cfg).expect_err("a NaN threshold is rejected");
        assert!(err.contains("min_mean_quality"), "unexpected error: {err}");
    }

    #[test]
    fn pipeline_emits_consensus_sequences_for_every_contig() {
        let ds = DatasetSpec::Tiny.generate(50);
        let out = run_dibella_2d_on_reads(&ds.reads, &tiny_config(4)).unwrap();
        assert_eq!(out.contigs.len(), out.consensus.len(), "one consensus per layout");
        assert!(!out.contigs.is_empty());
        assert_eq!(out.consensus_summary.contigs, out.contigs.len());
        assert!(out.consensus_summary.multi_read_contigs >= 1);
        assert!(out.consensus_summary.consensus_bases > 0);
        assert!(out.consensus_summary.poa_nodes >= out.consensus_summary.consensus_bases);
        assert!(out.consensus_summary.n50 > 0);
        // The largest consensus should be in the ballpark of *its own*
        // layout's estimated length (the layout estimate counts genome
        // bases, the consensus counts polished bases).
        let (contig, cons) = out
            .contigs
            .iter()
            .zip(&out.consensus)
            .max_by_key(|(_, c)| c.consensus.len())
            .unwrap();
        let largest = cons.consensus.len();
        let estimated = contig.estimated_length;
        assert!(
            largest * 2 > estimated && largest < estimated * 2,
            "consensus length {largest} vs layout estimate {estimated}"
        );
        // Every read is threaded into exactly one POA graph.
        let threaded: usize = out.consensus.iter().map(|c| c.reads).sum();
        assert_eq!(threaded, ds.reads.len());
    }

    /// The error `run_dibella_2d` returns for `tiny_config(4)` after `edit`:
    /// FASTA text in, `Err` out, no panic on any thread.
    fn rejection(edit: impl FnOnce(&mut PipelineConfig)) -> String {
        let fasta = write_fasta(&DatasetSpec::Tiny.generate(58).reads);
        let mut cfg = tiny_config(4);
        edit(&mut cfg);
        run_dibella_2d(&fasta, &cfg).err().expect("an invalid configuration must be rejected")
    }

    #[test]
    fn a_k_the_kmer_type_cannot_hold_is_an_error_not_a_worker_panic() {
        for k in [0, dibella_seq::kmer::MAX_K + 1] {
            let err = rejection(|cfg| (cfg.kmer.k, cfg.overlap.k) = (k, k));
            assert!(err.contains("kmer.k must be in 1..=31"), "k = {k}: unexpected error: {err}");
        }
    }

    #[test]
    fn counting_one_k_and_looking_up_another_is_an_error_not_an_empty_matrix() {
        let err = rejection(|cfg| cfg.overlap.k = 11);
        assert!(err.contains("overlap.k must equal kmer.k = 13, got 11"), "unexpected error: {err}");
    }

    #[test]
    fn an_xdrop_outside_the_vector_kernels_box_is_an_error() {
        for xdrop in [-1, 5000] {
            let err = rejection(|cfg| cfg.overlap.alignment.xdrop = xdrop);
            let want = format!("overlap.alignment.xdrop must be in 0..=3000, got {xdrop}");
            assert!(err.contains(&want), "unexpected error: {err}");
        }
    }

    #[test]
    fn a_score_threshold_that_is_not_a_number_is_an_error() {
        for per_base in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = rejection(|cfg| cfg.overlap.alignment.min_score_per_base = per_base);
            let want = "overlap.alignment.min_score_per_base must be a finite number";
            assert!(err.contains(want), "{per_base}: unexpected error: {err}");
        }
    }

    #[test]
    fn an_empty_reliable_range_is_an_error() {
        let err = rejection(|cfg| (cfg.kmer.min_count, cfg.kmer.max_count) = (5, 4));
        assert!(err.contains("kmer.min_count = 5 must not exceed"), "unexpected error: {err}");
    }

    /// [`rejection`] of a k-min-mer run after `edit`.
    fn kminmer_rejection(edit: impl FnOnce(&mut dibella_sketch::SketchConfig)) -> String {
        rejection(|cfg| {
            cfg.candidate_source = crate::CandidateSource::KMinMer;
            edit(&mut cfg.sketch);
        })
    }

    #[test]
    fn a_sketch_k_the_kmer_type_cannot_hold_is_an_error_not_a_worker_panic() {
        for k in [0, dibella_seq::kmer::MAX_K + 1] {
            let err = kminmer_rejection(|sketch| sketch.k = k);
            assert!(err.contains("sketch.k must be in 1..=31"), "k = {k}: unexpected error: {err}");
        }
    }

    #[test]
    fn a_kminmer_of_no_minimizers_is_an_error_not_a_worker_panic() {
        let err = kminmer_rejection(|sketch| sketch.kmm = 0);
        assert!(err.contains("sketch.kmm must be at least 1"), "unexpected error: {err}");
        // The exact path never reads `sketch`, so it runs with the same setting.
        let mut cfg = tiny_config(4);
        cfg.sketch.kmm = 0;
        let reads = DatasetSpec::Tiny.generate(58).reads;
        assert!(run_dibella_2d_on_reads(&reads, &cfg).is_ok());
    }

    #[test]
    fn an_empty_sketch_read_range_is_an_error_not_an_empty_matrix() {
        let err = kminmer_rejection(|sketch| (sketch.min_reads, sketch.max_reads) = (5, 4));
        assert!(err.contains("sketch.min_reads = 5 must not exceed"), "unexpected error: {err}");
    }

    #[test]
    fn a_density_that_selects_nothing_is_an_error_not_an_empty_matrix() {
        for density in [0.0, -0.5, f64::NAN] {
            let err = kminmer_rejection(|sketch| sketch.density = density);
            let want = "sketch.density must be positive";
            assert!(err.contains(want), "density = {density}: unexpected error: {err}");
        }
    }

    #[test]
    fn kminmer_mode_runs_end_to_end() {
        let ds = DatasetSpec::Tiny.generate(42);
        let mut cfg = tiny_config(4);
        cfg.candidate_source = crate::CandidateSource::KMinMer;
        let out = run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap();
        assert!(out.overlap_matrix.nnz() > 0, "k-min-mer mode must find overlaps");
        assert!(out.string_matrix.nnz() > 0);
        // No k-mer counting happens; the sketch index is accounted instead.
        assert_eq!(out.comm.phase(CommPhase::KmerCounting).words, 0);
        assert!(out.comm.phase(CommPhase::SketchIndex).words > 0);
        assert_eq!(out.timings.count_kmer, 0.0);
        assert!(out.timings.create_spmat > 0.0);
        // dims reports the sketch matrix: k-min-mer columns and its nonzeros.
        let sketch = out.sketch.expect("k-min-mer mode reports its sketch stats");
        assert_eq!(out.dims.kmers as u64, sketch.columns);
        assert_eq!(out.dims.a_nnz as u64, sketch.nnz);
        let (grid, p) = (out.grid, out.grid.nprocs());
        let built = build_sketch_matrix(&ds.reads, &cfg.sketch, grid, p, &CommStats::new()).0;
        assert_eq!(out.dims.a_nnz, built.nnz());
        assert!(sketch.nnz > 0);
        assert!(sketch.hpc_ratio() > 1.0);

        // The sketch matrix must be far smaller than the exact-path A.
        let exact = run_dibella_2d_on_reads(&ds.reads, &tiny_config(4)).unwrap();
        assert!(
            out.dims.a_nnz * 3 < exact.dims.a_nnz,
            "sketch nnz {} vs exact nnz {}",
            out.dims.a_nnz,
            exact.dims.a_nnz
        );
    }

    #[test]
    fn kminmer_mode_is_deterministic_across_workers_and_ranks() {
        let ds = DatasetSpec::Tiny.generate(55);
        let run = |threads: usize, nprocs: usize| {
            dibella_dist::with_threads(threads, || {
                let mut cfg = tiny_config(nprocs);
                cfg.candidate_source = crate::CandidateSource::KMinMer;
                run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap()
            })
        };
        let base = run(1, 1);
        let base_overlap = base.overlap_matrix.to_local_csr();
        let base_string = base.string_matrix.to_local_csr();
        for threads in [2usize, 4] {
            for nprocs in [1usize, 4, 9] {
                let out = run(threads, nprocs);
                let ctx = format!("t={threads} p={nprocs}");
                assert_eq!(out.dims.kmers, base.dims.kmers, "{ctx}");
                assert_eq!(out.dims.a_nnz, base.dims.a_nnz, "{ctx}");
                assert_eq!(out.overlap_matrix.to_local_csr(), base_overlap, "{ctx}");
                assert_eq!(out.string_matrix.to_local_csr(), base_string, "{ctx}");
            }
        }
    }

    #[test]
    fn densities_match_matrix_contents() {
        let ds = DatasetSpec::Tiny.generate(49);
        let cfg = tiny_config(4);
        let out = run_dibella_2d_on_reads(&ds.reads, &cfg).unwrap();
        let n = ds.reads.len() as f64;
        assert!((out.overlap_stats.r_density - out.overlap_matrix.nnz() as f64 / n).abs() < 1e-9);
        assert!((out.tr_summary.s_density - out.string_matrix.nnz() as f64 / n).abs() < 1e-9);
        assert!(out.dims.a_density() > 0.0);
        // A is not an output: pin its size against the A built from the
        // serial reference counter's table.
        let table = dibella_seq::count_kmers_serial(&ds.reads, &cfg.kmer);
        let (grid, p) = (out.grid, out.grid.nprocs());
        let serial_a = build_a_matrix(&ds.reads, &table, cfg.overlap.k, grid, p);
        assert!(out.dims.kmers > 0);
        assert_eq!((out.dims.kmers, out.dims.a_nnz), (serial_a.ncols(), serial_a.nnz()));
        assert_eq!(out.string_matrix.nrows(), ds.reads.len());
    }
}
