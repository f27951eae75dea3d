//! Homopolymer compression (HPC) with an exact compressed→raw coordinate map.
//!
//! Long-read sketching pipelines (mapquik, minimap2's `--hpc` mode) collapse
//! each run of identical bases to a single base before selecting minimizers:
//! PacBio/ONT insertion and deletion errors concentrate in homopolymer runs,
//! so two reads of the same locus agree far more often in HPC space than in
//! raw space.  Downstream consumers (seed placement for x-drop alignment)
//! still work in raw coordinates, so the compression must be *invertible at
//! the coordinate level*: every compressed position maps back to the raw run
//! `[raw_start, raw_end)` it was collapsed from.
//!
//! [`HpcSeq`] stores the compressed sequence together with that exact map.
//! The map costs 4 bytes per compressed base, which is bounded by 4 bytes per
//! raw base — small next to the `ReadSet` itself, and only materialised while
//! a read is being sketched.

use crate::dna::DnaSeq;

/// A homopolymer-compressed sequence plus the exact compressed→raw
/// coordinate map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpcSeq {
    /// The compressed sequence (one base per homopolymer run).
    compressed: DnaSeq,
    /// `run_starts[i]` is the raw index of the first base of run `i`.
    /// Monotonically increasing; `run_starts.len() == compressed.len()`.
    run_starts: Vec<u32>,
    /// Length of the raw sequence the compression was computed from.
    raw_len: u32,
}

impl HpcSeq {
    /// Compress `raw` by collapsing each maximal run of identical bases to a
    /// single base, recording where each run starts in raw coordinates.
    pub fn compress(raw: &DnaSeq) -> HpcSeq {
        let mut compressed = DnaSeq::new();
        let mut run_starts = Vec::new();
        let mut prev: Option<u8> = None;
        for (i, &code) in raw.codes().iter().enumerate() {
            if prev != Some(code) {
                compressed.push_code(code);
                run_starts.push(i as u32);
                prev = Some(code);
            }
        }
        HpcSeq { compressed, run_starts, raw_len: raw.len() as u32 }
    }

    /// The compressed sequence.
    pub fn compressed(&self) -> &DnaSeq {
        &self.compressed
    }

    /// Length of the compressed sequence (number of homopolymer runs).
    pub fn len(&self) -> usize {
        self.compressed.len()
    }

    /// Whether the source sequence was empty.
    pub fn is_empty(&self) -> bool {
        self.compressed.is_empty()
    }

    /// Length of the raw sequence this was compressed from.
    pub fn raw_len(&self) -> usize {
        self.raw_len as usize
    }

    /// Raw coordinate of the first base of the run at compressed position
    /// `i` — the exact decompression of a compressed coordinate.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn decompress_coord(&self, i: usize) -> usize {
        self.run_starts[i] as usize
    }

    /// Exclusive raw end of the run at compressed position `i`, so the run
    /// occupies `decompress_coord(i)..raw_end(i)` in the raw sequence.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn raw_end(&self, i: usize) -> usize {
        if i + 1 < self.run_starts.len() {
            self.run_starts[i + 1] as usize
        } else {
            self.raw_len as usize
        }
    }

    /// The compressed position whose run contains raw coordinate `raw_pos`.
    ///
    /// # Panics
    /// Panics if `raw_pos >= self.raw_len()`.
    pub fn compress_coord(&self, raw_pos: usize) -> usize {
        assert!(raw_pos < self.raw_len(), "raw position {raw_pos} out of range");
        // The run owning raw_pos is the last run starting at or before it.
        match self.run_starts.binary_search(&(raw_pos as u32)) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasta::parse_fasta;
    use proptest::prelude::*;

    #[test]
    fn compresses_runs_to_single_bases() {
        let raw: DnaSeq = "AAACCGTTTT".parse().unwrap();
        let hpc = HpcSeq::compress(&raw);
        assert_eq!(hpc.compressed().to_ascii(), "ACGT");
        assert_eq!(hpc.decompress_coord(0), 0); // AAA starts at 0
        assert_eq!(hpc.decompress_coord(1), 3); // CC starts at 3
        assert_eq!(hpc.decompress_coord(2), 5); // G starts at 5
        assert_eq!(hpc.decompress_coord(3), 6); // TTTT starts at 6
        assert_eq!(hpc.raw_end(3), 10);
        assert_eq!(hpc.raw_len(), 10);
    }

    #[test]
    fn empty_sequence_compresses_to_empty() {
        let hpc = HpcSeq::compress(&DnaSeq::new());
        assert!(hpc.is_empty());
        assert_eq!(hpc.len(), 0);
        assert_eq!(hpc.raw_len(), 0);
    }

    #[test]
    fn run_free_sequence_is_unchanged() {
        let raw: DnaSeq = "ACGTACGT".parse().unwrap();
        let hpc = HpcSeq::compress(&raw);
        assert_eq!(hpc.compressed(), &raw);
        for i in 0..8 {
            assert_eq!(hpc.decompress_coord(i), i);
            assert_eq!(hpc.raw_end(i), i + 1);
            assert_eq!(hpc.compress_coord(i), i);
        }
    }

    #[test]
    fn crlf_and_lowercase_fasta_inputs_compress_identically() {
        // The FASTA parser must normalise CRLF line endings and lowercase
        // bases before compression ever sees them.
        let plain = parse_fasta(">r\nAAACCGGGGT\n").unwrap();
        let crlf = parse_fasta(">r\r\nAAACC\r\nGGGGT\r\n").unwrap();
        let lower = parse_fasta(">r\naaaccggggt\n").unwrap();
        let h_plain = HpcSeq::compress(plain.seq(0));
        assert_eq!(h_plain, HpcSeq::compress(crlf.seq(0)));
        assert_eq!(h_plain, HpcSeq::compress(lower.seq(0)));
        assert_eq!(h_plain.compressed().to_ascii(), "ACGT");
    }

    fn arb_seq() -> impl Strategy<Value = DnaSeq> {
        // Small alphabet-run structure: sample (code, run length) pairs so
        // homopolymer runs are common.
        proptest::collection::vec((0u8..4, 1usize..6), 0..60).prop_map(|runs| {
            let mut seq = DnaSeq::new();
            for (code, len) in runs {
                for _ in 0..len {
                    seq.push_code(code);
                }
            }
            seq
        })
    }

    proptest! {
        // `decompress_coord(compress(seq))` maps every compressed position
        // back into its source run: the run is non-empty, uniform, equal to
        // the compressed base, and maximal (neighbouring bases differ).
        #[test]
        fn prop_every_compressed_position_maps_into_its_source_run(raw in arb_seq()) {
            let hpc = HpcSeq::compress(&raw);
            let mut covered = 0usize;
            for i in 0..hpc.len() {
                let start = hpc.decompress_coord(i);
                let end = hpc.raw_end(i);
                prop_assert!(start < end, "run {i} is empty");
                prop_assert_eq!(start, covered, "runs must tile the raw sequence");
                let code = hpc.compressed().code(i);
                for raw_pos in start..end {
                    prop_assert_eq!(raw.code(raw_pos), code);
                    prop_assert_eq!(hpc.compress_coord(raw_pos), i);
                }
                // Maximality: the base before/after the run differs.
                if start > 0 {
                    prop_assert!(raw.code(start - 1) != code);
                }
                if end < raw.len() {
                    prop_assert!(raw.code(end) != code);
                }
                covered = end;
            }
            prop_assert_eq!(covered, raw.len());
        }

        // HPC commutes with reverse complement: compressing the reverse
        // complement yields the reverse complement of the compressed
        // sequence (run structure is strand-symmetric).
        #[test]
        fn prop_hpc_commutes_with_reverse_complement(raw in arb_seq()) {
            let fwd = HpcSeq::compress(&raw);
            let rev = HpcSeq::compress(&raw.reverse_complement());
            prop_assert_eq!(rev.compressed(), &fwd.compressed().reverse_complement());
        }

        // Round-trip through FASTA text with CRLF line endings and lowercase
        // bases reaches the same compression as the direct path.
        #[test]
        fn prop_crlf_lowercase_fasta_roundtrip(raw in arb_seq()) {
            if raw.is_empty() {
                return Ok(()); // the FASTA writer/parser round-trip needs a body
            }
            let ascii = raw.to_ascii().to_lowercase();
            // Wrap at 17 columns with CRLF endings to exercise mid-run splits.
            let mut text = String::from(">read\r\n");
            for chunk in ascii.as_bytes().chunks(17) {
                text.push_str(std::str::from_utf8(chunk).unwrap());
                text.push_str("\r\n");
            }
            let parsed = parse_fasta(&text).unwrap();
            prop_assert_eq!(HpcSeq::compress(parsed.seq(0)), HpcSeq::compress(&raw));
        }
    }
}
