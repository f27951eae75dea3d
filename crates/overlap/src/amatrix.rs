//! Construction of the `|reads| x |k-mers|` occurrence matrix `A`.
//!
//! Section IV-D: "The local k-mer hash table and the local sequences are used
//! to create a distributed |sequences|-by-|k-mers| matrix A.  A nonzero `A_ij`
//! stores the position of the j-th k-mer in the i-th sequence."  Reads are
//! block-partitioned over virtual ranks for the construction.  A rank walks
//! each of its reads once and hands it over as a finished row, which
//! [`DistMat2D::from_sorted_rows`] appends to the 2D blocks its columns fall
//! in — distributed exactly as CombBLAS would, with no triple list in between.

use crate::types::KmerOccurrence;
use dibella_dist::ProcessGrid;
use dibella_seq::{KmerIter, KmerTable, ReadSet};
use dibella_sparse::DistMat2D;

/// Build the occurrence matrix `A` (reads × reliable k-mers), distributed over
/// `grid`, identically for any `construction_ranks`.
///
/// If a reliable k-mer occurs more than once in a read, the first occurrence
/// is kept (one position per nonzero, as in BELLA's `A` matrix).
pub fn build_a_matrix(
    reads: &ReadSet,
    table: &KmerTable,
    k: usize,
    grid: ProcessGrid,
    construction_ranks: usize,
) -> DistMat2D<KmerOccurrence> {
    assert!(construction_ranks > 0);
    DistMat2D::from_sorted_rows(grid, reads.len(), table.len(), construction_ranks, |read, row| {
        let hits = KmerIter::new(reads.seq(read), k).filter_map(|(pos, _, canon)| {
            Some((table.column_of(&canon.kmer)?, pos as u32, canon.was_forward))
        });
        fill_a_row(hits, row);
    })
}

/// Fill `row` with one read's row of `A` from its `(column, position,
/// forward)` hits, by column, keeping a column's first position.  Both
/// candidate paths build their rows with it.
pub fn fill_a_row(
    hits: impl IntoIterator<Item = (u32, u32, bool)>,
    row: &mut Vec<(usize, KmerOccurrence)>,
) {
    // A hit is `column · 2³² + position · 2 + strand`: sorting the words
    // orders a read's hits by column and, within a column, by position,
    // so the one `dedup` keeps is the first occurrence.
    let mut hits: Vec<u64> = hits
        .into_iter()
        .map(|(col, pos, forward)| u64::from(col) << 32 | u64::from(pos) << 1 | u64::from(!forward))
        .collect();
    hits.sort_unstable();
    hits.dedup_by_key(|hit| *hit >> 32);
    row.extend(hits.into_iter().map(|hit| {
        let occ = KmerOccurrence { pos: (hit as u32) >> 1, forward: hit & 1 == 0 };
        ((hit >> 32) as usize, occ)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_seq::{count_kmers_serial, parse_fasta, DatasetSpec, Kmer, KmerSelection};

    fn tiny_setup(k: usize) -> (ReadSet, KmerTable) {
        let ds = DatasetSpec::Tiny.generate(19);
        let sel = KmerSelection { k, min_count: 2, max_count: 50 };
        let table = count_kmers_serial(&ds.reads, &sel);
        (ds.reads, table)
    }

    #[test]
    fn a_matrix_dimensions_match_reads_by_kmers() {
        let (reads, table) = tiny_setup(11);
        let grid = ProcessGrid::square(4);
        let a = build_a_matrix(&reads, &table, 11, grid, 4);
        assert_eq!(a.nrows(), reads.len());
        assert_eq!(a.ncols(), table.len());
        assert!(a.nnz() > 0);
    }

    #[test]
    fn entries_point_at_real_occurrences() {
        let (reads, table) = tiny_setup(11);
        let grid = ProcessGrid::square(1);
        let a = build_a_matrix(&reads, &table, 11, grid, 3);
        let local = a.to_local_csr();
        let mut checked = 0;
        for (read_idx, col, occ) in local.iter() {
            let expected_canon = table.kmer_at(col as u32);
            let seq = reads.seq(read_idx);
            let window = seq.slice(occ.pos as usize, occ.pos as usize + 11);
            let found = Kmer::from_codes(window.codes());
            let canon = found.canonical();
            assert_eq!(canon.kmer, expected_canon, "stored position must contain the k-mer");
            assert_eq!(canon.was_forward, occ.forward, "orientation flag must match");
            checked += 1;
            if checked > 200 {
                break;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn construction_rank_count_does_not_change_the_matrix() {
        let (reads, table) = tiny_setup(9);
        let grid = ProcessGrid::square(4);
        let a1 = build_a_matrix(&reads, &table, 9, grid, 1);
        let a4 = build_a_matrix(&reads, &table, 9, grid, 4);
        let a7 = build_a_matrix(&reads, &table, 9, grid, 7);
        assert_eq!(a1.to_local_csr(), a4.to_local_csr());
        assert_eq!(a1.to_local_csr(), a7.to_local_csr());
    }

    #[test]
    fn duplicate_kmers_within_a_read_store_one_position() {
        // A read with the same 4-mer repeated: AAAA appears many times but the
        // matrix keeps a single entry (the first).
        let reads = parse_fasta(">r0\nAAAAAAAACGCG\n>r1\nAAAAAAAACGCG\n").unwrap();
        let sel = KmerSelection { k: 4, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        let grid = ProcessGrid::square(1);
        let a = build_a_matrix(&reads, &table, 4, grid, 2);
        let local = a.to_local_csr();
        let aaaa = Kmer::from_ascii(b"AAAA").unwrap().canonical().kmer;
        let col = table.column_of(&aaaa).unwrap() as usize;
        let occ = local.get(0, col).expect("AAAA entry for read 0");
        assert_eq!(occ.pos, 0, "first occurrence wins");
        // One entry per (read, kmer) pair even though AAAA occurs 5 times.
        assert_eq!(local.row(0).filter(|(c, _)| *c == col).count(), 1);
    }

    #[test]
    fn reads_shorter_than_k_produce_no_entries() {
        let reads = parse_fasta(">a\nACG\n>b\nACGTACGTACGT\n>c\nACGTACGTACGT\n").unwrap();
        let sel = KmerSelection { k: 6, min_count: 2, max_count: 100 };
        let table = count_kmers_serial(&reads, &sel);
        let a = build_a_matrix(&reads, &table, 6, ProcessGrid::square(1), 2);
        let local = a.to_local_csr();
        assert_eq!(local.row_nnz(0), 0);
        assert!(local.row_nnz(1) > 0);
    }
}
