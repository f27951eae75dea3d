//! The wire sizes of simulated traffic, in 8-byte words: every charge posts
//! them and the Table I model (`dibella_pipeline::CommModel`) prices them
//! from here.  Sequences travel 2-bit packed, as in the paper's `nlk/4P`.

/// A stored entry of a Sparse SUMMA operand (`A`, `Aᵀ`, `R`): value and
/// column index.
pub const SPGEMM_ENTRY: u64 = 2;

/// A partial entry of the 1D outer-product reduction: row, column,
/// shared-k-mer count and one seed.
pub const OUTER1D_ENTRY: u64 = 4;

/// A pattern entry of the transitive reduction's `Iᵀ`: row and column.
pub const PATTERN_ENTRY: u64 = 2;

/// One id or key: a read id of a block range's order, a k-min-mer key.
pub const ID: u64 = 1;

/// The paper's k-mer counter exchanges every k-mer twice (a Bloom-filter
/// pass, then a counting pass): Table I's `b`.
pub const KMER_PASSES: u64 = 2;

/// One read of `len` bases: 2-bit packed, plus a header word.
pub fn read_words(len: usize) -> u64 {
    (len as u64).div_ceil(32) + 1
}

/// One k-mer of length `k`, 2-bit packed.
pub fn kmer_words(k: usize) -> u64 {
    (k as u64).div_ceil(32)
}

/// A bitmap of `n` flags, such as the alignment waves' contained reads.
pub fn bitmap_words(n: usize) -> u64 {
    n.div_ceil(64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_round_up_to_whole_words() {
        assert_eq!(kmer_words(17), 1, "a 17-mer packs into one word");
        assert_eq!((kmer_words(32), kmer_words(33)), (1, 2));
        assert_eq!(read_words(8_000), 8_000 / 32 + 1);
        assert_eq!((read_words(0), read_words(1), read_words(33)), (1, 2, 3));
        assert_eq!((bitmap_words(0), bitmap_words(64), bitmap_words(65)), (0, 1, 2));
    }
}
