//! A Bloom filter for singleton k-mer elimination.
//!
//! Section IV-C: "diBELLA 2D eliminates singletons using a Bloom filter during
//! k-mer counting".  The filter answers "have I seen this k-mer before?" with
//! no false negatives; a k-mer is only inserted into the counting hash table
//! the second time it is seen, so true singletons never occupy table memory.

use serde::{Deserialize, Serialize};

/// A fixed-size Bloom filter over 64-bit keys.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BloomFilter {
    bits: Vec<u64>,
    nbits: u64,
    nhashes: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Create a filter sized for `expected_items` at the given false-positive
    /// rate (standard optimal sizing: `m = -n·ln(p)/ln(2)²`, `h = m/n·ln(2)`).
    pub fn with_rate(expected_items: usize, false_positive_rate: f64) -> Self {
        assert!(
            false_positive_rate > 0.0 && false_positive_rate < 1.0,
            "false positive rate must be in (0, 1)"
        );
        let n = expected_items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * false_positive_rate.ln() / (ln2 * ln2)).ceil().max(64.0) as u64;
        let h = ((m as f64 / n) * ln2).round().clamp(1.0, 16.0) as u32;
        Self::new(m, h)
    }

    /// Create a filter with an explicit number of bits and hash functions.
    pub fn new(nbits: u64, nhashes: u32) -> Self {
        assert!(nbits > 0 && nhashes > 0);
        let words = nbits.div_ceil(64) as usize;
        Self { bits: vec![0u64; words], nbits, nhashes, inserted: 0 }
    }

    /// The `nhashes` probe sites of a key as `(word, bit mask)`, by double
    /// hashing (Kirsch–Mitzenmacher): `h_i = h1 + i·h2`, scaled from `u64`
    /// onto `0..nbits` by a multiply-shift rather than `%` — a 64-bit
    /// division per probe costs more than the probe (measured: a third of
    /// the counter's pass 1 on noisy reads).
    fn probes(&self, key: u64) -> impl Iterator<Item = (usize, u64)> {
        let h1 = splitmix(key);
        let h2 = splitmix(key ^ 0x9E3779B97F4A7C15) | 1;
        let nbits = self.nbits;
        (0..self.nhashes as u64).map(move |i| {
            let h = h1.wrapping_add(i.wrapping_mul(h2));
            let pos = ((h as u128 * nbits as u128) >> 64) as u64;
            ((pos / 64) as usize, 1u64 << (pos % 64))
        })
    }

    /// Insert a key; returns `true` if the key **might** have been present
    /// already (all bits were set), `false` if it was definitely new.
    pub fn insert(&mut self, key: u64) -> bool {
        let mut already = true;
        for (word, bit) in self.probes(key) {
            already &= self.bits[word] & bit != 0;
            self.bits[word] |= bit;
        }
        self.inserted += 1;
        already
    }

    /// Whether the key might have been inserted (false positives possible,
    /// false negatives impossible).
    pub fn contains(&self, key: u64) -> bool {
        self.probes(key).all(|(word, bit)| self.bits[word] & bit != 0)
    }

    /// Number of bits in the filter.
    pub fn nbits(&self) -> u64 {
        self.nbits
    }

    /// Number of hash functions.
    pub fn nhashes(&self) -> u32 {
        self.nhashes
    }

    /// Number of insert operations performed.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::with_rate(1000, 0.01);
        for key in 0..1000u64 {
            bf.insert(key.wrapping_mul(0x5851F42D4C957F2D));
        }
        for key in 0..1000u64 {
            assert!(bf.contains(key.wrapping_mul(0x5851F42D4C957F2D)));
        }
    }

    #[test]
    fn first_insert_reports_new() {
        let mut bf = BloomFilter::with_rate(100, 0.01);
        assert!(!bf.insert(42));
        assert!(bf.insert(42), "second insert of the same key must report seen");
    }

    #[test]
    fn false_positive_rate_is_roughly_as_configured() {
        let mut bf = BloomFilter::with_rate(10_000, 0.01);
        for key in 0..10_000u64 {
            bf.insert(splitmix(key));
        }
        let mut false_positives = 0;
        let probes = 10_000u64;
        for key in 0..probes {
            if bf.contains(splitmix(key + 1_000_000)) {
                false_positives += 1;
            }
        }
        let rate = false_positives as f64 / probes as f64;
        assert!(rate < 0.05, "false positive rate {rate} too high for a 1% filter");
    }

    #[test]
    fn empty_filter_contains_nothing_set() {
        let bf = BloomFilter::new(1024, 3);
        assert!(!bf.contains(7));
        assert_eq!(bf.inserted(), 0);
    }

    #[test]
    fn sizing_grows_with_item_count_and_shrinks_with_rate() {
        let small = BloomFilter::with_rate(100, 0.01);
        let large = BloomFilter::with_rate(10_000, 0.01);
        assert!(large.nbits() > small.nbits());
        let loose = BloomFilter::with_rate(1000, 0.1);
        let tight = BloomFilter::with_rate(1000, 0.001);
        assert!(tight.nbits() > loose.nbits());
        assert!(tight.nhashes() >= loose.nhashes());
    }

    proptest! {
        #[test]
        fn prop_inserted_keys_are_always_found(keys in proptest::collection::btree_set(any::<u64>(), 1..500)) {
            let mut bf = BloomFilter::with_rate(keys.len(), 0.01);
            for &k in &keys {
                bf.insert(k);
            }
            for &k in &keys {
                prop_assert!(bf.contains(k));
            }
        }
    }
}
