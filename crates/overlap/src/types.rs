//! Matrix entry types of the overlap stage.

use dibella_align::BidirectedDir;

/// How many shared k-mer seeds are kept per read pair (a user parameter in the
/// paper; "for this work we store two k-mer positions for each read pair").
pub const MAX_SEEDS: usize = 2;

/// One entry of the `|reads| x |k-mers|` matrix `A`: where (and in which
/// orientation) a reliable k-mer occurs in a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmerOccurrence {
    /// Start position of the k-mer in the read.
    pub pos: u32,
    /// `true` if the k-mer occurs in its canonical orientation at that
    /// position, `false` if its reverse complement does.
    pub forward: bool,
}

/// A shared k-mer between two reads — the alignment seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedSeed {
    /// Position of the k-mer in the row read (`v`).
    pub pos_v: u32,
    /// Position of the k-mer in the column read (`h`), on its stored strand.
    pub pos_h: u32,
    /// `true` if the k-mer has the same orientation in both reads, i.e. the
    /// overlap is a same-strand overlap.
    pub same_strand: bool,
}

/// An inline, allocation-free list of up to [`MAX_SEEDS`] shared seeds.
///
/// The overlap SpGEMM creates one [`CommonKmers`] per accumulated product —
/// hundreds of thousands per multiply — so the seed storage must not touch
/// the heap; a `Vec` here dominated the whole `C = A·Aᵀ` wall-clock before
/// this type replaced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedList {
    seeds: [SharedSeed; MAX_SEEDS],
    len: u8,
}

impl SeedList {
    /// A list holding one seed.
    pub fn from_one(seed: SharedSeed) -> Self {
        let mut list = Self::default();
        list.push(seed);
        list
    }

    /// Number of stored seeds.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no seeds are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a seed; seeds beyond [`MAX_SEEDS`] are silently dropped (the
    /// paper keeps a fixed number of seed positions per pair).
    pub fn push(&mut self, seed: SharedSeed) {
        if (self.len as usize) < MAX_SEEDS {
            self.seeds[self.len as usize] = seed;
            self.len += 1;
        }
    }

    /// The stored seeds as a slice.
    pub fn as_slice(&self) -> &[SharedSeed] {
        &self.seeds[..self.len as usize]
    }

    /// Iterate over the stored seeds.
    pub fn iter(&self) -> impl Iterator<Item = &SharedSeed> {
        self.as_slice().iter()
    }
}

impl std::ops::Index<usize> for SeedList {
    type Output = SharedSeed;
    fn index(&self, i: usize) -> &SharedSeed {
        &self.as_slice()[i]
    }
}

impl IntoIterator for SeedList {
    type Item = SharedSeed;
    type IntoIter = std::iter::Take<std::array::IntoIter<SharedSeed, MAX_SEEDS>>;
    fn into_iter(self) -> Self::IntoIter {
        self.seeds.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a SeedList {
    type Item = &'a SharedSeed;
    type IntoIter = std::slice::Iter<'a, SharedSeed>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One entry of the candidate overlap matrix `C = A·Aᵀ`: the number of shared
/// k-mers between two reads and (up to [`MAX_SEEDS`]) seed positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommonKmers {
    /// Number of shared reliable k-mers.
    pub count: u32,
    /// Stored seed positions (at most [`MAX_SEEDS`]).
    pub seeds: SeedList,
}

impl CommonKmers {
    /// A candidate with a single seed.
    pub fn from_seed(seed: SharedSeed) -> Self {
        Self { count: 1, seeds: SeedList::from_one(seed) }
    }
}

/// One entry of the overlap matrix `R` (and of the string matrix `S`): a
/// bidirected edge annotated with the information transitive reduction needs
/// (Section IV-E — "the length of the overlap suffix and the overlap
/// orientation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapEdge {
    /// Two-bit direction of the edge when walking row-read → column-read.
    pub dir: u8,
    /// Overhang (suffix) length in bases when walking row-read → column-read.
    pub suffix: u32,
    /// Alignment score of the underlying overlap.
    pub score: i32,
    /// Aligned length (overlap length) in bases.
    pub overlap_len: u32,
}

impl OverlapEdge {
    /// The direction as a typed [`BidirectedDir`].
    pub fn direction(&self) -> BidirectedDir {
        BidirectedDir(self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_kmers_from_seed() {
        let seed = SharedSeed { pos_v: 10, pos_h: 20, same_strand: true };
        let ck = CommonKmers::from_seed(seed);
        assert_eq!(ck.count, 1);
        assert_eq!(ck.seeds.as_slice(), &[seed]);
    }

    #[test]
    fn seed_list_caps_at_max_seeds_without_allocating() {
        let mut list = SeedList::default();
        assert!(list.is_empty());
        for i in 0..5u32 {
            list.push(SharedSeed { pos_v: i, pos_h: i + 100, same_strand: i % 2 == 0 });
        }
        assert_eq!(list.len(), MAX_SEEDS, "extra seeds are dropped");
        assert_eq!(list[0].pos_v, 0);
        assert_eq!(list[1].pos_v, 1);
        let by_ref: Vec<u32> = (&list).into_iter().map(|s| s.pos_h).collect();
        assert_eq!(by_ref, vec![100, 101]);
        let by_val: Vec<u32> = list.into_iter().map(|s| s.pos_v).collect();
        assert_eq!(by_val, vec![0, 1]);
    }

    #[test]
    fn overlap_edge_direction_roundtrip() {
        for bits in 0u8..4 {
            let e = OverlapEdge { dir: bits, suffix: 100, score: 50, overlap_len: 400 };
            assert_eq!(e.direction().bits(), bits);
        }
    }
}
