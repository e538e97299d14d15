//! Key → chunk directory.
//!
//! Keys are hashed into chunks (hash partitioning, as in Dynamo-style
//! stores): the map is a pure function of the key and the seed, with no
//! per-key state.

use rlb_hash::mix;

/// Maps keys to chunks.
#[derive(Debug, Clone, Copy)]
pub struct ChunkDirectory {
    num_chunks: usize,
    seed: u64,
}

impl ChunkDirectory {
    /// Creates a directory over `num_chunks` chunks with hashing salted
    /// by `seed`.
    ///
    /// # Panics
    /// Panics if `num_chunks == 0`.
    pub fn new(num_chunks: usize, seed: u64) -> Self {
        assert!(num_chunks > 0, "need at least one chunk");
        Self { num_chunks, seed }
    }

    /// The chunk holding `key`.
    #[inline]
    pub fn chunk_of(&self, key: u64) -> u32 {
        mix::hash_to_range(self.seed, 0x0d17, key, self.num_chunks as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_stable_and_in_range() {
        let d = ChunkDirectory::new(100, 1);
        for key in 0..1000u64 {
            let c = d.chunk_of(key);
            assert!((c as usize) < 100);
            assert_eq!(c, d.chunk_of(key), "unstable mapping for {key}");
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let d = ChunkDirectory::new(50, 2);
        let mut counts = [0u32; 50];
        for key in 0..50_000u64 {
            counts[d.chunk_of(key) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "chunk {i}: {c}");
        }
    }

    #[test]
    fn different_seeds_shuffle_the_mapping() {
        let a = ChunkDirectory::new(1000, 1);
        let b = ChunkDirectory::new(1000, 2);
        let same = (0..1000u64)
            .filter(|&k| a.chunk_of(k) == b.chunk_of(k))
            .count();
        assert!(same < 30, "mappings too similar: {same}");
    }
}
