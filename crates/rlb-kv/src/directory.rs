//! Key → chunk directory.
//!
//! Keys are hashed into chunks (hash partitioning, as in Dynamo-style
//! stores). A bounded override table lets an operator pin specific keys
//! to specific chunks (e.g. to colocate a tenant).

use rlb_hash::mix;
use std::collections::BTreeMap;

/// Maps keys to chunks.
#[derive(Debug, Clone)]
pub struct ChunkDirectory {
    num_chunks: usize,
    seed: u64,
    overrides: BTreeMap<u64, u32>,
    override_capacity: usize,
}

impl ChunkDirectory {
    /// Creates a directory over `num_chunks` chunks with hashing salted
    /// by `seed`, and space for `override_capacity` (at least 4) pinned
    /// keys.
    ///
    /// # Panics
    /// Panics if `num_chunks == 0`.
    pub fn new(num_chunks: usize, seed: u64, override_capacity: usize) -> Self {
        assert!(num_chunks > 0, "need at least one chunk");
        Self {
            num_chunks,
            seed,
            overrides: BTreeMap::new(),
            override_capacity: override_capacity.max(4),
        }
    }

    /// The chunk holding `key`.
    #[inline]
    pub fn chunk_of(&self, key: u64) -> u32 {
        // No daemon, workload or CLI path pins a key, so the table is
        // usually empty, where `get` is a single root-is-`None` check.
        if let Some(&c) = self.overrides.get(&key) {
            return c;
        }
        mix::hash_to_range(self.seed, 0x0d17, key, self.num_chunks as u64) as u32
    }

    /// Pins `key` to `chunk`, overriding the hash placement.
    ///
    /// # Errors
    /// Returns an error message if the override table is full.
    ///
    /// # Panics
    /// Panics if `chunk` is out of range.
    pub fn pin(&mut self, key: u64, chunk: u32) -> Result<(), String> {
        assert!((chunk as usize) < self.num_chunks, "chunk out of range");
        if self.overrides.len() >= self.override_capacity && !self.overrides.contains_key(&key) {
            return Err("override table full".to_string());
        }
        self.overrides.insert(key, chunk);
        Ok(())
    }

    /// Removes a pin, restoring hash placement for `key`.
    pub fn unpin(&mut self, key: u64) -> bool {
        self.overrides.remove(&key).is_some()
    }

    /// Number of chunks.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// Number of active overrides.
    pub fn pinned(&self) -> usize {
        self.overrides.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_stable_and_in_range() {
        let d = ChunkDirectory::new(100, 1, 8);
        for key in 0..1000u64 {
            let c = d.chunk_of(key);
            assert!((c as usize) < 100);
            assert_eq!(c, d.chunk_of(key), "unstable mapping for {key}");
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let d = ChunkDirectory::new(50, 2, 8);
        let mut counts = [0u32; 50];
        for key in 0..50_000u64 {
            counts[d.chunk_of(key) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "chunk {i}: {c}");
        }
    }

    #[test]
    fn pin_and_unpin() {
        let mut d = ChunkDirectory::new(10, 3, 8);
        let key = 12345u64;
        let natural = d.chunk_of(key);
        let target = (natural + 1) % 10;
        d.pin(key, target).unwrap();
        assert_eq!(d.chunk_of(key), target);
        assert_eq!(d.pinned(), 1);
        assert!(d.unpin(key));
        assert_eq!(d.chunk_of(key), natural);
        assert!(!d.unpin(key));
    }

    #[test]
    fn pin_table_is_bounded_at_its_capacity() {
        let capacity = 6;
        let mut d = ChunkDirectory::new(10, 3, capacity);
        let bystander = 999u64;
        let natural = d.chunk_of(bystander);
        for key in 0..capacity as u64 {
            d.pin(key, 1).unwrap();
        }
        assert_eq!(d.pinned(), capacity);
        assert_eq!(d.pin(100, 1), Err("override table full".to_string()));
        d.pin(0, 2)
            .expect("re-pinning a pinned key needs no new slot");
        assert_eq!((d.chunk_of(0), d.pinned()), (2, capacity));
        assert_eq!(d.chunk_of(bystander), natural, "pins are per key");
        assert!(d.unpin(3));
        d.pin(100, 1).expect("unpin freed a slot");
        assert_eq!(d.pinned(), capacity);
    }

    #[test]
    fn different_seeds_shuffle_the_mapping() {
        let a = ChunkDirectory::new(1000, 1, 4);
        let b = ChunkDirectory::new(1000, 2, 4);
        let same = (0..1000u64)
            .filter(|&k| a.chunk_of(k) == b.chunk_of(k))
            .count();
        assert!(same < 30, "mappings too similar: {same}");
    }

    #[test]
    #[should_panic(expected = "chunk out of range")]
    fn pin_out_of_range_panics() {
        let mut d = ChunkDirectory::new(4, 0, 4);
        let _ = d.pin(1, 9);
    }
}
