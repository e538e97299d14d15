//! One bit per chunk of a generator's universe: the membership test a
//! generator uses while it writes one step's distinct chunks.

/// Chunks marked so far this step, one bit per chunk id.
///
/// It is clear between steps. A generator marks each chunk as it emits
/// it, and once the step is written it zeroes the word of every chunk
/// it emitted, which clears every mark: a step costs O(chunks emitted),
/// whatever the universe.
#[derive(Debug, Clone)]
pub(crate) struct ChunkBitmap {
    words: Vec<u64>,
}

impl ChunkBitmap {
    /// A clear bitmap over chunk ids `0..universe`.
    pub(crate) fn new(universe: u64) -> Self {
        assert_chunk_universe(universe);
        Self {
            words: vec![0; universe.div_ceil(64) as usize],
        }
    }

    /// Marks `c`; `false` if it was already marked.
    #[inline]
    pub(crate) fn insert(&mut self, c: u32) -> bool {
        let bit = 1 << (c & 63);
        let word = &mut self.words[(c >> 6) as usize];
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    /// Clears the step: `emitted` must hold every chunk marked since the
    /// bitmap was last clear.
    pub(crate) fn clear(&mut self, emitted: &[u32]) {
        for &c in emitted {
            self.words[(c >> 6) as usize] = 0;
        }
    }

    /// Whether no chunk is marked.
    #[cfg(test)]
    pub(crate) fn is_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Refuses a chunk universe whose ids do not all fit the `u32` a
/// generator emits: past 2^32, two draws could name one chunk.
///
/// # Panics
/// Panics if `universe > 2^32`.
pub(crate) fn assert_chunk_universe(universe: u64) {
    assert!(
        universe <= 1 << 32,
        "chunk universe must be at most 2^32, got {universe}"
    );
}
