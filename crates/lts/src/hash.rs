//! The one hash function of the crate: the FxHash mixing step (rotate, xor,
//! multiply) over 8-byte words, then a final avalanche.
//!
//! It is deterministic, so nothing it touches varies from run to run, and
//! cheap on the short keys it sees once per explored transition (action
//! labels, canonical state encodings), where SipHash's per-call set-up
//! would dominate. It routes the action interner and the arena index, where
//! equality still decides, and checksums spilled segments (a change to any
//! one word always changes the hash, since every step is a bijection of the
//! running value; the segment length is checked separately). It is not
//! collision-resistant: tables keyed by outside input (`.aut` import) keep
//! std's `RandomState`. Nothing persisted depends on it: snapshots and
//! cache keys use the stable [`crate::snapshot::fnv1a`].

use std::hash::Hasher;

/// [`Hasher`] over 8-byte words; see the module documentation.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    /// The running value after an avalanche, so the high bits (which the
    /// arena index uses as its tag, and whose low bits pick the probe slot)
    /// depend on every input bit.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^ (h >> 29)
    }
}

/// The [`WordHasher`] hash of `bytes`.
#[inline]
pub(crate) fn word_hash(bytes: &[u8]) -> u64 {
    let mut h = WordHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flipping any single bit of a segment changes its checksum.
    #[test]
    fn every_single_bit_flip_changes_the_hash() {
        let bytes: Vec<u8> = (0..37u8).map(|b| b.wrapping_mul(29)).collect();
        let base = word_hash(&bytes);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(word_hash(&flipped), base, "byte {i} bit {bit}");
            }
        }
    }
}
