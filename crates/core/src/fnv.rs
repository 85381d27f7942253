//! 64-bit FNV-1a, the workspace's one stable non-cryptographic digest.
//!
//! The fingerprints reports embed (fault plans, arrival traces, output
//! tensors, merged fleets) and the label hash behind
//! [`crate::seed::derive`] all feed little-endian bytes through
//! [`Fnv1a`], so every digest is the same on every platform, release
//! and process — unlike `std`'s randomly keyed `DefaultHasher`.

/// A running 64-bit FNV-1a digest; [`Default`] is the empty digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The FNV-1a offset basis.
    #[inline]
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feeds `bytes` in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Feeds `word`'s eight little-endian bytes.
    #[inline]
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// The digest of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(bytes: &[u8]) -> u64 {
        let mut hash = Fnv1a::default();
        hash.bytes(bytes);
        hash.finish()
    }

    #[test]
    fn matches_the_standard_fnv1a_64_vectors() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_word_is_its_little_endian_bytes() {
        let word = 0x0123_4567_89ab_cdef_u64;
        let mut hash = Fnv1a::default();
        hash.word(word);
        assert_eq!(hash.finish(), digest(&word.to_le_bytes()));
    }
}
