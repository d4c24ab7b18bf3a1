//! Stable, dependency-free content hashing.
//!
//! The incremental analysis session (`araa::session`) keys its
//! per-procedure summary cache by a *content* hash of the procedure IR,
//! so the hash must be stable across runs, platforms, and — unlike
//! `std::collections::hash_map::DefaultHasher` — across process
//! invocations (SipHash is randomly keyed per process). Every
//! fingerprint, file key, extraction-environment hash, container checksum
//! and content address goes through the one [`StableHasher`].
//!
//! [`StableHasher`] mixes one 64-bit word per step. Every typed write is
//! one word; [`StableHasher::write_bytes`] takes 8 bytes (little-endian)
//! per step, then mixes the 0–7 byte tail as one word tagged with the
//! tail's length. A step is `state = rotl((state ^ word) · K, R)` with an
//! odd `K`, so for a fixed word it is a bijection of the state, and the
//! finalizer in [`StableHasher::finish`] is a bijection too. Two inputs
//! that feed the same sequence of writes and differ in one word — one
//! byte of a byte stream, in particular — therefore always hash
//! differently: the detection guarantee the container checksum in
//! [`crate::persist`] rests on.
//!
//! The hash is not collision-resistant; every cache that uses these hashes
//! as keys must verify candidate hits structurally before reusing them
//! (see `whirl::hash::procs_correspond`), so a collision costs a cache
//! miss, never a wrong result.
//!
//! [`fnv1a`] stays byte-serial 64-bit FNV-1a: it seals the checksum
//! trailers of the text artifacts (`.rgn`, `.dgn`, `.cfg`) and names the
//! serve daemon's project directories, values already on disk whose
//! meaning must not change.

/// The state a fresh [`StableHasher`] starts from.
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// The odd multiplier of one mixing step.
const K: u64 = 0x9e37_79b9_7f4a_7c15;
/// The rotation of one mixing step: it brings the product's well-mixed
/// high bits down to where the next step's multiply spreads them upward.
const R: u32 = 31;

/// An incrementally-fed word-at-a-time hasher with typed write helpers.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        StableHasher { state: SEED }
    }

    /// Mixes one word.
    #[inline]
    fn step(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(K).rotate_left(R);
    }

    /// Mixes the 0–7 bytes left after a byte stream's whole words, as one
    /// word tagged with their count in its top byte.
    #[inline]
    fn mix_tail(&mut self, tail: &[u8]) {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        word[7] = tail.len() as u8;
        self.step(u64::from_le_bytes(word));
    }

    /// Feeds raw bytes, 8 at a time, then the tail.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.step(u64::from_le_bytes(word));
        }
        self.mix_tail(words.remainder());
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.step(u64::from(v));
    }

    /// Feeds a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.step(u64::from(v));
    }

    /// Feeds a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.step(v);
    }

    /// Feeds an `i64` (its two's complement bits).
    pub fn write_i64(&mut self, v: i64) {
        self.step(v as u64);
    }

    /// Feeds a `usize` widened to 64 bits so 32- and 64-bit targets agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Feeds the concatenation of `parts` exactly as [`write_str`]
    /// would feed it whole, without building it.
    ///
    /// [`write_str`]: Self::write_str
    pub fn write_str_parts(&mut self, parts: &[&str]) {
        self.write_usize(parts.iter().map(|p| p.len()).sum());
        let mut word = [0u8; 8];
        let mut filled = 0;
        for &b in parts.iter().flat_map(|p| p.as_bytes()) {
            word[filled] = b;
            filled += 1;
            if filled == 8 {
                self.step(u64::from_le_bytes(word));
                filled = 0;
            }
        }
        self.mix_tail(&word[..filled]);
    }

    /// The current hash value (the state through the finalizer; the
    /// hasher can keep being fed).
    pub fn finish(&self) -> u64 {
        // MurmurHash3's 64-bit finalizer: xor-shifts and odd multiplies,
        // each a bijection.
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The byte-serial 64-bit FNV-1a hash of a byte slice: the checksum of
/// the text artifacts' trailers and the name of a serve project's
/// directory.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefix_disambiguates_strings() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn typed_writes_are_order_sensitive() {
        let mut a = StableHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StableHasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = StableHasher::new();
        let mut b = StableHasher::new();
        for h in [&mut a, &mut b] {
            h.write_str("verify");
            h.write_i64(-7);
            h.write_u8(3);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn tails_are_tagged_with_their_length() {
        // Without the tag, a trailing zero byte would hash like no byte.
        let hash = |bytes: &[u8]| {
            let mut h = StableHasher::new();
            h.write_bytes(bytes);
            h.finish()
        };
        for len in 0..24 {
            let shorter = vec![0u8; len];
            let longer = vec![0u8; len + 1];
            assert_ne!(hash(&shorter), hash(&longer), "{len}");
        }
    }

    #[test]
    fn parts_hash_as_their_concatenation() {
        let whole = "a_rather_long_object_stem_name.o";
        for cut in 0..=whole.len() {
            let (head, tail) = whole.split_at(cut);
            let mut a = StableHasher::new();
            a.write_str(whole);
            let mut b = StableHasher::new();
            b.write_str_parts(&[head, tail]);
            assert_eq!(a.finish(), b.finish(), "cut at {cut}");
        }
        let mut a = StableHasher::new();
        a.write_str("");
        let mut b = StableHasher::new();
        b.write_str_parts(&[]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn finish_does_not_consume_the_state() {
        let mut a = StableHasher::new();
        a.write_bytes(b"body");
        let mid = a.finish();
        a.write_u64(mid);
        let mut b = StableHasher::new();
        b.write_bytes(b"body");
        b.write_u64(mid);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), mid);
    }
}
