//! A fast, deterministic hasher for simulator-internal maps.
//!
//! The machine models key their hot maps — coherence directories, MSHR
//! tables, message inboxes — by small integers (block addresses, node
//! ids, message tags). `std`'s default SipHash is DoS-resistant but costs
//! more than the lookup it guards; profiles of the paper-scale EM3D runs
//! showed `HashMap::get` alone near a quarter of total wall clock. These
//! keys are simulator-internal and never attacker-controlled, so a
//! multiplicative Fibonacci-style hash (the FxHash construction used by
//! rustc) is safe and several times faster.
//!
//! Unlike `RandomState`, [`FxHasher`] is deterministic across runs, which
//! this codebase requires anyway: iteration-order-sensitive code must be
//! reproducible for the determinism suite (`tests/determinism.rs`).
//!
//! [`fnv1a`] is the other hash here: a stable byte-string digest for
//! anything that outlives the process (cache keys, entry checksums,
//! pinned output digests).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by simulator-internal values, using [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` of simulator-internal values, using [`FxHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc `FxHash` construction: rotate, xor, multiply by a constant
/// with good bit dispersion. Not cryptographic, not DoS-resistant —
/// strictly for keys the simulator itself generates.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A multiplicative hash mixes upward: the low bits of `x * SEED`
        // depend only on the low bits of `x`, and block addresses are
        // 32-byte aligned. Rotate so the well-mixed bits land where the
        // table derives its bucket index.
        self.hash.rotate_left(20)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// 64-bit FNV-1a — the one implementation behind the run-cache key,
/// `ArchParams::stable_hash`, and the cache entry checksum: fast,
/// dependency-free, and more than strong enough to catch torn writes and
/// bit rot (an integrity check against accident, not an adversary).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn is_deterministic_across_maps() {
        let fill = || {
            let mut m = FastMap::default();
            for i in 0..1000u64 {
                m.insert(i * 32, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill());
    }

    #[test]
    fn disperses_block_aligned_keys() {
        // Block addresses are 32-byte aligned; a weak hash would collide
        // them into a handful of buckets. Check the low bits spread.
        let mut low_bits = FastSet::default();
        for i in 0..256u64 {
            let mut h = FxHasher::default();
            h.write_u64(i * 32);
            low_bits.insert(h.finish() & 0xff);
        }
        assert!(
            low_bits.len() > 128,
            "low byte collapses: {}",
            low_bits.len()
        );
    }

    #[test]
    fn hashes_arbitrary_byte_strings() {
        let mut a = FxHasher::default();
        a.write(b"hello world, this is 21+");
        let mut b = FxHasher::default();
        b.write(b"hello world, this is 21+");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"hello world, this is 21-");
        assert_ne!(a.finish(), c.finish());
    }
}
