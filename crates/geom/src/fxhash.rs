//! A deterministic FxHash-style hasher and fast hash-map/set aliases.
//!
//! The paper's cost model (Section 4.1) assumes constant-time hash tables
//! for cell object lists and influence lists ("the lists are implemented as
//! hash-tables"). The standard library's SipHash is DoS-resistant but slow
//! for 4-byte integer keys; the multiply-rotate scheme below (the same
//! recipe as the `rustc-hash` crate, reimplemented here because the
//! workspace builds offline from its own crates — even `rand` and
//! `proptest` are in-tree shims, `crates/shims/`) is ~5× faster on id keys and
//! fully deterministic, which keeps every experiment reproducible.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit multiply constant (from FxHash / Firefox).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// An FxHash-style streaming hasher.
///
/// Not cryptographically secure and not HashDoS-resistant — inputs here are
/// internally generated dense ids, never attacker-controlled strings.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8 bytes at a time, then the tail.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]; deterministic across runs and platforms.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast deterministic hasher.
pub type FastHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast deterministic hasher.
pub type FastHashSet<T> = HashSet<T, FxBuildHasher>;

/// Convenience constructor: an empty [`FastHashMap`].
#[inline]
pub fn fast_map<K, V>() -> FastHashMap<K, V> {
    FastHashMap::default()
}

/// Convenience constructor: an empty [`FastHashSet`].
#[inline]
pub fn fast_set<T>() -> FastHashSet<T> {
    FastHashSet::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_one(&42u32), hash_one(&42u32));
        assert_eq!(hash_one(&"hello"), hash_one(&"hello"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Dense ids must not all collide into the same bucket pattern.
        let hashes: Vec<u64> = (0u32..64).map(|i| hash_one(&i)).collect();
        let distinct: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), 64);
    }

    #[test]
    fn map_and_set_roundtrip() {
        let mut m: FastHashMap<u32, &str> = fast_map();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.remove(&2), Some("b"));
        assert!(!m.contains_key(&2));

        let mut s: FastHashSet<u64> = fast_set();
        assert!(s.insert(10));
        assert!(!s.insert(10));
        assert!(s.contains(&10));
    }

    #[test]
    fn byte_stream_matches_tail_handling() {
        // 9 bytes exercises the chunk + remainder path.
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(h1.finish(), h2.finish());

        let mut h3 = FxHasher::default();
        h3.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(h1.finish(), h3.finish());
    }
}
