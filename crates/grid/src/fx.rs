//! A from-scratch Fx-style hasher for short integer keys.
//!
//! Grid cell coordinates are `(i32, i32)` pairs; the default SipHash 1-3
//! is collision-hardened but slow for such keys. This is the classic
//! multiply-mix used by rustc's `FxHasher`: each 8-byte word is folded in
//! with a rotate-xor-multiply. Implemented locally (rather than pulling a
//! crate) per the workspace's from-scratch policy.

use std::hash::{BuildHasherDefault, Hasher};

/// Heap bytes of a hash table that reports `capacity` and holds
/// `entry`-byte entries — an [`FxHashMap`], an [`FxHashSet`] or std's
/// own: std's table allocates a power-of-two number of buckets, one more
/// than the capacity below 8 and 8 for every 7 of capacity above, each
/// an entry and a control byte, and a group of 16 control bytes more.
pub fn table_bytes(capacity: usize, entry: usize) -> usize {
    let buckets = match capacity {
        0 => return 0,
        1..=7 => capacity + 1,
        _ => capacity / 7 * 8,
    };
    buckets * (entry + 1) + 16
}

/// Heap bytes of an `Arc<T>`'s allocation: its two counts and the
/// value.
pub const fn arc_bytes<T>() -> usize {
    2 * std::mem::size_of::<usize>() + std::mem::size_of::<T>()
}

/// Multiplicative constant (from FxHash / Firefox; a 64-bit odd constant
/// close to 2^64 / φ).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style streaming hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add_to_hash(v as u32 as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with the Fx hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(&(3i32, 4i32)), hash_one(&(3i32, 4i32)));
    }

    #[test]
    fn distinguishes_keys() {
        assert_ne!(hash_one(&(3i32, 4i32)), hash_one(&(4i32, 3i32)));
        assert_ne!(hash_one(&(0i32, 0i32)), hash_one(&(0i32, 1i32)));
        assert_ne!(hash_one(&(-1i32, 0i32)), hash_one(&(1i32, 0i32)));
    }

    #[test]
    fn spreads_sequential_keys() {
        // Sequential cell coordinates should land in distinct 12-bit
        // buckets reasonably often (sanity check against degenerate mixing).
        let mut buckets = std::collections::HashSet::new();
        for i in 0..1000i32 {
            buckets.insert(hash_one(&(i, i + 1)) >> 52);
        }
        assert!(buckets.len() > 500, "poor spread: {}", buckets.len());
    }

    #[test]
    fn map_works_end_to_end() {
        let mut m: FxHashMap<(i32, i32), u32> = FxHashMap::default();
        for i in -50..50 {
            for j in -50..50 {
                m.insert((i, j), (i * 1000 + j) as u32);
            }
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m[&(-3, 17)], (-3i32 * 1000 + 17) as u32);
    }

    #[test]
    fn set_of_sequential_ids() {
        // Point ids are dense small integers.
        let s: FxHashSet<u32> = (0..10_000).step_by(3).collect();
        assert_eq!(s.len(), 3_334);
        assert!(s.contains(&9_999) && !s.contains(&9_998));
    }

    #[test]
    fn odd_length_bytes() {
        let b = FxBuildHasher::default();
        let mut h1 = b.build_hasher();
        h1.write(&[1, 2, 3]);
        let mut h2 = b.build_hasher();
        h2.write(&[1, 2, 4]);
        assert_ne!(h1.finish(), h2.finish());
    }
}
