//! Fast non-cryptographic hashing for hot in-memory tables.
//!
//! Dedup tables are keyed by (already well-distributed) digest prefixes, so
//! SipHash's DoS resistance buys nothing and costs cycles. FNV-1a is the
//! classic cheap choice for short keys; integer keys go through the
//! SplitMix64 step [`mix64`].

use crate::rng::mix64;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, 64-bit.
#[derive(Clone, Copy)]
pub struct Fnv1a64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv1a64 {
    #[inline]
    fn default() -> Self {
        Fnv1a64(FNV_OFFSET)
    }
}

impl Hasher for Fnv1a64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        // Integer keys are common (digest prefixes); one multiply-mix beats
        // eight byte-at-a-time rounds and distributes as well for our keys.
        self.0 = mix64(self.0 ^ i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.write_u64(i as u64);
        self.write_u64((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`Fnv1a64`].
pub type FnvBuildHasher = BuildHasherDefault<Fnv1a64>;
/// `HashMap` keyed with [`Fnv1a64`].
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;
/// `HashSet` keyed with [`Fnv1a64`].
pub type FnvHashSet<K> = HashSet<K, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Reference values for 64-bit FNV-1a.
        let mut h = Fnv1a64::default();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        let mut h = Fnv1a64::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv1a64::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_map_works_with_u128_keys() {
        let mut m: FnvHashMap<u128, u32> = FnvHashMap::default();
        for i in 0..1000u128 {
            m.insert(i * 7, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(7 * 999)), Some(&999));
    }

    #[test]
    fn fnv_set_distinguishes_values() {
        let mut s: FnvHashSet<u64> = FnvHashSet::default();
        assert!(s.insert(1));
        assert!(s.insert(2));
        assert!(!s.insert(1));
    }
}
