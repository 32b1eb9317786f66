//! Content hashing substrate for the Squirrel reproduction.
//!
//! ZFS-style deduplication is content addressed: every block is identified by
//! a cryptographic digest of its bytes. The paper's ZFS deployment uses
//! SHA-256 for dedup checksums, so this crate provides a from-scratch
//! FIPS 180-4 SHA-256 ([`sha256`], [`Sha256`]) plus cheap non-cryptographic
//! hashes ([`Fnv1a64`], [`rng::mix64`]) for hot in-memory tables where HashDoS is
//! not a concern (see the Rust Performance Book's hashing chapter), and [`rng`],
//! the one seeded generator, here because this crate sits below every other.

pub mod cdc;
mod fast;
pub mod par;
pub mod rng;
mod sha256;

pub use fast::{FnvBuildHasher, FnvHashMap, FnvHashSet, Fnv1a64};
pub use sha256::{sha256, Sha256};

/// Word-wise all-zero test, the fast path of ZFS-style zero-block elision.
///
/// Reads the buffer in 64-byte groups of `u64` words — OR-accumulated per
/// group so the optimizer can vectorize, with an early exit at the first
/// nonzero group, so data blocks (the common ingest case) bail out after
/// one cache line instead of traversing the whole block. Byte-wise tail
/// for lengths that are not a multiple of 8.
#[inline]
pub fn is_zero_block(data: &[u8]) -> bool {
    let mut groups = data.chunks_exact(64);
    for g in groups.by_ref() {
        let mut acc = 0u64;
        for w in g.chunks_exact(8) {
            acc |= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        }
        if acc != 0 {
            return false;
        }
    }
    let tail = groups.remainder();
    let mut words = tail.chunks_exact(8);
    let mut acc = 0u64;
    for w in words.by_ref() {
        acc |= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
    }
    acc == 0 && words.remainder().iter().all(|&b| b == 0)
}

/// A 256-bit content digest identifying a block's bytes.
///
/// This is the dedup key: two blocks with equal `ContentHash` are treated as
/// the same block (hash collisions are assumed not to occur, as in ZFS when
/// `dedup=sha256` without `verify`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub [u8; 32]);

impl ContentHash {
    /// Hash `data` into a `ContentHash` using SHA-256.
    #[inline]
    pub fn of(data: &[u8]) -> Self {
        ContentHash(sha256(data))
    }

    /// Fused zero-scan + hash: `None` for an all-zero block (which dedup
    /// elides without hashing), otherwise the digest. The zero probe exits
    /// at the first nonzero cache line, so a data block pays essentially
    /// one memory traversal — the hash — instead of a full scan plus a
    /// hash as with a standalone [`is_zero_block`] pre-pass.
    #[inline]
    pub fn of_nonzero(data: &[u8]) -> Option<Self> {
        if is_zero_block(data) {
            None
        } else {
            Some(Self::of(data))
        }
    }

    /// First 128 bits of the digest, for compact in-memory table keys.
    ///
    /// 128 bits keep the collision probability negligible (< 2^-60 for 10^9
    /// blocks) while halving table key size versus the full digest.
    #[inline]
    pub fn short(&self) -> u128 {
        u128::from_le_bytes(self.0[..16].try_into().expect("32-byte digest"))
    }

    /// Hex rendering of the full digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
            s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
        }
        s
    }
}

impl std::fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContentHash({}..)", &self.to_hex()[..16])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_of_matches_sha256() {
        assert_eq!(ContentHash::of(b"abc").0, sha256(b"abc"));
    }

    #[test]
    fn short_is_prefix() {
        let h = ContentHash::of(b"squirrel");
        let bytes = h.short().to_le_bytes();
        assert_eq!(&bytes[..], &h.0[..16]);
    }

    #[test]
    fn hex_roundtrip_length_and_chars() {
        let h = ContentHash::of(b"");
        let hex = h.to_hex();
        assert_eq!(hex.len(), 64);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(
            hex,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn distinct_inputs_distinct_hashes() {
        assert_ne!(ContentHash::of(b"a"), ContentHash::of(b"b"));
    }

    #[test]
    fn debug_is_compact() {
        let d = format!("{:?}", ContentHash::of(b"x"));
        assert!(d.starts_with("ContentHash("));
        assert!(d.len() < 40);
    }

    #[test]
    fn zero_block_detection() {
        assert!(is_zero_block(&[]));
        assert!(is_zero_block(&[0u8; 64]));
        assert!(is_zero_block(&[0u8; 13])); // non-multiple-of-8 tail
        let mut buf = [0u8; 64];
        buf[63] = 1;
        assert!(!is_zero_block(&buf));
        let mut buf = [0u8; 13];
        buf[12] = 1;
        assert!(!is_zero_block(&buf));
        buf[12] = 0;
        buf[0] = 1;
        assert!(!is_zero_block(&buf));
    }

    #[test]
    fn of_nonzero_fuses_zero_probe_and_hash() {
        assert_eq!(ContentHash::of_nonzero(&[0u8; 4096]), None);
        assert_eq!(ContentHash::of_nonzero(&[]), None);
        let mut buf = vec![0u8; 4096];
        buf[4095] = 7;
        assert_eq!(ContentHash::of_nonzero(&buf), Some(ContentHash::of(&buf)));
        // Nonzero byte in the first group too (early-exit path).
        buf[0] = 9;
        assert_eq!(ContentHash::of_nonzero(&buf), Some(ContentHash::of(&buf)));
    }
}
