//! The dedup table (DDT): refcounted, content-addressed block directory.
//!
//! Every unique block in the pool has exactly one entry holding its
//! compressed payload size, physical location, reference count, and (when
//! retention is on) the compressed bytes themselves. The entry count drives
//! both the in-core and on-disk DDT footprints that the paper measures in
//! Figures 9, 10 and 13.

use squirrel_compress::decompress;
use squirrel_hash::{ContentHash, FnvHashMap};
use std::sync::{Arc, OnceLock};

/// Key type: the first 128 bits of the block's SHA-256.
pub type BlockKey = u128;

/// A shared, immutable block of *decompressed* data. Every consumer of a
/// block's bytes — a boot storm's working set on every pool that shares
/// the record's [`Frame`], copy-on-read cache blocks, hole reads — holds a
/// reference to the *same* buffer, so a warm read is a refcount bump, never
/// a copy. The one copy in a payload's life is its birth (`Vec` →
/// `Arc<[u8]>` after the single decompress that produced it), on the cold
/// path. Stored compressed records are [`Frame`]s.
pub type SharedPayload = Arc<[u8]>;

/// A stored compressed record: immutable bytes that remember their own
/// content key. The DDT entry, every send stream built from it and every
/// receiver's DDT entry after `recv` hold the *same* frame (a clone is a
/// refcount bump), so the one decompress + SHA-256 that proves it — at
/// registration, normally — serves every later boot, scrub, rejoin and
/// repair on every pool that shares it.
///
/// The proof is a pure function of bytes nobody can change: there is no
/// mutable access to them and no constructor that fills the memo, so
/// nothing is ever invalidated. A rotted, repaired or re-decoded record is
/// a *different* frame, born unproven.
#[derive(Clone, Debug)]
pub struct Frame(Arc<FrameInner>);

#[derive(Debug)]
struct FrameInner {
    bytes: Box<[u8]>,
    /// `(lsize, content key)` of the first proof. The key depends on the
    /// length the frame is decompressed to, so the length is part of it;
    /// `None` when the frame inflates to any other length than `lsize`.
    proof: OnceLock<(u32, Option<BlockKey>)>,
}

impl Frame {
    /// `ContentHash::of(decompress(bytes, lsize)).short()` when the frame
    /// inflates to exactly `lsize` bytes; `None` when it inflates to any
    /// other length, which no key proves (a record read past a short frame
    /// would be zero-filled). Computed at most once per buffer for the
    /// `lsize` it was first asked at (a question at another length is
    /// answered afresh, every time). Bytes this call actually decompressed
    /// and hashed are added to `hashed`; a remembered answer adds nothing.
    pub fn content_key(&self, lsize: u32, hashed: &mut u64) -> Option<BlockKey> {
        let compute = |hashed: &mut u64| {
            let content = decompress(&self.0.bytes, lsize as usize);
            (content.len() == lsize as usize).then(|| {
                *hashed += content.len() as u64;
                ContentHash::of(&content).short()
            })
        };
        let &(proved_at, key) = self.0.proof.get_or_init(|| (lsize, compute(hashed)));
        if proved_at == lsize {
            key
        } else {
            compute(hashed)
        }
    }

    /// Has a [`content_key`](Self::content_key) call at `lsize` already
    /// answered, so asking again at that length costs nothing?
    pub(crate) fn is_proved_at(&self, lsize: u32) -> bool {
        self.0.proof.get().is_some_and(|&(at, _)| at == lsize)
    }

    /// Do two handles share one buffer (and so one proof)?
    #[cfg(test)]
    pub(crate) fn ptr_eq(a: &Frame, b: &Frame) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl From<Vec<u8>> for Frame {
    /// A new, unproven frame.
    fn from(bytes: Vec<u8>) -> Frame {
        Frame(Arc::new(FrameInner {
            bytes: bytes.into(),
            proof: OnceLock::new(),
        }))
    }
}

impl std::ops::Deref for Frame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.bytes
    }
}

/// One unique block's directory entry.
#[derive(Clone, Debug)]
pub struct DdtEntry {
    /// References from live file block pointers and snapshot tables.
    pub refcount: u64,
    /// Compressed (physical) size in bytes.
    pub psize: u32,
    /// Logical (uncompressed) size in bytes. Equals the pool record size
    /// for fixed chunking; variable for CDC chunks.
    pub lsize: u32,
    /// Physical byte offset on the (modelled) disk.
    pub phys: u64,
    /// Compressed payload, present when the pool retains data.
    pub data: Option<Frame>,
}

/// The pool's dedup table: one map from content key to entry. Probes take
/// `&self`, so stage-1 ingest workers and the scrub/read paths query it
/// concurrently with no coordination; every mutation comes through
/// `&mut self` from the serial commit path, and the physical allocator is
/// one global cursor, so offsets follow first-occurrence order exactly.
/// Iteration order is a hash map's (unspecified): order-sensitive callers
/// sort.
#[derive(Default)]
pub(crate) struct DedupTable {
    entries: FnvHashMap<BlockKey, DdtEntry>,
    /// Next physical allocation offset (append-only allocator; freed space
    /// becomes holes, like an aging pool).
    alloc_cursor: u64,
    /// Total compressed bytes currently referenced.
    physical_bytes: u64,
}

impl DedupTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of unique blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total compressed bytes of all entries.
    pub fn physical_bytes(&self) -> u64 {
        self.physical_bytes
    }

    pub fn get(&self, key: &BlockKey) -> Option<&DdtEntry> {
        self.entries.get(key)
    }

    /// Pre-size for `additional` incoming unique keys: one reservation per
    /// ingest batch instead of growth under the commit loop.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Add one reference to `key`, inserting a fresh entry (with
    /// `(psize, lsize, payload)` produced by `make`) when the block is new.
    /// Returns `true` when the block was new.
    pub fn add_ref(
        &mut self,
        key: BlockKey,
        make: impl FnOnce() -> (u32, u32, Option<Frame>),
    ) -> bool {
        match self.entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                o.get_mut().refcount += 1;
                false
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                let (psize, lsize, data) = make();
                let phys = self.alloc_cursor;
                self.alloc_cursor += psize as u64;
                self.physical_bytes += psize as u64;
                v.insert(DdtEntry {
                    refcount: 1,
                    psize,
                    lsize,
                    phys,
                    data,
                });
                true
            }
        }
    }

    /// Drop one reference; frees the entry at zero. Returns `true` when the
    /// entry was freed.
    pub fn release(&mut self, key: &BlockKey) -> bool {
        self.release_n(key, 1)
    }

    /// Drop `n` references at once (one per snapshot holding a purged
    /// table); frees the entry at zero. Returns `true` when it was freed.
    pub fn release_n(&mut self, key: &BlockKey, n: u64) -> bool {
        let entry = self.entries.get_mut(key).expect("release of unknown block");
        debug_assert!(entry.refcount >= n);
        entry.refcount -= n;
        if entry.refcount == 0 {
            let psize = entry.psize as u64;
            self.entries.remove(key);
            self.physical_bytes -= psize;
            true
        } else {
            false
        }
    }

    /// Swap the stored payload of `key`, keeping `physical_bytes` accounting
    /// exact (the old psize is released, the new one charged). Refcount and
    /// physical offset are untouched. This is the primitive under both
    /// corruption injection and block repair. Returns `false` when the key
    /// is absent.
    pub(crate) fn replace_payload(
        &mut self,
        key: BlockKey,
        psize: u32,
        data: Option<Frame>,
    ) -> bool {
        let Some(entry) = self.entries.get_mut(&key) else {
            return false;
        };
        self.physical_bytes = self.physical_bytes - entry.psize as u64 + psize as u64;
        entry.psize = psize;
        entry.data = data;
        true
    }

    /// Relocate `key`'s block to a fresh extent at the allocation cursor
    /// (the reverse-dedup primitive: the caller is making some file's
    /// working set physically sequential, and every other referent of the
    /// block chases the move for free because `phys` lives only here).
    /// Physical accounting is unchanged — the old extent becomes a hole,
    /// like any freed space under the append-only allocator. Returns
    /// `(old_phys, psize)`, or `None` when the key is absent.
    pub fn reassign_phys(&mut self, key: &BlockKey) -> Option<(u64, u32)> {
        let entry = self.entries.get_mut(key)?;
        let old = entry.phys;
        entry.phys = self.alloc_cursor;
        self.alloc_cursor += entry.psize as u64;
        Some((old, entry.psize))
    }

    /// Iterate `(key, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockKey, &DdtEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: u32) -> impl FnOnce() -> (u32, u32, Option<Frame>) {
        move || (n, n, Some(vec![0xabu8; n as usize].into()))
    }

    #[test]
    fn a_frame_is_hashed_once_per_buffer_and_length() {
        use squirrel_compress::{compress, Codec};
        let content = vec![7u8; 512];
        let key = ContentHash::of(&content).short();
        // Gzip decodes to at most the length asked for, so a shorter
        // question has an answer of its own.
        let frame = Frame::from(compress(Codec::Gzip(6), &content));
        let mut hashed = 0u64;
        assert_eq!(frame.content_key(512, &mut hashed), Some(key));
        assert_eq!(
            hashed, 512,
            "born unproven: the first question does the work"
        );
        // The same buffer through another handle remembers.
        let shared = frame.clone();
        assert!(Frame::ptr_eq(&frame, &shared));
        assert_eq!(shared.content_key(512, &mut hashed), Some(key));
        assert_eq!(hashed, 512);
        // Another length is another question, answered afresh every time
        // (and never overwriting the first answer).
        let short = decompress(&frame, 256);
        assert_ne!(ContentHash::of(&short).short(), key);
        for asked in 1..=2u64 {
            assert_eq!(
                frame.content_key(256, &mut hashed),
                Some(ContentHash::of(&short).short())
            );
            assert_eq!(hashed, 512 + asked * short.len() as u64);
        }
        assert_eq!(frame.content_key(512, &mut hashed), Some(key));
        assert_eq!(hashed, 512 + 2 * short.len() as u64);
        // Equal bytes in another buffer prove nothing about each other.
        let copy = Frame::from(frame.to_vec());
        assert!(!Frame::ptr_eq(&frame, &copy));
        let mut copy_hashed = 0u64;
        assert_eq!(copy.content_key(512, &mut copy_hashed), Some(key));
        assert_eq!(copy_hashed, 512);
    }

    #[test]
    fn a_frame_that_inflates_short_of_its_record_proves_no_key() {
        use squirrel_compress::{compress, Codec};
        let content: Vec<u8> = b"squirrel".iter().copied().cycle().take(256).collect();
        for codec in [Codec::Off, Codec::Gzip(6), Codec::Lzjb] {
            let frame = Frame::from(compress(codec, &content));
            assert_eq!(
                frame.len() <= content.len(),
                codec != Codec::Off,
                "{codec:?}"
            );
            let mut hashed = 0u64;
            // As a 512-byte record it comes out short, every time: no key.
            for _ in 0..2 {
                assert_eq!(frame.content_key(512, &mut hashed), None, "{codec:?}");
            }
            assert_eq!(hashed, 0, "{codec:?}: nothing hashed");
            // At its own length the same buffer proves its key.
            let key = ContentHash::of(&content).short();
            assert_eq!(frame.content_key(256, &mut hashed), Some(key), "{codec:?}");
        }
    }

    #[test]
    fn add_ref_dedups() {
        let mut t = DedupTable::new();
        assert!(t.add_ref(1, payload(100)));
        assert!(!t.add_ref(1, payload(100)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&1).expect("entry").refcount, 2);
        assert_eq!(t.physical_bytes(), 100);
    }

    #[test]
    fn release_frees_at_zero() {
        let mut t = DedupTable::new();
        t.add_ref(7, payload(64));
        t.add_ref(7, payload(64));
        assert!(!t.release(&7));
        assert_eq!(t.physical_bytes(), 64);
        assert!(t.release(&7));
        assert_eq!(t.len(), 0);
        assert_eq!(t.physical_bytes(), 0);
    }

    #[test]
    fn allocation_is_sequential_in_arrival_order() {
        let mut t = DedupTable::new();
        t.add_ref(1, payload(10));
        t.add_ref(2, payload(20));
        t.add_ref(3, payload(30));
        assert_eq!(t.get(&1).expect("e").phys, 0);
        assert_eq!(t.get(&2).expect("e").phys, 10);
        assert_eq!(t.get(&3).expect("e").phys, 30);
    }

    #[test]
    fn freed_space_is_not_reused() {
        let mut t = DedupTable::new();
        t.add_ref(1, payload(100));
        t.release(&1);
        t.add_ref(2, payload(5));
        assert_eq!(t.get(&2).expect("e").phys, 100, "append-only allocator");
    }

    #[test]
    #[should_panic(expected = "release of unknown block")]
    fn release_unknown_panics() {
        DedupTable::new().release(&99);
    }

    #[test]
    fn replace_payload_keeps_physical_bytes_exact() {
        let mut t = DedupTable::new();
        t.add_ref(1, payload(100));
        t.add_ref(2, payload(50));
        assert!(t.replace_payload(1, 30, Some(vec![1u8; 30].into())));
        assert_eq!(t.physical_bytes(), 80);
        assert_eq!(t.get(&1).expect("entry").psize, 30);
        assert!(!t.replace_payload(9, 10, None), "absent key is a no-op");
        assert_eq!(t.physical_bytes(), 80);
    }

    #[test]
    fn add_ref_records_logical_size() {
        let mut t = DedupTable::new();
        t.add_ref(1, || (40, 128, None));
        let e = t.get(&1).expect("entry");
        assert_eq!(e.psize, 40);
        assert_eq!(e.lsize, 128);
    }

    #[test]
    fn reassign_phys_moves_to_cursor_without_accounting_change() {
        let mut t = DedupTable::new();
        t.add_ref(1, payload(100));
        t.add_ref(2, payload(50));
        let before = t.physical_bytes();
        // Block 1 sat at 0; relocating it lands past block 2's extent.
        assert_eq!(t.reassign_phys(&1), Some((0, 100)));
        assert_eq!(t.get(&1).expect("e").phys, 150);
        assert_eq!(t.physical_bytes(), before, "holes, not growth");
        // The cursor advanced: the next new block lands after the move.
        t.add_ref(3, payload(7));
        assert_eq!(t.get(&3).expect("e").phys, 250);
        assert_eq!(t.reassign_phys(&99), None, "absent key is a no-op");
    }

    #[test]
    fn reserve_is_behaviour_neutral() {
        let mut t = DedupTable::new();
        t.reserve(1000);
        assert_eq!(t.len(), 0);
        t.add_ref(3, payload(9));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&3).expect("e").phys, 0);
    }
}
