//! Sharded dedup table: the DDT split across fixed shards by hash prefix.
//!
//! Content hashes are uniformly distributed, so `key % SHARDS` spreads
//! entries evenly and each shard stays small. That buys the ingest hot path
//! three things over one monolithic map:
//!
//! * **Parallel probes** — stage 1's new-key probe and the scrub/read paths
//!   take `&self`, so pool workers query different shards (different cache
//!   lines, independent probe sequences) with no coordination at all.
//! * **Cheaper growth** — a rehash touches one shard (1/16th of the
//!   entries), not the whole table, so commit latency spikes shrink.
//! * **Batched reservation** — [`reserve`](ShardedDedupTable::reserve)
//!   pre-sizes every shard once per ingest batch from the stage-1 scan,
//!   instead of growing incrementally under `add_ref`.
//!
//! Determinism: all mutation happens through `&mut self` from the serial
//! commit stage, and the physical allocator (`alloc_cursor`) is a single
//! global cursor — so allocation order, offsets, and accounting are
//! bit-identical to the serial `ddt::DedupTable` fed
//! the same operation sequence, which the differential proptest below
//! checks operation by operation.

use crate::ddt::{BlockKey, DdtEntry, Frame};
use squirrel_hash::FnvHashMap;

/// Fixed shard count. A power of two so `key % SHARDS` compiles to a mask;
/// 16 keeps per-shard maps small without bloating the empty-table footprint.
const SHARDS: usize = 16;

/// The sharded dedup table. Drop-in for the serial `ddt::DedupTable`:
/// identical observable behaviour (entries, refcounts, allocation order,
/// accounting), different interior layout.
pub struct ShardedDedupTable {
    shards: Vec<FnvHashMap<BlockKey, DdtEntry>>,
    /// Next physical allocation offset — global and advanced only from the
    /// serial commit path, so first-occurrence allocation order survives
    /// sharding exactly.
    alloc_cursor: u64,
    /// Total compressed bytes currently referenced.
    physical_bytes: u64,
}

impl Default for ShardedDedupTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedDedupTable {
    pub fn new() -> Self {
        ShardedDedupTable {
            shards: (0..SHARDS).map(|_| FnvHashMap::default()).collect(),
            alloc_cursor: 0,
            physical_bytes: 0,
        }
    }

    #[inline]
    fn shard_of(key: BlockKey) -> usize {
        (key % SHARDS as u128) as usize
    }

    /// Number of unique blocks.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Total compressed bytes of all entries.
    pub fn physical_bytes(&self) -> u64 {
        self.physical_bytes
    }

    #[inline]
    pub fn get(&self, key: &BlockKey) -> Option<&DdtEntry> {
        self.shards[Self::shard_of(*key)].get(key)
    }

    /// Pre-size every shard for `additional` incoming unique keys (spread
    /// evenly — hash keys are uniform). One reservation per ingest batch
    /// replaces incremental growth under the commit loop.
    pub fn reserve(&mut self, additional: usize) {
        let per_shard = additional.div_ceil(SHARDS);
        for s in &mut self.shards {
            s.reserve(per_shard);
        }
    }

    /// Add one reference to `key`, inserting a fresh entry (with
    /// `(psize, lsize, payload)` produced by `make`) when the block is new.
    /// Returns `true` when the block was new.
    pub fn add_ref(
        &mut self,
        key: BlockKey,
        make: impl FnOnce() -> (u32, u32, Option<Frame>),
    ) -> bool {
        match self.shards[Self::shard_of(key)].entry(key) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                o.get_mut().refcount += 1;
                false
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                let (psize, lsize, data) = make();
                let phys = self.alloc_cursor;
                self.alloc_cursor += psize as u64;
                self.physical_bytes += psize as u64;
                v.insert(DdtEntry { refcount: 1, psize, lsize, phys, data });
                true
            }
        }
    }

    /// Drop one reference; frees the entry at zero. Returns `true` when the
    /// entry was freed.
    pub fn release(&mut self, key: &BlockKey) -> bool {
        let shard = &mut self.shards[Self::shard_of(*key)];
        let entry = shard.get_mut(key).expect("release of unknown block");
        debug_assert!(entry.refcount > 0);
        entry.refcount -= 1;
        if entry.refcount == 0 {
            let psize = entry.psize as u64;
            shard.remove(key);
            self.physical_bytes -= psize;
            true
        } else {
            false
        }
    }

    /// Swap the stored payload of `key`, keeping `physical_bytes` accounting
    /// exact (the old psize is released, the new one charged). Refcount and
    /// physical offset are untouched. Returns `false` when the key is absent.
    pub(crate) fn replace_payload(
        &mut self,
        key: BlockKey,
        psize: u32,
        data: Option<Frame>,
    ) -> bool {
        let Some(entry) = self.shards[Self::shard_of(key)].get_mut(&key) else {
            return false;
        };
        self.physical_bytes = self.physical_bytes - entry.psize as u64 + psize as u64;
        entry.psize = psize;
        entry.data = data;
        true
    }

    /// Relocate `key`'s block to a fresh extent at the (global) allocation
    /// cursor (the reverse-dedup primitive: the caller is making some file's
    /// working set physically sequential, and every other referent of the
    /// block chases the move for free because `phys` lives only here).
    /// Physical accounting is unchanged — the old extent becomes a hole,
    /// like any freed space under the append-only allocator. Returns
    /// `(old_phys, psize)`, or `None` when the key is absent.
    pub fn reassign_phys(&mut self, key: &BlockKey) -> Option<(u64, u32)> {
        let entry = self.shards[Self::shard_of(*key)].get_mut(key)?;
        let old = entry.phys;
        entry.phys = self.alloc_cursor;
        self.alloc_cursor += entry.psize as u64;
        Some((old, entry.psize))
    }

    /// Sum of all refcounts (diagnostic; equals the number of live block
    /// pointers across files and snapshots).
    pub fn total_refs(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.values())
            .map(|e| e.refcount)
            .sum()
    }

    /// Iterate `(key, entry)` pairs, shard by shard. Iteration order differs
    /// from the serial table (and is unspecified, like any hash map's);
    /// order-sensitive callers sort, exactly as they did before sharding.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockKey, &DdtEntry)> {
        self.shards.iter().flat_map(|s| s.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddt::DedupTable;

    fn payload(n: u32) -> impl FnOnce() -> (u32, u32, Option<Frame>) {
        move || (n, n, Some(vec![0xabu8; n as usize].into()))
    }

    #[test]
    fn add_ref_dedups() {
        let mut t = ShardedDedupTable::new();
        assert!(t.add_ref(1, payload(100)));
        assert!(!t.add_ref(1, payload(100)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&1).expect("entry").refcount, 2);
        assert_eq!(t.physical_bytes(), 100);
    }

    #[test]
    fn allocation_is_global_and_sequential() {
        // Keys landing in different shards still allocate from one cursor,
        // in arrival order.
        let mut t = ShardedDedupTable::new();
        t.add_ref(0, payload(10)); // shard 0
        t.add_ref(5, payload(20)); // shard 5
        t.add_ref(16, payload(30)); // shard 0 again
        assert_eq!(t.get(&0).expect("e").phys, 0);
        assert_eq!(t.get(&5).expect("e").phys, 10);
        assert_eq!(t.get(&16).expect("e").phys, 30);
    }

    #[test]
    fn release_frees_at_zero() {
        let mut t = ShardedDedupTable::new();
        t.add_ref(7, payload(64));
        t.add_ref(7, payload(64));
        assert!(!t.release(&7));
        assert!(t.release(&7));
        assert!(t.is_empty());
        assert_eq!(t.physical_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "release of unknown block")]
    fn release_unknown_panics() {
        ShardedDedupTable::new().release(&99);
    }

    #[test]
    fn reserve_is_behaviour_neutral() {
        let mut t = ShardedDedupTable::new();
        t.reserve(1000);
        assert!(t.is_empty());
        t.add_ref(3, payload(9));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn differential_fixed_sequences() {
        use super::tests_support::differential_ops;
        differential_ops(&[(0, 1, 10), (0, 17, 20), (0, 1, 10), (2, 1, 1), (0, 33, 5)]);
        differential_ops(&[(0, 5, 8), (2, 5, 1), (0, 5, 8), (0, 21, 8), (2, 5, 1)]);
        // Reverse-dedup relocation (op 3) interleaved with the others.
        differential_ops(&[(0, 1, 10), (0, 17, 20), (3, 1, 0), (0, 33, 5), (3, 99, 0)]);
    }

    #[test]
    fn differential_replace_payload() {
        let mut serial = DedupTable::new();
        let mut sharded = ShardedDedupTable::new();
        for k in [1u128, 17, 33, 4, 20] {
            serial.add_ref(k, payload(100));
            sharded.add_ref(k, payload(100));
        }
        assert_eq!(
            serial.replace_payload(17, 40, None),
            sharded.replace_payload(17, 40, None)
        );
        assert_eq!(
            serial.replace_payload(999, 40, None),
            sharded.replace_payload(999, 40, None),
            "absent key"
        );
        assert_eq!(serial.physical_bytes(), sharded.physical_bytes());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests_support::differential_ops;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random op soup through both tables: observable state must agree
        /// after every single operation.
        #[test]
        fn sharded_matches_serial(
            ops in proptest::collection::vec(
                (0u8..4, 0u128..48, 1u32..256),
                1..200,
            )
        ) {
            differential_ops(&ops);
        }
    }
}

#[cfg(test)]
mod tests_support {
    use super::*;
    use crate::ddt::DedupTable;

    /// Shared driver for unit and property differential tests.
    pub(super) fn differential_ops(ops: &[(u8, BlockKey, u32)]) {
        let mut serial = DedupTable::new();
        let mut sharded = ShardedDedupTable::new();
        for &(op, key, size) in ops {
            let mk = move || (size, size, Some(vec![0x5au8; size as usize].into()));
            match op % 4 {
                0 | 1 => {
                    assert_eq!(serial.add_ref(key, mk), sharded.add_ref(key, mk));
                }
                2 => {
                    if serial.get(&key).is_some() {
                        assert_eq!(serial.release(&key), sharded.release(&key));
                    }
                }
                _ => {
                    assert_eq!(serial.reassign_phys(&key), sharded.reassign_phys(&key));
                }
            }
            assert_eq!(serial.len(), sharded.len());
            assert_eq!(serial.physical_bytes(), sharded.physical_bytes());
        }
        let mut a: Vec<(BlockKey, u64, u32, u32, u64)> = serial
            .iter()
            .map(|(k, e)| (*k, e.refcount, e.psize, e.lsize, e.phys))
            .collect();
        let mut b: Vec<(BlockKey, u64, u32, u32, u64)> = sharded
            .iter()
            .map(|(k, e)| (*k, e.refcount, e.psize, e.lsize, e.phys))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
