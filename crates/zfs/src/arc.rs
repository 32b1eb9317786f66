//! An ARC-style read cache: a byte-bounded LRU of decompressed records.
//!
//! ZFS serves repeated reads of hot records from the ARC without touching
//! the device or re-inflating gzip. On Squirrel compute nodes this is what
//! keeps the popular cross-VMI shared records resident, masking the dedup
//! scattering penalty (the `hot_fraction` the boot simulator consumes). The
//! real structure is adaptive (MRU/MFU ghost lists); for the behaviours the
//! reproduction measures, a plain LRU with byte accounting suffices and is
//! documented as such.

use crate::ddt::{BlockKey, SharedPayload};
#[cfg(test)]
use crate::pool::ZPool;
use squirrel_obs::{Counter, Metrics};
use std::collections::HashMap;
#[cfg(test)]
use std::sync::Arc;

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArcStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl ArcStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Doubly-linked LRU over block keys with byte-capacity eviction: the shard
/// type inside [`SharedArcCache`](crate::SharedArcCache), and — through its
/// own `read_through` — the serial reference the shared cache's differential
/// tests compare against.
pub(crate) struct ArcCache {
    capacity_bytes: u64,
    used_bytes: u64,
    /// key -> (data, prev, next); the list is threaded through the map.
    entries: HashMap<BlockKey, Entry>,
    head: Option<BlockKey>, // most recent
    tail: Option<BlockKey>, // least recent
    stats: ArcStats,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

struct Entry {
    /// Shared with the pool's decompression output (and any other reader
    /// holding the block): a cache hit hands out another reference, the
    /// bytes themselves are never duplicated.
    data: SharedPayload,
    prev: Option<BlockKey>,
    next: Option<BlockKey>,
}

impl ArcCache {
    pub fn new(capacity_bytes: u64) -> Self {
        ArcCache {
            capacity_bytes,
            used_bytes: 0,
            entries: HashMap::new(),
            head: None,
            tail: None,
            stats: ArcStats::default(),
            hits: Counter::default(),
            misses: Counter::default(),
            evictions: Counter::default(),
        }
    }

    /// Attach observability: hits/misses/evictions additionally accumulate
    /// into `arc_*_total` counters on `metrics`.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.hits = metrics.counter("arc_hits_total");
        self.misses = metrics.counter("arc_misses_total");
        self.evictions = metrics.counter("arc_evictions_total");
    }

    pub fn stats(&self) -> ArcStats {
        self.stats
    }

    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn unlink(&mut self, key: BlockKey) {
        let (prev, next) = {
            let e = &self.entries[&key];
            (e.prev, e.next)
        };
        match prev {
            Some(p) => self.entries.get_mut(&p).expect("linked prev").next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.entries.get_mut(&n).expect("linked next").prev = prev,
            None => self.tail = prev,
        }
    }

    fn push_front(&mut self, key: BlockKey) {
        let old_head = self.head;
        {
            let e = self.entries.get_mut(&key).expect("entry exists");
            e.prev = None;
            e.next = old_head;
        }
        if let Some(h) = old_head {
            self.entries.get_mut(&h).expect("old head").prev = Some(key);
        }
        self.head = Some(key);
        if self.tail.is_none() {
            self.tail = Some(key);
        }
    }

    /// Get a record, moving it to the front on hit. The returned reference
    /// points at the shared payload; clone the `Arc` (a refcount bump) to
    /// keep it past the borrow.
    pub fn get(&mut self, key: BlockKey) -> Option<&SharedPayload> {
        if self.entries.contains_key(&key) {
            self.stats.hits += 1;
            self.hits.inc();
            self.unlink(key);
            self.push_front(key);
            Some(&self.entries[&key].data)
        } else {
            self.stats.misses += 1;
            self.misses.inc();
            None
        }
    }

    /// Insert a record (no-op if present), evicting LRU entries to fit.
    /// Takes ownership of a payload reference: the caller's buffer is
    /// shared, not copied.
    pub fn insert(&mut self, key: BlockKey, data: SharedPayload) {
        if self.entries.contains_key(&key) {
            return;
        }
        let size = data.len() as u64;
        if size > self.capacity_bytes {
            // Larger than the whole cache: bypass *before* evicting anything
            // — flushing residents for a record that can never fit would only
            // destroy the working set.
            return;
        }
        while self.used_bytes + size > self.capacity_bytes {
            let Some(victim) = self.tail else { break };
            self.unlink(victim);
            let e = self.entries.remove(&victim).expect("tail entry");
            self.used_bytes -= e.data.len() as u64;
            self.stats.evictions += 1;
            self.evictions.inc();
        }
        self.used_bytes += size;
        self.entries.insert(key, Entry { data, prev: None, next: None });
        self.push_front(key);
    }

    /// Read a block through the cache: hit serves from memory, miss reads
    /// (and decompresses) from the pool and caches the result. Returns
    /// `None` when the file does not exist. Holes bypass the cache and are
    /// served as the pool's shared zero block (they cost nothing to
    /// materialize).
    ///
    /// Zero-copy on both paths: a hit hands out another reference to the
    /// cached payload, a miss caches the very buffer the pool's
    /// decompression just produced. No payload bytes are duplicated.
    #[cfg(test)]
    pub fn read_through(
        &mut self,
        pool: &ZPool,
        file: &str,
        block_idx: u64,
    ) -> Option<SharedPayload> {
        match pool.block_ref(file, block_idx)? {
            None => Some(pool.zero_block_shared()),
            Some(r) => {
                if let Some(data) = self.get(r.key) {
                    return Some(Arc::clone(data));
                }
                let data = pool.read_block_shared(file, block_idx)?;
                self.insert(r.key, Arc::clone(&data));
                Some(data)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolConfig;
    use squirrel_compress::Codec;

    fn shared(fill: u8, n: usize) -> SharedPayload {
        vec![fill; n].into()
    }

    #[test]
    fn hit_after_insert() {
        let mut arc = ArcCache::new(1024);
        arc.insert(1, shared(7, 100));
        assert_eq!(arc.get(1).map(|d| d[0]), Some(7));
        assert_eq!(arc.stats().hits, 1);
        assert_eq!(arc.used_bytes(), 100);
    }

    #[test]
    fn lru_eviction_order() {
        let mut arc = ArcCache::new(250);
        arc.insert(1, shared(1, 100));
        arc.insert(2, shared(2, 100));
        // Touch 1 so 2 becomes LRU.
        assert!(arc.get(1).is_some());
        arc.insert(3, shared(3, 100)); // evicts 2
        assert!(arc.get(2).is_none());
        assert!(arc.get(1).is_some());
        assert!(arc.get(3).is_some());
        assert_eq!(arc.stats().evictions, 1);
    }

    #[test]
    fn oversized_record_bypasses() {
        let mut arc = ArcCache::new(50);
        arc.insert(1, shared(1, 100));
        assert!(arc.is_empty());
        assert_eq!(arc.used_bytes(), 0);
    }

    /// Regression test for the eviction-ordering bug: `insert` used to run
    /// the LRU eviction loop *before* the oversized-bypass check, so one
    /// payload larger than the whole cache flushed every resident entry and
    /// then bypassed anyway. A bypass must leave the residents (and the
    /// eviction counter) untouched.
    #[test]
    fn oversized_insert_into_warm_cache_keeps_residents() {
        let mut arc = ArcCache::new(250);
        arc.insert(1, shared(1, 100));
        arc.insert(2, shared(2, 100));
        arc.insert(9, shared(9, 300)); // larger than the cache: bypass
        assert_eq!(arc.len(), 2, "residents must survive the bypass");
        assert_eq!(arc.used_bytes(), 200);
        assert_eq!(arc.stats().evictions, 0, "a bypass evicts nothing");
        assert!(arc.get(1).is_some());
        assert!(arc.get(2).is_some());
        assert!(arc.get(9).is_none());
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut arc = ArcCache::new(1000);
        arc.insert(1, shared(1, 100));
        arc.insert(1, shared(9, 100));
        assert_eq!(arc.get(1).map(|d| d[0]), Some(1), "first contents kept");
        assert_eq!(arc.used_bytes(), 100);
    }

    #[test]
    fn eviction_chain_under_pressure() {
        let mut arc = ArcCache::new(300);
        for k in 0..10u128 {
            arc.insert(k, shared(k as u8, 100));
        }
        assert_eq!(arc.len(), 3);
        assert_eq!(arc.used_bytes(), 300);
        // The three most recent survive.
        assert!(arc.get(9).is_some());
        assert!(arc.get(8).is_some());
        assert!(arc.get(7).is_some());
        assert!(arc.get(0).is_none());
    }

    #[test]
    fn read_through_hits_skip_pool_decompression() {
        let mut pool = ZPool::new(PoolConfig::new(512, Codec::Gzip(6)));
        pool.create_file("f");
        pool.write_block("f", 0, &[42u8; 512]);
        pool.write_block("f", 2, &[0u8; 512]); // hole via zero write
        let mut arc = ArcCache::new(1 << 20);
        let a = arc.read_through(&pool, "f", 0).expect("file");
        let b = arc.read_through(&pool, "f", 0).expect("file");
        assert_eq!(a, b);
        assert_eq!(arc.stats().hits, 1);
        assert_eq!(arc.stats().misses, 1);
        // Holes are served as zeros without caching.
        let hole = arc.read_through(&pool, "f", 2).expect("file");
        assert_eq!(&hole[..], &[0u8; 512][..]);
        assert!(arc.read_through(&pool, "missing", 0).is_none());
    }

    /// Regression test for the double-copy bug: a hit used to `to_vec()` and
    /// a miss used to `clone()` before insert. With shared payloads the warm
    /// read is the *same allocation* as the cached entry (`Arc::ptr_eq`).
    #[test]
    fn read_through_copies_zero_payload_bytes() {
        let mut pool = ZPool::new(PoolConfig::new(512, Codec::Lz4));
        pool.create_file("f");
        pool.write_block("f", 0, &[7u8; 512]);
        let mut arc = ArcCache::new(1 << 20);

        let miss = arc.read_through(&pool, "f", 0).expect("file");
        let hit = arc.read_through(&pool, "f", 0).expect("file");
        // Both reads alias the single cached buffer: no bytes duplicated.
        assert!(Arc::ptr_eq(&miss, &hit));
        assert!(Arc::ptr_eq(&miss, &arc.entries[&pool.block_ref("f", 0).unwrap().unwrap().key].data));

        // Hole reads alias the pool's shared zero block.
        let z1 = arc.read_through(&pool, "f", 9).expect("hole");
        let z2 = pool.zero_block_shared();
        assert!(Arc::ptr_eq(&z1, &z2));
    }

    #[test]
    fn read_through_dedups_cache_space_across_files() {
        // Two files sharing a block share one ARC entry (keyed by content).
        let mut pool = ZPool::new(PoolConfig::new(512, Codec::Lz4));
        pool.create_file("a");
        pool.create_file("b");
        pool.write_block("a", 0, &[9u8; 512]);
        pool.write_block("b", 0, &[9u8; 512]);
        let mut arc = ArcCache::new(1 << 20);
        arc.read_through(&pool, "a", 0).expect("file");
        arc.read_through(&pool, "b", 0).expect("file");
        assert_eq!(arc.len(), 1, "content-addressed: one entry");
        assert_eq!(arc.stats().hits, 1, "second file hits the shared entry");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Byte accounting and capacity bounds hold under arbitrary
        /// insert/get interleavings.
        #[test]
        fn capacity_never_exceeded(
            ops in proptest::collection::vec((0u128..20, 1usize..200, any::<bool>()), 1..100)
        ) {
            let mut arc = ArcCache::new(500);
            for (key, size, is_get) in ops {
                if is_get {
                    let _ = arc.get(key);
                } else {
                    arc.insert(key, vec![0u8; size].into());
                }
                prop_assert!(arc.used_bytes() <= 500);
                // Recompute used bytes from entries for consistency.
                let real: u64 = (0..20u128)
                    .filter_map(|k| arc.entries.get(&k).map(|e| e.data.len() as u64))
                    .sum();
                prop_assert_eq!(real, arc.used_bytes());
            }
        }
    }
}
