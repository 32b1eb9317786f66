//! A concurrency-safe, shard-locked ARC for boot storms.
//!
//! The serial LRU (`arc::ArcCache`) needs `&mut self`; during a boot storm N
//! booting VMs hammer one ccVolume's cache simultaneously, so
//! [`SharedArcCache`] wraps a set of `Mutex<ArcCache>` shards keyed by block
//! key — one shard *is* the serial cache, op for op. `read_through` takes `&self`
//! and can be called from any number of `squirrel_hash::par` workers at
//! once; each block key always maps to the same shard, so a given block is
//! decompressed at most once per residency (the fill happens under the
//! shard lock — single-flight per key).
//!
//! Determinism: payload bytes returned are bit-identical to the serial
//! LRU's own read-through at any thread count (both alias the pool's shared
//! payloads). Aggregate counters (`reads`, `fills`) are additive and
//! commute, so metric snapshots are thread-count-invariant as long as the
//! cache never evicts — size the cache at or above the working set, as the
//! boot-storm bench does. Per-shard LRU order is the only schedule-dependent
//! state, and it is deliberately not exposed.

use crate::arc::{ArcCache, ArcStats};
use crate::ddt::{BlockKey, SharedPayload};
use crate::pool::ZPool;
use squirrel_obs::{Counter, Metrics};
use std::sync::{Arc, Mutex};

/// Shard-locked ARC: interior mutability over serial LRU shards so
/// concurrent readers only contend when their blocks map to the same shard.
pub struct SharedArcCache {
    shards: Vec<Mutex<ArcCache>>,
    reads: Counter,
    fills: Counter,
}

impl SharedArcCache {
    /// Build with `capacity_bytes` split evenly across `shards` shards
    /// (at least one). More shards = less lock contention; the byte budget
    /// is a per-shard bound, so pathological key distributions can evict
    /// earlier than a single monolithic cache would.
    pub fn new(capacity_bytes: u64, shards: usize) -> Self {
        let n = shards.max(1);
        let per_shard = capacity_bytes.div_ceil(n as u64);
        SharedArcCache {
            shards: (0..n).map(|_| Mutex::new(ArcCache::new(per_shard))).collect(),
            reads: Counter::default(),
            fills: Counter::default(),
        }
    }

    /// Attach observability. The shard caches accumulate into the shared
    /// `arc_*_total` counters (thread-safe atomics), and the wrapper adds
    /// `shared_arc_reads_total` / `shared_arc_fills_total`.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.reads = metrics.counter("shared_arc_reads_total");
        self.fills = metrics.counter("shared_arc_fills_total");
        for shard in &self.shards {
            shard.lock().expect("shard poisoned").set_metrics(metrics);
        }
    }

    fn shard(&self, key: BlockKey) -> &Mutex<ArcCache> {
        &self.shards[(key % self.shards.len() as u128) as usize]
    }

    /// Concurrent read-through: hit bumps the payload refcount, miss
    /// decompresses under the shard lock and caches the produced buffer.
    /// Semantics match the serial LRU's read-through exactly (missing file →
    /// `None`, hole → shared zero block).
    pub fn read_through(
        &self,
        pool: &ZPool,
        file: &str,
        block_idx: u64,
    ) -> Option<SharedPayload> {
        self.reads.inc();
        match pool.block_ref(file, block_idx)? {
            None => Some(pool.zero_block_shared()),
            Some(r) => {
                let mut shard = self.shard(r.key).lock().expect("shard poisoned");
                if let Some(data) = shard.get(r.key) {
                    return Some(Arc::clone(data));
                }
                let data = pool.read_block_shared(file, block_idx)?;
                self.fills.inc();
                shard.insert(r.key, Arc::clone(&data));
                Some(data)
            }
        }
    }

    /// Aggregate statistics summed over all shards.
    pub fn stats(&self) -> ArcStats {
        let mut total = ArcStats::default();
        for shard in &self.shards {
            let s = shard.lock().expect("shard poisoned").stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// Total cached bytes across shards.
    pub fn used_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").used_bytes())
            .sum()
    }

    /// Total cached entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolConfig;
    use squirrel_compress::Codec;

    fn pool_with_file(blocks: &[u8]) -> ZPool {
        let mut pool = ZPool::new(PoolConfig::new(512, Codec::Lz4));
        pool.create_file("img");
        for (i, &f) in blocks.iter().enumerate() {
            pool.write_block("img", i as u64, &vec![f; 512]);
        }
        pool
    }

    #[test]
    fn matches_serial_arc_semantics() {
        let pool = pool_with_file(&[1, 2, 3]);
        let shared = SharedArcCache::new(1 << 20, 4);
        let mut serial = ArcCache::new(1 << 20);
        for idx in [0u64, 1, 2, 0, 1, 2, 7] {
            let a = shared.read_through(&pool, "img", idx).expect("file");
            let b = serial.read_through(&pool, "img", idx).expect("file");
            assert_eq!(a, b, "idx {idx}");
        }
        assert!(shared.read_through(&pool, "missing", 0).is_none());
        assert_eq!(shared.stats(), serial.stats());
    }

    #[test]
    fn warm_hits_alias_one_buffer() {
        let pool = pool_with_file(&[9]);
        let shared = SharedArcCache::new(1 << 20, 2);
        let a = shared.read_through(&pool, "img", 0).expect("file");
        let b = shared.read_through(&pool, "img", 0).expect("file");
        assert!(Arc::ptr_eq(&a, &b), "warm read is a refcount bump");
        assert_eq!(shared.stats().hits, 1);
        assert_eq!(shared.stats().misses, 1);
    }

    #[test]
    fn concurrent_readers_bit_identical_at_any_thread_count() {
        let pool = pool_with_file(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let reference: Vec<_> = (0..8u64)
            .map(|i| pool.read_block("img", i).expect("file"))
            .collect();
        for threads in [1usize, 2, 8] {
            let cache = SharedArcCache::new(1 << 20, 4);
            let results: Vec<Vec<u8>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let cache = &cache;
                        let pool = &pool;
                        scope.spawn(move || {
                            (0..8u64)
                                .map(|i| {
                                    cache.read_through(pool, "img", i).expect("file").to_vec()
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("reader panicked"))
                    .collect()
            });
            for (i, got) in results.iter().enumerate() {
                assert_eq!(got, &reference[i % 8], "threads={threads} read {i}");
            }
            // Cache sized above the working set: each unique block fills
            // exactly once regardless of reader count.
            assert_eq!(cache.stats().misses, 8, "threads={threads}");
            assert_eq!(cache.stats().evictions, 0, "threads={threads}");
            assert_eq!(cache.len(), 8);
        }
    }

    #[test]
    fn counters_track_reads_and_fills() {
        let registry = squirrel_obs::MetricsRegistry::new();
        let pool = pool_with_file(&[1, 2]);
        let mut cache = SharedArcCache::new(1 << 20, 4);
        cache.set_metrics(&registry.handle());
        for _ in 0..3 {
            cache.read_through(&pool, "img", 0).expect("file");
            cache.read_through(&pool, "img", 1).expect("file");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("shared_arc_reads_total"), Some(6));
        assert_eq!(snap.counter("shared_arc_fills_total"), Some(2));
    }

    #[test]
    fn oversized_insert_through_shards_keeps_residents() {
        // Shard caches inherit the ArcCache bypass ordering: a payload
        // larger than the shard must not flush the shard's residents.
        let pool = pool_with_file(&[1, 2]);
        let cache = SharedArcCache::new(1300, 1);
        cache.read_through(&pool, "img", 0).expect("file");
        cache.read_through(&pool, "img", 1).expect("file");
        assert_eq!(cache.len(), 2);
        let mut big = ZPool::new(PoolConfig::new(2048, Codec::Lz4));
        big.create_file("big");
        big.write_block("big", 0, &[7u8; 2048]);
        cache.read_through(&big, "big", 0).expect("file");
        assert_eq!(cache.len(), 2, "oversized fill must not evict residents");
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.used_bytes(), 1024);
    }

    #[test]
    fn shard_capacity_split_still_bounds_bytes() {
        // 8 distinct 512-byte blocks through a 1-shard 1024-byte cache:
        // evictions keep used bytes within capacity.
        let pool = pool_with_file(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let cache = SharedArcCache::new(1024, 1);
        for i in 0..8u64 {
            cache.read_through(&pool, "img", i).expect("file");
        }
        assert!(cache.used_bytes() <= 1024);
        assert!(cache.stats().evictions > 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::PoolConfig;
    use proptest::prelude::*;
    use squirrel_compress::Codec;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Differential oracle: a single-shard [`SharedArcCache`] and the
        /// serial [`ArcCache`] driven by one op sequence must agree on every
        /// payload, every hit/miss/eviction counter, and the resident set —
        /// including capacities below the block size, where every fill takes
        /// the oversized bypass and must leave residents untouched.
        #[test]
        fn differential_shared_vs_serial(
            capacity in 100u64..2600,
            ops in proptest::collection::vec(0u64..12, 1..120),
        ) {
            let mut pool = ZPool::new(PoolConfig::new(512, Codec::Lz4));
            pool.create_file("img");
            for i in 0..9u64 {
                pool.write_block("img", i, &vec![i as u8 + 1; 512]);
            }
            // Block 9 is a hole (served from the shared zero block, never
            // cached); 10 and 11 are out of range.
            pool.write_block("img", 9, &[0u8; 512]);
            let shared = SharedArcCache::new(capacity, 1);
            let mut serial = ArcCache::new(capacity);
            for (step, &idx) in ops.iter().enumerate() {
                let a = shared.read_through(&pool, "img", idx);
                let b = serial.read_through(&pool, "img", idx);
                prop_assert_eq!(&a, &b, "payload diverged at step {} (idx {})", step, idx);
            }
            prop_assert_eq!(shared.stats(), serial.stats());
            prop_assert_eq!(shared.used_bytes(), serial.used_bytes());
            prop_assert_eq!(shared.len(), serial.len());
            // Residency probe: a full scan hits exactly the resident set, so
            // stats still matching after it proves the LRU contents match.
            for idx in 0..12u64 {
                let a = shared.read_through(&pool, "img", idx);
                let b = serial.read_through(&pool, "img", idx);
                prop_assert_eq!(a, b, "probe diverged at idx {}", idx);
            }
            prop_assert_eq!(shared.stats(), serial.stats());
        }

        /// The serial reference itself returns bytes identical to
        /// re-decompressing the pool record on every read, across random
        /// block sizes, codecs, and cache capacities (including a zero-byte
        /// cache that bypasses constantly, and reads of holes and past-EOF
        /// blocks). `tests/zero_copy_props.rs` holds the shared cache to
        /// the same oracle from outside the crate.
        #[test]
        fn serial_read_path_matches_decompress_oracle(
            bs_pow in 9u32..13,
            codec in prop_oneof![
                Just(Codec::Off), Just(Codec::Gzip(6)), Just(Codec::Lzjb), Just(Codec::Lz4),
                Just(Codec::Zle),
            ],
            capacity in prop_oneof![Just(0u64), 512u64..(1 << 16)],
            writes in proptest::collection::vec((0u64..24, any::<u8>(), any::<bool>()), 1..24),
            reads in proptest::collection::vec(0u64..26, 1..64),
        ) {
            let bs = 1usize << bs_pow;
            let mut pool = ZPool::new(PoolConfig::new(bs, codec));
            pool.create_file("f");
            for &(idx, seed, compressible) in &writes {
                let block: Vec<u8> = if compressible {
                    vec![seed; bs]
                } else {
                    (0..bs).map(|i| seed.wrapping_mul(31).wrapping_add((i % 251) as u8)).collect()
                };
                pool.write_block("f", idx, &block);
            }
            let mut arc = ArcCache::new(capacity);
            for &idx in &reads {
                let via_arc = arc.read_through(&pool, "f", idx).map(|d| d.to_vec());
                prop_assert_eq!(via_arc, pool.read_block("f", idx), "diverged at block {}", idx);
            }
            prop_assert_eq!(arc.read_through(&pool, "missing", 0), None);
        }
    }
}
