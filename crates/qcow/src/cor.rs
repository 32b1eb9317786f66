//! The copy-on-read cache layer (the paper's VMI cache, Figure 1 middle).

use crate::disk::VirtualDisk;
use squirrel_obs::{Counter, Metrics};
use std::collections::HashMap;
use std::sync::Arc;

/// A block-granular copy-on-read cache over a backing layer.
///
/// Cold path: a miss fetches the whole containing block from the backing
/// layer, stores it, and serves the request — after one boot the cache holds
/// the boot working set. Warm path: hits never touch the backing layer.
/// `prepopulate_shared` installs a warmed block (Squirrel's ccVolume case)
/// sharing the caller's buffer. Cached blocks are immutable `Arc<[u8]>`
/// payloads, so draining the cache into the pool (`into_blocks`) and
/// re-warming another cache from pool reads are refcount bumps, not copies.
pub struct CorCache<B: VirtualDisk> {
    block_size: usize,
    blocks: HashMap<u64, Arc<[u8]>>,
    backing: B,
    /// Number of backing fetches (each one whole block: the network
    /// traffic a cold boot causes).
    pub fetch_count: u64,
    fills: Counter,
    fill_bytes: Counter,
}

impl<B: VirtualDisk> CorCache<B> {
    /// A cold cache over `backing`. Panics unless `block_size` is a power
    /// of two of at least 512 bytes.
    pub fn new(backing: B, block_size: usize) -> Self {
        assert!(
            block_size.is_power_of_two() && block_size >= 512,
            "block size of {block_size} bytes is not a power of two >= 512"
        );
        CorCache {
            block_size,
            blocks: HashMap::new(),
            backing,
            fetch_count: 0,
            fills: Counter::default(),
            fill_bytes: Counter::default(),
        }
    }

    /// Attach observability: backing fetches record `cor_fills_total` and
    /// `cor_fill_bytes_total` on `metrics`.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.fills = metrics.counter("cor_fills_total");
        self.fill_bytes = metrics.counter("cor_fill_bytes_total");
    }

    /// Cached bytes (the VMI cache size).
    pub fn cached_bytes(&self) -> u64 {
        (self.blocks.len() * self.block_size) as u64
    }

    /// Install a warmed block sharing the caller's buffer (e.g. the payload
    /// a ccVolume read just produced) instead of copying it. Panics unless
    /// `data` is exactly one block.
    pub fn prepopulate_shared(&mut self, block_idx: u64, data: Arc<[u8]>) {
        assert_eq!(
            data.len(),
            self.block_size,
            "expected a block-sized payload"
        );
        self.blocks.insert(block_idx, data);
    }

    /// Drain the cache contents (block index, data), e.g. to persist the
    /// cache after a registration boot. Hands out the shared payloads
    /// themselves — no copies.
    pub fn into_blocks(self) -> Vec<(u64, Arc<[u8]>)> {
        let mut v: Vec<_> = self.blocks.into_iter().collect();
        v.sort_unstable_by_key(|(i, _)| *i);
        v
    }

    /// Copy-on-read one whole block from the backing layer into the cache,
    /// charging fetch accounting.
    fn fetch_block(&mut self, block: u64) {
        let mut data = vec![0u8; self.block_size];
        self.backing
            .read_at(block * self.block_size as u64, &mut data);
        self.fetch_count += 1;
        self.fills.inc();
        self.fill_bytes.add(self.block_size as u64);
        self.blocks.insert(block, data.into());
    }
}

impl<B: VirtualDisk> VirtualDisk for CorCache<B> {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) {
        let bs = self.block_size as u64;
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = offset + pos as u64;
            let block = abs / bs;
            let within = (abs % bs) as usize;
            let take = (self.block_size - within).min(buf.len() - pos);
            if !self.blocks.contains_key(&block) {
                // Miss: copy-on-read the full block.
                self.fetch_block(block);
            }
            let data = self.blocks.get(&block).expect("just inserted");
            buf[pos..pos + take].copy_from_slice(&data[within..within + take]);
            pos += take;
        }
    }

    fn len(&self) -> u64 {
        self.backing.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn base(n: usize) -> MemDisk {
        MemDisk::new((0..n).map(|i| (i % 251) as u8).collect())
    }

    #[test]
    fn cold_read_populates_cache() {
        let mut cor = CorCache::new(base(4096), 1024);
        let mut buf = [0u8; 8];
        cor.read_at(100, &mut buf);
        assert_eq!(buf[0], 100);
        assert_eq!((cor.fetch_count, cor.cached_bytes()), (1, 1024));
    }

    #[test]
    fn warm_read_never_touches_backing() {
        let mut cor = CorCache::new(base(4096), 1024);
        let mut buf = [0u8; 8];
        cor.read_at(100, &mut buf);
        let fetched = cor.fetch_count;
        cor.read_at(200, &mut buf); // same block
        cor.read_at(108, &mut buf);
        assert_eq!(cor.fetch_count, fetched, "no extra fetches");
    }

    #[test]
    fn straddling_read_fetches_each_block_once() {
        let mut cor = CorCache::new(base(8192), 1024);
        let mut buf = [0u8; 2000];
        cor.read_at(600, &mut buf);
        assert_eq!((cor.fetch_count, cor.cached_bytes()), (3, 3 * 1024));
        let want: Vec<u8> = (600u32..2600).map(|i| (i % 251) as u8).collect();
        assert_eq!(buf.to_vec(), want);
        cor.read_at(600, &mut buf);
        assert_eq!(cor.fetch_count, 3, "a second read is warm");
        let blocks: Vec<u64> = cor.into_blocks().into_iter().map(|(b, _)| b).collect();
        assert_eq!(blocks, [0, 1, 2], "blocks 0..=2, whole");
    }

    #[test]
    fn into_blocks_sorted() {
        let mut cor = CorCache::new(base(8192), 1024);
        let mut buf = [0u8; 1];
        cor.read_at(5000, &mut buf);
        cor.read_at(100, &mut buf);
        let blocks = cor.into_blocks();
        assert_eq!(blocks.len(), 2);
        assert!(blocks[0].0 < blocks[1].0);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn new_rejects_a_bad_granule() {
        let _ = CorCache::new(base(1024), 1000);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn new_rejects_a_granule_under_512_bytes() {
        let _ = CorCache::new(base(1024), 256);
    }

    #[test]
    #[should_panic(expected = "block-sized payload")]
    fn prepopulate_shared_rejects_a_short_payload() {
        let mut cor = CorCache::new(base(2048), 1024);
        cor.prepopulate_shared(0, vec![0u8; 3].into());
    }

    #[test]
    fn metrics_count_backing_fills() {
        let reg = squirrel_obs::MetricsRegistry::new();
        let mut cor = CorCache::new(base(4096), 1024);
        cor.set_metrics(&reg.handle());
        let mut buf = [0u8; 8];
        cor.read_at(100, &mut buf); // miss
        cor.read_at(100, &mut buf); // hit: no fill
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cor_fills_total"), Some(1));
        assert_eq!(snap.counter("cor_fill_bytes_total"), Some(1024));
    }

    #[test]
    fn prepopulate_shared_aliases_the_buffer() {
        let mut cor = CorCache::new(base(2048), 1024);
        let mut block0 = vec![0u8; 1024];
        base(2048).read_at(0, &mut block0);
        let payload: Arc<[u8]> = block0.into();
        cor.prepopulate_shared(0, Arc::clone(&payload));
        let mut buf = [0u8; 4];
        cor.read_at(10, &mut buf);
        assert_eq!(cor.fetch_count, 0, "prepopulated block serves locally");
        assert_eq!(buf[0], 10);
        let blocks = cor.into_blocks();
        assert_eq!(blocks.len(), 1);
        assert!(Arc::ptr_eq(&blocks[0].1, &payload), "zero-copy install");
    }
}
