//! The copy-on-read cache layer (the paper's VMI cache, Figure 1 middle).

use crate::disk::VirtualDisk;
use crate::ImageError;
use squirrel_obs::{Counter, Metrics};
use std::collections::HashMap;
use std::sync::Arc;

/// A block-granular copy-on-read cache over a backing layer.
///
/// Cold path: a miss fetches the whole containing block from the backing
/// layer, stores it, and serves the request — after one boot the cache holds
/// the boot working set. Warm path: hits never touch the backing layer.
/// `prepopulate` installs a warmed cache directly (Squirrel's ccVolume
/// case); `prepopulate_shared` does so without copying, sharing the caller's
/// buffer. Cached blocks are immutable `Arc<[u8]>` payloads, so draining the
/// cache into the pool (`into_blocks`) and re-warming another cache from
/// pool reads are refcount bumps, not copies.
pub struct CorCache<B: VirtualDisk> {
    block_size: usize,
    blocks: HashMap<u64, Arc<[u8]>>,
    backing: B,
    /// Bytes fetched from the backing layer since creation (the network
    /// traffic a cold boot causes).
    pub fetched_bytes: u64,
    /// Number of backing fetches.
    pub fetch_count: u64,
    fills: Counter,
    fill_bytes: Counter,
}

impl<B: VirtualDisk> CorCache<B> {
    pub fn new(backing: B, block_size: usize) -> Self {
        Self::try_new(backing, block_size).expect("valid block size")
    }

    /// Fallible [`new`](Self::new): rejects block sizes that are not a
    /// power of two of at least 512 bytes.
    pub fn try_new(backing: B, block_size: usize) -> Result<Self, ImageError> {
        if !block_size.is_power_of_two() || block_size < 512 {
            return Err(ImageError::BadGranule { bytes: block_size });
        }
        Ok(CorCache {
            block_size,
            blocks: HashMap::new(),
            backing,
            fetched_bytes: 0,
            fetch_count: 0,
            fills: Counter::default(),
            fill_bytes: Counter::default(),
        })
    }

    /// Attach observability: backing fetches record `cor_fills_total` and
    /// `cor_fill_bytes_total` on `metrics`.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.fills = metrics.counter("cor_fills_total");
        self.fill_bytes = metrics.counter("cor_fill_bytes_total");
    }

    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of cached blocks.
    pub fn cached_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Cached bytes (the VMI cache size).
    pub fn cached_bytes(&self) -> u64 {
        (self.blocks.len() * self.block_size) as u64
    }

    /// True once `offset..offset+len` is fully cached.
    pub fn covers(&self, offset: u64, len: u64) -> bool {
        let bs = self.block_size as u64;
        let first = offset / bs;
        let last = (offset + len.max(1) - 1) / bs;
        (first..=last).all(|b| self.blocks.contains_key(&b))
    }

    /// Install a warmed block (Squirrel's pre-replicated caches).
    pub fn prepopulate(&mut self, block_idx: u64, data: &[u8]) {
        self.try_prepopulate(block_idx, data).expect("block-sized data")
    }

    /// Fallible [`prepopulate`](Self::prepopulate): rejects data whose
    /// length is not exactly one block.
    pub fn try_prepopulate(&mut self, block_idx: u64, data: &[u8]) -> Result<(), ImageError> {
        if data.len() != self.block_size {
            return Err(ImageError::BadBlockLength {
                expected: self.block_size,
                got: data.len(),
            });
        }
        self.blocks.insert(block_idx, data.to_vec().into());
        Ok(())
    }

    /// Zero-copy [`prepopulate`](Self::prepopulate): installs a warmed block
    /// sharing the caller's buffer (e.g. the payload a ccVolume read just
    /// produced) instead of copying it.
    pub fn prepopulate_shared(&mut self, block_idx: u64, data: Arc<[u8]>) {
        self.try_prepopulate_shared(block_idx, data).expect("block-sized data")
    }

    /// Fallible [`prepopulate_shared`](Self::prepopulate_shared).
    pub fn try_prepopulate_shared(
        &mut self,
        block_idx: u64,
        data: Arc<[u8]>,
    ) -> Result<(), ImageError> {
        if data.len() != self.block_size {
            return Err(ImageError::BadBlockLength {
                expected: self.block_size,
                got: data.len(),
            });
        }
        self.blocks.insert(block_idx, data);
        Ok(())
    }

    pub fn backing(&mut self) -> &mut B {
        &mut self.backing
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
        self.backing.read_at(block * self.block_size as u64, &mut data);
        self.fetched_bytes += self.block_size as u64;
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
        assert_eq!(cor.cached_blocks(), 1);
        assert_eq!(cor.fetched_bytes, 1024);
    }

    #[test]
    fn warm_read_never_touches_backing() {
        let mut cor = CorCache::new(base(4096), 1024);
        let mut buf = [0u8; 8];
        cor.read_at(100, &mut buf);
        let fetched = cor.fetched_bytes;
        cor.read_at(200, &mut buf); // same block
        cor.read_at(108, &mut buf);
        assert_eq!(cor.fetched_bytes, fetched, "no extra fetches");
    }

    #[test]
    fn prepopulated_cache_is_warm() {
        let mut inner = base(2048);
        let mut block0 = vec![0u8; 1024];
        inner.read_at(0, &mut block0);
        let mut cor = CorCache::new(inner, 1024);
        cor.prepopulate(0, &block0);
        let mut buf = [0u8; 16];
        cor.read_at(10, &mut buf);
        assert_eq!(cor.fetched_bytes, 0, "prepopulated block serves locally");
        assert_eq!(buf[0], 10);
    }

    #[test]
    fn covers_reports_cached_ranges() {
        let mut cor = CorCache::new(base(4096), 1024);
        assert!(!cor.covers(0, 100));
        let mut buf = [0u8; 1];
        cor.read_at(0, &mut buf);
        assert!(cor.covers(0, 1024));
        assert!(!cor.covers(0, 1025));
    }

    #[test]
    fn straddling_read_fetches_each_block_once() {
        let mut cor = CorCache::new(base(8192), 1024);
        let mut buf = [0u8; 2000];
        cor.read_at(600, &mut buf);
        assert_eq!((cor.fetch_count, cor.cached_bytes()), (3, 3 * 1024));
        assert!(cor.covers(0, 3 * 1024) && !cor.covers(3 * 1024, 1), "blocks 0..=2, whole");
        let want: Vec<u8> = (600u32..2600).map(|i| (i % 251) as u8).collect();
        assert_eq!(buf.to_vec(), want);
        cor.read_at(600, &mut buf);
        assert_eq!(cor.fetch_count, 3, "a second read is warm");
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
    fn fallible_constructors_report_errors() {
        assert_eq!(
            CorCache::try_new(base(1024), 1000).err(),
            Some(crate::ImageError::BadGranule { bytes: 1000 })
        );
        let mut cor = CorCache::new(base(2048), 1024);
        assert_eq!(
            cor.try_prepopulate(0, &[1, 2, 3]).unwrap_err(),
            crate::ImageError::BadBlockLength { expected: 1024, got: 3 }
        );
        let e: Box<dyn std::error::Error> =
            Box::new(crate::ImageError::BadGranule { bytes: 7 });
        assert_eq!(e.to_string(), "granule of 7 bytes is not a power of two >= 512");
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
        assert_eq!(cor.fetched_bytes, 0, "prepopulated block serves locally");
        assert_eq!(buf[0], 10);
        assert!(cor.try_prepopulate_shared(1, vec![0u8; 3].into()).is_err());
        let blocks = cor.into_blocks();
        assert_eq!(blocks.len(), 1);
        assert!(Arc::ptr_eq(&blocks[0].1, &payload), "zero-copy install");
    }

    #[test]
    fn chain_cow_over_cor_over_base() {
        // The full Figure-1 chain: CoW → CoR cache → base.
        use crate::cow::CowImage;
        let mut chain = CowImage::with_cluster_size(CorCache::new(base(16384), 1024), 1024);
        let mut buf = [0u8; 64];
        chain.read_at(1000, &mut buf);
        chain.write_at(1000, &[9u8; 4]);
        chain.read_at(1000, &mut buf);
        assert_eq!(&buf[..4], &[9, 9, 9, 9]);
        assert_eq!(buf[4], (1004 % 251) as u8);
        assert!(chain.backing().cached_blocks() > 0, "cache warmed through the chain");
    }
}
