//! The copy-on-write overlay (QCOW2-style, cluster granular).

use crate::disk::VirtualDisk;
use crate::ImageError;
use squirrel_obs::{Counter, Metrics};
use std::collections::HashMap;

/// Default QCOW2 cluster size: 64 KiB (128 sectors) — the constant the paper
/// credits for the free-prefetch effect and for 64 KiB being the cVolume
/// sweet spot.
pub const DEFAULT_CLUSTER_SIZE: usize = 64 * 1024;

/// A copy-on-write image over a backing layer.
///
/// Reads of unallocated ranges are forwarded to the backing layer as whole
/// clusters (matching how QCOW2 issues `(offset, 128 sectors)` requests);
/// writes allocate private cluster copies filled from the backing first.
pub struct CowImage<B: VirtualDisk> {
    cluster_size: usize,
    clusters: HashMap<u64, Box<[u8]>>,
    backing: B,
    size: u64,
    chain_reads: Counter,
    chain_read_bytes: Counter,
    allocs: Counter,
}

impl<B: VirtualDisk> CowImage<B> {
    /// New empty overlay with the default 64 KiB cluster size.
    pub fn new(backing: B) -> Self {
        Self::with_cluster_size(backing, DEFAULT_CLUSTER_SIZE)
    }

    pub fn with_cluster_size(backing: B, cluster_size: usize) -> Self {
        Self::try_with_cluster_size(backing, cluster_size).expect("valid cluster size")
    }

    /// Fallible [`with_cluster_size`](Self::with_cluster_size): rejects
    /// cluster sizes that are not a power of two of at least 512 bytes.
    pub fn try_with_cluster_size(backing: B, cluster_size: usize) -> Result<Self, ImageError> {
        if !cluster_size.is_power_of_two() || cluster_size < 512 {
            return Err(ImageError::BadGranule { bytes: cluster_size });
        }
        let size = backing.len();
        Ok(CowImage {
            cluster_size,
            clusters: HashMap::new(),
            backing,
            size,
            chain_reads: Counter::default(),
            chain_read_bytes: Counter::default(),
            allocs: Counter::default(),
        })
    }

    /// Attach observability: backing-chain reads record `cow_chain_reads_total`
    /// / `cow_chain_read_bytes_total`, and CoW allocations record
    /// `cow_alloc_clusters_total` on `metrics`.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.chain_reads = metrics.counter("cow_chain_reads_total");
        self.chain_read_bytes = metrics.counter("cow_chain_read_bytes_total");
        self.allocs = metrics.counter("cow_alloc_clusters_total");
    }

    pub fn cluster_size(&self) -> usize {
        self.cluster_size
    }

    /// Number of privately allocated clusters (the CoW image's disk cost).
    pub fn allocated_clusters(&self) -> usize {
        self.clusters.len()
    }

    pub fn backing(&mut self) -> &mut B {
        &mut self.backing
    }

    /// Write `data` at `offset`, allocating clusters copy-on-write.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) {
        let cs = self.cluster_size as u64;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let cluster = abs / cs;
            let within = (abs % cs) as usize;
            let take = (self.cluster_size - within).min(data.len() - pos);
            if !self.clusters.contains_key(&cluster) {
                // Allocate: fill from backing (read-modify-write).
                let mut buf = vec![0u8; self.cluster_size].into_boxed_slice();
                self.backing.read_at(cluster * cs, &mut buf);
                self.allocs.inc();
                self.chain_reads.inc();
                self.chain_read_bytes.add(self.cluster_size as u64);
                self.clusters.insert(cluster, buf);
            }
            let buf = self.clusters.get_mut(&cluster).expect("just allocated");
            buf[within..within + take].copy_from_slice(&data[pos..pos + take]);
            pos += take;
        }
        self.size = self.size.max(offset + data.len() as u64);
    }
}

impl<B: VirtualDisk> VirtualDisk for CowImage<B> {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) {
        let cs = self.cluster_size as u64;
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = offset + pos as u64;
            let cluster = abs / cs;
            let within = (abs % cs) as usize;
            let take = (self.cluster_size - within).min(buf.len() - pos);
            match self.clusters.get(&cluster) {
                Some(data) => buf[pos..pos + take].copy_from_slice(&data[within..within + take]),
                None => {
                    // QCOW2 forwards the request to the backing file; the
                    // kernel's readahead plus qcow2's own granularity mean
                    // the backing layer effectively sees cluster-sized
                    // requests. Model that explicitly: fetch the whole
                    // cluster, copy the wanted part, discard the rest (the
                    // host page cache below will have kept it).
                    let mut cluster_buf = vec![0u8; self.cluster_size];
                    self.backing.read_at(cluster * cs, &mut cluster_buf);
                    self.chain_reads.inc();
                    self.chain_read_bytes.add(self.cluster_size as u64);
                    buf[pos..pos + take].copy_from_slice(&cluster_buf[within..within + take]);
                }
            }
            pos += take;
        }
    }

    fn len(&self) -> u64 {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cor::CorCache;
    use crate::disk::MemDisk;

    fn base(n: usize) -> MemDisk {
        MemDisk::new((0..n).map(|i| (i % 251) as u8).collect())
    }

    #[test]
    fn reads_pass_through_when_unallocated() {
        let mut cow = CowImage::with_cluster_size(base(4096), 1024);
        let mut buf = [0u8; 16];
        cow.read_at(100, &mut buf);
        assert_eq!(buf[0], 100);
        assert_eq!(cow.allocated_clusters(), 0, "reads must not allocate");
    }

    #[test]
    fn writes_are_private_and_read_back() {
        let mut cow = CowImage::with_cluster_size(base(4096), 1024);
        cow.write_at(100, &[0xaa; 8]);
        let mut buf = [0u8; 8];
        cow.read_at(100, &mut buf);
        assert_eq!(buf, [0xaa; 8]);
        // Backing unchanged around the write (read-modify-write fill).
        let mut buf2 = [0u8; 1];
        cow.read_at(99, &mut buf2);
        assert_eq!(buf2[0], 99);
        assert_eq!(cow.allocated_clusters(), 1);
    }

    /// 1 KiB clusters over a CoR layer of 512-byte blocks: what the layer
    /// below fetched shows which ranges the overlay asked it for.
    fn over_cor() -> CowImage<CorCache<MemDisk>> {
        CowImage::with_cluster_size(CorCache::new(base(8192), 512), 1024)
    }

    #[test]
    fn backing_sees_cluster_granular_requests() {
        let reg = squirrel_obs::MetricsRegistry::new();
        let mut cow = over_cor();
        cow.set_metrics(&reg.handle());
        let mut buf = [0u8; 10];
        cow.read_at(2500, &mut buf); // inside cluster 2
        let cor = cow.backing();
        assert!(cor.covers(2048, 1024), "whole-cluster over-fetch");
        assert_eq!((cor.fetch_count, cor.cached_bytes()), (2, 1024));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cow_chain_reads_total"), Some(1));
        assert_eq!(snap.counter("cow_chain_read_bytes_total"), Some(1024));
    }

    #[test]
    fn straddling_read_hits_both_clusters() {
        let mut cow = over_cor();
        let mut buf = [0u8; 100];
        cow.read_at(1000, &mut buf); // clusters 0 and 1
        let cor = cow.backing();
        assert!(cor.covers(0, 2048), "both clusters, whole");
        assert_eq!((cor.fetch_count, cor.cached_bytes()), (4, 2048));
        let want: Vec<u8> = (1000..1100).map(|i| (i % 251) as u8).collect();
        assert_eq!(buf.to_vec(), want);
    }

    #[test]
    fn write_straddling_clusters() {
        let mut cow = CowImage::with_cluster_size(base(4096), 1024);
        cow.write_at(1020, &[7u8; 10]);
        assert_eq!(cow.allocated_clusters(), 2);
        let mut buf = [0u8; 10];
        cow.read_at(1020, &mut buf);
        assert_eq!(buf, [7u8; 10]);
    }

    #[test]
    fn default_cluster_size_is_qcow2s() {
        let cow = CowImage::new(base(1024));
        assert_eq!(cow.cluster_size(), 65536);
    }

    #[test]
    fn writes_never_reach_the_layer_below() {
        let mut cow = CowImage::with_cluster_size(base(4096), 1024);
        cow.write_at(0, &[1u8; 4]); // private; backing untouched
        let mut buf = [0u8; 1];
        cow.backing().read_at(0, &mut buf);
        assert_eq!(buf[0], 0, "CoW write never reached the backing");
    }

    #[test]
    fn len_grows_with_writes_past_end() {
        let mut cow = CowImage::with_cluster_size(base(1024), 1024);
        assert_eq!(cow.len(), 1024);
        cow.write_at(5000, &[1]);
        assert_eq!(cow.len(), 5001);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::disk::MemDisk;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings of reads and writes agree with a flat model.
        #[test]
        fn cow_matches_flat_model(
            ops in proptest::collection::vec(
                (any::<bool>(), 0u64..4000, 1usize..200, any::<u8>()),
                1..40
            )
        ) {
            let base_data: Vec<u8> = (0..4096).map(|i| (i * 13 % 256) as u8).collect();
            let mut model = base_data.clone();
            model.resize(8192, 0);
            let mut cow = CowImage::with_cluster_size(MemDisk::new(base_data), 512);
            for (is_write, off, len, fill) in ops {
                if is_write {
                    cow.write_at(off, &vec![fill; len]);
                    let end = (off as usize + len).min(model.len());
                    for b in &mut model[off as usize..end] {
                        *b = fill;
                    }
                } else {
                    let mut got = vec![0u8; len];
                    cow.read_at(off, &mut got);
                    let mut want = vec![0u8; len];
                    let end = (off as usize + len).min(model.len());
                    if (off as usize) < end {
                        want[..end - off as usize].copy_from_slice(&model[off as usize..end]);
                    }
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
