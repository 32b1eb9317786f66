//! Device and CPU cost models.

/// Rotational-disk timing, defaults shaped on the DAS-4/VU nodes (two 7200
/// RPM SATA disks in software RAID-0).
#[derive(Clone, Copy, Debug)]
pub struct DiskModel {
    /// Minimum cost of any non-contiguous access (track-to-track + rotation).
    pub min_seek_ms: f64,
    /// Additional full-stroke seek cost; actual seeks interpolate by
    /// distance^0.4, the classic seek-curve shape.
    pub max_extra_seek_ms: f64,
    /// Distance treated as contiguous (readahead window).
    pub contiguous_bytes: u64,
    /// Span used to normalize seek distances (the device's busy region).
    pub span_bytes: u64,
    /// Sequential throughput, MB/s.
    pub seq_mbps: f64,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel {
            min_seek_ms: 0.8,
            max_extra_seek_ms: 7.2,
            contiguous_bytes: 512 * 1024,
            span_bytes: 64 << 30,
            seq_mbps: 210.0,
        }
    }
}

impl DiskModel {
    /// Seconds to read `len` bytes at `phys`, given the previous head
    /// position `prev_end`.
    pub fn read_seconds(&self, prev_end: u64, phys: u64, len: u64) -> f64 {
        let dist = prev_end.abs_diff(phys);
        let seek_s = if dist <= self.contiguous_bytes {
            0.0
        } else {
            let frac = (dist as f64 / self.span_bytes as f64).min(1.0);
            (self.min_seek_ms + self.max_extra_seek_ms * frac.powf(0.4)) / 1000.0
        };
        seek_s + len as f64 / (self.seq_mbps * 1e6)
    }
}

/// CPU-side costs of the boot path.
#[derive(Clone, Copy, Debug)]
pub struct CpuModel {
    /// Fixed OS work per boot (kernel + userspace init), seconds. The paper
    /// reports <20 s average boots; I/O accounts for the rest.
    pub os_boot_seconds: f64,
    /// Dedup-table lookup: base cost plus a per-doubling term as the table
    /// grows (hash walk + deeper ZAP trees).
    pub ddt_lookup_base_us: f64,
    pub ddt_lookup_per_log2_us: f64,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel {
            os_boot_seconds: 14.0,
            ddt_lookup_base_us: 1.5,
            ddt_lookup_per_log2_us: 0.35,
        }
    }
}

impl CpuModel {
    /// Seconds for one DDT lookup in a table of `entries`.
    pub fn ddt_lookup_seconds(&self, entries: u64) -> f64 {
        let log2 = (entries.max(1) as f64).log2();
        (self.ddt_lookup_base_us + self.ddt_lookup_per_log2_us * log2) / 1e6
    }
}

/// A growable bitset over small dense indices — a replay's per-boot
/// membership (clusters, granules, records), bounded by the boot's working
/// set: ≈ 2 k clusters and ≈ 8 k records at paper scale.
#[derive(Clone, Debug, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Add `i`; true if it was absent.
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let absent = self.words[word] & bit == 0;
        self.words[word] |= bit;
        absent
    }

    pub(crate) fn remove(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w &= !(1u64 << (i % 64));
        }
    }
}

/// A host page cache at fixed granule size: hits are free, capacity is
/// unbounded (boot working sets are far smaller than node RAM).
#[derive(Clone, Debug)]
pub(crate) struct PageCache {
    shift: u32,
    cached: BitSet,
}

impl PageCache {
    pub(crate) fn new(granule: u64) -> Self {
        assert!(granule.is_power_of_two());
        PageCache {
            shift: granule.trailing_zeros(),
            cached: BitSet::default(),
        }
    }

    fn granules(&self, offset: u64, len: u64) -> std::ops::RangeInclusive<usize> {
        (offset >> self.shift) as usize..=((offset + len.max(1) - 1) >> self.shift) as usize
    }

    /// True if `offset..offset+len` is fully resident.
    pub(crate) fn contains(&self, offset: u64, len: u64) -> bool {
        self.granules(offset, len).all(|g| self.cached.contains(g))
    }

    /// Mark `offset..offset+len` resident.
    pub(crate) fn insert(&mut self, offset: u64, len: u64) {
        for g in self.granules(offset, len) {
            self.cached.insert(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_reads_have_no_seek() {
        let d = DiskModel::default();
        let t = d.read_seconds(1000, 1000, 64 * 1024);
        let transfer = 65536.0 / (d.seq_mbps * 1e6);
        assert!((t - transfer).abs() < 1e-12);
    }

    #[test]
    fn far_seeks_cost_more_than_near() {
        let d = DiskModel::default();
        let near = d.read_seconds(0, 2 << 20, 4096);
        let far = d.read_seconds(0, 32 << 30, 4096);
        assert!(far > near, "{far} vs {near}");
        assert!(far < 0.010, "bounded by max seek: {far}");
    }

    #[test]
    fn seek_curve_monotone_in_distance() {
        let d = DiskModel::default();
        let mut prev = 0.0;
        for shift in 20..36 {
            let t = d.read_seconds(0, 1u64 << shift, 0);
            assert!(t >= prev, "shift {shift}");
            prev = t;
        }
    }

    #[test]
    fn ddt_lookup_grows_with_table() {
        let c = CpuModel::default();
        assert!(c.ddt_lookup_seconds(1 << 20) > c.ddt_lookup_seconds(1 << 10));
        assert!(c.ddt_lookup_seconds(1) > 0.0);
    }

    #[test]
    fn page_cache_hits_after_insert() {
        let mut pc = PageCache::new(4096);
        assert!(!pc.contains(0, 1));
        pc.insert(100, 5000);
        assert!(pc.contains(0, 4096));
        assert!(pc.contains(4096, 1024));
        assert!(!pc.contains(8192, 1));
        assert!(!pc.contains(0, 8193));
    }

    #[test]
    fn bitset_grows_and_forgets() {
        let mut s = BitSet::default();
        assert!(!s.contains(1 << 20));
        assert!(s.insert(130) && !s.insert(130));
        assert!(s.contains(130) && !s.contains(129) && !s.contains(131));
        s.remove(130);
        s.remove(1 << 20); // past the end: nothing to forget
        assert!(!s.contains(130) && s.insert(130));
    }

    #[test]
    fn page_cache_granule_rounding() {
        let mut pc = PageCache::new(4096);
        pc.insert(4095, 2); // straddles two granules
        assert!(pc.contains(0, 8192));
    }
}
