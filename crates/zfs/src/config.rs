//! Pool configuration: record size, codec, threads, quotas and placement.

use squirrel_compress::Codec;
use squirrel_hash::cdc::CdcParams;

/// How commits place new data relative to existing snapshots' copies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DedupMode {
    /// Classic forward dedup: a new write that matches an existing block
    /// points at the *old* physical copy, so the newest snapshot inherits
    /// the pool's accumulated fragmentation.
    #[default]
    Forward,
    /// RevDedup-style reverse dedup: after each whole-file import the pool
    /// runs [`crate::ZPool::reverse_dedup_pass`], relocating every record
    /// of the new file to fresh sequential extents at the allocation
    /// cursor. Older snapshots' pointers chase the moved blocks, so the
    /// *latest* data stays physically sequential and old snapshots pay the
    /// seek cost.
    Reverse,
}

/// Configuration of a [`crate::ZPool`].
///
/// Construct via [`PoolConfig::new`] (or `Default`, the paper's 64 KiB
/// gzip-6 pool) and the `with_*` setters; the struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking
/// downstream crates.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct PoolConfig {
    /// Fixed record size (ZFS `recordsize`); the dedup/compression unit.
    pub block_size: usize,
    /// Inline compression routine (ZFS `compression=`).
    pub codec: Codec,
    /// Keep block payloads in memory so files can be read back. Accounting
    /// sweeps that only need [`crate::SpaceStats`] turn this off to bound
    /// memory.
    pub retain_data: bool,
    /// Worker threads for the staged ingestion pipeline
    /// ([`crate::ZPool::import_file`]); `0` = all available cores.
    /// Results are bit-identical at any setting.
    pub threads: usize,
    /// Hoard budget: total on-disk bytes this pool should occupy
    /// ([`crate::SpaceStats::total_disk_bytes`]); `0` = unlimited. The pool
    /// only *reports* pressure ([`crate::ZPool::quota_excess`]) — eviction
    /// policy lives with the caller.
    pub disk_quota_bytes: u64,
    /// Hoard budget: in-core DDT bytes
    /// ([`crate::SpaceStats::ddt_memory_bytes`]); `0` = unlimited.
    /// Reported, not enforced, like [`disk_quota_bytes`](Self::disk_quota_bytes).
    pub ddt_mem_quota_bytes: u64,
    /// How whole-file imports cut content into dedup units: `None` keeps
    /// the classic `block_size` records; `Some` cuts content-defined chunks
    /// with these parameters in the parallel prepare stage.
    pub cdc: Option<CdcParams>,
    /// Forward (classic) or reverse (read-optimized, RevDedup-style)
    /// commit placement.
    pub dedup_mode: DedupMode,
}

/// The paper's production choice: 64 KiB records, gzip-6, dedup on.
impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig::new(64 * 1024, Codec::Gzip(6))
    }
}

impl PoolConfig {
    /// Start a builder seeded with the [`Default`] pool.
    pub fn builder() -> PoolConfigBuilder {
        let d = PoolConfig::default();
        PoolConfigBuilder {
            block_size: d.block_size,
            codec: d.codec,
            threads: d.threads,
        }
    }

    /// A pool with the given record size and codec, fixed records, forward
    /// dedup, no quotas.
    pub fn new(block_size: usize, codec: Codec) -> Self {
        assert!(
            block_size >= 512 && block_size.is_power_of_two(),
            "record size"
        );
        PoolConfig {
            block_size,
            codec,
            retain_data: true,
            threads: 0,
            disk_quota_bytes: 0,
            ddt_mem_quota_bytes: 0,
            cdc: None,
            dedup_mode: DedupMode::Forward,
        }
    }

    /// Accounting-only variant (no payload retention).
    pub fn accounting_only(mut self) -> Self {
        self.retain_data = false;
        self
    }

    /// Set the ingestion worker-thread count (`0` = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the hoard budget (`0` = unlimited on either axis).
    pub fn with_quotas(mut self, disk_bytes: u64, ddt_mem_bytes: u64) -> Self {
        self.disk_quota_bytes = disk_bytes;
        self.ddt_mem_quota_bytes = ddt_mem_bytes;
        self
    }

    /// Cut whole-file imports into content-defined chunks.
    pub fn with_cdc(mut self, params: CdcParams) -> Self {
        self.cdc = Some(params);
        self
    }

    /// Set the commit placement mode.
    pub fn with_dedup_mode(mut self, mode: DedupMode) -> Self {
        self.dedup_mode = mode;
        self
    }
}

/// Builder for [`PoolConfig`]'s record size, codec and threads; every
/// other knob is set through `PoolConfig`'s `with_*` methods.
#[derive(Clone, Debug)]
pub struct PoolConfigBuilder {
    block_size: usize,
    codec: Codec,
    threads: usize,
}

impl PoolConfigBuilder {
    /// Fixed record size; must be a power of two of at least 512 bytes
    /// (checked in [`build`](Self::build)).
    pub fn block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    pub fn codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// Ingestion worker threads (`0` = all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    pub fn build(self) -> PoolConfig {
        PoolConfig::new(self.block_size, self.codec).with_threads(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "record size")]
    fn rejects_non_power_of_two() {
        PoolConfig::new(3000, Codec::Off);
    }

    #[test]
    #[should_panic(expected = "record size")]
    fn rejects_tiny_block() {
        PoolConfig::new(256, Codec::Off);
    }

    #[test]
    fn accounting_only_disables_retention() {
        assert!(!PoolConfig::default().accounting_only().retain_data);
    }

    #[test]
    fn builder_mirrors_constructors() {
        let built = PoolConfig::builder()
            .block_size(4096)
            .codec(Codec::Lz4)
            .threads(3)
            .build();
        assert_eq!(built.block_size, 4096);
        assert_eq!(built.codec, Codec::Lz4);
        assert_eq!(built.threads, 3);
        // Unset knobs keep the defaults.
        assert!(built.retain_data);
        assert_eq!(built.disk_quota_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "record size")]
    fn builder_validates_block_size() {
        let _ = PoolConfig::builder().block_size(1000).build();
    }

    #[test]
    fn quotas_default_unlimited_and_are_settable() {
        let d = PoolConfig::default();
        assert_eq!(d.disk_quota_bytes, 0);
        assert_eq!(d.ddt_mem_quota_bytes, 0);
        let c = PoolConfig::new(4096, Codec::Lz4).with_quotas(1 << 30, 1 << 20);
        assert_eq!(c.disk_quota_bytes, 1 << 30);
        assert_eq!(c.ddt_mem_quota_bytes, 1 << 20);
    }

    #[test]
    fn default_is_64k_gzip6() {
        let d = PoolConfig::default();
        assert_eq!(d.block_size, 65536);
        assert_eq!(d.codec, Codec::Gzip(6));
        assert!(d.retain_data);
    }

    #[test]
    fn chunking_and_dedup_mode_are_settable() {
        let p = CdcParams::with_average(4096);
        let c = PoolConfig::new(4096, Codec::Off)
            .with_cdc(p)
            .with_dedup_mode(DedupMode::Reverse);
        assert_eq!(c.cdc, Some(p));
        assert_eq!(c.dedup_mode, DedupMode::Reverse);
    }
}
