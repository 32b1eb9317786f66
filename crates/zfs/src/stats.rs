//! Space accounting: the numbers the paper's Figures 8–10 and 13 plot.

/// A pool's space breakdown at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceStats {
    /// Record size the pool runs at.
    pub block_size: u64,
    /// Sum of logical file lengths.
    pub logical_bytes: u64,
    /// Unique (deduplicated) blocks — the DDT entry count.
    pub unique_blocks: u64,
    /// Compressed bytes of all unique blocks.
    pub physical_bytes: u64,
    /// On-disk dedup table footprint (Figure 9).
    pub ddt_disk_bytes: u64,
    /// In-core dedup table footprint (Figure 10).
    pub ddt_memory_bytes: u64,
    /// Block-pointer / indirect metadata on disk.
    pub bp_disk_bytes: u64,
}

impl SpaceStats {
    /// Total disk consumption: data + dedup table + pointer metadata
    /// (Figure 8's y-axis).
    pub fn total_disk_bytes(&self) -> u64 {
        self.physical_bytes + self.ddt_disk_bytes + self.bp_disk_bytes
    }
}

/// How far a pool is over its hoard budget, per axis. Zero on both axes
/// means within budget (or no budget configured).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct QuotaExcess {
    /// Bytes of total disk consumption above `disk_quota_bytes`.
    pub disk_bytes: u64,
    /// Bytes of in-core DDT footprint above `ddt_mem_quota_bytes`.
    pub ddt_mem_bytes: u64,
}

impl QuotaExcess {
    /// True when the pool is within budget on both axes.
    pub fn is_zero(&self) -> bool {
        self.disk_bytes == 0 && self.ddt_mem_bytes == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SpaceStats {
        SpaceStats {
            block_size: 65536,
            logical_bytes: 1_000_000,
            unique_blocks: 10,
            physical_bytes: 300_000,
            ddt_disk_bytes: 1_080,
            ddt_memory_bytes: 1_200,
            bp_disk_bytes: 640,
        }
    }

    #[test]
    fn total_disk_sums_components() {
        assert_eq!(stats().total_disk_bytes(), 300_000 + 1_080 + 640);
    }
}
