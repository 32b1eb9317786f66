//! What a deployment is configured with: the hoard budget, the shared
//! tier's physical layer, and [`SquirrelConfig`] with its builder.

#[cfg(doc)]
use super::Squirrel;
use crate::dist::DistributionPolicy;
use squirrel_cluster::{LinkKind, NodeId, TopologyConfig};
use squirrel_compress::Codec;
use squirrel_zfs::{ChunkStrategy, DedupMode};

/// Per-node hoard budget: how much a compute node may spend on hoarded
/// caches, on the paper's two axes — ccVolume disk footprint and in-core
/// dedup-table memory. The paper's feasibility claim (Section 4.3) is that
/// the whole catalog fits in ~10 GB of disk and ~60 MB of DDT memory per
/// node; [`HoardBudget::paper`] encodes exactly those numbers. `0` on an
/// axis means unlimited.
///
/// Enforcement is whole-cache and popularity-aware: when a node exceeds
/// budget, [`Squirrel::enforce_hoard_budgets`] evicts its least-booted image
/// caches until it fits. Evicted images keep booting — degraded, via shared
/// storage — and re-hoard on demand ([`Squirrel::rehoard_cache`]): the
/// paper's partial-hoarding fallback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HoardBudget {
    /// ccVolume total-disk budget in bytes (`0` = unlimited).
    pub disk_bytes: u64,
    /// ccVolume in-core DDT budget in bytes (`0` = unlimited).
    pub ddt_mem_bytes: u64,
}

impl HoardBudget {
    /// No budget on either axis — full scatter hoarding (the default).
    pub fn unlimited() -> Self {
        HoardBudget::default()
    }

    /// The paper's per-node numbers: 10 GiB of disk, 60 MiB of DDT memory.
    pub fn paper() -> Self {
        HoardBudget {
            disk_bytes: 10 << 30,
            ddt_mem_bytes: 60 << 20,
        }
    }

    /// Both axes unlimited: enforcement is a no-op.
    pub fn is_unlimited(&self) -> bool {
        self.disk_bytes == 0 && self.ddt_mem_bytes == 0
    }
}

/// Physical layer of the scVolume's shared storage tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharedStorage {
    /// The paper's glusterfs 2×2: striping plus flat replication. Every
    /// byte is stored twice; a rack loss can take both replicas of a
    /// stripe with it.
    Replicated,
    /// k+m Reed–Solomon erasure coding: registration caches stripe into
    /// `k` data + `m` parity shards placed across distinct racks by the
    /// cluster topology, so the tier survives the loss of any `m` shards —
    /// a whole rack, when shards spread over at least `m`+1 racks — at
    /// `(k+m)/k`× storage overhead. Cold-path reads reconstruct from
    /// parity when shards are unreachable (degraded but byte-identical).
    ErasureCoded { k: u32, m: u32 },
}

/// System configuration; defaults match the paper's deployment.
///
/// Construct with [`SquirrelConfig::builder`] (the struct is
/// `#[non_exhaustive]`, so it cannot be built with a literal outside this
/// crate) or start from [`Default`] — both give the paper's deployment.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct SquirrelConfig {
    /// cVolume record size. The paper's evaluation picks 64 KiB.
    pub block_size: usize,
    /// cVolume compression. The paper picks gzip-6.
    pub codec: Codec,
    /// Snapshot retention window `n`, in days (offline propagation window).
    pub gc_window_days: u64,
    /// Interconnect used for propagation and cold-path traffic.
    pub link: LinkKind,
    pub compute_nodes: u32,
    pub storage_nodes: u32,
    /// Worker threads for cache ingestion and multicast application
    /// (`0` = all available cores). Purely a throughput knob: results are
    /// bit-identical at any setting.
    pub threads: usize,
    /// Record metrics and journal events (see [`Squirrel::metrics`]). When
    /// `false` every instrument is a disabled no-op handle.
    pub metrics: bool,
    /// Per-node hoard budget (disk / DDT memory); unlimited by default.
    /// Enforced by [`Squirrel::enforce_hoard_budgets`].
    pub hoard_budget: HoardBudget,
    /// How hoard bytes travel to compute nodes (registration diffs, cache
    /// restores, rejoin catch-ups). Point-to-point unicast by default; see
    /// [`DistributionPolicy`].
    pub distribution: DistributionPolicy,
    /// How imported cache contents are cut into records. Fixed-size (the
    /// paper's ZFS recordsize) by default; a `Fixed` strategy always follows
    /// [`block_size`](Self::block_size), whatever size it names. Switch to
    /// [`ChunkStrategy::Cdc`] for content-defined chunking, which keeps
    /// dedup working across byte-shifted image versions.
    pub chunking: ChunkStrategy,
    /// Forward (ZFS-style: new blocks scatter toward old copies) or reverse
    /// (RevDedup-style: each import is relocated into one sequential run,
    /// fragmenting *older* snapshots instead) deduplication.
    pub dedup_mode: DedupMode,
    /// Failure-domain layout of the cluster (region → datacenter → rack →
    /// node). Flat — one rack, the paper's DAS-4 — by default; multi-rack
    /// layouts give cross-domain links higher transfer costs and let the
    /// fault layer take whole domains offline.
    pub topology: TopologyConfig,
    /// Physical layer of the shared storage tier; the paper's replicated
    /// gluster by default.
    pub shared_storage: SharedStorage,
}

impl Default for SquirrelConfig {
    fn default() -> Self {
        SquirrelConfig {
            block_size: 64 * 1024,
            codec: Codec::Gzip(6),
            gc_window_days: 7,
            link: LinkKind::GbE,
            compute_nodes: 64,
            storage_nodes: 4,
            threads: 0,
            metrics: true,
            hoard_budget: HoardBudget::unlimited(),
            distribution: DistributionPolicy::Unicast,
            chunking: ChunkStrategy::Fixed(64 * 1024),
            dedup_mode: DedupMode::Forward,
            topology: TopologyConfig::flat(),
            shared_storage: SharedStorage::Replicated,
        }
    }
}

impl SquirrelConfig {
    /// Builder seeded with the paper's deployment defaults.
    pub fn builder() -> SquirrelConfigBuilder {
        SquirrelConfigBuilder {
            config: SquirrelConfig::default(),
        }
    }

    /// The chunking strategy as handed to pools: a `Fixed` strategy always
    /// tracks [`block_size`](Self::block_size), whatever size it was built
    /// with, so `..Default::default()` literals stay consistent when only
    /// the record size is overridden.
    pub fn pool_chunking(&self) -> ChunkStrategy {
        match self.chunking {
            ChunkStrategy::Fixed(_) => ChunkStrategy::Fixed(self.block_size),
            cdc => cdc,
        }
    }

    /// The first storage node — the scVolume's network endpoint. Node ids
    /// run compute nodes first, then storage nodes; this is the one place
    /// that layout is read as an id rather than a count.
    pub(super) fn storage_root(&self) -> NodeId {
        self.compute_nodes
    }
}

/// Builder for [`SquirrelConfig`]; every unset knob keeps its paper default.
#[derive(Clone, Debug)]
pub struct SquirrelConfigBuilder {
    config: SquirrelConfig,
}

impl SquirrelConfigBuilder {
    pub fn block_size(mut self, bytes: usize) -> Self {
        self.config.block_size = bytes;
        self
    }

    pub fn codec(mut self, codec: Codec) -> Self {
        self.config.codec = codec;
        self
    }

    pub fn gc_window_days(mut self, days: u64) -> Self {
        self.config.gc_window_days = days;
        self
    }

    pub fn link(mut self, link: LinkKind) -> Self {
        self.config.link = link;
        self
    }

    pub fn compute_nodes(mut self, nodes: u32) -> Self {
        self.config.compute_nodes = nodes;
        self
    }

    pub fn storage_nodes(mut self, nodes: u32) -> Self {
        self.config.storage_nodes = nodes;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    pub fn metrics(mut self, enabled: bool) -> Self {
        self.config.metrics = enabled;
        self
    }

    /// Per-node hoard budget; [`HoardBudget::unlimited`] by default.
    pub fn hoard_budget(mut self, budget: HoardBudget) -> Self {
        self.config.hoard_budget = budget;
        self
    }

    /// Distribution policy for hoard transfers;
    /// [`DistributionPolicy::Unicast`] by default.
    pub fn distribution(mut self, policy: DistributionPolicy) -> Self {
        self.config.distribution = policy;
        self
    }

    /// Chunking strategy for cache imports; fixed records at
    /// [`block_size`](Self::block_size) by default. A `Fixed` strategy is
    /// normalized to the configured record size, so only its kind matters.
    pub fn chunking(mut self, strategy: ChunkStrategy) -> Self {
        self.config.chunking = strategy;
        self
    }

    /// Dedup placement mode; [`DedupMode::Forward`] by default.
    pub fn dedup_mode(mut self, mode: DedupMode) -> Self {
        self.config.dedup_mode = mode;
        self
    }

    /// Failure-domain layout; [`TopologyConfig::flat`] by default.
    pub fn topology(mut self, topology: TopologyConfig) -> Self {
        self.config.topology = topology;
        self
    }

    /// Shared storage tier; [`SharedStorage::Replicated`] by default.
    pub fn shared_storage(mut self, storage: SharedStorage) -> Self {
        self.config.shared_storage = storage;
        self
    }

    /// Finish the configuration.
    ///
    /// # Panics
    /// If the record size is not a power of two of at least 512 bytes, or
    /// fewer than four storage nodes are configured (gluster 2x2 striping +
    /// replication needs four bricks).
    pub fn build(self) -> SquirrelConfig {
        assert!(
            self.config.block_size >= 512 && self.config.block_size.is_power_of_two(),
            "record size must be a power of two >= 512"
        );
        assert!(
            self.config.storage_nodes >= 4,
            "gluster 2x2 needs four bricks"
        );
        if let SharedStorage::ErasureCoded { k, m } = self.config.shared_storage {
            assert!(
                k > 0 && m > 0 && k + m <= 255,
                "bad erasure geometry k={k} m={m}"
            );
            assert!(
                self.config.storage_nodes >= k + m,
                "erasure coding needs at least k+m={} storage nodes",
                k + m
            );
        }
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_mirrors_literal_and_validates() {
        let built = SquirrelConfig::builder()
            .block_size(16 * 1024)
            .codec(Codec::Gzip(1))
            .gc_window_days(3)
            .link(LinkKind::QdrInfiniband)
            .compute_nodes(8)
            .storage_nodes(4)
            .threads(2)
            .metrics(false)
            .chunking(ChunkStrategy::Cdc(squirrel_zfs::CdcParams::with_average(
                4096,
            )))
            .dedup_mode(DedupMode::Reverse)
            .build();
        assert_eq!(built.block_size, 16 * 1024);
        assert_eq!(built.codec, Codec::Gzip(1));
        assert_eq!(built.gc_window_days, 3);
        assert_eq!(built.compute_nodes, 8);
        assert_eq!(built.threads, 2);
        assert!(!built.metrics);
        assert!(built.chunking.is_cdc());
        assert_eq!(built.dedup_mode, DedupMode::Reverse);
        let default = SquirrelConfig::builder().build();
        assert_eq!(default.block_size, SquirrelConfig::default().block_size);
        assert!(default.metrics);
        assert_eq!(default.dedup_mode, DedupMode::Forward);
        // A Fixed strategy is normalized to the configured record size.
        let odd = SquirrelConfig::builder().block_size(16 * 1024).build();
        assert_eq!(odd.pool_chunking(), ChunkStrategy::Fixed(16 * 1024));
    }

    #[test]
    #[should_panic(expected = "record size")]
    fn config_builder_rejects_bad_block_size() {
        let _ = SquirrelConfig::builder().block_size(1000).build();
    }
}
