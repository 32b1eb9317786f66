//! The Squirrel system: scVolume, ccVolumes, and the paper's workflows.

use crate::dist::{DistributionPolicy, TransferLeg, TransferPlan};
use crate::trace::paper_scale_trace;
use squirrel_bootsim::{Backend, BootReport, BootSim, DedupVolumeParams};
use squirrel_cluster::{
    EcConfig, EcError, EcRepairReport, EcStats, ErasureCodedVolume, GlusterConfig, GlusterVolume,
    LinkKind, NetError, Network, NodeId, TopologyConfig,
};
use squirrel_compress::Codec;
use squirrel_dataset::{Corpus, ImageId};
use squirrel_faults::{ChurnEvent, FaultPlan, FaultReport, PartitionEvent, TransferFault};
use squirrel_hash::par::WorkerPool;
use squirrel_obs::{Metrics, MetricsRegistry};
use squirrel_qcow::{CorCache, VirtualDisk};
use squirrel_zfs::{
    BlockKey, ChunkStrategy, DedupMode, PoolConfig, RecvError, ScrubReport, SendError,
    SendStream, SharedArcCache, SpaceStats, ZPool,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
        HoardBudget { disk_bytes: 10 << 30, ddt_mem_bytes: 60 << 20 }
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
    ErasureCoded {
        k: u32,
        m: u32,
    },
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
        SquirrelConfigBuilder { config: SquirrelConfig::default() }
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
        assert!(self.config.storage_nodes >= 4, "gluster 2x2 needs four bricks");
        if let SharedStorage::ErasureCoded { k, m } = self.config.shared_storage {
            assert!(k > 0 && m > 0 && k + m <= 255, "bad erasure geometry k={k} m={m}");
            assert!(
                self.config.storage_nodes >= k + m,
                "erasure coding needs at least k+m={} storage nodes",
                k + m
            );
        }
        self.config
    }
}

/// Errors surfaced by Squirrel's operations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SquirrelError {
    UnknownImage(ImageId),
    AlreadyRegistered(ImageId),
    NotRegistered(ImageId),
    NodeOffline(NodeId),
    NoSuchNode(NodeId),
    /// A snapshot stream failed to apply during catch-up; the underlying
    /// [`RecvError`] is reachable through [`std::error::Error::source`].
    Recv(RecvError),
    /// A snapshot stream could not be built (the requested snapshot is
    /// gone — e.g. collected between workflow steps).
    Send(SendError),
    /// A network transfer failed (link partitioned or bad endpoint); the
    /// underlying [`NetError`] is reachable through `source`.
    Net(NetError),
    /// The erasure-coded shared tier could not serve or store an object
    /// (too many shards lost, or a shard transfer failed); the underlying
    /// [`EcError`] is reachable through `source`.
    Ec(EcError),
    /// A node's hoarded cache disappeared between the warm-path check and
    /// the read that needed it.
    MissingCache { node: NodeId, image: ImageId },
}

impl std::fmt::Display for SquirrelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SquirrelError::UnknownImage(i) => write!(f, "unknown image {i}"),
            SquirrelError::AlreadyRegistered(i) => write!(f, "image {i} already registered"),
            SquirrelError::NotRegistered(i) => write!(f, "image {i} not registered"),
            SquirrelError::NodeOffline(n) => write!(f, "node {n} is offline"),
            SquirrelError::NoSuchNode(n) => write!(f, "no such compute node {n}"),
            SquirrelError::Recv(e) => write!(f, "snapshot stream rejected: {e}"),
            SquirrelError::Send(e) => write!(f, "snapshot stream unavailable: {e}"),
            SquirrelError::Net(e) => write!(f, "transfer failed: {e}"),
            SquirrelError::Ec(e) => write!(f, "shared storage failed: {e}"),
            SquirrelError::MissingCache { node, image } => {
                write!(f, "node {node} lost the hoarded cache of image {image}")
            }
        }
    }
}

impl std::error::Error for SquirrelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SquirrelError::Recv(e) => Some(e),
            SquirrelError::Send(e) => Some(e),
            SquirrelError::Net(e) => Some(e),
            SquirrelError::Ec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RecvError> for SquirrelError {
    fn from(e: RecvError) -> Self {
        SquirrelError::Recv(e)
    }
}

impl From<SendError> for SquirrelError {
    fn from(e: SendError) -> Self {
        SquirrelError::Send(e)
    }
}

impl From<NetError> for SquirrelError {
    fn from(e: NetError) -> Self {
        SquirrelError::Net(e)
    }
}

impl From<EcError> for SquirrelError {
    fn from(e: EcError) -> Self {
        SquirrelError::Ec(e)
    }
}

/// Outcome of a registration (paper Figure 6).
#[derive(Clone, Debug, PartialEq)]
pub struct RegisterReport {
    pub image: ImageId,
    /// Bytes the copy-on-read boot captured (the raw cache size).
    pub cache_bytes: u64,
    /// Snapshot-diff wire size distributed to the compute nodes.
    pub diff_wire_bytes: u64,
    /// Compute nodes whose ccVolume received the diff.
    pub nodes_updated: u32,
    /// Online compute nodes that did *not* end up with the diff: cut off
    /// from every source, delivery abandoned under faults, or the stream
    /// was rejected because the node lags (missing base snapshot or
    /// budget-evicted blocks). They catch up via the repair workflow.
    pub nodes_lagging: u32,
    /// End-to-end registration seconds (first boot + snapshot + transfer
    /// under the configured [`DistributionPolicy`]).
    pub seconds: f64,
    /// Snapshot tag created on the scVolume.
    pub snapshot_tag: String,
}

/// Outcome of a VM boot on a compute node (paper Figure 7).
#[derive(Clone, Debug)]
pub struct BootOutcome {
    pub image: ImageId,
    pub node: NodeId,
    /// True when the node's ccVolume held the cache (scatter-hoard hit).
    pub warm: bool,
    /// True when the node *had* the cache but its stored blocks failed the
    /// integrity check, so the boot fell back to shared storage. Always
    /// `false` for a warm boot.
    pub degraded: bool,
    /// Bytes this boot moved over the network to the compute node.
    pub net_bytes: u64,
    /// Simulated boot duration at paper scale.
    pub report: BootReport,
}

/// Outcome of a lagging node's catch-up (paper Section 3.5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejoinOutcome {
    /// Node was already in sync.
    UpToDate,
    /// Incremental snapshot stream applied.
    Incremental { wire_bytes: u64 },
    /// Base snapshot was collected; the whole scVolume was re-replicated.
    FullReplication { wire_bytes: u64 },
}

/// Outcome of a [`Squirrel::gc`] run (paper Section 3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct GcReport {
    /// Snapshots collected from the scVolume (and every ccVolume).
    pub snapshots_collected: u32,
    /// scVolume disk bytes freed by the collection.
    pub bytes_reclaimed: u64,
}

/// One compute node's entry in a [`ReplicationReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeReplication {
    pub node: NodeId,
    pub online: bool,
    /// Whether the ccVolume's file list matches the reference exactly.
    pub in_sync: bool,
    /// Caches the ccVolume currently holds.
    pub file_count: usize,
}

/// Outcome of [`Squirrel::check_replication`]: every node's sync state
/// against the scVolume's latest snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use]
pub struct ReplicationReport {
    /// The snapshot the comparison was taken against (`None` before the
    /// first registration, when the live file list is the reference).
    pub reference_snapshot: Option<String>,
    pub nodes: Vec<NodeReplication>,
}

impl ReplicationReport {
    /// The paper's invariant: every *online* node mirrors the scVolume.
    /// Offline nodes are expected to lag; they catch up on rejoin.
    pub fn is_consistent(&self) -> bool {
        self.nodes.iter().filter(|n| n.online).all(|n| n.in_sync)
    }

    /// Online nodes currently out of sync (empty iff consistent).
    pub fn lagging_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.online && !n.in_sync)
            .map(|n| n.node)
            .collect()
    }
}

/// Registration record of an image (see [`Squirrel::registration_info`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegistrationInfo {
    pub image: ImageId,
    /// scVolume snapshot created by the registration.
    pub snapshot_tag: String,
    /// Simulated day the registration happened.
    pub day: u64,
}

/// Outcome of [`Squirrel::verify_boot`]: a boot-trace replay through the
/// real CoW → CoR → ccVolume data path, byte-checked against ground truth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BootVerification {
    /// Bytes read and verified against the image content.
    pub bytes_verified: u64,
    /// Blocks the CoR layer had to fetch from the backing image (a warm
    /// cache keeps this at ~zero inside the working set).
    pub backing_fetches: u64,
}

/// Outcome of [`Squirrel::boot_storm`]: M VMs replay one image's boot
/// working set concurrently, served zero-copy from the nodes' hoarded
/// ccVolumes through a shard-locked ARC ([`SharedArcCache`]).
#[derive(Clone, Debug)]
#[must_use]
pub struct BootStormReport {
    pub image: ImageId,
    pub vms: u32,
    /// Worker threads the concurrent read phase used (`0` = all cores).
    pub threads: usize,
    /// VMs served from a warm (hoarded) ccVolume.
    pub warm_vms: u32,
    /// VMs that pulled the working set over the network instead.
    pub cold_vms: u32,
    /// Cold VMs whose node *held* the cache but failed the integrity check
    /// (degraded service from shared storage; a subset of `cold_vms`).
    pub degraded_vms: u32,
    /// Working-set blocks each VM read.
    pub blocks_per_vm: u64,
    /// Total payload bytes served to all VMs.
    pub bytes_served: u64,
    /// Network bytes the cold VMs moved.
    pub net_bytes: u64,
    /// Simulated per-boot seconds in VM order (queueing-adjusted per node).
    pub boot_seconds: Vec<f64>,
    /// Aggregate shared-ARC statistics over all warm nodes. Every hit is a
    /// decompression (and copy) avoided.
    pub arc: squirrel_zfs::ArcStats,
    /// Content hash over every VM's read bytes, in VM order — the
    /// determinism witness: bit-identical at any thread count.
    pub read_checksum: String,
}

/// Outcome of [`Squirrel::evict_cache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct EvictReport {
    pub node: NodeId,
    pub image: ImageId,
    /// Whether the cache was present before the eviction.
    pub was_cached: bool,
    /// ccVolume disk bytes the eviction reclaimed (data + DDT + pointers).
    pub disk_bytes_freed: u64,
    /// In-core DDT bytes the eviction reclaimed.
    pub ddt_mem_bytes_freed: u64,
    /// The image's boot count at eviction time — the popularity signal the
    /// budget policy ranked it by.
    pub popularity: u64,
}

/// Outcome of [`Squirrel::enforce_hoard_budgets`]: one deterministic
/// enforcement pass over every compute node.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct BudgetReport {
    /// Every eviction the pass performed, in (node, eviction order).
    pub evictions: Vec<EvictReport>,
    /// Nodes that were over budget when the pass started.
    pub nodes_over_budget: u32,
    /// Nodes still over budget after evicting everything evictable (budget
    /// smaller than irreducible pool overhead — nothing is wedged, those
    /// nodes simply serve everything degraded).
    pub nodes_still_over: u32,
    /// Total ccVolume disk bytes reclaimed.
    pub disk_bytes_freed: u64,
    /// Total in-core DDT bytes reclaimed.
    pub ddt_mem_bytes_freed: u64,
}

impl BudgetReport {
    /// Every node fits its budget after the pass.
    pub fn is_within_budget(&self) -> bool {
        self.nodes_still_over == 0
    }
}

/// Outcome of [`Squirrel::rehoard_cache`]: a previously evicted cache pulled
/// back from the scVolume on demand (the paper's partial-hoarding fallback).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct RehoardReport {
    pub node: NodeId,
    pub image: ImageId,
    /// Wire bytes the re-hoard moved (compressed frames + record headers).
    pub wire_bytes: u64,
    /// Cache blocks re-imported (holes included).
    pub blocks: u64,
    /// The warm peer that served the bytes, or `None` when the scVolume
    /// did (non-peer policies, or no peer qualified).
    pub peer: Option<NodeId>,
}

/// Outcome of a scrub-and-repair pass over one cVolume
/// ([`Squirrel::scrub_and_repair`] / [`Squirrel::scrub_and_repair_scvol`]).
/// Corrupt blocks are re-fetched from a replica holding an intact copy —
/// the scatter hoard *is* the redundancy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct RepairReport {
    /// The repaired volume: a compute node's ccVolume, or `None` for the
    /// scVolume.
    pub node: Option<NodeId>,
    /// Unique records the scrub walked.
    pub blocks_checked: u64,
    /// Records whose stored bytes no longer hashed to their key.
    pub corrupt_found: u64,
    /// Corrupt records restored from an intact replica.
    pub repaired: u64,
    /// Corrupt records no reachable replica could heal.
    pub unrepaired: u64,
    /// Wire bytes the repair moved (compressed frames + record headers),
    /// charged to the network ledgers like any other transfer.
    pub refetch_bytes: u64,
}

impl RepairReport {
    /// The volume left the pass with every record intact.
    pub fn is_healed(&self) -> bool {
        self.unrepaired == 0
    }
}

/// Outcome of [`Squirrel::repair_replication`]: lagging online nodes pulled
/// back in sync via the rejoin path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct SyncRepairReport {
    /// Online nodes that were out of sync before the pass.
    pub lagging: u32,
    /// Nodes the pass brought back in sync.
    pub repaired: u32,
    /// Nodes that stayed lagging (storage unreachable or stream rejected).
    pub failed: u32,
    /// Catch-up stream bytes moved.
    pub wire_bytes: u64,
}

impl SyncRepairReport {
    pub fn all_repaired(&self) -> bool {
        self.failed == 0
    }
}

/// Outcome of one [`Squirrel::repair_sweep`], stage by stage.
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use]
pub struct RepairSweep {
    /// The erasure-coded shared tier; `None` under replicated storage.
    pub ec: Option<EcRepairReport>,
    /// The scVolume plus every online ccVolume, summed (`node` is `None`).
    pub blocks: RepairReport,
    pub sync: SyncRepairReport,
}

/// Outcome of [`Squirrel::converge`]: what "heal everything, then check"
/// found, did and left behind. `Eq` across thread counts is part of the
/// determinism witness.
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use]
pub struct Convergence {
    /// Whether the replication invariant already held before anything was
    /// healed (under faults it usually does not — that is the point).
    pub consistent_before: bool,
    /// Offline nodes whose rejoin failed and stayed offline.
    pub rejoin_failures: u64,
    /// The one repair sweep run after every link healed.
    pub repair: RepairSweep,
    /// Whole-cache evictions by the final budget enforcement: the sweep
    /// full-replicates lagging nodes, which can push them back over budget.
    pub evictions: u64,
    /// Every online node mirrors the scVolume.
    pub converged: bool,
    /// The scVolume, every ccVolume and the shared tier scrub clean.
    pub scrub_clean: bool,
    /// Every node fits its hoard budget (vacuous when unlimited).
    pub within_budget: bool,
}

/// What one [`Squirrel::fault_tick`] drew from the armed plan and applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultTick {
    pub churn: Option<ChurnEvent>,
    /// Whether the churned node came back (`Rejoin` and `Flap` only).
    pub rejoined: Option<bool>,
    /// The rack or datacenter outage or heal applied (multi-rack
    /// topologies only).
    pub domain: Option<PartitionEvent>,
    pub rot: Option<RotHit>,
}

/// One bit-rot injection of a [`FaultTick`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RotHit {
    /// The rotted ccVolume's node, or `None` for the shared tier.
    pub victim: Option<NodeId>,
    /// Whether the victim pool held a block to rot.
    pub block_hit: bool,
    /// The erasure shard rotted alongside a shared-tier hit (object, stripe,
    /// shard); `None` under replicated storage.
    pub ec_shard: Option<(String, u32, u32)>,
}

struct ComputeNode {
    ccvol: ZPool,
    online: bool,
    /// Caches the budget policy evicted from this node. Replication checks
    /// exempt them (the node is *deliberately* not hoarding them); a stream
    /// delivery or re-hoard that restores the file clears the mark.
    evicted: BTreeSet<ImageId>,
}

struct Registration {
    snapshot_tag: String,
    day: u64,
}

/// Outcome tally of one stream fan-out (see [`Squirrel::deliver_stream`]):
/// the numbers every delivery shape must report identically.
#[derive(Clone, Copy, Debug, Default)]
struct DeliveryStats {
    /// Receivers whose ccVolume applied the stream.
    updated: u32,
    /// Online receivers that did not (unreachable, abandoned, or lagging).
    lagging: u32,
    /// Simulated wall-clock seconds the whole fan-out took.
    seconds: f64,
    /// Bytes the storage tier transmitted (ledger delta).
    storage_bytes: u64,
    /// Bytes warm compute peers transmitted on its behalf (ledger delta).
    peer_bytes: u64,
    /// Receivers served by a peer (peer-assisted policy only).
    peer_hits: u64,
    /// Receivers the storage tier had to serve despite the peer-assisted
    /// policy (no peer qualified yet).
    peer_misses: u64,
}

/// How one receiver's `recv` outcome is treated — shared by the faulty and
/// fault-free delivery paths so their classifications cannot drift.
enum RecvDisposition {
    /// Stream applied (or an earlier duplicate already had).
    Delivered,
    /// The receiver lags: its base snapshot is missing (it slept through
    /// earlier registrations) or budget-evicted blocks the diff counts on
    /// are gone. Retrying the same stream cannot help; the rejoin/repair
    /// workflows own the catch-up.
    Lagging,
    /// Transient rejection (corrupt payload, unresolvable pointer): worth
    /// a bounded retry under a fault plan, fatal on the clean path.
    Retryable(RecvError),
}

fn classify_recv(result: Result<(), RecvError>) -> RecvDisposition {
    match result {
        Ok(()) | Err(RecvError::DuplicateTip(_)) => RecvDisposition::Delivered,
        Err(RecvError::MissingBase(_)) | Err(RecvError::MissingBlock(_)) => {
            RecvDisposition::Lagging
        }
        Err(e) => RecvDisposition::Retryable(e),
    }
}

/// The system: one scVolume, `compute_nodes` ccVolumes, a parallel FS for
/// the raw images, and a simulated clock (days).
pub struct Squirrel {
    config: SquirrelConfig,
    corpus: Arc<Corpus>,
    net: Network,
    gluster: GlusterVolume,
    /// Erasure-coded physical layer of the shared tier, when
    /// [`SharedStorage::ErasureCoded`] is configured: registration caches
    /// are striped into k+m shards across racks, and cold-path reads serve
    /// from any k (reconstructing through parity when domains are down).
    ec: Option<ErasureCodedVolume>,
    scvol: ZPool,
    nodes: Vec<ComputeNode>,
    registered: BTreeMap<ImageId, Registration>,
    /// Boot counts per image (single boots count 1, storms count their VM
    /// count) — the popularity signal hoard-budget eviction ranks by.
    popularity: BTreeMap<ImageId, u64>,
    day: u64,
    snapshot_days: BTreeMap<String, u64>,
    /// Monotonic registration counter: snapshot tags must be unique even
    /// when an image is deregistered and registered again.
    reg_seq: u64,
    sim: BootSim,
    registry: MetricsRegistry,
    /// Unlabeled handle used by the workflow layer (`squirrel_*` series).
    obs: Metrics,
    /// Shared `pool="ccvol"` handle: every ccVolume — including ones rebuilt
    /// on rejoin — records into the same commutative series, so parallel
    /// stream application stays deterministic.
    ccvol_obs: Metrics,
    /// Armed fault schedule, if any. Consulted only from serial
    /// orchestration code (never inside a parallel region), so one seed
    /// yields one schedule at any thread count.
    faults: Option<FaultPlan>,
    /// One persistent worker pool shared by every parallel region: the
    /// scVolume and all ccVolumes ingest through it, registration fans a
    /// stream out to receivers on it, and boot storms serve reads and
    /// replay boot timings on it. Workers spawn lazily on first use and
    /// live for the system's lifetime.
    workers: WorkerPool,
}

/// Adapter: expose a corpus image as a [`VirtualDisk`] for the registration
/// boot chain.
struct ImageDisk {
    corpus: Arc<Corpus>,
    image: ImageId,
}

impl VirtualDisk for ImageDisk {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) {
        self.corpus.image(self.image).read_at(offset, buf);
    }

    fn len(&self) -> u64 {
        self.corpus.image(self.image).virtual_bytes()
    }
}

/// A materialized boot working set: `(offset, payload)` blocks in offset
/// order, as captured by the registration's copy-on-read cache.
type CacheBlocks = Vec<(u64, Arc<[u8]>)>;

impl Squirrel {
    /// Bring up the system for `corpus` (images known, none registered).
    pub fn new(config: SquirrelConfig, corpus: Arc<Corpus>) -> Self {
        assert!(config.storage_nodes >= 4, "gluster 2x2 needs four bricks");
        let registry = MetricsRegistry::new();
        let obs = if config.metrics { registry.handle() } else { Metrics::disabled() };
        let ccvol_obs = obs.with_label("pool", "ccvol");
        let mut net = Network::with_topology(
            config.link,
            config.compute_nodes,
            config.storage_nodes,
            config.topology,
        );
        net.set_metrics(&obs);
        let bricks: Vec<NodeId> =
            (config.compute_nodes..config.compute_nodes + 4).collect();
        let gluster = GlusterVolume::new(GlusterConfig::default(), bricks);
        let ec = match config.shared_storage {
            SharedStorage::Replicated => None,
            SharedStorage::ErasureCoded { k, m } => {
                let candidates: Vec<NodeId> = (config.compute_nodes
                    ..config.compute_nodes + config.storage_nodes)
                    .collect();
                Some(ErasureCodedVolume::new(
                    EcConfig { k, m, shard_unit: 64 * 1024 },
                    candidates,
                ))
            }
        };
        let workers = WorkerPool::new(config.threads);
        let ccvol_cfg = Self::ccvol_pool_config(&config);
        let nodes = (0..config.compute_nodes)
            .map(|_| {
                let mut ccvol = ZPool::new(ccvol_cfg);
                ccvol.set_metrics(&ccvol_obs);
                ccvol.set_worker_pool(workers.clone());
                ComputeNode { ccvol, online: true, evicted: BTreeSet::new() }
            })
            .collect();
        // The scVolume is the shared catalog: the hoard budget is a
        // per-compute-node constraint and does not apply to it.
        let mut scvol = ZPool::new(
            PoolConfig::new(config.block_size, config.codec)
                .with_threads(config.threads)
                .with_chunking(config.pool_chunking())
                .with_dedup_mode(config.dedup_mode),
        );
        scvol.set_metrics(&obs.with_label("pool", "scvol"));
        scvol.set_worker_pool(workers.clone());
        Squirrel {
            config,
            corpus,
            net,
            gluster,
            ec,
            scvol,
            nodes,
            registered: BTreeMap::new(),
            popularity: BTreeMap::new(),
            day: 0,
            snapshot_days: BTreeMap::new(),
            reg_seq: 0,
            sim: BootSim::new(),
            registry,
            obs,
            ccvol_obs,
            faults: None,
            workers,
        }
    }

    /// Arm a deterministic fault schedule: registration deliveries go
    /// through the lossy per-node path (drops, duplicates, transients,
    /// in-flight bit flips, crashed receives) with bounded retries and
    /// deterministic backoff. Disarm with [`Self::clear_fault_plan`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Disarm the fault schedule, returning it (and its tally) if one was
    /// armed.
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.faults.take()
    }

    /// Tally of everything the armed plan has injected so far.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.faults.as_ref().map(|p| p.report())
    }

    /// The system's metrics registry. [`MetricsRegistry::snapshot`] after
    /// any workflow sequence is bit-identical across `threads` settings;
    /// see DESIGN.md's observability section for the contract.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub fn config(&self) -> &SquirrelConfig {
        &self.config
    }

    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The simulated clock, in days since bring-up.
    pub fn today(&self) -> u64 {
        self.day
    }

    /// Advance the clock (drives the GC window).
    pub fn advance_days(&mut self, days: u64) {
        self.day += days;
    }

    /// Pool configuration for compute nodes' ccVolumes: the hoard budget is
    /// carried as a pool quota so the pool reports pressure. Also used when
    /// a rejoin rebuilds a ccVolume from a full stream.
    fn ccvol_pool_config(config: &SquirrelConfig) -> PoolConfig {
        PoolConfig::new(config.block_size, config.codec)
            .with_threads(config.threads)
            .with_chunking(config.pool_chunking())
            .with_dedup_mode(config.dedup_mode)
            .with_quotas(config.hoard_budget.disk_bytes, config.hoard_budget.ddt_mem_bytes)
    }

    fn cache_file_name(image: ImageId) -> String {
        format!("cache-{image:06}")
    }

    /// Replay the registration's copy-on-read boot to materialize `image`'s
    /// cache: the boot trace drives reads through a CoR cache, capturing
    /// exactly the working set. Deterministic — the same image yields the
    /// same bytes — so the EC repair path can rebuild an authoritative copy
    /// long after registration.
    fn materialize_cache(&self, image: ImageId) -> (u64, CacheBlocks) {
        let trace = self.corpus.image(image).cache().boot_trace();
        let mut cor = CorCache::new(
            ImageDisk { corpus: Arc::clone(&self.corpus), image },
            self.config.block_size,
        );
        for op in &trace.ops {
            let mut buf = vec![0u8; op.len as usize];
            cor.read_at(op.offset, &mut buf);
        }
        (cor.cached_bytes(), cor.into_blocks())
    }

    /// Concatenate a cache's blocks (offset order) into the byte payload
    /// the erasure-coded tier stripes.
    fn ec_payload(blocks: &[(u64, Arc<[u8]>)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (_, data) in blocks {
            out.extend_from_slice(data);
        }
        out
    }

    /// Inverse of [`Self::cache_file_name`].
    fn image_of_cache_name(name: &str) -> Option<ImageId> {
        name.strip_prefix("cache-")?.parse().ok()
    }

    fn snapshot_tag(image: ImageId, seq: u64) -> String {
        format!("vmi-{image:06}-r{seq}")
    }

    /// Register an image (paper Section 3.2): first boot on a storage node
    /// behind a copy-on-read cache, store the cache into the scVolume,
    /// snapshot, and multicast the incremental diff to online nodes.
    pub fn register(&mut self, image: ImageId) -> Result<RegisterReport, SquirrelError> {
        if (image as usize) >= self.corpus.len() {
            return Err(SquirrelError::UnknownImage(image));
        }
        if self.registered.contains_key(&image) {
            return Err(SquirrelError::AlreadyRegistered(image));
        }
        let mut span = self.obs.span("register");
        span.field("image", image);

        // 1. First boot behind a CoR cache on the storage node. The cache
        //    captures exactly the boot working set.
        let (cache_bytes, blocks) = self.materialize_cache(image);

        // 2. Move the cache from memory into the scVolume through the
        //    staged pipeline: hashing and compression fan out over workers,
        //    the dedup/file-table commit stays serial and in block order,
        //    so the pool state matches a write_block replay exactly.
        let name = Self::cache_file_name(image);
        self.scvol.import_blocks_parallel(&name, &blocks);

        // 2b. Under erasure-coded shared storage, the cache's physical
        //     bytes also stripe into k+m shards across racks — the layer a
        //     rack loss actually tests.
        if let Some(ec) = self.ec.as_mut() {
            let payload = Self::ec_payload(&blocks);
            let storage_root = self.config.compute_nodes;
            ec.write(&mut self.net, storage_root, &name, &payload)
                .map_err(SquirrelError::Ec)?;
        }

        // 3. Snapshot the scVolume for this registration.
        self.reg_seq += 1;
        let tag = Self::snapshot_tag(image, self.reg_seq);
        self.scvol.snapshot(&tag);
        self.snapshot_days.insert(tag.clone(), self.day);

        // 4. Distribute the incremental diff to all online compute nodes
        //    under the configured DistributionPolicy. With a fault plan
        //    armed, delivery goes per node through the lossy path (retry +
        //    deterministic backoff); either way the one executor charges
        //    the ledgers and dist counters.
        let stream = self.scvol.send_latest().map_err(SquirrelError::Send)?;
        let wire = stream.wire_bytes();
        let online: Vec<NodeId> = (0..self.nodes.len() as u32)
            .filter(|&n| self.nodes[n as usize].online)
            .collect();
        let delivery = self.deliver_stream(&stream, &online)?;

        // First boot takes a normal boot's time (paper: ~20 s), snapshot
        // creation is cheap, multicast as computed.
        let first_boot = self
            .sim
            .boot(
                &paper_scale_trace(self.paper_ws_bytes(image), image as u64),
                &Backend::ColdCache {
                    net_mbps: self.config.link.mbps(),
                    image_bytes: self.paper_image_bytes(image),
                },
            )
            .total_seconds;

        self.registered.insert(image, Registration { snapshot_tag: tag.clone(), day: self.day });
        // A delivered stream mirrors the scVolume's tip, restoring any cache
        // the budget policy had evicted: clear the marks for restored files.
        self.reconcile_evictions();

        self.obs.inc("squirrel_register_total");
        self.obs.add("squirrel_register_wire_bytes_total", wire);
        self.obs.add("squirrel_register_cache_bytes_total", cache_bytes);
        let sc = self.scvol.stats();
        self.obs.set_gauge("squirrel_registered_images", self.registered.len() as u64);
        self.obs.set_gauge("squirrel_scvol_ddt_entries", sc.unique_blocks);
        self.obs.set_gauge("squirrel_scvol_disk_bytes", sc.total_disk_bytes());
        self.obs.set_gauge("squirrel_scvol_ddt_mem_bytes", sc.ddt_memory_bytes);
        span.field("cache_bytes", cache_bytes);
        span.field("wire_bytes", wire);
        span.field("nodes_updated", u64::from(delivery.updated));
        span.field("nodes_lagging", u64::from(delivery.lagging));
        span.field("snapshot_tag", tag.as_str());

        Ok(RegisterReport {
            image,
            cache_bytes,
            diff_wire_bytes: wire,
            nodes_updated: delivery.updated,
            nodes_lagging: delivery.lagging,
            seconds: first_boot + 1.0 + delivery.seconds,
            snapshot_tag: tag,
        })
    }

    /// Resolve the configured [`DistributionPolicy`] into a deterministic
    /// [`TransferPlan`] for fanning one payload out to `targets`: which
    /// link carries each copy, in which parallel round, and which
    /// receivers have no usable source at all (they stay lagging).
    /// Partitions are respected through [`Network::is_reachable`]. Only
    /// consulted from serial orchestration code, so one configuration
    /// yields one plan at any thread count.
    pub fn plan_fanout(&self, targets: &[NodeId], payload_bytes: u64) -> TransferPlan {
        let root = self.config.compute_nodes; // first storage node
        let policy = self.config.distribution;
        let mut plan = TransferPlan::new(policy, root, payload_bytes);
        match policy {
            DistributionPolicy::Unicast => {
                // Serial storage uplink: one leg per receiver, one round
                // each — the cost model the paper's Section 3.2 worries
                // about at fleet scale.
                let mut round = 0u32;
                for &t in targets {
                    if self.net.is_reachable(root, t) {
                        plan.legs.push(TransferLeg { src: root, dst: t, round, from_peer: false });
                        round += 1;
                    } else {
                        plan.unreachable.push(t);
                    }
                }
            }
            DistributionPolicy::Multicast { .. } | DistributionPolicy::Pipeline => {
                // Group shapes ride one charged network call over every
                // receiver the storage tier can reach.
                for &t in targets {
                    if self.net.is_reachable(root, t) {
                        plan.group.push(t);
                    } else {
                        plan.unreachable.push(t);
                    }
                }
            }
            DistributionPolicy::PeerAssisted => self.plan_peer_rounds(targets, &mut plan),
        }
        plan
    }

    /// Doubling rounds for the peer-assisted shape: the storage tier seeds
    /// the first copy; every delivered receiver becomes a donor and serves
    /// its nearest pending receiver in later rounds, so capacity doubles
    /// per round. The storage tier steps back in (one receiver per round)
    /// only for receivers partitioned from every donor.
    fn plan_peer_rounds(&self, targets: &[NodeId], plan: &mut TransferPlan) {
        let root = plan.root;
        let mut donors: BTreeSet<NodeId> = BTreeSet::new();
        let mut pending: Vec<NodeId> = targets.to_vec();
        let mut round = 0u32;
        while !pending.is_empty() {
            // Donors not yet serving anyone this round, ordered by id so
            // the nearest one is found by probing outward from the receiver.
            let mut idle = donors.clone();
            let mut root_used = false;
            let mut served: Vec<NodeId> = Vec::new();
            let mut waiting: Vec<NodeId> = Vec::new();
            for &t in &pending {
                if let Some(d) = self.nearest_reachable(&idle, t) {
                    idle.remove(&d);
                    plan.legs.push(TransferLeg {
                        src: d,
                        dst: t,
                        round,
                        from_peer: true,
                    });
                    served.push(t);
                } else if donors.iter().any(|&d| self.net.is_reachable(d, t)) {
                    // Every donor that could serve it is busy this round.
                    waiting.push(t);
                } else if self.net.is_reachable(root, t) {
                    if root_used {
                        waiting.push(t);
                    } else {
                        root_used = true;
                        plan.legs.push(TransferLeg {
                            src: root,
                            dst: t,
                            round,
                            from_peer: false,
                        });
                        served.push(t);
                    }
                } else if targets
                    .iter()
                    .any(|&o| o != t && self.net.is_reachable(o, t))
                {
                    // A future donor might still reach it.
                    waiting.push(t);
                } else {
                    plan.unreachable.push(t);
                }
            }
            if served.is_empty() {
                // No source can make progress; whatever is left stays
                // lagging until links heal.
                plan.unreachable.append(&mut waiting);
                break;
            }
            donors.extend(served);
            pending = waiting;
            round += 1;
        }
    }

    /// The member of `donors` nearest to `t` — smallest `(|d - t|, d)` —
    /// that has a live link to it. Probes outward from `t`'s id in both
    /// directions, so with healthy links the first candidate wins.
    fn nearest_reachable(&self, donors: &BTreeSet<NodeId>, t: NodeId) -> Option<NodeId> {
        let mut below = donors.range(..t).rev().copied().peekable();
        let mut above = donors.range(t..).copied().peekable();
        loop {
            let d = match (below.peek(), above.peek()) {
                // Equidistant: the lower id wins, as in `(distance, id)`.
                (Some(&lo), Some(&hi)) if t - lo <= hi - t => below.next(),
                (Some(_), None) => below.next(),
                (_, Some(_)) => above.next(),
                (None, None) => return None,
            }?;
            if self.net.is_reachable(d, t) {
                return Some(d);
            }
        }
    }

    /// The planner as first written — every donor scanned for every pending
    /// receiver every round — kept as the oracle [`Self::plan_peer_rounds`]
    /// must equal leg for leg.
    #[cfg(test)]
    fn plan_peer_rounds_oracle(&self, targets: &[NodeId], plan: &mut TransferPlan) {
        let root = plan.root;
        let mut donors: Vec<NodeId> = Vec::new();
        let mut pending: Vec<NodeId> = targets.to_vec();
        let mut round = 0u32;
        while !pending.is_empty() {
            let mut busy: BTreeSet<NodeId> = BTreeSet::new();
            let mut root_used = false;
            let mut served: Vec<NodeId> = Vec::new();
            let mut waiting: Vec<NodeId> = Vec::new();
            for &t in &pending {
                let donor = donors
                    .iter()
                    .copied()
                    .filter(|&d| !busy.contains(&d) && self.net.is_reachable(d, t))
                    .min_by_key(|&d| (d.abs_diff(t), d));
                if let Some(d) = donor {
                    busy.insert(d);
                    plan.legs.push(TransferLeg { src: d, dst: t, round, from_peer: true });
                    served.push(t);
                } else if donors.iter().any(|&d| self.net.is_reachable(d, t)) {
                    // Every donor that could serve it is busy this round.
                    waiting.push(t);
                } else if self.net.is_reachable(root, t) {
                    if root_used {
                        waiting.push(t);
                    } else {
                        root_used = true;
                        plan.legs
                            .push(TransferLeg { src: root, dst: t, round, from_peer: false });
                        served.push(t);
                    }
                } else if targets.iter().any(|&o| o != t && self.net.is_reachable(o, t)) {
                    // A future donor might still reach it.
                    waiting.push(t);
                } else {
                    plan.unreachable.push(t);
                }
            }
            if served.is_empty() {
                // No source can make progress; whatever is left stays
                // lagging until links heal.
                plan.unreachable.append(&mut waiting);
                break;
            }
            donors.extend(served);
            pending = waiting;
            round += 1;
        }
    }

    /// The one fan-out executor behind [`Self::register`]: resolve the
    /// configured policy into a [`TransferPlan`], charge the network per
    /// shape (or run the lossy per-node path when a fault plan is armed),
    /// apply the stream to every receiver that got a copy, and record the
    /// `squirrel_dist_*` counters — identically for every shape.
    fn deliver_stream(
        &mut self,
        stream: &SendStream,
        online: &[NodeId],
    ) -> Result<DeliveryStats, SquirrelError> {
        let storage_tx0 = self.net.storage_tx_total();
        let compute_tx0 = self.net.compute_tx_total();
        let mut stats = if let Some(mut plan) = self.faults.take() {
            let stats = self.deliver_with_faults(&mut plan, stream, online);
            self.faults = Some(plan);
            stats
        } else {
            self.deliver_clean(stream, online)?
        };
        // Byte attribution comes from the ledgers themselves, so every
        // shape (and the fault path's retries and duplicates) is counted
        // by what actually crossed each link.
        stats.storage_bytes = self.net.storage_tx_total() - storage_tx0;
        stats.peer_bytes = self.net.compute_tx_total() - compute_tx0;
        self.record_dist(&stats);
        Ok(stats)
    }

    /// Record the distribution counters for one completed fan-out or
    /// restore transfer. Same series regardless of shape or fault state.
    fn record_dist(&self, stats: &DeliveryStats) {
        self.obs.add_with(
            "squirrel_dist_transfers_total",
            &[("policy", self.config.distribution.name())],
            1,
        );
        self.obs.add("squirrel_dist_storage_bytes_total", stats.storage_bytes);
        self.obs.add("squirrel_dist_peer_bytes_total", stats.peer_bytes);
        self.obs.add("squirrel_dist_peer_hits_total", stats.peer_hits);
        self.obs.add("squirrel_dist_peer_misses_total", stats.peer_misses);
        self.obs
            .observe("squirrel_dist_transfer_seconds_ms", (stats.seconds * 1000.0).round() as u64);
    }

    /// Fault-free delivery: charge the plan's group call or legs, then
    /// apply the one prepared stream to every receiver that got a copy
    /// concurrently (N independent receivers, bit-identical at any thread
    /// count).
    fn deliver_clean(
        &mut self,
        stream: &SendStream,
        online: &[NodeId],
    ) -> Result<DeliveryStats, SquirrelError> {
        let wire = stream.wire_bytes();
        let plan = self.plan_fanout(online, wire);
        let mut seconds = 0.0f64;
        let mut peer_hits = 0u64;
        let mut peer_misses = 0u64;
        let mut delivered: BTreeSet<NodeId> = BTreeSet::new();

        // Group shapes ride one charged network call. A cut compute-to-
        // compute relay edge fails the group atomically; delivery then
        // degrades to serial unicast from the storage tier rather than
        // failing the registration.
        let mut legs = plan.legs.clone();
        if !plan.group.is_empty() {
            let result = match plan.policy {
                DistributionPolicy::Multicast { fanout } => {
                    self.net.try_tree_multicast(plan.root, &plan.group, wire, fanout)
                }
                _ => self.net.try_pipeline(plan.root, &plan.group, wire),
            };
            match result {
                Ok(r) => {
                    seconds += r.seconds;
                    delivered.extend(plan.group.iter().copied());
                }
                Err(_) => {
                    legs = plan
                        .group
                        .iter()
                        .enumerate()
                        .map(|(i, &dst)| TransferLeg {
                            src: plan.root,
                            dst,
                            round: i as u32,
                            from_peer: false,
                        })
                        .collect();
                }
            }
        }

        // Leg shapes: legs sharing a round overlap in time, rounds
        // serialize — so peer-assisted fan-out costs one payload time per
        // doubling round while serial unicast costs one per receiver.
        let mut round_secs: BTreeMap<u32, f64> = BTreeMap::new();
        for leg in &legs {
            // The plan was resolved against this same network state, so a
            // failing leg means a malformed plan; the receiver simply
            // stays lagging.
            if let Ok(r) = self.net.try_unicast(leg.src, leg.dst, wire) {
                delivered.insert(leg.dst);
                if leg.from_peer {
                    peer_hits += 1;
                } else if plan.policy == DistributionPolicy::PeerAssisted {
                    peer_misses += 1;
                }
                let slot = round_secs.entry(leg.round).or_insert(0.0);
                *slot = slot.max(r.seconds);
            }
        }
        seconds += round_secs.values().sum::<f64>();

        let workers = self.workers.clone();
        let targets: Vec<&mut ZPool> = self
            .nodes
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| delivered.contains(&(*i as NodeId)))
            .map(|(_, n)| &mut n.ccvol)
            .collect();
        let mut updated = 0u32;
        for result in stream.apply_all_on(targets, &workers) {
            match classify_recv(result) {
                RecvDisposition::Delivered => updated += 1,
                RecvDisposition::Lagging => {}
                // A stream built straight off the scVolume resolves every
                // block — but an injected-corrupt scVolume can produce a
                // rejected stream, so surface anything else instead of
                // asserting.
                RecvDisposition::Retryable(e) => return Err(SquirrelError::Recv(e)),
            }
        }
        Ok(DeliveryStats {
            updated,
            lagging: online.len() as u32 - updated,
            seconds,
            peer_hits,
            peer_misses,
            ..DeliveryStats::default()
        })
    }

    /// Deliver one registration stream to every online node over the lossy
    /// network: each node is served independently with bounded retries and
    /// deterministic exponential backoff (charged in simulated seconds).
    /// Every fault decision is drawn here, serially — never inside a worker
    /// thread — so a plan seed yields one schedule at any thread count.
    /// Under [`DistributionPolicy::PeerAssisted`] a receiver that took the
    /// stream earlier in this call donates to later receivers (nearest
    /// reachable donor; the storage tier is the fallback). Nodes whose
    /// delivery is abandoned stay lagging; the repair workflow
    /// ([`Self::repair_replication`]) catches them up.
    fn deliver_with_faults(
        &mut self,
        plan: &mut FaultPlan,
        stream: &SendStream,
        online: &[NodeId],
    ) -> DeliveryStats {
        let storage_src = self.config.compute_nodes; // first storage node
        let peer_policy = self.config.distribution == DistributionPolicy::PeerAssisted;
        let framed = stream.encode_framed();
        let wire = stream.wire_bytes();
        let mut updated = 0u32;
        let mut secs = 0.0f64;
        let mut peer_hits = 0u64;
        let mut peer_misses = 0u64;
        let mut donors: BTreeSet<NodeId> = BTreeSet::new();
        for &node in online {
            let src = if peer_policy {
                self.nearest_reachable(&donors, node).unwrap_or(storage_src)
            } else {
                storage_src
            };
            let mut delivered = false;
            for attempt in 0..=plan.max_retries() {
                if attempt > 0 {
                    plan.note_retry();
                    self.obs.inc("squirrel_fault_retries_total");
                    secs += plan.backoff_secs(attempt - 1);
                }
                let fault = plan.transfer_fault();
                if fault == TransferFault::Transient {
                    // The link errors before any bytes move.
                    self.obs.inc("squirrel_fault_net_transients_total");
                    continue;
                }
                // Bytes move for drops, duplicates and clean deliveries
                // alike — a dropped stream still consumed the wire.
                let t = match self.net.try_unicast(src, node, wire) {
                    Ok(r) => r.seconds,
                    Err(_) => {
                        // Link partitioned: nothing was charged; burn the
                        // attempt (the cut may heal between workflow steps).
                        self.obs.inc("squirrel_fault_partitioned_total");
                        continue;
                    }
                };
                secs += t;
                if fault == TransferFault::Drop {
                    self.obs.inc("squirrel_fault_net_drops_total");
                    continue;
                }
                if fault == TransferFault::Duplicate {
                    // The frame arrives twice; the second copy is charged
                    // and discarded by the transactional recv's tip check.
                    if let Ok(r) = self.net.try_unicast(src, node, wire) {
                        secs += r.seconds;
                    }
                    self.obs.inc("squirrel_fault_net_duplicates_total");
                }
                // In-flight corruption: flip one bit of this node's copy.
                // The frame checksum catches it before anything is applied.
                let mut bytes = framed.clone();
                if plan.corrupt_stream(&mut bytes) {
                    self.obs.inc("squirrel_fault_stream_corruptions_total");
                }
                let decoded = match SendStream::decode_framed(&bytes) {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let ccvol = &mut self.nodes[node as usize].ccvol;
                if plan.crash_mid_recv() {
                    // Validate, then die before the apply phase: the pool is
                    // untouched and the retry starts clean.
                    self.obs.inc("squirrel_fault_recv_crashes_total");
                    let _ = ccvol.recv_crashed(&decoded);
                    continue;
                }
                match classify_recv(ccvol.recv(&decoded)) {
                    RecvDisposition::Delivered => {
                        delivered = true;
                        updated += 1;
                        break;
                    }
                    RecvDisposition::Lagging => break,
                    // Corrupt source payload or unresolvable pointer:
                    // bounded retries, then give up.
                    RecvDisposition::Retryable(_) => continue,
                }
            }
            if delivered {
                if peer_policy {
                    if src == storage_src {
                        peer_misses += 1;
                    } else {
                        peer_hits += 1;
                    }
                }
                donors.insert(node);
            } else {
                plan.note_giveup();
                self.obs.inc("squirrel_fault_giveups_total");
            }
        }
        DeliveryStats {
            updated,
            lagging: online.len() as u32 - updated,
            seconds: secs,
            peer_hits,
            peer_misses,
            ..DeliveryStats::default()
        }
    }

    /// Paper-volume working-set bytes of `image` (scaled back up).
    fn paper_ws_bytes(&self, image: ImageId) -> u64 {
        self.corpus.image(image).cache().bytes() * self.corpus.config().scale
    }

    /// Paper-volume virtual image size.
    fn paper_image_bytes(&self, image: ImageId) -> u64 {
        self.corpus.image(image).virtual_bytes() * self.corpus.config().scale
    }

    /// Boot `image` on compute node `node` (paper Section 3.3): warm when
    /// the ccVolume holds the cache (zero network I/O), cold otherwise
    /// (CoW over the parallel file system).
    pub fn boot(&mut self, node: NodeId, image: ImageId) -> Result<BootOutcome, SquirrelError> {
        if !self
            .nodes
            .get(node as usize)
            .ok_or(SquirrelError::NoSuchNode(node))?
            .online
        {
            return Err(SquirrelError::NodeOffline(node));
        }
        if (image as usize) >= self.corpus.len() {
            return Err(SquirrelError::UnknownImage(image));
        }
        let n = &self.nodes[node as usize];

        let name = Self::cache_file_name(image);
        let trace = paper_scale_trace(self.paper_ws_bytes(image), image as u64);
        // Trust, but verify: a hoarded cache only serves the boot if its
        // stored records still hash to their keys. Silent corruption
        // downgrades to the cold path — the shared volume is the safe
        // fallback until scrub-and-repair heals the replica. A cache the
        // budget policy evicted is degraded too: the boot works, from
        // shared storage, exactly as the paper's partial hoarding promises.
        let cached = n.ccvol.has_file(&name);
        let warm = cached && n.ccvol.file_is_intact(&name).unwrap_or(false);
        let degraded = (cached && !warm) || (!cached && n.evicted.contains(&image));

        if warm {
            let backend = self.warm_backend(&n.ccvol, &name);
            let report = self.sim.boot(&trace, &backend);
            // Popularity counts only boots that succeed: the warm path is
            // infallible from here, the cold path below counts after its
            // shared read went through.
            self.note_popularity(image, 1);
            self.record_boot(node, image, true, 0);
            Ok(BootOutcome { image, node, warm: true, degraded: false, net_bytes: 0, report })
        } else {
            // Cold path: the boot working set crosses the network from the
            // shared tier (charged at corpus scale in the ledger, simulated
            // at paper scale for timing). A node cut off from every replica
            // — or from k shards — cannot boot at all.
            let ws_corpus_scale = self.shared_read(node, image)?;
            let report = self.sim.boot(
                &trace,
                &Backend::ColdCache {
                    net_mbps: self.config.link.mbps(),
                    image_bytes: self.paper_image_bytes(image),
                },
            );
            self.note_popularity(image, 1);
            self.record_boot(node, image, false, ws_corpus_scale);
            if degraded {
                self.obs.inc("squirrel_boot_degraded_total");
            }
            Ok(BootOutcome {
                image,
                node,
                warm: false,
                degraded,
                net_bytes: ws_corpus_scale,
                report,
            })
        }
    }

    /// Serve a cold boot's working set from the shared tier, charging the
    /// transfer to the network ledgers. Under erasure-coded storage the
    /// registered cache object serves from any k reachable shards
    /// (reconstructing through parity when a domain is down — tallied in
    /// `squirrel_ec_*`); otherwise, or for images never registered, the
    /// replicated gluster volume serves the raw bytes. Returns the bytes
    /// that crossed the network.
    fn shared_read(&mut self, node: NodeId, image: ImageId) -> Result<u64, SquirrelError> {
        if let Some(ec) = self.ec.as_mut() {
            let name = Self::cache_file_name(image);
            if ec.has_object(&name) {
                let r = ec.try_read(&mut self.net, node, &name).map_err(SquirrelError::Ec)?;
                if r.degraded {
                    self.obs.inc("squirrel_ec_degraded_reads_total");
                    self.obs.add("squirrel_ec_shards_reconstructed_total", r.reconstructed);
                }
                return Ok(r.net_bytes);
            }
        }
        let ws_corpus_scale = self.corpus.image(image).cache().bytes();
        self.gluster
            .try_read(&mut self.net, node, 0, ws_corpus_scale)
            .map_err(SquirrelError::Net)?;
        Ok(ws_corpus_scale)
    }

    /// Derive the dedup-backend parameters for a boot served from a warm
    /// (hoarded) ccVolume, from the pool's real dedup/compression state.
    fn warm_backend(&self, ccvol: &ZPool, name: &str) -> Backend {
        let stats = ccvol.stats();
        let scale = self.corpus.config().scale;
        let threshold = 1 + ccvol.snapshot_tags().len() as u64;
        let shared = ccvol.file_shared_fraction(name, threshold).unwrap_or(0.6);
        Backend::DedupVolume(DedupVolumeParams {
            record_size: self.config.block_size as u64,
            compressed_fraction: (stats.physical_bytes as f64
                / (stats.unique_blocks.max(1) * stats.block_size) as f64)
                .clamp(0.05, 1.0),
            ddt_entries: stats.unique_blocks * scale / self.config.block_size as u64 * 512,
            pool_physical_bytes: (stats.physical_bytes * scale).max(1),
            shared_fraction: shared,
            ..DedupVolumeParams::new(self.config.block_size as u64)
        })
    }

    /// Count boots of `image` — the popularity signal
    /// [`Self::enforce_hoard_budgets`] ranks eviction candidates by. Called
    /// only from serial workflow code, so the counts (and the labeled
    /// counter) are deterministic at any thread count.
    fn note_popularity(&mut self, image: ImageId, boots: u64) {
        *self.popularity.entry(image).or_insert(0) += boots;
        if self.obs.is_enabled() {
            self.obs.add_with(
                "squirrel_image_boots_total",
                &[("image", image.to_string().as_str())],
                boots,
            );
        }
    }

    /// Boot count of `image` across single boots (1 each) and storms (VM
    /// count each).
    pub fn image_popularity(&self, image: ImageId) -> u64 {
        self.popularity.get(&image).copied().unwrap_or(0)
    }

    /// Exponentially decay every image's popularity: each count becomes
    /// `floor(count * factor)` and entries that cool to zero are dropped.
    /// Without decay the signal is a monotone counter — an image hot on day
    /// one outranks everything forever and is never evictable, however cold
    /// it has gone. Run on a cadence (the fleet driver does), decay turns
    /// popularity into a recency-weighted score: each surviving count is a
    /// geometric sum of past boots, so [`Self::enforce_hoard_budgets`]
    /// evicts what stopped booting, not what never boomed. `factor` is
    /// clamped to `[0, 1]`; returns how many images cooled to zero.
    pub fn decay_popularity(&mut self, factor: f64) -> u64 {
        let f = factor.clamp(0.0, 1.0);
        let mut dropped = 0u64;
        self.popularity.retain(|_, count| {
            *count = (*count as f64 * f).floor() as u64;
            if *count == 0 {
                dropped += 1;
                false
            } else {
                true
            }
        });
        self.obs.inc("squirrel_popularity_decays_total");
        self.obs.add("squirrel_popularity_dropped_total", dropped);
        dropped
    }

    /// Unlabeled workflow metrics handle, for sibling orchestration modules
    /// in this crate (the fleet driver records `squirrel_fleet_*` series
    /// through it).
    pub(crate) fn obs_handle(&self) -> &Metrics {
        &self.obs
    }

    /// Per-node boot accounting (serial: boots never run concurrently).
    fn record_boot(&self, node: NodeId, image: ImageId, warm: bool, net_bytes: u64) {
        if !self.obs.is_enabled() {
            return;
        }
        let result = if warm { "warm" } else { "cold" };
        self.obs.add_with(
            "squirrel_boot_total",
            &[("node", node.to_string().as_str()), ("result", result)],
            1,
        );
        self.obs.add("squirrel_boot_net_bytes_total", net_bytes);
        self.obs.event(
            "boot",
            &[
                ("node", node.into()),
                ("image", image.into()),
                ("warm", warm.into()),
                ("net_bytes", net_bytes.into()),
            ],
        );
    }

    /// Serve a boot storm: `vms` instances of `image` boot at once,
    /// round-robined over the online compute nodes. Warm nodes serve every
    /// working-set block zero-copy from their hoarded ccVolume through a
    /// shard-locked [`SharedArcCache`] (a warm read is a refcount bump on
    /// the pool's shared payload); cold nodes pull the working set over the
    /// network first. The read phase fans out over `config.threads` workers;
    /// read bytes, ARC statistics, and metric snapshots are bit-identical at
    /// any thread count (see [`BootStormReport::read_checksum`]).
    ///
    /// Errors: [`SquirrelError::UnknownImage`] for an unknown image;
    /// [`SquirrelError::NodeOffline`] (reported against node 0) when every
    /// compute node is offline.
    pub fn boot_storm(
        &mut self,
        image: ImageId,
        vms: u32,
    ) -> Result<BootStormReport, SquirrelError> {
        if (image as usize) >= self.corpus.len() {
            return Err(SquirrelError::UnknownImage(image));
        }
        let online: Vec<usize> =
            (0..self.nodes.len()).filter(|&i| self.nodes[i].online).collect();
        if online.is_empty() {
            return Err(SquirrelError::NodeOffline(0));
        }
        let threads = self.config.threads;
        let bs = self.config.block_size as u64;
        let name = Self::cache_file_name(image);
        let mut span = self.obs.span("boot_storm");
        span.field("image", image);
        span.field("vms", u64::from(vms));

        // VM i boots on the i-th online node, round-robin.
        let assignments: Vec<usize> =
            (0..vms as usize).map(|i| online[i % online.len()]).collect();

        // The working set every VM reads: the boot trace's blocks at
        // cVolume record granularity — exactly the set registration's
        // copy-on-read boot captured into the cache file.
        let trace = self.corpus.image(image).cache().boot_trace();
        let mut block_set = BTreeSet::new();
        for op in &trace.ops {
            if op.len == 0 {
                continue;
            }
            let first = op.offset / bs;
            let last = (op.offset + op.len as u64 - 1) / bs;
            block_set.extend(first..=last);
        }
        let blocks: Vec<u64> = block_set.into_iter().collect();

        // Classify each participating node once: warm only when the cache
        // is present *and* passes the integrity walk; a present-but-corrupt
        // cache — like one the budget policy evicted — serves its VMs
        // degraded from shared storage.
        let mut node_warm: BTreeMap<usize, bool> = BTreeMap::new();
        let mut node_degraded: BTreeMap<usize, bool> = BTreeMap::new();
        for &node in &assignments {
            if node_warm.contains_key(&node) {
                continue;
            }
            let cc = &self.nodes[node].ccvol;
            let cached = cc.has_file(&name);
            let warm = cached && cc.file_is_intact(&name).unwrap_or(false);
            let evicted = !cached && self.nodes[node].evicted.contains(&image);
            node_warm.insert(node, warm);
            node_degraded.insert(node, (cached && !warm) || evicted);
        }

        // Cold nodes fetch the working set over the network up front
        // (serial: the network ledger is single-threaded state).
        let mut net_bytes = 0u64;
        let mut cold_vms = 0u32;
        let mut degraded_vms = 0u32;
        for &node in &assignments {
            if !node_warm[&node] {
                net_bytes += self.shared_read(node as NodeId, image)?;
                cold_vms += 1;
                if node_degraded[&node] {
                    degraded_vms += 1;
                }
            }
        }
        let warm_vms = vms - cold_vms;

        // One shard-locked ARC per warm node. The byte budget splits per
        // shard, so oversize by the shard count: even a fully skewed key
        // distribution must never evict — evictions are the one
        // schedule-dependent statistic (see DESIGN.md's determinism
        // contract).
        let ws_bytes = (blocks.len() as u64 * bs).max(bs);
        let mut caches: BTreeMap<usize, SharedArcCache> = BTreeMap::new();
        for &node in &assignments {
            if node_warm[&node] && !caches.contains_key(&node) {
                let mut cache = SharedArcCache::new(ws_bytes * 16, 16);
                cache.set_metrics(&self.ccvol_obs);
                caches.insert(node, cache);
            }
        }

        // Concurrent read phase: every VM reads its whole working set. Warm
        // VMs go through the shared ARC (a hit is a refcount bump on the
        // one decompressed buffer); cold VMs read the image bytes the
        // network just delivered. Results come back in VM order, so the
        // checksum is schedule-independent.
        let nodes = &self.nodes;
        let corpus = &self.corpus;
        let raw: Vec<Result<(u64, String), SquirrelError>> =
            self.workers.parallel_map(&assignments, |_i, &node| {
                let mut bytes = Vec::with_capacity(blocks.len() * bs as usize);
                if let Some(cache) = caches.get(&node) {
                    for &b in &blocks {
                        let data = cache
                            .read_through(&nodes[node].ccvol, &name, b)
                            .ok_or(SquirrelError::MissingCache {
                                node: node as NodeId,
                                image,
                            })?;
                        bytes.extend_from_slice(&data);
                    }
                } else {
                    let handle = corpus.image(image);
                    let mut buf = vec![0u8; bs as usize];
                    for &b in &blocks {
                        handle.read_at(b * bs, &mut buf);
                        bytes.extend_from_slice(&buf);
                    }
                }
                Ok((bytes.len() as u64, squirrel_hash::ContentHash::of(&bytes).to_hex()))
            });
        let mut per_vm = Vec::with_capacity(raw.len());
        for r in raw {
            per_vm.push(r?);
        }

        let bytes_served: u64 = per_vm.iter().map(|(n, _)| n).sum();
        let mut concat = String::new();
        for (_, hex) in &per_vm {
            concat.push_str(hex);
        }
        let read_checksum = squirrel_hash::ContentHash::of(concat.as_bytes()).to_hex();

        // Every fallible phase is behind us: only now do the storm's VMs
        // count toward the eviction signal. A storm that errored out above
        // (offline fleet, unreachable storage, missing cache) must not
        // inflate popularity for boots that never happened.
        self.note_popularity(image, u64::from(vms));

        // Timing: VMs sharing a node queue on that node's device. Backends
        // derive serially (they read pool state), then the node groups
        // replay concurrently on the persistent worker pool — `BootSim::boot`
        // is pure, and the serial reduction below assigns results in node
        // order, so `boot_seconds` is bit-identical at any thread count.
        let paper_trace = paper_scale_trace(self.paper_ws_bytes(image), image as u64);
        let mut by_node: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (vm, &node) in assignments.iter().enumerate() {
            by_node.entry(node).or_default().push(vm);
        }
        let groups: Vec<(Vec<usize>, Backend)> = by_node
            .iter()
            .map(|(&node, vm_ids)| {
                let backend = if caches.contains_key(&node) {
                    self.warm_backend(&self.nodes[node].ccvol, &name)
                } else {
                    Backend::ColdCache {
                        net_mbps: self.config.link.mbps(),
                        image_bytes: self.paper_image_bytes(image),
                    }
                };
                (vm_ids.clone(), backend)
            })
            .collect();
        let sim = &self.sim;
        let workers = &self.workers;
        let timed = workers.parallel_map(&groups, |_i, (vm_ids, backend)| {
            let traces = vec![paper_trace.clone(); vm_ids.len()];
            sim.boot_concurrent_on(&traces, backend, workers)
        });
        let mut boot_seconds = vec![0.0f64; vms as usize];
        for ((vm_ids, _), reports) in groups.iter().zip(&timed) {
            for (&vm, report) in vm_ids.iter().zip(reports) {
                boot_seconds[vm] = report.total_seconds;
            }
        }

        // Aggregate ARC statistics over the warm nodes. Every hit is a
        // decompression (and a payload copy) the shared read path avoided.
        let mut arc = squirrel_zfs::ArcStats::default();
        for cache in caches.values() {
            let s = cache.stats();
            arc.hits += s.hits;
            arc.misses += s.misses;
            arc.evictions += s.evictions;
        }

        // Serial post-phase: record the storm in deterministic VM order.
        for &s in &boot_seconds {
            self.obs
                .observe("squirrel_boot_storm_seconds_ms", (s * 1000.0).round() as u64);
        }
        self.obs.add("squirrel_boot_storm_boots_total", u64::from(vms));
        self.obs.add("squirrel_boot_storm_bytes_total", bytes_served);
        self.obs.add("squirrel_boot_storm_copies_avoided_total", arc.hits);
        self.obs.add("squirrel_boot_storm_net_bytes_total", net_bytes);
        if degraded_vms > 0 {
            self.obs.add("squirrel_boot_degraded_total", u64::from(degraded_vms));
        }
        span.field("warm_vms", u64::from(warm_vms));
        span.field("cold_vms", u64::from(cold_vms));
        span.field("bytes_served", bytes_served);
        span.field("read_checksum", read_checksum.as_str());

        Ok(BootStormReport {
            image,
            vms,
            threads,
            warm_vms,
            cold_vms,
            degraded_vms,
            blocks_per_vm: blocks.len() as u64,
            bytes_served,
            net_bytes,
            boot_seconds,
            arc,
            read_checksum,
        })
    }

    /// Deregister an image (paper Section 3.4): delete the VMI and its
    /// cache from the scVolume. No snapshot is taken; the deletion reaches
    /// ccVolumes with the next registration's diff.
    pub fn deregister(&mut self, image: ImageId) -> Result<(), SquirrelError> {
        let reg = self
            .registered
            .remove(&image)
            .ok_or(SquirrelError::NotRegistered(image))?;
        let _ = reg;
        let name = Self::cache_file_name(image);
        self.scvol.delete_file(&name);
        if let Some(ec) = self.ec.as_mut() {
            ec.remove_object(&name);
        }
        Ok(())
    }

    /// Daily garbage collection (paper Section 3.4): on every cVolume, keep
    /// snapshots from the last `n` days plus the latest one regardless of
    /// age.
    pub fn gc(&mut self) -> GcReport {
        let mut span = self.obs.span("gc");
        let before = self.scvol.stats().total_disk_bytes();
        let cutoff = self.day.saturating_sub(self.config.gc_window_days);
        let latest = self.scvol.latest_snapshot().map(|s| s.to_string());
        let doomed: Vec<String> = self
            .scvol
            .snapshot_tags()
            .iter()
            .filter(|t| {
                Some(**t) != latest.as_deref()
                    && self.snapshot_days.get(**t).copied().unwrap_or(0) < cutoff
            })
            .map(|t| t.to_string())
            .collect();
        for tag in &doomed {
            self.scvol.destroy_snapshot(tag);
            for node in &mut self.nodes {
                node.ccvol.destroy_snapshot(tag);
            }
            self.snapshot_days.remove(tag);
        }
        let after = self.scvol.stats().total_disk_bytes();
        let report = GcReport {
            snapshots_collected: doomed.len() as u32,
            bytes_reclaimed: before.saturating_sub(after),
        };
        self.obs.inc("squirrel_gc_runs_total");
        self.obs.add("squirrel_gc_snapshots_total", u64::from(report.snapshots_collected));
        self.obs.add("squirrel_gc_bytes_reclaimed_total", report.bytes_reclaimed);
        self.obs.set_gauge("squirrel_scvol_disk_bytes", after);
        span.field("snapshots_collected", u64::from(report.snapshots_collected));
        span.field("bytes_reclaimed", report.bytes_reclaimed);
        report
    }

    /// Take a compute node offline (fail-stop).
    pub fn node_offline(&mut self, node: NodeId) -> Result<(), SquirrelError> {
        self.nodes
            .get_mut(node as usize)
            .ok_or(SquirrelError::NoSuchNode(node))?
            .online = false;
        Ok(())
    }

    /// The nearest warm peer that can serve a rejoin catch-up stream to
    /// `node`: online, reachable, its ccVolume exactly at the scVolume's
    /// tip snapshot, and scrub-clean (a donor serving rotten bytes never
    /// qualifies). Candidates are probed nearest-first so at most one
    /// scrub walks a qualified pool. In-sync replicas are bit-identical by
    /// the determinism contract, so a qualified peer can serve any stream
    /// the scVolume could.
    fn nearest_rejoin_donor(&self, node: NodeId, tip: &str) -> Option<NodeId> {
        let mut cands: Vec<(u32, NodeId)> = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| {
                let peer = i as NodeId;
                (peer != node
                    && n.online
                    && self.net.is_reachable(peer, node)
                    && n.ccvol.latest_snapshot() == Some(tip))
                .then_some((peer.abs_diff(node), peer))
            })
            .collect();
        cands.sort_unstable();
        cands
            .into_iter()
            .find(|&(_, peer)| self.nodes[peer as usize].ccvol.scrub().is_clean())
            .map(|(_, peer)| peer)
    }

    /// Bring a node back (paper Section 3.5): ask for the diff between its
    /// latest local snapshot and the scVolume's latest; if the base is gone
    /// (offline longer than `n` days), replicate the whole scVolume. Under
    /// [`DistributionPolicy::PeerAssisted`] the stream's bytes are served
    /// by the nearest in-sync, scrub-clean peer — a node can rejoin even
    /// through a partitioned storage link — with the scVolume as fallback.
    pub fn node_rejoin(&mut self, node: NodeId) -> Result<RejoinOutcome, SquirrelError> {
        let idx = node as usize;
        if idx >= self.nodes.len() {
            return Err(SquirrelError::NoSuchNode(node));
        }
        self.nodes[idx].online = true;
        let mut span = self.obs.span("rejoin");
        span.field("node", node);

        let sc_latest = match self.scvol.latest_snapshot() {
            Some(t) => t.to_string(),
            None => {
                span.field("outcome", "up-to-date");
                return Ok(RejoinOutcome::UpToDate);
            }
        };
        let local_latest = self.nodes[idx].ccvol.latest_snapshot().map(|s| s.to_string());
        if local_latest.as_deref() == Some(sc_latest.as_str()) {
            span.field("outcome", "up-to-date");
            return Ok(RejoinOutcome::UpToDate);
        }

        let storage = self.config.compute_nodes;
        let peer_policy = self.config.distribution == DistributionPolicy::PeerAssisted;
        let donor = if peer_policy { self.nearest_rejoin_donor(node, &sc_latest) } else { None };
        let src = donor.unwrap_or(storage);
        if let Some(peer) = donor {
            span.field("peer", peer);
        }
        // Wire bytes already charged by an incremental attempt that fell
        // through to full replication (the transfer happened, the apply
        // didn't).
        let mut charged = 0u64;
        let record = |sq: &Self, charged: u64, secs: f64| {
            sq.record_dist(&DeliveryStats {
                updated: 1,
                seconds: secs,
                storage_bytes: if donor.is_some() { 0 } else { charged },
                peer_bytes: if donor.is_some() { charged } else { 0 },
                peer_hits: u64::from(donor.is_some()),
                peer_misses: u64::from(peer_policy && donor.is_none()),
                ..DeliveryStats::default()
            });
        };
        // Try incremental first.
        if let Some(base) = &local_latest {
            if self.scvol.has_snapshot(base) {
                let stream = self
                    .scvol
                    .send_between(Some(base), &sc_latest)
                    .map_err(SquirrelError::Send)?;
                let wire = stream.wire_bytes();
                // A link partitioned from every source leaves the node
                // online but still lagging; repair_replication retries
                // later.
                let secs = self
                    .net
                    .try_unicast(src, node, wire)
                    .map_err(SquirrelError::Net)?
                    .seconds;
                charged += wire;
                // The transactional recv applies the catch-up stream
                // all-or-nothing.
                match self.nodes[idx].ccvol.recv(&stream) {
                    Ok(()) => {
                        // The stream mirrors the scVolume's tip, restoring
                        // any budget-evicted cache it could resolve.
                        self.reconcile_evictions();
                        self.obs.add_with(
                            "squirrel_rejoin_total",
                            &[("outcome", "incremental")],
                            1,
                        );
                        self.obs.add("squirrel_rejoin_wire_bytes_total", wire);
                        record(self, charged, secs);
                        span.field("outcome", "incremental");
                        span.field("wire_bytes", wire);
                        return Ok(RejoinOutcome::Incremental { wire_bytes: wire });
                    }
                    // A budget eviction purged blocks the diff counts on
                    // the receiver holding; only the full stream below can
                    // resolve them. (The failed attempt's wire bytes stay
                    // charged: the transfer happened, the apply didn't.)
                    Err(RecvError::MissingBlock(_)) => {}
                    Err(e) => return Err(SquirrelError::Recv(e)),
                }
            }
        }

        // Full replication: rebuild the ccVolume from a full stream.
        let stream = self
            .scvol
            .send_between(None, &sc_latest)
            .map_err(SquirrelError::Send)?;
        let wire = stream.wire_bytes();
        let secs = self
            .net
            .try_unicast(src, node, wire)
            .map_err(SquirrelError::Net)?
            .seconds;
        charged += wire;
        let mut fresh = ZPool::new(Self::ccvol_pool_config(&self.config));
        // The rebuilt pool records into the same shared ccVolume series and
        // reuses the system's persistent workers.
        fresh.set_metrics(&self.ccvol_obs);
        fresh.set_worker_pool(self.workers.clone());
        fresh.recv(&stream).map_err(SquirrelError::Recv)?;
        self.nodes[idx].ccvol = fresh;
        // A full replication hoards everything again; the budget pass (if
        // any) re-evicts on its next run.
        self.nodes[idx].evicted.clear();
        self.obs.add_with("squirrel_rejoin_total", &[("outcome", "full-replication")], 1);
        self.obs.add("squirrel_rejoin_wire_bytes_total", wire);
        record(self, charged, secs);
        span.field("outcome", "full-replication");
        span.field("wire_bytes", wire);
        Ok(RejoinOutcome::FullReplication { wire_bytes: wire })
    }

    /// Replay `image`'s boot trace on `node` through the *real* data path —
    /// a QCOW2-style CoW overlay chained onto a copy-on-read layer that is
    /// pre-populated from the node's ccVolume (decompressing actual pool
    /// records) and backed by the image over the parallel FS — verifying
    /// every byte against the image's ground-truth content.
    ///
    /// A warm cache must give zero backing fetches for reads inside the
    /// working set; see [`BootVerification`].
    pub fn verify_boot(
        &mut self,
        node: NodeId,
        image: ImageId,
    ) -> Result<BootVerification, SquirrelError> {
        let n = self
            .nodes
            .get(node as usize)
            .ok_or(SquirrelError::NoSuchNode(node))?;
        if !n.online {
            return Err(SquirrelError::NodeOffline(node));
        }
        if (image as usize) >= self.corpus.len() {
            return Err(SquirrelError::UnknownImage(image));
        }

        let bs = self.config.block_size;
        let mut chain = squirrel_qcow::CowImage::new(CorCache::new(
            ImageDisk { corpus: Arc::clone(&self.corpus), image },
            bs,
        ));
        chain.set_metrics(&self.obs);
        chain.backing().set_metrics(&self.obs);
        // Warm the CoR layer from the ccVolume's cache file, exercising the
        // full decompress path of the pool.
        let name = Self::cache_file_name(image);
        if let Some(len) = n.ccvol.file_len(&name) {
            let blocks = len.div_ceil(bs as u64);
            for b in 0..blocks {
                // The decompressed buffer moves into the CoR layer as a
                // shared payload: one decompression, zero copies. Holes (or
                // a cache mutated underneath us) simply aren't prewarmed —
                // the CoR layer fetches them from the backing image.
                let Some(data) = n.ccvol.read_block_shared(&name, b) else {
                    continue;
                };
                chain.backing().prepopulate_shared(b, data);
            }
        }

        let handle = self.corpus.image(image);
        let trace = handle.cache().boot_trace();
        let mut verified = 0u64;
        let mut expect = Vec::new();
        let mut got = Vec::new();
        for op in &trace.ops {
            expect.resize(op.len as usize, 0);
            got.resize(op.len as usize, 0);
            handle.read_at(op.offset, &mut expect);
            chain.read_at(op.offset, &mut got);
            if expect != got {
                panic!(
                    "boot data corruption: image {image} node {node} at offset {}",
                    op.offset
                );
            }
            verified += op.len as u64;
        }
        Ok(BootVerification {
            bytes_verified: verified,
            backing_fetches: chain.backing().fetch_count,
        })
    }

    /// Boot a sequence of images on `node`, reading every cache block
    /// through a byte-bounded ARC, and report the cache statistics. This
    /// *measures* the cross-VMI hot-record effect that the boot simulator's
    /// `hot_fraction` parameter assumes: records shared between working
    /// sets stay resident across consecutive boots of different images.
    pub fn measure_arc_hit_rate(
        &mut self,
        node: NodeId,
        images: &[ImageId],
        arc_bytes: u64,
    ) -> Result<squirrel_zfs::ArcStats, SquirrelError> {
        let n = self
            .nodes
            .get(node as usize)
            .ok_or(SquirrelError::NoSuchNode(node))?;
        if !n.online {
            return Err(SquirrelError::NodeOffline(node));
        }
        let bs = self.config.block_size as u64;
        let mut arc = squirrel_zfs::ArcCache::new(arc_bytes);
        arc.set_metrics(&self.obs);
        for &image in images {
            if (image as usize) >= self.corpus.len() {
                return Err(SquirrelError::UnknownImage(image));
            }
            let name = Self::cache_file_name(image);
            let Some(len) = n.ccvol.file_len(&name) else {
                continue; // not hoarded: nothing to measure
            };
            for b in 0..len.div_ceil(bs) {
                arc.read_through(&n.ccvol, &name, b);
            }
        }
        let stats = arc.stats();
        self.obs.set_gauge_f64("squirrel_arc_hit_rate", stats.hit_rate());
        Ok(stats)
    }

    /// Evict one cache from one node's ccVolume (capacity-limited partial
    /// hoarding, paper Section 4.3 — also what [`Self::enforce_hoard_budgets`]
    /// calls per victim). The cache is *purged*: live file and snapshot
    /// references both go, so the blocks nothing else shares actually leave
    /// the disk and the DDT. Subsequent boots of that image on that node are
    /// degraded (served from shared storage) until a diff or an explicit
    /// [`Self::rehoard_cache`] restores it.
    pub fn evict_cache(
        &mut self,
        node: NodeId,
        image: ImageId,
    ) -> Result<EvictReport, SquirrelError> {
        let popularity = self.image_popularity(image);
        let n = self
            .nodes
            .get_mut(node as usize)
            .ok_or(SquirrelError::NoSuchNode(node))?;
        let name = Self::cache_file_name(image);
        let had = n.ccvol.has_file(&name);
        if !had {
            return Ok(EvictReport {
                node,
                image,
                was_cached: false,
                disk_bytes_freed: 0,
                ddt_mem_bytes_freed: 0,
                popularity,
            });
        }
        let before = n.ccvol.stats();
        n.ccvol.purge_file(&name);
        n.evicted.insert(image);
        let after = n.ccvol.stats();
        self.obs.inc("squirrel_cache_evictions_total");
        Ok(EvictReport {
            node,
            image,
            was_cached: true,
            disk_bytes_freed: before
                .total_disk_bytes()
                .saturating_sub(after.total_disk_bytes()),
            ddt_mem_bytes_freed: before.ddt_memory_bytes.saturating_sub(after.ddt_memory_bytes),
            popularity,
        })
    }

    /// Drop eviction marks for caches a stream delivery restored: once the
    /// file is present again the node is simply hoarding it, and replication
    /// checks hold it to the full reference.
    fn reconcile_evictions(&mut self) {
        for node in &mut self.nodes {
            let ccvol = &node.ccvol;
            node.evicted.retain(|&img| !ccvol.has_file(&Self::cache_file_name(img)));
        }
    }

    /// One deterministic hoard-budget enforcement pass (the tentpole of the
    /// paper's feasibility argument turned into a policy): for every compute
    /// node whose ccVolume exceeds [`SquirrelConfig::hoard_budget`] on
    /// either axis, evict whole image caches — least-booted first, ties
    /// broken by ascending image id — until the node fits. Nodes are visited
    /// in id order and every decision reads only serial state (popularity
    /// counts and pool accounting), so the eviction sequence is bit-identical
    /// at any thread count.
    ///
    /// A node that stays over budget after losing every cache is reported in
    /// [`BudgetReport::nodes_still_over`], not wedged: its images all serve
    /// degraded from shared storage.
    pub fn enforce_hoard_budgets(&mut self) -> BudgetReport {
        let mut report = BudgetReport::default();
        if self.config.hoard_budget.is_unlimited() {
            return report;
        }
        let mut span = self.obs.span("enforce_budget");
        self.obs
            .set_gauge("squirrel_hoard_max_disk_bytes", self.config.hoard_budget.disk_bytes);
        self.obs.set_gauge(
            "squirrel_hoard_max_ddt_mem_bytes",
            self.config.hoard_budget.ddt_mem_bytes,
        );
        for node in 0..self.nodes.len() as NodeId {
            if self.nodes[node as usize].ccvol.within_quota() {
                continue;
            }
            report.nodes_over_budget += 1;
            while !self.nodes[node as usize].ccvol.within_quota() {
                let victim = self.nodes[node as usize]
                    .ccvol
                    .file_names()
                    .filter_map(Self::image_of_cache_name)
                    .map(|img| (self.image_popularity(img), img))
                    .min();
                let Some((_, image)) = victim else {
                    report.nodes_still_over += 1;
                    break;
                };
                let ev = self.evict_cache(node, image).expect("node exists");
                report.disk_bytes_freed += ev.disk_bytes_freed;
                report.ddt_mem_bytes_freed += ev.ddt_mem_bytes_freed;
                report.evictions.push(ev);
            }
        }
        self.obs.add("squirrel_budget_evictions_total", report.evictions.len() as u64);
        self.obs.add("squirrel_budget_bytes_freed_total", report.disk_bytes_freed);
        span.field("evictions", report.evictions.len() as u64);
        span.field("nodes_over_budget", u64::from(report.nodes_over_budget));
        span.field("disk_bytes_freed", report.disk_bytes_freed);
        report
    }

    /// The nearest warm peer able to donate `image`'s cache to `node`:
    /// online, reachable, not under an eviction mark for the image, holding
    /// the file with every record intact (a rotten donor never qualifies).
    /// Distance is node-id distance (the flat switch's stand-in for
    /// topology); ties go to the smaller id. `None` when no peer qualifies.
    fn nearest_cache_donor(&self, node: NodeId, image: ImageId) -> Option<NodeId> {
        let name = Self::cache_file_name(image);
        let mut best: Option<(u32, NodeId)> = None;
        for (i, n) in self.nodes.iter().enumerate() {
            let peer = i as NodeId;
            if peer == node || !n.online || !self.net.is_reachable(peer, node) {
                continue;
            }
            if n.evicted.contains(&image) || !n.ccvol.has_file(&name) {
                continue;
            }
            if n.ccvol.file_is_intact(&name) != Some(true) {
                continue;
            }
            let key = (peer.abs_diff(node), peer);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, peer)| peer)
    }

    /// Pull an evicted (or never-delivered) cache back on demand — the
    /// paper's partial-hoarding fallback. Under
    /// [`DistributionPolicy::PeerAssisted`] the nearest warm peer holding
    /// an intact, unevicted copy serves the bytes; the scVolume serves them
    /// otherwise (and whenever no peer qualifies). Replicas are
    /// bit-identical by construction (same keys, same frames: compression
    /// is deterministic), so the re-import lands the node in the same state
    /// regardless of donor. The transfer is charged to the network ledgers
    /// and `squirrel_dist_*` counters like every other hoard transfer.
    pub fn rehoard_cache(
        &mut self,
        node: NodeId,
        image: ImageId,
    ) -> Result<RehoardReport, SquirrelError> {
        let idx = node as usize;
        if idx >= self.nodes.len() {
            return Err(SquirrelError::NoSuchNode(node));
        }
        if !self.nodes[idx].online {
            return Err(SquirrelError::NodeOffline(node));
        }
        let name = Self::cache_file_name(image);
        if !self.scvol.has_file(&name) {
            return Err(SquirrelError::NotRegistered(image));
        }
        let mut span = self.obs.span("rehoard");
        span.field("node", node);
        span.field("image", image);
        let peer_policy = self.config.distribution == DistributionPolicy::PeerAssisted;
        let donor = if peer_policy { self.nearest_cache_donor(node, image) } else { None };
        let (src, donor_pool) = match donor {
            Some(peer) => (peer, &self.nodes[peer as usize].ccvol),
            None => (self.config.compute_nodes, &self.scvol),
        };
        let refs = donor_pool.block_refs(&name).expect("donor holds the file");
        // Compressed frames + 24-byte record headers, like repair transfers.
        let wire: u64 = refs.iter().flatten().map(|r| u64::from(r.psize) + 24).sum();
        let len = donor_pool.file_len(&name).expect("donor holds the file");
        // Block count from the file length, not `refs.len()`: for chunked
        // (CDC) files the refs are per *record*, not per block.
        let nblocks = len.div_ceil(self.config.block_size as u64);
        let blocks: Vec<Vec<u8>> = (0..nblocks)
            .map(|b| donor_pool.read_block(&name, b).expect("donor holds the file"))
            .collect();
        let transfer = self
            .net
            .try_unicast(src, node, wire)
            .map_err(SquirrelError::Net)?;
        self.nodes[idx].ccvol.import_file(&name, &blocks, len);
        self.nodes[idx].evicted.remove(&image);
        self.obs.inc("squirrel_rehoard_total");
        self.obs.add("squirrel_rehoard_wire_bytes_total", wire);
        let stats = DeliveryStats {
            updated: 1,
            seconds: transfer.seconds,
            storage_bytes: if donor.is_some() { 0 } else { wire },
            peer_bytes: if donor.is_some() { wire } else { 0 },
            peer_hits: u64::from(donor.is_some()),
            peer_misses: u64::from(peer_policy && donor.is_none()),
            ..DeliveryStats::default()
        };
        self.record_dist(&stats);
        span.field("wire_bytes", wire);
        if let Some(peer) = donor {
            span.field("peer", peer);
        }
        Ok(RehoardReport { node, image, wire_bytes: wire, blocks: nblocks, peer: donor })
    }

    /// Whether `node`'s ccVolume currently holds `image`'s cache.
    pub fn has_cache(&self, node: NodeId, image: ImageId) -> bool {
        self.nodes
            .get(node as usize)
            .is_some_and(|n| n.ccvol.has_file(&Self::cache_file_name(image)))
    }

    // --- fault injection & self-healing recovery ---------------------------

    /// Fault hook: rot the `nth` unique block (mod the pool's block count)
    /// of `node`'s ccVolume. Returns the corrupted key, or `None` for an
    /// unknown node or empty pool.
    pub fn corrupt_cc_block(&mut self, node: NodeId, nth: u64) -> Option<BlockKey> {
        let n = self.nodes.get_mut(node as usize)?;
        let key = n.ccvol.corrupt_nth_block(nth);
        if key.is_some() {
            self.obs.inc("squirrel_fault_block_corruptions_total");
        }
        key
    }

    /// Fault hook: rot the `nth` unique block of the scVolume itself.
    pub fn corrupt_sc_block(&mut self, nth: u64) -> Option<BlockKey> {
        let key = self.scvol.corrupt_nth_block(nth);
        if key.is_some() {
            self.obs.inc("squirrel_fault_block_corruptions_total");
        }
        key
    }

    /// Integrity walk over `node`'s ccVolume (no repair). `None` for an
    /// unknown node.
    pub fn scrub_node(&self, node: NodeId) -> Option<ScrubReport> {
        self.nodes.get(node as usize).map(|n| n.ccvol.scrub())
    }

    /// Integrity walk over the scVolume (no repair).
    pub fn scrub_scvol(&self) -> ScrubReport {
        self.scvol.scrub()
    }

    /// Scrub `node`'s ccVolume and re-fetch every corrupt record from the
    /// scVolume's authoritative copy, charging the transfer to the network
    /// ledgers. A donor record that is itself rotten — or a partitioned
    /// storage link — leaves the block unrepaired.
    pub fn scrub_and_repair(&mut self, node: NodeId) -> Result<RepairReport, SquirrelError> {
        let idx = node as usize;
        if idx >= self.nodes.len() {
            return Err(SquirrelError::NoSuchNode(node));
        }
        let mut span = self.obs.span("repair");
        span.field("node", node);
        let storage = self.config.compute_nodes;
        let scrub = self.nodes[idx].ccvol.scrub();
        let mut report = RepairReport {
            node: Some(node),
            blocks_checked: scrub.blocks_checked,
            corrupt_found: scrub.corrupt.len() as u64,
            repaired: 0,
            unrepaired: 0,
            refetch_bytes: 0,
        };
        for key in &scrub.corrupt {
            // 16-byte key + 4-byte psize + 4-byte length: the stream
            // payload's per-record framing.
            let fixed = match self.scvol.payload_of(*key) {
                Some((psize, frame)) => {
                    let bytes = u64::from(psize) + 24;
                    match self.net.try_unicast(storage, node, bytes) {
                        Ok(_) => {
                            report.refetch_bytes += bytes;
                            self.nodes[idx].ccvol.repair_block(*key, psize, &frame)
                        }
                        Err(_) => false,
                    }
                }
                None => false,
            };
            if fixed {
                report.repaired += 1;
            } else {
                report.unrepaired += 1;
            }
        }
        self.record_repair(&report);
        span.field("corrupt_found", report.corrupt_found);
        span.field("repaired", report.repaired);
        Ok(report)
    }

    /// Scrub the scVolume and heal every corrupt record from the first
    /// online compute node hoarding an intact copy — the scatter hoard
    /// itself is the redundancy. Donors serving a rotten copy are charged
    /// but rejected ([`ZPool::repair_block`] verifies before installing).
    pub fn scrub_and_repair_scvol(&mut self) -> RepairReport {
        let mut span = self.obs.span("repair");
        span.field("node", "scvol");
        let storage = self.config.compute_nodes;
        let scrub = self.scvol.scrub();
        let mut report = RepairReport {
            node: None,
            blocks_checked: scrub.blocks_checked,
            corrupt_found: scrub.corrupt.len() as u64,
            repaired: 0,
            unrepaired: 0,
            refetch_bytes: 0,
        };
        for key in &scrub.corrupt {
            let mut fixed = false;
            for idx in 0..self.nodes.len() {
                if !self.nodes[idx].online {
                    continue;
                }
                let Some((psize, frame)) = self.nodes[idx].ccvol.payload_of(*key) else {
                    continue;
                };
                let bytes = u64::from(psize) + 24;
                if self.net.try_unicast(idx as NodeId, storage, bytes).is_err() {
                    continue;
                }
                report.refetch_bytes += bytes;
                if self.scvol.repair_block(*key, psize, &frame) {
                    fixed = true;
                    break;
                }
            }
            if fixed {
                report.repaired += 1;
            } else {
                report.unrepaired += 1;
            }
        }
        self.record_repair(&report);
        span.field("corrupt_found", report.corrupt_found);
        span.field("repaired", report.repaired);
        report
    }

    /// Scrub the erasure-coded shared tier and repair it: lost or corrupt
    /// shards are rebuilt from any k healthy donors, shards stranded in
    /// unreachable domains are re-materialized onto replacement nodes in
    /// live domains, and a stripe that lost more than m shards is rewritten
    /// wholesale from a deterministically re-materialized authoritative
    /// cache. All transfers are charged to the ledgers; the cross-domain
    /// share feeds `squirrel_ec_cross_domain_repair_bytes_total`. `None`
    /// under replicated shared storage.
    pub fn repair_shared_storage(&mut self) -> Option<EcRepairReport> {
        let mut ec = self.ec.take()?;
        let coordinator = self.config.compute_nodes;
        let mut report = ec.scrub_and_repair(&mut self.net, coordinator);
        for name in std::mem::take(&mut report.unrepaired_objects) {
            let rewritten = Self::image_of_cache_name(&name)
                .filter(|&img| self.registered.contains_key(&img))
                .is_some_and(|img| {
                    let (_, blocks) = self.materialize_cache(img);
                    let payload = Self::ec_payload(&blocks);
                    ec.rewrite_object(&mut self.net, coordinator, &name, &payload).is_ok()
                });
            if !rewritten {
                report.unrepaired_objects.push(name);
            }
        }
        self.obs.add(
            "squirrel_ec_shards_rematerialized_total",
            report.shards_rematerialized + report.shards_relocated,
        );
        self.obs.add("squirrel_ec_repair_bytes_total", report.repair_bytes);
        self.obs.add(
            "squirrel_ec_cross_domain_repair_bytes_total",
            report.cross_domain_repair_bytes,
        );
        self.ec = Some(ec);
        Some(report)
    }

    /// Whether the shared tier's physical layer is fully intact: every
    /// erasure-coded shard present and passing its checksum. Always `true`
    /// under replicated storage, whose block health lives in the scVolume's
    /// own scrub.
    pub fn shared_storage_clean(&self) -> bool {
        self.ec.as_ref().is_none_or(ErasureCodedVolume::is_clean)
    }

    /// Lifetime counters of the erasure-coded tier; `None` when replicated.
    pub fn ec_stats(&self) -> Option<EcStats> {
        self.ec.as_ref().map(ErasureCodedVolume::stats)
    }

    /// Fault hook: flip one byte of the `nth` stored erasure shard (mod the
    /// shard population). `None` under replicated storage or while no
    /// shards are stored.
    pub fn corrupt_ec_shard(&mut self, nth: u64) -> Option<(String, u32, u32)> {
        let victim = self.ec.as_mut()?.corrupt_nth_shard(nth);
        if victim.is_some() {
            self.obs.inc("squirrel_fault_ec_shard_corruptions_total");
        }
        victim
    }

    /// Take a whole rack's boundary links down (correlated failure: every
    /// node in the rack loses cross-rack connectivity at once). Counted in
    /// `squirrel_domain_rack_downs_total`; idempotent while already down.
    /// Returns the number of links cut.
    pub fn rack_down(&mut self, rack: u32) -> usize {
        let cut = self.net.rack_down(rack);
        if cut > 0 {
            self.obs.inc("squirrel_domain_rack_downs_total");
        }
        cut
    }

    /// Heal a rack taken down by [`Self::rack_down`]. Node-level cuts that
    /// happen to cross the boundary stay cut.
    pub fn rack_up(&mut self, rack: u32) {
        if self.net.rack_is_down(rack) {
            self.obs.inc("squirrel_domain_rack_ups_total");
        }
        self.net.rack_up(rack);
    }

    /// Take a whole datacenter's boundary links down. Counted in
    /// `squirrel_domain_dc_downs_total`; idempotent while already down.
    pub fn datacenter_down(&mut self, dc: u32) -> usize {
        let cut = self.net.datacenter_down(dc);
        if cut > 0 {
            self.obs.inc("squirrel_domain_dc_downs_total");
        }
        cut
    }

    /// Heal a datacenter taken down by [`Self::datacenter_down`].
    pub fn datacenter_up(&mut self, dc: u32) {
        if self.net.datacenter_is_down(dc) {
            self.obs.inc("squirrel_domain_dc_ups_total");
        }
        self.net.datacenter_up(dc);
    }

    fn record_repair(&self, report: &RepairReport) {
        self.obs.inc("squirrel_repair_runs_total");
        self.obs.add("squirrel_repair_blocks_total", report.repaired);
        self.obs.add("squirrel_repair_unrepaired_total", report.unrepaired);
        self.obs.add("squirrel_repair_bytes_total", report.refetch_bytes);
    }

    /// Pull every lagging *online* node back in sync through the rejoin
    /// path (incremental stream, or full re-replication when the base
    /// snapshot is gone). Nodes behind a partitioned link stay lagging and
    /// are reported as failed; re-run after the cut heals.
    pub fn repair_replication(&mut self) -> SyncRepairReport {
        let lagging = self.check_replication().lagging_nodes();
        let mut report = SyncRepairReport {
            lagging: lagging.len() as u32,
            repaired: 0,
            failed: 0,
            wire_bytes: 0,
        };
        for node in lagging {
            match self.node_rejoin(node) {
                Ok(RejoinOutcome::Incremental { wire_bytes })
                | Ok(RejoinOutcome::FullReplication { wire_bytes }) => {
                    report.repaired += 1;
                    report.wire_bytes += wire_bytes;
                }
                Ok(RejoinOutcome::UpToDate) => report.repaired += 1,
                Err(_) => report.failed += 1,
            }
        }
        self.obs.inc("squirrel_repair_sync_runs_total");
        self.obs.add("squirrel_repair_sync_nodes_total", u64::from(report.repaired));
        report
    }

    /// One full repair pass, authoritative donors first: the erasure-coded
    /// shared tier (when configured), the scVolume, every online ccVolume,
    /// then replication catch-up.
    pub fn repair_sweep(&mut self) -> RepairSweep {
        let ec = self.repair_shared_storage();
        let mut blocks = self.scrub_and_repair_scvol();
        for node in 0..self.config.compute_nodes {
            if !self.node_is_online(node) {
                continue;
            }
            if let Ok(rep) = self.scrub_and_repair(node) {
                blocks.blocks_checked += rep.blocks_checked;
                blocks.corrupt_found += rep.corrupt_found;
                blocks.repaired += rep.repaired;
                blocks.unrepaired += rep.unrepaired;
                blocks.refetch_bytes += rep.refetch_bytes;
            }
        }
        let sync = self.repair_replication();
        RepairSweep { ec, blocks, sync }
    }

    /// Heal everything, then check: restore every cut link and downed
    /// domain, bring every offline node back, run one [`repair_sweep`],
    /// settle the hoard budgets once more, and report whether the paper's
    /// invariant holds — every online node mirrors the scVolume and every
    /// pool scrubs clean. On a system already at rest a call repairs
    /// nothing and moves no bytes.
    ///
    /// [`repair_sweep`]: Self::repair_sweep
    pub fn converge(&mut self) -> Convergence {
        let consistent_before = self.check_replication().is_consistent();
        self.net.heal_all();
        let mut rejoin_failures = 0;
        for n in 0..self.config.compute_nodes {
            if !self.node_is_online(n) && self.node_rejoin(n).is_err() {
                rejoin_failures += 1;
            }
        }
        let repair = self.repair_sweep();
        let budget = self.enforce_hoard_budgets();
        Convergence {
            consistent_before,
            rejoin_failures,
            repair,
            evictions: budget.evictions.len() as u64,
            within_budget: budget.is_within_budget(),
            converged: self.check_replication().is_consistent(),
            scrub_clean: self.scrub_scvol().is_clean()
                && self.nodes.iter().all(|n| n.ccvol.scrub().is_clean())
                && self.shared_storage_clean(),
        }
    }

    /// One day's environment faults: detach the armed plan, draw churn, a
    /// storage-link cut or heal, a domain outage and bit rot from it,
    /// serially and in that order, re-arm it so deliveries keep drawing
    /// from the same stream, then apply what was drawn. `None` when no plan
    /// is armed.
    pub fn fault_tick(&mut self) -> Option<FaultTick> {
        let mut plan = self.clear_fault_plan()?;
        let nodes = self.config.compute_nodes;
        let storage = nodes; // first storage node id
        let topology = self.config.topology;
        let churn = plan.churn_event(nodes, |n| self.node_is_online(n));
        let cut = plan.partition_event(storage, nodes, |n| !self.net.is_reachable(storage, n));
        // Correlated domain outages only exist on multi-rack layouts; a
        // flat topology draws nothing, so its draw sequence never shifts.
        let domain = if topology.total_racks() > 1 {
            plan.domain_event(
                topology.total_racks(),
                topology.total_datacenters(),
                |rk| self.net.rack_is_down(rk),
                |dc| self.net.datacenter_is_down(dc),
            )
        } else {
            None
        };
        let rot = plan.block_corruption(nodes);
        self.set_fault_plan(plan);

        let rejoined = match churn {
            Some(ChurnEvent::Offline(n)) => {
                let _ = self.node_offline(n);
                None
            }
            Some(ChurnEvent::Rejoin(n)) => Some(self.node_rejoin(n).is_ok()),
            Some(ChurnEvent::Flap(n)) => {
                let _ = self.node_offline(n);
                Some(self.node_rejoin(n).is_ok())
            }
            None => None,
        };
        match cut {
            Some(PartitionEvent::Cut(a, b)) => self.net.partition(a, b),
            Some(PartitionEvent::Heal(a, b)) => self.net.heal(a, b),
            _ => {}
        }
        match domain {
            Some(PartitionEvent::RackDown(rk)) => {
                self.rack_down(rk);
            }
            Some(PartitionEvent::RackUp(rk)) => self.rack_up(rk),
            Some(PartitionEvent::DatacenterDown(dc)) => {
                self.datacenter_down(dc);
            }
            Some(PartitionEvent::DatacenterUp(dc)) => self.datacenter_up(dc),
            _ => {}
        }
        let rot = rot.map(|(victim, nth)| {
            let key = match victim {
                Some(n) => self.corrupt_cc_block(n, nth),
                None => self.corrupt_sc_block(nth),
            };
            // Rot aimed at the shared tier also rots one erasure shard when
            // the tier is erasure-coded — same draw, so replicated runs are
            // untouched.
            let ec_shard = if victim.is_none() { self.corrupt_ec_shard(nth) } else { None };
            RotHit { victim, block_hit: key.is_some(), ec_shard }
        });
        Some(FaultTick { churn, rejoined, domain, rot })
    }

    // --- introspection for experiments and tests ---------------------------

    pub fn registered_images(&self) -> Vec<ImageId> {
        self.registered.keys().copied().collect()
    }

    /// Registration record of `image`, if registered.
    pub fn registration_info(&self, image: ImageId) -> Option<RegistrationInfo> {
        self.registered.get(&image).map(|r| RegistrationInfo {
            image,
            snapshot_tag: r.snapshot_tag.clone(),
            day: r.day,
        })
    }

    pub fn is_registered(&self, image: ImageId) -> bool {
        self.registered.contains_key(&image)
    }

    pub fn scvol_stats(&self) -> SpaceStats {
        self.scvol.stats()
    }

    pub fn ccvol_stats(&self, node: NodeId) -> Option<SpaceStats> {
        self.nodes.get(node as usize).map(|n| n.ccvol.stats())
    }

    pub fn ccvol_file_count(&self, node: NodeId) -> Option<usize> {
        self.nodes.get(node as usize).map(|n| n.ccvol.file_count())
    }

    pub fn node_is_online(&self, node: NodeId) -> bool {
        self.nodes.get(node as usize).is_some_and(|n| n.online)
    }

    pub fn network(&self) -> &Network {
        &self.net
    }

    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Consistency check: every online node's ccVolume mirrors the
    /// scVolume's state *as of its latest snapshot* — deregistrations after
    /// the last snapshot intentionally haven't propagated yet (they ride
    /// along with the next registration's diff, paper Section 3.4). Offline
    /// nodes are reported but don't count against
    /// [`ReplicationReport::is_consistent`].
    pub fn check_replication(&self) -> ReplicationReport {
        let reference_snapshot = self.scvol.latest_snapshot().map(|s| s.to_string());
        let reference: Vec<&str> = reference_snapshot
            .as_ref()
            .and_then(|tag| self.scvol.snapshot_file_names(tag))
            .unwrap_or_else(|| self.scvol.file_names().collect());
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let cc: Vec<&str> = n.ccvol.file_names().collect();
                // A budget-evicted cache is *deliberately* absent from this
                // node: hold the node to the reference minus its evictions,
                // or repair would re-hoard what the budget just reclaimed.
                let expected: Vec<&str> = reference
                    .iter()
                    .copied()
                    .filter(|name| {
                        !Self::image_of_cache_name(name)
                            .is_some_and(|img| n.evicted.contains(&img))
                    })
                    .collect();
                NodeReplication {
                    node: i as NodeId,
                    online: n.online,
                    in_sync: cc == expected,
                    file_count: cc.len(),
                }
            })
            .collect();
        ReplicationReport { reference_snapshot, nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squirrel_dataset::CorpusConfig;

    fn small_system(nodes: u32) -> Squirrel {
        let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(8, 77)));
        Squirrel::new(
            SquirrelConfig {
                compute_nodes: nodes,
                block_size: 16 * 1024,
                ..Default::default()
            },
            corpus,
        )
    }

    #[test]
    fn register_propagates_to_all_nodes() {
        let mut sq = small_system(4);
        let r = sq.register(0).expect("register");
        assert_eq!(r.nodes_updated, 4);
        assert!(r.cache_bytes > 0);
        assert!(r.diff_wire_bytes > 0);
        assert!(sq.check_replication().is_consistent());
        for n in 0..4 {
            assert_eq!(sq.ccvol_file_count(n), Some(1));
        }
    }

    #[test]
    fn register_is_identical_at_any_thread_count() {
        let run = |threads: usize| {
            let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(8, 77)));
            let mut sq = Squirrel::new(
                SquirrelConfig {
                    compute_nodes: 4,
                    block_size: 16 * 1024,
                    threads,
                    ..Default::default()
                },
                corpus,
            );
            let r0 = sq.register(0).expect("r0");
            let r1 = sq.register(1).expect("r1");
            assert!(sq.check_replication().is_consistent(), "threads={threads}");
            assert_eq!(r0.nodes_updated, 4);
            assert_eq!(r1.nodes_updated, 4);
            (sq.scvol_stats(), sq.ccvol_stats(0).expect("node"), r0.diff_wire_bytes)
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn peer_planner_equals_the_scan_everything_oracle() {
        use squirrel_dataset::rng::SplitMix64;
        const NODES: u32 = 1000;
        let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(2, 77)));
        let mut sq = Squirrel::new(
            SquirrelConfig {
                compute_nodes: NODES,
                block_size: 16 * 1024,
                distribution: DistributionPolicy::PeerAssisted,
                topology: TopologyConfig {
                    regions: 1,
                    dcs_per_region: 2,
                    racks_per_dc: 4,
                },
                ..Default::default()
            },
            corpus,
        );
        let root = NODES; // first storage node
        let targets: Vec<NodeId> = (0..NODES).collect();
        let check = |sq: &Squirrel, what: &str| {
            let plan = sq.plan_fanout(&targets, 4096);
            let mut oracle = TransferPlan::new(plan.policy, plan.root, plan.payload_bytes);
            sq.plan_peer_rounds_oracle(&targets, &mut oracle);
            assert_eq!(plan, oracle, "{what}");
            assert_eq!(
                plan.planned_receivers() + plan.unreachable.len(),
                targets.len(),
                "{what}"
            );
            plan
        };
        let healthy = check(&sq, "healthy");
        assert!(healthy.unreachable.is_empty());
        for seed in 0..4u64 {
            let mut rng = SplitMix64::from_parts(&[seed, 0x9ee2]);
            sq.network_mut().heal_all();
            // Scattered single-link cuts...
            for _ in 0..3000 {
                let (a, b) = (
                    rng.below(NODES.into()) as NodeId,
                    rng.below(NODES.into()) as NodeId,
                );
                sq.network_mut().partition(a, b);
            }
            // ...a few receivers the storage tier cannot reach, one of them
            // reachable by nobody...
            let hermit = rng.below(NODES.into()) as NodeId;
            for _ in 0..20 {
                sq.network_mut()
                    .partition(root, rng.below(NODES.into()) as NodeId);
            }
            for other in 0..=NODES {
                sq.network_mut().partition(hermit, other);
            }
            // ...a neighbourhood cut off from everyone near it, so the
            // outward probe has to walk past dead candidates...
            let centre = rng.range(100, u64::from(NODES) - 100) as NodeId;
            for a in centre - 5..centre + 5 {
                for b in centre - 60..centre + 60 {
                    sq.network_mut().partition(a, b);
                }
            }
            // ...and whole racks down.
            for _ in 0..=seed % 3 {
                sq.rack_down(rng.below(8) as u32);
            }
            let plan = check(&sq, &format!("seed {seed}"));
            assert!(plan.unreachable.contains(&hermit), "seed {seed}");
            for rack in 0..8 {
                sq.rack_up(rack);
            }
        }
    }

    #[test]
    fn register_twice_fails() {
        let mut sq = small_system(2);
        sq.register(1).expect("first");
        assert!(matches!(
            sq.register(1),
            Err(SquirrelError::AlreadyRegistered(1))
        ));
    }

    #[test]
    fn warm_boot_has_zero_network_traffic() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");
        sq.network_mut().reset_ledgers();
        let out = sq.boot(1, 0).expect("boot");
        assert!(out.warm);
        assert_eq!(out.net_bytes, 0);
        assert_eq!(sq.network().ledger(1).rx_bytes, 0);
        assert!(out.report.total_seconds > 5.0 && out.report.total_seconds < 60.0);
    }

    #[test]
    fn cold_boot_crosses_network() {
        let mut sq = small_system(2);
        sq.network_mut().reset_ledgers();
        let out = sq.boot(0, 3).expect("boot unregistered image");
        assert!(!out.warm);
        assert!(out.net_bytes > 0);
        assert_eq!(sq.network().ledger(0).rx_bytes, out.net_bytes);
    }

    #[test]
    fn warm_boot_faster_than_cold() {
        let mut sq = small_system(2);
        sq.register(2).expect("register");
        let warm = sq.boot(0, 2).expect("warm");
        let cold = sq.boot(1, 3).expect("cold");
        assert!(
            warm.report.total_seconds < cold.report.total_seconds,
            "warm {} cold {}",
            warm.report.total_seconds,
            cold.report.total_seconds
        );
    }

    #[test]
    fn deregister_then_next_register_propagates_deletion() {
        let mut sq = small_system(3);
        sq.register(0).expect("r0");
        sq.register(1).expect("r1");
        sq.deregister(0).expect("deregister");
        // ccVolumes still hold cache-0 (no snapshot on delete).
        assert_eq!(sq.ccvol_file_count(0), Some(2));
        sq.register(2).expect("r2");
        // The new diff carries the deletion.
        assert_eq!(sq.ccvol_file_count(0), Some(2));
        assert!(sq.check_replication().is_consistent());
    }

    #[test]
    fn offline_node_misses_diffs_then_catches_up_incrementally() {
        let mut sq = small_system(3);
        sq.register(0).expect("r0");
        sq.node_offline(2).expect("offline");
        sq.register(1).expect("r1");
        assert_eq!(sq.ccvol_file_count(2), Some(1), "missed the diff");
        let outcome = sq.node_rejoin(2).expect("rejoin");
        assert!(matches!(outcome, RejoinOutcome::Incremental { .. }), "{outcome:?}");
        assert!(sq.check_replication().is_consistent());
    }

    #[test]
    fn long_offline_node_needs_full_replication() {
        let mut sq = small_system(3);
        sq.register(0).expect("r0");
        sq.node_offline(1).expect("offline");
        sq.advance_days(10);
        sq.register(1).expect("r1");
        sq.advance_days(10);
        sq.register(2).expect("r2");
        let _ = sq.gc(); // collects vmi-0 and vmi-1 (older than the window)
        let outcome = sq.node_rejoin(1).expect("rejoin");
        assert!(
            matches!(outcome, RejoinOutcome::FullReplication { .. }),
            "{outcome:?}"
        );
        assert!(sq.check_replication().is_consistent());
    }

    #[test]
    fn gc_keeps_latest_snapshot_regardless_of_age() {
        let mut sq = small_system(2);
        sq.register(0).expect("r0");
        sq.advance_days(100);
        let _ = sq.gc();
        assert!(sq.scvol_stats().unique_blocks > 0);
        // Latest snapshot must survive.
        let outcome = sq.node_rejoin(0).expect("rejoin");
        assert_eq!(outcome, RejoinOutcome::UpToDate);
    }

    #[test]
    fn rejoin_when_up_to_date_is_noop() {
        let mut sq = small_system(2);
        sq.register(0).expect("r0");
        let outcome = sq.node_rejoin(1).expect("rejoin");
        assert_eq!(outcome, RejoinOutcome::UpToDate);
    }

    #[test]
    fn boot_on_offline_node_fails() {
        let mut sq = small_system(2);
        sq.node_offline(0).expect("offline");
        assert!(matches!(sq.boot(0, 0), Err(SquirrelError::NodeOffline(0))));
    }

    #[test]
    fn scvol_grows_sublinearly_with_registrations() {
        // The scatter-hoarding feasibility claim: caches dedup heavily.
        // Use a corpus whose head images are all Ubuntu (the census head),
        // like the real catalog where one family dominates.
        let corpus = Arc::new(Corpus::generate(
            CorpusConfig { scale: 1024, ..CorpusConfig::test_corpus(16, 77) },
        ));
        let mut sq = Squirrel::new(
            SquirrelConfig { compute_nodes: 1, block_size: 16 * 1024, ..Default::default() },
            corpus,
        );
        sq.register(0).expect("r");
        let one = sq.scvol_stats().total_disk_bytes();
        for i in 1..8 {
            sq.register(i).expect("r");
        }
        let eight = sq.scvol_stats().total_disk_bytes();
        assert!(
            (eight as f64) < 5.0 * one as f64,
            "eight caches {eight} vs one {one}: dedup must help"
        );
    }

    #[test]
    fn errors_on_unknown_entities() {
        let mut sq = small_system(1);
        assert!(matches!(sq.register(999), Err(SquirrelError::UnknownImage(999))));
        assert!(matches!(sq.deregister(0), Err(SquirrelError::NotRegistered(0))));
        assert!(matches!(sq.boot(9, 0), Err(SquirrelError::NoSuchNode(9))));
        assert!(matches!(sq.node_offline(9), Err(SquirrelError::NoSuchNode(9))));
    }

    #[test]
    fn arc_hit_rate_rises_with_cross_vmi_sharing() {
        // Booting several same-family images back to back: later boots hit
        // the records earlier boots left resident.
        let corpus = Arc::new(Corpus::generate(
            CorpusConfig { scale: 1024, ..CorpusConfig::test_corpus(12, 77) },
        ));
        let mut sq = Squirrel::new(
            SquirrelConfig { compute_nodes: 1, block_size: 16 * 1024, ..Default::default() },
            corpus,
        );
        for img in 0..6 {
            sq.register(img).expect("register");
        }
        let one = sq.measure_arc_hit_rate(0, &[0], 64 << 20).expect("one image");
        let many = sq
            .measure_arc_hit_rate(0, &[0, 1, 2, 3, 4, 5], 64 << 20)
            .expect("many images");
        assert_eq!(one.hits, 0, "first boot of a lone image cannot hit");
        assert!(
            many.hit_rate() > 0.2,
            "cross-VMI sharing must produce ARC hits: {:?}",
            many
        );
    }

    #[test]
    fn verify_boot_serves_exact_bytes_from_warm_cache() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");
        let v = sq.verify_boot(1, 0).expect("verify");
        assert!(v.bytes_verified > 0);
        // The QCOW2 cluster over-fetch may cross the working-set boundary
        // once at the tail; everything inside the set must be served warm.
        assert!(
            v.backing_fetches <= 2,
            "warm boot fetched {} blocks from the base",
            v.backing_fetches
        );
    }

    #[test]
    fn cdc_reverse_system_full_workflow() {
        use squirrel_zfs::CdcParams;
        let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(8, 77)));
        let mut sq = Squirrel::new(
            SquirrelConfig {
                compute_nodes: 2,
                block_size: 16 * 1024,
                chunking: ChunkStrategy::Cdc(CdcParams::with_average(16 * 1024)),
                dedup_mode: DedupMode::Reverse,
                ..Default::default()
            },
            corpus,
        );
        sq.register(0).expect("r0");
        sq.register(1).expect("r1");
        // Warm boots are served byte-exact from the chunked hoarded cache.
        let v = sq.verify_boot(1, 0).expect("verify");
        assert!(v.bytes_verified > 0);
        assert!(v.backing_fetches <= 2, "warm boot fetched {}", v.backing_fetches);
        // Chunked pools scrub clean end to end (scVolume and ccVolume).
        assert!(sq.scrub_scvol().is_clean());
        assert!(sq.scrub_node(0).expect("node").is_clean());
        // Evict + rehoard round-trips a chunked cache, whose block count
        // comes from the file length rather than the per-record refs.
        assert!(sq.evict_cache(1, 0).expect("evict").was_cached);
        let re = sq.rehoard_cache(1, 0).expect("rehoard");
        assert!(re.blocks > 0);
        let v2 = sq.verify_boot(1, 0).expect("verify rehoarded");
        assert!(v2.bytes_verified > 0);
        assert!(v2.backing_fetches <= 2);
    }

    #[test]
    fn verify_boot_without_cache_fetches_from_backing() {
        let mut sq = small_system(1);
        let v = sq.verify_boot(0, 1).expect("verify");
        assert!(v.bytes_verified > 0);
        assert!(v.backing_fetches > 0, "cold path must reach the base image");
    }

    #[test]
    fn evicted_cache_forces_cold_boot_until_restored() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");
        assert!(sq.has_cache(1, 0));
        assert!(sq.evict_cache(1, 0).expect("evict").was_cached);
        assert!(!sq.has_cache(1, 0));
        // Node 1 now cold-boots image 0; node 0 still warm.
        assert!(!sq.boot(1, 0).expect("boot").warm);
        assert!(sq.boot(0, 0).expect("boot").warm);
        // Idempotent eviction.
        assert!(!sq.evict_cache(1, 0).expect("evict again").was_cached);
    }

    fn ec_system() -> Squirrel {
        let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(8, 77)));
        Squirrel::new(
            SquirrelConfig {
                compute_nodes: 4,
                storage_nodes: 8,
                block_size: 16 * 1024,
                topology: TopologyConfig { regions: 1, dcs_per_region: 2, racks_per_dc: 2 },
                shared_storage: SharedStorage::ErasureCoded { k: 4, m: 2 },
                ..Default::default()
            },
            corpus,
        )
    }

    #[test]
    fn ec_cold_boot_survives_rack_loss_and_repair_rehomes_shards() {
        let mut sq = ec_system();
        sq.register(0).expect("register");
        assert!(sq.shared_storage_clean());
        // Evict node 1's cache so its next boot is cold (served from the
        // shared EC tier), then take down rack 3. Nodes land in racks
        // round-robin, so rack 3 holds compute node 3 and storage nodes
        // 7 and 11 — and the distinct-rack placement phase guarantees at
        // least one of the object's shards lives there.
        assert!(sq.evict_cache(1, 0).expect("evict").was_cached);
        assert!(sq.rack_down(3) > 0);
        let boot = sq.boot(1, 0).expect("cold boot through rack loss");
        assert!(!boot.warm);
        let stats = sq.ec_stats().expect("ec tier armed");
        assert_eq!(stats.direct_reads + stats.degraded_reads, 1);
        // The scrub pass re-homes the stranded shards onto surviving
        // racks, leaving the tier clean even while rack 3 is still dark.
        let rep = sq.repair_shared_storage().expect("ec repair report");
        assert!(rep.shards_relocated > 0, "no shard left rack 3: {rep:?}");
        assert!(rep.unrepaired_stripes == 0 && sq.shared_storage_clean());
        sq.rack_up(3);
        assert!(sq.evict_cache(2, 0).expect("evict").was_cached);
        assert!(!sq.boot(2, 0).expect("boot after heal").warm);
        assert!(sq.shared_storage_clean());
    }

    #[test]
    fn deregister_drops_the_ec_object() {
        let mut sq = ec_system();
        sq.register(0).expect("register");
        sq.register(1).expect("register");
        sq.deregister(0).expect("deregister");
        // Only image 1's cache remains in the EC tier; the pass stays
        // clean (no orphaned shards keep getting scrubbed).
        assert!(sq.shared_storage_clean());
        let rep = sq.repair_shared_storage().expect("ec repair report");
        assert_eq!(rep.stripes_scanned, 1);
    }

    #[test]
    fn boot_storm_serves_warm_vms_zero_copy_and_deterministically() {
        let run = |threads: usize| {
            let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(8, 77)));
            let mut sq = Squirrel::new(
                SquirrelConfig {
                    compute_nodes: 4,
                    block_size: 16 * 1024,
                    threads,
                    ..Default::default()
                },
                corpus,
            );
            sq.register(0).expect("register");
            let storm = sq.boot_storm(0, 8).expect("storm");
            assert_eq!((storm.vms, storm.warm_vms, storm.cold_vms), (8, 8, 0));
            assert_eq!(storm.net_bytes, 0, "warm storm moves nothing");
            assert!(storm.blocks_per_vm > 0);
            assert_eq!(storm.bytes_served, 8 * storm.blocks_per_vm * 16 * 1024);
            assert!(storm.arc.hits > 0, "storm must avoid copies: {:?}", storm.arc);
            assert_eq!(storm.arc.evictions, 0);
            let snap = sq.metrics().snapshot();
            assert_eq!(
                snap.counter("squirrel_boot_storm_copies_avoided_total"),
                Some(storm.arc.hits)
            );
            let bits: Vec<u64> = storm.boot_seconds.iter().map(|s| s.to_bits()).collect();
            (storm.read_checksum, storm.bytes_served, storm.arc, bits, snap)
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn boot_storm_mixes_warm_and_cold_nodes() {
        let mut sq = small_system(3);
        sq.register(0).expect("register");
        let _ = sq.evict_cache(2, 0).expect("evict");
        sq.network_mut().reset_ledgers();
        let storm = sq.boot_storm(0, 6).expect("storm");
        // Round-robin: VMs 2 and 5 land on the evicted node 2.
        assert_eq!(storm.warm_vms, 4);
        assert_eq!(storm.cold_vms, 2);
        assert!(storm.net_bytes > 0, "cold VMs must cross the network");
        assert_eq!(sq.network().ledger(2).rx_bytes, storm.net_bytes);
        assert_eq!(storm.boot_seconds.len(), 6);
        // Cold boots pay for the network pull; warm boots stay fast.
        assert!(
            storm.boot_seconds[2] > storm.boot_seconds[0],
            "cold {} vs warm {}",
            storm.boot_seconds[2],
            storm.boot_seconds[0]
        );
    }

    #[test]
    fn boot_storm_errors_on_unknown_image_and_dead_cluster() {
        let mut sq = small_system(2);
        assert!(matches!(
            sq.boot_storm(999, 4),
            Err(SquirrelError::UnknownImage(999))
        ));
        sq.node_offline(0).expect("offline");
        sq.node_offline(1).expect("offline");
        assert!(matches!(sq.boot_storm(0, 1), Err(SquirrelError::NodeOffline(0))));
    }

    #[test]
    fn registration_info_reflects_clock() {
        let mut sq = small_system(1);
        sq.advance_days(3);
        sq.register(0).expect("register");
        let info = sq.registration_info(0).expect("registered");
        assert_eq!(info.snapshot_tag, "vmi-000000-r1");
        assert_eq!(info.day, 3);
        assert_eq!(info.image, 0);
        assert_eq!(sq.registration_info(5), None);
    }

    #[test]
    fn registration_report_times_are_plausible() {
        let mut sq = small_system(2);
        let r = sq.register(0).expect("register");
        // Paper: registration "does not take more than a minute".
        assert!(r.seconds > 10.0 && r.seconds < 120.0, "{}", r.seconds);
    }

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
            .chunking(ChunkStrategy::Cdc(squirrel_zfs::CdcParams::with_average(4096)))
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

    #[test]
    fn gc_reports_collected_snapshots_and_reclaimed_bytes() {
        let mut sq = small_system(2);
        sq.register(0).expect("r0");
        let noop = sq.gc();
        assert_eq!(noop, GcReport { snapshots_collected: 0, bytes_reclaimed: 0 });
        sq.advance_days(10);
        sq.register(1).expect("r1");
        sq.advance_days(10);
        sq.register(2).expect("r2");
        let report = sq.gc();
        assert_eq!(report.snapshots_collected, 2, "{report:?}");
    }

    #[test]
    fn replication_report_names_lagging_nodes() {
        let mut sq = small_system(3);
        sq.register(0).expect("r0");
        sq.node_offline(2).expect("offline");
        sq.register(1).expect("r1");
        let report = sq.check_replication();
        assert!(report.is_consistent(), "offline lag is expected: {report:?}");
        assert_eq!(report.reference_snapshot.as_deref(), Some("vmi-000001-r2"));
        assert_eq!(report.nodes.len(), 3);
        assert!(!report.nodes[2].in_sync);
        assert!(!report.nodes[2].online);
        assert!(report.lagging_nodes().is_empty());
        // Bring it back without rejoining: now it counts as lagging.
        sq.nodes[2].online = true;
        let report = sq.check_replication();
        assert!(!report.is_consistent());
        assert_eq!(report.lagging_nodes(), vec![2]);
    }

    #[test]
    fn workflow_metrics_land_in_one_snapshot() {
        let mut sq = small_system(2);
        let r = sq.register(0).expect("register");
        sq.boot(0, 0).expect("warm boot");
        sq.boot(1, 3).expect("cold boot");
        let _ = sq.gc();
        let snap = sq.metrics().snapshot();
        assert_eq!(snap.counter("squirrel_register_total"), Some(1));
        assert_eq!(
            snap.counter("squirrel_register_wire_bytes_total"),
            Some(r.diff_wire_bytes)
        );
        assert_eq!(
            snap.counter("squirrel_boot_total{node=\"0\",result=\"warm\"}"),
            Some(1)
        );
        assert_eq!(
            snap.counter("squirrel_boot_total{node=\"1\",result=\"cold\"}"),
            Some(1)
        );
        assert_eq!(snap.counter("squirrel_gc_runs_total"), Some(1));
        assert!(snap.gauge_u64("squirrel_scvol_ddt_entries").unwrap() > 0);
        // The pool layers reported through the same registry.
        assert!(snap.counter("zpool_ingest_blocks_total{pool=\"scvol\"}").unwrap() > 0);
        assert!(snap.counter("zpool_recv_streams_total{pool=\"ccvol\"}").unwrap() >= 2);
        assert!(snap.counter_sum("net_tx_bytes_total") > 0);
        // Workflow events are journaled in order.
        let names: Vec<&str> = snap.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["register", "boot", "boot", "gc"]);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(8, 77)));
        let mut sq = Squirrel::new(
            SquirrelConfig {
                compute_nodes: 2,
                block_size: 16 * 1024,
                metrics: false,
                ..Default::default()
            },
            corpus,
        );
        sq.register(0).expect("register");
        sq.boot(0, 0).expect("boot");
        let snap = sq.metrics().snapshot();
        assert_eq!(snap, squirrel_obs::MetricsSnapshot::default());
    }

    #[test]
    fn error_source_chains_to_recv_error() {
        use std::error::Error as _;
        let err = SquirrelError::Recv(RecvError::MissingBase("vmi-x".into()));
        assert!(err.source().is_some());
        assert!(err.to_string().contains("snapshot stream rejected"));
        assert_eq!(SquirrelError::NodeOffline(1).source().map(|_| ()), None);
        let err = SquirrelError::Net(NetError::SelfTransfer { node: 3 });
        assert!(err.source().is_some());
        assert!(err.to_string().contains("transfer failed"));
    }

    // --- churn edge cases ---------------------------------------------------

    #[test]
    fn node_offline_twice_is_idempotent() {
        let mut sq = small_system(3);
        sq.register(0).expect("r0");
        sq.node_offline(1).expect("first offline");
        sq.node_offline(1).expect("second offline is a no-op");
        assert!(!sq.node_is_online(1));
        sq.register(1).expect("r1");
        let outcome = sq.node_rejoin(1).expect("rejoin");
        assert!(matches!(outcome, RejoinOutcome::Incremental { .. }), "{outcome:?}");
        assert!(sq.check_replication().is_consistent());
    }

    #[test]
    fn rejoin_of_never_offline_node_is_up_to_date() {
        let mut sq = small_system(3);
        sq.register(0).expect("r0");
        sq.register(1).expect("r1");
        assert!(sq.node_is_online(2));
        let outcome = sq.node_rejoin(2).expect("rejoin");
        assert_eq!(outcome, RejoinOutcome::UpToDate);
        assert!(sq.node_is_online(2));
        assert!(sq.check_replication().is_consistent());
    }

    #[test]
    fn boot_storm_skips_offline_nodes() {
        let mut sq = small_system(4);
        sq.register(0).expect("register");
        sq.node_offline(1).expect("offline");
        sq.node_offline(3).expect("offline");
        sq.network_mut().reset_ledgers();
        let storm = sq.boot_storm(0, 6).expect("storm");
        assert_eq!((storm.warm_vms, storm.cold_vms), (6, 0));
        // Round-robin lands only on the online nodes 0 and 2.
        assert_eq!(sq.network().ledger(1).rx_bytes, 0);
        assert_eq!(sq.network().ledger(3).rx_bytes, 0);
    }

    #[test]
    fn gc_while_offline_then_rejoin_across_retention_window() {
        let mut sq = small_system(3);
        sq.register(0).expect("r0");
        sq.node_offline(2).expect("offline");
        // Several registration+gc cycles pass while the node is down; its
        // base snapshot ages out of the window and is collected.
        for (i, img) in [1u32, 2, 3].iter().enumerate() {
            sq.advance_days(sq.config().gc_window_days + 1);
            sq.register(*img).expect("register");
            let gc = sq.gc();
            assert!(gc.snapshots_collected > 0, "cycle {i}: {gc:?}");
        }
        let outcome = sq.node_rejoin(2).expect("rejoin");
        assert!(matches!(outcome, RejoinOutcome::FullReplication { .. }), "{outcome:?}");
        assert!(sq.check_replication().is_consistent());
        assert!(sq.boot(2, 3).expect("boot").warm, "rebuilt hoard serves warm");
    }

    // --- fault injection & recovery -----------------------------------------

    #[test]
    fn degraded_boot_falls_back_to_shared_storage_until_repaired() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");
        let key = sq.corrupt_cc_block(1, 0).expect("victim block");
        sq.network_mut().reset_ledgers();

        let out = sq.boot(1, 0).expect("degraded boot");
        assert!(!out.warm && out.degraded, "{out:?}");
        assert!(out.net_bytes > 0, "degraded boot pulls from shared storage");
        let snap = sq.metrics().snapshot();
        assert_eq!(snap.counter("squirrel_boot_degraded_total"), Some(1));

        let repair = sq.scrub_and_repair(1).expect("repair");
        assert_eq!((repair.corrupt_found, repair.repaired, repair.unrepaired), (1, 1, 0));
        assert!(repair.is_healed());
        assert!(repair.refetch_bytes > 0, "repair is charged to the network");
        assert!(sq.scrub_node(1).expect("node").is_clean());
        let _ = key;

        let out = sq.boot(1, 0).expect("healed boot");
        assert!(out.warm && !out.degraded, "{out:?}");
    }

    #[test]
    fn boot_storm_serves_corrupt_node_degraded() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");
        sq.corrupt_cc_block(1, 3).expect("corrupt");
        let storm = sq.boot_storm(0, 4).expect("storm");
        assert_eq!((storm.warm_vms, storm.cold_vms, storm.degraded_vms), (2, 2, 2));
        assert!(storm.net_bytes > 0);
    }

    #[test]
    fn scvol_heals_from_intact_ccvol_replicas() {
        let mut sq = small_system(3);
        sq.register(0).expect("register");
        sq.corrupt_sc_block(1).expect("corrupt");
        assert!(!sq.scrub_scvol().is_clean());
        let repair = sq.scrub_and_repair_scvol();
        assert_eq!((repair.node, repair.repaired, repair.unrepaired), (None, 1, 0));
        assert!(sq.scrub_scvol().is_clean());
    }

    #[test]
    fn converge_heals_cuts_churn_and_rot_then_finds_nothing_to_do() {
        let mut sq = small_system(3);
        let storage = sq.config().compute_nodes;
        sq.register(0).expect("register");
        sq.network_mut().partition(storage, 0);
        sq.node_offline(1).expect("offline");
        sq.register(1).expect("register reaches node 2 only");
        assert!(sq.corrupt_cc_block(2, 0).is_some());
        assert!(sq.corrupt_sc_block(1).is_some());

        let c = sq.converge();
        assert!(!c.consistent_before, "node 0 missed a registration behind the cut");
        assert_eq!(c.rejoin_failures, 0);
        assert!(c.converged && c.scrub_clean && c.within_budget, "{c:?}");
        assert_eq!(c.repair.blocks.repaired, 2, "{c:?}");
        assert!(sq.node_is_online(1) && sq.network().is_reachable(storage, 0));

        let again = sq.converge();
        assert!(again.consistent_before && again.converged && again.scrub_clean);
        assert_eq!(again.repair.blocks.repaired, 0);
        assert_eq!(again.repair.blocks.refetch_bytes + again.repair.sync.wire_bytes, 0);
    }

    #[test]
    fn register_under_total_loss_gives_up_then_repair_replication_recovers() {
        use squirrel_faults::{FaultConfig, FaultPlan};
        let mut sq = small_system(3);
        sq.register(0).expect("clean register");
        // Every delivery attempt drops; retries are exhausted immediately.
        let config = FaultConfig { drop_prob: 1.0, max_retries: 1, ..FaultConfig::default() };
        sq.set_fault_plan(FaultPlan::new(9, config));
        let r = sq.register(1).expect("register survives total loss");
        assert_eq!(r.nodes_updated, 0);
        let fault = sq.fault_report().expect("armed");
        assert_eq!(fault.giveups, 3);
        assert_eq!(fault.net_drops, 6, "two attempts per node");
        assert!(!sq.check_replication().is_consistent());

        // The plan stays armed: the repair path itself must work under it.
        let sync = sq.repair_replication();
        assert_eq!((sync.lagging, sync.repaired, sync.failed), (3, 3, 0));
        assert!(sync.all_repaired());
        assert!(sq.check_replication().is_consistent());
    }

    #[test]
    fn register_behind_partition_leaves_node_lagging_until_heal() {
        use squirrel_faults::FaultPlan;
        let mut sq = small_system(3);
        sq.register(0).expect("clean register");
        let storage = sq.config().compute_nodes;
        sq.network_mut().partition(storage, 2);
        // A quiet plan injects nothing; the partition alone blocks node 2.
        sq.set_fault_plan(FaultPlan::quiet(5));
        let r = sq.register(1).expect("register");
        assert_eq!(r.nodes_updated, 2);
        assert_eq!(sq.check_replication().lagging_nodes(), vec![2]);
        // Repair can't reach it either, until the cut heals.
        let sync = sq.repair_replication();
        assert_eq!((sync.repaired, sync.failed), (0, 1));
        sq.network_mut().heal_all();
        let sync = sq.repair_replication();
        assert_eq!((sync.repaired, sync.failed), (1, 0));
        assert!(sq.check_replication().is_consistent());
    }

    #[test]
    fn faulty_register_is_deterministic_per_seed_and_thread_count() {
        use squirrel_faults::{FaultConfig, FaultPlan};
        let run = |threads: usize, seed: u64| {
            let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(8, 77)));
            let mut sq = Squirrel::new(
                SquirrelConfig {
                    compute_nodes: 4,
                    block_size: 16 * 1024,
                    threads,
                    ..Default::default()
                },
                corpus,
            );
            sq.set_fault_plan(FaultPlan::new(seed, FaultConfig::chaos()));
            let r0 = sq.register(0).expect("r0");
            let r1 = sq.register(1).expect("r1");
            let fault = sq.clear_fault_plan().expect("armed").report();
            ((r0.nodes_updated, r1.nodes_updated), fault, sq.metrics().snapshot())
        };
        let reference = run(1, 21);
        for threads in [2, 8] {
            assert_eq!(run(threads, 21), reference, "threads={threads}");
        }
        assert_ne!(run(1, 22).1, reference.1, "different seed, different schedule");
    }

    // --- hoard budgets ------------------------------------------------------

    /// A system over the same corpus as [`small_system`], with a per-node
    /// hoard budget.
    fn budgeted_system(nodes: u32, budget: HoardBudget) -> Squirrel {
        let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(8, 77)));
        Squirrel::new(
            SquirrelConfig {
                compute_nodes: nodes,
                block_size: 16 * 1024,
                hoard_budget: budget,
                ..Default::default()
            },
            corpus,
        )
    }

    #[test]
    fn unlimited_budget_enforcement_is_a_noop() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");
        let report = sq.enforce_hoard_budgets();
        assert_eq!(report, BudgetReport::default());
        assert!(report.is_within_budget());
        assert!(sq.check_replication().is_consistent());
    }

    #[test]
    fn budget_equal_to_footprint_evicts_nothing() {
        let mut probe = small_system(1);
        for img in 0..3 {
            probe.register(img).expect("register");
        }
        let full = probe.ccvol_stats(0).expect("node");
        let mut sq = budgeted_system(
            1,
            HoardBudget {
                disk_bytes: full.total_disk_bytes(),
                ddt_mem_bytes: full.ddt_memory_bytes,
            },
        );
        for img in 0..3 {
            sq.register(img).expect("register");
        }
        let report = sq.enforce_hoard_budgets();
        assert!(report.evictions.is_empty(), "{report:?}");
        assert_eq!(report.nodes_over_budget, 0);
        assert!(report.is_within_budget());
        assert!(sq.boot(0, 0).expect("boot").warm);
    }

    #[test]
    fn budget_enforcement_evicts_least_popular_first() {
        let mut probe = small_system(1);
        for img in 0..3 {
            probe.register(img).expect("register");
        }
        let full = probe.ccvol_stats(0).expect("node").total_disk_bytes();
        // A disk budget one byte under the full hoard: at least one cache
        // must go.
        let mut sq =
            budgeted_system(1, HoardBudget { disk_bytes: full - 1, ddt_mem_bytes: 0 });
        for img in 0..3 {
            sq.register(img).expect("register");
        }
        // Popularity skew: image 0 never boots, image 1 once, image 2 most.
        sq.boot(0, 1).expect("boot");
        sq.boot(0, 2).expect("boot");
        sq.boot(0, 2).expect("boot");
        assert_eq!(sq.image_popularity(0), 0);
        assert_eq!(sq.image_popularity(1), 1);
        assert_eq!(sq.image_popularity(2), 2);

        let report = sq.enforce_hoard_budgets();
        assert_eq!(report.nodes_over_budget, 1);
        assert!(report.is_within_budget());
        assert!(!report.evictions.is_empty());
        assert_eq!(report.evictions[0].image, 0, "least popular goes first");
        assert!(report.evictions[0].was_cached);
        assert!(report.evictions[0].disk_bytes_freed > 0);
        assert!(report.evictions[0].ddt_mem_bytes_freed > 0);
        assert_eq!(report.evictions[0].popularity, 0);
        assert!(report.disk_bytes_freed >= report.evictions[0].disk_bytes_freed);
        // The node actually fits now, and the metrics recorded the pass.
        let cc = sq.ccvol_stats(0).expect("node");
        assert!(cc.total_disk_bytes() < full);
        let snap = sq.metrics().snapshot();
        assert_eq!(
            snap.counter("squirrel_budget_evictions_total"),
            Some(report.evictions.len() as u64)
        );
        assert_eq!(snap.gauge_u64("squirrel_hoard_max_disk_bytes"), Some(full - 1));
        // Evicted images boot degraded from shared storage, warm ones warm.
        let evicted: Vec<ImageId> = report.evictions.iter().map(|e| e.image).collect();
        let out = sq.boot(0, evicted[0]).expect("degraded boot");
        assert!(!out.warm && out.degraded, "{out:?}");
        assert!(out.net_bytes > 0);
        // Replication stays consistent: evictions are deliberate, not lag.
        assert!(sq.check_replication().is_consistent());
        // Idempotent: a second pass finds every node within budget.
        let again = sq.enforce_hoard_budgets();
        assert!(again.evictions.is_empty(), "{again:?}");
        assert_eq!(again.nodes_over_budget, 0);
    }

    #[test]
    fn starved_budget_degrades_everything_but_never_wedges() {
        // A budget smaller than any single cache: every cache goes, the
        // node may stay nominally over (pool overhead), and every image
        // still boots — degraded.
        let mut sq = budgeted_system(1, HoardBudget { disk_bytes: 1, ddt_mem_bytes: 1 });
        for img in 0..3 {
            sq.register(img).expect("register");
        }
        let report = sq.enforce_hoard_budgets();
        assert_eq!(report.nodes_over_budget, 1);
        assert_eq!(report.evictions.len(), 3, "{report:?}");
        assert_eq!(sq.ccvol_file_count(0), Some(0));
        for img in 0..3 {
            let out = sq.boot(0, img).expect("boot still works");
            assert!(!out.warm && out.degraded, "image {img}: {out:?}");
        }
        assert!(sq.check_replication().is_consistent());
    }

    #[test]
    fn rehoard_restores_warm_boot_bit_identically() {
        let mut probe = small_system(1);
        for img in 0..2 {
            probe.register(img).expect("register");
        }
        let full = probe.ccvol_stats(0).expect("node").total_disk_bytes();
        let mut sq =
            budgeted_system(1, HoardBudget { disk_bytes: full - 1, ddt_mem_bytes: 0 });
        for img in 0..2 {
            sq.register(img).expect("register");
        }
        let first = sq.ccvol_stats(0).expect("node");
        let baselines: Vec<BootVerification> =
            (0..2).map(|img| sq.verify_boot(0, img).expect("baseline verify")).collect();
        let report = sq.enforce_hoard_budgets();
        let victim = report.evictions[0].image;
        assert!(!sq.has_cache(0, victim));
        assert!(!sq.boot(0, victim).expect("boot").warm);

        let re = sq.rehoard_cache(0, victim).expect("rehoard");
        assert_eq!(re.node, 0);
        assert_eq!(re.image, victim);
        assert!(re.wire_bytes > 0, "re-hoard crosses the network");
        assert!(re.blocks > 0);
        assert!(sq.has_cache(0, victim));
        // Bit-identical to the first hoard: same live space accounting
        // (snapshot history legitimately slims down — the purge removed the
        // cache from old snapshots too), and the full decompress-and-compare
        // walk sees the original image bytes.
        let after = sq.ccvol_stats(0).expect("node");
        assert_eq!(after.logical_bytes, first.logical_bytes);
        assert_eq!(after.unique_blocks, first.unique_blocks);
        assert_eq!(after.physical_bytes, first.physical_bytes);
        assert_eq!(after.ddt_memory_bytes, first.ddt_memory_bytes);
        let v = sq.verify_boot(0, victim).expect("verify");
        assert!(v.bytes_verified > 0);
        assert_eq!(v, baselines[victim as usize], "same fetch profile as the first hoard");
        let out = sq.boot(0, victim).expect("boot");
        assert!(out.warm && !out.degraded, "{out:?}");
        assert!(sq.check_replication().is_consistent());
    }

    #[test]
    fn rehoard_is_priced_by_the_link_scope_it_crosses() {
        // Two racks, nodes alternating: the scVolume's node (id 2, rack 0)
        // shares a rack with compute node 0 but not with node 1.
        let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(8, 77)));
        let mut sq = Squirrel::new(
            SquirrelConfig {
                compute_nodes: 2,
                block_size: 16 * 1024,
                topology: TopologyConfig { regions: 1, dcs_per_region: 1, racks_per_dc: 2 },
                ..Default::default()
            },
            corpus,
        );
        sq.register(0).expect("register");
        let mut priced_ms = |node: NodeId| {
            let total = |sq: &Squirrel| {
                let snap = sq.metrics().snapshot();
                snap.histogram("squirrel_dist_transfer_seconds_ms").map_or(0, |h| h.sum)
            };
            let _ = sq.evict_cache(node, 0).expect("evict");
            let before = total(&sq);
            let re = sq.rehoard_cache(node, 0).expect("rehoard");
            (total(&sq) - before, re.wire_bytes)
        };
        let (same_rack, wire) = priced_ms(0);
        let (cross_rack, _) = priced_ms(1);
        let plain_ms = wire as f64 / (LinkKind::GbE.mbps() * 1e6) * 1000.0;
        assert_eq!(same_rack, plain_ms.round() as u64);
        assert_eq!(cross_rack, (plain_ms * 2.0).round() as u64);
        assert!(cross_rack > same_rack, "{cross_rack} vs {same_rack} ms for {wire} B");
    }

    #[test]
    fn register_after_eviction_leaves_node_lagging_until_repair() {
        // An incremental diff can reference blocks the budget purge freed.
        // Same-release images share boot working-set blocks, so registering
        // one after evicting the other ships a diff whose pointers the
        // sender knows the receiver "already has" — except the purge freed
        // them. The node skips the stream (MissingBlock), stays lagging,
        // and the repair path's full replication re-hoards everything.
        let (a, b) = (0, 2); // same Ubuntu release in this corpus
        let mut cfg = CorpusConfig::test_corpus(8, 77);
        cfg.scale = 2048; // big enough caches for cross-image block sharing
        // Guard: a and b really do share cache blocks at this scale.
        {
            let corpus = Arc::new(Corpus::generate(cfg.clone()));
            let mut probe = Squirrel::new(
                SquirrelConfig { compute_nodes: 1, block_size: 16 * 1024, ..Default::default() },
                corpus,
            );
            probe.register(a).expect("probe a");
            let solo = probe.ccvol_stats(0).expect("node");
            probe.register(b).expect("probe b");
            let both = probe.ccvol_stats(0).expect("node");
            assert!(
                both.unique_blocks < 2 * solo.unique_blocks,
                "corpus drifted: caches {a} and {b} no longer dedup"
            );
        }

        let corpus = Arc::new(Corpus::generate(cfg));
        let mut sq = Squirrel::new(
            SquirrelConfig {
                compute_nodes: 2,
                block_size: 16 * 1024,
                hoard_budget: HoardBudget { disk_bytes: 1, ddt_mem_bytes: 1 },
                ..Default::default()
            },
            corpus,
        );
        sq.register(a).expect("register a");
        let evicted = sq.enforce_hoard_budgets();
        assert_eq!(evicted.evictions.len(), 2, "both nodes drop the cache");

        let r = sq.register(b).expect("register proceeds on the scVolume");
        assert_eq!(r.nodes_updated, 0, "purged nodes skip the diff");
        assert!(!sq.check_replication().is_consistent());

        let sync = sq.repair_replication();
        assert!(sync.all_repaired(), "{sync:?}");
        assert!(sq.check_replication().is_consistent());
        // Full replication re-hoarded everything, marks included.
        assert!(sq.has_cache(0, a) && sq.has_cache(0, b));
        assert!(sq.boot(0, b).expect("boot").warm);
        // The budget pass then re-evicts deterministically.
        let again = sq.enforce_hoard_budgets();
        assert!(again.is_within_budget());
        assert!(!again.evictions.is_empty());
    }

    #[test]
    fn budget_enforcement_is_deterministic_across_thread_counts() {
        let mut probe = small_system(1);
        for img in 0..4 {
            probe.register(img).expect("register");
        }
        let full = probe.ccvol_stats(0).expect("node").total_disk_bytes();
        let run = |threads: usize| {
            let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(8, 77)));
            let mut sq = Squirrel::new(
                SquirrelConfig {
                    compute_nodes: 3,
                    block_size: 16 * 1024,
                    threads,
                    hoard_budget: HoardBudget { disk_bytes: full / 2, ddt_mem_bytes: 0 },
                    ..Default::default()
                },
                corpus,
            );
            for img in 0..4 {
                sq.register(img).expect("register");
            }
            sq.boot(0, 3).expect("boot");
            let storm = sq.boot_storm(1, 6).expect("storm");
            let report = sq.enforce_hoard_budgets();
            (report, storm.read_checksum, sq.metrics().snapshot())
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn rehoard_errors_match_the_workflow_contract() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");
        assert!(matches!(sq.rehoard_cache(9, 0), Err(SquirrelError::NoSuchNode(9))));
        assert!(matches!(sq.rehoard_cache(0, 5), Err(SquirrelError::NotRegistered(5))));
        sq.node_offline(1).expect("offline");
        assert!(matches!(sq.rehoard_cache(1, 0), Err(SquirrelError::NodeOffline(1))));
    }

    #[test]
    fn repair_errors_on_unknown_node_and_empty_pools() {
        let mut sq = small_system(2);
        assert!(matches!(sq.scrub_and_repair(9), Err(SquirrelError::NoSuchNode(9))));
        assert_eq!(sq.corrupt_cc_block(9, 0), None);
        assert_eq!(sq.corrupt_cc_block(0, 0), None, "empty pool has no victim");
        assert_eq!(sq.corrupt_sc_block(0), None);
        let repair = sq.scrub_and_repair(0).expect("empty pool repair");
        assert_eq!(repair.corrupt_found, 0);
        assert!(repair.is_healed());
    }

    #[test]
    fn errored_boot_leaves_popularity_unchanged() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");
        sq.boot(0, 0).expect("boot");
        assert_eq!(sq.image_popularity(0), 1);

        // Offline node: the boot fails before any work happens.
        sq.node_offline(1).expect("offline");
        assert!(sq.boot(1, 0).is_err());
        assert_eq!(sq.image_popularity(0), 1, "failed boot must not count");

        // Cold boot with the shared tier unreachable: the boot fails after
        // validation, in the shared read.
        sq.node_rejoin(1).expect("rejoin");
        let storage = sq.config().compute_nodes;
        for n in 0..sq.config().storage_nodes {
            sq.network_mut().partition(0, storage + n);
        }
        assert!(sq.boot(0, 5).is_err(), "unregistered image, storage cut");
        assert_eq!(sq.image_popularity(5), 0, "failed cold boot must not count");
    }

    #[test]
    fn errored_boot_storm_leaves_popularity_unchanged() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");

        // Unknown image: rejected up front.
        assert!(sq.boot_storm(99, 4).is_err());
        assert_eq!(sq.image_popularity(99), 0);

        // Whole fleet offline: rejected before any VM boots.
        sq.node_offline(0).expect("offline");
        sq.node_offline(1).expect("offline");
        assert!(sq.boot_storm(0, 4).is_err());
        assert_eq!(sq.image_popularity(0), 0, "failed storm must not count");

        // A storm that goes through counts every VM.
        sq.node_rejoin(0).expect("rejoin");
        sq.node_rejoin(1).expect("rejoin");
        let _ = sq.boot_storm(0, 4).expect("storm");
        assert_eq!(sq.image_popularity(0), 4);
    }

    #[test]
    fn decay_popularity_cools_counts_geometrically() {
        let mut sq = small_system(1);
        sq.register(0).expect("register");
        sq.register(1).expect("register");
        for _ in 0..8 {
            sq.boot(0, 0).expect("boot");
        }
        sq.boot(0, 1).expect("boot");
        assert_eq!(sq.image_popularity(0), 8);

        let cooled = sq.decay_popularity(0.5);
        assert_eq!(sq.image_popularity(0), 4);
        assert_eq!(sq.image_popularity(1), 0, "floor(1 * 0.5) cools to zero");
        assert_eq!(cooled, 1);

        // factor is clamped; 0 empties the signal.
        let cooled = sq.decay_popularity(0.0);
        assert_eq!(cooled, 1);
        assert_eq!(sq.image_popularity(0), 0);
    }

    #[test]
    fn once_hot_image_becomes_the_eviction_victim_after_decay() {
        // Image 0 is hot early, then goes cold while image 1 keeps booting.
        // Without decay the day-one burst outranks image 1 forever; with
        // decay on a cadence, the budget pass evicts the image that
        // *stopped* booting.
        let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(8, 77)));
        let mut probe = Squirrel::new(
            SquirrelConfig { compute_nodes: 1, block_size: 16 * 1024, ..Default::default() },
            Arc::clone(&corpus),
        );
        probe.register(1).expect("register");
        let one_image = probe.ccvol_stats(0).expect("node").total_disk_bytes();
        probe.register(0).expect("register");
        let two_images = probe.ccvol_stats(0).expect("node").total_disk_bytes();

        let mut sq = Squirrel::new(
            SquirrelConfig {
                compute_nodes: 1,
                block_size: 16 * 1024,
                // Room for image 1's cache alone, but not for both:
                // registering both forces the budget pass to pick exactly
                // one victim.
                hoard_budget: HoardBudget {
                    disk_bytes: (one_image + two_images) / 2,
                    ddt_mem_bytes: 0,
                },
                ..Default::default()
            },
            corpus,
        );
        sq.register(0).expect("register");
        sq.register(1).expect("register");
        // Day-one burst on image 0, then silence; image 1 trickles daily.
        for _ in 0..20 {
            sq.boot(0, 0).expect("boot");
        }
        for _ in 0..6 {
            sq.decay_popularity(0.5);
            sq.boot(0, 1).expect("boot");
        }
        assert!(
            sq.image_popularity(1) > sq.image_popularity(0),
            "decay must let the steady image overtake the stale burst: {} vs {}",
            sq.image_popularity(1),
            sq.image_popularity(0)
        );
        let report = sq.enforce_hoard_budgets();
        assert!(
            report.evictions.iter().any(|e| e.image == 0),
            "the once-hot, now-cold image is the victim: {report:?}"
        );
        assert!(
            report.evictions.iter().all(|e| e.image != 1),
            "the steadily-booting image survives: {report:?}"
        );
    }
}
