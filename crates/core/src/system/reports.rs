//! What the workflows return: [`SquirrelError`] and one report type per
//! workflow.

#[cfg(doc)]
use super::Squirrel;
#[cfg(doc)]
use crate::dist::DistributionPolicy;
use squirrel_bootsim::BootReport;
use squirrel_cluster::{EcError, EcRepairReport, NetError, NodeId};
use squirrel_dataset::ImageId;
use squirrel_faults::{ChurnEvent, PartitionEvent};
use squirrel_zfs::{RecvError, SendError};

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
    MissingCache {
        node: NodeId,
        image: ImageId,
    },
    /// A boot-trace replay through the real data path read bytes that
    /// differ from the image's ground truth ([`Squirrel::verify_boot`]).
    BootDataMismatch {
        node: NodeId,
        image: ImageId,
        offset: u64,
    },
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
            SquirrelError::BootDataMismatch {
                node,
                image,
                offset,
            } => {
                write!(
                    f,
                    "boot data corruption: image {image} node {node} at offset {offset}"
                )
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
/// real CoR → ccVolume data path, byte-checked against ground truth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BootVerification {
    /// Bytes read and verified against the image content.
    pub bytes_verified: u64,
    /// Blocks the CoR cache had to fetch from the backing image (zero for
    /// a trusted cache).
    pub backing_fetches: u64,
}

/// A storm's warm reads, counted the way an ARC would: over each warm node,
/// a miss is a distinct decompressed buffer the node resolved, a hit every
/// other read of a data block by that node's VMs. Holes count as neither.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArcStats {
    pub hits: u64,
    pub misses: u64,
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

/// Outcome of [`Squirrel::boot_storm`]: M VMs replay one image's boot
/// working set concurrently, served zero-copy from the nodes' hoarded
/// ccVolumes, each warm node's working set resolved once and each distinct
/// working set hashed once.
#[derive(Clone, Debug)]
#[must_use]
pub struct BootStormReport {
    pub image: ImageId,
    pub vms: u32,
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
    /// Read statistics summed over the warm nodes. Every hit is a
    /// decompression (and copy) avoided.
    pub arc: ArcStats,
    /// Content hash over every VM's read-bytes digest, in VM order — the
    /// determinism witness: bit-identical at any thread count. VMs reading
    /// one working set share its one digest.
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let err = SquirrelError::BootDataMismatch {
            node: 1,
            image: 2,
            offset: 4096,
        };
        assert_eq!(
            err.to_string(),
            "boot data corruption: image 2 node 1 at offset 4096"
        );
        assert!(err.source().is_none());
    }
}
