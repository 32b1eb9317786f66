//! The Squirrel system: scVolume, ccVolumes, and the paper's workflows —
//! one struct, one `impl` block per workflow file (module map in DESIGN.md).
//! This file owns what the workflows share: the node guards, the one donor
//! list every transfer and repair takes its source from, and single-transfer
//! accounting.

mod boot;
mod budget;
mod config;
mod membership;
mod register;
mod repair;
mod reports;

pub use config::{HoardBudget, SharedStorage, SquirrelConfig, SquirrelConfigBuilder};
pub use reports::{
    ArcStats, BootOutcome, BootStormReport, BootVerification, BudgetReport, Convergence,
    EvictReport, FaultTick, GcReport, NodeReplication, RegisterReport, RegistrationInfo,
    RehoardReport, RejoinOutcome, RepairReport, RepairSweep, ReplicationReport, RotHit,
    SquirrelError, SyncRepairReport,
};

use crate::dist::DistributionPolicy;
use squirrel_bootsim::{BootPlan, BootReport, BootSim};
use squirrel_cluster::{
    EcConfig, ErasureCodedVolume, GlusterConfig, GlusterVolume, Network, NodeId,
};
use squirrel_dataset::{Corpus, ImageId};
use squirrel_faults::{FaultPlan, FaultReport};
use squirrel_hash::par::{cost, WorkerPool};
use squirrel_obs::{Metrics, MetricsRegistry};
#[cfg(test)]
use squirrel_qcow::CorCache;
use squirrel_qcow::VirtualDisk;
use squirrel_zfs::{SpaceStats, ZPool};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

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

impl ComputeNode {
    /// Rejoin-donor proof: exactly at the scVolume's `tip` snapshot and
    /// scrub-clean (a donor serving rotten bytes never qualifies). In-sync
    /// replicas are bit-identical by the determinism contract, so such a
    /// peer can serve any stream the scVolume could.
    fn mirrors(&self, tip: &str) -> bool {
        self.ccvol.latest_snapshot() == Some(tip) && self.ccvol.scrub().is_clean()
    }

    /// Re-hoard-donor proof: not under an eviction mark for `image`, and
    /// holding its cache with every record intact.
    fn can_donate(&self, image: ImageId) -> bool {
        !self.evicted.contains(&image) && self.cache_state(image) == boot::CacheState::Warm
    }
}

/// Ids `below` (descending from `t`) and `above` (ascending from `t`)
/// merged nearest-first: ascending `(|d - t|, d)`, so at equal distance
/// the lower id wins. The rank of [`Squirrel::donors`] for a peer receiver;
/// with `below` empty it yields `above` as it comes and never compares.
fn nearest_first(
    t: NodeId,
    below: impl Iterator<Item = NodeId>,
    above: impl Iterator<Item = NodeId>,
) -> impl Iterator<Item = NodeId> {
    let (mut below, mut above) = (below.peekable(), above.peekable());
    std::iter::from_fn(move || match (below.peek(), above.peek()) {
        (Some(&lo), Some(&hi)) if t - lo <= hi - t => below.next(),
        (Some(_), None) => below.next(),
        (_, Some(_)) => above.next(),
        (None, None) => None,
    })
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
    /// Every replay [`Self::simulate`] has run, by the value of its inputs.
    sim_memo: HashMap<boot::SimKey, BootReport>,
    /// Every cVolume trace walk [`Self::simulate`] has run, by its inputs.
    plan_memo: HashMap<boot::PlanKey, BootPlan>,
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
    /// stream out to receivers on it, and boot storms serve reads on it.
    /// Workers spawn lazily on first use and live for the system's
    /// lifetime.
    workers: WorkerPool,
}

/// Adapter: expose a corpus image as a [`VirtualDisk`], the backing of a
/// boot's copy-on-read cache.
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
        let obs = if config.metrics {
            registry.handle()
        } else {
            Metrics::disabled()
        };
        let ccvol_obs = obs.with_label("pool", "ccvol");
        let mut net = Network::with_topology(
            config.link,
            config.compute_nodes,
            config.storage_nodes,
            config.topology,
        );
        net.set_metrics(&obs);
        let root = config.storage_root();
        let bricks: Vec<NodeId> = (root..root + 4).collect();
        let gluster = GlusterVolume::new(GlusterConfig::default(), bricks);
        let ec = match config.shared_storage {
            SharedStorage::Replicated => None,
            SharedStorage::ErasureCoded { k, m } => {
                let candidates: Vec<NodeId> = (root..root + config.storage_nodes).collect();
                Some(ErasureCodedVolume::new(
                    EcConfig {
                        k,
                        m,
                        shard_unit: 64 * 1024,
                    },
                    candidates,
                ))
            }
        };
        let workers = WorkerPool::new(config.threads);
        let nodes = (0..config.compute_nodes)
            .map(|_| ComputeNode {
                ccvol: Self::empty_ccvol(&config, &ccvol_obs, &workers),
                online: true,
                evicted: BTreeSet::new(),
            })
            .collect();
        // The scVolume is the shared catalog: the hoard budget is a
        // per-compute-node constraint and does not apply to it.
        let mut scvol = ZPool::new(config.pool_config());
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
            sim_memo: HashMap::new(),
            plan_memo: HashMap::new(),
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

    fn cache_file_name(image: ImageId) -> String {
        format!("cache-{image:06}")
    }

    /// The blocks `image`'s boot trace touches, at cVolume record
    /// granularity, ascending: what registration's copy-on-read boot
    /// captures into the cache file, and what every VM of a storm reads.
    fn working_set_blocks(&self, image: ImageId) -> Vec<u64> {
        let bs = self.config.block_size as u64;
        let mut touched = Vec::new();
        for op in self
            .corpus
            .image(image)
            .cache()
            .boot_trace()
            .ops
            .iter()
            .filter(|op| op.len > 0)
        {
            touched.extend(op.offset / bs..=(op.offset + u64::from(op.len) - 1) / bs);
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Materialize `image`'s cache as the registration's copy-on-read boot
    /// captures it: a CoR cache holds a block exactly when some read of the
    /// boot trace touches it, so the cache is the
    /// [working set](Self::working_set_blocks), each block read whole from
    /// the image. An image's bytes are a pure function of (corpus seed, atom
    /// identity), so the blocks are synthesised on the workers in any order
    /// and come back in block order. Deterministic — the same image yields
    /// the same bytes — so the EC repair path can rebuild an authoritative
    /// copy long after registration.
    fn materialize_cache(&self, image: ImageId) -> (u64, CacheBlocks) {
        let handle = self.corpus.image(image);
        let bs = self.config.block_size;
        let bs64 = bs as u64;
        let touched = self.working_set_blocks(image);
        let blocks: CacheBlocks = self.workers.parallel_map(
            &touched,
            |_| bs64 * cost::SYNTH,
            |_, &block| {
                let mut data = vec![0u8; bs];
                handle.read_at(block * bs64, &mut data);
                (block, data.into())
            },
        );
        ((blocks.len() * bs) as u64, blocks)
    }

    /// [`Self::materialize_cache`] as the serial copy-on-read replay it
    /// stands for: the boot trace driven through a [`CorCache`]. Its
    /// reference.
    #[cfg(test)]
    fn materialize_cache_by_cor_replay(&self, image: ImageId) -> (u64, CacheBlocks) {
        let trace = self.corpus.image(image).cache().boot_trace();
        let mut cor = CorCache::new(
            ImageDisk {
                corpus: Arc::clone(&self.corpus),
                image,
            },
            self.config.block_size,
        );
        let longest = trace
            .ops
            .iter()
            .map(|op| op.len as usize)
            .max()
            .unwrap_or(0);
        let mut buf = vec![0u8; longest];
        for op in &trace.ops {
            cor.read_at(op.offset, &mut buf[..op.len as usize]);
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

    fn node(&self, id: NodeId) -> Result<&ComputeNode, SquirrelError> {
        self.nodes
            .get(id as usize)
            .ok_or(SquirrelError::NoSuchNode(id))
    }

    fn node_mut(&mut self, id: NodeId) -> Result<&mut ComputeNode, SquirrelError> {
        self.node(id)?;
        Ok(&mut self.nodes[id as usize])
    }

    /// The guard of every workflow that runs *on* a node.
    fn online_node(&self, id: NodeId) -> Result<&ComputeNode, SquirrelError> {
        let node = self.node(id)?;
        if node.online {
            Ok(node)
        } else {
            Err(SquirrelError::NodeOffline(id))
        }
    }

    fn known_image(&self, image: ImageId) -> Result<(), SquirrelError> {
        if (image as usize) < self.corpus.len() {
            Ok(())
        } else {
            Err(SquirrelError::UnknownImage(image))
        }
    }

    fn wants_peers(&self) -> bool {
        self.config.distribution == DistributionPolicy::PeerAssisted
    }

    /// The one donor list: the `candidates` (an id set, or `None` for every
    /// compute node) that could send `to` a copy, best first — not `to`,
    /// online, linked to `to` and passing `proof`, the caller's own check.
    /// A peer receiver ranks them by [`nearest_first`]; the storage root,
    /// which has no place on the id line, by ascending id. Lazy, so a caller
    /// taking the first pays only for the probes (and proofs) up to it.
    fn donors<'a>(
        &'a self,
        to: NodeId,
        candidates: Option<&'a BTreeSet<NodeId>>,
        proof: impl Fn(&ComputeNode) -> bool + 'a,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let ids = move |lo: NodeId, hi: NodeId| {
            let set = candidates.map(|c| c.range(lo..hi).copied());
            let all = candidates.is_none().then_some(lo..hi);
            set.into_iter().flatten().chain(all.into_iter().flatten())
        };
        let root = self.config.storage_root();
        let at = if to == root { 0 } else { to };
        let below = ids(0, at).rev();
        nearest_first(to, below, ids(at, self.nodes.len() as NodeId)).filter(move |&d| {
            let node = &self.nodes[d as usize];
            d != to && node.online && self.net.is_reachable(d, to) && proof(node)
        })
    }

    /// Who serves `to` a single-receiver copy: under
    /// [`DistributionPolicy::PeerAssisted`] the first of
    /// [`Self::donors`]`(to, candidates, proof)`; otherwise, or when none
    /// qualifies, the storage root.
    fn source_for(
        &self,
        to: NodeId,
        candidates: Option<&BTreeSet<NodeId>>,
        proof: impl Fn(&ComputeNode) -> bool,
    ) -> NodeId {
        let first = self
            .wants_peers()
            .then(|| self.donors(to, candidates, proof).next());
        first.flatten().unwrap_or(self.config.storage_root())
    }

    /// The volume node `id` holds: the storage root's scVolume, else a
    /// compute node's ccVolume.
    fn pool(&self, id: NodeId) -> &ZPool {
        if id == self.config.storage_root() {
            &self.scvol
        } else {
            &self.nodes[id as usize].ccvol
        }
    }

    fn pool_mut(&mut self, id: NodeId) -> &mut ZPool {
        if id == self.config.storage_root() {
            &mut self.scvol
        } else {
            &mut self.nodes[id as usize].ccvol
        }
    }

    /// A compute node's empty ccVolume — every node's at bring-up, and a
    /// rejoining node's rebuilt by full replication. The hoard budget is
    /// carried as a pool quota so the pool reports pressure; the pool
    /// records into the shared ccVolume series and runs on the system's
    /// workers.
    fn empty_ccvol(config: &SquirrelConfig, obs: &Metrics, workers: &WorkerPool) -> ZPool {
        let budget = config.hoard_budget;
        let mut ccvol = ZPool::new(
            config
                .pool_config()
                .with_quotas(budget.disk_bytes, budget.ddt_mem_bytes),
        );
        ccvol.set_metrics(obs);
        ccvol.set_worker_pool(workers.clone());
        ccvol
    }

    /// Account one completed single-receiver transfer of `bytes` served by
    /// `src`: all on the storage ledger or all on the peer ledger, one peer
    /// hit — or, when a peer was wanted and none qualified, one miss.
    fn record_transfer(&self, src: NodeId, bytes: u64, seconds: f64) {
        let from_peer = src != self.config.storage_root();
        self.record_dist(&DeliveryStats {
            updated: 1,
            seconds,
            storage_bytes: if from_peer { 0 } else { bytes },
            peer_bytes: if from_peer { bytes } else { 0 },
            peer_hits: u64::from(from_peer),
            peer_misses: u64::from(!from_peer && self.wants_peers()),
            ..DeliveryStats::default()
        });
    }

    /// Record the distribution counters for one completed fan-out or
    /// restore transfer. Same series regardless of shape or fault state.
    fn record_dist(&self, stats: &DeliveryStats) {
        self.obs.add_with(
            "squirrel_dist_transfers_total",
            &[("policy", self.config.distribution.name())],
            1,
        );
        self.obs
            .add("squirrel_dist_storage_bytes_total", stats.storage_bytes);
        self.obs
            .add("squirrel_dist_peer_bytes_total", stats.peer_bytes);
        self.obs
            .add("squirrel_dist_peer_hits_total", stats.peer_hits);
        self.obs
            .add("squirrel_dist_peer_misses_total", stats.peer_misses);
        self.obs.observe(
            "squirrel_dist_transfer_seconds_ms",
            (stats.seconds * 1000.0).round() as u64,
        );
    }

    /// Unlabeled workflow metrics handle, for sibling orchestration modules
    /// in this crate (the fleet driver records `squirrel_fleet_*` series
    /// through it).
    pub(crate) fn obs_handle(&self) -> &Metrics {
        &self.obs
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
}

/// The unit tests' shared fixtures: every workflow file builds its systems
/// here, over one 8-image corpus with 16 KiB records.
#[cfg(test)]
mod testkit {
    pub use super::*;
    pub use squirrel_cluster::{LinkKind, TopologyConfig};
    pub use squirrel_dataset::rng::SplitMix64;
    pub use squirrel_dataset::CorpusConfig;

    pub fn corpus() -> Arc<Corpus> {
        Arc::new(Corpus::generate(CorpusConfig::test_corpus(8, 77)))
    }

    /// `nodes` compute nodes over `corpus`, with whatever `tune` overrides.
    pub fn system_on(
        corpus: Arc<Corpus>,
        nodes: u32,
        tune: impl FnOnce(&mut SquirrelConfig),
    ) -> Squirrel {
        let mut config = SquirrelConfig {
            compute_nodes: nodes,
            block_size: 16 * 1024,
            ..Default::default()
        };
        tune(&mut config);
        Squirrel::new(config, corpus)
    }

    pub fn system_with(nodes: u32, tune: impl FnOnce(&mut SquirrelConfig)) -> Squirrel {
        system_on(corpus(), nodes, tune)
    }

    /// Heal every link, then damage the network at random: scattered
    /// single-link cuts, a few receivers the storage tier cannot reach, one
    /// `hermit` reachable by nobody, and a neighbourhood around `centre`
    /// cut off from everyone near it, so an outward probe has to walk past
    /// dead candidates. Returns `(hermit, centre)`.
    pub fn cut_links(sq: &mut Squirrel, rng: &mut SplitMix64) -> (NodeId, NodeId) {
        let nodes = sq.config.compute_nodes;
        let root = sq.config.storage_root();
        let net = sq.network_mut();
        net.heal_all();
        for _ in 0..3000 {
            let (a, b) = (
                rng.below(nodes.into()) as NodeId,
                rng.below(nodes.into()) as NodeId,
            );
            net.partition(a, b);
        }
        let hermit = rng.below(nodes.into()) as NodeId;
        for _ in 0..20 {
            net.partition(root, rng.below(nodes.into()) as NodeId);
        }
        for other in 0..=nodes {
            net.partition(hermit, other);
        }
        let centre = rng.range(100, u64::from(nodes) - 100) as NodeId;
        for a in centre - 5..centre + 5 {
            for b in centre - 60..centre + 60 {
                net.partition(a, b);
            }
        }
        (hermit, centre)
    }

    pub fn small_system(nodes: u32) -> Squirrel {
        system_with(nodes, |_| {})
    }

    pub fn budgeted_system(nodes: u32, budget: HoardBudget) -> Squirrel {
        system_with(nodes, |c| c.hoard_budget = budget)
    }

    /// Four compute nodes and eight storage nodes on 2 × 2 racks, with a
    /// 4+2 erasure-coded shared tier.
    pub fn ec_system() -> Squirrel {
        system_with(4, |c| {
            c.storage_nodes = 8;
            c.topology = TopologyConfig {
                regions: 1,
                dcs_per_region: 2,
                racks_per_dc: 2,
            };
            c.shared_storage = SharedStorage::ErasureCoded { k: 4, m: 2 };
        })
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;

    #[test]
    fn materialize_equals_the_cor_replay() {
        // Caches large enough that synthesis splits into several shares.
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            scale: 256,
            ..CorpusConfig::test_corpus(8, 77)
        }));
        for block_size in [4 << 10, 16 << 10, 64 << 10] {
            let reference = system_on(Arc::clone(&corpus), 1, |c| c.block_size = block_size);
            let want: Vec<_> = (0..corpus.len() as ImageId)
                .map(|i| reference.materialize_cache_by_cor_replay(i))
                .collect();
            for threads in [1, 2, 8] {
                let sq = system_on(Arc::clone(&corpus), 1, |c| {
                    c.block_size = block_size;
                    c.threads = threads;
                });
                for (image, (want_bytes, want_blocks)) in want.iter().enumerate() {
                    assert!(want_bytes * cost::SYNTH >= 2 * squirrel_hash::par::MIN_SHARE);
                    let (bytes, blocks) = sq.materialize_cache(image as ImageId);
                    let at = format!("image {image}, {block_size} B blocks, {threads} threads");
                    let indices = |b: &CacheBlocks| b.iter().map(|&(i, _)| i).collect::<Vec<_>>();
                    assert_eq!(bytes, *want_bytes, "{at}: cache bytes");
                    assert_eq!(
                        indices(&blocks),
                        indices(want_blocks),
                        "{at}: captured blocks"
                    );
                    assert!(blocks == *want_blocks, "{at}: block bytes");
                }
            }
        }
    }

    #[test]
    fn errors_on_unknown_entities() {
        let mut sq = small_system(1);
        assert!(matches!(
            sq.register(999),
            Err(SquirrelError::UnknownImage(999))
        ));
        sq.register(1).expect("first");
        assert!(matches!(
            sq.register(1),
            Err(SquirrelError::AlreadyRegistered(1))
        ));
        assert!(matches!(
            sq.deregister(0),
            Err(SquirrelError::NotRegistered(0))
        ));
        assert!(matches!(sq.boot(9, 0), Err(SquirrelError::NoSuchNode(9))));
        assert!(matches!(
            sq.node_offline(9),
            Err(SquirrelError::NoSuchNode(9))
        ));
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
        assert!(
            snap.counter("zpool_ingest_blocks_total{pool=\"scvol\"}")
                .unwrap()
                > 0
        );
        assert!(
            snap.counter("zpool_recv_streams_total{pool=\"ccvol\"}")
                .unwrap()
                >= 2
        );
        assert!(snap.counter_sum("net_tx_bytes_total") > 0);
        // Workflow events are journaled in order.
        let names: Vec<&str> = snap.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["register", "boot", "boot", "gc"]);
    }

    /// [`Squirrel::donors`] as filter-everything-then-sort: its oracle.
    fn donors_oracle(
        sq: &Squirrel,
        to: NodeId,
        candidates: Option<&BTreeSet<NodeId>>,
        proof: impl Fn(&ComputeNode) -> bool,
    ) -> Vec<NodeId> {
        let mut found: Vec<NodeId> = (0..sq.nodes.len() as NodeId)
            .filter(|&d| {
                let node = &sq.nodes[d as usize];
                candidates.is_none_or(|c| c.contains(&d))
                    && d != to
                    && node.online
                    && sq.net.is_reachable(d, to)
                    && proof(node)
            })
            .collect();
        let root = sq.config.storage_root();
        found.sort_by_key(|&d| (if to == root { 0 } else { d.abs_diff(to) }, d));
        found
    }

    #[test]
    fn donor_list_equals_the_scan_everything_oracle() {
        const NODES: u32 = 1000;
        let mut sq = system_with(NODES, |c| {
            c.distribution = DistributionPolicy::PeerAssisted;
            c.topology = TopologyConfig {
                regions: 1,
                dcs_per_region: 2,
                racks_per_dc: 4,
            };
        });
        let root = sq.config.storage_root();
        let targets: Vec<NodeId> = (0..NODES).collect();
        let healthy = sq.plan_fanout(&targets, 4096);
        assert!(healthy.unreachable.is_empty());
        assert_eq!(healthy.planned_receivers(), targets.len());
        sq.register(0).expect("register");
        let (mut far_picks, mut storage_picks) = (0, 0);
        for seed in 0..4u64 {
            let mut rng = SplitMix64::from_parts(&[seed, 0x50c3]);
            // Sleepers miss this round's registration. Half stay offline;
            // half are switched back on without a catch-up, so they are
            // online but behind the tip.
            let sleepers: Vec<NodeId> =
                (0..60).map(|_| rng.below(NODES.into()) as NodeId).collect();
            for &n in &sleepers {
                sq.node_offline(n).expect("offline");
            }
            sq.register(seed as ImageId + 1).expect("register");
            for &n in &sleepers[..30] {
                sq.nodes[n as usize].online = true;
            }
            let tip = sq.scvol.latest_snapshot().expect("tip").to_string();
            let (hermit, centre) = cut_links(&mut sq, &mut rng);
            // ...and whole racks down.
            for _ in 0..=seed % 3 {
                sq.network_mut().rack_down(rng.below(8) as u32);
            }
            let mut any = move || rng.below(NODES.into()) as NodeId;
            // Donors that fail the proofs: evicted copies, rotted records.
            for _ in 0..150 {
                let _ = sq.evict_cache(any(), 0).expect("evict");
                sq.corrupt_cc_block(any(), u64::from(any()));
            }
            // An ordered candidate set, like the planner's idle donors or
            // the fault path's delivered receivers.
            let set: BTreeSet<NodeId> = (0..300).map(|_| any()).collect();

            let probes: Vec<NodeId> = (0..30)
                .map(|_| any())
                .chain([hermit, centre - 5, centre, centre + 4, root])
                .collect();
            for &t in &probes {
                for candidates in [None, Some(&set)] {
                    for (what, donors, oracle) in [
                        (
                            "rejoin",
                            sq.donors(t, candidates, |p| p.mirrors(&tip)).collect(),
                            donors_oracle(&sq, t, candidates, |p| p.mirrors(&tip)),
                        ),
                        (
                            "rehoard",
                            sq.donors(t, candidates, |p| p.can_donate(0)).collect(),
                            donors_oracle(&sq, t, candidates, |p| p.can_donate(0)),
                        ),
                        (
                            "fan-out",
                            sq.donors(t, candidates, |_| true).collect::<Vec<_>>(),
                            donors_oracle(&sq, t, candidates, |_| true),
                        ),
                    ] {
                        let at = format!(
                            "seed {seed} {what} donors of {t}, set {}",
                            candidates.is_some()
                        );
                        assert_eq!(donors, oracle, "{at}");
                        if t != root {
                            far_picks +=
                                usize::from(donors.first().is_some_and(|p| p.abs_diff(t) > 50));
                            storage_picks += usize::from(donors.is_empty());
                        }
                    }
                }
            }
            let plan = sq.plan_fanout(&targets, 4096);
            assert_eq!(
                plan.planned_receivers() + plan.unreachable.len(),
                targets.len(),
                "seed {seed}"
            );
            assert!(plan.unreachable.contains(&hermit), "seed {seed}");
            // The workflow asks for the donor the oracle names.
            for t in probes {
                if t == hermit || t == root || !sq.node_is_online(t) {
                    continue;
                }
                let _ = sq.evict_cache(t, 0).expect("evict");
                let want = donors_oracle(&sq, t, None, |p| p.can_donate(0));
                match sq.rehoard_cache(t, 0) {
                    Ok(r) => assert_eq!(r.peer, want.first().copied(), "seed {seed} node {t}"),
                    Err(e) => assert!(want.is_empty(), "seed {seed} node {t}: {e}"),
                }
            }
            for rack in 0..8 {
                sq.network_mut().rack_up(rack);
            }
        }
        assert!(
            far_picks > 0 && storage_picks > 0,
            "{far_picks} far, {storage_picks} storage"
        );
    }

    /// Every volume is built from `SquirrelConfig::pool_config`: fixed
    /// records at the configured size and codec, forward dedup, the system's
    /// ingest threads. Only ccVolumes carry the hoard budget, also one that
    /// a full-replication rejoin rebuilt.
    #[test]
    fn every_volume_is_a_fixed_record_pool_of_the_configured_shape() {
        use squirrel_compress::Codec;
        use squirrel_zfs::DedupMode;
        let budget = HoardBudget {
            disk_bytes: 1 << 30,
            ddt_mem_bytes: 1 << 20,
        };
        let mut sq = system_with(3, |c| {
            c.codec = Codec::Lz4;
            c.threads = 2;
            c.hoard_budget = budget;
        });
        sq.node_offline(2).expect("offline");
        sq.register(0).expect("register");
        let outcome = sq.node_rejoin(2).expect("rejoin");
        assert!(
            matches!(outcome, RejoinOutcome::FullReplication { .. }),
            "{outcome:?}"
        );
        let shape = |pool: &ZPool| {
            let c = pool.config();
            assert_eq!(
                (c.block_size, c.codec, c.threads),
                (16 * 1024, Codec::Lz4, 2)
            );
            assert_eq!((c.cdc, c.dedup_mode), (None, DedupMode::Forward));
            (c.disk_quota_bytes, c.ddt_mem_quota_bytes)
        };
        assert_eq!(shape(&sq.scvol), (0, 0), "the scVolume has no budget");
        for (node, n) in sq.nodes.iter().enumerate() {
            let quotas = (budget.disk_bytes, budget.ddt_mem_bytes);
            assert_eq!(shape(&n.ccvol), quotas, "node {node}");
        }
    }
}
