//! Booting (paper §3.3): one classification of a node's cache — warm,
//! degraded or cold — and one pair of backends behind every boot path:
//! [`Squirrel::boot`], [`Squirrel::boot_storm`], [`Squirrel::verify_boot`]
//! and registration's first boot.

use super::{ArcStats, BootOutcome, BootStormReport, BootVerification, SquirrelError};
use super::{ComputeNode, ImageDisk, Squirrel};
use crate::trace::paper_scale_trace;
use squirrel_bootsim::{Backend, BootReport, DedupVolumeParams};
use squirrel_cluster::NodeId;
use squirrel_dataset::ImageId;
use squirrel_hash::{par::cost, FnvHashMap};
use squirrel_qcow::{CorCache, VirtualDisk};
use squirrel_zfs::{SharedPayload, ZPool};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// What a node's ccVolume can do for a boot of one image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum CacheState {
    /// Hoarded and every record intact: serves the boot with zero network
    /// I/O.
    Warm,
    /// The node *should* be serving it but cannot: the cache is present
    /// with a rotted record, or the budget policy evicted it. The boot
    /// works, from shared storage.
    Degraded,
    /// Never delivered: the plain cold path.
    Cold,
}

/// Everything a simulated boot depends on, by value: the paper-scale
/// working set and the image id (which fix the trace) and every field of
/// the backend, floats by their bits. The device models in `Squirrel::sim`
/// never change after `new`.
pub(super) type SimKey = (u64, ImageId, [u64; 9]);

/// What a [`BootPlan`](squirrel_bootsim::BootPlan) depends on: the
/// paper-scale working set and the image id (the trace), the record size
/// and the ARC capacity.
pub(super) type PlanKey = (u64, ImageId, u64, usize);

/// Replays (and plans) [`Squirrel::simulate`] remembers before it starts
/// over. A key is an (image, pool state) pair and a fleet mints new ones all
/// day, so the map needs a bound; this one is far more than a storm or a
/// catalog on look-alike nodes uses, at ≈ 150 B a replay. A plan key is an
/// (image, geometry) pair: one per image in a fleet of one record size, at
/// 8 B per run of records touched alike (≈ 170 KB for 24 paper-scale
/// images).
pub(super) const SIM_MEMO_CAP: usize = 1024;

/// `backend` as bits: the variant, then its fields in declaration order.
/// Destructured without `..`, so a new field cannot be left out of the key.
fn backend_bits(backend: &Backend) -> [u64; 9] {
    match *backend {
        Backend::WarmCacheXfs => [0; 9],
        Backend::BaseImageXfs { image_bytes } => [1, image_bytes, 0, 0, 0, 0, 0, 0, 0],
        Backend::ColdCache {
            net_mbps,
            image_bytes,
        } => [2, net_mbps.to_bits(), image_bytes, 0, 0, 0, 0, 0, 0],
        Backend::DedupVolume(DedupVolumeParams {
            record_size,
            compressed_fraction,
            ddt_entries,
            pool_physical_bytes,
            shared_fraction,
            hot_fraction,
            decompress_ns_per_byte,
            decompressed_cache_records,
        }) => [
            3,
            record_size,
            compressed_fraction.to_bits(),
            ddt_entries,
            pool_physical_bytes,
            shared_fraction.to_bits(),
            hot_fraction.to_bits(),
            decompress_ns_per_byte.to_bits(),
            decompressed_cache_records as u64,
        ],
    }
}

impl ComputeNode {
    /// Trust, but verify: a hoarded cache only serves a boot if its stored
    /// records still hash to their keys. Silent corruption downgrades to
    /// the cold path — the shared volume is the safe fallback until
    /// scrub-and-repair heals the replica. A cache the budget policy
    /// evicted is degraded too: the boot works, from shared storage,
    /// exactly as the paper's partial hoarding promises.
    pub(super) fn cache_state(&self, image: ImageId) -> CacheState {
        match self.ccvol.file_is_intact(&Squirrel::cache_file_name(image)) {
            Some(true) => CacheState::Warm,
            Some(false) => CacheState::Degraded,
            None if self.evicted.contains(&image) => CacheState::Degraded,
            None => CacheState::Cold,
        }
    }
}

impl Squirrel {
    /// Paper-volume working-set bytes of `image` (scaled back up).
    pub(super) fn paper_ws_bytes(&self, image: ImageId) -> u64 {
        self.corpus.image(image).cache().bytes() * self.corpus.config().scale
    }

    /// Paper-volume virtual image size.
    fn paper_image_bytes(&self, image: ImageId) -> u64 {
        self.corpus.image(image).virtual_bytes() * self.corpus.config().scale
    }

    /// The simulated boot of `image` against `backend` — the one way a
    /// single boot, a storm and registration's first boot get their timing.
    /// [`BootSim::boot`] of the paper-scale trace is a pure function of the
    /// key, so each distinct key is replayed once. A cVolume replay prices
    /// the trace's [`BootPlan`](squirrel_bootsim::BootPlan), which depends
    /// only on the trace, the record size and the ARC capacity: the trace is
    /// synthesised and walked once per plan key, however many pool states
    /// price it. Nothing invalidates an entry: a register, eviction or
    /// repair that changes what a pool's backend looks like yields a
    /// different key. `squirrel_boot_sim_replays_total` counts the replay
    /// misses: what a fleet's boots cost follows its distinct keys.
    pub(super) fn simulate(&mut self, image: ImageId, backend: &Backend) -> BootReport {
        let ws_bytes = self.paper_ws_bytes(image);
        let key = (ws_bytes, image, backend_bits(backend));
        if let Some(report) = self.sim_memo.get(&key) {
            return *report;
        }
        self.obs.inc("squirrel_boot_sim_replays_total");
        let sim = self.sim;
        let trace = || paper_scale_trace(ws_bytes, image as u64);
        let report = match backend {
            Backend::DedupVolume(p) => {
                let plan_key = (ws_bytes, image, p.record_size, p.decompressed_cache_records);
                if self.plan_memo.len() >= SIM_MEMO_CAP && !self.plan_memo.contains_key(&plan_key) {
                    self.plan_memo.clear();
                }
                let plan = self.plan_memo.entry(plan_key).or_insert_with(|| {
                    sim.plan(&trace(), p.record_size, p.decompressed_cache_records)
                });
                sim.price(plan, p)
            }
            _ => sim.boot(&trace(), backend),
        };
        if self.sim_memo.len() >= SIM_MEMO_CAP {
            self.sim_memo.clear();
        }
        self.sim_memo.insert(key, report);
        report
    }

    /// Boot `image` on compute node `node` (paper Section 3.3): warm when
    /// the ccVolume holds the cache (zero network I/O), cold otherwise
    /// (CoW over the parallel file system).
    pub fn boot(&mut self, node: NodeId, image: ImageId) -> Result<BootOutcome, SquirrelError> {
        let n = self.online_node(node)?;
        self.known_image(image)?;
        let state = n.cache_state(image);
        let warm = state == CacheState::Warm;
        let (backend, net_bytes) = if warm {
            (
                self.warm_backend(&n.ccvol, &Self::cache_file_name(image)),
                0,
            )
        } else {
            // Cold path: the boot working set crosses the network from the
            // shared tier (charged at corpus scale in the ledger, simulated
            // at paper scale for timing). A node cut off from every replica
            // — or from k shards — cannot boot at all.
            (self.cold_backend(image), self.shared_read(node, image)?)
        };
        let report = self.simulate(image, &backend);
        // Popularity counts only boots that succeed: every fallible step is
        // behind us.
        self.note_popularity(image, 1);
        self.record_boot(node, image, warm, net_bytes);
        let degraded = state == CacheState::Degraded;
        if degraded {
            self.obs.inc("squirrel_boot_degraded_total");
        }
        Ok(BootOutcome {
            image,
            node,
            warm,
            degraded,
            net_bytes,
            report,
        })
    }

    /// Serve a cold boot's working set from the shared tier, charging the
    /// transfer to the network ledgers. Under erasure-coded storage the
    /// registered cache object serves from any k reachable shards
    /// (reconstructing through parity when a domain is down — tallied in
    /// `squirrel_ec_*`); otherwise, or for images never registered, the
    /// replicated gluster volume serves the raw bytes. Returns the bytes
    /// that crossed the network.
    fn shared_read(&mut self, node: NodeId, image: ImageId) -> Result<u64, SquirrelError> {
        if let Some(ec) = self.ec.as_ref() {
            let name = Self::cache_file_name(image);
            if ec.has_object(&name) {
                let r = ec
                    .try_read(&mut self.net, node, &name)
                    .map_err(SquirrelError::Ec)?;
                if r.degraded {
                    self.obs.inc("squirrel_ec_degraded_reads_total");
                    self.obs
                        .add("squirrel_ec_shards_reconstructed_total", r.reconstructed);
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
        let threshold = 1 + ccvol.snapshot_count() as u64;
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

    /// The backend of every boot the hoard cannot serve — cold, degraded,
    /// and registration's first boot: CoW over the parallel file system.
    pub(super) fn cold_backend(&self, image: ImageId) -> Backend {
        Backend::ColdCache {
            net_mbps: self.config.link.mbps(),
            image_bytes: self.paper_image_bytes(image),
        }
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
    /// round-robined over the online compute nodes; cold nodes pull the
    /// working set over the network first. Host work follows distinct data,
    /// not VMs: the warm nodes resolve their working sets once, on the
    /// `config.threads` workers (a stored frame their pools share is read
    /// once), and each distinct working set — warm nodes holding the same
    /// buffers, or the image bytes every cold VM reads — is hashed once for
    /// all the VMs that read it. Read bytes, read statistics and metric
    /// snapshots are bit-identical at any thread count (see
    /// [`BootStormReport::read_checksum`]).
    ///
    /// Errors: [`SquirrelError::UnknownImage`] for an unknown image;
    /// [`SquirrelError::NodeOffline`] (reported against node 0) when every
    /// compute node is offline.
    pub fn boot_storm(
        &mut self,
        image: ImageId,
        vms: u32,
    ) -> Result<BootStormReport, SquirrelError> {
        self.known_image(image)?;
        let online: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].online)
            .collect();
        if online.is_empty() {
            return Err(SquirrelError::NodeOffline(0));
        }
        let bs = self.config.block_size as u64;
        let name = Self::cache_file_name(image);
        let mut span = self.obs.span("boot_storm");
        span.field("image", image);
        span.field("vms", u64::from(vms));

        // VM i boots on the i-th online node, round-robin.
        let assignments: Vec<usize> = (0..vms as usize)
            .map(|i| online[i % online.len()])
            .collect();
        let mut by_node: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (vm, &node) in assignments.iter().enumerate() {
            by_node.entry(node).or_default().push(vm);
        }

        let blocks = self.working_set_blocks(image);

        // Classify each participating node once.
        let states: BTreeMap<usize, CacheState> = by_node
            .keys()
            .map(|&node| (node, self.nodes[node].cache_state(image)))
            .collect();

        // Cold nodes fetch the working set over the network up front
        // (serial: the network ledger is single-threaded state).
        let mut net_bytes = 0u64;
        let mut cold_vms = 0u32;
        let mut degraded_vms = 0u32;
        for &node in &assignments {
            if states[&node] != CacheState::Warm {
                net_bytes += self.shared_read(node as NodeId, image)?;
                cold_vms += 1;
                if states[&node] == CacheState::Degraded {
                    degraded_vms += 1;
                }
            }
        }
        let warm_vms = vms - cold_vms;

        // The warm nodes resolve their working sets on the workers: one
        // hole-aware read per distinct stored frame, the first (node, block)
        // that holds it, so nodes holding the same frames share one buffer
        // per record. Holes are read per (node, block).
        let warm_nodes: Vec<usize> = by_node
            .keys()
            .copied()
            .filter(|node| states[node] == CacheState::Warm)
            .collect();
        let nodes = &self.nodes;
        let mut reads: Vec<(usize, u64)> = Vec::new();
        let mut frame_slots: FnvHashMap<*const u8, usize> = FnvHashMap::default();
        let mut slot_of = Vec::with_capacity(warm_nodes.len() * blocks.len());
        for &node in &warm_nodes {
            for &b in &blocks {
                let mut read = || {
                    reads.push((node, b));
                    reads.len() - 1
                };
                slot_of.push(match nodes[node].ccvol.block_frame(&name, b) {
                    Some(Some(frame)) => *frame_slots.entry(frame.as_ptr()).or_insert_with(read),
                    _ => read(),
                });
            }
        }
        let resolved = self.workers.parallel_map(
            &reads,
            |_| bs * cost::INFLATE,
            |_, &(node, b)| nodes[node].ccvol.read_block_or_hole(&name, b),
        );

        // Serially, in node order: a hole is `None` (it is always the
        // all-zero record). Over a node's v VMs the reads an ARC would count
        // are arithmetic: a miss per distinct data buffer, a hit for every
        // other read of a data block.
        let mut working_sets: BTreeMap<usize, Vec<Option<SharedPayload>>> = BTreeMap::new();
        let mut arc = ArcStats::default();
        for (i, node) in warm_nodes.into_iter().enumerate() {
            let ws: Vec<Option<SharedPayload>> = slot_of[i * blocks.len()..(i + 1) * blocks.len()]
                .iter()
                .map(|&slot| resolved[slot].clone())
                .collect::<Option<_>>()
                .ok_or(SquirrelError::MissingCache {
                    node: node as NodeId,
                    image,
                })?;
            let data_blocks = ws.iter().flatten().count() as u64;
            let buffers: HashSet<*const [u8]> = ws.iter().flatten().map(Arc::as_ptr).collect();
            arc.misses += buffers.len() as u64;
            arc.hits += by_node[&node].len() as u64 * data_blocks - buffers.len() as u64;
            working_sets.insert(node, ws);
        }

        // One digest per distinct working set: warm nodes holding the same
        // buffers share a key (held immutable buffers at one address are one
        // set of bytes), and every cold VM reads the same image bytes (`None`).
        let mut keys = HashMap::new();
        let mut sources = Vec::new();
        let mut source_of = BTreeMap::new();
        for &node in by_node.keys() {
            let ws = working_sets.get(&node).map(Vec::as_slice);
            let key: Option<Vec<_>> =
                ws.map(|ws| ws.iter().map(|d| d.as_ref().map(Arc::as_ptr)).collect());
            let source = *keys.entry(key).or_insert_with(|| {
                sources.push(ws);
                sources.len() - 1
            });
            source_of.insert(node, source);
        }
        let corpus = &self.corpus;
        let zeros = vec![0u8; bs as usize];
        let ws_bytes = blocks.len() as u64 * bs;
        let digest_cost = |_: &_| ws_bytes * cost::HASH;
        let digests: Vec<(u64, String)> =
            self.workers.parallel_map(&sources, digest_cost, |_, ws| {
                let handle = corpus.image(image);
                let mut buf = vec![0u8; bs as usize];
                let mut digest = squirrel_hash::Sha256::new();
                let mut served = 0u64;
                for (i, &b) in blocks.iter().enumerate() {
                    let data: &[u8] = match ws {
                        Some(ws) => ws[i].as_deref().unwrap_or(&zeros),
                        None => {
                            handle.read_at(b * bs, &mut buf);
                            &buf
                        }
                    };
                    digest.update(data);
                    served += data.len() as u64;
                }
                (
                    served,
                    squirrel_hash::ContentHash(digest.finalize()).to_hex(),
                )
            });

        // Every VM gets its source's digest in VM order, so the checksum is
        // schedule-independent.
        let digested_bytes: u64 = digests.iter().map(|(n, _)| n).sum();
        let (mut bytes_served, mut concat) = (0u64, String::new());
        for node in &assignments {
            let (served, hex) = &digests[source_of[node]];
            bytes_served += served;
            concat.push_str(hex);
        }
        let read_checksum = squirrel_hash::ContentHash::of(concat.as_bytes()).to_hex();

        // Every fallible phase is behind us: only now do the storm's VMs
        // count toward the eviction signal. A storm that errored out above
        // (offline fleet, unreachable storage, missing cache) must not
        // inflate popularity for boots that never happened.
        self.note_popularity(image, u64::from(vms));

        // Timing: VMs sharing a node queue on that node's device, and every
        // VM replays the same trace — so a node costs one replay of its
        // backend (one per *distinct* backend across the storm: nodes whose
        // pools look alike share it) and a queueing adjustment.
        let mut boot_seconds = vec![0.0f64; vms as usize];
        for (&node, vm_ids) in &by_node {
            let backend = if working_sets.contains_key(&node) {
                self.warm_backend(&self.nodes[node].ccvol, &name)
            } else {
                self.cold_backend(image)
            };
            let solo = self.simulate(image, &backend);
            let queued = self.sim.boot_concurrent_same(solo, vm_ids.len());
            for (&vm, report) in vm_ids.iter().zip(&queued) {
                boot_seconds[vm] = report.total_seconds;
            }
        }

        // Serial post-phase: record the storm in deterministic VM order.
        for &s in &boot_seconds {
            self.obs.observe(
                "squirrel_boot_storm_seconds_ms",
                (s * 1000.0).round() as u64,
            );
        }
        self.obs
            .add("squirrel_boot_storm_boots_total", u64::from(vms));
        self.obs
            .add("squirrel_boot_storm_bytes_total", bytes_served);
        self.obs
            .add("squirrel_boot_storm_digested_bytes_total", digested_bytes);
        self.obs
            .add("squirrel_boot_storm_copies_avoided_total", arc.hits);
        self.obs
            .add("squirrel_boot_storm_net_bytes_total", net_bytes);
        if degraded_vms > 0 {
            self.obs
                .add("squirrel_boot_degraded_total", u64::from(degraded_vms));
        }
        span.field("warm_vms", u64::from(warm_vms));
        span.field("cold_vms", u64::from(cold_vms));
        span.field("bytes_served", bytes_served);
        span.field("read_checksum", read_checksum.as_str());

        Ok(BootStormReport {
            image,
            vms,
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

    /// Replay `image`'s boot trace on `node` through the *real* data path —
    /// a copy-on-read cache pre-populated from the node's ccVolume
    /// (decompressing actual pool records) over the image on the parallel
    /// FS — verifying every byte against the image's ground-truth content.
    ///
    /// A warm cache holds the whole captured working set, so it gives zero
    /// backing fetches; see [`BootVerification`]. Like [`Self::boot`], only
    /// a cache that passes the integrity check is trusted: a rotted or
    /// evicted one reads through the backing image instead. Bytes that
    /// still differ from the image are
    /// [`SquirrelError::BootDataMismatch`].
    pub fn verify_boot(
        &mut self,
        node: NodeId,
        image: ImageId,
    ) -> Result<BootVerification, SquirrelError> {
        let n = self.online_node(node)?;
        self.known_image(image)?;

        let bs = self.config.block_size;
        let mut chain = CorCache::new(
            ImageDisk {
                corpus: Arc::clone(&self.corpus),
                image,
            },
            bs,
        );
        chain.set_metrics(&self.obs);
        // Warm the CoR cache from the ccVolume's cache file, exercising the
        // full decompress path of the pool.
        let name = Self::cache_file_name(image);
        let trusted = n.cache_state(image) == CacheState::Warm;
        if let Some(len) = n.ccvol.file_len(&name).filter(|_| trusted) {
            let blocks = len.div_ceil(bs as u64);
            for b in 0..blocks {
                // The decompressed buffer moves into the CoR cache as a
                // shared payload: one decompression, zero copies. Holes (or
                // a cache mutated underneath us) simply aren't prewarmed —
                // the cache fetches them from the backing image.
                let Some(data) = n.ccvol.read_block_shared(&name, b) else {
                    continue;
                };
                chain.prepopulate_shared(b, data);
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
                return Err(SquirrelError::BootDataMismatch {
                    node,
                    image,
                    offset: op.offset,
                });
            }
            verified += op.len as u64;
        }
        Ok(BootVerification {
            bytes_verified: verified,
            backing_fetches: chain.fetch_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use proptest::prelude::*;
    use squirrel_bootsim::BootSim;
    use squirrel_hash::par::WorkerPool;

    fn bits(r: &BootReport) -> [u64; 7] {
        [
            r.total_seconds.to_bits(),
            r.io_seconds.to_bits(),
            r.disk_reads,
            r.disk_bytes,
            r.net_bytes,
            r.ddt_lookups,
            r.decompressed_bytes,
        ]
    }

    /// What a boot of `image` on `node` must report right now: the backend
    /// derived from the node's pool as it stands, and a replay of the
    /// paper-scale trace that remembers nothing.
    fn fresh_replay(sq: &Squirrel, node: usize, image: ImageId, vms: usize) -> Vec<BootReport> {
        let n = &sq.nodes[node];
        let backend = if n.cache_state(image) == CacheState::Warm {
            sq.warm_backend(&n.ccvol, &Squirrel::cache_file_name(image))
        } else {
            sq.cold_backend(image)
        };
        let trace = paper_scale_trace(sq.paper_ws_bytes(image), image as u64);
        BootSim::new().boot_concurrent_on(&vec![trace; vms], &backend, &WorkerPool::new(1))
    }

    /// What a storm of `vms` VMs of `image` must read right now, VM by VM
    /// and sharing nothing: a warm VM its node's working set through the
    /// `ZPool::read_block` oracle, a cold VM the image's bytes. Returns
    /// `(read_checksum, bytes_served)`.
    fn storm_reads(sq: &Squirrel, image: ImageId, vms: u32) -> (String, u64) {
        let online: Vec<&ComputeNode> = sq.nodes.iter().filter(|n| n.online).collect();
        let (bs, name) = (
            sq.config.block_size as u64,
            Squirrel::cache_file_name(image),
        );
        let (mut concat, mut served) = (String::new(), 0);
        for vm in 0..vms as usize {
            let node = online[vm % online.len()];
            let warm = node.cache_state(image) == CacheState::Warm;
            let mut digest = squirrel_hash::Sha256::new();
            for b in sq.working_set_blocks(image) {
                let data = if warm {
                    node.ccvol
                        .read_block(&name, b)
                        .expect("a warm node holds the cache")
                } else {
                    let mut buf = vec![0u8; bs as usize];
                    sq.corpus.image(image).read_at(b * bs, &mut buf);
                    buf
                };
                digest.update(&data);
                served += data.len() as u64;
            }
            concat.push_str(&squirrel_hash::ContentHash(digest.finalize()).to_hex());
        }
        (
            squirrel_hash::ContentHash::of(concat.as_bytes()).to_hex(),
            served,
        )
    }

    #[derive(Debug, Clone)]
    enum Op {
        Register(ImageId),
        Evict(NodeId, ImageId),
        Corrupt(NodeId, u64),
        Repair(NodeId),
        Offline(NodeId),
        Rejoin(NodeId),
        Boot(NodeId, ImageId),
        Storm(ImageId, u32),
    }

    const NODES: u32 = 3;
    const IMAGES: u32 = 4;

    fn op() -> impl Strategy<Value = Op> {
        let (node, image) = (0..NODES, 0..IMAGES);
        prop_oneof![
            2 => image.clone().prop_map(Op::Register),
            1 => (node.clone(), image.clone()).prop_map(|(n, i)| Op::Evict(n, i)),
            1 => (node.clone(), any::<u64>()).prop_map(|(n, nth)| Op::Corrupt(n, nth)),
            1 => node.clone().prop_map(Op::Repair),
            1 => node.clone().prop_map(Op::Offline),
            1 => node.clone().prop_map(Op::Rejoin),
            4 => (node, image.clone()).prop_map(|(n, i)| Op::Boot(n, i)),
            2 => (image, 1u32..8).prop_map(|(i, vms)| Op::Storm(i, vms)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Whatever happened to the pools in between, every boot and every
        /// storm VM reports exactly what an un-memoised, per-VM replay on
        /// the backend of that moment reports, and every storm reads what
        /// per-VM reads of that moment read.
        #[test]
        fn memoised_boots_match_fresh_replays(ops in proptest::collection::vec(op(), 1..24)) {
            let mut sq = small_system(NODES);
            for op in ops {
                match op {
                    Op::Register(i) => match sq.register(i) {
                        Ok(_) | Err(SquirrelError::AlreadyRegistered(_)) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("register: {e}"))),
                    },
                    Op::Evict(n, i) => {
                        let _ = sq.evict_cache(n, i);
                    }
                    Op::Corrupt(n, nth) => {
                        let _ = sq.corrupt_cc_block(n, nth);
                    }
                    Op::Repair(n) => {
                        let _ = sq.scrub_and_repair(n);
                    }
                    Op::Offline(n) => sq.node_offline(n).expect("valid node"),
                    Op::Rejoin(n) => {
                        sq.node_rejoin(n).expect("rejoin");
                    }
                    Op::Boot(n, i) => {
                        let expected = fresh_replay(&sq, n as usize, i, 1);
                        match sq.boot(n, i) {
                            Ok(out) => prop_assert_eq!(bits(&out.report), bits(&expected[0])),
                            Err(SquirrelError::NodeOffline(_)) => {}
                            Err(e) => return Err(TestCaseError::fail(format!("boot: {e}"))),
                        }
                    }
                    Op::Storm(i, vms) => {
                        let online: Vec<usize> =
                            (0..sq.nodes.len()).filter(|&n| sq.nodes[n].online).collect();
                        let mut expected = vec![0u64; vms as usize];
                        for (slot, &node) in online.iter().enumerate() {
                            let on_node = (slot..vms as usize).step_by(online.len());
                            let reports = fresh_replay(&sq, node, i, on_node.len());
                            for (vm, r) in on_node.zip(&reports) {
                                expected[vm] = r.total_seconds.to_bits();
                            }
                        }
                        let reads = (!online.is_empty()).then(|| storm_reads(&sq, i, vms));
                        match sq.boot_storm(i, vms) {
                            Ok(storm) => {
                                let bits: Vec<u64> =
                                    storm.boot_seconds.iter().map(|s| s.to_bits()).collect();
                                prop_assert_eq!(bits, expected);
                                let read = (storm.read_checksum, storm.bytes_served);
                                prop_assert_eq!(Some(read), reads);
                            }
                            Err(SquirrelError::NodeOffline(_)) => prop_assert!(online.is_empty()),
                            Err(e) => return Err(TestCaseError::fail(format!("storm: {e}"))),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_replay_memo_stays_correct_and_bounded_past_its_cap() {
        let mut sq = small_system(1);
        let trace = paper_scale_trace(sq.paper_ws_bytes(0), 0);
        let sim = BootSim::new();
        for n in 0..SIM_MEMO_CAP as u64 + 3 {
            // Every ARC capacity is a plan key of its own too.
            let backend = Backend::DedupVolume(DedupVolumeParams {
                decompressed_cache_records: n as usize + 1,
                ..DedupVolumeParams::new(64 << 10)
            });
            let expected = bits(&sim.boot(&trace, &backend));
            assert_eq!(bits(&sq.simulate(0, &backend)), expected, "miss {n}");
            assert_eq!(bits(&sq.simulate(0, &backend)), expected, "hit {n}");
            // Full at the cap, then emptied and refilled from one.
            assert_eq!(sq.sim_memo.len() as u64, n % SIM_MEMO_CAP as u64 + 1);
            assert_eq!(sq.plan_memo.len(), sq.sim_memo.len());
        }
        let replays = sq
            .metrics()
            .snapshot()
            .counter("squirrel_boot_sim_replays_total");
        assert_eq!(
            replays,
            Some(SIM_MEMO_CAP as u64 + 3),
            "one replay per miss"
        );
    }

    #[test]
    fn warm_replays_of_one_geometry_walk_the_trace_once() {
        let mut sq = small_system(1);
        let trace = paper_scale_trace(sq.paper_ws_bytes(0), 0);
        let sim = BootSim::new();
        let volume = |n: u64, cap: usize| {
            Backend::DedupVolume(DedupVolumeParams {
                ddt_entries: 1000 << n,
                shared_fraction: 0.2 * n as f64,
                decompressed_cache_records: cap,
                ..DedupVolumeParams::new(64 << 10)
            })
        };
        for n in 0..4 {
            let backend = volume(n, 2048);
            assert_eq!(
                bits(&sq.simulate(0, &backend)),
                bits(&sim.boot(&trace, &backend))
            );
        }
        assert_eq!(sq.plan_memo.len(), 1, "four pool states, one walk");
        // Another ARC capacity is another walk.
        let backend = volume(0, 16);
        assert_eq!(
            bits(&sq.simulate(0, &backend)),
            bits(&sim.boot(&trace, &backend))
        );
        assert_eq!(sq.plan_memo.len(), 2);
        let replays = sq
            .metrics()
            .snapshot()
            .counter("squirrel_boot_sim_replays_total");
        assert_eq!(replays, Some(5), "one replay per distinct backend");
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

    /// A warm storm serves a working-set block from the cache file's bytes
    /// at that offset: it reads the same bytes as a cold storm, which reads
    /// the image itself.
    #[test]
    fn a_warm_storm_reads_the_bytes_a_cold_storm_reads() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");
        let warm = sq.boot_storm(0, 2).expect("warm storm");
        assert_eq!(warm.warm_vms, 2);
        for node in 0..2 {
            assert!(sq.evict_cache(node, 0).expect("evict").was_cached);
        }
        let cold = sq.boot_storm(0, 2).expect("cold storm");
        assert_eq!(cold.cold_vms, 2);
        assert_eq!(warm.read_checksum, cold.read_checksum);
    }

    /// A warm replay reads only the captured working set, so it fetches
    /// nothing; a cold one fetches exactly the blocks registration captured.
    #[test]
    fn verify_boot_reads_exactly_the_captured_working_set() {
        for bs in [4 * 1024, 16 * 1024, 64 * 1024] {
            let mut sq = system_with(2, |c| c.block_size = bs);
            sq.register(0).expect("register");
            let warm = sq.verify_boot(1, 0).expect("warm verify");
            assert_eq!(warm.backing_fetches, 0, "bs={bs}: {warm:?}");
            assert!(sq.evict_cache(1, 0).expect("evict").was_cached);
            let cold = sq.verify_boot(1, 0).expect("cold verify");
            let captured = sq.materialize_cache(0).1.len() as u64;
            assert_eq!(cold.backing_fetches, captured, "bs={bs}: {cold:?}");
            assert_eq!(cold.bytes_verified, warm.bytes_verified, "bs={bs}");
        }
    }

    #[test]
    fn boot_storm_serves_warm_vms_zero_copy_and_deterministically() {
        let run = |threads: usize| {
            let mut sq = system_with(4, |c| c.threads = threads);
            sq.register(0).expect("register");
            let storm = sq.boot_storm(0, 8).expect("storm");
            assert_eq!((storm.vms, storm.warm_vms, storm.cold_vms), (8, 8, 0));
            assert_eq!(storm.net_bytes, 0, "warm storm moves nothing");
            assert!(storm.blocks_per_vm > 0);
            assert_eq!(storm.bytes_served, 8 * storm.blocks_per_vm * 16 * 1024);
            assert!(
                storm.arc.hits > 0,
                "storm must avoid copies: {:?}",
                storm.arc
            );
            let snap = sq.metrics().snapshot();
            assert_eq!(
                snap.counter("squirrel_boot_storm_copies_avoided_total"),
                Some(storm.arc.hits)
            );
            let bits: Vec<u64> = storm.boot_seconds.iter().map(|s| s.to_bits()).collect();
            (
                storm.read_checksum,
                storm.bytes_served,
                storm.arc,
                bits,
                snap,
            )
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    /// Three kinds of source on four nodes: nodes 0 and 1 hold the
    /// registered records, node 2 was evicted (cold), and node 3 holds other
    /// intact bytes under the cache's name (warm, but not the same working
    /// set). A working-set block is a hole on every warm node. Each distinct
    /// working set is hashed once — 0 and 1 share their frames, so three —
    /// and every VM reads what the per-VM reference reads.
    #[test]
    fn a_storm_digests_each_distinct_working_set_once() {
        let bs = 16 * 1024;
        for threads in [1, 2, 8] {
            let mut sq = system_with(4, |c| c.threads = threads);
            sq.register(0).expect("register");
            assert!(sq.evict_cache(2, 0).expect("evict").was_cached);
            let (name, blocks) = (Squirrel::cache_file_name(0), sq.working_set_blocks(0));
            let hole = vec![0u8; bs];
            for node in [0, 1] {
                sq.nodes[node].ccvol.write_block(&name, blocks[0], &hole);
            }
            let other: Vec<(u64, Vec<u8>)> = blocks
                .iter()
                .map(|&b| {
                    let mut data = sq.nodes[3].ccvol.read_block(&name, b).expect("cached");
                    data.iter_mut().for_each(|x| *x ^= 0x5a);
                    (b, if b == blocks[0] { hole.clone() } else { data })
                })
                .collect();
            sq.nodes[3].ccvol.import_blocks_parallel(&name, &other);
            let states: Vec<CacheState> = sq.nodes.iter().map(|n| n.cache_state(0)).collect();
            use CacheState::{Degraded, Warm};
            assert_eq!(states, [Warm, Warm, Degraded, Warm]);

            let reads = storm_reads(&sq, 0, 8);
            let storm = sq.boot_storm(0, 8).expect("storm");
            assert_eq!((storm.warm_vms, storm.cold_vms), (6, 2));
            let read = (storm.read_checksum, storm.bytes_served);
            assert_eq!(read, reads, "threads={threads}");
            let digested = sq
                .metrics()
                .snapshot()
                .counter("squirrel_boot_storm_digested_bytes_total");
            let per_set = storm.blocks_per_vm * bs as u64;
            assert_eq!(digested, Some(3 * per_set), "threads={threads}");
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
    fn degraded_boot_falls_back_to_shared_storage_until_repaired() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");
        let intact = sq.verify_boot(1, 0).expect("verify");
        let key = sq.corrupt_cc_block(1, 0).expect("victim block");
        sq.network_mut().reset_ledgers();

        let out = sq.boot(1, 0).expect("degraded boot");
        assert!(!out.warm && out.degraded, "{out:?}");
        assert!(out.net_bytes > 0, "degraded boot pulls from shared storage");
        let snap = sq.metrics().snapshot();
        assert_eq!(snap.counter("squirrel_boot_degraded_total"), Some(1));
        // The byte-checked replay distrusts the rotted cache the same way:
        // it reads through the backing image instead of serving rot.
        let rotted = sq
            .verify_boot(1, 0)
            .expect("a rotted cache degrades, it does not panic");
        assert_eq!(rotted.bytes_verified, intact.bytes_verified);
        assert!(
            rotted.backing_fetches > intact.backing_fetches,
            "{rotted:?} vs {intact:?}"
        );

        let repair = sq.scrub_and_repair(1).expect("repair");
        assert_eq!(
            (repair.corrupt_found, repair.repaired, repair.unrepaired),
            (1, 1, 0)
        );
        assert!(repair.is_healed());
        assert!(repair.refetch_bytes > 0, "repair is charged to the network");
        assert!(sq.scrub_node(1).expect("node").is_clean());
        let _ = key;

        let out = sq.boot(1, 0).expect("healed boot");
        assert!(out.warm && !out.degraded, "{out:?}");
        assert_eq!(sq.verify_boot(1, 0).expect("verify"), intact);
    }

    #[test]
    fn boot_storm_serves_corrupt_node_degraded() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");
        sq.corrupt_cc_block(1, 3).expect("corrupt");
        let storm = sq.boot_storm(0, 4).expect("storm");
        assert_eq!(
            (storm.warm_vms, storm.cold_vms, storm.degraded_vms),
            (2, 2, 2)
        );
        assert!(storm.net_bytes > 0);
    }

    #[test]
    fn errored_boot_leaves_popularity_unchanged() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");
        sq.boot(0, 0).expect("boot");
        assert_eq!(sq.image_popularity(0), 1);

        // Offline node: the boot fails before any work happens.
        sq.node_offline(1).expect("offline");
        assert!(matches!(sq.boot(1, 0), Err(SquirrelError::NodeOffline(1))));
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
        assert!(matches!(
            sq.boot_storm(99, 4),
            Err(SquirrelError::UnknownImage(99))
        ));
        assert_eq!(sq.image_popularity(99), 0);

        // Whole fleet offline: rejected before any VM boots.
        sq.node_offline(0).expect("offline");
        sq.node_offline(1).expect("offline");
        assert!(matches!(
            sq.boot_storm(0, 4),
            Err(SquirrelError::NodeOffline(0))
        ));
        assert_eq!(sq.image_popularity(0), 0, "failed storm must not count");

        // A storm that goes through counts every VM.
        sq.node_rejoin(0).expect("rejoin");
        sq.node_rejoin(1).expect("rejoin");
        let _ = sq.boot_storm(0, 4).expect("storm");
        assert_eq!(sq.image_popularity(0), 4);
    }

    #[test]
    fn three_boot_paths_share_one_classification() {
        use CacheState::{Cold, Degraded, Warm};
        let run = |threads: usize| {
            let mut sq = system_with(1, |c| c.threads = threads);
            for img in 0..3 {
                sq.register(img).expect("register");
            }
            // Image 0 stays hoarded and intact; image 1 gets one rotted
            // record (of a block no other cache shares); image 2 is
            // budget-evicted; image 3 was never delivered.
            let blocks = sq.ccvol_stats(0).expect("node").unique_blocks;
            let private_to_1 = (0..blocks).find(|&nth| {
                sq.corrupt_cc_block(0, nth).expect("victim block");
                let hit: Vec<ImageId> = (0..3)
                    .filter(|&i| sq.nodes[0].cache_state(i) == Degraded)
                    .collect();
                if hit != [1] {
                    assert!(sq.scrub_and_repair(0).expect("repair").is_healed());
                }
                hit == [1]
            });
            assert!(private_to_1.is_some(), "no record is private to image 1");
            assert!(sq.evict_cache(0, 2).expect("evict").was_cached);

            let mut outcomes = Vec::new();
            for (image, state) in [(0, Warm), (1, Degraded), (2, Degraded), (3, Cold)] {
                assert_eq!(sq.nodes[0].cache_state(image), state, "image {image}");
                let before = sq.image_popularity(image);
                let boot = sq.boot(0, image).expect("boot");
                let storm = sq.boot_storm(image, 1).expect("storm");
                let verify = sq.verify_boot(0, image).expect("verify");
                let warm = state == Warm;
                assert_eq!(
                    (boot.warm, storm.warm_vms),
                    (warm, u32::from(warm)),
                    "image {image}"
                );
                assert_eq!(boot.net_bytes == 0, warm, "image {image}: {boot:?}");
                assert_eq!(storm.net_bytes == 0, warm, "image {image}: {storm:?}");
                assert_eq!(
                    verify.backing_fetches == 0,
                    warm,
                    "image {image}: {verify:?}"
                );
                assert!(verify.bytes_verified > 0);
                let degraded = state == Degraded;
                assert_eq!(
                    (boot.degraded, storm.degraded_vms),
                    (degraded, u32::from(degraded)),
                    "image {image}"
                );
                assert_eq!(
                    storm.net_bytes, boot.net_bytes,
                    "image {image}: same shared read"
                );
                // Credited per boot that happened: one boot, one 1-VM storm;
                // the replay credits nothing.
                assert_eq!(sq.image_popularity(image), before + 2, "image {image}");
                outcomes.push((
                    boot.net_bytes,
                    boot.report.total_seconds.to_bits(),
                    storm.boot_seconds[0].to_bits(),
                    storm.read_checksum,
                    verify,
                ));
            }
            outcomes
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }
}
