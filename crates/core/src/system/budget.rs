//! Hoard budgets (paper §4.3 turned into a policy): the popularity signal,
//! whole-cache eviction, the enforcement pass, and the on-demand re-hoard
//! that makes partial hoarding a fallback rather than a failure.

#[cfg(doc)]
use super::SquirrelConfig;
use super::{BudgetReport, EvictReport, RehoardReport, SquirrelError};
use super::{ComputeNode, Squirrel};
#[cfg(doc)]
use crate::dist::DistributionPolicy;
use squirrel_cluster::NodeId;
use squirrel_dataset::ImageId;
use squirrel_zfs::{RecvError, WIRE_BLOCK_HEADER};

impl ComputeNode {
    /// Drop the eviction marks of caches a stream delivery restored: once
    /// the file is present again the node is simply hoarding it, and
    /// replication checks hold it to the full reference.
    pub(super) fn reconcile_evictions(&mut self) {
        let ccvol = &self.ccvol;
        self.evicted
            .retain(|&img| !ccvol.has_file(&Squirrel::cache_file_name(img)));
    }

    /// Would [`Self::reconcile_evictions`] drop a mark?
    pub(super) fn has_stale_marks(&self) -> bool {
        self.evicted
            .iter()
            .any(|&img| self.ccvol.has_file(&Squirrel::cache_file_name(img)))
    }
}

impl Squirrel {
    /// Count boots of `image` — the popularity signal
    /// [`Self::enforce_hoard_budgets`] ranks eviction candidates by. Called
    /// only from serial workflow code, so the counts (and the labeled
    /// counter) are deterministic at any thread count.
    pub(super) fn note_popularity(&mut self, image: ImageId, boots: u64) {
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
        let n = self.node_mut(node)?;
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
            ddt_mem_bytes_freed: before
                .ddt_memory_bytes
                .saturating_sub(after.ddt_memory_bytes),
            popularity,
        })
    }

    /// Drop eviction marks for caches a stream delivery restored, on every
    /// node: see [`ComputeNode::reconcile_evictions`].
    pub(super) fn reconcile_evictions(&mut self) {
        for node in &mut self.nodes {
            node.reconcile_evictions();
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
        self.obs.set_gauge(
            "squirrel_hoard_max_disk_bytes",
            self.config.hoard_budget.disk_bytes,
        );
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
        self.obs.add(
            "squirrel_budget_evictions_total",
            report.evictions.len() as u64,
        );
        self.obs
            .add("squirrel_budget_bytes_freed_total", report.disk_bytes_freed);
        span.field("evictions", report.evictions.len() as u64);
        span.field("nodes_over_budget", u64::from(report.nodes_over_budget));
        span.field("disk_bytes_freed", report.disk_bytes_freed);
        report
    }

    /// Pull an evicted (or never-delivered) cache back on demand — the
    /// paper's partial-hoarding fallback. Under
    /// [`DistributionPolicy::PeerAssisted`] the nearest warm peer holding
    /// an intact, unevicted copy serves the bytes; the scVolume serves them
    /// otherwise (and whenever no peer qualifies), once its copy is proved:
    /// a rotten record refuses the re-hoard with
    /// [`RecvError::CorruptPayload`] naming the file's first one, and the
    /// cache stays evicted until scrub-and-repair heals the scVolume.
    /// Replicas are bit-identical by construction (same keys, same frames:
    /// compression is deterministic), so the re-import lands the node in
    /// the same state regardless of donor. The transfer is charged to the
    /// network ledgers and `squirrel_dist_*` counters like every other hoard
    /// transfer.
    pub fn rehoard_cache(
        &mut self,
        node: NodeId,
        image: ImageId,
    ) -> Result<RehoardReport, SquirrelError> {
        let idx = node as usize;
        self.online_node(node)?;
        let name = Self::cache_file_name(image);
        if !self.scvol.has_file(&name) {
            return Err(SquirrelError::NotRegistered(image));
        }
        let mut span = self.obs.span("rehoard");
        span.field("node", node);
        span.field("image", image);
        let src = self.source_for(node, None, |p| p.can_donate(image));
        let peer = (src != self.config.storage_root()).then_some(src);
        let donor_pool = self.pool(src);
        let refs = donor_pool.block_refs(&name).expect("donor holds the file");
        // A peer donor proved its copy in `can_donate`; the scVolume's is
        // proved here, or a rotten record would become a permanent wrong
        // cache. Nothing moves and the node's pool is left as it was.
        if peer.is_none() && donor_pool.file_is_intact(&name) == Some(false) {
            let rotten = donor_pool.scrub().corrupt;
            let first = refs.iter().flatten().find(|r| rotten.contains(&r.key));
            if let Some(r) = first {
                return Err(SquirrelError::Recv(RecvError::CorruptPayload(r.key)));
            }
        }
        // Compressed frames + record headers, like repair transfers.
        let wire: u64 = refs
            .iter()
            .flatten()
            .map(|r| u64::from(r.psize) + WIRE_BLOCK_HEADER)
            .sum();
        let len = donor_pool.file_len(&name).expect("donor holds the file");
        // Block count from the file length, not `refs.len()`: for chunked
        // (CDC) files the refs are per *record*, not per block.
        let nblocks = len.div_ceil(self.config.block_size as u64);
        let blocks: Vec<Vec<u8>> = (0..nblocks)
            .map(|b| {
                donor_pool
                    .read_block(&name, b)
                    .expect("donor holds the file")
            })
            .collect();
        let secs = self
            .net
            .try_unicast(src, node, wire)
            .map_err(SquirrelError::Net)?;
        self.nodes[idx].ccvol.import_file(&name, &blocks, len);
        self.nodes[idx].evicted.remove(&image);
        self.obs.inc("squirrel_rehoard_total");
        self.obs.add("squirrel_rehoard_wire_bytes_total", wire);
        self.record_transfer(src, wire, secs);
        span.field("wire_bytes", wire);
        if let Some(peer) = peer {
            span.field("peer", peer);
        }
        Ok(RehoardReport {
            node,
            image,
            wire_bytes: wire,
            blocks: nblocks,
            peer,
        })
    }

    /// Whether `node`'s ccVolume currently holds `image`'s cache.
    pub fn has_cache(&self, node: NodeId, image: ImageId) -> bool {
        self.nodes
            .get(node as usize)
            .is_some_and(|n| n.ccvol.has_file(&Self::cache_file_name(image)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

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
    fn rehoard_is_priced_by_the_link_scope_it_crosses() {
        // Two racks, nodes alternating: the scVolume's node (id 2, rack 0)
        // shares a rack with compute node 0 but not with node 1.
        let mut sq = system_with(2, |c| {
            c.topology = TopologyConfig {
                regions: 1,
                dcs_per_region: 1,
                racks_per_dc: 2,
            };
        });
        sq.register(0).expect("register");
        let mut priced_ms = |node: NodeId| {
            let total = |sq: &Squirrel| {
                let snap = sq.metrics().snapshot();
                snap.histogram("squirrel_dist_transfer_seconds_ms")
                    .map_or(0, |h| h.sum)
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
        assert!(
            cross_rack > same_rack,
            "{cross_rack} vs {same_rack} ms for {wire} B"
        );
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
            let mut probe = system_on(Arc::new(Corpus::generate(cfg.clone())), 1, |_| {});
            probe.register(a).expect("probe a");
            let solo = probe.ccvol_stats(0).expect("node");
            probe.register(b).expect("probe b");
            let both = probe.ccvol_stats(0).expect("node");
            assert!(
                both.unique_blocks < 2 * solo.unique_blocks,
                "corpus drifted: caches {a} and {b} no longer dedup"
            );
        }

        let mut sq = system_on(Arc::new(Corpus::generate(cfg)), 2, |c| {
            c.hoard_budget = HoardBudget {
                disk_bytes: 1,
                ddt_mem_bytes: 1,
            };
        });
        sq.register(a).expect("register a");
        let evicted = sq.enforce_hoard_budgets();
        assert_eq!(evicted.evictions.len(), 2, "both nodes drop the cache");

        let r = sq.register(b).expect("register proceeds on the scVolume");
        assert_eq!(r.nodes_updated, 0, "purged nodes skip the diff");
        assert!(!sq.check_replication().is_consistent());

        // Each node's rejoin ships the diff, which its pool refuses, then
        // the full stream: both are charged to the storage tier.
        let tag = |image| {
            sq.registration_info(image)
                .expect("registered")
                .snapshot_tag
        };
        let (tag_a, tag_b) = (tag(a), tag(b));
        let wire = |base: Option<&str>| {
            let stream = sq.scvol.send_between(base, &tag_b).expect("stream");
            stream.wire_bytes()
        };
        let (diff, full) = (wire(Some(&tag_a)), wire(None));
        let storage_bytes = |sq: &Squirrel| {
            let snap = sq.metrics().snapshot();
            let dist = snap.counter("squirrel_dist_storage_bytes_total");
            (sq.network().storage_tx_total(), dist.unwrap_or(0))
        };
        let (tx0, dist0) = storage_bytes(&sq);
        let sync = sq.repair_replication();
        assert!(sync.all_repaired(), "{sync:?}");
        assert!(sq.check_replication().is_consistent());
        let (tx1, dist1) = storage_bytes(&sq);
        assert_eq!(tx1 - tx0, 2 * (diff + full));
        assert_eq!(dist1 - dist0, 2 * (diff + full));
        assert_eq!(sync.wire_bytes, 2 * full);
        let snap = sq.metrics().snapshot();
        let rejoins = |outcome: &str| {
            let series = format!("squirrel_rejoin_total{{outcome=\"{outcome}\"}}");
            snap.counter(&series).unwrap_or(0)
        };
        assert_eq!(rejoins("full-replication"), 2);
        assert_eq!(rejoins("incremental"), 0);
        // Full replication re-hoarded everything, marks included.
        assert!(sq.has_cache(0, a) && sq.has_cache(0, b));
        assert!(sq.boot(0, b).expect("boot").warm);
        // The budget pass then re-evicts deterministically.
        let again = sq.enforce_hoard_budgets();
        assert!(again.is_within_budget());
        assert!(!again.evictions.is_empty());
    }

    #[test]
    fn rehoard_refuses_a_rotten_scvolume_record() {
        let mut sq = small_system(3);
        sq.register(0).expect("register");
        let baseline = sq.verify_boot(0, 0).expect("verify");
        let key = sq.corrupt_sc_block(1).expect("rot");
        let _ = sq.evict_cache(0, 0).expect("evict");
        let tx = sq.network().storage_tx_total();
        assert_eq!(
            sq.rehoard_cache(0, 0),
            Err(SquirrelError::Recv(RecvError::CorruptPayload(key)))
        );
        // Nothing moved or was imported: the cache stays evicted and boots
        // degrade to shared storage, serving the right bytes.
        assert_eq!(sq.network().storage_tx_total(), tx);
        assert!(!sq.has_cache(0, 0));
        assert!(sq.boot(0, 0).expect("boot").degraded);
        sq.verify_boot(0, 0)
            .expect("degraded boot reads true bytes");
        assert_eq!(sq.scrub_and_repair_scvol().repaired, 1);
        let re = sq
            .rehoard_cache(0, 0)
            .expect("rehoard from the healed scVolume");
        assert_eq!(re.peer, None);
        assert_eq!(sq.verify_boot(0, 0), Ok(baseline));
    }

    #[test]
    fn rehoard_errors_match_the_workflow_contract() {
        let mut sq = small_system(2);
        sq.register(0).expect("register");
        assert!(matches!(
            sq.rehoard_cache(9, 0),
            Err(SquirrelError::NoSuchNode(9))
        ));
        assert!(matches!(
            sq.rehoard_cache(0, 5),
            Err(SquirrelError::NotRegistered(5))
        ));
        sq.node_offline(1).expect("offline");
        assert!(matches!(
            sq.rehoard_cache(1, 0),
            Err(SquirrelError::NodeOffline(1))
        ));
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
        let mut probe = small_system(1);
        probe.register(1).expect("register");
        let one_image = probe.ccvol_stats(0).expect("node").total_disk_bytes();
        probe.register(0).expect("register");
        let two_images = probe.ccvol_stats(0).expect("node").total_disk_bytes();

        // Room for image 1's cache alone, but not for both: registering
        // both forces the budget pass to pick exactly one victim.
        let mut sq = budgeted_system(
            1,
            HoardBudget {
                disk_bytes: (one_image + two_images) / 2,
                ddt_mem_bytes: 0,
            },
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
