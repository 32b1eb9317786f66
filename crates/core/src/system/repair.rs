//! Fault injection and self-healing: the corruption hooks, the one
//! block-repair loop behind both scrub-and-repair entry points, the
//! erasure-coded tier's repair, and the workflows built from them —
//! [`Squirrel::repair_sweep`], [`Squirrel::converge`] and the daily
//! [`Squirrel::fault_tick`].

use super::Squirrel;
use super::{
    Convergence, FaultTick, RejoinOutcome, RepairReport, RepairSweep, RotHit, SquirrelError,
    SyncRepairReport,
};
use squirrel_cluster::{EcRepairReport, ErasureCodedVolume, NodeId};
use squirrel_faults::{ChurnEvent, PartitionEvent};
#[cfg(doc)]
use squirrel_zfs::ZPool;
use squirrel_zfs::{BlockKey, ScrubReport, WIRE_BLOCK_HEADER};

impl Squirrel {
    /// Fault hook: rot the `nth` unique block (mod the pool's block count)
    /// of `node`'s ccVolume. Returns the corrupted key, or `None` for an
    /// unknown node or empty pool.
    pub fn corrupt_cc_block(&mut self, node: NodeId, nth: u64) -> Option<BlockKey> {
        self.node(node).ok()?;
        self.rot_block(node, nth)
    }

    /// Fault hook: rot the `nth` unique block of the scVolume itself.
    pub fn corrupt_sc_block(&mut self, nth: u64) -> Option<BlockKey> {
        self.rot_block(self.config.storage_root(), nth)
    }

    fn rot_block(&mut self, volume: NodeId, nth: u64) -> Option<BlockKey> {
        let key = self.pool_mut(volume).corrupt_nth_block(nth);
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
        self.node(node)?;
        Ok(self.repair_blocks(node))
    }

    /// Scrub the scVolume and heal every corrupt record from the first
    /// online compute node hoarding an intact copy — the scatter hoard
    /// itself is the redundancy. Donors serving a rotten copy are charged
    /// but rejected ([`ZPool::repair_block`] verifies before installing).
    pub fn scrub_and_repair_scvol(&mut self) -> RepairReport {
        self.repair_blocks(self.config.storage_root())
    }

    /// The one block-repair loop: scrub `target`'s pool, then for each
    /// corrupt record ask its donors in order for their stored copy — the
    /// scVolume for a ccVolume; for the scVolume, the donor list of the
    /// peers holding the record. Every copy that crosses the network is
    /// charged — the compressed frame plus the stream payload's per-record
    /// framing (16-byte key + 4-byte psize + 4-byte length) — and the first
    /// one `repair_block` accepts heals the record.
    fn repair_blocks(&mut self, target: NodeId) -> RepairReport {
        let mut span = self.obs.span("repair");
        let root = self.config.storage_root();
        let node = (target != root).then_some(target);
        match node {
            Some(node) => span.field("node", node),
            None => span.field("node", "scvol"),
        }
        // The list borrows `self` and each ask charges the network, so the
        // n-th ask walks it afresh: only a rejected copy leads to another.
        let nth_donor = |sq: &Self, key: BlockKey, nth: usize| match node {
            Some(_) => (nth == 0).then_some(root),
            None => sq
                .donors(root, None, |n| n.ccvol.payload_of(key).is_some())
                .nth(nth),
        };
        let scrub = self.pool(target).scrub();
        let mut report = RepairReport {
            node,
            blocks_checked: scrub.blocks_checked,
            corrupt_found: scrub.corrupt.len() as u64,
            repaired: 0,
            unrepaired: 0,
            refetch_bytes: 0,
        };
        for key in &scrub.corrupt {
            let (mut fixed, mut asked) = (false, 0);
            while let Some(donor) = nth_donor(self, *key, asked) {
                asked += 1;
                let Some((psize, frame)) = self.pool(donor).payload_of(*key) else {
                    continue;
                };
                let bytes = u64::from(psize) + WIRE_BLOCK_HEADER;
                if self.net.try_unicast(donor, target, bytes).is_err() {
                    continue;
                }
                report.refetch_bytes += bytes;
                if self.pool_mut(target).repair_block(*key, psize, &frame) {
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
        let coordinator = self.config.storage_root();
        let mut report = ec.scrub_and_repair(&mut self.net, coordinator);
        for name in std::mem::take(&mut report.unrepaired_objects) {
            let rewritten = Self::image_of_cache_name(&name)
                .filter(|&img| self.registered.contains_key(&img))
                .is_some_and(|img| {
                    let (_, blocks) = self.materialize_cache(img);
                    let payload = Self::ec_payload(&blocks);
                    ec.write(&mut self.net, coordinator, &name, &payload)
                        .is_ok()
                });
            if !rewritten {
                report.unrepaired_objects.push(name);
            }
        }
        self.obs.add(
            "squirrel_ec_shards_rematerialized_total",
            report.shards_rematerialized + report.shards_relocated,
        );
        self.obs
            .add("squirrel_ec_repair_bytes_total", report.repair_bytes);
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

    fn record_repair(&self, report: &RepairReport) {
        self.obs.inc("squirrel_repair_runs_total");
        self.obs
            .add("squirrel_repair_blocks_total", report.repaired);
        self.obs
            .add("squirrel_repair_unrepaired_total", report.unrepaired);
        self.obs
            .add("squirrel_repair_bytes_total", report.refetch_bytes);
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
        self.obs.add(
            "squirrel_repair_sync_nodes_total",
            u64::from(report.repaired),
        );
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
        let storage = self.config.storage_root();
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
        // An outage is counted when it changes the network: a domain with
        // no boundary links cuts nothing.
        let net = &mut self.net;
        let outage = match domain {
            Some(PartitionEvent::RackDown(rk)) => {
                (net.rack_down(rk) > 0).then_some("squirrel_domain_rack_downs_total")
            }
            Some(PartitionEvent::RackUp(rk)) => {
                let down = net.rack_is_down(rk);
                net.rack_up(rk);
                down.then_some("squirrel_domain_rack_ups_total")
            }
            Some(PartitionEvent::DatacenterDown(dc)) => {
                (net.datacenter_down(dc) > 0).then_some("squirrel_domain_dc_downs_total")
            }
            Some(PartitionEvent::DatacenterUp(dc)) => {
                let down = net.datacenter_is_down(dc);
                net.datacenter_up(dc);
                down.then_some("squirrel_domain_dc_ups_total")
            }
            _ => None,
        };
        if let Some(series) = outage {
            self.obs.inc(series);
        }
        let rot = rot.map(|(victim, nth)| {
            let key = match victim {
                Some(n) => self.corrupt_cc_block(n, nth),
                None => self.corrupt_sc_block(nth),
            };
            // Rot aimed at the shared tier also rots one erasure shard when
            // the tier is erasure-coded — same draw, so replicated runs are
            // untouched.
            let ec_shard = match (victim, self.ec.as_mut()) {
                (None, Some(ec)) => ec.corrupt_nth_shard(nth),
                _ => None,
            };
            if ec_shard.is_some() {
                self.obs.inc("squirrel_fault_ec_shard_corruptions_total");
            }
            RotHit {
                victim,
                block_hit: key.is_some(),
                ec_shard,
            }
        });
        Some(FaultTick {
            churn,
            rejoined,
            domain,
            rot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::WIRE_BLOCK_HEADER;

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
        assert!(sq.network_mut().rack_down(3) > 0);
        sq.network_mut().reset_ledgers();
        let boot = sq.boot(1, 0).expect("cold boot through rack loss");
        assert!(!boot.warm);
        // Gluster's bricks are the first four storage nodes; the rest hold
        // only erasure shards, so their uplinks show the EC tier served.
        let root = sq.config().storage_root();
        let shard_only = root + 4..root + sq.config().storage_nodes;
        let ec_tx: u64 = shard_only.map(|n| sq.network().ledger(n).tx_bytes).sum();
        assert!(ec_tx > 0, "the cold boot read no erasure shard");
        // The scrub pass re-homes the stranded shards onto surviving
        // racks, leaving the tier clean even while rack 3 is still dark.
        let rep = sq.repair_shared_storage().expect("ec repair report");
        assert!(rep.shards_relocated > 0, "no shard left rack 3: {rep:?}");
        assert!(rep.unrepaired_stripes == 0 && sq.shared_storage_clean());
        sq.network_mut().rack_up(3);
        assert!(sq.evict_cache(2, 0).expect("evict").was_cached);
        assert!(!sq.boot(2, 0).expect("boot after heal").warm);
        assert!(sq.shared_storage_clean());
    }

    #[test]
    fn scvol_heals_from_intact_ccvol_replicas() {
        let mut sq = small_system(3);
        sq.register(0).expect("register");
        sq.corrupt_sc_block(1).expect("corrupt");
        assert!(!sq.scrub_scvol().is_clean());
        let repair = sq.scrub_and_repair_scvol();
        assert_eq!(
            (repair.node, repair.repaired, repair.unrepaired),
            (None, 1, 0)
        );
        assert!(sq.scrub_scvol().is_clean());

        // The same key rotten on the scVolume and on node 0: node 0 is asked
        // first and its copy is charged but rejected, then node 1 heals it.
        let key = sq.corrupt_sc_block(2).expect("corrupt");
        assert!(sq.nodes[0].ccvol.inject_corruption(key));
        // A copy on the wire is its frame plus its record framing; the
        // rotten frame has its own size.
        let payload = |n: usize| sq.nodes[n].ccvol.payload_of(key).expect("held").0;
        let copy = |n: usize| u64::from(payload(n)) + WIRE_BLOCK_HEADER;
        let (rotten, intact) = (copy(0), copy(1));
        sq.network_mut().reset_ledgers();
        let repair = sq.scrub_and_repair_scvol();
        assert_eq!((repair.repaired, repair.unrepaired), (1, 0));
        assert_eq!(repair.refetch_bytes, rotten + intact);
        let tx = |n| sq.network().ledger(n).tx_bytes;
        assert_eq!((tx(0), tx(1), tx(2)), (rotten, intact, 0));
        assert!(sq.scrub_scvol().is_clean());
        assert!(!sq.scrub_node(0).expect("node 0").is_clean());
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
        assert!(
            !c.consistent_before,
            "node 0 missed a registration behind the cut"
        );
        assert_eq!(c.rejoin_failures, 0);
        assert!(c.converged && c.scrub_clean && c.within_budget, "{c:?}");
        assert_eq!(c.repair.blocks.repaired, 2, "{c:?}");
        assert!(sq.node_is_online(1) && sq.network().is_reachable(storage, 0));

        let again = sq.converge();
        assert!(again.consistent_before && again.converged && again.scrub_clean);
        assert_eq!(again.repair.blocks.repaired, 0);
        assert_eq!(
            again.repair.blocks.refetch_bytes + again.repair.sync.wire_bytes,
            0
        );
    }

    #[test]
    fn repair_errors_on_unknown_node_and_empty_pools() {
        let mut sq = small_system(2);
        assert!(matches!(
            sq.scrub_and_repair(9),
            Err(SquirrelError::NoSuchNode(9))
        ));
        assert_eq!(sq.corrupt_cc_block(9, 0), None);
        assert_eq!(sq.corrupt_cc_block(0, 0), None, "empty pool has no victim");
        assert_eq!(sq.corrupt_sc_block(0), None);
        let repair = sq.scrub_and_repair(0).expect("empty pool repair");
        assert_eq!(repair.corrupt_found, 0);
        assert!(repair.is_healed());
    }
}
