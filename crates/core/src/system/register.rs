//! Registration (paper §3.2) and its inverse (§3.4): first boot, snapshot,
//! the fan-out planner and the two delivery executors that carry the diff
//! to every online node; deregistration and snapshot garbage collection.

use super::{DeliveryStats, Registration, Squirrel};
use super::{GcReport, RegisterReport, SquirrelError};
use crate::dist::{DistributionPolicy, TransferLeg, TransferPlan};
#[cfg(doc)]
use squirrel_cluster::Network;
use squirrel_cluster::NodeId;
use squirrel_dataset::ImageId;
use squirrel_faults::{FaultPlan, TransferFault};
use squirrel_zfs::{RecvError, SendStream, ZPool};
use std::collections::{BTreeMap, BTreeSet};

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

impl Squirrel {
    /// Register an image (paper Section 3.2): first boot on a storage node
    /// behind a copy-on-read cache, store the cache into the scVolume,
    /// snapshot, and multicast the incremental diff to online nodes.
    pub fn register(&mut self, image: ImageId) -> Result<RegisterReport, SquirrelError> {
        self.known_image(image)?;
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
            ec.write(&mut self.net, self.config.storage_root(), &name, &payload)
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
            .simulate(image, &self.cold_backend(image))
            .total_seconds;

        self.registered.insert(
            image,
            Registration {
                snapshot_tag: tag.clone(),
                day: self.day,
            },
        );
        // A delivered stream mirrors the scVolume's tip, restoring any cache
        // the budget policy had evicted: clear the marks for restored files.
        self.reconcile_evictions();

        self.obs.inc("squirrel_register_total");
        self.obs.add("squirrel_register_wire_bytes_total", wire);
        self.obs
            .add("squirrel_register_cache_bytes_total", cache_bytes);
        let sc = self.scvol.stats();
        self.obs
            .set_gauge("squirrel_registered_images", self.registered.len() as u64);
        self.obs
            .set_gauge("squirrel_scvol_ddt_entries", sc.unique_blocks);
        self.obs
            .set_gauge("squirrel_scvol_disk_bytes", sc.total_disk_bytes());
        self.obs
            .set_gauge("squirrel_scvol_ddt_mem_bytes", sc.ddt_memory_bytes);
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
    /// Partitions are respected through [`Network::is_reachable`], and an
    /// offline target never donates. Only consulted from serial
    /// orchestration code, so one configuration yields one plan at any
    /// thread count.
    pub fn plan_fanout(&self, targets: &[NodeId], payload_bytes: u64) -> TransferPlan {
        let root = self.config.storage_root();
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
                        plan.legs.push(TransferLeg {
                            src: root,
                            dst: t,
                            round,
                            from_peer: false,
                        });
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
            // Donors not yet serving anyone this round.
            let mut idle = donors.clone();
            let mut root_used = false;
            let mut served: Vec<NodeId> = Vec::new();
            let mut waiting: Vec<NodeId> = Vec::new();
            for &t in &pending {
                // The nearest idle donor, else the storage tier for a
                // receiver no donor reaches (one per round).
                let src = self.donors(t, Some(&idle), |_| true).next().or_else(|| {
                    let seed = !root_used
                        && self.net.is_reachable(root, t)
                        && self.donors(t, Some(&donors), |_| true).next().is_none();
                    seed.then_some(root)
                });
                if let Some(src) = src {
                    idle.remove(&src);
                    root_used |= src == root;
                    plan.legs.push(TransferLeg {
                        src,
                        dst: t,
                        round,
                        from_peer: src != root,
                    });
                    served.push(t);
                } else if self.net.is_reachable(root, t)
                    || self.donors(t, Some(&donors), |_| true).next().is_some()
                    || targets
                        .iter()
                        .any(|&o| o != t && self.net.is_reachable(o, t))
                {
                    // The storage tier next round, a busy donor or a future
                    // one can still reach it.
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

    /// The fan-out behind [`Self::register`]: with no fault plan armed,
    /// [`Self::deliver_clean`] walks the policy's [`TransferPlan`]; with one
    /// armed, [`Self::deliver_with_faults`] serves the receivers one by one
    /// and never plans. Both prove the payload once and apply it with one
    /// `recv_verified` per receiver; the `squirrel_dist_*` counters are
    /// recorded from the ledgers.
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
                    self.net
                        .try_tree_multicast(plan.root, &plan.group, wire, fanout)
                }
                _ => self.net.try_pipeline(plan.root, &plan.group, wire),
            };
            match result {
                Ok(secs) => {
                    seconds += secs;
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
            if let Ok(secs) = self.net.try_unicast(leg.src, leg.dst, wire) {
                delivered.insert(leg.dst);
                if leg.from_peer {
                    peer_hits += 1;
                } else if plan.policy == DistributionPolicy::PeerAssisted {
                    peer_misses += 1;
                }
                let slot = round_secs.entry(leg.round).or_insert(0.0);
                *slot = slot.max(secs);
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
    /// ([`Self::repair_replication`]) catches them up. A copy that arrives
    /// unflipped is the stream sent, so it is applied as `stream` itself:
    /// the one proof lands on the scVolume's frames, which every receiver,
    /// every later full-replication rejoin and every storm then share. A
    /// flipped copy is refused by its frame digest, which a debug build
    /// checks on every flip.
    fn deliver_with_faults(
        &mut self,
        plan: &mut FaultPlan,
        stream: &SendStream,
        online: &[NodeId],
    ) -> DeliveryStats {
        #[cfg(test)]
        if tests::PER_COPY_REFERENCE.with(std::cell::Cell::get) {
            return self.deliver_with_faults_per_copy(plan, stream, online);
        }
        let storage_src = self.config.storage_root();
        let peer_policy = self.config.distribution == DistributionPolicy::PeerAssisted;
        let wire = stream.wire_bytes();
        let mut proof = None;
        let mut updated = 0u32;
        let mut secs = 0.0f64;
        let mut peer_hits = 0u64;
        let mut peer_misses = 0u64;
        let mut donors: BTreeSet<NodeId> = BTreeSet::new();
        for &node in online {
            let nearest = self.donors(node, Some(&donors), |_| true).next();
            let src = nearest.unwrap_or(storage_src);
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
                    Ok(t) => t,
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
                    if let Ok(t) = self.net.try_unicast(src, node, wire) {
                        secs += t;
                    }
                    self.obs.inc("squirrel_fault_net_duplicates_total");
                }
                // In-flight corruption: flip one bit of this node's copy. The
                // frame's magic and digest cover every bit, so it is refused.
                // The draw takes one word at any nonzero length.
                if let Some(bit) = plan.stream_corruption(wire as usize) {
                    self.obs.inc("squirrel_fault_stream_corruptions_total");
                    debug_assert!(
                        {
                            let mut bytes = stream.encode_framed();
                            let bit = bit % (8 * bytes.len() as u64);
                            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                            SendStream::decode_framed(&bytes).is_err()
                        },
                        "a flipped frame decoded"
                    );
                    continue;
                }
                let ccvol = &mut self.nodes[node as usize].ccvol;
                let verified = proof.get_or_insert_with(|| ccvol.verify(stream));
                if plan.crash_mid_recv() {
                    // Die before the apply phase: the pool is untouched and
                    // the retry starts clean.
                    self.obs.inc("squirrel_fault_recv_crashes_total");
                    continue;
                }
                // A refused proof (a rotted scVolume record) is reported by
                // each node's own full check, position errors first.
                let result = match verified {
                    Ok(v) => ccvol.recv_verified(v),
                    Err(_) => ccvol.recv(stream),
                };
                match classify_recv(result) {
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
                // Only the peer policy makes a delivered receiver a donor.
                if peer_policy {
                    if src == storage_src {
                        peer_misses += 1;
                    } else {
                        peer_hits += 1;
                    }
                    donors.insert(node);
                }
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

    /// [`Self::deliver_with_faults`] as first written — every attempt
    /// clones, flips, decodes and proves its own copy of the frame — kept as
    /// the reference the direct-apply executor must equal in everything but
    /// what the proofs count.
    #[cfg(test)]
    fn deliver_with_faults_per_copy(
        &mut self,
        plan: &mut FaultPlan,
        stream: &SendStream,
        online: &[NodeId],
    ) -> DeliveryStats {
        let storage_src = self.config.storage_root();
        let peer_policy = self.config.distribution == DistributionPolicy::PeerAssisted;
        let framed = stream.encode_framed();
        let wire = stream.wire_bytes();
        let (mut updated, mut secs, mut peer_hits, mut peer_misses) = (0u32, 0.0f64, 0u64, 0u64);
        let mut donors: BTreeSet<NodeId> = BTreeSet::new();
        for &node in online {
            let nearest = self.donors(node, Some(&donors), |_| true).next();
            let src = nearest.unwrap_or(storage_src);
            let mut delivered = false;
            for attempt in 0..=plan.max_retries() {
                if attempt > 0 {
                    plan.note_retry();
                    self.obs.inc("squirrel_fault_retries_total");
                    secs += plan.backoff_secs(attempt - 1);
                }
                let fault = plan.transfer_fault();
                if fault == TransferFault::Transient {
                    self.obs.inc("squirrel_fault_net_transients_total");
                    continue;
                }
                let t = match self.net.try_unicast(src, node, wire) {
                    Ok(t) => t,
                    Err(_) => {
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
                    if let Ok(t) = self.net.try_unicast(src, node, wire) {
                        secs += t;
                    }
                    self.obs.inc("squirrel_fault_net_duplicates_total");
                }
                let mut bytes = framed.clone();
                if let Some(bit) = plan.stream_corruption(bytes.len()) {
                    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                    self.obs.inc("squirrel_fault_stream_corruptions_total");
                }
                let decoded = match SendStream::decode_framed(&bytes) {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let ccvol = &mut self.nodes[node as usize].ccvol;
                if plan.crash_mid_recv() {
                    self.obs.inc("squirrel_fault_recv_crashes_total");
                    // The crashed copy was still proved: its meters count.
                    let _ = ccvol.verify(&decoded);
                    continue;
                }
                match classify_recv(ccvol.recv(&decoded)) {
                    RecvDisposition::Delivered => {
                        delivered = true;
                        updated += 1;
                        break;
                    }
                    RecvDisposition::Lagging => break,
                    RecvDisposition::Retryable(_) => continue,
                }
            }
            if delivered {
                // Only the peer policy makes a delivered receiver a donor.
                if peer_policy {
                    if src == storage_src {
                        peer_misses += 1;
                    } else {
                        peer_hits += 1;
                    }
                    donors.insert(node);
                }
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
        self.obs.add(
            "squirrel_gc_snapshots_total",
            u64::from(report.snapshots_collected),
        );
        self.obs
            .add("squirrel_gc_bytes_reclaimed_total", report.bytes_reclaimed);
        self.obs.set_gauge("squirrel_scvol_disk_bytes", after);
        span.field("snapshots_collected", u64::from(report.snapshots_collected));
        span.field("bytes_reclaimed", report.bytes_reclaimed);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use squirrel_faults::FaultConfig;
    use std::cell::Cell;

    thread_local! {
        /// Send this thread's lossy deliveries through
        /// [`Squirrel::deliver_with_faults_per_copy`].
        pub(super) static PER_COPY_REFERENCE: Cell<bool> = const { Cell::new(false) };
    }

    /// Under `seed`'s chaos plan, register images 0–2 on eight nodes, rot
    /// every scVolume record, register 3 with node 7 cut off (so it lags),
    /// then image 0 again, whose payload is now the rotten records:
    /// everything the registrations leave behind but the two series that
    /// count proofs, after the plan's tally.
    fn lossy_registrations(
        corpus: &Arc<Corpus>,
        seed: u64,
        policy: DistributionPolicy,
        per_copy: bool,
    ) -> (FaultReport, impl PartialEq + std::fmt::Debug) {
        PER_COPY_REFERENCE.with(|c| c.set(per_copy));
        let mut sq = system_on(Arc::clone(corpus), 8, |c| c.distribution = policy);
        sq.set_fault_plan(FaultPlan::new(seed, FaultConfig::chaos()));
        let mut reports: Vec<_> = (0..3)
            .map(|img| sq.register(img).expect("register"))
            .collect();
        for nth in 0..sq.scvol_stats().unique_blocks {
            sq.corrupt_sc_block(nth);
        }
        sq.deregister(0).expect("deregister");
        for other in (0..7).chain([sq.config().storage_root()]) {
            sq.network_mut().partition(7, other);
        }
        reports.push(sq.register(3).expect("register"));
        sq.network_mut().heal_all();
        reports.push(sq.register(0).expect("register again"));
        PER_COPY_REFERENCE.with(|c| c.set(false));
        assert!(reports[3].nodes_lagging >= 1, "node 7 misses image 3");
        assert_eq!(reports[4].nodes_updated, 0, "a rotten payload is refused");
        let mut snap = sq.metrics().snapshot();
        snap.counters.retain(|(name, _)| {
            !name.starts_with("zpool_recv_verified_bytes_total")
                && !name.starts_with("zpool_verify_hashed_bytes_total")
        });
        let net = (
            sq.network().storage_tx_total(),
            sq.network().compute_tx_total(),
        );
        let ccvols: Vec<_> = (0..8).map(|n| sq.ccvol_stats(n)).collect();
        let fault = sq.fault_report().expect("armed");
        (fault, (reports, net, sq.check_replication(), ccvols, snap))
    }

    #[test]
    fn decoding_each_distinct_copy_once_matches_the_per_copy_reference() {
        let corpus = corpus();
        let (mut flips, mut crashes) = (0, 0);
        for seed in 1..=16 {
            for policy in [
                DistributionPolicy::Unicast,
                DistributionPolicy::PeerAssisted,
            ] {
                let once = lossy_registrations(&corpus, seed, policy, false);
                let per_copy = lossy_registrations(&corpus, seed, policy, true);
                assert_eq!(once, per_copy, "seed {seed}, {policy:?}");
                flips += once.0.stream_corruptions;
                crashes += once.0.recv_crashes;
            }
        }
        // The sweep reaches the flipped-copy and crashed-recv branches.
        assert!(flips > 0 && crashes > 0, "{flips} flips, {crashes} crashes");
    }

    /// Under a chaos plan, three registrations reach nodes 0–2 while node 3
    /// sleeps past the GC window, then node 3 rejoins by full replication
    /// and a storm boots every image on all four. The receivers' copies took
    /// the scVolume's frames, so each unique block is proved once across
    /// both pools, the rejoined node holds the scVolume's own frames, and
    /// the storms decompress each record once, not once per set of frames.
    #[test]
    fn a_lossy_registration_proves_each_block_once_for_every_later_reader() {
        let mut sq = small_system(4);
        sq.set_fault_plan(FaultPlan::new(2014, FaultConfig::chaos()));
        sq.node_offline(3).expect("offline");
        for img in 0..3 {
            sq.advance_days(sq.config().gc_window_days + 1);
            sq.register(img).expect("register");
            let _ = sq.gc(); // ages node 3's base snapshot out
        }
        let rejoin = sq.node_rejoin(3).expect("rejoin");
        assert!(
            matches!(rejoin, RejoinOutcome::FullReplication { .. }),
            "{rejoin:?}"
        );
        let counter = |sq: &Squirrel, series: &str, pool: &str| {
            let name = format!("{series}{{pool=\"{pool}\"}}");
            sq.metrics().snapshot().counter(&name).unwrap_or(0)
        };
        let hashed = |sq: &Squirrel| {
            let series = "zpool_verify_hashed_bytes_total";
            counter(sq, series, "ccvol") + counter(sq, series, "scvol")
        };
        let bs = sq.config().block_size as u64;
        assert_eq!(
            hashed(&sq),
            sq.scvol_stats().unique_blocks * bs,
            "one proof per block"
        );

        for img in 0..3 {
            let name = Squirrel::cache_file_name(img);
            let mut records = 0;
            for b in sq.working_set_blocks(img) {
                let Some(Some(sc)) = sq.scvol.block_frame(&name, b) else {
                    continue; // a hole
                };
                records += 1;
                for n in &sq.nodes {
                    let frame = n.ccvol.block_frame(&name, b).flatten().expect("hoarded");
                    assert_eq!(frame.as_ptr(), sc.as_ptr(), "image {img}, block {b}");
                }
            }
            let decompressed =
                |sq: &Squirrel| counter(sq, "zpool_read_decompressed_bytes_total", "ccvol");
            let before = decompressed(&sq);
            assert_eq!(sq.boot_storm(img, 8).expect("storm").warm_vms, 8);
            assert_eq!(decompressed(&sq) - before, records * bs, "image {img}");
        }
        assert_eq!(
            hashed(&sq),
            sq.scvol_stats().unique_blocks * bs,
            "storms prove nothing"
        );
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

    /// The diffs registration really moves are a handful of records, the
    /// batch shape whose split the worker pool plans by work: one new
    /// record stays inline, two compress side by side, five or six also
    /// split the hashing. Whatever ran where, everything a registration
    /// leaves behind is the same.
    #[test]
    fn small_diffs_register_identically_at_any_thread_count() {
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            n_images: 16,
            ..CorpusConfig::azure(512, 2014)
        }));
        let run = |threads| {
            let mut sq = system_on(Arc::clone(&corpus), 8, |c| {
                c.block_size = 64 * 1024;
                c.threads = threads;
            });
            let registered: Vec<_> = (0..16)
                .map(|img| {
                    let report = sq.register(img).expect("register");
                    let stream = sq.scvol.send_latest().expect("tip");
                    let wire = squirrel_hash::ContentHash::of(&stream.encode()).to_hex();
                    (stream.payload_blocks(), report, sq.scvol_stats(), wire)
                })
                .collect();
            (registered, sq.metrics().snapshot())
        };
        let reference = run(1);
        let diffs: Vec<usize> = reference.0.iter().map(|r| r.0).collect();
        for shape in [1..=1, 2..=2, 5..=6] {
            assert!(
                diffs.iter().any(|d| shape.contains(d)),
                "no {shape:?}-record diff in {diffs:?}"
            );
        }
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
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
    fn scvol_grows_sublinearly_with_registrations() {
        // The scatter-hoarding feasibility claim: caches dedup heavily.
        // Use a corpus whose head images are all Ubuntu (the census head),
        // like the real catalog where one family dominates.
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            scale: 1024,
            ..CorpusConfig::test_corpus(16, 77)
        }));
        let mut sq = system_on(corpus, 1, |_| {});
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
    fn gc_reports_collected_snapshots_and_reclaimed_bytes() {
        let mut sq = small_system(2);
        sq.register(0).expect("r0");
        let noop = sq.gc();
        assert_eq!(
            noop,
            GcReport {
                snapshots_collected: 0,
                bytes_reclaimed: 0
            }
        );
        sq.advance_days(10);
        sq.register(1).expect("r1");
        sq.advance_days(10);
        sq.register(2).expect("r2");
        let report = sq.gc();
        assert_eq!(report.snapshots_collected, 2, "{report:?}");
    }

    #[test]
    fn register_under_total_loss_gives_up_then_repair_replication_recovers() {
        use squirrel_faults::{FaultConfig, FaultPlan};
        let mut sq = small_system(3);
        sq.register(0).expect("clean register");
        // Every delivery attempt drops; retries are exhausted immediately.
        let config = FaultConfig {
            drop_prob: 1.0,
            max_retries: 1,
            ..FaultConfig::default()
        };
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
            let mut sq = system_with(4, |c| c.threads = threads);
            sq.set_fault_plan(FaultPlan::new(seed, FaultConfig::chaos()));
            let r0 = sq.register(0).expect("r0");
            let r1 = sq.register(1).expect("r1");
            let fault = sq.clear_fault_plan().expect("armed").report();
            (
                (r0.nodes_updated, r1.nodes_updated),
                fault,
                sq.metrics().snapshot(),
            )
        };
        let reference = run(1, 21);
        for threads in [2, 8] {
            assert_eq!(run(threads, 21), reference, "threads={threads}");
        }
        assert_ne!(
            run(1, 22).1,
            reference.1,
            "different seed, different schedule"
        );
    }
}
