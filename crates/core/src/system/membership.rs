//! Membership (paper §3.5): a node goes offline, sleeps through
//! registrations, and catches up on rejoin — incrementally while its base
//! snapshot is still in the window, by full replication otherwise — plus
//! the replication check that says who is lagging.

use super::{ComputeNode, Source, Squirrel};
use super::{NodeReplication, RejoinOutcome, ReplicationReport, SquirrelError};
#[cfg(doc)]
use crate::dist::DistributionPolicy;
use squirrel_cluster::NodeId;
use squirrel_zfs::{RecvError, ZPool};

impl Squirrel {
    /// Take a compute node offline (fail-stop).
    pub fn node_offline(&mut self, node: NodeId) -> Result<(), SquirrelError> {
        self.node_mut(node)?.online = false;
        Ok(())
    }

    /// Bring a node back (paper Section 3.5): ask for the diff between its
    /// latest local snapshot and the scVolume's latest; if the base is gone
    /// (offline longer than `n` days), replicate the whole scVolume. Under
    /// [`DistributionPolicy::PeerAssisted`] the stream's bytes are served
    /// by the nearest in-sync, scrub-clean peer — a node can rejoin even
    /// through a partitioned storage link — with the scVolume as fallback.
    pub fn node_rejoin(&mut self, node: NodeId) -> Result<RejoinOutcome, SquirrelError> {
        let idx = node as usize;
        self.node_mut(node)?.online = true;
        let mut span = self.obs.span("rejoin");
        span.field("node", node);

        let sc_latest = match self.scvol.latest_snapshot() {
            Some(t) => t.to_string(),
            None => {
                span.field("outcome", "up-to-date");
                return Ok(RejoinOutcome::UpToDate);
            }
        };
        let local_latest = self.nodes[idx]
            .ccvol
            .latest_snapshot()
            .map(|s| s.to_string());
        if local_latest.as_deref() == Some(sc_latest.as_str()) {
            span.field("outcome", "up-to-date");
            return Ok(RejoinOutcome::UpToDate);
        }

        let source = self
            .wants_peers()
            .then(|| self.donors(node, None, |p| p.mirrors(&sc_latest)).next())
            .flatten()
            .map_or(Source::Storage, Source::Peer);
        let src = self.source_id(source);
        if let Source::Peer(peer) = source {
            span.field("peer", peer);
        }
        // Wire bytes already charged by an incremental attempt that fell
        // through to full replication (the transfer happened, the apply
        // didn't).
        let mut charged = 0u64;
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
                    .map_err(SquirrelError::Net)?;
                charged += wire;
                // The transactional recv applies the catch-up stream
                // all-or-nothing.
                match self.nodes[idx].ccvol.recv(&stream) {
                    Ok(()) => {
                        // The stream mirrors the scVolume's tip, restoring
                        // any budget-evicted cache it could resolve — on
                        // this node only. Every other node's marks were
                        // reconciled by whatever last restored a file on
                        // it (a registration's delivery, a re-hoard, its own
                        // rejoin), so an all-node pass would change nothing.
                        self.nodes[idx].reconcile_evictions();
                        debug_assert!(
                            !self.nodes.iter().any(ComputeNode::has_stale_marks),
                            "a node held the mark of a cache it hoards"
                        );
                        self.obs.add_with(
                            "squirrel_rejoin_total",
                            &[("outcome", "incremental")],
                            1,
                        );
                        self.obs.add("squirrel_rejoin_wire_bytes_total", wire);
                        self.record_transfer(source, charged, secs);
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
            .map_err(SquirrelError::Net)?;
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
        self.obs.add_with(
            "squirrel_rejoin_total",
            &[("outcome", "full-replication")],
            1,
        );
        self.obs.add("squirrel_rejoin_wire_bytes_total", wire);
        self.record_transfer(source, charged, secs);
        span.field("outcome", "full-replication");
        span.field("wire_bytes", wire);
        Ok(RejoinOutcome::FullReplication { wire_bytes: wire })
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
                        !Self::image_of_cache_name(name).is_some_and(|img| n.evicted.contains(&img))
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
        ReplicationReport {
            reference_snapshot,
            nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;

    #[test]
    fn replication_report_names_lagging_nodes() {
        let mut sq = small_system(3);
        sq.register(0).expect("r0");
        sq.node_offline(2).expect("offline");
        sq.register(1).expect("r1");
        let report = sq.check_replication();
        assert!(
            report.is_consistent(),
            "offline lag is expected: {report:?}"
        );
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
    fn node_offline_twice_is_idempotent() {
        let mut sq = small_system(3);
        sq.register(0).expect("r0");
        sq.node_offline(1).expect("first offline");
        sq.node_offline(1).expect("second offline is a no-op");
        assert!(!sq.node_is_online(1));
        sq.register(1).expect("r1");
        assert_eq!(sq.ccvol_file_count(1), Some(1), "missed the diff");
        let outcome = sq.node_rejoin(1).expect("rejoin");
        assert!(
            matches!(outcome, RejoinOutcome::Incremental { .. }),
            "{outcome:?}"
        );
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
        assert!(
            matches!(outcome, RejoinOutcome::FullReplication { .. }),
            "{outcome:?}"
        );
        assert!(sq.check_replication().is_consistent());
        assert!(
            sq.boot(2, 3).expect("boot").warm,
            "rebuilt hoard serves warm"
        );
    }
}
