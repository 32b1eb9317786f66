//! Distribution policies: how hoard bytes travel from the scVolume — or a
//! warm peer — to the compute nodes.
//!
//! The delivery sites do not share one executor:
//! - [`register`](crate::Squirrel::register) with no
//!   [`FaultPlan`](crate::FaultPlan) armed resolves the configured
//!   [`DistributionPolicy`] into a [`TransferPlan`] — a deterministic
//!   schedule of per-link legs and/or one group transfer — and charges the
//!   network ledger by that plan's shape.
//! - `register` with a fault plan armed never plans. It serves the
//!   receivers one by one, point to point, from the storage tier or (under
//!   [`PeerAssisted`](DistributionPolicy::PeerAssisted)) the nearest
//!   reachable receiver already served, drawing faults per attempt. Under
//!   faults, `Multicast` and `Pipeline` therefore deliver as serial unicast
//!   legs.
//! - [`rehoard_cache`](crate::Squirrel::rehoard_cache) and
//!   [`node_rejoin`](crate::Squirrel::node_rejoin) move bytes to one
//!   receiver. Its sender, like each lossy-path receiver's, is
//!   `Squirrel::source_for`: under `PeerAssisted` the first of the one
//!   donor list, `Squirrel::donors` (which the planner and block repair ask
//!   too), else the storage root, whose copy a re-hoard proves first.
//!
//! All of them record the same `squirrel_dist_*` counters. Folding the
//! register paths into one executor that walks the plan, faults included,
//! is ROADMAP item 2. Planning runs in serial orchestration code only, so
//! one configuration yields one plan at any thread count.

use squirrel_cluster::NodeId;

/// How registration diffs and cache restores are carried to compute nodes.
///
/// Configured with
/// [`SquirrelConfigBuilder::distribution`](crate::SquirrelConfigBuilder::distribution);
/// the default is [`Unicast`](DistributionPolicy::Unicast), the paper's
/// point-to-point baseline whose storage-tier uplink cost grows linearly
/// with fleet size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum DistributionPolicy {
    /// Point-to-point from the storage tier to every receiver, one after
    /// another: N receivers cost the storage uplink N payloads.
    #[default]
    Unicast,
    /// k-ary tree multicast: the storage tier transmits `fanout` copies,
    /// each receiver re-serves up to `fanout` downstream receivers. The
    /// storage uplink cost is `fanout` payloads regardless of fleet size.
    Multicast {
        /// Children per tree node; clamped to at least 1.
        fanout: u32,
    },
    /// LANTorrent-style chain through every receiver: the storage tier
    /// transmits exactly one payload and each receiver forwards while
    /// receiving.
    Pipeline,
    /// The nearest warm peer already holding the bytes serves them;
    /// delivered receivers immediately become donors (capacity doubles per
    /// round). The storage tier only seeds the first copy — and is the
    /// fallback whenever no peer qualifies.
    PeerAssisted,
}

impl DistributionPolicy {
    /// Stable identifier for metric labels and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            DistributionPolicy::Unicast => "unicast",
            DistributionPolicy::Multicast { .. } => "multicast",
            DistributionPolicy::Pipeline => "pipeline",
            DistributionPolicy::PeerAssisted => "peer-assisted",
        }
    }

    /// The standard comparison set swept by benches and docs: unicast,
    /// 8-ary tree multicast, pipeline, peer-assisted.
    pub fn standard_set() -> [DistributionPolicy; 4] {
        [
            DistributionPolicy::Unicast,
            DistributionPolicy::Multicast { fanout: 8 },
            DistributionPolicy::Pipeline,
            DistributionPolicy::PeerAssisted,
        ]
    }
}

/// One resolved point-to-point leg of a [`TransferPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferLeg {
    /// Serving node: the storage tier or a warm compute peer.
    pub src: NodeId,
    /// Receiving compute node.
    pub dst: NodeId,
    /// Parallel wave this leg rides in: legs sharing a round overlap in
    /// time, rounds serialize (a round's receivers can donate only in
    /// later rounds).
    pub round: u32,
    /// Whether `src` is a compute peer rather than the storage tier.
    pub from_peer: bool,
}

/// A deterministic delivery schedule for one payload, resolved from a
/// [`DistributionPolicy`] against the current cluster state (liveness,
/// partitions, warm copies).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct TransferPlan {
    /// The policy the plan was resolved from.
    pub policy: DistributionPolicy,
    /// The storage-tier source node.
    pub root: NodeId,
    /// Payload wire bytes each receiver must obtain.
    pub payload_bytes: u64,
    /// Point-to-point legs (unicast and peer-assisted shapes), in charge
    /// order. Empty when the payload rides a group shape instead.
    pub legs: Vec<TransferLeg>,
    /// Receivers carried by one group transfer (tree multicast or
    /// pipeline). Empty for leg-based shapes.
    pub group: Vec<NodeId>,
    /// Receivers with no usable source (cut off from the storage tier and
    /// from every qualified peer); they stay lagging and are caught up by
    /// the repair workflow.
    pub unreachable: Vec<NodeId>,
}

impl TransferPlan {
    pub(crate) fn new(policy: DistributionPolicy, root: NodeId, payload_bytes: u64) -> Self {
        TransferPlan {
            policy,
            root,
            payload_bytes,
            legs: Vec::new(),
            group: Vec::new(),
            unreachable: Vec::new(),
        }
    }

    /// Receivers the plan will attempt to serve (legs + group).
    pub fn planned_receivers(&self) -> usize {
        self.legs.len() + self.group.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(DistributionPolicy::Unicast.name(), "unicast");
        assert_eq!(
            DistributionPolicy::Multicast { fanout: 4 }.name(),
            "multicast"
        );
        assert_eq!(DistributionPolicy::Pipeline.name(), "pipeline");
        assert_eq!(DistributionPolicy::PeerAssisted.name(), "peer-assisted");
        assert_eq!(DistributionPolicy::default(), DistributionPolicy::Unicast);
        assert_eq!(DistributionPolicy::standard_set().len(), 4);
    }

    #[test]
    fn plan_starts_empty() {
        let plan = TransferPlan::new(DistributionPolicy::Unicast, 64, 1000);
        assert_eq!(plan.planned_receivers(), 0);
        assert!(plan.unreachable.is_empty());
        assert_eq!(plan.payload_bytes, 1000);
        assert_eq!(plan.root, 64);
    }
}
