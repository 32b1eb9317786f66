//! Network model: nodes, links, and charged transfer shapes (unicast,
//! tree multicast, chain pipeline), with hierarchy-aware link costs
//! and whole-domain (rack / datacenter) outages when a [`Topology`] is
//! attached.

use crate::topology::{LinkScope, Topology, TopologyConfig};
use squirrel_obs::{Counter, Histogram, Metrics};

/// Node identifier within the cluster.
pub type NodeId = u32;

/// What a node does (affects which ledger a transfer is charged to).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRole {
    Compute,
    Storage,
}

/// Interconnect flavours available on DAS-4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkKind {
    /// Commodity 1 Gb/s Ethernet.
    GbE,
    /// QDR InfiniBand, ~32 Gb/s theoretical.
    QdrInfiniband,
}

impl LinkKind {
    /// Effective bandwidth in MB/s (payload, after protocol overhead).
    pub fn mbps(&self) -> f64 {
        match self {
            LinkKind::GbE => 112.0,
            LinkKind::QdrInfiniband => 3200.0,
        }
    }

    /// Stable identifier used as the `link` metric label.
    pub fn name(&self) -> &'static str {
        match self {
            LinkKind::GbE => "gbe",
            LinkKind::QdrInfiniband => "qdr-ib",
        }
    }
}

/// Store-and-forward latency per relay hop (pipeline chains and tree
/// multicast levels).
const HOP_LATENCY_S: f64 = 0.002;

/// Errors from the transfer APIs ([`Network::try_unicast`] and friends).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// A transfer was addressed to a node that already holds the payload:
    /// its own source or an earlier receiver of the same transfer.
    SelfTransfer { node: NodeId },
    /// A node id outside the cluster.
    UnknownNode { node: NodeId, nodes: usize },
    /// The link between the two nodes is partitioned (see
    /// [`Network::partition`]).
    Partitioned { src: NodeId, dst: NodeId },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::SelfTransfer { node } => write!(f, "node {node} already holds the payload"),
            NetError::UnknownNode { node, nodes } => {
                write!(f, "unknown node {node} (cluster has {nodes})")
            }
            NetError::Partitioned { src, dst } => {
                write!(f, "link {src}<->{dst} is partitioned")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Per-node byte counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficLedger {
    pub rx_bytes: u64,
    pub tx_bytes: u64,
}

/// Interned metric handles for the transfer paths.
struct NetMeters {
    tx_bytes: Counter,
    rx_bytes: Counter,
    unicasts: Counter,
    tree_multicasts: Counter,
    pipelines: Counter,
    multicast_fanout: Histogram,
    /// Delivered payload bytes by link scope, indexed by `LinkScope as
    /// usize` (`net_scope_bytes_total{scope=...}`).
    scope_bytes: [Counter; 4],
}

impl NetMeters {
    fn new(m: &Metrics) -> Self {
        NetMeters {
            tx_bytes: m.counter("net_tx_bytes_total"),
            rx_bytes: m.counter("net_rx_bytes_total"),
            unicasts: m.counter("net_unicast_total"),
            tree_multicasts: m.counter("net_tree_multicast_total"),
            pipelines: m.counter("net_pipeline_total"),
            multicast_fanout: m.histogram("net_multicast_fanout"),
            scope_bytes: LinkScope::ALL.map(|s| {
                m.with_label("scope", s.name())
                    .counter("net_scope_bytes_total")
            }),
        }
    }

    fn disabled() -> Self {
        Self::new(&Metrics::disabled())
    }
}

/// The cluster network: a flat switch with per-node ledgers, supporting
/// unicast, k-ary tree multicast and chain pipelining for cache
/// propagation.
pub struct Network {
    link: LinkKind,
    roles: Vec<NodeRole>,
    ledgers: Vec<TrafficLedger>,
    /// Cut links, stored as normalized `(min, max)` pairs. Partitions are
    /// symmetric: cutting `a<->b` blocks traffic in both directions.
    partitions: std::collections::BTreeSet<(NodeId, NodeId)>,
    /// Failure-domain hierarchy; [`TopologyConfig::flat`] for [`Self::new`].
    topology: Topology,
    /// Racks and datacenters taken down whole. A link is cut while one of
    /// its endpoints' domains is down and the other endpoint sits outside
    /// it (see [`Self::is_reachable`]); kept apart from node-level
    /// `partitions`, so a rack heal never heals an unrelated link-level cut.
    downed_racks: std::collections::BTreeSet<u32>,
    downed_dcs: std::collections::BTreeSet<u32>,
    /// Delivered payload bytes per [`LinkScope`]; cleared together with the
    /// ledgers so experiment phases report their traffic separately.
    scope_bytes: [u64; 4],
    meters: NetMeters,
}

impl Network {
    /// A cluster of `compute` compute nodes followed by `storage` storage
    /// nodes; node ids are assigned in that order. Flat topology: a single
    /// rack, every link intra-rack — the seed cost model exactly.
    pub fn new(link: LinkKind, compute: u32, storage: u32) -> Self {
        Self::with_topology(link, compute, storage, TopologyConfig::flat())
    }

    /// A cluster with a failure-domain hierarchy: node `i` (compute and
    /// storage alike) homes in global rack `i % racks`, and link costs
    /// scale with the highest boundary crossed (see
    /// [`LinkScope::cost_multiplier`]).
    pub fn with_topology(
        link: LinkKind,
        compute: u32,
        storage: u32,
        topology: TopologyConfig,
    ) -> Self {
        let mut roles = vec![NodeRole::Compute; compute as usize];
        roles.extend(std::iter::repeat_n(NodeRole::Storage, storage as usize));
        let n = roles.len();
        Network {
            link,
            roles,
            ledgers: vec![TrafficLedger::default(); n],
            partitions: std::collections::BTreeSet::new(),
            topology: Topology::new(topology, n),
            downed_racks: std::collections::BTreeSet::new(),
            downed_dcs: std::collections::BTreeSet::new(),
            scope_bytes: [0; 4],
            meters: NetMeters::disabled(),
        }
    }

    /// The failure-domain hierarchy this network was built over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The highest failure-domain boundary the `a<->b` link crosses.
    pub fn scope(&self, a: NodeId, b: NodeId) -> LinkScope {
        self.topology.scope(a, b)
    }

    /// Delivered payload bytes that crossed `scope` links since the last
    /// [`Self::reset_ledgers`].
    pub fn scope_bytes(&self, scope: LinkScope) -> u64 {
        self.scope_bytes[scope as usize]
    }

    /// Delivered payload bytes that crossed *any* failure-domain boundary
    /// (everything except intra-rack).
    pub fn cross_domain_bytes(&self) -> u64 {
        self.scope_bytes[1] + self.scope_bytes[2] + self.scope_bytes[3]
    }

    /// Attach observability: transfers record `net_*` counters and the
    /// multicast fan-out histogram. The handle gains a `link` label naming
    /// this network's interconnect.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.meters = NetMeters::new(&metrics.with_label("link", self.link.name()));
    }

    pub fn link(&self) -> LinkKind {
        self.link
    }

    pub fn node_count(&self) -> usize {
        self.roles.len()
    }

    pub fn role(&self, node: NodeId) -> NodeRole {
        self.roles[node as usize]
    }

    pub fn compute_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.roles.len() as u32).filter(|&n| self.roles[n as usize] == NodeRole::Compute)
    }

    pub fn storage_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.roles.len() as u32).filter(|&n| self.roles[n as usize] == NodeRole::Storage)
    }

    fn check_node(&self, node: NodeId) -> Result<(), NetError> {
        if (node as usize) < self.roles.len() {
            Ok(())
        } else {
            Err(NetError::UnknownNode {
                node,
                nodes: self.roles.len(),
            })
        }
    }

    fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        (a.min(b), a.max(b))
    }

    /// Cut the link between `a` and `b` (symmetric). Transfers crossing a
    /// cut link fail with [`NetError::Partitioned`] before any bytes are
    /// charged. Idempotent.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        if a != b && (a as usize) < self.roles.len() && (b as usize) < self.roles.len() {
            self.partitions.insert(Self::link_key(a, b));
        }
    }

    /// Restore the link between `a` and `b`. Idempotent.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitions.remove(&Self::link_key(a, b));
    }

    /// Restore every cut link: node-level partitions *and* whole-domain
    /// outages.
    pub fn heal_all(&mut self) {
        self.partitions.clear();
        self.downed_racks.clear();
        self.downed_dcs.clear();
    }

    /// Is the direct link between `a` and `b` currently up?
    pub fn is_reachable(&self, a: NodeId, b: NodeId) -> bool {
        a == b || !(self.partitions.contains(&Self::link_key(a, b)) || self.domain_cut(a, b))
    }

    /// Number of currently-cut node-level links (domain outages are not
    /// counted).
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Does a downed rack or datacenter cut the `a<->b` link? It does when
    /// the endpoints sit in different racks and either rack is down, or in
    /// different datacenters and either datacenter is down. Ids outside
    /// the cluster are never cut by a domain.
    fn domain_cut(&self, a: NodeId, b: NodeId) -> bool {
        if self.downed_racks.is_empty() && self.downed_dcs.is_empty() {
            return false;
        }
        let n = self.roles.len();
        if a as usize >= n || b as usize >= n {
            return false;
        }
        let (da, db) = (self.topology.domain(a), self.topology.domain(b));
        let down = |set: &std::collections::BTreeSet<u32>, x: u32, y: u32| {
            x != y && (set.contains(&x) || set.contains(&y))
        };
        down(&self.downed_racks, da.rack, db.rack)
            || down(&self.downed_dcs, da.datacenter, db.datacenter)
    }

    /// Take a whole rack off the network: every link crossing the rack
    /// boundary is cut (intra-rack links stay up — the top-of-rack switch
    /// is what failed). Returns the number of links crossing that boundary,
    /// `0` if the rack was already down. Node-level partitions are
    /// untouched and survive the matching [`Self::rack_up`].
    pub fn rack_down(&mut self, rack: u32) -> usize {
        if !self.downed_racks.insert(rack) {
            return 0;
        }
        let members = self.topology.nodes_in_rack(rack).len();
        members * (self.roles.len() - members)
    }

    /// Bring a downed rack back. Overlapping datacenter outages and
    /// node-level partitions keep their links cut. No-op if the rack is not
    /// down.
    pub fn rack_up(&mut self, rack: u32) {
        self.downed_racks.remove(&rack);
    }

    /// Is `rack` currently taken down by [`Self::rack_down`]?
    pub fn rack_is_down(&self, rack: u32) -> bool {
        self.downed_racks.contains(&rack)
    }

    /// Take a whole datacenter off the network (links *within* it stay up).
    /// Returns the number of links crossing its boundary, `0` if already
    /// down.
    pub fn datacenter_down(&mut self, dc: u32) -> usize {
        if !self.downed_dcs.insert(dc) {
            return 0;
        }
        let members = self.topology.nodes_in_datacenter(dc).len();
        members * (self.roles.len() - members)
    }

    /// Bring a downed datacenter back; the mirror of
    /// [`Self::datacenter_down`] with [`Self::rack_up`]'s layering rules.
    pub fn datacenter_up(&mut self, dc: u32) {
        self.downed_dcs.remove(&dc);
    }

    /// Is `dc` currently taken down by [`Self::datacenter_down`]?
    pub fn datacenter_is_down(&self, dc: u32) -> bool {
        self.downed_dcs.contains(&dc)
    }

    /// Validate every `(from, to)` edge of a transfer out of `src`, then
    /// charge each one full payload copy: both ledgers, the per-scope byte
    /// tallies and the byte counters. Fails before any byte is charged on
    /// the first edge into a node that already holds the payload (its own
    /// sender, `src` or an earlier receiver), that names an unknown node,
    /// or that crosses a cut link. Returns the slowest edge's seconds: one
    /// payload copy over that edge, scaled by the highest failure-domain
    /// boundary it crosses (intra-rack < cross-rack < cross-DC <
    /// cross-region).
    fn charge(
        &mut self,
        src: NodeId,
        edges: impl Iterator<Item = (NodeId, NodeId)> + Clone,
        bytes: u64,
    ) -> Result<f64, NetError> {
        let mut holders = std::collections::BTreeSet::from([src]);
        for (from, to) in edges.clone() {
            if to == from || !holders.insert(to) {
                return Err(NetError::SelfTransfer { node: to });
            }
            self.check_node(from)?;
            self.check_node(to)?;
            if !self.is_reachable(from, to) {
                return Err(NetError::Partitioned { src: from, dst: to });
            }
        }
        let unit_secs = bytes as f64 / (self.link.mbps() * 1e6);
        let mut slowest = 0.0f64;
        for (from, to) in edges {
            let scope = self.topology.scope(from, to);
            slowest = slowest.max(unit_secs * scope.cost_multiplier());
            self.ledgers[from as usize].tx_bytes += bytes;
            self.ledgers[to as usize].rx_bytes += bytes;
            self.scope_bytes[scope as usize] += bytes;
            self.meters.scope_bytes[scope as usize].add(bytes);
            self.meters.tx_bytes.add(bytes);
            self.meters.rx_bytes.add(bytes);
        }
        Ok(slowest)
    }

    /// Transfer `bytes` point-to-point from `src` to `dst`; returns the
    /// seconds it occupies the link.
    pub fn try_unicast(&mut self, src: NodeId, dst: NodeId, bytes: u64) -> Result<f64, NetError> {
        let seconds = self.charge(src, std::iter::once((src, dst)), bytes)?;
        self.meters.unicasts.inc();
        Ok(seconds)
    }

    /// Tree multicast: receivers (in order) form a complete `fanout`-ary
    /// tree rooted at `src` — `dsts[0..k]` are fed by `src`, and receiver
    /// `i >= k` is fed by `dsts[(i - k) / k]`. Each parent transmits one
    /// full copy per child, so transmit load moves off the source after the
    /// first level; levels serialize (a node forwards only after it holds
    /// the payload) and within a level each parent serves its children
    /// back-to-back. Fails atomically (see [`NetError`]); an empty receiver
    /// set moves and counts nothing.
    pub fn try_tree_multicast(
        &mut self,
        src: NodeId,
        dsts: &[NodeId],
        bytes: u64,
        fanout: u32,
    ) -> Result<f64, NetError> {
        if dsts.is_empty() {
            return Ok(0.0);
        }
        let k = fanout.max(1) as usize;
        let parent = |i: usize| if i < k { src } else { dsts[(i - k) / k] };
        let edges = dsts.iter().enumerate().map(|(i, &d)| (parent(i), d));
        // The payload time is the tree's slowest edge — levels serialize,
        // so one cross-domain edge gates the whole fan-out.
        let t1 = self.charge(src, edges, bytes)?;
        self.meters.tree_multicasts.inc();
        self.meters.multicast_fanout.observe(dsts.len() as u64);
        // Level l holds at most k^l receivers; its duration is one payload
        // time per child of the busiest parent, plus a hop latency.
        let mut seconds = 0.0;
        let mut remaining = dsts.len();
        let mut level_cap = k;
        while remaining > 0 {
            let level = remaining.min(level_cap);
            seconds += level.min(k) as f64 * t1 + HOP_LATENCY_S;
            remaining -= level;
            level_cap = level * k;
        }
        Ok(seconds)
    }

    /// LANTorrent-style pipelined transfer: the source sends once to the
    /// first receiver, each receiver forwards to the next while receiving.
    /// Every node transmits and receives at most one copy, and on a single
    /// switch the pipeline completes in roughly one transfer time plus a
    /// per-hop latency. Fails atomically if any hop is malformed or down;
    /// an empty receiver set moves and counts nothing.
    pub fn try_pipeline(
        &mut self,
        src: NodeId,
        dsts: &[NodeId],
        bytes: u64,
    ) -> Result<f64, NetError> {
        if dsts.is_empty() {
            return Ok(0.0);
        }
        let hops = std::iter::once(src)
            .chain(dsts.iter().copied())
            .zip(dsts.iter().copied());
        let slowest_hop = self.charge(src, hops, bytes)?;
        self.meters.pipelines.inc();
        // The chain drains at the speed of its slowest hop.
        Ok(slowest_hop + HOP_LATENCY_S * dsts.len() as f64)
    }

    pub fn ledger(&self, node: NodeId) -> TrafficLedger {
        self.ledgers[node as usize]
    }

    /// Sum of rx bytes over compute nodes — Figure 18's y-axis.
    pub fn compute_rx_total(&self) -> u64 {
        self.compute_nodes().map(|n| self.ledger(n).rx_bytes).sum()
    }

    /// Sum of tx bytes over compute nodes — bytes served peer-to-peer
    /// rather than by the storage tier.
    pub fn compute_tx_total(&self) -> u64 {
        self.compute_nodes().map(|n| self.ledger(n).tx_bytes).sum()
    }

    /// Sum of tx bytes over storage nodes — the storage-tier uplink load a
    /// distribution policy tries to minimise.
    pub fn storage_tx_total(&self) -> u64 {
        self.storage_nodes().map(|n| self.ledger(n).tx_bytes).sum()
    }

    /// Reset all ledgers and the per-scope byte tallies (between experiment
    /// phases: registration traffic versus boot-time traffic are reported
    /// separately). Metrics counters are cumulative and are not reset.
    pub fn reset_ledgers(&mut self) {
        self.ledgers.fill(TrafficLedger::default());
        self.scope_bytes = [0; 4];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Σ tx over every ledger, Σ rx over every ledger, Σ delivered bytes
    /// over every link scope.
    fn wire_totals(net: &Network) -> (u64, u64, u64) {
        let n = net.node_count() as NodeId;
        (
            (0..n).map(|i| net.ledger(i).tx_bytes).sum(),
            (0..n).map(|i| net.ledger(i).rx_bytes).sum(),
            LinkScope::ALL.iter().map(|&s| net.scope_bytes(s)).sum(),
        )
    }

    #[test]
    fn roles_assigned_in_order() {
        let net = Network::new(LinkKind::GbE, 3, 2);
        assert_eq!(net.node_count(), 5);
        assert_eq!(net.role(0), NodeRole::Compute);
        assert_eq!(net.role(3), NodeRole::Storage);
        assert_eq!(net.compute_nodes().count(), 3);
        assert_eq!(net.storage_nodes().count(), 2);
    }

    #[test]
    fn unicast_charges_both_ends() {
        let mut net = Network::new(LinkKind::GbE, 2, 1);
        let secs = net.try_unicast(2, 0, 112_000_000).unwrap();
        assert_eq!(net.ledger(2).tx_bytes, 112_000_000);
        assert_eq!(net.ledger(0).rx_bytes, 112_000_000);
        assert_eq!(net.ledger(1), TrafficLedger::default());
        assert!((secs - 1.0).abs() < 1e-9, "1 GbE moves 112 MB/s: {secs}");
        assert_eq!(wire_totals(&net), (112_000_000, 112_000_000, 112_000_000));
        assert_eq!(net.storage_tx_total(), 112_000_000);
        assert_eq!(net.compute_tx_total(), 0);
    }

    #[test]
    fn tree_multicast_moves_tx_off_the_source() {
        let mut net = Network::new(LinkKind::GbE, 6, 1);
        // fanout 2, receivers 0..6: src 6 feeds {0,1}; 0 feeds {2,3};
        // 1 feeds {4,5}.
        let secs = net
            .try_tree_multicast(6, &[0, 1, 2, 3, 4, 5], 1000, 2)
            .unwrap();
        assert_eq!(
            net.ledger(6).tx_bytes,
            2000,
            "source sends only fanout copies"
        );
        assert_eq!(net.ledger(0).tx_bytes, 2000);
        assert_eq!(net.ledger(1).tx_bytes, 2000);
        assert_eq!(net.ledger(2).tx_bytes, 0, "leaves only receive");
        for n in 0..6 {
            assert_eq!(net.ledger(n).rx_bytes, 1000, "every receiver gets one copy");
        }
        assert_eq!(wire_totals(&net), (6000, 6000, 6000), "six links charged");
        // Two full levels: 2 copies + hop each.
        let t1 = 1000.0 / (LinkKind::GbE.mbps() * 1e6);
        assert!((secs - (4.0 * t1 + 2.0 * HOP_LATENCY_S)).abs() < 1e-12);
        assert_eq!(net.storage_tx_total(), 2000);
        assert_eq!(net.compute_tx_total(), 4000);
    }

    #[test]
    fn tree_multicast_beats_serial_unicast_at_scale() {
        let bytes = 10_000_000u64;
        let n = 100u32;
        let mut tree = Network::new(LinkKind::GbE, n, 1);
        let dsts: Vec<NodeId> = (0..n).collect();
        let tree_secs = tree.try_tree_multicast(n, &dsts, bytes, 8).unwrap();
        let mut uni = Network::new(LinkKind::GbE, n, 1);
        let serial: f64 = dsts
            .iter()
            .map(|&d| uni.try_unicast(n, d, bytes).unwrap())
            .sum();
        assert!(
            tree_secs < serial / 2.0,
            "tree {tree_secs} vs serial {serial}"
        );
        // Identical receiver-side bytes, radically lower source load.
        assert_eq!(tree.compute_rx_total(), uni.compute_rx_total());
        assert!(tree.storage_tx_total() < uni.storage_tx_total());
    }

    #[test]
    fn tree_multicast_fails_atomically_and_clamps_fanout() {
        let mut net = Network::new(LinkKind::GbE, 4, 1);
        net.partition(0, 2);
        // fanout 2 over [0, 1, 2, 3]: src feeds {0, 1}, node 0 feeds
        // {2, 3}, so the cut 0<->2 edge kills the whole transfer.
        assert_eq!(
            net.try_tree_multicast(4, &[0, 1, 2, 3], 10, 2),
            Err(NetError::Partitioned { src: 0, dst: 2 })
        );
        assert_eq!(net.compute_rx_total(), 0, "atomic failure charges nothing");
        assert_eq!(net.ledger(4), TrafficLedger::default());
        // fanout 0 clamps to 1 (a chain) rather than dividing by zero.
        net.try_tree_multicast(4, &[1, 3], 10, 0).unwrap();
        assert_eq!(wire_totals(&net), (20, 20, 20), "two links charged");
        assert_eq!(net.ledger(1).tx_bytes, 10, "chain relay");
        // Empty receiver set is a no-op.
        assert_eq!(net.try_tree_multicast(4, &[], 10, 4), Ok(0.0));
        assert_eq!(wire_totals(&net), (20, 20, 20));
        // A receiver equal to the source is malformed.
        assert_eq!(
            net.try_tree_multicast(4, &[0, 4], 10, 4),
            Err(NetError::SelfTransfer { node: 4 })
        );
    }

    #[test]
    fn pipeline_spreads_tx_load() {
        let mut net = Network::new(LinkKind::GbE, 4, 1);
        let secs = net.try_pipeline(4, &[0, 1, 2, 3], 1_000_000).unwrap();
        // Source transmits once; each intermediate node relays once.
        assert_eq!(net.ledger(4).tx_bytes, 1_000_000);
        assert_eq!(net.ledger(0).tx_bytes, 1_000_000);
        assert_eq!(net.ledger(3).tx_bytes, 0, "last hop only receives");
        for n in 0..4 {
            assert_eq!(net.ledger(n).rx_bytes, 1_000_000);
        }
        // Completes in about one transfer time, not n transfer times.
        let single = 1_000_000.0 / (LinkKind::GbE.mbps() * 1e6);
        assert!(secs < 2.0 * single + 0.1, "{secs} vs {single}");
        assert_eq!(wire_totals(&net), (4_000_000, 4_000_000, 4_000_000));
    }

    #[test]
    fn pipeline_empty_is_noop() {
        let mut net = Network::new(LinkKind::GbE, 1, 1);
        assert_eq!(net.try_pipeline(1, &[], 100), Ok(0.0));
        assert_eq!(wire_totals(&net), (0, 0, 0));
    }

    #[test]
    fn infiniband_is_faster() {
        let mut gbe = Network::new(LinkKind::GbE, 1, 1);
        let mut ib = Network::new(LinkKind::QdrInfiniband, 1, 1);
        let fast = ib.try_unicast(1, 0, 1 << 30).unwrap();
        let slow = gbe.try_unicast(1, 0, 1 << 30).unwrap();
        assert!(fast < slow);
    }

    #[test]
    fn reset_clears_ledgers() {
        let mut net = Network::new(LinkKind::GbE, 1, 1);
        net.try_unicast(1, 0, 5).unwrap();
        net.reset_ledgers();
        assert_eq!(net.compute_rx_total(), 0);
    }

    #[test]
    fn try_variants_report_errors_instead_of_panicking() {
        let mut net = Network::new(LinkKind::GbE, 2, 1);
        assert_eq!(
            net.try_unicast(0, 0, 1),
            Err(NetError::SelfTransfer { node: 0 })
        );
        assert_eq!(
            net.try_unicast(0, 9, 1),
            Err(NetError::UnknownNode { node: 9, nodes: 3 })
        );
        assert_eq!(
            net.try_pipeline(2, &[0, 0], 1),
            Err(NetError::SelfTransfer { node: 0 })
        );
        // Failed transfers must not touch the ledgers.
        assert_eq!(wire_totals(&net), (0, 0, 0));
        assert_eq!(net.compute_rx_total(), 0);
        assert_eq!(net.ledger(2), TrafficLedger::default());
        // A chain leading back into its source is refused like a tree
        // receiver equal to the source, and charges nothing.
        let mut four = Network::new(LinkKind::GbE, 4, 1);
        assert_eq!(
            four.try_pipeline(4, &[0, 4], 10),
            Err(NetError::SelfTransfer { node: 4 })
        );
        assert_eq!(wire_totals(&four), (0, 0, 0));
        // A receiver listed twice would be charged twice: refused the same
        // way, on its second listing, before any byte moves.
        assert_eq!(
            four.try_pipeline(4, &[0, 1, 0], 10),
            Err(NetError::SelfTransfer { node: 0 })
        );
        assert_eq!(
            four.try_tree_multicast(4, &[1, 1], 10, 4),
            Err(NetError::SelfTransfer { node: 1 })
        );
        assert_eq!(wire_totals(&four), (0, 0, 0));
        // Errors render through Display and implement Error.
        let e: Box<dyn std::error::Error> = Box::new(NetError::SelfTransfer { node: 7 });
        assert_eq!(e.to_string(), "node 7 already holds the payload");
    }

    #[test]
    fn partition_blocks_transfers_without_charging() {
        let mut net = Network::new(LinkKind::GbE, 3, 1);
        net.partition(3, 1);
        assert!(!net.is_reachable(1, 3), "symmetric cut");
        assert_eq!(net.partition_count(), 1);
        assert_eq!(
            net.try_unicast(3, 1, 1000),
            Err(NetError::Partitioned { src: 3, dst: 1 })
        );
        // A tree with one unreachable receiver fails atomically.
        assert_eq!(
            net.try_tree_multicast(3, &[0, 1, 2], 1000, 4),
            Err(NetError::Partitioned { src: 3, dst: 1 })
        );
        // Pipeline checks hop-by-hop links: the chain 0 -> 1 -> 3 dies on
        // the cut 1<->3 hop, while 3 -> 0 -> 1 routes around it.
        assert_eq!(
            net.try_pipeline(0, &[1, 3], 1000),
            Err(NetError::Partitioned { src: 1, dst: 3 })
        );
        // None of the failures above charged a ledger.
        assert_eq!(net.compute_rx_total(), 0);
        assert_eq!(net.ledger(3), TrafficLedger::default());
        assert!(net.try_pipeline(3, &[0, 1], 1000).is_ok());
        // Unaffected links still work.
        assert!(net.try_unicast(3, 0, 10).is_ok());
        // Heal restores the link; heal_all clears everything.
        net.heal(1, 3);
        assert!(net.is_reachable(3, 1));
        assert!(net.try_unicast(3, 1, 10).is_ok());
        net.partition(3, 0);
        net.partition(3, 2);
        net.heal_all();
        assert_eq!(net.partition_count(), 0);
        // Partition of bogus or self links is a no-op.
        net.partition(0, 0);
        net.partition(0, 99);
        assert_eq!(net.partition_count(), 0);
        let e: Box<dyn std::error::Error> = Box::new(NetError::Partitioned { src: 3, dst: 1 });
        assert_eq!(e.to_string(), "link 3<->1 is partitioned");
    }

    fn racked(compute: u32, storage: u32, racks: u32) -> Network {
        Network::with_topology(
            LinkKind::GbE,
            compute,
            storage,
            TopologyConfig {
                regions: 1,
                dcs_per_region: 1,
                racks_per_dc: racks,
            },
        )
    }

    /// Links between distinct nodes that are currently down.
    fn cut_links(net: &Network) -> usize {
        let n = net.node_count() as NodeId;
        (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|&(a, b)| !net.is_reachable(a, b))
            .count()
    }

    #[test]
    fn cross_rack_links_cost_more() {
        // 2 racks over 4 nodes: rack 0 = {0, 2}, rack 1 = {1, 3}.
        let mut net = racked(2, 2, 2);
        let bytes = 112_000_000u64;
        let intra = net.try_unicast(2, 0, bytes).unwrap();
        let cross = net.try_unicast(2, 1, bytes).unwrap();
        assert!(
            (intra - 1.0).abs() < 1e-9,
            "intra-rack keeps the flat cost: {intra}"
        );
        assert!(
            (cross - 2.0).abs() < 1e-9,
            "cross-rack pays the multiplier: {cross}"
        );
        assert_eq!(net.scope(2, 0), LinkScope::IntraRack);
        assert_eq!(net.scope(2, 1), LinkScope::CrossRack);
        assert_eq!(net.scope_bytes(LinkScope::IntraRack), bytes);
        assert_eq!(net.scope_bytes(LinkScope::CrossRack), bytes);
        assert_eq!(net.cross_domain_bytes(), bytes);
        net.reset_ledgers();
        assert_eq!(net.cross_domain_bytes(), 0);
    }

    #[test]
    fn flat_topology_has_no_cross_domain_traffic() {
        let mut net = Network::new(LinkKind::GbE, 2, 1);
        net.try_unicast(2, 0, 1000).unwrap();
        assert_eq!(net.scope_bytes(LinkScope::IntraRack), 1000);
        assert_eq!(net.cross_domain_bytes(), 0);
        // Rack 0 down in a flat topology cuts nothing: there is no boundary.
        assert_eq!(net.rack_down(0), 0, "no boundary links exist");
        assert!(net.try_unicast(2, 1, 10).is_ok());
        net.heal_all();
    }

    #[test]
    fn rack_down_cuts_the_boundary_only() {
        // 3 racks over 9 nodes: rack 0 = {0, 3, 6}, rack 1 = {1, 4, 7}.
        let mut net = racked(6, 3, 3);
        let cut = net.rack_down(0);
        assert_eq!(cut, 3 * 6, "every boundary link cut once");
        assert!(net.rack_is_down(0));
        assert!(net.is_reachable(0, 3), "intra-rack links stay up");
        assert!(!net.is_reachable(0, 1));
        assert!(!net.is_reachable(6, 7), "storage in the rack is cut too");
        assert_eq!(net.rack_down(0), 0, "already down: no-op");
        assert_eq!(cut_links(&net), 18);
        assert_eq!(
            net.partition_count(),
            0,
            "domain cuts are not node partitions"
        );
        net.rack_up(0);
        assert!(!net.rack_is_down(0));
        assert!(net.is_reachable(0, 1));
        assert_eq!(cut_links(&net), 0);
        net.rack_up(0); // double-up is a no-op
    }

    #[test]
    fn datacenter_down_overlapping_rack_down_is_refcounted() {
        // 2 DCs x 2 racks over 8 nodes: DC 0 = racks {0, 1} = nodes
        // {0, 4, 1, 5}; DC 1 = racks {2, 3}.
        let mut net = Network::with_topology(
            LinkKind::GbE,
            6,
            2,
            TopologyConfig {
                regions: 1,
                dcs_per_region: 2,
                racks_per_dc: 2,
            },
        );
        net.rack_down(0);
        net.datacenter_down(0);
        assert!(net.datacenter_is_down(0));
        assert!(!net.is_reachable(0, 2), "rack 0 to DC 1: cut twice");
        assert!(
            !net.is_reachable(1, 2),
            "rack 1 to DC 1: cut by the DC outage"
        );
        assert!(
            !net.is_reachable(0, 1),
            "rack boundary inside the DC stays cut"
        );
        // Healing the DC releases its cuts; the rack outage remains.
        net.datacenter_up(0);
        assert!(!net.is_reachable(0, 2), "rack 0 is still down");
        assert!(net.is_reachable(1, 2), "rack 1 is back");
        net.rack_up(0);
        assert_eq!(cut_links(&net), 0);
    }

    // Satellite: partition lifecycle edge cases.
    #[test]
    fn double_partition_and_bogus_heal_are_idempotent() {
        let mut net = Network::new(LinkKind::GbE, 3, 1);
        net.partition(3, 1);
        net.partition(1, 3); // same link, reversed order
        assert_eq!(net.partition_count(), 1, "double cut is one cut");
        net.heal(0, 2); // never-cut link: no-op
        assert_eq!(net.partition_count(), 1);
        assert!(net.is_reachable(0, 2));
        net.heal(3, 1);
        net.heal(3, 1); // double heal: no-op
        assert_eq!(net.partition_count(), 0);
        assert!(net.try_unicast(3, 1, 10).is_ok());
    }

    #[test]
    fn rack_down_overlapping_node_partition_heals_independently() {
        // Rack 1 = {1, 4, 7}; also cut the 7<->8 link at node level.
        let mut net = racked(6, 3, 3);
        net.partition(7, 8);
        net.rack_down(1);
        assert!(!net.is_reachable(7, 8));
        // The rack heal must NOT heal the node-level cut underneath.
        net.rack_up(1);
        assert!(
            !net.is_reachable(7, 8),
            "node-level cut survives the rack heal"
        );
        assert!(net.is_reachable(1, 8), "other rack links are back");
        net.heal(7, 8);
        assert!(net.is_reachable(7, 8));
    }

    #[test]
    fn heal_order_does_not_change_the_ledger() {
        let run = |heal_rack_first: bool| {
            let mut net = racked(6, 3, 3);
            net.partition(0, 6);
            net.rack_down(1);
            if heal_rack_first {
                net.rack_up(1);
                net.heal(0, 6);
            } else {
                net.heal(0, 6);
                net.rack_up(1);
            }
            // Same transfers after full heal, whatever the heal order.
            net.try_unicast(6, 0, 1000).unwrap();
            net.try_unicast(7, 1, 2000).unwrap();
            net.try_tree_multicast(8, &[0, 1, 2], 500, 2).unwrap();
            (0..9).map(|n| net.ledger(n)).collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn transfers_record_metrics() {
        let reg = squirrel_obs::MetricsRegistry::new();
        let mut net = Network::new(LinkKind::GbE, 4, 1);
        net.set_metrics(&reg.handle());
        net.try_unicast(4, 0, 100).unwrap();
        net.try_tree_multicast(4, &[0, 1, 2], 50, 4).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("net_tx_bytes_total{link=\"gbe\"}"), Some(250));
        assert_eq!(snap.counter("net_rx_bytes_total{link=\"gbe\"}"), Some(250));
        assert_eq!(snap.counter("net_unicast_total{link=\"gbe\"}"), Some(1));
        let fanout = snap
            .histogram("net_multicast_fanout{link=\"gbe\"}")
            .expect("fan-out histogram");
        assert_eq!(fanout.count, 1);
        assert_eq!(fanout.sum, 3);
    }

    #[test]
    fn tree_multicast_records_metrics() {
        let reg = squirrel_obs::MetricsRegistry::new();
        let mut net = Network::new(LinkKind::GbE, 3, 1);
        net.set_metrics(&reg.handle());
        net.try_tree_multicast(3, &[0, 1, 2], 10, 2).unwrap();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("net_tree_multicast_total{link=\"gbe\"}"),
            Some(1)
        );
        assert_eq!(snap.counter("net_tx_bytes_total{link=\"gbe\"}"), Some(30));
        assert_eq!(snap.counter("net_rx_bytes_total{link=\"gbe\"}"), Some(30));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::parallelfs::{GlusterConfig, GlusterVolume};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[derive(Clone, Debug)]
    enum Op {
        RackDown(u32),
        RackUp(u32),
        DatacenterDown(u32),
        DatacenterUp(u32),
        Partition(NodeId, NodeId),
        Heal(NodeId, NodeId),
        HealAll,
    }

    /// Rack 4 and datacenter 2 do not exist; node ids are taken modulo
    /// `node_count() + 2`, so some name no node.
    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u32..5).prop_map(Op::RackDown),
            2 => (0u32..5).prop_map(Op::RackUp),
            2 => (0u32..3).prop_map(Op::DatacenterDown),
            2 => (0u32..3).prop_map(Op::DatacenterUp),
            3 => (0u32..64, 0u32..64).prop_map(|(a, b)| Op::Partition(a, b)),
            2 => (0u32..64, 0u32..64).prop_map(|(a, b)| Op::Heal(a, b)),
            1 => Just(Op::HealAll),
        ]
    }

    /// What the network must answer, kept per link: the node-level cuts,
    /// and the downed racks and datacenters by their member lists.
    #[derive(Default)]
    struct Reference {
        cuts: BTreeSet<(NodeId, NodeId)>,
        racks: BTreeSet<u32>,
        dcs: BTreeSet<u32>,
    }

    impl Reference {
        /// A link between two cluster nodes is cut by a domain when some
        /// downed rack or datacenter holds exactly one of its endpoints.
        /// An id outside the cluster is never cut by a domain.
        fn reachable(&self, net: &Network, a: NodeId, b: NodeId) -> bool {
            let n = net.node_count() as NodeId;
            if a == b {
                return true;
            }
            if self.cuts.contains(&(a.min(b), a.max(b))) {
                return false;
            }
            if a >= n || b >= n {
                return true;
            }
            let topo = net.topology();
            let splits = |members: Vec<NodeId>| members.contains(&a) != members.contains(&b);
            !(self.racks.iter().any(|&r| splits(topo.nodes_in_rack(r)))
                || self
                    .dcs
                    .iter()
                    .any(|&d| splits(topo.nodes_in_datacenter(d))))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every outage, heal and cut, `is_reachable` answers every
        /// pair (two ids past the cluster included) as the per-link rule
        /// does, and every outage reports members × outside links.
        #[test]
        fn derived_reachability_equals_the_per_link_rule(
            compute in 1u32..10,
            storage in 0u32..4,
            ops in proptest::collection::vec(op(), 1..40),
        ) {
            let topology = TopologyConfig {
                regions: 1,
                dcs_per_region: 2,
                racks_per_dc: 2,
            };
            let mut net = Network::with_topology(LinkKind::GbE, compute, storage, topology);
            let n = net.node_count();
            let ids = n as NodeId + 2;
            let boundary = |members: Vec<NodeId>| members.len() * (n - members.len());
            let mut model = Reference::default();
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::RackDown(r) => {
                        let expected = if model.racks.insert(r) {
                            boundary(net.topology().nodes_in_rack(r))
                        } else {
                            0
                        };
                        prop_assert_eq!(net.rack_down(r), expected, "rack_down({})", r);
                    }
                    Op::RackUp(r) => {
                        model.racks.remove(&r);
                        net.rack_up(r);
                    }
                    Op::DatacenterDown(d) => {
                        let expected = if model.dcs.insert(d) {
                            boundary(net.topology().nodes_in_datacenter(d))
                        } else {
                            0
                        };
                        prop_assert_eq!(net.datacenter_down(d), expected, "datacenter_down({})", d);
                    }
                    Op::DatacenterUp(d) => {
                        model.dcs.remove(&d);
                        net.datacenter_up(d);
                    }
                    Op::Partition(a, b) => {
                        let (a, b) = (a % ids, b % ids);
                        if a != b && a < n as NodeId && b < n as NodeId {
                            model.cuts.insert((a.min(b), a.max(b)));
                        }
                        net.partition(a, b);
                    }
                    Op::Heal(a, b) => {
                        let (a, b) = (a % ids, b % ids);
                        model.cuts.remove(&(a.min(b), a.max(b)));
                        net.heal(a, b);
                    }
                    Op::HealAll => {
                        model = Reference::default();
                        net.heal_all();
                    }
                }
                for a in 0..ids {
                    for b in 0..ids {
                        prop_assert_eq!(
                            net.is_reachable(a, b),
                            model.reachable(&net, a, b),
                            "{}<->{} after step {} ({:?})",
                            a,
                            b,
                            step,
                            op
                        );
                    }
                }
            }
        }
    }

    /// One step of the byte-conservation test: a transfer of some shape, or
    /// a reachability change.
    #[derive(Clone, Debug)]
    enum Step {
        Unicast(NodeId, NodeId, u64),
        Tree(NodeId, Vec<NodeId>, u64, u32),
        Pipeline(NodeId, Vec<NodeId>, u64),
        GlusterRead(NodeId, u64, u64),
        GlusterWrite(NodeId, u64, u64),
        Reach(Op),
    }

    /// The racked network of [`bytes_are_conserved_on_the_ledger`]: 8
    /// compute + 4 storage nodes, ids 12 and 13 name no node.
    const IDS: NodeId = 14;

    fn step() -> impl Strategy<Value = Step> {
        let ids = || proptest::collection::vec(0..IDS, 0..6);
        prop_oneof![
            3 => (0..IDS, 0..IDS, 1u64..1 << 20).prop_map(|(s, d, b)| Step::Unicast(s, d, b)),
            2 => (0..IDS, ids(), 1u64..1 << 20, 0u32..4)
                .prop_map(|(s, d, b, k)| Step::Tree(s, d, b, k)),
            2 => (0..IDS, ids(), 1u64..1 << 20).prop_map(|(s, d, b)| Step::Pipeline(s, d, b)),
            2 => (0..IDS, 0u64..1 << 20, 0u64..1 << 20)
                .prop_map(|(c, o, b)| Step::GlusterRead(c, o, b)),
            2 => (0..IDS, 0u64..1 << 20, 0u64..1 << 20)
                .prop_map(|(c, o, b)| Step::GlusterWrite(c, o, b)),
            4 => op().prop_map(Step::Reach),
        ]
    }

    /// Bytes a gluster write of `[offset, offset + bytes)` puts on the wire:
    /// each stripe unit once per replica reachable from `client`. Bricks
    /// 8..12 in order, 2 stripes of 128 KiB: stripe `s` lives on `8 + s`
    /// and `10 + s`.
    fn write_copies(net: &Network, client: NodeId, offset: u64, bytes: u64) -> u64 {
        let unit = 128 * 1024;
        let (mut pos, end, mut copies) = (offset, offset + bytes, 0);
        while pos < end {
            let take = ((pos / unit + 1) * unit).min(end) - pos;
            let s = (pos / unit % 2) as NodeId;
            let reachable = [8 + s, 10 + s]
                .iter()
                .filter(|&&b| net.is_reachable(client, b))
                .count();
            copies += take * reachable as u64;
            pos += take;
        }
        copies
    }

    /// Every ledger and every scope tally.
    fn wire_state(net: &Network) -> (Vec<TrafficLedger>, [u64; 4]) {
        let ledgers = (0..net.node_count() as NodeId)
            .map(|n| net.ledger(n))
            .collect();
        (ledgers, LinkScope::ALL.map(|s| net.scope_bytes(s)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever mix of transfer shapes, gluster reads and writes,
        /// partitions and domain outages runs, Σ tx over the ledgers, Σ rx,
        /// Σ bytes over the link scopes and Σ bytes the successful steps
        /// moved stay equal after every step, and a failed step leaves
        /// every ledger and scope tally as it found them.
        #[test]
        fn bytes_are_conserved_on_the_ledger(
            steps in proptest::collection::vec(step(), 1..60),
        ) {
            let topology = TopologyConfig {
                regions: 1,
                dcs_per_region: 2,
                racks_per_dc: 2,
            };
            let mut net = Network::with_topology(LinkKind::GbE, 8, 4, topology);
            let gluster = GlusterVolume::new(GlusterConfig::default(), vec![8, 9, 10, 11]);
            let mut moved = 0u64;
            for (i, step) in steps.iter().enumerate() {
                let before = wire_state(&net);
                let result = match step {
                    Step::Unicast(s, d, b) => net.try_unicast(*s, *d, *b).map(|_| *b),
                    Step::Tree(s, d, b, k) => net
                        .try_tree_multicast(*s, d, *b, *k)
                        .map(|_| b * d.len() as u64),
                    Step::Pipeline(s, d, b) => {
                        net.try_pipeline(*s, d, *b).map(|_| b * d.len() as u64)
                    }
                    Step::GlusterRead(c, o, b) => gluster.try_read(&mut net, *c, *o, *b).map(|_| *b),
                    Step::GlusterWrite(c, o, b) => {
                        let copies = write_copies(&net, *c, *o, *b);
                        gluster.try_write(&mut net, *c, *o, *b).map(|_| copies)
                    }
                    Step::Reach(op) => {
                        match *op {
                            Op::RackDown(r) => drop(net.rack_down(r)),
                            Op::RackUp(r) => net.rack_up(r),
                            Op::DatacenterDown(d) => drop(net.datacenter_down(d)),
                            Op::DatacenterUp(d) => net.datacenter_up(d),
                            Op::Partition(a, b) => net.partition(a % IDS, b % IDS),
                            Op::Heal(a, b) => net.heal(a % IDS, b % IDS),
                            Op::HealAll => net.heal_all(),
                        }
                        Ok(0)
                    }
                };
                if let Step::Tree(_, d, ..) | Step::Pipeline(_, d, _) = step {
                    let repeated = d.iter().enumerate().any(|(j, n)| d[..j].contains(n));
                    prop_assert!(
                        !repeated || result.is_err(),
                        "step {} ({:?}) charged a receiver twice",
                        i,
                        step
                    );
                }
                match result {
                    Ok(bytes) => moved += bytes,
                    Err(e) => prop_assert_eq!(
                        wire_state(&net),
                        before,
                        "step {} ({:?}) failed with {} but charged",
                        i,
                        step,
                        e
                    ),
                }
                let (ledgers, scopes) = wire_state(&net);
                let tx: u64 = ledgers.iter().map(|l| l.tx_bytes).sum();
                let rx: u64 = ledgers.iter().map(|l| l.rx_bytes).sum();
                let scoped: u64 = scopes.iter().sum();
                prop_assert_eq!(
                    (tx, rx, scoped),
                    (moved, moved, moved),
                    "after step {} ({:?})",
                    i,
                    step
                );
            }
        }
    }
}
