//! Failure-domain topology: region → datacenter → rack → node.
//!
//! The flat switch the seed model assumed cannot express *correlated*
//! failures — a rack losing power takes every node behind its top-of-rack
//! switch off the network at once, which is a very different adversary than
//! N uncorrelated crashes. This module gives the cluster a deterministic
//! hierarchy ([`Topology`], built from a [`TopologyConfig`]), classifies
//! every link by the highest boundary it crosses ([`LinkScope`]), and
//! provides a CRUSH-style placement function that spreads replicas or
//! erasure-coded shards across distinct failure domains.
//!
//! Everything here is pure, deterministic arithmetic: node `i` lives in
//! global rack `i % racks`, racks roll up into datacenters and regions by
//! integer division, and placement scores come from a SplitMix64-style hash
//! of `(key, node)`. No ambient randomness, no wall clocks — the same
//! inputs give the same placement on every run and at every thread count.

use crate::netsim::NodeId;

/// Shape of the failure-domain hierarchy. [`TopologyConfig::flat`] (one
/// region, one datacenter, one rack) reproduces the seed model exactly:
/// every link is intra-rack and no domain outage can cut anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopologyConfig {
    /// Geographic regions.
    pub regions: u32,
    /// Datacenters per region.
    pub dcs_per_region: u32,
    /// Racks per datacenter.
    pub racks_per_dc: u32,
}

impl TopologyConfig {
    /// The degenerate single-rack topology of the original flat model.
    pub fn flat() -> Self {
        TopologyConfig {
            regions: 1,
            dcs_per_region: 1,
            racks_per_dc: 1,
        }
    }

    /// Total racks across the whole hierarchy.
    pub fn total_racks(&self) -> u32 {
        self.regions.max(1) * self.dcs_per_region.max(1) * self.racks_per_dc.max(1)
    }

    /// Total datacenters across the whole hierarchy.
    pub fn total_datacenters(&self) -> u32 {
        self.regions.max(1) * self.dcs_per_region.max(1)
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self::flat()
    }
}

/// A node's position in the hierarchy, as global (not per-parent) ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Domain {
    pub region: u32,
    pub datacenter: u32,
    pub rack: u32,
}

/// The highest failure-domain boundary a link crosses. Orders by cost:
/// intra-rack < cross-rack < cross-DC < cross-region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinkScope {
    /// Both endpoints behind the same top-of-rack switch.
    IntraRack,
    /// Same datacenter, different racks.
    CrossRack,
    /// Same region, different datacenters.
    CrossDatacenter,
    /// Different regions.
    CrossRegion,
}

impl LinkScope {
    /// Multiplier on a transfer's link-occupancy seconds: aggregation
    /// layers oversubscribe, so a byte crossing a higher boundary costs
    /// strictly more wall-clock than an intra-rack byte. Intra-rack is
    /// exactly `1.0` so a flat topology reproduces the seed cost model
    /// bit-for-bit.
    pub fn cost_multiplier(&self) -> f64 {
        match self {
            LinkScope::IntraRack => 1.0,
            LinkScope::CrossRack => 2.0,
            LinkScope::CrossDatacenter => 5.0,
            LinkScope::CrossRegion => 12.0,
        }
    }

    /// Stable identifier for metric labels and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            LinkScope::IntraRack => "intra-rack",
            LinkScope::CrossRack => "cross-rack",
            LinkScope::CrossDatacenter => "cross-dc",
            LinkScope::CrossRegion => "cross-region",
        }
    }

    /// All scopes, in increasing cost order (index matches `as usize`).
    pub const ALL: [LinkScope; 4] = [
        LinkScope::IntraRack,
        LinkScope::CrossRack,
        LinkScope::CrossDatacenter,
        LinkScope::CrossRegion,
    ];
}

/// The placement hash, a leaf copy of `squirrel_hash::rng::mix64`: the
/// committed `benchmark/Cargo.lock` freezes the crate graph, so this crate
/// gains no dependency edge. Placements are pinned by `results/` and the
/// fleet pins, not by equality to the canonical copy.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The assembled hierarchy: every node's [`Domain`], link classification,
/// and CRUSH-style placement. Construction is deterministic: node `i` sits
/// in global rack `i % total_racks`, so compute and storage nodes (which
/// get consecutive id ranges) both spread round-robin across every rack.
#[derive(Clone, Debug)]
pub struct Topology {
    config: TopologyConfig,
    domains: Vec<Domain>,
}

impl Topology {
    pub fn new(config: TopologyConfig, nodes: usize) -> Self {
        let racks = config.total_racks();
        let domains = (0..nodes as u32)
            .map(|i| {
                let rack = i % racks;
                let datacenter = rack / config.racks_per_dc.max(1);
                let region = datacenter / config.dcs_per_region.max(1);
                Domain {
                    region,
                    datacenter,
                    rack,
                }
            })
            .collect();
        Topology { config, domains }
    }

    pub fn config(&self) -> TopologyConfig {
        self.config
    }

    pub fn node_count(&self) -> usize {
        self.domains.len()
    }

    /// The node's position; panics on an unknown node id.
    pub fn domain(&self, node: NodeId) -> Domain {
        self.domains[node as usize]
    }

    pub fn rack_of(&self, node: NodeId) -> u32 {
        self.domains[node as usize].rack
    }

    pub fn datacenter_of(&self, node: NodeId) -> u32 {
        self.domains[node as usize].datacenter
    }

    /// Nodes homed in global rack `rack`, in id order.
    pub fn nodes_in_rack(&self, rack: u32) -> Vec<NodeId> {
        (0..self.domains.len() as u32)
            .filter(|&n| self.domains[n as usize].rack == rack)
            .collect()
    }

    /// Nodes homed in global datacenter `dc`, in id order.
    pub fn nodes_in_datacenter(&self, dc: u32) -> Vec<NodeId> {
        (0..self.domains.len() as u32)
            .filter(|&n| self.domains[n as usize].datacenter == dc)
            .collect()
    }

    /// Classify the link between two nodes by the highest boundary it
    /// crosses.
    pub fn scope(&self, a: NodeId, b: NodeId) -> LinkScope {
        let da = self.domains[a as usize];
        let db = self.domains[b as usize];
        if da.region != db.region {
            LinkScope::CrossRegion
        } else if da.datacenter != db.datacenter {
            LinkScope::CrossDatacenter
        } else if da.rack != db.rack {
            LinkScope::CrossRack
        } else {
            LinkScope::IntraRack
        }
    }

    /// CRUSH-style deterministic placement: choose `count` nodes from
    /// `candidates` for object `key`, spreading across distinct racks.
    ///
    /// Every candidate gets a pseudo-random score from `hash(key, node)`
    /// (rendezvous / highest-random-weight hashing); candidates are visited
    /// in descending score order, first taking only nodes whose rack is not
    /// yet used, then — if `count` exceeds the racks represented — relaxing
    /// to distinct nodes. The result depends only on `(key, candidates)`,
    /// so placement survives restarts and is identical at every thread
    /// count; losing a candidate only moves the shards it hosted.
    pub fn place(&self, key: u64, candidates: &[NodeId], count: usize) -> Vec<NodeId> {
        let mut scored: Vec<(u64, NodeId)> = candidates
            .iter()
            .map(|&n| {
                (
                    mix64(key ^ (u64::from(n)).wrapping_mul(0x2545_f491_4f6c_dd1d)),
                    n,
                )
            })
            .collect();
        // Descending score; node id breaks (astronomically unlikely) ties.
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut chosen: Vec<NodeId> = Vec::with_capacity(count);
        let mut used_racks = std::collections::BTreeSet::new();
        for &(_, n) in &scored {
            if chosen.len() == count {
                break;
            }
            if used_racks.insert(self.rack_of(n)) {
                chosen.push(n);
            }
        }
        for &(_, n) in &scored {
            if chosen.len() == count {
                break;
            }
            if !chosen.contains(&n) {
                chosen.push(n);
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_topology_is_one_rack() {
        let t = Topology::new(TopologyConfig::flat(), 8);
        for n in 0..8 {
            assert_eq!(
                t.domain(n),
                Domain {
                    region: 0,
                    datacenter: 0,
                    rack: 0
                }
            );
        }
        assert_eq!(t.scope(0, 7), LinkScope::IntraRack);
        assert_eq!(t.nodes_in_rack(0).len(), 8);
    }

    #[test]
    fn nodes_round_robin_across_racks() {
        let cfg = TopologyConfig {
            regions: 1,
            dcs_per_region: 2,
            racks_per_dc: 2,
        };
        let t = Topology::new(cfg, 12);
        assert_eq!(cfg.total_racks(), 4);
        assert_eq!(cfg.total_datacenters(), 2);
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(5), 1);
        assert_eq!(t.nodes_in_rack(2), vec![2, 6, 10]);
        // Racks 0,1 are DC 0; racks 2,3 are DC 1.
        assert_eq!(t.datacenter_of(1), 0);
        assert_eq!(t.datacenter_of(2), 1);
        assert_eq!(t.nodes_in_datacenter(1), vec![2, 3, 6, 7, 10, 11]);
    }

    #[test]
    fn scope_orders_by_boundary() {
        let cfg = TopologyConfig {
            regions: 2,
            dcs_per_region: 2,
            racks_per_dc: 2,
        };
        let t = Topology::new(cfg, 16);
        // Node i in rack i%8: racks 0..4 = region 0, racks 4..8 = region 1.
        assert_eq!(t.scope(0, 8), LinkScope::IntraRack);
        assert_eq!(t.scope(0, 1), LinkScope::CrossRack);
        assert_eq!(t.scope(0, 2), LinkScope::CrossDatacenter);
        assert_eq!(t.scope(0, 4), LinkScope::CrossRegion);
        assert!(LinkScope::IntraRack < LinkScope::CrossRack);
        assert!(LinkScope::CrossRack.cost_multiplier() > LinkScope::IntraRack.cost_multiplier());
        assert!(
            LinkScope::CrossDatacenter.cost_multiplier() > LinkScope::CrossRack.cost_multiplier()
        );
        assert_eq!(LinkScope::CrossDatacenter.name(), "cross-dc");
    }

    #[test]
    fn placement_prefers_distinct_racks() {
        let cfg = TopologyConfig {
            regions: 1,
            dcs_per_region: 2,
            racks_per_dc: 2,
        };
        let t = Topology::new(cfg, 12);
        let candidates: Vec<NodeId> = (4..12).collect(); // two per rack
        for key in 0..32u64 {
            let placed = t.place(key, &candidates, 4);
            assert_eq!(placed.len(), 4);
            let racks: std::collections::BTreeSet<u32> =
                placed.iter().map(|&n| t.rack_of(n)).collect();
            assert_eq!(racks.len(), 4, "key {key}: all four racks used: {placed:?}");
        }
    }

    #[test]
    fn placement_relaxes_to_distinct_nodes_when_racks_run_out() {
        let cfg = TopologyConfig {
            regions: 1,
            dcs_per_region: 1,
            racks_per_dc: 2,
        };
        let t = Topology::new(cfg, 8);
        let candidates: Vec<NodeId> = (0..8).collect();
        let placed = t.place(7, &candidates, 6);
        assert_eq!(placed.len(), 6);
        let distinct: std::collections::BTreeSet<NodeId> = placed.iter().copied().collect();
        assert_eq!(distinct.len(), 6, "no node hosts two shards: {placed:?}");
    }

    #[test]
    fn placement_is_deterministic_and_key_sensitive() {
        let cfg = TopologyConfig {
            regions: 1,
            dcs_per_region: 2,
            racks_per_dc: 2,
        };
        let t = Topology::new(cfg, 16);
        let candidates: Vec<NodeId> = (8..16).collect();
        assert_eq!(t.place(42, &candidates, 4), t.place(42, &candidates, 4));
        let spread: std::collections::BTreeSet<Vec<NodeId>> =
            (0..64u64).map(|k| t.place(k, &candidates, 4)).collect();
        assert!(spread.len() > 1, "different keys spread placements");
    }
}
