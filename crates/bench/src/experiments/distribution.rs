//! Distribution sweep: storage-tier uplink bytes and registration latency
//! versus fleet size (100 / 1 000 / 10 000 nodes) for every
//! [`DistributionPolicy`] — the scalability argument behind the
//! `TransferPlan` redesign.
//!
//! The serial-unicast baseline pays the storage uplink one payload per
//! receiver, so its cost grows linearly with the fleet; tree multicast
//! caps it at the fanout, pipelining and peer-assisted transfer at one
//! payload. The sweep measures all four from the network ledgers, gates on
//! the ordering at the two largest fleet sizes (and asserts it at the rest)
//! and on every cell having verified each diff's payload exactly once, and
//! replays the smallest point at worker-thread counts 1/2/8 for
//! bit-identical [`RegisterReport`]s and metrics.

use crate::config::ExperimentConfig;
use crate::record::{json_obj, sweep_equal, Json, Record};
use squirrel_core::{DistributionPolicy, RegisterReport, Squirrel, SquirrelConfig};
use squirrel_dataset::Corpus;
use squirrel_obs::MetricsSnapshot;
use std::sync::Arc;

/// Fleet sizes swept (the paper's DAS-4 cluster is 64 nodes; the point of
/// the redesign is what happens well past it).
pub const DIST_NODE_COUNTS: [u32; 3] = [100, 1000, 10_000];

/// Catalog size per point: the sweep measures transfer shape, not dedup,
/// so a handful of images is enough signal.
const DIST_IMAGES: u32 = 3;
/// Pool record size for the sweep.
const DIST_BLOCK_SIZE: usize = 16 * 1024;

/// One (policy, fleet size) measurement.
#[derive(Clone, Debug)]
pub struct DistPoint {
    pub policy: DistributionPolicy,
    pub nodes: u32,
    pub registrations: u32,
    /// Total diff wire bytes across the registrations (per receiver).
    pub wire_bytes: u64,
    /// Bytes the storage tier transmitted, from the ledgers.
    pub storage_tx_bytes: u64,
    /// Bytes compute peers transmitted on the storage tier's behalf.
    pub peer_tx_bytes: u64,
    pub peer_hits: u64,
    pub peer_misses: u64,
    /// Mean simulated seconds per registration (first boot included).
    pub mean_register_secs: f64,
    /// Logical bytes the registrations' diffs carried: what the scVolume
    /// compressed while importing (every DDT miss is a payload block).
    pub payload_logical_bytes: u64,
    /// Logical bytes the ccVolumes decompressed + hashed verifying those
    /// diffs — the per-registration work that must not scale with `nodes`.
    pub verified_bytes: u64,
}

/// Register the catalog's first `cfg.images.min(DIST_IMAGES)` images on a
/// fresh fleet at `cfg.threads` and read the ledgers; the registrations'
/// reports and the final metric snapshot come along for the thread replay.
pub fn run_point(
    cfg: &ExperimentConfig,
    corpus: &Arc<Corpus>,
    policy: DistributionPolicy,
    nodes: u32,
) -> (DistPoint, Vec<RegisterReport>, MetricsSnapshot) {
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(nodes)
            .block_size(DIST_BLOCK_SIZE)
            .threads(cfg.threads)
            .distribution(policy)
            .build(),
        Arc::clone(corpus),
    );
    // Not `corpus.len()`: a census scaled below its family count can hold
    // more images than asked for (see `scaled_census`).
    let images = cfg.images.min(DIST_IMAGES);
    let reports: Vec<RegisterReport> = (0..images)
        .map(|img| sq.register(img).expect("register"))
        .collect();
    for r in &reports {
        assert_eq!(r.nodes_updated, nodes, "{} at {nodes} nodes", policy.name());
    }
    let snap = sq.metrics().snapshot();
    let point = DistPoint {
        policy,
        nodes,
        registrations: images,
        wire_bytes: reports.iter().map(|r| r.diff_wire_bytes).sum(),
        storage_tx_bytes: sq.network().storage_tx_total(),
        peer_tx_bytes: sq.network().compute_tx_total(),
        peer_hits: snap.counter("squirrel_dist_peer_hits_total").unwrap_or(0),
        peer_misses: snap.counter("squirrel_dist_peer_misses_total").unwrap_or(0),
        mean_register_secs: reports.iter().map(|r| r.seconds).sum::<f64>()
            / f64::from(images.max(1)),
        payload_logical_bytes: snap
            .counter("zpool_compress_in_bytes_total{pool=\"scvol\"}")
            .unwrap_or(0),
        verified_bytes: snap
            .counter("zpool_recv_verified_bytes_total{pool=\"ccvol\"}")
            .unwrap_or(0),
    };
    (point, reports, snap)
}

/// The full sweep: every policy at every fleet size, reported as a
/// [`Record`]. The named gates read the two largest
/// swept fleet sizes — 1 000 and 10 000 on the default sweep.
pub fn run_distribution(cfg: &ExperimentConfig, node_counts: &[u32]) -> (Vec<DistPoint>, Record) {
    let corpus = &ExperimentConfig {
        images: cfg.images.min(DIST_IMAGES),
        ..cfg.clone()
    }
    .corpus();
    let points: Vec<DistPoint> = node_counts
        .iter()
        .flat_map(|&nodes| {
            DistributionPolicy::standard_set()
                .into_iter()
                .map(move |p| run_point(cfg, corpus, p, nodes).0)
        })
        .collect();

    // The smallest fleet under every policy, at each thread count.
    let replay = sweep_equal(cfg, |threads| {
        let cfg = ExperimentConfig {
            threads,
            ..cfg.clone()
        };
        DistributionPolicy::standard_set()
            .into_iter()
            .map(|policy| {
                let (_, reports, snap) = run_point(&cfg, corpus, policy, node_counts[0]);
                (reports, snap)
            })
            .collect::<Vec<_>>()
    });

    let tx = |nodes: u32, policy: DistributionPolicy| {
        points
            .iter()
            .find(|p| p.nodes == nodes && p.policy == policy)
            .expect("swept point")
            .storage_tx_bytes
    };
    let mid = node_counts[node_counts.len().saturating_sub(2)];
    let top = *node_counts.last().expect("non-empty sweep");
    let below_unicast =
        |nodes: u32, policy| tx(nodes, policy) < tx(nodes, DistributionPolicy::Unicast);
    // The orderings no gate names, at every fleet size: the redesigned
    // shapes must beat the serial uplink.
    let multicast = DistributionPolicy::Multicast { fanout: 8 };
    for &nodes in node_counts {
        assert!(
            below_unicast(nodes, DistributionPolicy::Pipeline),
            "pipeline at {nodes} nodes"
        );
        if nodes != mid && nodes != top {
            assert!(
                below_unicast(nodes, DistributionPolicy::PeerAssisted),
                "peer at {nodes} nodes"
            );
        }
        if nodes != mid {
            // The tree only undercuts serial unicast once the fleet
            // outgrows its fanout; below that every receiver is a child
            // of the root and the two shapes cost the uplink the same.
            let (tree, serial) = (tx(nodes, multicast), tx(nodes, DistributionPolicy::Unicast));
            assert!(
                if nodes > 8 {
                    tree < serial
                } else {
                    tree <= serial
                },
                "multicast at {nodes}"
            );
        }
    }
    let record = Record {
        experiment: "distribution",
        paper: false,
        params: json_obj! {
            "seed": cfg.seed,
            "images": cfg.images.min(DIST_IMAGES),
            "scale": cfg.scale,
            "block_size": DIST_BLOCK_SIZE,
            "node_counts": Json::arr(node_counts, |&n| n.into()),
            "policies": Json::arr(DistributionPolicy::standard_set(), |p| p.name().into()),
        },
        gates: vec![
            (
                "peer_below_unicast_1k",
                below_unicast(mid, DistributionPolicy::PeerAssisted),
            ),
            (
                "peer_below_unicast_10k",
                below_unicast(top, DistributionPolicy::PeerAssisted),
            ),
            ("multicast_below_unicast_1k", below_unicast(mid, multicast)),
            ("deterministic_across_threads", replay.deterministic),
            // Every cell verified exactly its diffs' logical payload: once
            // per registration, whatever the fleet size or policy.
            (
                "verify_once",
                points.iter().all(|p| {
                    p.payload_logical_bytes > 0 && p.verified_bytes == p.payload_logical_bytes
                }),
            ),
        ],
        deterministic: json_obj! {
            "points": Json::arr(&points, |p| json_obj! {
                "policy": p.policy.name(),
                p => [nodes, registrations, wire_bytes, storage_tx_bytes, peer_tx_bytes, peer_hits,
                      peer_misses],
                "mean_register_seconds": p.mean_register_secs,
                p => [payload_logical_bytes, verified_bytes],
            }),
        },
    };
    (points, record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_orders_policies_and_stays_deterministic() {
        let cfg = ExperimentConfig::smoke();
        // 6 nodes is below the multicast fanout; the gates read 12 and 16.
        let (points, record) = run_distribution(&cfg, &[6, 12, 16]);
        assert_eq!(points.len(), 12, "4 policies x 3 fleet sizes");
        assert_eq!(record.enforce(), Ok(()));
        // The uplink constant: peer-assisted storage bytes don't grow with
        // the fleet, serial unicast's do.
        let peer: Vec<u64> = points
            .iter()
            .filter(|p| p.policy == DistributionPolicy::PeerAssisted)
            .map(|p| p.storage_tx_bytes)
            .collect();
        assert_eq!(peer[0], peer[1]);
        let uni: Vec<u64> = points
            .iter()
            .filter(|p| p.policy == DistributionPolicy::Unicast)
            .map(|p| p.storage_tx_bytes)
            .collect();
        assert_eq!(uni[1], 2 * uni[0]);
    }
}
