//! Distribution sweep: storage-tier uplink bytes and registration latency
//! versus fleet size (100 / 1 000 / 10 000 nodes) for every
//! [`DistributionPolicy`] — the scalability argument behind the
//! `TransferPlan` redesign.
//!
//! The serial-unicast baseline pays the storage uplink one payload per
//! receiver, so its cost grows linearly with the fleet; tree multicast
//! caps it at the fanout, pipelining and peer-assisted transfer at one
//! payload. The sweep measures all four from the network ledgers, checks
//! the ordering at every fleet size, and replays the smallest point at
//! worker-thread counts 1/2/8 asserting bit-identical [`RegisterReport`]s
//! and metrics. A passing run *is* the acceptance check; results land in
//! `results/BENCH_distribution.json`.

use crate::config::ExperimentConfig;
use crate::csvout::{fmt_f, Table};
use crate::experiments::bootstorm::thread_sweep;
use squirrel_core::{DistributionPolicy, RegisterReport, Squirrel, SquirrelConfig};

/// Fleet sizes swept (the paper's DAS-4 cluster is 64 nodes; the point of
/// the redesign is what happens well past it).
pub const DIST_NODE_COUNTS: [u32; 3] = [100, 1000, 10_000];

/// Catalog size per point: the sweep measures transfer shape, not dedup,
/// so a handful of images is enough signal.
const DIST_IMAGES: u32 = 3;

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
    pub wall_secs: f64,
}

fn point_system(cfg: &ExperimentConfig, policy: DistributionPolicy, nodes: u32) -> Squirrel {
    let corpus =
        ExperimentConfig { images: cfg.images.min(DIST_IMAGES), ..cfg.clone() }.corpus();
    Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(nodes)
            .block_size(16 * 1024)
            .threads(cfg.threads)
            .distribution(policy)
            .build(),
        corpus,
    )
}

/// Register the catalog on a fresh fleet and read the ledgers.
pub fn run_point(cfg: &ExperimentConfig, policy: DistributionPolicy, nodes: u32) -> DistPoint {
    let t = std::time::Instant::now();
    let mut sq = point_system(cfg, policy, nodes);
    let images = cfg.images.min(DIST_IMAGES);
    let mut wire = 0u64;
    let mut secs = 0.0f64;
    for img in 0..images {
        let r = sq.register(img).expect("register");
        assert_eq!(r.nodes_updated, nodes, "{} at {nodes} nodes", policy.name());
        wire += r.diff_wire_bytes;
        secs += r.seconds;
    }
    let snap = sq.metrics().snapshot();
    DistPoint {
        policy,
        nodes,
        registrations: images,
        wire_bytes: wire,
        storage_tx_bytes: sq.network().storage_tx_total(),
        peer_tx_bytes: sq.network().compute_tx_total(),
        peer_hits: snap.counter("squirrel_dist_peer_hits_total").unwrap_or(0),
        peer_misses: snap.counter("squirrel_dist_peer_misses_total").unwrap_or(0),
        mean_register_secs: secs / f64::from(images.max(1)),
        payload_logical_bytes: snap
            .counter("zpool_compress_in_bytes_total{pool=\"scvol\"}")
            .unwrap_or(0),
        verified_bytes: snap
            .counter("zpool_recv_verified_bytes_total{pool=\"ccvol\"}")
            .unwrap_or(0),
        wall_secs: t.elapsed().as_secs_f64(),
    }
}

/// Replay the smallest fleet at every thread count; reports and metrics
/// must be bit-identical under every policy.
fn assert_thread_determinism(cfg: &ExperimentConfig, nodes: u32) {
    for policy in DistributionPolicy::standard_set() {
        let run = |threads: usize| {
            let mut sq = point_system(&ExperimentConfig { threads, ..cfg.clone() }, policy, nodes);
            let reports: Vec<RegisterReport> = (0..cfg.images.min(DIST_IMAGES))
                .map(|img| sq.register(img).expect("register"))
                .collect();
            (reports, sq.metrics().snapshot())
        };
        let reference = run(1);
        for threads in thread_sweep(cfg) {
            assert_eq!(
                run(threads),
                reference,
                "{} diverged at threads={threads}",
                policy.name()
            );
        }
    }
}

/// The full sweep: every policy at every fleet size, ordering gates
/// asserted, CSV + `BENCH_distribution.json` written.
pub fn run_distribution(cfg: &ExperimentConfig, node_counts: &[u32]) -> Vec<DistPoint> {
    let mut points = Vec::new();
    let mut t = Table::new(&[
        "policy",
        "nodes",
        "storage_tx_mib",
        "peer_tx_mib",
        "mean_register_s",
        "peer_hit_rate",
    ]);
    for &nodes in node_counts {
        for policy in DistributionPolicy::standard_set() {
            let p = run_point(cfg, policy, nodes);
            println!(
                "distribution {} nodes={}: storage_tx={} B, peer_tx={} B, \
                 mean register {:.2} s ({:.2}s wall)",
                policy.name(),
                nodes,
                p.storage_tx_bytes,
                p.peer_tx_bytes,
                p.mean_register_secs,
                p.wall_secs,
            );
            let served = p.peer_hits + p.peer_misses;
            t.push(vec![
                p.policy.name().to_string(),
                nodes.to_string(),
                fmt_f(p.storage_tx_bytes as f64 / (1 << 20) as f64),
                fmt_f(p.peer_tx_bytes as f64 / (1 << 20) as f64),
                fmt_f(p.mean_register_secs),
                fmt_f(if served == 0 { 0.0 } else { p.peer_hits as f64 / served as f64 }),
            ]);
            points.push(p);
        }
    }

    // Ordering gates, at every fleet size: the redesigned shapes must beat
    // the serial uplink, and peer-assisted must leave it at a constant.
    for &nodes in node_counts {
        let tx = |policy: DistributionPolicy| {
            points
                .iter()
                .find(|p| p.nodes == nodes && p.policy == policy)
                .expect("swept point")
                .storage_tx_bytes
        };
        let unicast = tx(DistributionPolicy::Unicast);
        let multicast = tx(DistributionPolicy::Multicast { fanout: 8 });
        let peer = tx(DistributionPolicy::PeerAssisted);
        let pipeline = tx(DistributionPolicy::Pipeline);
        assert!(peer < unicast, "peer {peer} !< unicast {unicast} at {nodes} nodes");
        assert!(pipeline < unicast, "pipeline {pipeline} !< unicast {unicast} at {nodes}");
        if nodes > 8 {
            // The tree only undercuts serial unicast once the fleet
            // outgrows its fanout; below that every receiver is a child
            // of the root and the two shapes cost the uplink the same.
            assert!(multicast < unicast, "multicast {multicast} !< unicast {unicast} at {nodes}");
        } else {
            assert!(multicast <= unicast, "multicast {multicast} > unicast {unicast} at {nodes}");
        }
    }
    assert!(
        verify_once(&points),
        "some cell verified more (or less) than its diffs' payload"
    );
    assert_thread_determinism(cfg, node_counts[0]);

    t.print("Distribution: storage-tier uplink vs fleet size per policy");
    t.write(&cfg.out_dir, "distribution").expect("csv");
    if let Some(dir) = &cfg.out_dir {
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = std::path::Path::new(dir).join("BENCH_distribution.json");
        std::fs::write(&path, render_json(cfg, node_counts, &points))
            .expect("write BENCH_distribution.json");
        println!("distribution bench written to {}", path.display());
    }
    points
}

/// Every cell verified exactly its diffs' logical payload: once per
/// registration, whatever the fleet size or policy.
fn verify_once(points: &[DistPoint]) -> bool {
    points
        .iter()
        .all(|p| p.payload_logical_bytes > 0 && p.verified_bytes == p.payload_logical_bytes)
}

/// Hand-rolled JSON (the workspace is std-only by policy). The named gates
/// read the two largest swept fleet sizes — 1 000 and 10 000 on the
/// default sweep.
fn render_json(cfg: &ExperimentConfig, node_counts: &[u32], points: &[DistPoint]) -> String {
    let tx = |nodes: u32, policy: DistributionPolicy| {
        points
            .iter()
            .find(|p| p.nodes == nodes && p.policy == policy)
            .expect("swept point")
            .storage_tx_bytes
    };
    let mid = node_counts[node_counts.len().saturating_sub(2)];
    let top = *node_counts.last().expect("non-empty sweep");
    let entries: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"policy\": \"{}\", \"nodes\": {}, \"registrations\": {}, \
                 \"wire_bytes\": {}, \"storage_tx_bytes\": {}, \"peer_tx_bytes\": {}, \
                 \"peer_hits\": {}, \"peer_misses\": {}, \"mean_register_secs\": {}, \
                 \"payload_logical_bytes\": {}, \"verified_bytes\": {}, \"wall_secs\": {}}}",
                p.policy.name(),
                p.nodes,
                p.registrations,
                p.wire_bytes,
                p.storage_tx_bytes,
                p.peer_tx_bytes,
                p.peer_hits,
                p.peer_misses,
                fmt_f(p.mean_register_secs),
                p.payload_logical_bytes,
                p.verified_bytes,
                fmt_f(p.wall_secs),
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {},\n  \"images\": {},\n  \"block_size\": 16384,\n  \
         \"node_counts\": [{}],\n  \
         \"policies\": [\"unicast\", \"multicast\", \"pipeline\", \"peer-assisted\"],\n  \
         \"peer_below_unicast_1k\": {},\n  \
         \"peer_below_unicast_10k\": {},\n  \
         \"multicast_below_unicast_1k\": {},\n  \
         \"deterministic_across_threads\": true,\n  \
         \"verify_once\": {},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        cfg.seed,
        cfg.images.min(DIST_IMAGES),
        node_counts.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", "),
        tx(mid, DistributionPolicy::PeerAssisted) < tx(mid, DistributionPolicy::Unicast),
        tx(top, DistributionPolicy::PeerAssisted) < tx(top, DistributionPolicy::Unicast),
        tx(mid, DistributionPolicy::Multicast { fanout: 8 })
            < tx(mid, DistributionPolicy::Unicast),
        verify_once(points),
        entries.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_orders_policies_and_stays_deterministic() {
        let cfg = ExperimentConfig::smoke();
        let points = run_distribution(&cfg, &[6, 12]);
        assert_eq!(points.len(), 8, "4 policies x 2 fleet sizes");
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

    #[test]
    fn json_has_the_acceptance_fields() {
        let cfg = ExperimentConfig::smoke();
        let mut points = Vec::new();
        for n in [12u32, 16] {
            for policy in DistributionPolicy::standard_set() {
                points.push(run_point(&cfg, policy, n));
            }
        }
        let json = render_json(&cfg, &[12, 16], &points);
        for key in [
            "\"peer_below_unicast_1k\": true",
            "\"peer_below_unicast_10k\": true",
            "\"multicast_below_unicast_1k\": true",
            "\"deterministic_across_threads\": true",
            "\"verify_once\": true",
            "\"verified_bytes\"",
            "\"storage_tx_bytes\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
