//! Figure 18: cumulative network transfer at compute nodes during boot
//! storms, with and without Squirrel's caches, scaling nodes and VMs/node.

use crate::config::ExperimentConfig;
use crate::record::{json_obj, Json, Record};
use squirrel_cluster::LinkKind;
use squirrel_core::{Squirrel, SquirrelConfig};
use std::sync::Arc;

/// One Figure 18 data point.
#[derive(Clone, Copy, Debug)]
pub struct TransferPoint {
    pub nodes: u32,
    pub vms_per_node: u32,
    pub with_caches: bool,
    /// Cumulative compute-node rx bytes (measured corpus scale).
    pub compute_rx_bytes: u64,
}

/// Run one boot storm: `nodes` compute nodes, `vms` VMs per node, each VM
/// booting a *different* image (the paper's hardest case). Returns compute
/// rx bytes.
pub fn boot_storm(
    cfg: &ExperimentConfig,
    nodes: u32,
    vms: u32,
    with_caches: bool,
) -> TransferPoint {
    let corpus = cfg.corpus();
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(nodes)
            .link(LinkKind::QdrInfiniband)
            .build(),
        Arc::clone(&corpus),
    );
    let needed = (nodes as usize * vms as usize).min(corpus.len());
    if with_caches {
        for img in 0..needed as u32 {
            sq.register(img).expect("register");
        }
    }
    // Registration traffic is administrative; Figure 18 charges boot traffic.
    sq.network_mut().reset_ledgers();
    for node in 0..nodes {
        for v in 0..vms {
            let img = ((node as usize * vms as usize + v as usize) % needed.max(1)) as u32;
            let out = sq.boot(node, img).expect("boot");
            assert_eq!(out.warm, with_caches, "cache state must match scenario");
        }
    }
    TransferPoint {
        nodes,
        vms_per_node: vms,
        with_caches,
        compute_rx_bytes: sq.network().compute_rx_total(),
    }
}

/// The full Figure 18 grid.
pub fn run_fig18(cfg: &ExperimentConfig) -> Record {
    let node_counts = [1u32, 4, 8, 16, 32, 64];
    let vm_counts = [1u32, 2, 4, 8];
    let mut points = Vec::new();
    for &n in &node_counts {
        points.push(boot_storm(cfg, n, 8, true));
        points.extend(vm_counts.iter().map(|&v| boot_storm(cfg, n, v, false)));
    }
    // Bytes scale only (per-image volumes).
    let projected = |p: &TransferPoint| p.compute_rx_bytes as f64 * cfg.scale as f64;
    let (with, without): (Vec<&TransferPoint>, Vec<&TransferPoint>) =
        points.iter().partition(|p| p.with_caches);
    let per_vm =
        |p: &TransferPoint| p.compute_rx_bytes as f64 / f64::from(p.nodes * p.vms_per_node);
    let largest = without.last().expect("the 64 x 8 storm");
    Record::paper(
        "fig18",
        cfg,
        vec![
            (
                "zero_bytes_with_caches",
                with.iter().all(|p| p.compute_rx_bytes == 0),
            ),
            // Linear in nodes x VMs/node: every storm moves what the
            // largest one moves per VM, within 25 %.
            (
                "linear_without_caches",
                without
                    .iter()
                    .all(|p| (0.8..=1.25).contains(&(per_vm(p) / per_vm(largest)))),
            ),
            // The paper reads ~180 GB at 512 VMs: gluster serves whole
            // stripes of cold data, we move the blocks a boot touches.
            (
                "diverges_projected_below_paper_180gb",
                projected(largest) < 180e9,
            ),
        ],
        json_obj! {
            "rows": Json::arr(&points, |p| json_obj! {
                p => [nodes, vms_per_node, with_caches, compute_rx_bytes],
                "compute_rx_bytes_projected": projected(p),
            }),
        },
    )
}
