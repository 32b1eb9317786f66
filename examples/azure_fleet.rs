//! Azure-fleet scenario: register a census-shaped catalog of images and run
//! the paper's headline measurement — how much disk and memory a compute
//! node spends to hoard *every* cache, and how much network a boot storm
//! costs with and without Squirrel.
//!
//! ```text
//! cargo run --release --example azure_fleet -- [n_images]
//! ```

use squirrel_repro::cluster::LinkKind;
use squirrel_repro::core::{Squirrel, SquirrelConfig};
use squirrel_repro::dataset::{Corpus, CorpusConfig};
use std::sync::Arc;

fn main() {
    let n: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(48);
    let scale = 2048u64;
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        n_images: n,
        scale,
        ..CorpusConfig::azure(scale, 2014)
    }));
    let nodes = 16u32;
    println!("registering {n} census-shaped images on a {nodes}-node cloud...");

    let mut squirrel = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(nodes)
            .link(LinkKind::QdrInfiniband)
            .build(),
        Arc::clone(&corpus),
    );

    let mut total_cache = 0u64;
    let mut total_diff = 0u64;
    for img in 0..n {
        let r = squirrel.register(img).expect("register");
        total_cache += r.cache_bytes;
        total_diff += r.diff_wire_bytes;
    }
    let stats = squirrel.scvol_stats();
    let proj = scale as f64 * 607.0 / n as f64;
    println!(
        "\nall {} caches hoarded on every node:\n  raw caches      {:>8.1} MiB (projected {:>7.1} GiB)\n  cVolume disk    {:>8.1} MiB (projected {:>7.1} GiB; paper: ~10 GB)\n  DDT memory      {:>8.1} MiB (projected {:>7.1} MiB; paper: ~60 MB)\n  mean diff/reg   {:>8.1} KiB",
        n,
        total_cache as f64 / (1 << 20) as f64,
        total_cache as f64 * proj / (1u64 << 30) as f64,
        stats.total_disk_bytes() as f64 / (1 << 20) as f64,
        stats.total_disk_bytes() as f64 * proj / (1u64 << 30) as f64,
        stats.ddt_memory_bytes as f64 / (1 << 20) as f64,
        stats.ddt_memory_bytes as f64 * proj / (1u64 << 20) as f64,
        total_diff as f64 / n as f64 / 1024.0,
    );

    // Boot storm: every node boots 4 distinct images.
    squirrel.network_mut().reset_ledgers();
    let mut warm_boots = 0u32;
    for node in 0..nodes {
        for v in 0..4u32 {
            let img = (node * 4 + v) % n;
            let out = squirrel.boot(node, img).expect("boot");
            warm_boots += out.warm as u32;
        }
    }
    println!(
        "\nboot storm: {} boots, {} warm, compute-node network traffic {} bytes",
        nodes * 4,
        warm_boots,
        squirrel.network().compute_rx_total()
    );
    assert_eq!(
        squirrel.network().compute_rx_total(),
        0,
        "scatter hoarding works"
    );
}
