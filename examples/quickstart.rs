//! Quickstart: bring up Squirrel, register an image, boot it everywhere.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use squirrel_repro::core::{Squirrel, SquirrelConfig};
use squirrel_repro::dataset::{Corpus, CorpusConfig};
use std::sync::Arc;

fn main() {
    // A small synthetic image catalog (8 images, 1/256 of paper volume).
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        n_images: 8,
        scale: 256,
        ..CorpusConfig::azure(256, 42)
    }));
    println!("catalog: {} images", corpus.len());
    for img in corpus.iter().take(3) {
        println!(
            "  image {:>2}: {:?} release {}, {} MiB nonzero, {} KiB boot working set",
            img.id(),
            img.spec().family,
            img.spec().release,
            img.nonzero_bytes() >> 20,
            img.cache().bytes() >> 10,
        );
    }

    // Bring up a 8-compute-node cloud with Squirrel's default 64 KiB gzip-6
    // cVolumes.
    let mut squirrel = Squirrel::new(
        SquirrelConfig::builder().compute_nodes(8).build(),
        Arc::clone(&corpus),
    );

    // Register image 0: first boot on a storage node captures the boot
    // working set, which is deduplicated, compressed, snapshotted, and
    // multicast to every compute node's ccVolume.
    let report = squirrel.register(0).expect("register");
    println!(
        "\nregistered image 0: cache {} KiB, diff {} KiB to {} nodes in {:.1}s",
        report.cache_bytes >> 10,
        report.diff_wire_bytes >> 10,
        report.nodes_updated,
        report.seconds,
    );

    // Boot it on every node: all warm, zero network bytes.
    squirrel.network_mut().reset_ledgers();
    for node in 0..8 {
        let boot = squirrel.boot(node, 0).expect("boot");
        assert!(boot.warm);
        println!(
            "  node {node}: warm boot in {:.1}s, {} network bytes",
            boot.report.total_seconds, boot.net_bytes
        );
    }
    println!(
        "\ntotal compute-node network traffic during boots: {} bytes",
        squirrel.network().compute_rx_total()
    );

    let stats = squirrel.scvol_stats();
    println!(
        "scVolume: {} unique blocks, {} KiB physical, {} KiB DDT memory",
        stats.unique_blocks,
        stats.physical_bytes >> 10,
        stats.ddt_memory_bytes >> 10,
    );

    // One snapshot answers the workflow questions: what register put on
    // the wire, which boots hit the hoard, how big the dedup table is.
    let snap = squirrel.metrics().snapshot();
    println!("\nmetrics snapshot:");
    println!(
        "  squirrel_register_wire_bytes_total  {}",
        snap.counter("squirrel_register_wire_bytes_total")
            .unwrap_or(0)
    );
    println!(
        "  squirrel_boot_total{{result=\"warm\"}}   {} across {} nodes",
        snap.counter_sum("squirrel_boot_total"),
        8,
    );
    println!(
        "  squirrel_scvol_ddt_entries          {}",
        snap.gauge_u64("squirrel_scvol_ddt_entries").unwrap_or(0)
    );
    println!(
        "  zpool_recv_streams_total{{ccvol}}     {}",
        snap.counter("zpool_recv_streams_total{pool=\"ccvol\"}")
            .unwrap_or(0)
    );
    // Eight streams applied, one payload proved: the nodes share its buffers
    // — and the eight warm boots after it hashed nothing again.
    println!(
        "  zpool_recv_verified_bytes_total{{ccvol}} {}",
        snap.counter("zpool_recv_verified_bytes_total{pool=\"ccvol\"}")
            .unwrap_or(0)
    );
    println!(
        "  zpool_verify_hashed_bytes_total{{ccvol}} {}",
        snap.counter("zpool_verify_hashed_bytes_total{pool=\"ccvol\"}")
            .unwrap_or(0)
    );

    // Persist the full snapshot (JSON, includes the event journal) for the
    // acceptance record.
    let path = "results/metrics_quickstart.json";
    let _ = std::fs::create_dir_all("results");
    std::fs::write(path, snap.to_json()).expect("write metrics json");
    println!(
        "\nwrote {path} ({} series)",
        snap.counters.len() + snap.gauges.len()
    );
}
