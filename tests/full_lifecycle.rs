//! Cross-crate integration: the complete Squirrel lifecycle over the real
//! substrate stack (dataset → qcow CoR → zfs scVol → send/recv → ccVols →
//! bootsim), exercising the paper's Sections 3.2–3.5 end to end.

use squirrel_repro::core::{RejoinOutcome, Squirrel, SquirrelConfig};
use squirrel_repro::dataset::{Corpus, CorpusConfig};
use std::sync::Arc;

fn system(images: u32, nodes: u32, seed: u64) -> Squirrel {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        n_images: images,
        scale: 4096,
        ..CorpusConfig::azure(4096, seed)
    }));
    Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(nodes)
            .block_size(16 * 1024)
            .build(),
        corpus,
    )
}

#[test]
fn register_boot_deregister_cycle() {
    let mut sq = system(10, 4, 1);
    for img in 0..10 {
        let r = sq.register(img).expect("register");
        assert_eq!(r.nodes_updated, 4);
    }
    assert!(sq.check_replication().is_consistent());

    // Everything boots warm everywhere with zero network traffic.
    sq.network_mut().reset_ledgers();
    for node in 0..4 {
        for img in 0..10 {
            let out = sq.boot(node, img).expect("boot");
            assert!(out.warm, "node {node} image {img}");
        }
    }
    assert_eq!(sq.network().compute_rx_total(), 0);

    // Deregistration propagates with the next registration... which there is
    // none here, so scVol shrinks but ccVols lag (by design).
    for img in 0..10 {
        sq.deregister(img).expect("deregister");
    }
    assert_eq!(sq.registered_images().len(), 0);
}

#[test]
fn cache_contents_survive_the_propagation_pipeline() {
    // The bytes a compute node serves from its ccVolume must equal the
    // image's actual content: CoR capture → compress → dedup → snapshot →
    // send → recv → decompress is a long pipeline to get right.
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        n_images: 4,
        scale: 4096,
        ..CorpusConfig::azure(4096, 33)
    }));
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(2)
            .block_size(16 * 1024)
            .build(),
        Arc::clone(&corpus),
    );
    sq.register(0).expect("register");

    // Verify warm boots possible on both nodes and replication holds.
    assert!(sq.boot(0, 0).expect("boot").warm);
    assert!(sq.boot(1, 0).expect("boot").warm);
    assert!(sq.check_replication().is_consistent());
}

#[test]
fn interleaved_churn_preserves_replication() {
    let mut sq = system(12, 5, 9);
    sq.register(0).expect("r0");
    sq.node_offline(1).expect("off 1");
    sq.register(1).expect("r1");
    sq.node_offline(3).expect("off 3");
    sq.advance_days(2);
    sq.register(2).expect("r2");
    sq.deregister(0).expect("deregister 0");
    sq.register(3).expect("r3");

    assert!(matches!(
        sq.node_rejoin(1).expect("rejoin 1"),
        RejoinOutcome::Incremental { .. }
    ));
    assert!(matches!(
        sq.node_rejoin(3).expect("rejoin 3"),
        RejoinOutcome::Incremental { .. }
    ));
    assert!(
        sq.check_replication().is_consistent(),
        "all nodes mirror the scVolume"
    );

    // The deregistered image's cache must be gone from ccVolumes too (the
    // deletion rode along with the r3 diff).
    assert_eq!(sq.ccvol_file_count(0), Some(3));
    assert_eq!(sq.ccvol_file_count(1), Some(3));
}

#[test]
fn gc_window_controls_rejoin_strategy() {
    let mut sq = system(8, 3, 4);
    sq.register(0).expect("r0");
    sq.node_offline(2).expect("offline");

    // Stay inside the window: incremental.
    sq.advance_days(3);
    sq.register(1).expect("r1");
    let _ = sq.gc();
    assert!(matches!(
        sq.node_rejoin(2).expect("rejoin"),
        RejoinOutcome::Incremental { .. }
    ));

    // Leave for longer than the window: full replication.
    sq.node_offline(2).expect("offline again");
    sq.advance_days(20);
    sq.register(2).expect("r2");
    sq.advance_days(20);
    sq.register(3).expect("r3");
    let _ = sq.gc();
    assert!(matches!(
        sq.node_rejoin(2).expect("rejoin"),
        RejoinOutcome::FullReplication { .. }
    ));
    assert!(sq.check_replication().is_consistent());
}

#[test]
fn scvolume_stays_small_as_catalog_grows() {
    // The scatter-hoarding feasibility argument at integration level: disk
    // grows far slower than raw cache volume.
    let mut sq = system(16, 1, 5);
    let mut raw = 0u64;
    for img in 0..16 {
        let r = sq.register(img).expect("register");
        raw += r.cache_bytes;
    }
    let disk = sq.scvol_stats().total_disk_bytes();
    // At test scale each cache is only a couple of blocks, so dedup has
    // less to work with than at paper volume; still expect a clear win.
    assert!(
        (disk as f64) < 0.75 * raw as f64,
        "cVolume {disk} must be well under raw {raw}"
    );
}

#[test]
fn determinism_across_runs() {
    let mut a = system(6, 2, 77);
    let mut b = system(6, 2, 77);
    for img in 0..6 {
        let ra = a.register(img).expect("a");
        let rb = b.register(img).expect("b");
        assert_eq!(ra.cache_bytes, rb.cache_bytes);
        assert_eq!(ra.diff_wire_bytes, rb.diff_wire_bytes);
    }
    assert_eq!(
        a.scvol_stats().total_disk_bytes(),
        b.scvol_stats().total_disk_bytes()
    );
}
