//! Node-churn scenario (paper Section 3.5): compute nodes fail, miss cache
//! registrations, and catch up when they return — incrementally inside the
//! GC window, by full re-replication beyond it.
//!
//! ```text
//! cargo run --release --example node_churn
//! ```

use squirrel_repro::core::{RejoinOutcome, Squirrel, SquirrelConfig};
use squirrel_repro::dataset::{Corpus, CorpusConfig};
use std::sync::Arc;

fn main() {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        n_images: 12,
        scale: 4096,
        ..CorpusConfig::azure(4096, 99)
    }));
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(4)
            .gc_window_days(7)
            .build(),
        Arc::clone(&corpus),
    );

    sq.register(0).expect("register");
    sq.register(1).expect("register");
    println!("day {}: images 0,1 registered on all 4 nodes", sq.today());

    // Node 3 crashes; two more images arrive while it is down.
    sq.node_offline(3).expect("offline");
    sq.advance_days(2);
    sq.register(2).expect("register");
    sq.register(3).expect("register");
    println!(
        "day {}: node 3 offline, images 2,3 registered (node 3 has {} caches, others {})",
        sq.today(),
        sq.ccvol_file_count(3).expect("node"),
        sq.ccvol_file_count(0).expect("node"),
    );

    // Back within the window: incremental catch-up.
    let outcome = sq.node_rejoin(3).expect("rejoin");
    match outcome {
        RejoinOutcome::Incremental { wire_bytes } => {
            println!(
                "day {}: node 3 rejoined with an incremental stream of {} KiB",
                sq.today(),
                wire_bytes >> 10
            );
        }
        other => panic!("expected incremental catch-up, got {other:?}"),
    }
    assert!(sq.check_replication().is_consistent());

    // Node 2 goes down for longer than the GC window.
    sq.node_offline(2).expect("offline");
    sq.advance_days(10);
    sq.register(4).expect("register");
    sq.advance_days(10);
    sq.register(5).expect("register");
    let _ = sq.gc();
    println!(
        "day {}: node 2 was away 20 days; GC collected the old snapshots",
        sq.today()
    );

    let outcome = sq.node_rejoin(2).expect("rejoin");
    match outcome {
        RejoinOutcome::FullReplication { wire_bytes } => {
            println!(
                "node 2 needed a full scVolume replication: {} KiB (still only a few caches' worth)",
                wire_bytes >> 10
            );
        }
        other => panic!("expected full replication, got {other:?}"),
    }
    assert!(sq.check_replication().is_consistent());
    println!("\nall {} nodes consistent with the scVolume again", 4);
}
