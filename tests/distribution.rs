//! Cross-crate coverage of the distribution redesign: every
//! [`DistributionPolicy`] drives `register`/`rehoard_cache`/`node_rejoin`
//! through the one `TransferPlan` executor, lands the same replicated
//! state, charges shape-appropriate storage-uplink bytes, survives faults
//! and partitions, and stays bit-identical at any worker-thread count.

use squirrel_repro::core::{
    DistributionPolicy, FaultConfig, FaultPlan, RejoinOutcome, Squirrel, SquirrelConfig,
    SquirrelError,
};
use squirrel_repro::dataset::{Corpus, CorpusConfig};
use std::sync::Arc;

fn system(policy: DistributionPolicy, images: u32, nodes: u32, threads: usize) -> Squirrel {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        n_images: images,
        scale: 4096,
        ..CorpusConfig::azure(4096, 21)
    }));
    Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(nodes)
            .block_size(16 * 1024)
            .threads(threads)
            .distribution(policy)
            .build(),
        corpus,
    )
}

#[test]
fn every_policy_lands_the_same_replicated_state() {
    let mut reference: Option<Vec<u64>> = None;
    for policy in DistributionPolicy::standard_set() {
        let mut sq = system(policy, 3, 4, 1);
        for img in 0..3 {
            let r = sq.register(img).expect("register");
            assert_eq!(r.nodes_updated, 4, "{}", policy.name());
            assert_eq!(r.nodes_lagging, 0, "{}", policy.name());
        }
        assert!(sq.check_replication().is_consistent(), "{}", policy.name());
        // The receiver-side bytes are shape-invariant: every ccVolume ends
        // at the same disk footprint no matter which links carried them.
        let disks: Vec<u64> = (0..4)
            .map(|n| sq.ccvol_stats(n).expect("node").total_disk_bytes())
            .collect();
        match &reference {
            Some(want) => assert_eq!(&disks, want, "{}", policy.name()),
            None => reference = Some(disks),
        }
    }
}

#[test]
fn register_reports_are_bit_identical_across_thread_counts() {
    for policy in DistributionPolicy::standard_set() {
        let run = |threads| {
            let mut sq = system(policy, 4, 6, threads);
            let reports: Vec<_> = (0..4)
                .map(|img| sq.register(img).expect("register"))
                .collect();
            assert!(
                sq.check_replication().is_consistent(),
                "{} threads={threads}",
                policy.name()
            );
            (
                reports,
                sq.scvol_stats(),
                sq.ccvol_stats(0),
                sq.metrics().snapshot(),
            )
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(
                run(threads),
                reference,
                "{} threads={threads}",
                policy.name()
            );
        }
    }
}

#[test]
fn storage_uplink_bytes_rank_peer_and_pipeline_below_multicast_below_unicast() {
    let nodes = 16;
    let tx_for = |policy| {
        let mut sq = system(policy, 1, nodes, 1);
        let r = sq.register(0).expect("register");
        (sq.network().storage_tx_total(), r.diff_wire_bytes)
    };
    let (unicast, wire) = tx_for(DistributionPolicy::Unicast);
    let (multicast, _) = tx_for(DistributionPolicy::Multicast { fanout: 8 });
    let (pipeline, _) = tx_for(DistributionPolicy::Pipeline);
    let (peer, _) = tx_for(DistributionPolicy::PeerAssisted);

    assert_eq!(
        unicast,
        u64::from(nodes) * wire,
        "serial uplink pays per receiver"
    );
    assert_eq!(multicast, 8 * wire, "tree uplink pays the fanout");
    assert_eq!(pipeline, wire, "chain uplink pays once");
    assert_eq!(peer, wire, "peers re-serve everything past the seed copy");
    assert!(peer < multicast && multicast < unicast);
}

#[test]
fn peer_assisted_register_charges_peers_and_counts_hits() {
    let nodes = 8u32;
    let mut sq = system(DistributionPolicy::PeerAssisted, 1, nodes, 1);
    let r = sq.register(0).expect("register");
    assert_eq!(r.nodes_updated, nodes);
    let wire = r.diff_wire_bytes;
    assert_eq!(sq.network().storage_tx_total(), wire);
    assert_eq!(sq.network().compute_tx_total(), u64::from(nodes - 1) * wire);
    let snap = sq.metrics().snapshot();
    assert_eq!(
        snap.counter("squirrel_dist_transfers_total{policy=\"peer-assisted\"}"),
        Some(1)
    );
    assert_eq!(
        snap.counter("squirrel_dist_storage_bytes_total"),
        Some(wire)
    );
    assert_eq!(
        snap.counter("squirrel_dist_peer_bytes_total"),
        Some(u64::from(nodes - 1) * wire)
    );
    // The storage seed counts as the one miss; every other receiver is a hit.
    assert_eq!(
        snap.counter("squirrel_dist_peer_hits_total"),
        Some(u64::from(nodes - 1))
    );
    assert_eq!(snap.counter("squirrel_dist_peer_misses_total"), Some(1));
}

#[test]
fn group_shape_degrades_to_storage_unicast_when_a_relay_edge_is_cut() {
    // Fanout 1 chains storage -> 0 -> 1 -> 2; cutting the 0<->1 relay edge
    // fails the group transfer atomically, and delivery must degrade to
    // serial storage unicast instead of failing the registration.
    let mut sq = system(DistributionPolicy::Multicast { fanout: 1 }, 1, 3, 1);
    sq.network_mut().partition(0, 1);
    let r = sq.register(0).expect("register");
    assert_eq!(r.nodes_updated, 3);
    assert_eq!(r.nodes_lagging, 0);
    assert_eq!(sq.network().storage_tx_total(), 3 * r.diff_wire_bytes);
    assert!(sq.check_replication().is_consistent());
}

#[test]
fn crashed_recv_leaves_nodes_lagging_and_the_next_register_counts_them() {
    // Satellite regression: a node that misses a registration (every recv
    // attempt crashes) used to be silently swallowed on the next clean
    // register — its MissingBase rejection must be surfaced as
    // `nodes_lagging`, and the repair workflow must pull it back in sync.
    let mut sq = system(DistributionPolicy::Unicast, 3, 3, 1);
    sq.register(0).expect("register 0");

    let crash_all = FaultConfig {
        crash_recv_prob: 1.0,
        max_retries: 2,
        ..FaultConfig::default()
    };
    sq.set_fault_plan(FaultPlan::new(9, crash_all));
    let r = sq.register(1).expect("register 1");
    assert_eq!(r.nodes_updated, 0, "every recv crashed");
    assert_eq!(r.nodes_lagging, 3);
    sq.clear_fault_plan();

    // Clean register: every node misses image 1's snapshot base, so the
    // incremental diff is rejected — counted, not swallowed.
    let r = sq.register(2).expect("register 2");
    assert_eq!(r.nodes_updated, 0);
    assert_eq!(r.nodes_lagging, 3);
    assert!(!sq.check_replication().is_consistent());

    let sync = sq.repair_replication();
    assert_eq!(sync.repaired, 3);
    assert!(sq.check_replication().is_consistent());
}

#[test]
fn rehoard_skips_unqualified_donors_nearest_first() {
    let mut sq = system(DistributionPolicy::PeerAssisted, 1, 6, 1);
    sq.register(0).expect("register");

    // All peers warm: the nearest (node 1) donates.
    let _ = sq.evict_cache(0, 0).expect("evict");
    assert_eq!(sq.rehoard_cache(0, 0).expect("rehoard").peer, Some(1));

    // Offline peers are skipped.
    let _ = sq.evict_cache(0, 0).expect("evict");
    sq.node_offline(1).expect("offline");
    assert_eq!(sq.rehoard_cache(0, 0).expect("rehoard").peer, Some(2));

    // Peers whose own copy was evicted are skipped.
    let _ = sq.evict_cache(0, 0).expect("evict");
    let _ = sq.evict_cache(2, 0).expect("evict donor");
    assert_eq!(sq.rehoard_cache(0, 0).expect("rehoard").peer, Some(3));

    // Partitioned peers are skipped.
    let _ = sq.evict_cache(0, 0).expect("evict");
    sq.network_mut().partition(3, 0);
    assert_eq!(sq.rehoard_cache(0, 0).expect("rehoard").peer, Some(4));

    // Peers holding rotten blocks are skipped (intact copies only).
    let _ = sq.evict_cache(0, 0).expect("evict");
    sq.corrupt_cc_block(4, 0).expect("corrupt donor");
    assert_eq!(sq.rehoard_cache(0, 0).expect("rehoard").peer, Some(5));

    // No qualified peer left: the scVolume serves, charged to storage.
    let _ = sq.evict_cache(0, 0).expect("evict");
    sq.node_offline(5).expect("offline");
    let storage_tx0 = sq.network().storage_tx_total();
    let r = sq.rehoard_cache(0, 0).expect("rehoard");
    assert_eq!(r.peer, None);
    assert_eq!(sq.network().storage_tx_total() - storage_tx0, r.wire_bytes);
}

#[test]
fn rehoard_from_peer_moves_no_storage_bytes() {
    let mut sq = system(DistributionPolicy::PeerAssisted, 1, 4, 1);
    sq.register(0).expect("register");
    let _ = sq.evict_cache(2, 0).expect("evict");
    let storage_tx0 = sq.network().storage_tx_total();
    let compute_tx0 = sq.network().compute_tx_total();
    let r = sq.rehoard_cache(2, 0).expect("rehoard");
    assert_eq!(r.peer, Some(1), "nearest warm peer donates");
    assert_eq!(
        sq.network().storage_tx_total(),
        storage_tx0,
        "storage uplink untouched"
    );
    assert_eq!(sq.network().compute_tx_total() - compute_tx0, r.wire_bytes);
    assert!(sq.has_cache(2, 0));
    assert!(sq.check_replication().is_consistent());
}

#[test]
fn rejoin_pulls_from_scrub_clean_peer_through_a_cut_storage_link() {
    let storage = 4; // first storage node of a 4-compute-node cluster
    let mut sq = system(DistributionPolicy::PeerAssisted, 2, 4, 1);
    sq.register(0).expect("register 0");
    sq.node_offline(2).expect("offline");
    sq.register(1).expect("register 1");

    // Nearest in-sync candidate (node 1) holds rot, so the scrub gate must
    // pass it over for node 3; the cut storage link must not matter.
    sq.corrupt_cc_block(1, 0).expect("corrupt");
    sq.network_mut().partition(storage, 2);
    let storage_tx0 = sq.network().storage_tx_total();
    let hits0 = sq
        .metrics()
        .snapshot()
        .counter("squirrel_dist_peer_hits_total")
        .unwrap_or(0);
    let out = sq.node_rejoin(2).expect("rejoin");
    assert!(matches!(out, RejoinOutcome::Incremental { .. }), "{out:?}");
    assert_eq!(
        sq.network().storage_tx_total(),
        storage_tx0,
        "peer served every byte"
    );
    assert_eq!(
        sq.metrics()
            .snapshot()
            .counter("squirrel_dist_peer_hits_total"),
        Some(hits0 + 1)
    );
}

#[test]
fn rejoin_without_peers_fails_across_a_cut_storage_link() {
    let storage = 4;
    let mut sq = system(DistributionPolicy::Unicast, 2, 4, 1);
    sq.register(0).expect("register 0");
    sq.node_offline(2).expect("offline");
    sq.register(1).expect("register 1");
    sq.network_mut().partition(storage, 2);
    match sq.node_rejoin(2) {
        Err(SquirrelError::Net(_)) => {}
        other => panic!("expected a partitioned rejoin to fail, got {other:?}"),
    }
    // Healing the link lets the ordinary storage path finish the catch-up.
    sq.network_mut().heal(storage, 2);
    assert!(matches!(
        sq.node_rejoin(2).expect("rejoin"),
        RejoinOutcome::Incremental { .. }
    ));
    assert!(sq.check_replication().is_consistent());
}
