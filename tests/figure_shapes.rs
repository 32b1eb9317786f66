//! Cross-crate integration: the figure shapes that are read off a running
//! `Squirrel`'s metric snapshot (Figures 6, 13, 18). Every other shape claim
//! — who wins, by roughly what factor, where crossovers fall — is a named
//! gate of the figure's `PAPER_<name>.json` record, enforced at the
//! reference configuration by `squirrel-experiments ci` and at smoke scale
//! by `squirrel-bench`'s record table test.

use squirrel_repro::core::{Squirrel, SquirrelConfig};
use squirrel_repro::dataset::{Corpus, CorpusConfig};
use std::sync::Arc;

/// A small running system for the metric-snapshot figures.
fn system(nodes: u32, images: u32) -> Squirrel {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        n_images: images,
        scale: 2048,
        ..CorpusConfig::azure(2048, 2014)
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
fn figure13_ddt_growth_is_sublinear_in_registrations() {
    // Figure 13: the scVolume's dedup table grows far slower than the
    // number of hoarded caches — read straight off the metric snapshot's
    // `squirrel_scvol_ddt_entries` gauge after each registration. Like the
    // real catalog, the census head is one dominant family, so consecutive
    // registrations share heavily.
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        scale: 1024,
        ..CorpusConfig::test_corpus(16, 77)
    }));
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(1)
            .block_size(16 * 1024)
            .build(),
        corpus,
    );
    let mut ddt_after = Vec::new();
    for img in 0..8 {
        sq.register(img).expect("register");
        let snap = sq.metrics().snapshot();
        ddt_after.push(
            snap.gauge_u64("squirrel_scvol_ddt_entries")
                .expect("gauge set"),
        );
    }
    assert!(ddt_after[0] > 0);
    assert!(
        ddt_after.windows(2).all(|w| w[0] <= w[1]),
        "DDT only grows: {ddt_after:?}"
    );
    assert!(
        (ddt_after[7] as f64) < 5.0 * ddt_after[0] as f64,
        "eight caches must cost far less than eight DDTs: {ddt_after:?}"
    );
    // Cross-check against the per-block dedup counters: hits mean sharing.
    let snap = sq.metrics().snapshot();
    let hits = snap
        .counter("zpool_ddt_hits_total{pool=\"scvol\"}")
        .unwrap_or(0);
    let misses = snap
        .counter("zpool_ddt_misses_total{pool=\"scvol\"}")
        .expect("misses");
    assert!(hits > 0, "cross-image sharing must produce DDT hits");
    assert_eq!(ddt_after[7], misses, "every unique block is one DDT entry");
}

#[test]
fn figure18_warm_boots_move_no_bytes_cold_boots_do() {
    // Figure 18: compute-node NIC traffic during a boot storm, from the
    // snapshot's network counters instead of the ledger getters.
    let mut sq = system(4, 8);
    sq.register(0).expect("register");
    let before = sq.metrics().snapshot();
    for node in 0..4 {
        assert!(sq.boot(node, 0).expect("boot").warm);
    }
    let after_warm = sq.metrics().snapshot();
    assert_eq!(
        after_warm.counter("squirrel_boot_net_bytes_total"),
        before.counter("squirrel_boot_net_bytes_total").or(Some(0)),
        "warm boots add nothing to the boot traffic counter"
    );
    assert_eq!(
        after_warm.counter_sum("net_rx_bytes_total"),
        before.counter_sum("net_rx_bytes_total"),
        "warm boots put no bytes on any link"
    );
    for node in 0..4 {
        assert!(!sq.boot(node, 5).expect("boot").warm);
    }
    let after_cold = sq.metrics().snapshot();
    assert!(
        after_cold
            .counter("squirrel_boot_net_bytes_total")
            .expect("counter")
            > after_warm
                .counter("squirrel_boot_net_bytes_total")
                .unwrap_or(0),
        "cold boots cross the network"
    );
    assert_eq!(
        after_cold.counter("squirrel_boot_total{node=\"0\",result=\"warm\"}"),
        Some(1)
    );
    assert_eq!(
        after_cold.counter("squirrel_boot_total{node=\"0\",result=\"cold\"}"),
        Some(1)
    );
}

#[test]
fn figure6_registration_wire_beats_raw_cache() {
    // Figure 6's feasibility: what a registration multicasts (dedup +
    // gzip snapshot diff) is much smaller than the raw cache it hoards —
    // taken from the register counters of the snapshot.
    let mut sq = system(2, 8);
    for img in 0..4 {
        sq.register(img).expect("register");
    }
    let snap = sq.metrics().snapshot();
    let wire = snap
        .counter("squirrel_register_wire_bytes_total")
        .expect("wire");
    let cache = snap
        .counter("squirrel_register_cache_bytes_total")
        .expect("cache");
    assert!(
        wire < cache,
        "diff wire {wire} must be under raw cache {cache}"
    );
    // The same reduction seen by the compression stage of the pool.
    let c_in = snap
        .counter("zpool_compress_in_bytes_total{pool=\"scvol\"}")
        .expect("in");
    let c_out = snap
        .counter("zpool_compress_out_bytes_total{pool=\"scvol\"}")
        .expect("out");
    assert!(
        c_out < c_in,
        "gzip-6 must shrink cache records: {c_out} vs {c_in}"
    );
}
