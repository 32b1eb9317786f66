//! Hoard budgets end to end through the public facade: per-node disk/DDT
//! capacity enforcement, popularity-aware whole-cache eviction, degraded
//! boots from shared storage, and on-demand re-hoarding.

use squirrel_repro::core::{HoardBudget, Squirrel, SquirrelConfig};
use squirrel_repro::dataset::{Corpus, CorpusConfig};
use std::sync::Arc;

const IMAGES: u32 = 6;
const NODES: u32 = 3;

fn system(budget: HoardBudget, seed: u64) -> Squirrel {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        n_images: IMAGES,
        scale: 4096,
        ..CorpusConfig::azure(4096, seed)
    }));
    Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(NODES)
            .block_size(16 * 1024)
            .hoard_budget(budget)
            .build(),
        corpus,
    )
}

/// Per-node footprint once the whole catalog is hoarded, measured on an
/// unlimited probe over the same corpus.
fn full_footprint(seed: u64) -> (u64, u64) {
    let mut probe = system(HoardBudget::unlimited(), seed);
    for img in 0..IMAGES {
        probe.register(img).expect("register");
    }
    let s = probe.ccvol_stats(0).expect("node");
    (s.total_disk_bytes(), s.ddt_memory_bytes)
}

#[test]
fn starved_budget_degrades_the_catalog_but_never_wedges() {
    // A budget smaller than any single cache: every cache is evicted,
    // every image still boots — degraded, from shared storage.
    let mut sq = system(
        HoardBudget {
            disk_bytes: 1,
            ddt_mem_bytes: 1,
        },
        5,
    );
    for img in 0..IMAGES {
        sq.register(img).expect("register");
    }
    let report = sq.enforce_hoard_budgets();
    assert_eq!(report.nodes_over_budget, NODES);
    assert_eq!(report.evictions.len(), (IMAGES * NODES) as usize);
    assert!(report.is_within_budget(), "{report:?}");
    for node in 0..NODES {
        assert_eq!(sq.ccvol_file_count(node), Some(0));
        for img in 0..IMAGES {
            let out = sq.boot(node, img).expect("boot survives eviction");
            assert!(
                !out.warm && out.degraded,
                "node {node} image {img}: {out:?}"
            );
            assert!(out.net_bytes > 0, "degraded boots hit the network");
        }
    }
    // Deliberate evictions are not replication lag.
    assert!(sq.check_replication().is_consistent());
}

#[test]
fn budget_equal_to_footprint_keeps_every_cache() {
    let (disk, ddt) = full_footprint(5);
    let mut sq = system(
        HoardBudget {
            disk_bytes: disk,
            ddt_mem_bytes: ddt,
        },
        5,
    );
    for img in 0..IMAGES {
        sq.register(img).expect("register");
    }
    let report = sq.enforce_hoard_budgets();
    assert!(report.evictions.is_empty(), "{report:?}");
    assert_eq!(report.nodes_over_budget, 0);
    assert!(report.is_within_budget());
    for node in 0..NODES {
        for img in 0..IMAGES {
            assert!(sq.boot(node, img).expect("boot").warm);
        }
    }
}

#[test]
fn eviction_is_least_popular_first_and_rehoard_restores_warm_boots() {
    let (disk, _) = full_footprint(5);
    let mut sq = system(
        HoardBudget {
            disk_bytes: disk - 1,
            ddt_mem_bytes: 0,
        },
        5,
    );
    for img in 0..IMAGES {
        sq.register(img).expect("register");
    }
    // Popularity skew: image i boots IMAGES - i times (image 0 most popular).
    for img in 0..IMAGES {
        for _ in 0..(IMAGES - img) {
            sq.boot(img % NODES, img).expect("skew boot");
        }
    }
    let before = sq.ccvol_stats(0).expect("node");
    let baselines: Vec<_> = (0..IMAGES)
        .map(|img| sq.verify_boot(0, img).expect("baseline verify"))
        .collect();
    let report = sq.enforce_hoard_budgets();
    assert!(!report.evictions.is_empty());
    assert_eq!(report.nodes_over_budget, NODES);
    assert!(report.is_within_budget(), "{report:?}");
    // Each node actually fits now, and the metrics recorded the pass.
    assert!(sq.ccvol_stats(0).expect("node").total_disk_bytes() < disk);
    let snap = sq.metrics().snapshot();
    assert_eq!(
        snap.counter("squirrel_budget_evictions_total"),
        Some(report.evictions.len() as u64)
    );
    assert_eq!(
        snap.gauge_u64("squirrel_hoard_max_disk_bytes"),
        Some(disk - 1)
    );
    // Idempotent: a second pass finds every node within budget.
    let again = sq.enforce_hoard_budgets();
    assert!(
        again.evictions.is_empty() && again.nodes_over_budget == 0,
        "{again:?}"
    );
    // Per node, evictions run least-popular-first (ascending popularity).
    for node in 0..NODES {
        let pops: Vec<u64> = report
            .evictions
            .iter()
            .filter(|e| e.node == node)
            .map(|e| e.popularity)
            .collect();
        assert!(
            pops.windows(2).all(|w| w[0] <= w[1]),
            "node {node}: {pops:?}"
        );
    }
    // The least popular image on node 0 went first there.
    let first = report
        .evictions
        .iter()
        .find(|e| e.node == 0)
        .expect("node 0 evicts");
    assert_eq!(first.image, IMAGES - 1, "least-booted image goes first");
    assert!(first.was_cached && first.popularity == 1, "{first:?}");
    assert!(
        first.disk_bytes_freed > 0 && first.ddt_mem_bytes_freed > 0,
        "{first:?}"
    );
    assert!(report.disk_bytes_freed >= first.disk_bytes_freed);

    // Re-hoard on demand: warm boots come back, space accounting matches
    // the first hoard (the purge also slimmed old snapshots, so only the
    // live footprint is compared).
    let evicted_on_0: Vec<u32> = report
        .evictions
        .iter()
        .filter(|e| e.node == 0)
        .map(|e| e.image)
        .collect();
    for &img in &evicted_on_0 {
        // Evicted images boot degraded from shared storage.
        assert!(!sq.has_cache(0, img));
        let out = sq.boot(0, img).expect("degraded boot");
        assert!(
            !out.warm && out.degraded && out.net_bytes > 0,
            "image {img}: {out:?}"
        );
        let re = sq.rehoard_cache(0, img).expect("rehoard");
        assert_eq!((re.node, re.image), (0, img));
        assert!(
            re.wire_bytes > 0 && re.blocks > 0,
            "re-hoard crosses the network"
        );
        assert!(sq.has_cache(0, img));
        // The full decompress-and-compare walk sees the original image
        // bytes, with the same fetch profile as the first hoard.
        assert_eq!(
            sq.verify_boot(0, img).expect("verify"),
            baselines[img as usize]
        );
        let out = sq.boot(0, img).expect("boot");
        assert!(out.warm && !out.degraded, "image {img}: {out:?}");
    }
    let after = sq.ccvol_stats(0).expect("node");
    assert_eq!(after.logical_bytes, before.logical_bytes);
    assert_eq!(after.unique_blocks, before.unique_blocks);
    assert_eq!(after.physical_bytes, before.physical_bytes);
    assert_eq!(after.ddt_memory_bytes, before.ddt_memory_bytes);
    // Re-hoarding pushed the node back over budget; enforcement settles it
    // again, deterministically.
    let again = sq.enforce_hoard_budgets();
    assert!(again.is_within_budget());
    assert!(sq.check_replication().is_consistent());
}

#[test]
fn enforcement_and_metrics_are_thread_invariant() {
    let (disk, _) = full_footprint(9);
    let run = |threads: usize| {
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            n_images: IMAGES,
            scale: 4096,
            ..CorpusConfig::azure(4096, 9)
        }));
        let mut sq = Squirrel::new(
            SquirrelConfig::builder()
                .compute_nodes(NODES)
                .block_size(16 * 1024)
                .threads(threads)
                .hoard_budget(HoardBudget {
                    disk_bytes: disk / 2,
                    ddt_mem_bytes: 0,
                })
                .build(),
            corpus,
        );
        for img in 0..IMAGES {
            sq.register(img).expect("register");
        }
        sq.boot(0, 2).expect("boot");
        let storm = sq.boot_storm(1, 5).expect("storm");
        let report = sq.enforce_hoard_budgets();
        (report, storm.read_checksum, sq.metrics().snapshot())
    };
    let reference = run(1);
    assert!(!reference.0.evictions.is_empty());
    for threads in [2, 8] {
        assert_eq!(run(threads), reference, "threads={threads}");
    }
}

#[test]
fn replication_repair_respects_budget_evictions() {
    let (disk, _) = full_footprint(5);
    let mut sq = system(
        HoardBudget {
            disk_bytes: disk / 2,
            ddt_mem_bytes: 0,
        },
        5,
    );
    for img in 0..IMAGES {
        sq.register(img).expect("register");
    }
    let report = sq.enforce_hoard_budgets();
    assert!(!report.evictions.is_empty());
    // Evicted caches are exempt from the replication invariant, so repair
    // has nothing to do and must not resurrect them.
    assert!(sq.check_replication().is_consistent());
    let sync = sq.repair_replication();
    assert_eq!(sync.repaired, 0, "{sync:?}");
    let still = sq.enforce_hoard_budgets();
    assert!(
        still.evictions.is_empty(),
        "repair resurrected caches: {still:?}"
    );
}
