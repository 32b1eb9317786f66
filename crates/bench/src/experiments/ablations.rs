//! Ablations DESIGN.md calls out beyond the paper's own figures:
//!
//! * **Sync mechanism** (Section 3.5's discussion): incremental snapshot
//!   diff via multicast versus an rsync-style per-node full cache transfer.
//! * **CCR decomposition**: how much of the combined ratio comes from
//!   deduplication alone, compression alone, and both (the paper motivates
//!   the combination but never separates the contributions on storage).

use crate::config::ExperimentConfig;
use crate::experiments::storage::{store_corpus, StoreSet};
use crate::experiments::sweeps::stats;
use crate::record::{json_obj, Json, Record};
use squirrel_compress::Codec;
use squirrel_core::{Squirrel, SquirrelConfig};
use squirrel_dataset::analysis::ContentSet;
use std::sync::Arc;

/// Compare propagation mechanisms for a sequence of registrations.
pub fn run_ablation_sync(cfg: &ExperimentConfig) -> Record {
    let corpus = cfg.corpus();
    let nodes = 16u32;
    let mut sq = Squirrel::new(
        SquirrelConfig::builder().compute_nodes(nodes).build(),
        Arc::clone(&corpus),
    );
    let regs = corpus.len().min(24) as u32;
    let mut diff_tx = 0u64;
    let mut full_tx = 0u64;
    for img in 0..regs {
        let r = sq.register(img).expect("register");
        // Multicast: the diff leaves the storage node once.
        diff_tx += r.diff_wire_bytes;
        // rsync-style: each node pulls the whole (compressed) cache.
        full_tx += r.cache_bytes / 2 * nodes as u64; // ~gzip'd cache per node
    }
    // Storage egress and total fabric bytes per mechanism. A LANTorrent
    // pipeline has multicast's egress, but every relay hop puts the diff on
    // the fabric once more.
    let rows = [
        ("incremental diff + multicast", diff_tx, diff_tx),
        (
            "incremental diff + LANTorrent pipeline",
            diff_tx,
            diff_tx * nodes as u64,
        ),
        ("rsync-style full cache to every node", full_tx, full_tx),
    ];
    Record::paper(
        "ablation_sync",
        cfg,
        vec![("diff_multicast_below_rsync", diff_tx < full_tx)],
        json_obj! {
            "nodes": nodes,
            "registrations": regs,
            "rows": Json::arr(rows, |(mechanism, storage_tx_bytes, fabric_bytes)| json_obj! {
                "mechanism": mechanism,
                "storage_tx_bytes": storage_tx_bytes,
                "fabric_bytes": fabric_bytes,
            }),
        },
    )
}

/// CCR decomposition at the paper's 64 KiB operating point, from a corpus
/// sweep, cross-checked against a real pool store.
pub fn run_ablation_ccr(cfg: &ExperimentConfig) -> Record {
    let corpus = cfg.corpus();
    let bs = 64 * 1024;
    let stats = stats(cfg, &corpus, ContentSet::Caches, bs, Codec::Gzip(6));
    let logical = stats.nonzero_bytes();
    let dedup_only = stats.unique_byte_sum;
    let compress_only = (logical as f64 * stats.mean_compressed_fraction) as u64;
    let both = stats.deduped_compressed_bytes();
    let pool_physical = store_corpus(&corpus, StoreSet::Caches, bs)
        .stats()
        .physical_bytes;

    let rows = [
        ("raw (nonzero)", logical),
        ("dedup only", dedup_only),
        ("gzip-6 only", compress_only),
        ("dedup + gzip-6", both),
        ("dedup + gzip-6 (pool-measured)", pool_physical),
    ];
    Record::paper(
        "ablation_ccr",
        cfg,
        vec![
            (
                "combined_beats_each_alone",
                both < dedup_only
                    && both < compress_only
                    && dedup_only < logical
                    && compress_only < logical,
            ),
            (
                "pool_agrees_within_10pct",
                both.abs_diff(pool_physical) * 10 <= pool_physical,
            ),
        ],
        json_obj! {
            "block_size": bs,
            "rows": Json::arr(rows, |(configuration, bytes)| json_obj! {
                "configuration": configuration,
                "bytes": bytes,
                "ratio_vs_raw": logical as f64 / bytes.max(1) as f64,
            }),
        },
    )
}

/// One row of the partial-hoarding ablation.
#[derive(Clone, Copy, Debug)]
pub struct HoardPoint {
    /// Fraction of the catalog hoarded per node (1.0 = Squirrel).
    pub hoard_fraction: f64,
    /// Fraction of boots that went cold.
    pub cold_fraction: f64,
    /// Compute-node rx bytes during the boot storm.
    pub compute_rx_bytes: u64,
}

/// Partial hoarding: the traditional capacity-limited alternative (keep
/// only some caches per node, replacement-policy style) that the paper's
/// fully replicated design argues against. Each node keeps the most
/// *popular* caches; boots draw images Zipf-popular, so the kept set is the
/// best case for a replacement policy — and still loses.
pub fn run_ablation_hoard(cfg: &ExperimentConfig) -> Record {
    let corpus = cfg.corpus();
    let nodes = 8u32;
    let n = corpus.len().min(32) as u32;
    let boots_per_node = 12u32;
    let mut points = Vec::new();
    for &frac in &[1.0f64, 0.5, 0.25] {
        let mut sq = Squirrel::new(
            SquirrelConfig::builder().compute_nodes(nodes).build(),
            Arc::clone(&corpus),
        );
        for img in 0..n {
            sq.register(img).expect("register");
        }
        // Capacity limit: evict all but the most popular `keep` caches.
        // Popularity rank == image id here (boots below draw low ids most).
        let keep = ((n as f64 * frac).ceil() as u32).max(1);
        for node in 0..nodes {
            for img in keep..n {
                let _ = sq.evict_cache(node, img).expect("evict");
            }
        }
        sq.network_mut().reset_ledgers();
        let mut cold = 0u32;
        let mut total = 0u32;
        for node in 0..nodes {
            for b in 0..boots_per_node {
                // Zipf-ish popularity: quadratic skew toward low image ids.
                let u = ((node * 131 + b * 17 + 7) % 100) as f64 / 100.0;
                let img = ((u * u * n as f64) as u32).min(n - 1);
                let outc = sq.boot(node, img).expect("boot");
                cold += (!outc.warm) as u32;
                total += 1;
            }
        }
        points.push(HoardPoint {
            hoard_fraction: frac,
            cold_fraction: cold as f64 / total as f64,
            compute_rx_bytes: sq.network().compute_rx_total(),
        });
    }
    let (full, partial) = points.split_first().expect("the full-hoard row");
    Record::paper(
        "ablation_hoard",
        cfg,
        vec![
            (
                "full_hoard_zero_cold",
                full.cold_fraction == 0.0 && full.compute_rx_bytes == 0,
            ),
            (
                "partial_hoard_goes_cold",
                partial
                    .iter()
                    .all(|p| p.cold_fraction > 0.0 && p.compute_rx_bytes > 0),
            ),
        ],
        json_obj! {
            "nodes": nodes,
            "images": n,
            "boots_per_node": boots_per_node,
            "rows": Json::arr(&points, |p| json_obj! {
                p => [hoard_fraction, cold_fraction, compute_rx_bytes],
            }),
        },
    )
}

/// Fixed-size vs content-defined chunking on the cache corpus — the claim
/// (Jin & Miller, cited in the paper's related work) that justifies running
/// on ZFS's fixed records in the first place.
pub fn run_ablation_chunking(cfg: &ExperimentConfig) -> Record {
    use squirrel_dataset::cdc::{cdc_dedup_caches, fixed_dedup_caches, CdcParams};
    let corpus = cfg.corpus();
    // (target bytes, fixed dedup, CDC dedup, CDC mean chunk bytes)
    let rows: Vec<(usize, f64, f64, f64)> = [4096usize, 16384, 65536]
        .iter()
        .map(|&target| {
            let fixed = fixed_dedup_caches(&corpus, target);
            let cdc = cdc_dedup_caches(&corpus, &CdcParams::with_average(target));
            (
                target,
                fixed.dedup_ratio(),
                cdc.dedup_ratio(),
                cdc.mean_chunk_bytes,
            )
        })
        .collect();
    Record::paper(
        "ablation_chunking",
        cfg,
        // "Equally well (or sometimes even better)": never more than 10 %
        // behind CDC.
        vec![(
            "fixed_within_10pct_of_cdc",
            rows.iter().all(|r| r.1 >= 0.9 * r.2),
        )],
        json_obj! {
            "rows": Json::arr(&rows, |&(target, fixed, cdc, mean_chunk)| json_obj! {
                "target_bytes": target,
                "fixed_dedup": fixed,
                "cdc_dedup": cdc,
                "cdc_mean_chunk_bytes": mean_chunk,
            }),
        },
    )
}
