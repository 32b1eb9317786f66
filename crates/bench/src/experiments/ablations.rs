//! Ablations DESIGN.md calls out beyond the paper's own figures:
//!
//! * **Sync mechanism** (Section 3.5's discussion): incremental snapshot
//!   diff via multicast versus an rsync-style per-node full cache transfer.
//! * **CCR decomposition**: how much of the combined ratio comes from
//!   deduplication alone, compression alone, and both (the paper motivates
//!   the combination but never separates the contributions on storage).

use crate::config::ExperimentConfig;
use crate::csvout::{fmt_f, mib, Table};
use squirrel_cluster::LinkKind;
use squirrel_compress::Codec;
use squirrel_core::{Squirrel, SquirrelConfig};
use squirrel_dataset::analysis::{sweep, CompressionSampling, ContentSet};
use squirrel_zfs::{PoolConfig, ZPool};
use std::sync::Arc;

/// One registration's propagation cost under the three sync mechanisms.
#[derive(Clone, Copy, Debug)]
pub struct SyncAblation {
    /// Multicast incremental diff: bytes leaving the storage node.
    pub diff_multicast_tx: u64,
    /// LANTorrent-style pipeline of the diff: storage sends once, nodes
    /// relay; storage egress equals the diff, total fabric bytes are n×diff.
    pub diff_pipeline_fabric: u64,
    /// rsync-style: the full (deduplicated, compressed) cache to every node.
    pub rsync_full_tx: u64,
    pub nodes: u32,
}

/// Compare propagation mechanisms for a sequence of registrations.
pub fn run_ablation_sync(cfg: &ExperimentConfig) -> SyncAblation {
    let corpus = cfg.corpus();
    let nodes = 16u32;
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(nodes)
            .storage_nodes(4)
            .link(LinkKind::GbE)
            .build(),
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
    // Pipeline: same storage egress as multicast, but every relay hop puts
    // the diff on the fabric once more.
    let pipeline_fabric = diff_tx * nodes as u64;
    let result = SyncAblation {
        diff_multicast_tx: diff_tx,
        diff_pipeline_fabric: pipeline_fabric,
        rsync_full_tx: full_tx,
        nodes,
    };
    let mut t = Table::new(&["mechanism", "storage_tx_mib", "fabric_total_mib", "per_registration_mib"]);
    t.push(vec![
        "incremental diff + multicast".into(),
        mib(diff_tx as f64),
        mib(diff_tx as f64),
        mib(diff_tx as f64 / regs as f64),
    ]);
    t.push(vec![
        "incremental diff + LANTorrent pipeline".into(),
        mib(diff_tx as f64),
        mib(pipeline_fabric as f64),
        mib(diff_tx as f64 / regs as f64),
    ]);
    t.push(vec![
        format!("rsync-style full cache x {nodes} nodes"),
        mib(full_tx as f64),
        mib(full_tx as f64),
        mib(full_tx as f64 / regs as f64),
    ]);
    t.print("Ablation: cache propagation mechanism (storage-node egress)");
    t.write(&cfg.out_dir, "ablation_sync").expect("csv");
    result
}

/// CCR decomposition at one block size.
#[derive(Clone, Copy, Debug)]
pub struct CcrAblation {
    pub block_size: usize,
    pub logical_bytes: u64,
    pub dedup_only_bytes: u64,
    pub compress_only_bytes: u64,
    pub both_bytes: u64,
}

/// Measure the decomposition from a corpus sweep (dedup) and pool stores.
pub fn run_ablation_ccr(cfg: &ExperimentConfig, bs: usize) -> CcrAblation {
    let corpus = cfg.corpus();
    let stats = sweep(
        &corpus,
        ContentSet::Caches,
        bs,
        Codec::Gzip(6),
        CompressionSampling::default(),
        cfg.threads,
    );
    let logical = stats.nonzero_bytes();
    let dedup_only = stats.unique_blocks * bs as u64;
    let compress_only = (logical as f64 * stats.mean_compressed_fraction) as u64;
    let both = stats.deduped_compressed_bytes();

    // Cross-check `both` against a real pool store.
    let mut pool = ZPool::new(PoolConfig::new(bs, Codec::Gzip(6)).accounting_only());
    for img in corpus.iter() {
        let cache = img.cache();
        let blocks: Vec<Vec<u8>> = cache.blocks(bs).collect();
        pool.import_file(&format!("c-{}", img.id()), &blocks, cache.bytes());
    }
    let pool_physical = pool.stats().physical_bytes;

    let result = CcrAblation {
        block_size: bs,
        logical_bytes: logical,
        dedup_only_bytes: dedup_only,
        compress_only_bytes: compress_only,
        both_bytes: both,
    };
    let mut t = Table::new(&["configuration", "bytes_mib", "ratio_vs_raw"]);
    let rows: [(&str, u64); 4] = [
        ("raw (nonzero)", logical),
        ("dedup only", dedup_only),
        ("gzip-6 only", compress_only),
        ("dedup + gzip-6", both),
    ];
    for (name, v) in rows {
        t.push(vec![
            name.to_string(),
            mib(v as f64),
            fmt_f(logical as f64 / v.max(1) as f64),
        ]);
    }
    t.push(vec![
        "dedup + gzip-6 (pool-measured)".to_string(),
        mib(pool_physical as f64),
        fmt_f(logical as f64 / pool_physical.max(1) as f64),
    ]);
    t.print(&format!("Ablation: CCR decomposition at {} KiB", bs / 1024));
    t.write(&cfg.out_dir, "ablation_ccr").expect("csv");
    result
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
pub fn run_ablation_hoard(cfg: &ExperimentConfig) -> Vec<HoardPoint> {
    let corpus = cfg.corpus();
    let nodes = 8u32;
    let n = corpus.len().min(32) as u32;
    let boots_per_node = 12u32;
    let mut out = Vec::new();
    let mut t = Table::new(&["hoard_fraction", "cold_boots_pct", "compute_rx_mib"]);
    for &frac in &[1.0f64, 0.5, 0.25] {
        let mut sq = Squirrel::new(
            SquirrelConfig::builder()
                .compute_nodes(nodes)
                .storage_nodes(4)
                .link(LinkKind::GbE)
                .build(),
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
        let point = HoardPoint {
            hoard_fraction: frac,
            cold_fraction: cold as f64 / total as f64,
            compute_rx_bytes: sq.network().compute_rx_total(),
        };
        t.push(vec![
            format!("{frac:.2}"),
            format!("{:.1}", point.cold_fraction * 100.0),
            mib(point.compute_rx_bytes as f64),
        ]);
        out.push(point);
    }
    t.print("Ablation: partial hoarding (replacement policy) vs full replication");
    t.write(&cfg.out_dir, "ablation_hoard").expect("csv");
    out
}

/// One row of the fixed-vs-CDC chunking ablation.
#[derive(Clone, Copy, Debug)]
pub struct ChunkingPoint {
    pub target_bytes: usize,
    pub fixed_dedup: f64,
    pub cdc_dedup: f64,
    pub cdc_mean_chunk: f64,
}

/// Fixed-size vs content-defined chunking on the cache corpus — the claim
/// (Jin & Miller, cited in the paper's related work) that justifies running
/// on ZFS's fixed records in the first place.
pub fn run_ablation_chunking(cfg: &ExperimentConfig) -> Vec<ChunkingPoint> {
    use squirrel_dataset::cdc::{cdc_dedup_caches, fixed_dedup_caches, CdcParams};
    let corpus = cfg.corpus();
    let mut out = Vec::new();
    let mut t = Table::new(&[
        "target_kb",
        "fixed_dedup",
        "cdc_dedup",
        "cdc_mean_chunk_kb",
    ]);
    for &target in &[4096usize, 16384, 65536] {
        let fixed = fixed_dedup_caches(&corpus, target);
        let cdc = cdc_dedup_caches(&corpus, &CdcParams::with_average(target));
        let p = ChunkingPoint {
            target_bytes: target,
            fixed_dedup: fixed.dedup_ratio(),
            cdc_dedup: cdc.dedup_ratio(),
            cdc_mean_chunk: cdc.mean_chunk_bytes,
        };
        t.push(vec![
            (target / 1024).to_string(),
            fmt_f(p.fixed_dedup),
            fmt_f(p.cdc_dedup),
            fmt_f(p.cdc_mean_chunk / 1024.0),
        ]);
        out.push(p);
    }
    t.print("Ablation: fixed-size vs content-defined chunking (cache dedup ratio)");
    t.write(&cfg.out_dir, "ablation_chunking").expect("csv");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_ablation_rows_sane() {
        let cfg = ExperimentConfig { out_dir: None, ..ExperimentConfig::smoke() };
        let pts = run_ablation_chunking(&cfg);
        assert_eq!(pts.len(), 3);
        for p in pts {
            assert!(p.fixed_dedup >= 1.0);
            assert!(p.cdc_dedup >= 1.0);
        }
    }

    #[test]
    fn multicast_diff_cheaper_than_rsync() {
        let cfg = ExperimentConfig::smoke();
        let a = run_ablation_sync(&ExperimentConfig { out_dir: None, ..cfg });
        assert!(
            a.diff_multicast_tx < a.rsync_full_tx,
            "{} vs {}",
            a.diff_multicast_tx,
            a.rsync_full_tx
        );
    }

    #[test]
    fn full_hoarding_has_zero_cold_boots() {
        let cfg = ExperimentConfig::smoke();
        let pts = run_ablation_hoard(&ExperimentConfig { out_dir: None, ..cfg });
        let full = pts.iter().find(|p| p.hoard_fraction == 1.0).expect("full row");
        let quarter = pts.iter().find(|p| p.hoard_fraction == 0.25).expect("quarter row");
        assert_eq!(full.cold_fraction, 0.0);
        assert_eq!(full.compute_rx_bytes, 0);
        assert!(quarter.cold_fraction > 0.0);
        assert!(quarter.compute_rx_bytes > 0);
    }

    #[test]
    fn combined_beats_each_alone() {
        let cfg = ExperimentConfig::smoke();
        let a = run_ablation_ccr(&ExperimentConfig { out_dir: None, ..cfg }, 16384);
        assert!(a.both_bytes < a.dedup_only_bytes);
        assert!(a.both_bytes < a.compress_only_bytes);
        assert!(a.dedup_only_bytes < a.logical_bytes);
        assert!(a.compress_only_bytes < a.logical_bytes);
    }
}
