//! Figure 11: average boot time versus cVolume block size, with the three
//! reference lines (qcow2-over-XFS baseline, cold cache, warm cache on XFS).
//!
//! The cVolume parameters fed to the boot simulator are *measured* from a
//! real pool holding the whole cache corpus at each block size (compressed
//! fraction, DDT entries, pool span, cross-shared fraction), then projected
//! to paper volume by the corpus scale factor.

use crate::config::{ExperimentConfig, BOOT_BS_SWEEP};
use crate::csvout::{fmt_f, Table};
use squirrel_bootsim::{Backend, BootSim, DedupVolumeParams};
use squirrel_compress::Codec;
use squirrel_core::paper_scale_trace;
use squirrel_dataset::Corpus;
use squirrel_zfs::{PoolConfig, ZPool};

/// Measured cVolume parameters at one block size.
#[derive(Clone, Copy, Debug)]
pub struct CvolMeasurement {
    pub block_size: usize,
    pub compressed_fraction: f64,
    pub ddt_entries_projected: u64,
    pub pool_physical_projected: u64,
    pub mean_shared_fraction: f64,
}

/// Store all caches into a pool at `bs` and measure the simulator inputs.
pub fn measure_cvol(corpus: &Corpus, bs: usize) -> CvolMeasurement {
    let mut pool = ZPool::new(PoolConfig::new(bs, Codec::Gzip(6)).accounting_only());
    for img in corpus.iter() {
        let cache = img.cache();
        let blocks: Vec<Vec<u8>> = cache.blocks(bs).collect();
        pool.import_file(&format!("c-{}", img.id()), &blocks, cache.bytes());
    }
    let stats = pool.stats();
    let scale = corpus.config().scale;
    let shared: f64 = corpus
        .iter()
        .filter_map(|img| pool.file_shared_fraction(&format!("c-{}", img.id()), 1))
        .sum::<f64>()
        / corpus.len().max(1) as f64;
    CvolMeasurement {
        block_size: bs,
        compressed_fraction: (stats.physical_bytes as f64
            / (stats.unique_blocks.max(1) * stats.block_size) as f64)
            .clamp(0.02, 1.0),
        // Entry count scales with corpus bytes; project to the 607-image,
        // full-volume catalog.
        ddt_entries_projected: (stats.unique_blocks as f64
            * scale as f64
            * 607.0
            / corpus.len().max(1) as f64) as u64,
        pool_physical_projected: (stats.physical_bytes as f64
            * scale as f64
            * 607.0
            / corpus.len().max(1) as f64) as u64,
        mean_shared_fraction: shared,
    }
}

/// One Figure 11 row.
#[derive(Clone, Copy, Debug)]
pub struct BootPoint {
    pub block_size: usize,
    pub warm_zfs_s: f64,
    pub qcow2_xfs_s: f64,
    pub cold_xfs_s: f64,
    pub warm_xfs_s: f64,
}

/// Boot a sample of images against each backend and average.
pub fn fig11_points(cfg: &ExperimentConfig, block_sizes: &[usize], sample: usize) -> Vec<BootPoint> {
    let corpus = cfg.corpus();
    let sim = BootSim::new();
    let scale = corpus.config().scale;
    let sample: Vec<u32> = (0..corpus.len() as u32)
        .step_by((corpus.len() / sample.max(1)).max(1))
        .collect();

    // The three flat reference lines are block-size independent.
    let mut base_sum = 0.0;
    let mut cold_sum = 0.0;
    let mut warmx_sum = 0.0;
    for &id in &sample {
        let img = corpus.image(id);
        let ws = img.cache().bytes() * scale;
        let image_bytes = img.virtual_bytes() * scale;
        let trace = paper_scale_trace(ws, id as u64);
        base_sum += sim
            .boot(&trace, &Backend::BaseImageXfs { image_bytes })
            .total_seconds;
        cold_sum += sim
            .boot(&trace, &Backend::ColdCache { net_mbps: 112.0, image_bytes })
            .total_seconds;
        warmx_sum += sim.boot(&trace, &Backend::WarmCacheXfs).total_seconds;
    }
    let n = sample.len() as f64;
    let (base, cold, warmx) = (base_sum / n, cold_sum / n, warmx_sum / n);

    block_sizes
        .iter()
        .map(|&bs| {
            let m = measure_cvol(&corpus, bs);
            let mut zfs_sum = 0.0;
            for &id in &sample {
                let img = corpus.image(id);
                let ws = img.cache().bytes() * scale;
                let trace = paper_scale_trace(ws, id as u64);
                let params = DedupVolumeParams {
                    record_size: bs as u64,
                    compressed_fraction: m.compressed_fraction,
                    ddt_entries: m.ddt_entries_projected,
                    pool_physical_bytes: m.pool_physical_projected.max(1),
                    shared_fraction: m.mean_shared_fraction,
                    ..DedupVolumeParams::new(bs as u64)
                };
                zfs_sum += sim
                    .boot(&trace, &Backend::DedupVolume(params))
                    .total_seconds;
            }
            BootPoint {
                block_size: bs,
                warm_zfs_s: zfs_sum / n,
                qcow2_xfs_s: base,
                cold_xfs_s: cold,
                warm_xfs_s: warmx,
            }
        })
        .collect()
}

/// Render + persist Figure 11.
pub fn run_fig11(cfg: &ExperimentConfig) -> Vec<BootPoint> {
    let pts = fig11_points(cfg, &BOOT_BS_SWEEP, 24);
    let mut t = Table::new(&[
        "block_kb",
        "warm_caches_zfs_s",
        "qcow2_xfs_s",
        "cold_caches_xfs_s",
        "warm_caches_xfs_s",
    ]);
    for p in &pts {
        t.push(vec![
            (p.block_size / 1024).to_string(),
            fmt_f(p.warm_zfs_s),
            fmt_f(p.qcow2_xfs_s),
            fmt_f(p.cold_xfs_s),
            fmt_f(p.warm_xfs_s),
        ]);
    }
    t.print("Figure 11: average boot time from deduplicated, compressed VMI caches");
    t.write(&cfg.out_dir, "fig11").expect("csv");
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_shape_holds_on_smoke_corpus() {
        let pts = fig11_points(&ExperimentConfig::smoke(), &[1024, 65536, 131072], 4);
        let (p1k, p64k, p128k) = (&pts[0], &pts[1], &pts[2]);
        // Small blocks much slower; 128 KiB slower than 64 KiB; warm beats
        // baseline at the sweet spot; cold is the slowest reference line.
        assert!(p1k.warm_zfs_s > 1.3 * p64k.warm_zfs_s, "{pts:?}");
        assert!(p128k.warm_zfs_s > p64k.warm_zfs_s, "{pts:?}");
        assert!(p64k.warm_zfs_s < p64k.qcow2_xfs_s, "{pts:?}");
        assert!(p64k.cold_xfs_s > p64k.qcow2_xfs_s, "{pts:?}");
        assert!(p64k.warm_xfs_s < p64k.qcow2_xfs_s, "{pts:?}");
    }

    #[test]
    fn measured_params_move_with_block_size() {
        let corpus = ExperimentConfig::smoke().corpus();
        let small = measure_cvol(&corpus, 4096);
        let large = measure_cvol(&corpus, 65536);
        assert!(small.ddt_entries_projected > large.ddt_entries_projected);
        assert!(small.compressed_fraction > large.compressed_fraction, "small blocks compress worse");
    }
}
