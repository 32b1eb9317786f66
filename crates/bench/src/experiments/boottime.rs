//! Figure 11: average boot time versus cVolume block size, with the three
//! reference lines (qcow2-over-XFS baseline, cold cache, warm cache on XFS).
//!
//! The cVolume parameters fed to the boot simulator are *measured* from a
//! real pool holding the whole cache corpus at each block size (compressed
//! fraction, DDT entries, pool span, cross-shared fraction), then projected
//! to paper volume by the corpus scale factor.

use crate::config::{ExperimentConfig, BOOT_BS_SWEEP};
use crate::experiments::storage::{store_corpus, stored_name, StoreSet};
use crate::record::{json_obj, Json, Record};
use squirrel_bootsim::{Backend, BootSim, DedupVolumeParams};
use squirrel_core::paper_scale_trace;
use squirrel_dataset::Corpus;

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
    let pool = store_corpus(corpus, StoreSet::Caches, bs);
    let stats = pool.stats();
    let scale = corpus.config().scale;
    let shared: f64 = corpus
        .iter()
        .filter_map(|img| pool.file_shared_fraction(&stored_name(img.id()), 1))
        .sum::<f64>()
        / corpus.len().max(1) as f64;
    CvolMeasurement {
        block_size: bs,
        compressed_fraction: (stats.physical_bytes as f64
            / (stats.unique_blocks.max(1) * stats.block_size) as f64)
            .clamp(0.02, 1.0),
        // Entry count scales with corpus bytes; project to the 607-image,
        // full-volume catalog.
        ddt_entries_projected: (stats.unique_blocks as f64 * scale as f64 * 607.0
            / corpus.len().max(1) as f64) as u64,
        pool_physical_projected: (stats.physical_bytes as f64 * scale as f64 * 607.0
            / corpus.len().max(1) as f64) as u64,
        mean_shared_fraction: shared,
    }
}

/// Images booted per point: a stride over the corpus.
const BOOT_SAMPLE: usize = 24;

/// Figure 11: boot a sample of images against each backend and average.
pub fn run_fig11(cfg: &ExperimentConfig) -> Record {
    let corpus = cfg.corpus();
    let sim = BootSim::new();
    let scale = corpus.config().scale;
    // (boot trace, image bytes) of every sampled image, at paper scale.
    let sample: Vec<_> = (0..corpus.len() as u32)
        .step_by((corpus.len() / BOOT_SAMPLE).max(1))
        .map(|id| {
            let img = corpus.image(id);
            (
                paper_scale_trace(img.cache().bytes() * scale, id as u64),
                img.virtual_bytes() * scale,
            )
        })
        .collect();
    let mean_boot = |backend: &dyn Fn(u64) -> Backend| {
        let total: f64 = sample
            .iter()
            .map(|(trace, image_bytes)| sim.boot(trace, &backend(*image_bytes)).total_seconds)
            .sum();
        total / sample.len() as f64
    };

    // The three flat reference lines are block-size independent.
    let qcow2_xfs = mean_boot(&|image_bytes| Backend::BaseImageXfs { image_bytes });
    let cold_xfs = mean_boot(&|image_bytes| Backend::ColdCache {
        net_mbps: 112.0,
        image_bytes,
    });
    let warm_xfs = mean_boot(&|_| Backend::WarmCacheXfs);
    let warm_zfs: Vec<(usize, f64)> = BOOT_BS_SWEEP
        .iter()
        .map(|&bs| {
            let m = measure_cvol(&corpus, bs);
            let params = DedupVolumeParams {
                record_size: bs as u64,
                compressed_fraction: m.compressed_fraction,
                ddt_entries: m.ddt_entries_projected,
                pool_physical_bytes: m.pool_physical_projected.max(1),
                shared_fraction: m.mean_shared_fraction,
                ..DedupVolumeParams::new(bs as u64)
            };
            (bs, mean_boot(&|_| Backend::DedupVolume(params)))
        })
        .collect();

    let at = |bs: usize| {
        warm_zfs
            .iter()
            .find(|p| p.0 == bs)
            .map_or(f64::NAN, |p| p.1)
    };
    let (at_1k, at_64k, at_128k) = (at(1024), at(64 * 1024), at(128 * 1024));
    let fastest = warm_zfs
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("a swept block size");
    Record::paper(
        "fig11",
        cfg,
        vec![
            ("minimum_at_64k", fastest.0 == 64 * 1024),
            // QCOW2 asks in 64 KiB clusters: a larger record reads too much.
            ("uptick_at_128k", at_128k > at_64k),
            // Paper: ~10 % faster than a locally stored image despite
            // dedup + gzip.
            (
                "warm_zfs_8_to_14pct_under_baseline",
                (0.08..=0.14).contains(&(1.0 - at_64k / qcow2_xfs)),
            ),
            ("small_blocks_much_slower", at_1k > 1.3 * at_64k),
            ("warm_xfs_under_baseline", warm_xfs < qcow2_xfs),
            ("cold_slowest_reference", cold_xfs > qcow2_xfs.max(warm_xfs)),
        ],
        json_obj! {
            "sampled_images": sample.len(),
            "qcow2_xfs_seconds": qcow2_xfs,
            "cold_caches_xfs_seconds": cold_xfs,
            "warm_caches_xfs_seconds": warm_xfs,
            "rows": Json::arr(&warm_zfs, |&(bs, seconds)| json_obj! {
                "block_size": bs,
                "warm_caches_zfs_seconds": seconds,
            }),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_params_move_with_block_size() {
        let corpus = ExperimentConfig::smoke().corpus();
        let small = measure_cvol(&corpus, 4096);
        let large = measure_cvol(&corpus, 65536);
        assert!(small.ddt_entries_projected > large.ddt_entries_projected);
        assert!(
            small.compressed_fraction > large.compressed_fraction,
            "small blocks compress worse"
        );
    }
}
