//! ZFS-pool storage experiments: Figures 8, 9, 10 (disk / DDT-disk /
//! DDT-memory vs block size) and Figure 13 (incremental growth).

use crate::config::{ExperimentConfig, ZFS_BS_SWEEP};
use crate::csvout::{gib, mib, Table};
use squirrel_compress::Codec;
use squirrel_dataset::{Corpus, ImageHandle};
use squirrel_zfs::{PoolConfig, SpaceStats, ZPool};

/// Which content set to store into the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreSet {
    Images,
    Caches,
}

/// Import one image (or its cache) into `pool` as file `f-<id>`.
fn import_image(pool: &mut ZPool, img: &ImageHandle<'_>, set: StoreSet, block_size: usize) {
    let (blocks, len): (Vec<Vec<u8>>, u64) = match set {
        StoreSet::Images => (img.blocks(block_size).collect(), img.nonzero_bytes()),
        StoreSet::Caches => {
            let cache = img.cache();
            (cache.blocks(block_size).collect(), cache.bytes())
        }
    };
    pool.import_file(&format!("f-{}", img.id()), &blocks, len);
}

/// Store the whole corpus (images or caches) into a fresh accounting-only
/// pool at `block_size` and return its stats.
pub fn store_corpus(corpus: &Corpus, set: StoreSet, block_size: usize) -> SpaceStats {
    let mut pool = ZPool::new(PoolConfig::new(block_size, Codec::Gzip(6)).accounting_only());
    for img in corpus.iter() {
        import_image(&mut pool, &img, set, block_size);
    }
    pool.stats()
}

/// Incremental growth: stats snapshot after each added image/cache
/// (Figure 13's series).
pub fn store_incremental(corpus: &Corpus, set: StoreSet, block_size: usize) -> Vec<SpaceStats> {
    let mut pool = ZPool::new(PoolConfig::new(block_size, Codec::Gzip(6)).accounting_only());
    let mut out = Vec::with_capacity(corpus.len());
    for img in corpus.iter() {
        import_image(&mut pool, &img, set, block_size);
        out.push(pool.stats());
    }
    out
}

/// Figures 8, 9 and 10 share one sweep: store both sets at every block size.
pub fn run_fig8_9_10(cfg: &ExperimentConfig) -> Vec<(usize, SpaceStats, SpaceStats)> {
    let corpus = cfg.corpus();
    let proj = cfg.projection();
    let mut rows = Vec::new();
    for &bs in &ZFS_BS_SWEEP {
        let imgs = store_corpus(&corpus, StoreSet::Images, bs);
        let caches = store_corpus(&corpus, StoreSet::Caches, bs);
        rows.push((bs, imgs, caches));
    }

    let mut f8 = Table::new(&[
        "block_kb",
        "images_disk_gib_proj",
        "caches_disk_gib_proj",
        "images_disk_mib_meas",
        "caches_disk_mib_meas",
    ]);
    let mut f9 = Table::new(&["block_kb", "images_ddt_disk_gib_proj", "caches_ddt_disk_gib_proj"]);
    let mut f10 = Table::new(&["block_kb", "images_ddt_mem_gib_proj", "caches_ddt_mem_gib_proj"]);
    for (bs, imgs, caches) in &rows {
        f8.push(vec![
            (bs / 1024).to_string(),
            gib(imgs.total_disk_bytes() as f64 * proj),
            gib(caches.total_disk_bytes() as f64 * proj),
            mib(imgs.total_disk_bytes() as f64),
            mib(caches.total_disk_bytes() as f64),
        ]);
        f9.push(vec![
            (bs / 1024).to_string(),
            gib(imgs.ddt_disk_bytes as f64 * proj),
            gib(caches.ddt_disk_bytes as f64 * proj),
        ]);
        f10.push(vec![
            (bs / 1024).to_string(),
            gib(imgs.ddt_memory_bytes as f64 * proj),
            gib(caches.ddt_memory_bytes as f64 * proj),
        ]);
    }
    f8.print("Figure 8: disk consumption with dedup + gzip-6");
    f9.print("Figure 9: dedup table size on disk");
    f10.print("Figure 10: memory consumption of dedup tables");
    f8.write(&cfg.out_dir, "fig8").expect("csv");
    f9.write(&cfg.out_dir, "fig9").expect("csv");
    f10.write(&cfg.out_dir, "fig10").expect("csv");
    rows
}

/// Figure 13: iterative adds at 64 KiB for both sets.
pub fn run_fig13(cfg: &ExperimentConfig) -> (Vec<SpaceStats>, Vec<SpaceStats>) {
    let corpus = cfg.corpus();
    let bs = 64 * 1024;
    let caches = store_incremental(&corpus, StoreSet::Caches, bs);
    let images = store_incremental(&corpus, StoreSet::Images, bs);
    let proj = cfg.projection();
    let mut t = Table::new(&[
        "n",
        "caches_disk_gib_proj",
        "images_disk_gib_proj",
        "caches_mem_mib_proj",
        "images_mem_mib_proj",
    ]);
    for (i, (c, im)) in caches.iter().zip(&images).enumerate() {
        t.push(vec![
            (i + 1).to_string(),
            gib(c.total_disk_bytes() as f64 * proj),
            gib(im.total_disk_bytes() as f64 * proj),
            mib(c.ddt_memory_bytes as f64 * proj),
            mib(im.ddt_memory_bytes as f64 * proj),
        ]);
    }
    t.print("Figure 13: resource consumption when iteratively adding VMIs or caches (64 KiB)");
    t.write(&cfg.out_dir, "fig13").expect("csv");
    (caches, images)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> std::sync::Arc<Corpus> {
        ExperimentConfig::smoke().corpus()
    }

    #[test]
    fn smaller_blocks_mean_more_ddt_entries() {
        let c = corpus();
        let small = store_corpus(&c, StoreSet::Caches, 4096);
        let large = store_corpus(&c, StoreSet::Caches, 65536);
        assert!(small.unique_blocks > large.unique_blocks);
        assert!(small.ddt_memory_bytes > large.ddt_memory_bytes);
        assert!(small.ddt_disk_bytes > large.ddt_disk_bytes);
    }

    #[test]
    fn images_consume_more_than_caches() {
        let c = corpus();
        let imgs = store_corpus(&c, StoreSet::Images, 16384);
        let caches = store_corpus(&c, StoreSet::Caches, 16384);
        assert!(imgs.total_disk_bytes() > caches.total_disk_bytes());
        assert!(imgs.ddt_memory_bytes > caches.ddt_memory_bytes);
    }

    #[test]
    fn incremental_series_is_monotone() {
        let c = corpus();
        let series = store_incremental(&c, StoreSet::Caches, 16384);
        assert_eq!(series.len(), c.len());
        for w in series.windows(2) {
            assert!(w[1].total_disk_bytes() >= w[0].total_disk_bytes());
            assert!(w[1].ddt_memory_bytes >= w[0].ddt_memory_bytes);
        }
    }

    #[test]
    fn cache_growth_slope_flattens_relative_to_images() {
        // Figure 13's key visual: cache slopes much shallower than images.
        let c = corpus();
        let caches = store_incremental(&c, StoreSet::Caches, 16384);
        let images = store_incremental(&c, StoreSet::Images, 16384);
        let growth = |s: &[SpaceStats]| {
            let tail = s.last().expect("nonempty").total_disk_bytes() as f64;
            let head = s[s.len() / 2].total_disk_bytes() as f64;
            tail - head
        };
        // Normalize by logical volume: caches are smaller overall, so compare
        // marginal growth per logical byte.
        let cache_rel = growth(&caches) / caches.last().expect("nonempty").logical_bytes as f64;
        let image_rel = growth(&images) / images.last().expect("nonempty").logical_bytes as f64;
        assert!(
            cache_rel < image_rel,
            "cache marginal growth {cache_rel} vs images {image_rel}"
        );
    }
}
