//! ZFS-pool storage experiments: Figures 8, 9, 10 (disk / DDT-disk /
//! DDT-memory vs block size) and Figure 13 (incremental growth).

use crate::config::{ExperimentConfig, ZFS_BS_SWEEP};
use crate::experiments::sweeps::falls;
use crate::record::{json_obj, Json, Record};
use squirrel_compress::Codec;
use squirrel_dataset::{Corpus, ImageHandle};
use squirrel_zfs::{PoolConfig, SpaceStats, ZPool};

/// Which content set to store into the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreSet {
    Images,
    Caches,
}

/// The file an image (or its cache) is stored as.
pub fn stored_name(image: u32) -> String {
    format!("f-{image}")
}

/// The pool every storage figure measures: gzip-6, accounting only.
fn accounting_pool(block_size: usize) -> ZPool {
    ZPool::new(PoolConfig::new(block_size, Codec::Gzip(6)).accounting_only())
}

/// Import one image (or its cache) into `pool` as [`stored_name`].
fn import_image(pool: &mut ZPool, img: &ImageHandle<'_>, set: StoreSet, block_size: usize) {
    let (blocks, len): (Vec<Vec<u8>>, u64) = match set {
        StoreSet::Images => (img.blocks(block_size).collect(), img.nonzero_bytes()),
        StoreSet::Caches => {
            let cache = img.cache();
            (cache.blocks(block_size).collect(), cache.bytes())
        }
    };
    pool.import_file(&stored_name(img.id()), &blocks, len);
}

/// Store the whole corpus (images or caches) into a fresh accounting-only
/// gzip-6 pool at `block_size`.
pub fn store_corpus(corpus: &Corpus, set: StoreSet, block_size: usize) -> ZPool {
    let mut pool = accounting_pool(block_size);
    for img in corpus.iter() {
        import_image(&mut pool, &img, set, block_size);
    }
    pool
}

/// Incremental growth: stats snapshot after each added image/cache
/// (Figure 13's series).
pub fn store_incremental(corpus: &Corpus, set: StoreSet, block_size: usize) -> Vec<SpaceStats> {
    let mut pool = accounting_pool(block_size);
    let mut out = Vec::with_capacity(corpus.len());
    for img in corpus.iter() {
        import_image(&mut pool, &img, set, block_size);
        out.push(pool.stats());
    }
    out
}

/// A pool's three footprints, measured and projected to paper volume.
fn footprint(s: &SpaceStats, proj: f64) -> Json {
    json_obj! {
        "disk_bytes": s.total_disk_bytes(),
        "disk_bytes_projected": s.total_disk_bytes() as f64 * proj,
        s => [ddt_disk_bytes],
        "ddt_disk_bytes_projected": s.ddt_disk_bytes as f64 * proj,
        s => [ddt_memory_bytes],
        "ddt_memory_bytes_projected": s.ddt_memory_bytes as f64 * proj,
    }
}

/// Figures 8, 9 and 10 share one sweep: store both sets at every block size.
pub fn run_fig8_9_10(cfg: &ExperimentConfig) -> Record {
    let corpus = cfg.corpus();
    let rows: Vec<(usize, SpaceStats, SpaceStats)> = ZFS_BS_SWEEP
        .iter()
        .map(|&bs| {
            let of = |set| store_corpus(&corpus, set, bs).stats();
            (bs, of(StoreSet::Images), of(StoreSet::Caches))
        })
        .collect();
    let caches_disk: Vec<u64> = rows.iter().map(|r| r.2.total_disk_bytes()).collect();
    let smallest = (0..rows.len())
        .min_by_key(|&i| caches_disk[i])
        .expect("a swept block size");
    let shrinks = |of: &dyn Fn(&(usize, SpaceStats, SpaceStats)) -> u64| {
        falls(&rows.iter().map(|r| of(r) as f64).collect::<Vec<_>>())
    };
    Record::paper(
        "fig8",
        cfg,
        vec![
            // The DDT's own footprint erodes small-block CCR gains.
            (
                "caches_disk_interior_minimum",
                (1..rows.len() - 1).contains(&smallest),
            ),
            (
                "ddt_grows_as_blocks_shrink",
                shrinks(&|r| r.1.ddt_disk_bytes)
                    && shrinks(&|r| r.2.ddt_disk_bytes)
                    && shrinks(&|r| r.1.ddt_memory_bytes)
                    && shrinks(&|r| r.2.ddt_memory_bytes),
            ),
            (
                "caches_below_images",
                rows.iter().all(|(_, images, caches)| {
                    caches.total_disk_bytes() < images.total_disk_bytes()
                        && caches.ddt_disk_bytes < images.ddt_disk_bytes
                        && caches.ddt_memory_bytes < images.ddt_memory_bytes
                }),
            ),
        ],
        json_obj! {
            "rows": Json::arr(&rows, |(bs, images, caches)| json_obj! {
                "block_size": *bs,
                "images": footprint(images, cfg.projection()),
                "caches": footprint(caches, cfg.projection()),
            }),
        },
    )
}

/// Figure 13: iterative adds at 64 KiB for both sets.
pub fn run_fig13(cfg: &ExperimentConfig) -> Record {
    let corpus = cfg.corpus();
    let bs = 64 * 1024;
    let caches = store_incremental(&corpus, StoreSet::Caches, bs);
    let images = store_incremental(&corpus, StoreSet::Images, bs);
    let monotone = |series: &[SpaceStats]| {
        series.windows(2).all(|w| {
            w[1].total_disk_bytes() >= w[0].total_disk_bytes()
                && w[1].ddt_memory_bytes >= w[0].ddt_memory_bytes
        })
    };
    // The figure's key visual, per logical byte (caches are smaller
    // overall): disk added by the second half of the corpus.
    let marginal_growth = |series: &[SpaceStats]| {
        let last = series.last().expect("a non-empty corpus");
        (last.total_disk_bytes() - series[series.len() / 2].total_disk_bytes()) as f64
            / last.logical_bytes as f64
    };
    Record::paper(
        "fig13",
        cfg,
        vec![
            ("series_monotone", monotone(&caches) && monotone(&images)),
            (
                "cache_marginal_growth_below_images",
                marginal_growth(&caches) < marginal_growth(&images),
            ),
        ],
        json_obj! {
            "block_size": bs,
            "rows": Json::arr(caches.iter().zip(&images).enumerate(), |(i, (c, im))| json_obj! {
                "n": i + 1,
                "caches": footprint(c, cfg.projection()),
                "images": footprint(im, cfg.projection()),
            }),
        },
    )
}
