//! What-if scenario from the paper's Section 4.1: the Azure community
//! catalog has no Windows images ("likely due to licensing reasons"); the
//! paper argues that adding them would only add a constant factor, because
//! Windows boot working sets deduplicate *with each other* even though they
//! share nothing with Linux.
//!
//! This experiment builds two equal-sized corpora — one with the Azure
//! census (no Windows) and one with the EC2 census (~5% Windows) — stores
//! all caches in a 64 KiB cVolume, and compares the footprints.

use crate::config::ExperimentConfig;
use crate::csvout::{mib, Table};
use squirrel_compress::Codec;
use squirrel_dataset::{ec2_census, Corpus, CorpusConfig};
use squirrel_zfs::{PoolConfig, SpaceStats, ZPool};

/// Footprints of the two catalogs.
#[derive(Clone, Copy, Debug)]
pub struct WindowsWhatIf {
    pub azure: SpaceStats,
    pub with_windows: SpaceStats,
}

fn store_caches(corpus: &Corpus, bs: usize) -> SpaceStats {
    let mut pool = ZPool::new(PoolConfig::new(bs, Codec::Gzip(6)).accounting_only());
    for img in corpus.iter() {
        let cache = img.cache();
        let blocks: Vec<Vec<u8>> = cache.blocks(bs).collect();
        pool.import_file(&format!("c-{}", img.id()), &blocks, cache.bytes());
    }
    pool.stats()
}

/// Run the comparison at the paper's 64 KiB operating point.
pub fn run_whatif_windows(cfg: &ExperimentConfig) -> WindowsWhatIf {
    let bs = 64 * 1024;
    let azure_corpus = cfg.corpus();
    let ec2_corpus = Corpus::generate(CorpusConfig {
        n_images: cfg.images,
        scale: cfg.scale,
        seed: cfg.seed,
        census: ec2_census(),
        ..CorpusConfig::azure(cfg.scale, cfg.seed)
    });
    let azure = store_caches(&azure_corpus, bs);
    let with_windows = store_caches(&ec2_corpus, bs);

    let mut t = Table::new(&["catalog", "cvol_disk_mib", "ddt_mem_mib", "unique_blocks"]);
    for (name, s) in [("Azure census (no Windows)", &azure), ("EC2 census (incl. Windows)", &with_windows)]
    {
        t.push(vec![
            name.to_string(),
            mib(s.total_disk_bytes() as f64),
            mib(s.ddt_memory_bytes as f64),
            s.unique_blocks.to_string(),
        ]);
    }
    let factor =
        with_windows.total_disk_bytes() as f64 / azure.total_disk_bytes().max(1) as f64;
    t.push(vec![
        "windows overhead factor".to_string(),
        format!("{factor:.2}x"),
        String::new(),
        String::new(),
    ]);
    t.print("What-if: Windows images in the mix (paper Section 4.1)");
    t.write(&cfg.out_dir, "whatif_windows").expect("csv");
    WindowsWhatIf { azure, with_windows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_adds_a_constant_factor_not_a_blowup() {
        let cfg = ExperimentConfig { out_dir: None, ..ExperimentConfig::smoke() };
        let w = run_whatif_windows(&cfg);
        let factor =
            w.with_windows.total_disk_bytes() as f64 / w.azure.total_disk_bytes() as f64;
        // Windows caches dedup among themselves: the mixed catalog costs
        // more (new distinct base content) but stays within a small factor.
        assert!(factor > 0.8, "factor {factor}");
        assert!(factor < 3.0, "factor {factor} — must be a constant factor, not a blowup");
    }

    #[test]
    fn windows_images_dedup_with_each_other() {
        // A Windows-heavy catalog must still dedup internally.
        let cfg = ExperimentConfig::smoke();
        let corpus = Corpus::generate(CorpusConfig {
            n_images: cfg.images,
            scale: cfg.scale,
            seed: cfg.seed,
            census: vec![squirrel_dataset::CensusEntry {
                family: squirrel_dataset::OsFamily::Windows,
                count: cfg.images,
            }],
            ..CorpusConfig::azure(cfg.scale, cfg.seed)
        });
        let stats = store_caches(&corpus, 16 * 1024);
        let logical_blocks = corpus
            .iter()
            .map(|i| i.cache().bytes().div_ceil(16 * 1024))
            .sum::<u64>();
        assert!(
            stats.unique_blocks * 2 < logical_blocks,
            "unique {} vs logical {logical_blocks}",
            stats.unique_blocks
        );
    }
}
