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
use crate::experiments::storage::{store_corpus, StoreSet};
use crate::record::{json_obj, Json, Record};
use squirrel_dataset::{ec2_census, Corpus, CorpusConfig};

/// Run the comparison at the paper's 64 KiB operating point.
pub fn run_whatif_windows(cfg: &ExperimentConfig) -> Record {
    let bs = 64 * 1024;
    let azure_corpus = cfg.corpus();
    let ec2_corpus = Corpus::generate(CorpusConfig {
        n_images: cfg.images,
        scale: cfg.scale,
        seed: cfg.seed,
        census: ec2_census(),
        ..CorpusConfig::azure(cfg.scale, cfg.seed)
    });
    let azure = store_corpus(&azure_corpus, StoreSet::Caches, bs).stats();
    let with_windows = store_corpus(&ec2_corpus, StoreSet::Caches, bs).stats();
    let factor = with_windows.total_disk_bytes() as f64 / azure.total_disk_bytes().max(1) as f64;
    let rows = [
        ("Azure census (no Windows)", azure),
        ("EC2 census (incl. Windows)", with_windows),
    ];
    Record::paper(
        "whatif_windows",
        cfg,
        // Windows caches dedup among themselves: the mixed catalog costs
        // more (new distinct base content) but a constant factor, not a
        // blowup.
        vec![("constant_factor", (0.8..3.0).contains(&factor))],
        json_obj! {
            "block_size": bs,
            "rows": Json::arr(rows, |(catalog, s)| json_obj! {
                "catalog": catalog,
                "disk_bytes": s.total_disk_bytes(),
                s => [ddt_memory_bytes, unique_blocks],
            }),
            "windows_overhead_factor": factor,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let stats = store_corpus(&corpus, StoreSet::Caches, 16 * 1024).stats();
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
