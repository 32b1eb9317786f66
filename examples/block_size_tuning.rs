//! Block-size tuning: the paper's central ablation as a user scenario.
//! Sweeps the cVolume record size, reporting for each the node footprint
//! (disk + DDT memory) and the simulated warm boot time — reproducing the
//! reasoning that leads the paper to pick 64 KiB.
//!
//! ```text
//! cargo run --release --example block_size_tuning
//! ```

use squirrel_repro::bootsim::{Backend, BootSim, DedupVolumeParams};
use squirrel_repro::compress::Codec;
use squirrel_repro::core::paper_scale_trace;
use squirrel_repro::dataset::{Corpus, CorpusConfig};
use squirrel_repro::zfs::{PoolConfig, ZPool};

fn main() {
    let scale = 1024u64;
    let corpus = Corpus::generate(CorpusConfig {
        n_images: 32,
        scale,
        ..CorpusConfig::azure(scale, 4242)
    });
    let sim = BootSim::new();
    println!(
        "{:>9}  {:>12}  {:>12}  {:>12}",
        "block", "disk (MiB)", "ddt (KiB)", "boot (s)"
    );

    let mut best: Option<(usize, f64)> = None;
    for bs in [4096usize, 8192, 16384, 32768, 65536, 131072] {
        // Store every cache in a cVolume at this record size.
        let mut pool = ZPool::new(PoolConfig::new(bs, Codec::Gzip(6)).accounting_only());
        for img in corpus.iter() {
            let cache = img.cache();
            let blocks: Vec<Vec<u8>> = cache.blocks(bs).collect();
            pool.import_file(&format!("c-{}", img.id()), &blocks, cache.bytes());
        }
        let stats = pool.stats();

        // Average warm boot over a handful of images, with simulator inputs
        // measured from this very pool.
        let shared: f64 = corpus
            .iter()
            .filter_map(|img| pool.file_shared_fraction(&format!("c-{}", img.id()), 1))
            .sum::<f64>()
            / corpus.len() as f64;
        let params = DedupVolumeParams {
            record_size: bs as u64,
            compressed_fraction: (stats.physical_bytes as f64
                / (stats.unique_blocks.max(1) * stats.block_size) as f64)
                .clamp(0.02, 1.0),
            ddt_entries: stats.unique_blocks * scale,
            pool_physical_bytes: (stats.physical_bytes * scale).max(1),
            shared_fraction: shared,
            ..DedupVolumeParams::new(bs as u64)
        };
        let mut secs = 0.0;
        let sample = 8u32;
        for id in 0..sample {
            let ws = corpus.image(id).cache().bytes() * scale;
            let trace = paper_scale_trace(ws, id as u64);
            secs += sim
                .boot(&trace, &Backend::DedupVolume(params))
                .total_seconds;
        }
        let boot = secs / sample as f64;

        println!(
            "{:>7}K  {:>12.2}  {:>12.1}  {:>12.2}",
            bs / 1024,
            stats.total_disk_bytes() as f64 / (1 << 20) as f64,
            stats.ddt_memory_bytes as f64 / 1024.0,
            boot
        );
        if best.is_none_or(|(_, b)| boot < b) {
            best = Some((bs, boot));
        }
    }
    let (bs, boot) = best.expect("swept at least one size");
    println!(
        "\nfastest warm boot: {}K at {boot:.2}s (the paper picks 64K)",
        bs / 1024
    );
}
