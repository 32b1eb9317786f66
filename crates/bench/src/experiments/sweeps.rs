//! Content-statistics sweeps: Table 1, Table 2, Figures 2, 3, 4, 12.

use crate::config::{ExperimentConfig, FULL_BS_SWEEP};
use crate::record::{json_obj, Json, Record};
use squirrel_compress::Codec;
use squirrel_dataset::analysis::{sweep, CompressionSampling, ContentSet, SweepStats};
use squirrel_dataset::{azure_census, ec2_census, Corpus};

/// One sweep on `cfg`'s thread count. `Codec::Off` asks for the dedup
/// statistics alone and measures no compression.
pub fn stats(
    cfg: &ExperimentConfig,
    corpus: &Corpus,
    set: ContentSet,
    bs: usize,
    codec: Codec,
) -> SweepStats {
    let sampling = match codec {
        Codec::Off => CompressionSampling { max_blocks: 0 },
        _ => CompressionSampling::default(),
    };
    sweep(corpus, set, bs, codec, sampling, cfg.threads)
}

/// `series` never rises from one block size to the next larger one.
pub fn falls(series: &[f64]) -> bool {
    series.windows(2).all(|w| w[1] <= w[0])
}

/// Index of the largest value.
fn argmax(series: &[f64]) -> usize {
    (0..series.len())
        .max_by(|&a, &b| series[a].total_cmp(&series[b]))
        .unwrap_or(0)
}

/// Figure 2 (dedup + gzip-6 ratios) and Figure 4 (CCR) are one sweep.
pub fn run_fig2_fig4(cfg: &ExperimentConfig) -> Record {
    let corpus = cfg.corpus();
    let points: Vec<(usize, SweepStats, SweepStats)> = FULL_BS_SWEEP
        .iter()
        .map(|&bs| {
            let of = |set| stats(cfg, &corpus, set, bs, Codec::Gzip(6));
            (bs, of(ContentSet::Caches), of(ContentSet::Images))
        })
        .collect();
    let column = |of: &dyn Fn(&(usize, SweepStats, SweepStats)) -> f64| -> Vec<f64> {
        points.iter().map(of).collect()
    };
    // gzip's ratio is a 1 500-block estimate: rising means the ends differ
    // and no step falls by more than the estimate's own noise (1 %).
    let rises = |s: Vec<f64>| s[s.len() - 1] > s[0] && s.windows(2).all(|w| w[1] > 0.99 * w[0]);
    let cache_ccr = column(&|p| p.1.ccr());
    let cache_ccr_at = |bs| {
        points
            .iter()
            .find(|p| p.0 == bs)
            .map_or(f64::NAN, |p| p.1.ccr())
    };
    let best_image_ccr = argmax(&column(&|p| p.2.ccr()));
    Record::paper(
        "fig2",
        cfg,
        vec![
            (
                "dedup_falls_with_block_size",
                falls(&column(&|p| p.1.dedup_ratio())) && falls(&column(&|p| p.2.dedup_ratio())),
            ),
            (
                "gzip_rises_with_block_size",
                rises(column(&|p| p.1.compression_ratio()))
                    && rises(column(&|p| p.2.compression_ratio())),
            ),
            (
                "caches_dedup_above_images",
                points
                    .iter()
                    .all(|(_, c, i)| c.dedup_ratio() > i.dedup_ratio()),
            ),
            // The paper's headline: smaller blocks do not always win.
            (
                "cache_ccr_interior_optimum",
                (1..points.len() - 1).contains(&argmax(&cache_ccr)),
            ),
            // ... and the plateau holds out to 32 KiB instead of collapsing
            // from its 1 KiB value.
            (
                "cache_ccr_holds_to_32k",
                cache_ccr_at(32 * 1024) > 0.85 * cache_ccr_at(1024),
            ),
            (
                "image_ccr_peaks_at_or_below_4k",
                points[best_image_ccr].0 <= 4096,
            ),
        ],
        json_obj! {
            "codec": "gzip-6",
            "rows": Json::arr(&points, |(bs, caches, images)| json_obj! {
                "block_size": *bs,
                "caches_dedup": caches.dedup_ratio(),
                "images_dedup": images.dedup_ratio(),
                "caches_gzip6": caches.compression_ratio(),
                "images_gzip6": images.compression_ratio(),
                "caches_ccr": caches.ccr(),
                "images_ccr": images.ccr(),
            }),
        },
    )
}

/// Figure 3: cache compression ratio per codec over block sizes.
pub fn run_fig3(cfg: &ExperimentConfig) -> Record {
    let corpus = cfg.corpus();
    let ratio = |bs, codec| stats(cfg, &corpus, ContentSet::Caches, bs, codec).compression_ratio();
    // [gzip-6, gzip-9, lzjb, lz4] per block size.
    let rows: Vec<(usize, f64, [f64; 4])> = FULL_BS_SWEEP
        .iter()
        .map(|&bs| {
            // Dedup ratio is codec-independent; measure once.
            let dedup = stats(cfg, &corpus, ContentSet::Caches, bs, Codec::Off).dedup_ratio();
            let codecs = [Codec::Gzip(6), Codec::Gzip(9), Codec::Lzjb, Codec::Lz4];
            (bs, dedup, codecs.map(|codec| ratio(bs, codec)))
        })
        .collect();
    Record::paper(
        "fig3",
        cfg,
        vec![
            // More CPU, same ratio: within half a percent everywhere.
            (
                "gzip9_equals_gzip6",
                rows.iter()
                    .all(|(_, _, [g6, g9, ..])| (g9 - g6).abs() <= 0.005 * g6),
            ),
            (
                "gzip6_beats_lzjb_and_lz4_from_8k",
                rows.iter()
                    .filter(|(bs, ..)| *bs >= 8192)
                    .all(|(_, _, [g6, _, lzjb, lz4])| g6 > lzjb && g6 > lz4),
            ),
            (
                "gzip6_lz4_lzjb_order_at_64k",
                rows.iter()
                    .any(|&(bs, _, [g6, _, lzjb, lz4])| bs == 64 * 1024 && g6 > lz4 && lz4 > lzjb),
            ),
        ],
        json_obj! {
            "rows": Json::arr(&rows, |(bs, dedup, [g6, g9, lzjb, lz4])| json_obj! {
                "block_size": *bs,
                "dedup": *dedup,
                "gzip6": *g6,
                "gzip9": *g9,
                "lzjb": *lzjb,
                "lz4": *lz4,
            }),
        },
    )
}

/// Figure 12: cross-similarity of images and caches.
pub fn run_fig12(cfg: &ExperimentConfig) -> Record {
    let corpus = cfg.corpus();
    let rows: Vec<(usize, f64, f64)> = FULL_BS_SWEEP
        .iter()
        .map(|&bs| {
            let of = |set| stats(cfg, &corpus, set, bs, Codec::Off).cross_similarity();
            (bs, of(ContentSet::Caches), of(ContentSet::Images))
        })
        .collect();
    Record::paper(
        "fig12",
        cfg,
        vec![
            (
                "caches_above_images_everywhere",
                rows.iter().all(|&(_, c, i)| c > i),
            ),
            (
                "caches_high_and_1_5x_images_at_16k",
                rows.iter()
                    .any(|&(bs, c, i)| bs == 16 * 1024 && c > 0.4 && c > 1.5 * i),
            ),
            (
                "caches_2x_images_at_64k",
                rows.iter()
                    .any(|&(bs, c, i)| bs == 64 * 1024 && c >= 2.0 * i),
            ),
        ],
        json_obj! {
            "rows": Json::arr(&rows, |&(bs, caches, images)| json_obj! {
                "block_size": bs,
                "caches_similarity": caches,
                "images_similarity": images,
            }),
        },
    )
}

/// Table 1: storage efficiency at 128 KiB.
pub fn run_table1(cfg: &ExperimentConfig) -> Record {
    let corpus = cfg.corpus();
    let bs = 128 * 1024;
    let images = stats(cfg, &corpus, ContentSet::Images, bs, Codec::Gzip(6));
    let caches = stats(cfg, &corpus, ContentSet::Caches, bs, Codec::Gzip(6));
    let original: u64 = corpus.iter().map(|i| i.virtual_bytes()).sum();
    let (nonzero, cache_raw, cache_ccr) = (
        images.nonzero_bytes(),
        caches.nonzero_bytes(),
        caches.deduped_compressed_bytes(),
    );
    let rows = [
        ("Original", original, "16.4 TB"),
        ("Nonzero", nonzero, "1.4 TB"),
        ("Caches (nonzero)", cache_raw, "78.5 GB"),
        ("Caches / CCR", cache_ccr, "15.1 GB"),
    ];
    Record::paper(
        "table1",
        cfg,
        // The four-step reduction, each step significant: sparseness,
        // working sets, CCR.
        vec![(
            "reduction_chain",
            nonzero * 5 < original && cache_raw * 4 < nonzero && cache_ccr * 2 < cache_raw,
        )],
        json_obj! {
            "block_size": bs,
            "rows": Json::arr(rows, |(quantity, bytes, paper)| json_obj! {
                "quantity": quantity,
                "bytes": bytes,
                "bytes_projected": bytes as f64 * cfg.projection(),
                "paper": paper,
            }),
        },
    )
}

/// Table 2: the OS census (static data reproduced verbatim).
pub fn run_table2(cfg: &ExperimentConfig) -> Record {
    let rows: Vec<(&str, u32, u32)> = azure_census()
        .iter()
        .zip(ec2_census())
        .map(|(a, e)| {
            assert_eq!(a.family, e.family);
            (a.family.label(), a.count, e.count)
        })
        .collect();
    let azure_total: u32 = rows.iter().map(|r| r.1).sum();
    let ec2_total: u32 = rows.iter().map(|r| r.2).sum();
    Record::paper(
        "table2",
        cfg,
        // The paper prints 9871 under an EC2 column whose rows sum to 9790.
        vec![
            ("azure_rows_sum_to_607", azure_total == 607),
            ("ec2_rows_sum_to_9790", ec2_total == 9790),
        ],
        json_obj! {
            "rows": Json::arr(&rows, |&(family, azure, ec2)| json_obj! {
                "os_distribution": family,
                "windows_azure": azure,
                "amazon_ec2": ec2,
            }),
            "total": json_obj! {"windows_azure": azure_total, "amazon_ec2": ec2_total},
        },
    )
}
