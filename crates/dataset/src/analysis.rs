//! Corpus-level metrics: deduplication ratio, compression ratio, CCR, and
//! cross-similarity — the exact formulas of the paper's Section 2.2 / 4.3.1.
//!
//! These sweeps are the hot path of Figures 2–4 and 12: every nonzero block
//! of every image is hashed (and unique blocks compressed). Work fans out
//! across images on a [`par::WorkerPool`], then per-worker partial maps
//! merge into one; per the perf book, hot maps use FNV keyed by 128-bit
//! digest prefixes. Every statistic is a pure function of the corpus: which
//! blocks are measured is decided by digest alone, and the one
//! floating-point sum runs in ascending digest order.

use crate::corpus::Corpus;
use squirrel_compress::{compressed_len, Codec};
use squirrel_hash::{par, ContentHash, FnvHashMap};
use std::collections::BinaryHeap;

/// Which content set to analyze: full images or their VMI caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContentSet {
    Images,
    Caches,
}

/// Sampling control for the compression measurement. Dedup statistics are
/// always exact; per-block compression is measured on up to `max_blocks`
/// unique blocks (the smallest digests of the sampled set: uniform, hence
/// unbiased) because compressing every unique block of a large sweep would
/// dominate runtime.
#[derive(Clone, Copy, Debug)]
pub struct CompressionSampling {
    pub max_blocks: usize,
}

impl Default for CompressionSampling {
    fn default() -> Self {
        CompressionSampling { max_blocks: 1500 }
    }
}

/// Aggregate statistics of one (content set, block size) sweep.
#[derive(Clone, Debug)]
pub struct SweepStats {
    pub block_size: usize,
    /// |N|: nonzero blocks (with multiplicity).
    pub nonzero_blocks: u64,
    /// Actual nonzero bytes covered (tail blocks counted at true length).
    pub nonzero_byte_sum: u64,
    /// |U|: unique nonzero blocks.
    pub unique_blocks: u64,
    /// Actual bytes of unique blocks.
    pub unique_byte_sum: u64,
    /// Σ over unique blocks of times repeated across *different* images
    /// (0 when a block appears in a single image only).
    pub cross_repetitions: u64,
    /// Σ over images of per-image unique block counts.
    pub per_image_unique_sum: u64,
    /// Mean `compressed/original` over (sampled) unique blocks.
    pub mean_compressed_fraction: f64,
    /// Unique blocks whose compression was measured.
    pub compression_samples: u64,
}

impl SweepStats {
    /// Deduplication ratio |N| / |U| (paper, Section 2.2).
    pub fn dedup_ratio(&self) -> f64 {
        self.nonzero_blocks as f64 / self.unique_blocks.max(1) as f64
    }

    /// Content compression ratio: mean over unique blocks of
    /// `size / compressed_size` — the reciprocal of the stored fraction.
    pub fn compression_ratio(&self) -> f64 {
        1.0 / self.mean_compressed_fraction.max(1e-9)
    }

    /// Combined compression ratio = dedup × compression (paper, Section 2.2).
    pub fn ccr(&self) -> f64 {
        self.dedup_ratio() * self.compression_ratio()
    }

    /// Cross-similarity (paper, Section 4.3.1).
    pub fn cross_similarity(&self) -> f64 {
        self.cross_repetitions as f64 / self.per_image_unique_sum.max(1) as f64
    }

    /// Logical nonzero bytes (tail blocks counted at true length).
    pub fn nonzero_bytes(&self) -> u64 {
        self.nonzero_byte_sum
    }

    /// Bytes after dedup + compression (unique bytes at the mean ratio).
    pub fn deduped_compressed_bytes(&self) -> u64 {
        (self.unique_byte_sum as f64 * self.mean_compressed_fraction) as u64
    }
}

/// Per-unique-block record during the merge.
struct BlockInfo {
    /// Total occurrences (multiplicity).
    count: u64,
    /// Actual byte length (tail blocks are shorter than the block size).
    bytes: u32,
    /// Distinct images containing the block.
    image_count: u32,
    /// Last image id that counted this block (dedup of per-image counting).
    last_image: u32,
    /// Compressed fraction if sampled, else NaN.
    fraction: f32,
}

/// Run a full sweep of `set` at `block_size` under `codec`.
///
/// `threads` caps the worker count (0 = all available parallelism).
pub fn sweep(
    corpus: &Corpus,
    set: ContentSet,
    block_size: usize,
    codec: Codec,
    sampling: CompressionSampling,
    threads: usize,
) -> SweepStats {
    let n_workers = par::resolve_threads(threads).min(corpus.len().max(1));

    // Each worker consumes images round-robin and builds a partial map from
    // digest prefix to (count, images, sampled compression fraction). The
    // integer statistics add up in any merge order; the compression
    // estimate is made order-free by `merge` (see there).
    let results: Vec<WorkerResult> = par::WorkerPool::new(threads).run(n_workers, |w| {
        worker_pass(corpus, set, block_size, codec, sampling, w, n_workers)
    });

    merge(block_size, results, sampling)
}

struct WorkerResult {
    map: FnvHashMap<u128, BlockInfo>,
    nonzero_blocks: u64,
    nonzero_byte_sum: u64,
}

fn worker_pass(
    corpus: &Corpus,
    set: ContentSet,
    block_size: usize,
    codec: Codec,
    sampling: CompressionSampling,
    worker: usize,
    n_workers: usize,
) -> WorkerResult {
    let mut map: FnvHashMap<u128, BlockInfo> = FnvHashMap::default();
    let mut nonzero_blocks = 0u64;
    let mut nonzero_byte_sum = 0u64;
    // Deterministic sampling: a digest-derived coin picks an unbiased subset
    // of unique blocks for compression measurement. A floor — the
    // `SAMPLE_FLOOR` smallest digests of the whole sweep — keeps the
    // estimate meaningful when the unique set is tiny (large blocks on
    // scaled corpora would otherwise sample nothing). A worker cannot know
    // the global floor, so it measures every block that is among the
    // smallest it has met so far: a superset `merge` trims.
    let measure = sampling.max_blocks > 0;
    let sample_all = sampling.max_blocks == usize::MAX;
    let mut floor: BinaryHeap<u128> = BinaryHeap::with_capacity(SAMPLE_FLOOR + 1);

    for (i, img) in corpus.iter().enumerate() {
        if i % n_workers != worker {
            continue;
        }
        let image_id = img.id();
        let mut per_block = |block: Vec<u8>| {
            if block.is_empty() || squirrel_hash::is_zero_block(&block) {
                return; // sparse: zero blocks are not "nonzero blocks"
            }
            nonzero_blocks += 1;
            nonzero_byte_sum += block.len() as u64;
            let h = ContentHash::of(&block).short();
            let entry = map.entry(h).or_insert_with(|| BlockInfo {
                count: 0,
                bytes: block.len() as u32,
                image_count: 0,
                last_image: u32::MAX,
                fraction: f32::NAN,
            });
            entry.count += 1;
            if entry.last_image != image_id {
                entry.last_image = image_id;
                entry.image_count += 1;
            }
            if measure && entry.count == 1 {
                let in_floor = floor.len() < SAMPLE_FLOOR || floor.peek().is_some_and(|&m| h < m);
                if in_floor {
                    floor.push(h);
                    if floor.len() > SAMPLE_FLOOR {
                        floor.pop();
                    }
                }
                if sample_all || in_floor || want_sample(h) {
                    entry.fraction =
                        (compressed_len(codec, &block) as f64 / block.len() as f64) as f32;
                }
            }
        };
        match set {
            ContentSet::Images => {
                for block in img.blocks_trimmed(block_size) {
                    per_block(block);
                }
            }
            ContentSet::Caches => {
                let cache = img.cache();
                for block in cache.blocks_trimmed(block_size) {
                    per_block(block);
                }
            }
        }
    }
    WorkerResult {
        map,
        nonzero_blocks,
        nonzero_byte_sum,
    }
}

/// Unique blocks measured whatever the coin says: the smallest digests.
const SAMPLE_FLOOR: usize = 24;

/// Digest-based coin: ~1/16 of unique blocks are pre-sampled; the merge trims
/// to `max_blocks`. Keeps sampling deterministic and image-order-free.
#[inline]
fn want_sample(h: u128) -> bool {
    ((h >> 64) as u64).is_multiple_of(16)
}

fn merge(
    block_size: usize,
    results: Vec<WorkerResult>,
    sampling: CompressionSampling,
) -> SweepStats {
    let mut map: FnvHashMap<u128, BlockInfo> = FnvHashMap::default();
    let mut nonzero_blocks = 0u64;
    let mut nonzero_byte_sum = 0u64;
    for r in results {
        nonzero_blocks += r.nonzero_blocks;
        nonzero_byte_sum += r.nonzero_byte_sum;
        for (h, info) in r.map {
            match map.entry(h) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(info);
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let e = o.get_mut();
                    e.count += info.count;
                    // Workers partition by image, so distinct-image counts add.
                    e.image_count += info.image_count;
                    if e.fraction.is_nan() {
                        e.fraction = info.fraction;
                    }
                }
            }
        }
    }

    let unique_blocks = map.len() as u64;
    let mut unique_byte_sum = 0u64;
    let mut cross_repetitions = 0u64;
    let mut per_image_unique_sum = 0u64;
    let mut measured: Vec<(u128, f32)> = Vec::new();
    for (&h, info) in &map {
        unique_byte_sum += info.bytes as u64;
        per_image_unique_sum += info.image_count as u64;
        if info.image_count >= 2 {
            cross_repetitions += info.image_count as u64;
        }
        if !info.fraction.is_nan() {
            measured.push((h, info.fraction));
        }
    }
    // The estimate, as a function of the corpus alone. Every worker measured
    // the smallest digests it met, so the first `SAMPLE_FLOOR` of `measured`
    // in digest order are the sweep's smallest; past them a block counts
    // only if the coin picked it (what else a worker's running floor let in
    // depends on how images were dealt). The cap keeps the smallest digests,
    // and the sum runs in digest order, not map order.
    measured.sort_unstable_by_key(|&(h, _)| h);
    let sample_all = sampling.max_blocks == usize::MAX;
    let sampled: Vec<f64> = measured
        .iter()
        .enumerate()
        .filter(|&(i, &(h, _))| sample_all || i < SAMPLE_FLOOR || want_sample(h))
        .take(sampling.max_blocks)
        .map(|(_, &(_, fraction))| f64::from(fraction))
        .collect();
    let frac_n = sampled.len() as u64;
    // Fallback: `max_blocks == 0` measures nothing.
    let mean_compressed_fraction = if frac_n > 0 {
        sampled.iter().sum::<f64>() / frac_n as f64
    } else {
        1.0
    };

    SweepStats {
        block_size,
        nonzero_blocks,
        nonzero_byte_sum,
        unique_blocks,
        unique_byte_sum,
        cross_repetitions,
        per_image_unique_sum,
        mean_compressed_fraction,
        compression_samples: frac_n,
    }
}

/// Convenience full-accuracy sweep for small test corpora.
pub fn sweep_exact(
    corpus: &Corpus,
    set: ContentSet,
    block_size: usize,
    codec: Codec,
) -> SweepStats {
    sweep(
        corpus,
        set,
        block_size,
        codec,
        CompressionSampling {
            max_blocks: usize::MAX,
        },
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusConfig};

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig::test_corpus(16, 31))
    }

    #[test]
    fn dedup_ratio_at_least_one() {
        let c = corpus();
        let s = sweep_exact(&c, ContentSet::Caches, 4096, Codec::Off);
        assert!(s.dedup_ratio() >= 1.0);
        assert!(s.unique_blocks <= s.nonzero_blocks);
    }

    #[test]
    fn caches_dedup_better_than_images() {
        let c = corpus();
        let imgs = sweep_exact(&c, ContentSet::Images, 8192, Codec::Off);
        let caches = sweep_exact(&c, ContentSet::Caches, 8192, Codec::Off);
        assert!(
            caches.dedup_ratio() > imgs.dedup_ratio(),
            "caches {} vs images {}",
            caches.dedup_ratio(),
            imgs.dedup_ratio()
        );
    }

    #[test]
    fn caches_cross_similarity_higher_than_images() {
        // The paper's core scalability claim (Figure 12).
        let c = corpus();
        let imgs = sweep_exact(&c, ContentSet::Images, 8192, Codec::Off);
        let caches = sweep_exact(&c, ContentSet::Caches, 8192, Codec::Off);
        assert!(
            caches.cross_similarity() > 1.5 * imgs.cross_similarity(),
            "caches {} vs images {}",
            caches.cross_similarity(),
            imgs.cross_similarity()
        );
        assert!(
            caches.cross_similarity() > 0.4,
            "{}",
            caches.cross_similarity()
        );
    }

    #[test]
    fn dedup_grows_as_blocks_shrink() {
        let c = corpus();
        let small = sweep_exact(&c, ContentSet::Caches, 2048, Codec::Off);
        let large = sweep_exact(&c, ContentSet::Caches, 32768, Codec::Off);
        assert!(
            small.dedup_ratio() >= large.dedup_ratio(),
            "small {} vs large {}",
            small.dedup_ratio(),
            large.dedup_ratio()
        );
    }

    #[test]
    fn compression_grows_with_block_size() {
        let c = corpus();
        let small = sweep_exact(&c, ContentSet::Caches, 1024, Codec::Gzip(6));
        let large = sweep_exact(&c, ContentSet::Caches, 32768, Codec::Gzip(6));
        assert!(
            large.compression_ratio() > small.compression_ratio(),
            "large {} vs small {}",
            large.compression_ratio(),
            small.compression_ratio()
        );
    }

    #[test]
    fn gzip_ratio_in_paper_range_at_large_blocks() {
        // Paper Figure 2: gzip-6 on caches ≈ 2–3.5x at 64–128 KiB.
        let c = corpus();
        let s = sweep_exact(&c, ContentSet::Caches, 65536, Codec::Gzip(6));
        let r = s.compression_ratio();
        assert!((1.6..4.5).contains(&r), "gzip ratio {r}");
    }

    #[test]
    fn sweep_parallel_equals_serial() {
        // Every field, the floating-point estimate bit for bit, under each
        // way of choosing what is measured: nothing, the digest sample
        // (floor + coin + cap), everything.
        let c = corpus();
        let exact = CompressionSampling {
            max_blocks: usize::MAX,
        };
        for (codec, sampling) in [
            (Codec::Off, CompressionSampling::default()),
            (Codec::Gzip(6), CompressionSampling::default()),
            (Codec::Gzip(6), CompressionSampling { max_blocks: 40 }),
            (Codec::Gzip(6), exact),
        ] {
            let at = |threads| {
                let s = sweep(&c, ContentSet::Caches, 4096, codec, sampling, threads);
                (
                    (
                        s.nonzero_blocks,
                        s.nonzero_byte_sum,
                        s.unique_blocks,
                        s.unique_byte_sum,
                    ),
                    (s.cross_repetitions, s.per_image_unique_sum),
                    (s.mean_compressed_fraction.to_bits(), s.compression_samples),
                )
            };
            let serial = at(1);
            assert!(
                serial.2 .1 > SAMPLE_FLOOR as u64,
                "{codec:?}: the coin sampled too"
            );
            assert_eq!(at(2), serial, "{codec:?} {sampling:?} at 2 threads");
            assert_eq!(at(8), serial, "{codec:?} {sampling:?} at 8 threads");
        }
    }

    #[test]
    fn similarity_bounds() {
        let c = corpus();
        let s = sweep_exact(&c, ContentSet::Caches, 4096, Codec::Off);
        let sim = s.cross_similarity();
        assert!((0.0..=1.0 + 1e-9).contains(&sim), "similarity {sim}");
    }

    #[test]
    fn ccr_is_product() {
        let c = corpus();
        let s = sweep_exact(&c, ContentSet::Caches, 8192, Codec::Gzip(6));
        let want = s.dedup_ratio() * s.compression_ratio();
        assert!((s.ccr() - want).abs() < 1e-9);
    }
}
