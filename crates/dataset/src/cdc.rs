//! Content-defined chunking (CDC): the variable-size alternative to fixed
//! blocks.
//!
//! The paper justifies using ZFS (fixed-size records) by citing Jin &
//! Miller's finding that fixed-size chunking deduplicates VM images about
//! as well as variable-size chunking. This module lets the reproduction
//! *test* that claim on its corpus.
//!
//! The chunker itself — Gear rolling hash, parameters, boundary scan —
//! lives in [`squirrel_hash::cdc`], the same implementation `squirrel_zfs`
//! pools use when configured with `PoolConfig::with_cdc`. This module only
//! adapts corpus caches onto that shared code (via the shared
//! [`ChunkLedger`] accounting), so the dataset-level dedup sweeps and the
//! pool's ingest path cannot drift apart.

use crate::corpus::Corpus;
pub use squirrel_hash::cdc::{chunk_boundaries, CdcParams, ChunkLedger, ChunkingStats};

/// Deduplicate the corpus' caches under CDC with the given parameters.
///
/// The gear table is seeded from the corpus seed, so boundaries are a pure
/// function of (corpus, parameters).
pub fn cdc_dedup_caches(corpus: &Corpus, params: &CdcParams) -> ChunkingStats {
    let params = params.with_gear_seed(corpus.config().seed);
    let mut ledger = ChunkLedger::new();
    for img in corpus.iter() {
        let mut data = vec![0u8; img.cache().bytes() as usize];
        img.read_at(0, &mut data);
        for (s, e) in chunk_boundaries(&data, &params) {
            ledger.add_chunk(&data[s..e]);
        }
    }
    ledger.finish()
}

/// Deduplicate the corpus' caches under fixed-size blocks of `bs` (the same
/// ledger as [`cdc_dedup_caches`], for apples-to-apples comparison).
pub fn fixed_dedup_caches(corpus: &Corpus, bs: usize) -> ChunkingStats {
    let mut ledger = ChunkLedger::new();
    for img in corpus.iter() {
        for block in img.cache().blocks_trimmed(bs) {
            if !block.is_empty() {
                ledger.add_chunk(&block);
            }
        }
    }
    ledger.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusConfig};

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig::test_corpus(12, 55))
    }

    #[test]
    fn boundaries_cover_input_exactly() {
        let c = corpus();
        let img = c.image(0);
        let mut data = vec![0u8; img.cache().bytes() as usize];
        img.read_at(0, &mut data);
        let params = CdcParams::with_average(4096).with_gear_seed(1);
        let cuts = chunk_boundaries(&data, &params);
        assert_eq!(cuts.first().expect("nonempty").0, 0);
        assert_eq!(cuts.last().expect("nonempty").1, data.len());
        for w in cuts.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous");
        }
    }

    #[test]
    fn chunk_sizes_respect_bounds_and_average() {
        let c = corpus();
        let img = c.image(1);
        let mut data = vec![0u8; img.cache().bytes() as usize];
        img.read_at(0, &mut data);
        let params = CdcParams::with_average(4096).with_gear_seed(1);
        let cuts = chunk_boundaries(&data, &params);
        for &(s, e) in &cuts[..cuts.len() - 1] {
            let n = e - s;
            assert!(n >= params.min_size, "chunk {n}");
            assert!(n <= params.max_size, "chunk {n}");
        }
        let mean = data.len() as f64 / cuts.len() as f64;
        assert!(
            (1024.0..16384.0).contains(&mean),
            "mean chunk {mean} should be near the 4 KiB target"
        );
    }

    #[test]
    fn boundaries_survive_prefix_insertion() {
        // The CDC selling point: shifting content re-synchronizes.
        use squirrel_hash::ContentHash;
        let params = CdcParams::with_average(2048).with_gear_seed(9);
        let c = corpus();
        let img = c.image(2);
        let mut data = vec![0u8; img.cache().bytes() as usize];
        img.read_at(0, &mut data);
        let mut shifted = vec![0xEEu8; 37];
        shifted.extend_from_slice(&data);
        let a: std::collections::HashSet<u128> = chunk_boundaries(&data, &params)
            .iter()
            .map(|&(s, e)| ContentHash::of(&data[s..e]).short())
            .collect();
        let b: std::collections::HashSet<u128> = chunk_boundaries(&shifted, &params)
            .iter()
            .map(|&(s, e)| ContentHash::of(&shifted[s..e]).short())
            .collect();
        let common = a.intersection(&b).count();
        assert!(
            common * 2 > a.len(),
            "most chunks must survive a 37-byte prefix shift: {common}/{}",
            a.len()
        );
    }

    #[test]
    fn fixed_and_cdc_dedup_are_comparable_on_caches() {
        // Jin & Miller's finding, the paper's justification for ZFS: on VM
        // content, fixed-size chunking dedups about as well as CDC.
        let c = corpus();
        let fixed = fixed_dedup_caches(&c, 4096);
        let cdc = cdc_dedup_caches(&c, &CdcParams::with_average(4096));
        assert!(fixed.dedup_ratio() > 1.2, "{}", fixed.dedup_ratio());
        assert!(cdc.dedup_ratio() > 1.2, "{}", cdc.dedup_ratio());
        let rel = fixed.dedup_ratio() / cdc.dedup_ratio();
        assert!(
            (0.55..=1.8).contains(&rel),
            "fixed {} vs cdc {} should be the same ballpark",
            fixed.dedup_ratio(),
            cdc.dedup_ratio()
        );
    }

    #[test]
    fn stats_totals_consistent() {
        let c = corpus();
        let s = fixed_dedup_caches(&c, 8192);
        assert!(s.unique_chunks <= s.total_chunks);
        assert!(s.unique_bytes <= s.total_bytes);
        assert!(s.mean_chunk_bytes > 0.0);
    }

    #[test]
    fn cdc_gear_seed_follows_corpus_seed() {
        // Two corpora with different seeds chunk under different gear
        // tables but the accounting stays self-consistent.
        let c = corpus();
        let s = cdc_dedup_caches(&c, &CdcParams::with_average(4096));
        assert!(s.unique_chunks <= s.total_chunks);
        assert!(s.dedup_ratio() >= 1.0);
    }
}
